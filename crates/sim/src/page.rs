//! [`Page`]: the immutable, shared page value of the page protocol.
//!
//! It lives here, below both `memwire` (which caches and diffs pages)
//! and `interconnect` (which carries them), so one value travels from
//! a home store through a fetch reply into a node's page cache, becomes
//! its twin and the source of its diff, and goes back home in a
//! whole-page write-back, without a conversion at any crate boundary.
//! Both crates re-export it as their own `Page`.

use std::sync::Arc;

/// An immutable, cheaply clonable page of bytes.
///
/// Cloning a `Page` bumps a reference count; the bytes are shared. A
/// home store that hands out snapshots therefore pays nothing per
/// fetch, a cached copy is the home's own allocation until somebody
/// writes it, and a retried message clones Arcs, not kilobytes.
/// Mutation goes through [`Page::make_mut`], which copies only when the
/// bytes are shared (copy-on-write) — exactly the ownership shape of a
/// real zero-copy transport, where a page in flight must not be
/// scribbled on.
///
/// Downstream code names this type (as `interconnect::Page` or
/// `memwire::Page`), never the `Arc<[u8]>` representation.
#[derive(Clone, PartialEq, Eq)]
pub struct Page(Arc<[u8]>);

impl Page {
    /// A zero-filled page of `len` bytes, built in its one allocation
    /// (a `Vec` turned into an `Arc<[u8]>` would be copied into a second).
    pub fn zeroed(len: usize) -> Self {
        Self(std::iter::repeat_n(0, len).collect())
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for a zero-length page.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The bytes, read-only.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// True when both are handles to one allocation. Such pages hold
    /// the same bytes: a shared page is never written in place.
    pub fn ptr_eq(&self, other: &Page) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Mutable access, copy-on-write: in-place when this is the only
    /// reference, otherwise the bytes are copied first so shared
    /// snapshots (pages in flight, twins, diffs) are never mutated.
    pub fn make_mut(&mut self) -> &mut [u8] {
        if Arc::get_mut(&mut self.0).is_none() {
            self.0 = Arc::from(&self.0[..]);
        }
        Arc::get_mut(&mut self.0).expect("freshly copied page is uniquely owned")
    }

    /// Write `data` at `offset`, copy-on-write as [`Page::make_mut`],
    /// except that a write covering the whole of a shared page replaces
    /// it instead of first copying the bytes it overwrites.
    pub fn write(&mut self, offset: usize, data: &[u8]) {
        if offset == 0 && data.len() == self.len() && Arc::get_mut(&mut self.0).is_none() {
            *self = Self::from(data);
        } else {
            self.make_mut()[offset..offset + data.len()].copy_from_slice(data);
        }
    }
}

impl From<Vec<u8>> for Page {
    fn from(v: Vec<u8>) -> Self {
        Self(v.into())
    }
}

impl From<&[u8]> for Page {
    fn from(v: &[u8]) -> Self {
        Self(Arc::from(v))
    }
}

impl std::ops::Deref for Page {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Page {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Don't dump kilobytes of page contents into assertion output.
        write!(f, "Page({} bytes)", self.0.len())
    }
}
