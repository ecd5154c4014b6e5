//! Little-endian `f64` marshalling for bulk transfers.
//!
//! Every platform moves bytes; the kernels and the programming-model
//! adapters move rows of `f64`. The conversion goes through a scratch
//! buffer each thread keeps for its lifetime, so a row transfer
//! allocates nothing and clears nothing, and on a little-endian host
//! the conversion loop is a block copy. (`to_le_bytes`/`from_le_bytes`,
//! not a reinterpreting cast: a big-endian host converts for real.)

use std::cell::Cell;

thread_local! {
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Run `f` on `bytes` bytes of this thread's scratch buffer (contents
/// unspecified). The buffer is taken out of its slot meanwhile, so a
/// nested call merely allocates a fresh one.
fn with_scratch(bytes: usize, f: impl FnOnce(&mut [u8])) {
    let mut buf = SCRATCH.take();
    if buf.len() < bytes {
        buf.resize(bytes, 0);
    }
    f(&mut buf[..bytes]);
    SCRATCH.set(buf);
}

/// Fill `out` with the `f64`s that `read_bytes` delivers as
/// `8 * out.len()` little-endian bytes.
///
/// ```
/// let stored: Vec<u8> = [1.5f64, -2.0].iter().flat_map(|v| v.to_le_bytes()).collect();
/// let mut row = [0.0; 2];
/// memwire::read_f64s(&mut row, |buf| buf.copy_from_slice(&stored));
/// assert_eq!(row, [1.5, -2.0]);
/// ```
pub fn read_f64s(out: &mut [f64], read_bytes: impl FnOnce(&mut [u8])) {
    with_scratch(out.len() * 8, |buf| {
        read_bytes(buf);
        for (v, b) in out.iter_mut().zip(buf.as_chunks::<8>().0) {
            *v = f64::from_le_bytes(*b);
        }
    })
}

/// Hand `write_bytes` the little-endian encoding of `src`
/// (`8 * src.len()` bytes).
pub fn write_f64s(src: &[f64], write_bytes: impl FnOnce(&[u8])) {
    with_scratch(src.len() * 8, |buf| {
        for (b, v) in buf.as_chunks_mut::<8>().0.iter_mut().zip(src) {
            *b = v.to_le_bytes();
        }
        write_bytes(buf);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_little_endian() {
        let row = [0.0, 1.0, -3.5, f64::MIN_POSITIVE, f64::INFINITY];
        let mut wire = Vec::new();
        write_f64s(&row, |b| wire.extend_from_slice(b));
        assert_eq!(wire.len(), 40);
        assert_eq!(wire[8..16], 1.0f64.to_le_bytes());
        let mut back = [f64::NAN; 5];
        read_f64s(&mut back, |b| b.copy_from_slice(&wire));
        assert_eq!(back, row);
    }

    #[test]
    fn scratch_is_sized_per_call_and_survives_nesting() {
        // A long row, then a short one (which must not see the long
        // row's length), with a transfer nested inside the callback.
        write_f64s(&[7.0; 100], |b| assert_eq!(b.len(), 800));
        write_f64s(&[1.0, 2.0], |outer| {
            assert_eq!(outer.len(), 16);
            let mut inner = [0.0; 3];
            read_f64s(&mut inner, |b| b.copy_from_slice(&[9.0f64.to_le_bytes(); 3].concat()));
            assert_eq!(inner, [9.0; 3]);
            assert_eq!(outer[..8], 1.0f64.to_le_bytes());
        });
        write_f64s(&[], |b| assert!(b.is_empty()));
    }
}
