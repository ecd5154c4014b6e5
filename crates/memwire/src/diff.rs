//! Twin/diff write detection.
//!
//! The software DSM detects modifications the TreadMarks/JiaJia way: the
//! first write to a page in an interval snapshots a pristine *twin*; at a
//! release point the current page is compared against the twin and the
//! changed bytes are encoded as a *diff*, which is shipped to the page's
//! home and applied there. Diffs from different writers to disjoint
//! parts of a page merge cleanly (the usual false-sharing remedy of
//! multiple-writer protocols).
//!
//! A diff is held at the width of a 64-byte block: which blocks changed
//! and, for a block only some of whose bytes changed, a byte mask, so
//! encoding and applying cost a few word operations per block however
//! many byte runs the block breaks into. It copies none of the changed
//! bytes: it keeps the [`Page`] it was taken from and its twin
//! (reference-count bumps), and applying reads each block there at its
//! own offset — or, at a home that still holds the twin itself, takes
//! the page whole. That is safe because a page is copy-on-write: the
//! writer's next write copies the page and leaves the diff's view
//! intact. The modelled wire size is still that of the byte-granular
//! run-length encoding JiaJia ships.

use crate::addr::PAGE_SIZE;
use sim::Page;

/// Granularity of the encoding: blocks that are equal throughout or
/// changed throughout are classified by one vectorisable pass and never
/// looked at word by word.
const BLOCK: usize = 64;

// A page's blocks are the bits of one `u64`.
const _: () = assert!(PAGE_SIZE / BLOCK == 64);

/// The encoded difference between a twin and the page taken from it.
///
/// Two block bitmaps — *whole* blocks, every byte changed, and *mixed*
/// ones, some bytes changed — a byte mask per mixed block, and the page
/// and its twin, shared: applying copies each run of adjacent whole
/// blocks as one span and blends each mixed block from the page, and a
/// home still holding the twin becomes the page. The wire size is priced
/// from the byte-granular run count (a run ends at the first byte equal
/// to the twin's), counted from the masks' edges when the diff is built.
///
/// ```
/// use memwire::{Diff, Page, PAGE_SIZE};
/// let twin = Page::zeroed(PAGE_SIZE);
/// let mut page = twin.clone();
/// // Copy-on-write: the first write copies, the twin keeps its bytes.
/// page.make_mut()[100..108].copy_from_slice(&0x0102030405060708u64.to_le_bytes());
/// let diff = Diff::of(&twin, &page);
/// assert_eq!(diff.changed_bytes(), 8);
///
/// let mut home = twin.to_vec();
/// diff.apply(&mut home);
/// assert_eq!(home[..], page[..]);
///
/// // A home that still holds the twin takes the page, copying nothing.
/// let mut home = twin.clone();
/// diff.apply_to(&mut home);
/// assert!(home.ptr_eq(&page));
/// ```
#[derive(Debug, Clone)]
pub struct Diff {
    /// Bit `b` set iff every byte of block `b` changed.
    whole: u64,
    /// Bit `b` set iff some, not all, bytes of block `b` changed.
    mixed: u64,
    /// One per mixed block, in page order: bit `i` set iff byte `i` of
    /// the block changed.
    masks: Vec<u64>,
    /// The page the diff was taken from; the changed blocks are read
    /// from it at their own offsets.
    page: Page,
    /// The twin it was taken against.
    twin: Page,
    /// Byte runs of the run-length encoding.
    runs: u32,
    /// Bytes that differ from the twin.
    changed: u32,
}

/// Bit `i` set iff byte `i` (little-endian) of `x` is non-zero.
fn nonzero_bytes(x: u64) -> u8 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    // High bit of each non-zero byte, then gathered into one byte by a
    // carry-free multiply.
    let high = (((x & LOW7) + LOW7) | x) & !LOW7;
    ((high >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8
}

/// The inverse, by table: byte `i` of `BYTE_MASK[bits]` is `0xff` iff
/// bit `i` of `bits` is set.
static BYTE_MASK: [u64; 256] = {
    let (mut table, mut bit) = ([0; 256], 0);
    while bit < 256 * 8 {
        table[bit / 8] |= (((bit / 8) >> (bit % 8)) as u64 & 1) * (0xff << (8 * (bit % 8)));
        bit += 1;
    }
    table
};

/// The maximal runs of set bits in `blocks`, as `(first, count)`.
fn spans(mut blocks: u64) -> impl Iterator<Item = (usize, usize)> {
    std::iter::from_fn(move || {
        (blocks != 0).then(|| {
            let b = blocks.trailing_zeros() as usize;
            let n = (blocks >> b).trailing_ones() as usize;
            // Adding the lowest set bit carries through the lowest run.
            blocks &= blocks.wrapping_add(blocks & blocks.wrapping_neg());
            (b, n)
        })
    })
}

/// The set bits of `blocks`, lowest first.
fn bits(blocks: u64) -> impl Iterator<Item = usize> {
    spans(blocks).flat_map(|(b, n)| b..b + n)
}

impl Diff {
    /// Compare `current` against its pristine `twin` and encode which
    /// bytes changed, keeping both (reference-count bumps, no copy) to
    /// apply them from. Both must be exactly one page.
    pub fn of(twin: &Page, current: &Page) -> Self {
        assert_eq!(twin.len(), PAGE_SIZE, "twin must be one page");
        assert_eq!(current.len(), PAGE_SIZE, "page must be one page");
        let (old, new) = (twin.as_chunks::<BLOCK>().0, current.as_chunks::<BLOCK>().0);
        let (mut whole, mut mixed) = (0u64, 0u64);
        for (b, (t, c)) in old.iter().zip(new).enumerate() {
            let (any_equal, any_changed) =
                t.iter().zip(c).fold((false, false), |(e, n), (x, y)| (e | (x == y), n | (x != y)));
            whole |= ((any_changed && !any_equal) as u64) << b;
            mixed |= ((any_changed && any_equal) as u64) << b;
        }

        let masks = Vec::with_capacity(mixed.count_ones() as usize);
        let (runs, changed) = (whole.count_ones(), whole.count_ones() * BLOCK as u32);
        let (page, twin) = (current.clone(), twin.clone());
        let mut d = Self { whole, mixed, masks, page, twin, runs, changed };
        // Blocks whose first / last byte changed.
        let (mut first, mut last) = (whole, whole);
        for b in bits(mixed) {
            let (t, c) = (old[b].as_chunks::<8>().0, new[b].as_chunks::<8>().0);
            let mask = t.iter().zip(c).enumerate().fold(0, |mask, (w, (t, c))| {
                let differs = nonzero_bytes(u64::from_le_bytes(*t) ^ u64::from_le_bytes(*c));
                mask | (differs as u64) << (8 * w)
            });
            d.runs += (mask & !(mask << 1)).count_ones();
            d.changed += mask.count_ones();
            first |= (mask & 1) << b;
            last |= (mask >> 63) << b;
            d.masks.push(mask);
        }
        // Every block counted a run starting at its first byte; it is
        // none where the previous block's last byte changed too.
        d.runs -= (first & last << 1).count_ones();
        d
    }

    /// [`Diff::of`] for pages held as slices: each is copied into a
    /// [`Page`] once. The DSM diffs its cached pages with [`Diff::of`];
    /// this serves callers holding plain buffers.
    pub fn between(twin: &[u8], current: &[u8]) -> Self {
        Self::of(&Page::from(twin), &Page::from(current))
    }

    /// Apply this diff to the master copy `home`. A home that still holds
    /// the twin itself — nobody changed it since the writer fetched it —
    /// becomes the diff's page, a reference-count bump; any other is
    /// written copy-on-write, as by [`Diff::apply`].
    pub fn apply_to(&self, home: &mut Page) {
        if home.ptr_eq(&self.twin) {
            *home = self.page.clone();
        } else {
            self.apply(home.make_mut());
        }
    }

    /// Apply this diff to `page` (the home copy): whole spans are
    /// copied, mixed blocks blended a word at a time, each from the page
    /// the diff was taken from at its own offset. Panics on a malformed
    /// diff — not one mask per mixed block, or a block both whole and
    /// mixed — rather than apply it askew.
    pub fn apply(&self, page: &mut [u8]) {
        assert_eq!(page.len(), PAGE_SIZE, "target must be one page");
        assert!(
            self.whole & self.mixed == 0 && self.masks.len() == self.mixed.count_ones() as usize,
            "malformed diff"
        );
        let (page, src) = (page.as_chunks_mut::<BLOCK>().0, self.page.as_chunks::<BLOCK>().0);
        for (b, n) in spans(self.whole) {
            // A lone block is copied at its fixed width, not by `memcpy`.
            if n == 1 { page[b] = src[b] } else { page[b..b + n].copy_from_slice(&src[b..b + n]) }
        }
        for (b, &mask) in bits(self.mixed).zip(&self.masks) {
            let words = page[b].as_chunks_mut::<8>().0.iter_mut().zip(src[b].as_chunks::<8>().0);
            for (w, (o, s)) in words.enumerate() {
                let m = BYTE_MASK[(mask >> (8 * w)) as u8 as usize];
                *o = (u64::from_le_bytes(*o) & !m | u64::from_le_bytes(*s) & m).to_le_bytes();
            }
        }
    }

    /// True if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.whole | self.mixed == 0
    }

    /// Total count of changed bytes.
    pub fn changed_bytes(&self) -> usize {
        self.changed as usize
    }

    /// Size of this diff on the wire: 4 bytes of header per byte run plus
    /// the changed bytes (matches the JiaJia encoding granularity).
    pub fn wire_bytes(&self) -> u64 {
        4 * self.runs as u64 + self.changed as u64 + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// `(offset, len)` of each maximal run of bytes for which `changed`
    /// holds, in ascending order.
    fn runs_of(changed: impl Fn(usize) -> bool) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        let mut i = 0;
        while i < PAGE_SIZE {
            if changed(i) {
                let start = i;
                while i < PAGE_SIZE && changed(i) {
                    i += 1;
                }
                runs.push((start, i - start));
            } else {
                i += 1;
            }
        }
        runs
    }

    /// The byte-at-a-time run-length encoder the block masks replaced,
    /// kept as the oracle: a run starts at a byte that differs from the
    /// twin's and ends at the first that does not.
    fn reference(twin: &[u8], current: &[u8]) -> Vec<(usize, usize)> {
        runs_of(|i| twin[i] != current[i])
    }

    /// The run list `d`'s bitmaps and masks describe.
    fn runs(d: &Diff) -> Vec<(usize, usize)> {
        let mut changed = [false; PAGE_SIZE];
        let mixed = bits(d.mixed).zip(d.masks.iter().copied());
        for (b, mask) in bits(d.whole).map(|b| (b, !0)).chain(mixed) {
            for (i, c) in changed[b * BLOCK..][..BLOCK].iter_mut().enumerate() {
                *c = mask >> i & 1 == 1;
            }
        }
        runs_of(|i| changed[i])
    }

    /// `of` and `between` must agree with the oracle run for run, price
    /// the same on the wire, and rebuild `current` from `twin`; `of`
    /// keeps the very page it was given.
    fn check_against_reference(twin: &[u8], current: &[u8]) -> Diff {
        let (base, page) = (Page::from(twin), Page::from(current));
        let d = Diff::of(&base, &page);
        assert!(d.page.ptr_eq(&page) && d.twin.ptr_eq(&base), "a diff views its pages, not copies");
        let r = reference(twin, current);
        for d in [&d, &Diff::between(twin, current)] {
            assert_eq!(runs(d), r, "run list differs from the byte-wise encoder");
            assert_eq!(d.wire_bytes(), r.iter().map(|&(_, len)| 4 + len as u64).sum::<u64>() + 8);
            assert_eq!(d.changed_bytes(), twin.iter().zip(current).filter(|(a, b)| a != b).count());
            assert_eq!(d.whole & d.mixed, 0);
            assert_eq!(d.masks.len(), d.mixed.count_ones() as usize);
            let mut home = twin.to_vec();
            d.apply(&mut home);
            assert_eq!(home, current);
        }
        // At a home holding the twin the page is taken whole; at one
        // holding an equal copy the diff is applied.
        let (mut holding, mut equal) = (base.clone(), Page::from(twin));
        d.apply_to(&mut holding);
        d.apply_to(&mut equal);
        assert!(holding.ptr_eq(&page) && !equal.ptr_eq(&page));
        assert_eq!(equal.as_slice(), current);
        d
    }

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; PAGE_SIZE]
    }

    /// One page (512 cells) of row `i` of the SOR grid, as
    /// `apps::sor::init_row` fills it.
    fn sor_row(i: usize) -> Vec<f64> {
        (0..PAGE_SIZE / 8).map(|j| ((i * 31 + j * 17) % 97) as f64 / 97.0).collect()
    }

    /// One Jacobi sweep over `rows`, edges fixed (`apps::sor::relax`).
    fn sor_sweep(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let mut next = rows.to_vec();
        for i in 1..rows.len() - 1 {
            for j in 1..rows[i].len() - 1 {
                next[i][j] =
                    0.25 * (rows[i - 1][j] + rows[i + 1][j] + rows[i][j - 1] + rows[i][j + 1]);
            }
        }
        next
    }

    fn f64_page(row: &[f64]) -> Vec<u8> {
        row.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn byte_mask_inverts_nonzero_bytes() {
        for (bits, &m) in BYTE_MASK.iter().enumerate() {
            assert_eq!(nonzero_bytes(m) as usize, bits);
            assert!(m.to_le_bytes().iter().all(|&b| b == 0 || b == 0xff));
        }
    }

    #[test]
    fn identical_pages_give_empty_diff() {
        let twin = page_of(0);
        let d = check_against_reference(&twin, &twin);
        assert!(d.is_empty());
        assert_eq!(d.changed_bytes(), 0);
    }

    #[test]
    fn single_run_encoded() {
        let twin = page_of(0);
        let mut cur = twin.clone();
        cur[100..110].fill(7);
        let d = check_against_reference(&twin, &cur);
        assert_eq!(runs(&d), [(100, 10)]);
        assert_eq!((d.whole, d.mixed, &d.masks[..]), (0, 1 << 1, &[0x3ff << 36][..]));
    }

    #[test]
    fn sparse_slot_and_full_rewrite_match_reference() {
        // The ledger's two probes: one 64-byte KV slot, and every byte.
        // Each is whole blocks only: no masks, one span.
        let twin = page_of(0);
        let mut slot = twin.clone();
        slot[1024..1088].fill(0xff);
        let d = check_against_reference(&twin, &slot);
        assert_eq!((d.wire_bytes(), d.whole, d.mixed), (76, 1 << 16, 0));
        let d = check_against_reference(&twin, &page_of(0xff));
        assert_eq!((d.wire_bytes(), d.whole, d.mixed), (4108, !0, 0));
        assert_eq!(spans(d.whole).collect::<Vec<_>>(), [(0, 64)]);
    }

    #[test]
    fn runs_at_every_alignment_match_reference() {
        // Every (start, length) shape around word and block boundaries,
        // alone and next to a second run one unchanged byte away.
        let twin = page_of(3);
        for start in (0..20).chain(56..72).chain(PAGE_SIZE - 20..PAGE_SIZE) {
            for len in 1..=(PAGE_SIZE - start).min(70) {
                let mut cur = twin.clone();
                cur[start..start + len].fill(4);
                check_against_reference(&twin, &cur);
                if start + len + 2 <= PAGE_SIZE {
                    cur[start + len + 1] = 5;
                    assert_eq!(runs(&check_against_reference(&twin, &cur)).len(), 2);
                }
            }
        }
    }

    #[test]
    fn random_pages_match_reference() {
        let mut rng = StdRng::seed_from_u64(18);
        for round in 0..200 {
            let twin: Vec<u8> = (0..PAGE_SIZE).map(|_| rng.gen()).collect();
            let mut cur = twin.clone();
            // From a handful of edits to most of the page; a two-value
            // alphabet on odd rounds so equal bytes are common.
            for _ in 0..rng.gen_range(0..PAGE_SIZE) >> (round % 12) {
                let at = rng.gen_range(0..PAGE_SIZE);
                let len = rng.gen_range(1..40usize).min(PAGE_SIZE - at);
                for b in &mut cur[at..at + len] {
                    *b = if round % 2 == 1 { rng.gen::<u8>() & 1 } else { rng.gen() };
                }
            }
            check_against_reference(&twin, &cur);
        }
    }

    #[test]
    fn sor_iterates_match_reference() {
        // Consecutive Jacobi iterates: changed `f64`s share sign,
        // exponent and often mantissa bytes, so a page breaks into
        // hundreds of short runs — several per block, the shape the
        // block masks are for.
        let mut rows: Vec<Vec<f64>> = (0..6).map(sor_row).collect();
        for _ in 0..4 {
            let next = sor_sweep(&rows);
            for (before, after) in rows.iter().zip(&next).skip(1).take(4) {
                let d = check_against_reference(&f64_page(before), &f64_page(after));
                assert!(runs(&d).len() > 300, "only {} runs", runs(&d).len());
            }
            rows = next;
        }
    }

    #[test]
    fn apply_reconstructs_current() {
        let twin = page_of(1);
        let mut cur = twin.clone();
        cur[0] = 9;
        cur[4095] = 9;
        cur[2000..2100].fill(3);
        check_against_reference(&twin, &cur);
    }

    #[test]
    fn disjoint_diffs_merge() {
        // Two writers modify disjoint parts of the same page, here of
        // the same blocks; applying both diffs to the home must preserve
        // both sets of writes (multiple-writer protocol invariant).
        let twin = page_of(0);
        let mut a = twin.clone();
        a[..100].fill(1);
        let mut b = twin.clone();
        b[100..300].iter_mut().step_by(2).for_each(|x| *x = 2);
        let da = Diff::between(&twin, &a);
        let db = Diff::between(&twin, &b);
        let mut home = twin.clone();
        da.apply(&mut home);
        db.apply(&mut home);
        assert!(home[..100].iter().all(|&x| x == 1));
        assert!(home[100..300].iter().step_by(2).all(|&x| x == 2));
        assert!(home[101..300].iter().step_by(2).all(|&x| x == 0));
        assert!(home[300..].iter().all(|&x| x == 0));
    }

    #[test]
    fn wire_bytes_tracks_payload() {
        let twin = page_of(0);
        let mut cur = twin.clone();
        cur[0..8].fill(5);
        let d = Diff::between(&twin, &cur);
        assert_eq!(d.wire_bytes(), 8 + 4 + 8);
    }

    #[test]
    #[should_panic(expected = "one page")]
    fn wrong_size_rejected() {
        let _ = Diff::between(&[0u8; 10], &[0u8; 10]);
    }

    fn malformed(whole: u64, mixed: u64, masks: usize) -> Diff {
        let (page, twin) = (Page::from(vec![1; PAGE_SIZE]), Page::zeroed(PAGE_SIZE));
        Diff { whole, mixed, masks: vec![1; masks], page, twin, runs: 1, changed: 1 }
    }

    #[test]
    #[should_panic(expected = "malformed diff")]
    fn surplus_mask_rejected() {
        malformed(0, 0b1, 2).apply(&mut page_of(0));
    }

    #[test]
    #[should_panic(expected = "malformed diff")]
    fn missing_mask_rejected() {
        malformed(0, 0b11, 1).apply(&mut page_of(0));
    }

    #[test]
    #[should_panic(expected = "malformed diff")]
    fn block_both_whole_and_mixed_rejected() {
        malformed(0b1, 0b1, 1).apply(&mut page_of(0));
    }
}
