//! Twin/diff write detection.
//!
//! The software DSM detects modifications the TreadMarks/JiaJia way: the
//! first write to a page in an interval snapshots a pristine *twin*; at a
//! release point the current page is compared against the twin and the
//! changed byte runs are encoded as a *diff*, which is shipped to the
//! page's home and applied there. Diffs from different writers to
//! disjoint parts of a page merge cleanly (the usual false-sharing
//! remedy of multiple-writer protocols).

use crate::addr::PAGE_SIZE;

/// One run of modified bytes within a page: where it starts and how
/// many of the diff's payload bytes belong to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DiffRun {
    offset: u16,
    len: u16,
}

/// The encoded difference between a twin and the current page contents.
///
/// Run boundaries are byte-granular (a run ends at the first byte equal
/// to the twin's), which fixes the modelled wire size. The encoding is
/// flat: one list of `(offset, len)` runs in ascending offset order and
/// one buffer holding every run's new bytes back to back, so a page
/// that breaks into hundreds of runs — any page of `f64`s, where equal
/// bytes inside changed values split them — costs two allocations, not
/// one per run.
///
/// ```
/// use memwire::{Diff, PAGE_SIZE};
/// let twin = vec![0u8; PAGE_SIZE];
/// let mut page = twin.clone();
/// page[100..108].copy_from_slice(&0x0102030405060708u64.to_le_bytes());
/// let diff = Diff::between(&twin, &page);
/// assert_eq!(diff.changed_bytes(), 8);
///
/// let mut home = twin.clone();
/// diff.apply(&mut home);
/// assert_eq!(home, page);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diff {
    runs: Vec<DiffRun>,
    /// The runs' new bytes, concatenated; `runs[i].len` of them belong
    /// to run `i`.
    bytes: Vec<u8>,
}

/// Granularity of the coarse scan: blocks that are equal throughout or
/// changed throughout are classified by one vectorisable pass and never
/// looked at word by word.
const BLOCK: usize = 64;

/// Bit `i` set iff byte `i` (little-endian) of `x` is non-zero.
#[inline]
fn nonzero_bytes(x: u64) -> u8 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    // High bit of each non-zero byte, then gathered into one byte by a
    // carry-free multiply.
    let high = (((x & LOW7) + LOW7) | x) & !LOW7;
    ((high >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8
}

/// Run boundaries under construction: the closed runs and the start of
/// the one still being extended.
#[derive(Default)]
struct Scan {
    runs: Vec<DiffRun>,
    open: Option<usize>,
}

impl Scan {
    /// The bytes from `at` on are unchanged: close the open run, if any.
    #[inline]
    fn close(&mut self, at: usize) {
        if let Some(start) = self.open.take() {
            self.runs.push(DiffRun { offset: start as u16, len: (at - start) as u16 });
        }
    }

    /// Scan `twin` against `current` (equal lengths, a multiple of
    /// eight) a word at a time; `base` is their offset within the page.
    #[inline]
    fn words(&mut self, base: usize, twin: &[u8], current: &[u8]) {
        let (twin, current) = (twin.as_chunks::<8>().0, current.as_chunks::<8>().0);
        for (w, (t, c)) in twin.iter().zip(current).enumerate() {
            let differs = nonzero_bytes(u64::from_le_bytes(*t) ^ u64::from_le_bytes(*c));
            // A boundary sits before every byte whose state differs from
            // its predecessor's; byte 0's predecessor is the open run.
            let mut edges = differs ^ (differs << 1 | self.open.is_some() as u8);
            while edges != 0 {
                let at = base + w * 8 + edges.trailing_zeros() as usize;
                edges &= edges - 1;
                match self.open {
                    Some(_) => self.close(at),
                    None => self.open = Some(at),
                }
            }
        }
    }
}

impl Diff {
    /// Compare `current` against its pristine `twin` and encode the
    /// changed runs. Both slices must be exactly one page.
    pub fn between(twin: &[u8], current: &[u8]) -> Self {
        assert_eq!(twin.len(), PAGE_SIZE, "twin must be one page");
        assert_eq!(current.len(), PAGE_SIZE, "page must be one page");
        let mut scan = Scan::default();
        for (b, (t, c)) in twin.chunks_exact(BLOCK).zip(current.chunks_exact(BLOCK)).enumerate() {
            let (mut any_equal, mut any_changed) = (false, false);
            for (x, y) in t.iter().zip(c) {
                any_equal |= x == y;
                any_changed |= x != y;
            }
            match (any_equal, any_changed) {
                (_, false) => scan.close(b * BLOCK),
                (false, true) => {
                    scan.open.get_or_insert(b * BLOCK);
                }
                (true, true) => scan.words(b * BLOCK, t, c),
            }
        }
        scan.close(PAGE_SIZE);

        let runs = scan.runs;
        let mut bytes = Vec::with_capacity(runs.iter().map(|r| r.len as usize).sum());
        for r in &runs {
            bytes.extend_from_slice(&current[r.offset as usize..][..r.len as usize]);
        }
        Self { runs, bytes }
    }

    /// Apply this diff to `page` (the home copy). Panics on a malformed
    /// diff — run lengths that do not add up to the payload, or a run
    /// past the end of the page — rather than apply it askew.
    pub fn apply(&self, page: &mut [u8]) {
        assert_eq!(page.len(), PAGE_SIZE, "target must be one page");
        let mut rest = self.bytes.as_slice();
        for r in &self.runs {
            let (offset, len) = (r.offset as usize, r.len as usize);
            assert!(len <= rest.len(), "malformed diff: run lengths exceed the payload");
            assert!(offset + len <= PAGE_SIZE, "malformed diff: run overruns the page");
            let (new, tail) = rest.split_at(len);
            page[offset..offset + len].copy_from_slice(new);
            rest = tail;
        }
        assert!(rest.is_empty(), "malformed diff: payload exceeds the run lengths");
    }

    /// True if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total count of changed bytes.
    pub fn changed_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Size of this diff on the wire: 4 bytes of header per run plus the
    /// payload bytes (matches the JiaJia encoding granularity).
    pub fn wire_bytes(&self) -> u64 {
        4 * self.runs.len() as u64 + self.bytes.len() as u64 + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The byte-at-a-time encoder the block/word scan replaced, kept as
    /// the oracle: a run starts at a byte that differs from the twin's
    /// and ends at the first that does not.
    fn reference(twin: &[u8], current: &[u8]) -> Diff {
        let mut d = Diff::default();
        let mut i = 0;
        while i < PAGE_SIZE {
            if twin[i] != current[i] {
                let start = i;
                while i < PAGE_SIZE && twin[i] != current[i] {
                    i += 1;
                }
                d.runs.push(DiffRun { offset: start as u16, len: (i - start) as u16 });
                d.bytes.extend_from_slice(&current[start..i]);
            } else {
                i += 1;
            }
        }
        d
    }

    /// `between` must agree with the oracle run for run, price the same
    /// on the wire, and rebuild `current` from `twin`.
    fn check_against_reference(twin: &[u8], current: &[u8]) -> Diff {
        let d = Diff::between(twin, current);
        let r = reference(twin, current);
        assert_eq!(d, r, "run list or payload differs from the byte-wise encoder");
        assert_eq!(d.wire_bytes(), r.runs.iter().map(|r| 4 + r.len as u64).sum::<u64>() + 8);
        assert_eq!(d.changed_bytes(), twin.iter().zip(current).filter(|(a, b)| a != b).count());
        let mut home = twin.to_vec();
        d.apply(&mut home);
        assert_eq!(home, current);
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
        assert_eq!(d.runs, [DiffRun { offset: 100, len: 10 }]);
        assert_eq!(d.bytes, [7; 10]);
    }

    #[test]
    fn sparse_slot_and_full_rewrite_match_reference() {
        // The ledger's two probes: one 64-byte KV slot, and every byte.
        let twin = page_of(0);
        let mut slot = twin.clone();
        slot[1024..1088].fill(0xff);
        assert_eq!(check_against_reference(&twin, &slot).wire_bytes(), 76);
        assert_eq!(check_against_reference(&twin, &page_of(0xff)).wire_bytes(), 4108);
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
                    assert_eq!(check_against_reference(&twin, &cur).runs.len(), 2);
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
        // hundreds of short runs — the shape the flat encoding is for.
        let mut rows: Vec<Vec<f64>> = (0..6).map(sor_row).collect();
        for _ in 0..4 {
            let next = sor_sweep(&rows);
            for (before, after) in rows.iter().zip(&next).skip(1).take(4) {
                let d = check_against_reference(&f64_page(before), &f64_page(after));
                assert!(d.runs.len() > 300, "only {} runs", d.runs.len());
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
        // Two writers modify disjoint halves of the same page; applying
        // both diffs to the home must preserve both sets of writes
        // (multiple-writer protocol invariant).
        let twin = page_of(0);
        let mut a = twin.clone();
        a[..100].fill(1);
        let mut b = twin.clone();
        b[200..300].fill(2);
        let da = Diff::between(&twin, &a);
        let db = Diff::between(&twin, &b);
        let mut home = twin.clone();
        da.apply(&mut home);
        db.apply(&mut home);
        assert!(home[..100].iter().all(|&x| x == 1));
        assert!(home[200..300].iter().all(|&x| x == 2));
        assert!(home[100..200].iter().all(|&x| x == 0));
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

    #[test]
    #[should_panic(expected = "run lengths exceed the payload")]
    fn short_payload_rejected() {
        let d = Diff { runs: vec![DiffRun { offset: 0, len: 8 }], bytes: vec![1; 7] };
        d.apply(&mut page_of(0));
    }

    #[test]
    #[should_panic(expected = "payload exceeds the run lengths")]
    fn surplus_payload_rejected() {
        let d = Diff { runs: vec![DiffRun { offset: 0, len: 8 }], bytes: vec![1; 9] };
        d.apply(&mut page_of(0));
    }

    #[test]
    #[should_panic(expected = "overruns the page")]
    fn run_past_the_page_rejected() {
        let d = Diff {
            runs: vec![DiffRun { offset: (PAGE_SIZE - 4) as u16, len: 8 }],
            bytes: vec![1; 8],
        };
        d.apply(&mut page_of(0));
    }
}
