//! Wire messages of the software-DSM protocol.

use cluster::syncproto::Piggyback;
use memwire::{Diff, Interval, Page, PageId};

/// Request a copy of `page` from its home.
#[derive(Debug, Clone, Copy)]
pub struct GetPage {
    /// The page to fetch (must be homed at the destination).
    pub page: PageId,
}

/// Reply to [`GetPage`]: the page contents.
///
/// Carries a [`Page`] — a shared handle to the home's master bytes, so
/// building (and fault-injected resending) of the reply never copies
/// the page body.
pub struct PageData {
    /// A snapshot of the master copy.
    pub bytes: Page,
    /// The home's modification counter for the page at snapshot time.
    /// Cached alongside the copy; the digest fallback round compares it
    /// against the home's current counter to tell a genuinely stale
    /// copy from a Bloom false positive.
    pub version: u64,
}

/// Reply to [`GetPage`]: the page, or a redirect to its current home.
///
/// Under home migration a fetch can race a re-homing round: the request
/// was addressed per the requester's (stale) directory, and by arrival
/// the master copy lives elsewhere. The old home answers with the new
/// address instead of asserting, and the requester re-issues the fetch
/// there.
pub enum PageReply {
    /// The destination is the page's home: here are the bytes.
    Data(PageData),
    /// The page migrated away; retry at `to`.
    Moved {
        /// The page's current home (per the replier's directory).
        to: usize,
        /// The replier's migration epoch — diagnostic, lets traces
        /// correlate a redirect with the re-homing round that caused it.
        epoch: u64,
    },
}

/// Ship diffs (all homed at the destination) for application.
#[derive(Clone)]
pub struct ApplyDiffs {
    /// The diffs, all homed at the destination.
    pub diffs: Vec<(PageId, Diff)>,
}

impl ApplyDiffs {
    /// Wire size of the batch.
    pub fn wire_bytes(&self) -> u64 {
        self.diffs.iter().map(|(_, d)| 8 + d.wire_bytes()).sum::<u64>() + 8
    }
}

/// Whole pages shipped home (ablation mode). Cloning the message for a
/// resilient retry bumps reference counts instead of copying page
/// bodies.
#[derive(Clone)]
pub struct PutPages {
    /// Full replacement contents, all homed at the destination.
    pub pages: Vec<(PageId, Page)>,
}

impl PutPages {
    /// Wire size of the batch.
    pub fn wire_bytes(&self) -> u64 {
        self.pages.iter().map(|(_, p)| 8 + p.len() as u64).sum::<u64>() + 8
    }
}

/// Write notices on the wire: the full per-writer page lists, or
/// compact writer-less digests (see `NoticeWire`).
///
/// Digest sets deliberately drop writer identity: each `encode` call
/// merges every interval it is given into one union and digests that,
/// so an entry means "someone wrote these pages", nothing more. That is
/// sound wherever digests are used, because self-exclusion is
/// structural there — the central manager digests each receiver's
/// complement separately, and a tree release wave never carries the
/// receiving subtree's own notices. Dropping the writer is what keeps a
/// tree wave's entry count proportional to its depth (one merged entry
/// per concatenation level) instead of to the number of writers above
/// it.
#[derive(Clone, Debug, PartialEq)]
pub enum NoticeSet {
    /// Full per-writer page lists.
    Explicit(Vec<(usize, Interval)>),
    /// Union digests, writer identity dropped; Bloom entries need the
    /// fallback validation round before invalidating.
    Digest(Vec<NoticeDigest>),
}

/// The software DSM's synchronisation payload: a release publishes an
/// [`Interval`], a barrier wave carries a [`NoticeSet`].
impl Piggyback for NoticeSet {
    type Pub = Interval;

    fn is_empty(interval: &Interval) -> bool {
        interval.is_empty()
    }

    fn merge(into: &mut Interval, later: &Interval) {
        into.merge(later);
    }

    /// Encode explicit per-writer intervals for the wire: pass-through,
    /// or a single union digest with the given run cutoff (empty
    /// intervals produce an empty digest set).
    fn encode(intervals: Vec<(usize, Interval)>, digest_runs: Option<usize>) -> Self {
        match digest_runs {
            None => NoticeSet::Explicit(intervals),
            Some(max_runs) => {
                let mut union = Interval::default();
                for (_, iv) in &intervals {
                    union.merge(iv);
                }
                NoticeSet::Digest(if union.is_empty() {
                    Vec::new()
                } else {
                    vec![NoticeDigest::from_interval(&union, max_runs)]
                })
            }
        }
    }

    /// Append `other`'s entries (same variant; mixing is a protocol bug).
    fn extend(&mut self, other: NoticeSet) {
        match (self, other) {
            (NoticeSet::Explicit(a), NoticeSet::Explicit(b)) => a.extend(b),
            (NoticeSet::Digest(a), NoticeSet::Digest(b)) => a.extend(b),
            _ => panic!("mixed explicit/digest notice sets"),
        }
    }
}

impl NoticeSet {
    /// Wire size of the notice set.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            NoticeSet::Explicit(v) => notices_wire_bytes(v),
            NoticeSet::Digest(v) => v.iter().map(|d| d.wire_bytes()).sum::<u64>() + 8,
        }
    }

    /// Number of notice records carried (interval entries, digest runs,
    /// or whole Bloom filters) — the volume metric the scale bench
    /// sums per protocol.
    pub fn records(&self) -> u64 {
        match self {
            NoticeSet::Explicit(v) => v.iter().map(|(_, iv)| iv.notices.len() as u64).sum(),
            NoticeSet::Digest(v) => v.iter().map(|d| d.records()).sum(),
        }
    }
}

/// Number of 64-bit words in a Bloom digest (2048 bits).
pub const BLOOM_WORDS: usize = 32;

/// Bits set per page in a Bloom digest.
const BLOOM_HASHES: u64 = 3;

/// A compact encoding of one writer's interval.
///
/// Run-length encoding is lossless and compact while the written pages
/// cluster (the common case for block-distributed arrays); past the
/// configured run cutoff the encoding falls back to a fixed-size Bloom
/// filter, trading false positives (resolved by the validation round)
/// for a hard wire-size cap.
#[derive(Clone, Debug, PartialEq)]
pub enum NoticeDigest {
    /// `(first page, length)` runs of consecutively-indexed pages,
    /// sorted; lossless.
    Runs(Vec<(PageId, u32)>),
    /// Fixed-geometry Bloom filter over page ids; lossy (false
    /// positives only).
    Bloom {
        /// The filter bits.
        bits: Box<[u64; BLOOM_WORDS]>,
        /// How many pages were inserted (diagnostic only).
        pages: u32,
    },
}

/// One round of splitmix64: the deterministic page-id hash behind the
/// Bloom digests.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl NoticeDigest {
    /// Digest an interval: run-length while at most `max_runs` runs,
    /// Bloom beyond.
    pub fn from_interval(iv: &Interval, max_runs: usize) -> Self {
        let mut runs: Vec<(PageId, u32)> = Vec::new();
        for page in iv.pages() {
            match runs.last_mut() {
                Some((start, len))
                    if start.region == page.region && start.index + *len == page.index =>
                {
                    *len += 1;
                }
                _ => runs.push((page, 1)),
            }
        }
        if runs.len() <= max_runs.max(1) {
            return NoticeDigest::Runs(runs);
        }
        let mut bits = Box::new([0u64; BLOOM_WORDS]);
        let mut pages = 0u32;
        for page in iv.pages() {
            for k in 0..BLOOM_HASHES {
                let h = splitmix64(page.pack() ^ (k << 56));
                let bit = (h % (BLOOM_WORDS as u64 * 64)) as usize;
                bits[bit / 64] |= 1 << (bit % 64);
            }
            pages += 1;
        }
        NoticeDigest::Bloom { bits, pages }
    }

    /// The exact page set, when the encoding is lossless.
    pub fn pages(&self) -> Option<Vec<PageId>> {
        match self {
            NoticeDigest::Runs(runs) => Some(
                runs.iter()
                    .flat_map(|&(start, len)| {
                        (0..len).map(move |i| PageId {
                            region: start.region,
                            index: start.index + i,
                        })
                    })
                    .collect(),
            ),
            NoticeDigest::Bloom { .. } => None,
        }
    }

    /// Membership test; exact for runs, no-false-negative for Bloom.
    pub fn may_contain(&self, page: PageId) -> bool {
        match self {
            NoticeDigest::Runs(runs) => runs.iter().any(|&(start, len)| {
                start.region == page.region
                    && page.index >= start.index
                    && page.index < start.index + len
            }),
            NoticeDigest::Bloom { bits, .. } => (0..BLOOM_HASHES).all(|k| {
                let h = splitmix64(page.pack() ^ (k << 56));
                let bit = (h % (BLOOM_WORDS as u64 * 64)) as usize;
                bits[bit / 64] & (1 << (bit % 64)) != 0
            }),
        }
    }

    /// Notice records carried (runs, or one record per Bloom filter).
    pub fn records(&self) -> u64 {
        match self {
            NoticeDigest::Runs(runs) => runs.len() as u64,
            NoticeDigest::Bloom { .. } => 1,
        }
    }

    /// Wire size: 12 bytes per run, or the fixed filter size.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            NoticeDigest::Runs(runs) => 8 + 12 * runs.len() as u64,
            NoticeDigest::Bloom { .. } => 8 + (BLOOM_WORDS as u64) * 8,
        }
    }
}

/// Digest fallback: ask a home for the current versions of `pages`
/// (all homed at the destination).
#[derive(Debug, Clone)]
pub struct ValidateReq {
    /// The pages to check.
    pub pages: Vec<PageId>,
}

/// Reply to [`ValidateReq`]: the home's modification counters, in
/// request order.
#[derive(Debug, Clone)]
pub struct ValidateRep {
    /// Version of each requested page.
    pub versions: Vec<u64>,
}

/// Wire size of a notice list.
pub fn notices_wire_bytes(notices: &[(usize, Interval)]) -> u64 {
    notices.iter().map(|(_, iv)| 8 + iv.wire_bytes()).sum::<u64>() + 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::syncproto::barrier::{TreeBarrier, TreeStep};
    use memwire::PAGE_SIZE;

    #[test]
    fn apply_diffs_wire_size() {
        let twin = vec![0u8; PAGE_SIZE];
        let mut cur = twin.clone();
        cur[..16].fill(1);
        let d = Diff::between(&twin, &cur);
        let msg = ApplyDiffs { diffs: vec![(PageId { region: 0, index: 0 }, d)] };
        // 8 header + (8 page id + diff wire bytes)
        assert_eq!(msg.wire_bytes(), 8 + 8 + (8 + 4 + 16));
    }

    #[test]
    fn put_pages_wire_size_counts_full_pages() {
        let msg = PutPages {
            pages: vec![(PageId { region: 0, index: 0 }, Page::zeroed(PAGE_SIZE))],
        };
        assert_eq!(msg.wire_bytes(), 8 + 8 + PAGE_SIZE as u64);
    }

    #[test]
    fn explicit_notice_set_wire_size() {
        let notices = NoticeSet::Explicit(vec![(
            0,
            Interval::from_pages(&[PageId { region: 0, index: 3 }]),
        )]);
        // 8 list header + (8 writer id + 16 interval); a central release
        // adds its 16-byte header, a tree wave its 24.
        assert_eq!(notices.wire_bytes(), 8 + 8 + 16);
    }

    fn pid(i: u32) -> PageId {
        PageId { region: 0, index: i }
    }

    #[test]
    fn digest_runs_are_lossless_and_compact() {
        // 64 consecutive pages plus one straggler: 2 runs.
        let mut pages: Vec<PageId> = (0..64).map(pid).collect();
        pages.push(pid(100));
        let iv = Interval::from_pages(&pages);
        let d = NoticeDigest::from_interval(&iv, 64);
        assert_eq!(d.records(), 2);
        assert_eq!(d.wire_bytes(), 8 + 24, "2 runs at 12 bytes each");
        assert!(d.wire_bytes() < iv.wire_bytes(), "digest beats the explicit list");
        let decoded = d.pages().expect("runs are lossless");
        assert_eq!(decoded, iv.pages().collect::<Vec<_>>());
        assert!(d.may_contain(pid(63)));
        assert!(!d.may_contain(pid(64)));
    }

    #[test]
    fn digest_falls_back_to_bloom_past_run_cutoff() {
        // Every other page: each is its own run.
        let pages: Vec<PageId> = (0..200).map(|i| pid(2 * i)).collect();
        let iv = Interval::from_pages(&pages);
        let d = NoticeDigest::from_interval(&iv, 64);
        match &d {
            NoticeDigest::Bloom { pages: n, .. } => assert_eq!(*n, 200),
            other => panic!("expected bloom, got {other:?}"),
        }
        assert_eq!(d.wire_bytes(), 8 + BLOOM_WORDS as u64 * 8);
        assert!(d.pages().is_none(), "bloom is lossy");
        // No false negatives, ever.
        for p in &pages {
            assert!(d.may_contain(*p));
        }
    }

    #[test]
    fn notice_set_encode_and_records() {
        let iv = Interval::from_pages(&[pid(1), pid(2), pid(9)]);
        let explicit = NoticeSet::encode(vec![(0, iv.clone()), (1, Interval::default())], None);
        assert_eq!(explicit.records(), 3);
        let digest = NoticeSet::encode(vec![(0, iv), (1, Interval::default())], Some(64));
        // Empty intervals are dropped from digest sets; 2 runs remain.
        assert_eq!(digest.records(), 2);
        assert!(digest.wire_bytes() < explicit.wire_bytes() + 16);
    }

    fn ivp(pages: &[u32]) -> Interval {
        Interval::from_pages(&pages.iter().map(|&i| pid(i)).collect::<Vec<_>>())
    }

    #[test]
    fn tree_digest_waves() {
        let mut b = TreeBarrier::<NoticeSet>::new(0, 2, 2, Some(64));
        assert_eq!(b.self_arrive(0, 1, ivp(&[0, 1, 2]), 5), TreeStep::Waiting);
        match b.child_arrive(0, 1, 1, 9, vec![(1, ivp(&[7]))]) {
            TreeStep::Deliver { own, child_waves, .. } => {
                match own {
                    NoticeSet::Digest(d) => {
                        assert_eq!(d.len(), 1, "one merged union digest");
                        assert_eq!(
                            d[0].pages().unwrap(),
                            ivp(&[7]).pages().collect::<Vec<_>>()
                        );
                    }
                    other => panic!("expected digest notices, got {other:?}"),
                }
                match &child_waves[0].1 {
                    NoticeSet::Digest(d) => {
                        assert_eq!(d.len(), 1, "one merged union digest");
                        assert_eq!(d[0].records(), 1, "one run of three pages");
                        assert_eq!(
                            d[0].pages().unwrap(),
                            ivp(&[0, 1, 2]).pages().collect::<Vec<_>>()
                        );
                    }
                    other => panic!("expected digest wave, got {other:?}"),
                }
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }
}
