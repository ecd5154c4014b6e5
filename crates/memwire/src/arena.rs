//! Region allocation with distribution annotations.
//!
//! HAMSTER's memory-management module lets the user "specify coherence
//! constraints and distribution annotations for any memory subsystem"
//! (paper §4.2). The [`Distribution`] enum captures the placement
//! annotations, [`AlignHint`] the padding of element runs.

use crate::addr::PAGE_SIZE;

/// Layout hint for a shared allocation: how much to pad each logical
/// element run (a matrix row, a counter slot) so that concurrent
/// writers land on disjoint pages or cache lines.
///
/// This is the memory side of the tuner's false-sharing action: the
/// analyzer flags pages written by several nodes at disjoint offsets,
/// and the advisor answers with a `PadTo` hint that the workload's
/// allocation honors on the next run. Padding never changes the values
/// a workload computes — only where they live — so checksums are
/// unaffected by any hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlignHint {
    /// Natural packed layout (stride = element size).
    #[default]
    None,
    /// Round each element run up to the next multiple of `bytes`
    /// (a power of two; `PAGE_SIZE` gives every run its own page).
    PadTo(u32),
}

impl AlignHint {
    /// The hint that pads each element run to a whole page.
    pub fn page() -> Self {
        AlignHint::PadTo(PAGE_SIZE as u32)
    }

    /// The stride (bytes between consecutive element runs) this hint
    /// produces for runs of `natural` bytes.
    pub fn padded_stride(self, natural: usize) -> usize {
        match self {
            AlignHint::None => natural,
            AlignHint::PadTo(bytes) => {
                assert!(
                    bytes.is_power_of_two(),
                    "AlignHint::PadTo must be a power of two, got {bytes}"
                );
                natural.div_ceil(bytes as usize) * bytes as usize
            }
        }
    }
}

/// How a region's pages are assigned home nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Contiguous chunks of pages per node (the default for array codes).
    Block,
    /// Pages dealt round-robin across nodes.
    Cyclic,
    /// Chunks of `N` pages dealt round-robin across nodes (aligning a
    /// multi-page row or block with one home).
    BlockCyclic(u32),
    /// All pages homed on one node (TreadMarks-style single-node
    /// allocation; also used for small control structures).
    OnNode(usize),
}

impl Distribution {
    /// Home node for `page_index` of a region of `total_pages`, over
    /// `nodes` nodes.
    pub fn home_of(self, page_index: u32, total_pages: u32, nodes: usize) -> usize {
        assert!(nodes > 0);
        assert!(page_index < total_pages.max(1));
        match self {
            Distribution::Block => {
                let chunk = total_pages.max(1).div_ceil(nodes as u32);
                ((page_index / chunk) as usize).min(nodes - 1)
            }
            Distribution::Cyclic => page_index as usize % nodes,
            Distribution::BlockCyclic(chunk) => {
                assert!(chunk > 0, "BlockCyclic chunk must be positive");
                (page_index / chunk) as usize % nodes
            }
            Distribution::OnNode(n) => {
                assert!(n < nodes, "home node {n} out of range");
                n
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_hint_strides() {
        assert_eq!(AlignHint::None.padded_stride(960), 960);
        assert_eq!(AlignHint::PadTo(64).padded_stride(960), 960);
        assert_eq!(AlignHint::PadTo(64).padded_stride(970), 1024);
        assert_eq!(AlignHint::page().padded_stride(960), PAGE_SIZE);
        assert_eq!(AlignHint::page().padded_stride(PAGE_SIZE), PAGE_SIZE);
        assert_eq!(AlignHint::page().padded_stride(PAGE_SIZE + 1), 2 * PAGE_SIZE);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn align_hint_rejects_non_power_of_two() {
        let _ = AlignHint::PadTo(96).padded_stride(100);
    }

    #[test]
    fn block_distribution_chunks() {
        // 8 pages over 4 nodes -> 2 pages per node.
        let d = Distribution::Block;
        let homes: Vec<usize> = (0..8).map(|i| d.home_of(i, 8, 4)).collect();
        assert_eq!(homes, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn block_distribution_uneven() {
        // 5 pages over 4 nodes -> chunk of 2: homes 0,0,1,1,2.
        let d = Distribution::Block;
        let homes: Vec<usize> = (0..5).map(|i| d.home_of(i, 5, 4)).collect();
        assert_eq!(homes, vec![0, 0, 1, 1, 2]);
    }

    #[test]
    fn cyclic_distribution_wraps() {
        let d = Distribution::Cyclic;
        let homes: Vec<usize> = (0..5).map(|i| d.home_of(i, 5, 3)).collect();
        assert_eq!(homes, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn block_cyclic_chunks_round_robin() {
        let d = Distribution::BlockCyclic(2);
        let homes: Vec<usize> = (0..8).map(|i| d.home_of(i, 8, 3)).collect();
        assert_eq!(homes, vec![0, 0, 1, 1, 2, 2, 0, 0]);
    }

    #[test]
    fn on_node_pins() {
        let d = Distribution::OnNode(2);
        assert!((0..4).all(|i| d.home_of(i, 4, 4) == 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn on_node_out_of_range() {
        Distribution::OnNode(5).home_of(0, 1, 4);
    }
}
