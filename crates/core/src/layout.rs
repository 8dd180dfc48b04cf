//! Address-space layout and thread placement.
//!
//! The shared global address space is a flat 64-bit byte space carved into
//! three regions, one per allocation strategy:
//!
//! ```text
//! page 0        : reserved (null guard)
//! ARENA region  : max_threads arenas, one per thread, line-aligned so that
//!                 thread-local allocations can never false-share
//! SHARED zone   : manager-mediated medium allocations
//! STRIPED region: large allocations, line-aligned so consecutive lines
//!                 rotate across memory servers
//! ```
//!
//! Placement maps components onto topology nodes following the paper's
//! experimental setup: the manager gets its own node, each memory server its
//! own node, and compute threads fill the remaining nodes core by core.

use std::ops::Range;

use samhita_scl::{NodeId, Topology};

use crate::config::{SamhitaConfig, TopologyKind};

/// Resolved region boundaries for one configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AddressLayout {
    /// Bytes per page (copied from the config for convenience).
    pub page_size: u64,
    /// Bytes per cache line.
    pub line_bytes: u64,
    /// First byte of the arena region.
    pub arena_base: u64,
    /// Bytes per thread arena.
    pub arena_stride: u64,
    /// Number of provisioned arenas.
    pub arenas: u32,
    /// First byte of the shared zone.
    pub shared_base: u64,
    /// One past the last byte of the shared zone.
    pub shared_end: u64,
    /// First byte of the striped region.
    pub striped_base: u64,
}

impl AddressLayout {
    /// The pages the `len` bytes from `addr` touch, in order, as `(page,
    /// offset in the page, range of the bytes)`: the page-boundary split
    /// every thread and host access makes.
    #[inline]
    pub fn pages(&self, addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
        let ps = self.page_size;
        let mut cursor = 0usize;
        std::iter::from_fn(move || {
            if cursor == len {
                return None;
            }
            let at = addr + cursor as u64;
            let off = (at % ps) as usize;
            let take = (ps as usize - off).min(len - cursor);
            cursor += take;
            Some((at / ps, off, cursor - take..cursor))
        })
    }

    /// Compute the layout for a configuration.
    pub fn new(cfg: &SamhitaConfig) -> Self {
        let page = cfg.page_size as u64;
        let line = cfg.line_bytes() as u64;
        // Round the arena stride up to a whole number of lines so arenas of
        // different threads never share a cache line (or a page).
        let arena_stride = cfg.arena_bytes_per_thread.div_ceil(line) * line;
        let arena_base = line.max(page); // skip the null guard, stay line-aligned
        let shared_base = arena_base + arena_stride * cfg.max_threads as u64;
        let shared_end = shared_base + cfg.shared_zone_bytes;
        // Striped region starts at the next line boundary.
        let striped_base = shared_end.div_ceil(line) * line;
        AddressLayout {
            page_size: page,
            line_bytes: line,
            arena_base,
            arena_stride,
            arenas: cfg.max_threads,
            shared_base,
            shared_end,
            striped_base,
        }
    }

    /// The arena address range `[start, end)` for a thread.
    ///
    /// # Panics
    /// Panics if `tid` exceeds the provisioned arena count.
    pub fn arena_range(&self, tid: u32) -> (u64, u64) {
        assert!(tid < self.arenas, "thread {tid} beyond provisioned arenas");
        let start = self.arena_base + self.arena_stride * tid as u64;
        (start, start + self.arena_stride)
    }

    /// Which region an address belongs to.
    pub fn region_of(&self, addr: u64) -> Region {
        if addr < self.arena_base {
            Region::Reserved
        } else if addr < self.shared_base {
            Region::Arena(((addr - self.arena_base) / self.arena_stride) as u32)
        } else if addr < self.shared_end {
            Region::Shared
        } else if addr >= self.striped_base {
            Region::Striped
        } else {
            Region::Reserved // padding between shared_end and striped_base
        }
    }
}

/// Address-space regions (see module docs).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Region {
    /// Unmapped guard/padding space.
    Reserved,
    /// A thread arena (payload: owning thread id).
    Arena(u32),
    /// The manager-mediated shared zone (strategy 2).
    Shared,
    /// The server-striped large-allocation region (strategy 3).
    Striped,
}

/// Where each component runs.
#[derive(Clone, Debug)]
pub struct Placement {
    /// Node hosting the manager.
    pub manager: NodeId,
    /// Node hosting each memory server.
    pub mem_servers: Vec<NodeId>,
    /// Nodes available for compute threads, with their core counts.
    compute_nodes: Vec<(NodeId, u32)>,
}

impl Placement {
    /// Compute placement for a configuration over its topology.
    pub fn new(cfg: &SamhitaConfig, topo: &Topology) -> Self {
        match cfg.topology {
            TopologyKind::SingleNode => {
                let n = NodeId(0);
                Placement {
                    manager: n,
                    mem_servers: vec![n; cfg.mem_servers as usize],
                    compute_nodes: vec![(n, topo.node(n).expect("node 0").cores)],
                }
            }
            TopologyKind::Cluster { nodes } => {
                // Paper setup: node 0 = manager, nodes 1..=m = memory
                // servers, the rest run compute threads.
                let m = cfg.mem_servers;
                assert!(nodes >= 2 + m, "validated by SamhitaConfig::validate");
                let mem_servers = (1..=m).map(NodeId).collect();
                let compute_nodes = (1 + m..nodes)
                    .map(|i| (NodeId(i), topo.node(NodeId(i)).expect("cluster node").cores))
                    .collect();
                Placement { manager: NodeId(0), mem_servers, compute_nodes }
            }
            TopologyKind::HeteroNode { coprocessors, cores_per_cop } => {
                // Figure 1: manager and memory servers on the host, compute
                // threads on the coprocessor cores.
                let host = NodeId(0);
                let compute_nodes =
                    (1..=coprocessors).map(|i| (NodeId(i), cores_per_cop)).collect();
                Placement {
                    manager: host,
                    mem_servers: vec![host; cfg.mem_servers as usize],
                    compute_nodes,
                }
            }
        }
    }

    /// The node a compute thread runs on: fill nodes core by core, wrapping
    /// (oversubscribing) if threads exceed total cores.
    pub fn compute_node(&self, tid: u32) -> NodeId {
        let total: u32 = self.compute_nodes.iter().map(|&(_, c)| c).sum();
        let mut slot = tid % total.max(1);
        for &(node, cores) in &self.compute_nodes {
            if slot < cores {
                return node;
            }
            slot -= cores;
        }
        self.compute_nodes.last().expect("at least one compute node").0
    }

    /// Total compute cores before oversubscription.
    pub fn compute_cores(&self) -> u32 {
        self.compute_nodes.iter().map(|&(_, c)| c).sum()
    }

    /// Node hosting the hot-standby manager, when one is configured: the
    /// last compute node, which on any multi-node topology is distinct from
    /// the manager's node, so a manager-node crash cannot take the standby
    /// down with it.
    pub fn standby_node(&self) -> NodeId {
        self.compute_nodes.last().map_or(self.manager, |&(n, _)| n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> (SamhitaConfig, AddressLayout) {
        let cfg = SamhitaConfig::default();
        let l = AddressLayout::new(&cfg);
        (cfg, l)
    }

    #[test]
    fn an_access_is_split_at_page_boundaries() {
        let (_, l) = layout();
        let ps = l.page_size as usize;
        let walk: Vec<_> = l.pages(3 * l.page_size - 3, ps + 6).collect();
        assert_eq!(walk, [(2, ps - 3, 0..3), (3, 0, 3..ps + 3), (4, 0, ps + 3..ps + 6)]);
        assert_eq!(l.pages(l.page_size + 8, 8).collect::<Vec<_>>(), [(1, 8, 0..8)]);
        assert_eq!(l.pages(8, 0).count(), 0);
    }

    #[test]
    fn regions_are_ordered_and_aligned() {
        let (cfg, l) = layout();
        assert!(l.arena_base >= cfg.page_size as u64);
        assert!(l.arena_base % l.line_bytes == 0);
        assert!(l.shared_base > l.arena_base);
        assert!(l.striped_base >= l.shared_end);
        assert!(l.striped_base % l.line_bytes == 0);
        assert!(l.arena_stride % l.line_bytes == 0);
    }

    #[test]
    fn arena_ranges_are_disjoint_per_thread() {
        let (_, l) = layout();
        let (_s0, e0) = l.arena_range(0);
        let (s1, e1) = l.arena_range(1);
        assert_eq!(e0, s1);
        assert!(e1 > s1);
        // No two arenas can share a cache line.
        assert_eq!(e0 % l.line_bytes, 0);
    }

    #[test]
    fn region_classification() {
        let (_, l) = layout();
        assert_eq!(l.region_of(0), Region::Reserved);
        assert_eq!(l.region_of(l.arena_base), Region::Arena(0));
        assert_eq!(l.region_of(l.arena_base + l.arena_stride), Region::Arena(1));
        assert_eq!(l.region_of(l.shared_base), Region::Shared);
        assert_eq!(l.region_of(l.shared_end - 1), Region::Shared);
        assert_eq!(l.region_of(l.striped_base), Region::Striped);
        assert_eq!(l.region_of(l.striped_base + (1 << 40)), Region::Striped);
    }

    #[test]
    fn cluster_placement_matches_paper() {
        let cfg = SamhitaConfig::default(); // 6 nodes, 1 memory server
        let topo = cfg.build_topology();
        let p = Placement::new(&cfg, &topo);
        assert_eq!(p.manager, NodeId(0));
        assert_eq!(p.mem_servers, vec![NodeId(1)]);
        assert_eq!(p.compute_cores(), 32); // 4 compute nodes x 8 cores
                                           // Fill-first placement: first 8 threads share node 2.
        assert_eq!(p.compute_node(0), NodeId(2));
        assert_eq!(p.compute_node(7), NodeId(2));
        assert_eq!(p.compute_node(8), NodeId(3));
        assert_eq!(p.compute_node(31), NodeId(5));
        // Oversubscription wraps.
        assert_eq!(p.compute_node(32), NodeId(2));
    }

    #[test]
    fn hetero_placement_puts_compute_on_coprocessors() {
        let cfg = SamhitaConfig {
            topology: TopologyKind::HeteroNode { coprocessors: 2, cores_per_cop: 16 },
            ..SamhitaConfig::default()
        };
        let topo = cfg.build_topology();
        let p = Placement::new(&cfg, &topo);
        assert_eq!(p.manager, NodeId(0));
        assert_eq!(p.mem_servers, vec![NodeId(0)]);
        assert_eq!(p.compute_node(0), NodeId(1));
        assert_eq!(p.compute_node(16), NodeId(2));
    }

    #[test]
    #[should_panic(expected = "beyond provisioned arenas")]
    fn arena_range_bounds_checked() {
        let (_, l) = layout();
        l.arena_range(10_000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every address belongs to exactly one region, region boundaries
        /// are consistent with `arena_range`, and arena ownership matches
        /// the arithmetic.
        #[test]
        fn regions_partition_the_address_space(addr in any::<u64>()) {
            let cfg = SamhitaConfig::default();
            let l = AddressLayout::new(&cfg);
            match l.region_of(addr) {
                Region::Reserved => {
                    prop_assert!(
                        addr < l.arena_base || (addr >= l.shared_end && addr < l.striped_base)
                    );
                }
                Region::Arena(tid) => {
                    prop_assert!(tid < l.arenas);
                    let (lo, hi) = l.arena_range(tid);
                    prop_assert!(addr >= lo && addr < hi, "arena {tid}: {addr} not in [{lo},{hi})");
                }
                Region::Shared => {
                    prop_assert!(addr >= l.shared_base && addr < l.shared_end);
                }
                Region::Striped => {
                    prop_assert!(addr >= l.striped_base);
                }
            }
        }

        /// Arena ranges tile the arena region exactly.
        #[test]
        fn arena_ranges_tile(tid in 0u32..64) {
            let cfg = SamhitaConfig::default();
            let l = AddressLayout::new(&cfg);
            let (lo, hi) = l.arena_range(tid);
            prop_assert_eq!(l.region_of(lo), Region::Arena(tid));
            prop_assert_eq!(l.region_of(hi - 1), Region::Arena(tid));
            if tid + 1 < l.arenas {
                prop_assert_eq!(l.region_of(hi), Region::Arena(tid + 1));
            } else {
                prop_assert_eq!(l.region_of(hi), Region::Shared);
            }
        }
    }
}
