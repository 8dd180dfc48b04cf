//! Runtime configuration.
//!
//! [`SamhitaConfig`] gathers every tunable the paper discusses: paging and
//! cache-line geometry, prefetching, the eviction bias, the allocator
//! thresholds, the number of memory servers, the simulated machine and
//! fabric, the consistency variant, and the §V manager-bypass optimization.
//! Defaults reproduce the paper's evaluation platform: a six-node QDR
//! InfiniBand cluster with one manager node and one memory-server node.

use std::fmt;

use samhita_mem::ServiceModel;
use samhita_scl::{profiles, LinkModel, Topology};

/// Which line the eviction policy prefers to push out.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// The paper's policy: bias eviction towards lines containing pages
    /// that have been written to (their diffs must travel anyway).
    DirtyFirst,
    /// Plain least-recently-used (ablation baseline).
    Lru,
}

/// How consistency-region stores propagate at release.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ConsistencyVariant {
    /// The paper's RegC implementation: fine-grain (data-object level)
    /// updates for consistency regions, page-granularity diffs elsewhere.
    FineGrain,
    /// Ablation: treat consistency-region stores like ordinary stores
    /// (twin + whole-page diff at the next sync operation).
    WholePage,
}

/// The simulated machine shape.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// Everything on one cache-coherent node (used with
    /// [`SamhitaConfig::manager_bypass`] for the §V single-node variant).
    SingleNode,
    /// `nodes` homogeneous cluster nodes behind one switch — the paper's
    /// actual evaluation platform.
    Cluster {
        /// Total cluster nodes (manager + memory servers + compute).
        nodes: u32,
    },
    /// One host plus coprocessor boards over a PCIe-class bus — the Xeon
    /// Phi scenario of Figure 1.
    HeteroNode {
        /// Number of coprocessor boards.
        coprocessors: u32,
        /// Compute cores per coprocessor.
        cores_per_cop: u32,
    },
}

/// Which link profile joins the nodes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FabricProfile {
    /// Quad-data-rate InfiniBand through one switch (the paper's fabric).
    IbQdr,
    /// PCIe crossed via an InfiniBand verbs proxy (stock host↔Phi path).
    PcieVerbsProxy,
    /// PCIe driven directly through SCIF (the paper's §V proposal).
    Scif,
    /// 10-gigabit Ethernet with a sockets stack (ablations only).
    Ethernet10g,
}

impl FabricProfile {
    /// Resolve to a concrete link model.
    pub fn link(self) -> LinkModel {
        match self {
            FabricProfile::IbQdr => profiles::ib_qdr(),
            FabricProfile::PcieVerbsProxy => profiles::pcie_verbs_proxy(),
            FabricProfile::Scif => profiles::scif(),
            FabricProfile::Ethernet10g => profiles::ethernet_10g(),
        }
    }
}

/// Cost constants for compute-side virtual time.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CostParams {
    /// Nanoseconds per floating-point operation charged by
    /// `ThreadCtx::compute` (≈ 2.8 GHz Penryn issuing ~1 flop/cycle on this
    /// scalar kernel mix).
    pub flop_ns: f64,
    /// Nanoseconds per 8-byte load/store through the software cache's hit
    /// path (address translation + state check + copy).
    pub mem_op_ns: f64,
    /// Cost to install one KiB of a fetched line into the local cache.
    pub cache_fill_per_kib_ns: u64,
    /// Manager service time per synchronization / allocation request.
    pub mgr_service_ns: u64,
    /// Extra cost charged when a barrier releases (manager fan-out).
    pub barrier_release_ns: u64,
    /// Under [`SamhitaConfig::manager_bypass`] (§V), what the manager
    /// charges in place of `mgr_service_ns` per request and of
    /// `barrier_release_ns` per barrier release: a local atomic handoff.
    pub local_sync_ns: u64,
    /// Sender-side CPU cost per asynchronous message posted (descriptor
    /// build + doorbell); synchronous RPCs pay it implicitly by waiting.
    pub send_ns: u64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            flop_ns: 0.35,
            mem_op_ns: 1.0,
            cache_fill_per_kib_ns: 30,
            mgr_service_ns: 300,
            barrier_release_ns: 300,
            local_sync_ns: 150,
            send_ns: 60,
        }
    }
}

/// A timed symmetric link partition between two topology nodes, expressed
/// in config-friendly plain integers (node indices, nanoseconds).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PartitionSpec {
    /// One side of the severed link (topology node index).
    pub a: u32,
    /// The other side (topology node index).
    pub b: u32,
    /// First virtual nanosecond at which sends are lost (inclusive).
    pub from_ns: u64,
    /// Virtual nanosecond at which the link heals (exclusive).
    pub until_ns: u64,
}

/// Deterministic fault schedule for a run. The default injects nothing and
/// leaves every virtual clock bit-identical to a fault-free build.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed for the per-message fate hash and retry jitter.
    pub seed: u64,
    /// Probability a fabric message is dropped.
    pub drop_p: f64,
    /// Probability a fabric message is duplicated.
    pub dup_p: f64,
    /// Probability a fabric message suffers a latency spike.
    pub delay_p: f64,
    /// The latency spike added to delayed messages, ns.
    pub delay_ns: u64,
    /// Timed symmetric link partitions.
    pub partitions: Vec<PartitionSpec>,
    /// Crash one memory server (by index) at a virtual instant: from then
    /// on every message to or from it is lost and clients must fail over
    /// to the replica (requires `replica_offset > 0`).
    pub crash: Option<(u32, u64)>,
    /// Crash the manager at a virtual instant: from then on every message
    /// to or from the manager endpoint is lost and clients must fail over
    /// to the hot standby (requires
    /// [`SamhitaConfig::manager_standby`]).
    pub mgr_crash: Option<u64>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            delay_ns: 0,
            partitions: Vec::new(),
            crash: None,
            mgr_crash: None,
        }
    }
}

impl FaultConfig {
    /// A lossy-fabric schedule: drop/duplicate/delay with one seed.
    pub fn lossy(seed: u64, drop_p: f64, dup_p: f64, delay_p: f64, delay_ns: u64) -> Self {
        FaultConfig { seed, drop_p, dup_p, delay_p, delay_ns, ..FaultConfig::default() }
    }

    /// True if this schedule can ever inject a fault.
    pub fn is_active(&self) -> bool {
        self.drop_p > 0.0
            || self.dup_p > 0.0
            || self.delay_p > 0.0
            || !self.partitions.is_empty()
            || self.crash.is_some()
            || self.mgr_crash.is_some()
    }
}

/// Retry/timeout/backoff parameters for protocol RPCs, in virtual time.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RetryConfig {
    /// First-retry delay (and jitter modulus), ns.
    pub base_ns: u64,
    /// Upper bound on any single backoff delay, ns.
    pub cap_ns: u64,
    /// Attempts before a peer is declared unreachable.
    pub max_attempts: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig { base_ns: 20_000, cap_ns: 500_000, max_attempts: 8 }
    }
}

/// Typed rejection from [`SamhitaConfig::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // each variant's Display text is the documentation
pub enum ConfigError {
    BadPageSize,
    ZeroLinePages,
    CacheTooSmall,
    NoMemServers,
    ThresholdsInverted,
    ArenaTooSmall,
    ZeroMaxThreads,
    ZeroTraceCapacity,
    BypassNeedsSingleNode,
    ClusterTooSmall,
    EmptyCoprocessors,
    ReplicaOffsetOutOfRange,
    BadFaultProbabilities,
    CrashedServerOutOfRange,
    CrashWithoutReplica,
    MgrCrashWithoutStandby,
    ZeroRetryAttempts,
    ZeroLease,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            ConfigError::BadPageSize => "bad page size",
            ConfigError::ZeroLinePages => "lines need at least one page",
            ConfigError::CacheTooSmall => "cache must hold at least two lines",
            ConfigError::NoMemServers => "need at least one memory server",
            ConfigError::ThresholdsInverted => "allocator thresholds inverted",
            ConfigError::ArenaTooSmall => {
                "arena smaller than the largest arena-eligible allocation"
            }
            ConfigError::ZeroMaxThreads => "max_threads must be positive",
            ConfigError::ZeroTraceCapacity => "tracing enabled with a zero-capacity buffer",
            ConfigError::BypassNeedsSingleNode => {
                "manager bypass is the single-node optimization (§V)"
            }
            ConfigError::ClusterTooSmall => {
                "cluster too small for manager + memory servers + compute"
            }
            ConfigError::EmptyCoprocessors => "empty coprocessor config",
            ConfigError::ReplicaOffsetOutOfRange => {
                "replica offset out of range (need 1 <= offset < mem_servers)"
            }
            ConfigError::BadFaultProbabilities => {
                "fault probabilities must lie in [0, 1] and sum to at most 1"
            }
            ConfigError::CrashedServerOutOfRange => "crashed server index out of range",
            ConfigError::CrashWithoutReplica => {
                "a server crash without a replica configured cannot be survived"
            }
            ConfigError::MgrCrashWithoutStandby => {
                "a manager crash without a hot standby configured cannot be survived"
            }
            ConfigError::ZeroRetryAttempts => "retry policy needs at least one attempt",
            ConfigError::ZeroLease => "lock leases need a positive expiry",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

/// Full runtime configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct SamhitaConfig {
    /// Page size in bytes (power of two).
    pub page_size: usize,
    /// Pages per cache line ("cache lines of multiple pages").
    pub line_pages: u32,
    /// Software-cache capacity, in lines, per compute thread.
    pub cache_capacity_lines: usize,
    /// Anticipatory paging: on a miss, also request the adjacent line; at a
    /// barrier release, request the pages this thread used that the
    /// release (or a grant since) invalidated, before any fault asks.
    pub prefetch: bool,
    /// Eviction policy.
    pub eviction: EvictionPolicy,
    /// Consistency-region update granularity.
    pub consistency: ConsistencyVariant,
    /// Number of memory servers (homes are striped across them).
    pub mem_servers: u32,
    /// Allocations of at most this many bytes come from the thread-local
    /// arena (strategy 1: no manager round-trip, no false sharing).
    pub small_threshold: u64,
    /// Allocations of at least this many bytes are striped across memory
    /// servers (strategy 3: hot-spot avoidance). Sizes in between come from
    /// the manager's shared zone (strategy 2).
    pub large_threshold: u64,
    /// Arena bytes reserved per thread in the address-space layout.
    pub arena_bytes_per_thread: u64,
    /// Shared-zone bytes reserved in the address-space layout.
    pub shared_zone_bytes: u64,
    /// Maximum compute threads the layout provisions arenas for.
    pub max_threads: u32,
    /// The simulated machine.
    pub topology: TopologyKind,
    /// The interconnect between its nodes.
    pub fabric: FabricProfile,
    /// §V optimization: on a single node the manager is a local handoff
    /// away. Requests still go to it over the intra-node fabric; it serves
    /// each in [`CostParams::local_sync_ns`] instead of `mgr_service_ns`.
    pub manager_bypass: bool,
    /// Compute-side cost constants.
    pub costs: CostParams,
    /// Memory-server service model.
    pub service: ServiceModel,
    /// Record protocol events into per-track trace buffers. Observational
    /// only: virtual clocks are bit-identical with tracing on or off.
    pub tracing: bool,
    /// Per-track event-buffer capacity; past it the oldest events are
    /// dropped (and counted, which makes the invariant checker and every
    /// trace-derived report section refuse the truncated trace).
    pub trace_capacity: usize,
    /// Deterministic fault-injection schedule (default: inject nothing).
    pub faults: FaultConfig,
    /// Retry/timeout/backoff parameters for protocol RPCs.
    pub retry: RetryConfig,
    /// Write-through replication: data homed on server `s` is mirrored to
    /// server `(s + replica_offset) % mem_servers`, and clients fail over
    /// to that replica when the primary stops responding. `0` disables
    /// replication (the paper's baseline).
    pub replica_offset: u32,
    /// Provision a hot-standby manager on another node: the primary ships
    /// every state-machine log record to it (write-ahead, batched), lock
    /// releases become acknowledged RPCs so no release can vanish in a
    /// crash window, and clients whose retries exhaust against the primary
    /// fail over to the standby. `false` (the default) compiles the
    /// recovery machinery out of the message flow entirely, keeping the
    /// baseline virtual timeline byte-identical.
    pub manager_standby: bool,
    /// Lock-lease length in virtual nanoseconds: a grant made at `t`
    /// expires at `t + mgr_lease_ns`, after which a *standby* that has
    /// taken over may reclaim the lock from a holder that never released
    /// (its release died with the primary). Reclamation happens in virtual
    /// time, so recovery stays bit-deterministic. The generous default
    /// means ordinary failovers never reclaim — holders retry their
    /// release against the standby first.
    pub mgr_lease_ns: u64,
    /// Seed for the deterministic scheduler's tie-break (`samhita-sched`
    /// interleaves all simulated tasks by ascending `(virtual_time, seeded
    /// tie-break)`, so every clock, trace and report is bit-identical
    /// run-to-run at any thread count). Different seeds explore different
    /// legal interleavings of virtual-time ties.
    pub sched_seed: u64,
}

impl Default for SamhitaConfig {
    /// The paper's evaluation platform: six cluster nodes on QDR InfiniBand,
    /// one manager node, one memory-server node, compute on the rest.
    fn default() -> Self {
        SamhitaConfig {
            page_size: 4096,
            line_pages: 4,
            cache_capacity_lines: 4096, // 64 MiB per thread at the defaults
            prefetch: true,
            eviction: EvictionPolicy::DirtyFirst,
            consistency: ConsistencyVariant::FineGrain,
            mem_servers: 1,
            small_threshold: 64 * 1024,
            large_threshold: 1 << 20,
            arena_bytes_per_thread: 16 << 20,
            shared_zone_bytes: 1 << 30,
            max_threads: 64,
            topology: TopologyKind::Cluster { nodes: 6 },
            fabric: FabricProfile::IbQdr,
            manager_bypass: false,
            costs: CostParams::default(),
            service: ServiceModel::default(),
            tracing: false,
            trace_capacity: 1 << 20,
            faults: FaultConfig::default(),
            retry: RetryConfig::default(),
            replica_offset: 0,
            manager_standby: false,
            mgr_lease_ns: 10_000_000,
            sched_seed: 0,
        }
    }
}

impl SamhitaConfig {
    /// Bytes per cache line.
    pub fn line_bytes(&self) -> usize {
        self.page_size * self.line_pages as usize
    }

    /// A small single-node configuration convenient for unit tests:
    /// tiny pages and caches so paths like eviction are easy to exercise.
    pub fn small_for_tests() -> Self {
        SamhitaConfig {
            page_size: 256,
            line_pages: 2,
            cache_capacity_lines: 64,
            arena_bytes_per_thread: 1 << 20,
            shared_zone_bytes: 8 << 20,
            max_threads: 16,
            topology: TopologyKind::SingleNode,
            ..SamhitaConfig::default()
        }
    }

    /// Whether services keep answers to replay: a fault plan can duplicate
    /// or drop-and-resend any request, and a standby's grant-liveness probe
    /// re-sends blocked ones even in a fault-free run.
    pub(crate) fn replay_protected(&self) -> bool {
        self.faults.is_active() || self.manager_standby
    }

    /// What the manager charges `(per request, per barrier release)`: under
    /// the §V bypass it is a local handoff away, and both are
    /// [`CostParams::local_sync_ns`].
    pub(crate) fn mgr_costs(&self) -> (u64, u64) {
        if self.manager_bypass {
            (self.costs.local_sync_ns, self.costs.local_sync_ns)
        } else {
            (self.costs.mgr_service_ns, self.costs.barrier_release_ns)
        }
    }

    /// The deterministic service-cost parameters, packaged for the trace
    /// crate's [`samhita_trace::MetricsTimeline`] so busy-time
    /// reconstruction from serve events can never drift from the
    /// simulation's own cost model.
    pub fn service_costs(&self) -> samhita_trace::ServiceCosts {
        samhita_trace::ServiceCosts {
            mgr_service_ns: self.mgr_costs().0,
            service: self.service,
            page_size: self.page_size as u64,
        }
    }

    /// Build the [`Topology`] this configuration describes.
    pub fn build_topology(&self) -> Topology {
        let link = self.fabric.link();
        match self.topology {
            TopologyKind::SingleNode => Topology::single_node(64),
            TopologyKind::Cluster { nodes } => Topology::cluster(nodes, link),
            TopologyKind::HeteroNode { coprocessors, cores_per_cop } => {
                Topology::hetero_node(coprocessors, cores_per_cop, link)
            }
        }
    }

    /// Validate internal consistency; called by the system constructor
    /// (which refuses to build from an invalid configuration).
    ///
    /// # Errors
    /// Returns the first [`ConfigError`] found, checked in declaration
    /// order of the fields.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.page_size.is_power_of_two() || self.page_size < 64 {
            return Err(ConfigError::BadPageSize);
        }
        if self.line_pages < 1 {
            return Err(ConfigError::ZeroLinePages);
        }
        if self.cache_capacity_lines < 2 {
            return Err(ConfigError::CacheTooSmall);
        }
        if self.mem_servers < 1 {
            return Err(ConfigError::NoMemServers);
        }
        if self.small_threshold > self.large_threshold {
            return Err(ConfigError::ThresholdsInverted);
        }
        if self.arena_bytes_per_thread < self.small_threshold {
            return Err(ConfigError::ArenaTooSmall);
        }
        if self.max_threads < 1 {
            return Err(ConfigError::ZeroMaxThreads);
        }
        if self.tracing && self.trace_capacity < 1 {
            return Err(ConfigError::ZeroTraceCapacity);
        }
        if self.manager_bypass && !matches!(self.topology, TopologyKind::SingleNode) {
            return Err(ConfigError::BypassNeedsSingleNode);
        }
        match self.topology {
            TopologyKind::Cluster { nodes } => {
                if nodes < 2 + self.mem_servers {
                    return Err(ConfigError::ClusterTooSmall);
                }
            }
            TopologyKind::HeteroNode { coprocessors, cores_per_cop } => {
                if coprocessors < 1 || cores_per_cop < 1 {
                    return Err(ConfigError::EmptyCoprocessors);
                }
            }
            TopologyKind::SingleNode => {}
        }
        if self.replica_offset >= self.mem_servers && self.replica_offset != 0 {
            return Err(ConfigError::ReplicaOffsetOutOfRange);
        }
        let f = &self.faults;
        let ps = [f.drop_p, f.dup_p, f.delay_p];
        if ps.iter().any(|p| !(0.0..=1.0).contains(p)) || ps.iter().sum::<f64>() > 1.0 {
            return Err(ConfigError::BadFaultProbabilities);
        }
        if let Some((server, _)) = f.crash {
            if server >= self.mem_servers {
                return Err(ConfigError::CrashedServerOutOfRange);
            }
            if self.replica_offset == 0 {
                return Err(ConfigError::CrashWithoutReplica);
            }
        }
        if f.mgr_crash.is_some() && !self.manager_standby {
            return Err(ConfigError::MgrCrashWithoutStandby);
        }
        if self.retry.max_attempts < 1 {
            return Err(ConfigError::ZeroRetryAttempts);
        }
        if self.manager_standby && self.mgr_lease_ns == 0 {
            return Err(ConfigError::ZeroLease);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_paper_shaped() {
        let c = SamhitaConfig::default();
        c.validate().expect("default config must validate");
        assert_eq!(c.topology, TopologyKind::Cluster { nodes: 6 });
        assert_eq!(c.mem_servers, 1);
        assert_eq!(c.line_bytes(), 16384);
        assert_eq!(c.replica_offset, 0, "the paper's baseline has no replication");
        assert!(!c.faults.is_active(), "the default fault schedule injects nothing");
    }

    #[test]
    fn test_config_is_valid() {
        SamhitaConfig::small_for_tests().validate().expect("test config must validate");
    }

    #[test]
    fn topology_building_matches_kind() {
        let mut c = SamhitaConfig::default();
        assert_eq!(c.build_topology().len(), 6);
        c.topology = TopologyKind::HeteroNode { coprocessors: 2, cores_per_cop: 57 };
        assert_eq!(c.build_topology().len(), 3);
        c.topology = TopologyKind::SingleNode;
        assert_eq!(c.build_topology().len(), 1);
    }

    #[test]
    fn bypass_requires_single_node() {
        let c = SamhitaConfig { manager_bypass: true, ..SamhitaConfig::default() };
        assert_eq!(c.validate().unwrap_err(), ConfigError::BypassNeedsSingleNode);
        assert!(c.validate().unwrap_err().to_string().contains("single-node optimization"));
    }

    #[test]
    fn inverted_thresholds_rejected() {
        let c = SamhitaConfig {
            small_threshold: 2 << 20,
            large_threshold: 1 << 20,
            ..SamhitaConfig::default()
        };
        assert_eq!(c.validate().unwrap_err(), ConfigError::ThresholdsInverted);
        assert!(c.validate().unwrap_err().to_string().contains("thresholds inverted"));
    }

    #[test]
    fn zero_cache_capacity_rejected() {
        let c = SamhitaConfig { cache_capacity_lines: 0, ..SamhitaConfig::default() };
        assert_eq!(c.validate().unwrap_err(), ConfigError::CacheTooSmall);
    }

    #[test]
    fn zero_line_pages_rejected() {
        let c = SamhitaConfig { line_pages: 0, ..SamhitaConfig::default() };
        assert_eq!(c.validate().unwrap_err(), ConfigError::ZeroLinePages);
    }

    #[test]
    fn replica_offset_must_name_a_distinct_server() {
        let mut c = SamhitaConfig { mem_servers: 2, ..SamhitaConfig::default() };
        c.topology = TopologyKind::Cluster { nodes: 6 };
        c.replica_offset = 1;
        c.validate().expect("offset 1 of 2 servers is valid");
        c.replica_offset = 2;
        assert_eq!(c.validate().unwrap_err(), ConfigError::ReplicaOffsetOutOfRange);
        c.mem_servers = 1;
        c.replica_offset = 1;
        assert_eq!(c.validate().unwrap_err(), ConfigError::ReplicaOffsetOutOfRange);
    }

    #[test]
    fn fault_probabilities_are_bounded() {
        let mut c =
            SamhitaConfig { faults: FaultConfig::lossy(1, 0.6, 0.3, 0.3, 0), ..Default::default() };
        assert_eq!(c.validate().unwrap_err(), ConfigError::BadFaultProbabilities);
        c.faults = FaultConfig::lossy(1, -0.1, 0.0, 0.0, 0);
        assert_eq!(c.validate().unwrap_err(), ConfigError::BadFaultProbabilities);
        c.faults = FaultConfig::lossy(1, 0.1, 0.05, 0.05, 3_000);
        c.validate().expect("modest probabilities are valid");
    }

    #[test]
    fn crash_needs_a_valid_server_and_a_replica() {
        let mut c = SamhitaConfig { mem_servers: 2, ..SamhitaConfig::default() };
        c.faults.crash = Some((5, 1_000));
        assert_eq!(c.validate().unwrap_err(), ConfigError::CrashedServerOutOfRange);
        c.faults.crash = Some((0, 1_000));
        assert_eq!(c.validate().unwrap_err(), ConfigError::CrashWithoutReplica);
        c.replica_offset = 1;
        c.validate().expect("a crash with a replica configured is survivable");
    }

    #[test]
    fn manager_crash_needs_a_standby() {
        let mut c = SamhitaConfig::default();
        c.faults.mgr_crash = Some(50_000);
        assert_eq!(c.validate().unwrap_err(), ConfigError::MgrCrashWithoutStandby);
        assert!(c.faults.is_active(), "a pending manager crash is an active fault schedule");
        c.manager_standby = true;
        c.validate().expect("a manager crash with a standby configured is survivable");
        c.mgr_lease_ns = 0;
        assert_eq!(c.validate().unwrap_err(), ConfigError::ZeroLease);
    }

    #[test]
    fn zero_retry_attempts_rejected() {
        let mut c = SamhitaConfig::default();
        c.retry.max_attempts = 0;
        assert_eq!(c.validate().unwrap_err(), ConfigError::ZeroRetryAttempts);
    }

    #[test]
    fn service_costs_mirror_the_simulation_model() {
        use samhita_scl::SimTime;
        use samhita_trace::{EventKind, TraceEvent};
        let c = SamhitaConfig::default();
        let sc = c.service_costs();
        let serve = |kinds: &[EventKind]| {
            let at = SimTime::ZERO;
            let events: Vec<_> = kinds.iter().map(|&kind| TraceEvent { at, kind }).collect();
            SimTime::from_ns(sc.serve_ns(&events))
        };
        assert_eq!(sc.mgr_service_ns, c.costs.mgr_service_ns);
        let bypass = SamhitaConfig { manager_bypass: true, ..c.clone() };
        assert_eq!(bypass.service_costs().mgr_service_ns, c.costs.local_sync_ns);
        assert_eq!(sc.page_size, c.page_size as u64);
        for bytes in [0u64, 100, 1024, 4096, 16384] {
            // A host write pays its bytes; a batch pays one apply, whatever
            // its parts carry.
            let host = EventKind::ApplyFine { page: 0, bytes, writer: u32::MAX, batch: 0 };
            assert_eq!(serve(&[host]), c.service.apply_ns(bytes as usize));
            let diff = EventKind::ApplyDiff { page: 0, bytes, writer: 0, batch: 1 };
            let fine = EventKind::ApplyFine { page: 1, bytes, writer: 0, batch: 1 };
            assert_eq!(serve(std::slice::from_ref(&diff)), c.service.batch_apply_ns());
            assert_eq!(serve(&[diff, fine, fine]), c.service.batch_apply_ns());
        }
        for (pages, written) in [(1u32, 0u32), (1, 1), (4, 1), (16, 16)] {
            let fetch = EventKind::ServeFetch { page: 0, pages, reader: 0, written, queued_ns: 0 };
            let model = c.service.service_ns(written as usize * c.page_size);
            assert_eq!(serve(&[fetch]), model);
        }
    }

    #[test]
    fn fabric_profiles_resolve() {
        assert_eq!(FabricProfile::IbQdr.link(), profiles::ib_qdr());
        assert_eq!(FabricProfile::Scif.link(), profiles::scif());
        assert_eq!(FabricProfile::PcieVerbsProxy.link(), profiles::pcie_verbs_proxy());
        assert_eq!(FabricProfile::Ethernet10g.link(), profiles::ethernet_10g());
    }
}
