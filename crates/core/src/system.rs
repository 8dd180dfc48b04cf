//! System bring-up, the service state machines, and the host control client.
//!
//! A [`Samhita`] instance owns one state machine per memory server and one
//! for the manager (plus an optional hot standby), all joined by an SCL
//! fabric built from the configured topology. The services own no threads:
//! each is an inline task of the deterministic scheduler, stepped by
//! whichever thread is yielding when its next message falls due. The host
//! (the code that owns the `Samhita` value) interacts through a control
//! client: it can allocate global memory, create synchronization objects,
//! and initialize / inspect global memory outside of timed runs.
//! [`Samhita::run`] then runs the compute threads as coroutine tasks on the
//! calling thread, hands each a [`ThreadCtx`], and collects a [`RunReport`].
//!
//! For timing experiments, create a fresh instance per measured run: virtual
//! service clocks (manager, memory servers) advance monotonically across
//! runs of one instance, which is harmless for correctness but perturbs
//! timings of later runs.

use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;
use samhita_mem::{HomeMap, MemRequest, MemResponse, MemoryServer, PageId};
use samhita_regc::{Marks, UpdatePart};
use samhita_sched::{Next, Scheduler, TaskRef};
use samhita_scl::{
    Endpoint, EndpointId, Envelope, Fabric, FabricStats, MsgClass, ResourceStats, SimTime,
};
use samhita_trace::{EventKind, RunTrace, SharedTrack, Tracer, TrackId};

use crate::config::SamhitaConfig;
use crate::layout::{AddressLayout, Placement};
use crate::manager::{ManagerEngine, Outgoing};
use crate::msg::{MgrLogOp, MgrLogRecord, MgrRequest, MgrResponse, Msg, Stamp};
use crate::proto::HostChannel;
use crate::stats::RunReport;
use crate::thread::ThreadCtx;

/// The manager tid reserved for the host control client.
pub(crate) const HOST_TID: u32 = u32::MAX;

/// A running Samhita system.
pub struct Samhita {
    cfg: Arc<SamhitaConfig>,
    layout: AddressLayout,
    home_map: HomeMap,
    fabric: Arc<Fabric<Msg>>,
    placement: Placement,
    mgr_ep: EndpointId,
    /// The hot-standby manager's endpoint, when `cfg.manager_standby` is on.
    standby_ep: Option<EndpointId>,
    mem_eps: Vec<EndpointId>,
    ctl: Mutex<HostChannel>,
    // The service state machines. The scheduler steps them (see `install`);
    // the host reads their counters directly, which is race-free and
    // deterministic whenever it holds the baton: every request a run issued
    // has been served by then (`resume` drains every pending service
    // event, straggling prefetches and one-way updates included).
    mgr: Arc<Mutex<MgrService>>,
    standby: Option<Arc<Mutex<StandbyService>>>,
    mem: Vec<Arc<Mutex<MemService>>>,
    tracer: Option<Arc<Tracer>>,
    // The scheduler serializing every simulated task, and the host's own
    // task. The host holds the baton whenever it is between runs; `run`
    // gives it up while the compute tasks execute and takes it back
    // (draining all pending service work) before reading any results.
    sched: Arc<Scheduler>,
    host_task: TaskRef,
}

impl Samhita {
    /// Bring up a system: memory servers, manager, control client.
    ///
    /// # Panics
    /// Panics on an invalid configuration (see [`SamhitaConfig::validate`]).
    pub fn new(cfg: SamhitaConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SamhitaConfig: {e}");
        }
        let cfg = Arc::new(cfg);
        let layout = AddressLayout::new(&cfg);
        let topo = cfg.build_topology();
        let placement = Placement::new(&cfg, &topo);
        let fabric = Fabric::<Msg>::new(topo);
        let home_map = HomeMap::new(cfg.mem_servers, cfg.line_pages);

        // Event tracing is strictly observational: services push into shared
        // tracks after their virtual-time accounting is done, and the fabric
        // observer fires after the cost model has charged the send. Enabling
        // it cannot move any virtual clock.
        let tracer = cfg.tracing.then(|| Arc::new(Tracer::new(cfg.trace_capacity)));
        if let Some(t) = &tracer {
            let track = t.shared_track(TrackId::Fabric);
            fabric.set_observer(Some(Box::new(move |src, dst, now, bytes, class, fault| {
                track.push(
                    now,
                    EventKind::FabricSend {
                        src: src.0 as u64,
                        dst: dst.0 as u64,
                        class,
                        bytes: bytes as u64,
                    },
                );
                if let Some(kind) = fault {
                    track.push(
                        now,
                        EventKind::FaultInjected { src: src.0 as u64, dst: dst.0 as u64, kind },
                    );
                }
            })));
        }

        // One scheduler per system, the host registered as the task
        // initially holding the baton. Every endpoint is bound to a
        // scheduler task, so all receives follow the virtual-time-ordered
        // discipline.
        let sched = Scheduler::new(cfg.sched_seed);
        let host_task = sched.register_running();

        // Host control endpoint, created first so the services know it: the
        // host control plane models the experimenter's out-of-band access
        // and is exempt from fault injection (replies to it go reliably).
        let ctl_endpoint = fabric.add_endpoint(placement.manager);
        ctl_endpoint.bind_task(&host_task);
        let ctl = ctl_endpoint.id();
        let faults_active = cfg.faults.is_active();
        // Server-side replay protection. Duplicates reach the servers from
        // two sources: a fault plan (dup/drop-forced retransmission), and —
        // even in a fault-free run — the grant-liveness probe that a standby
        // configuration arms on every client (see `ThreadCtx::new`), which
        // re-sends a blocked request's token once per lease period. Replay
        // protection is a prerequisite of probing, so dedup is on whenever
        // either source exists; otherwise a probed-but-deferred acquire,
        // barrier wait, or cond wait would be applied twice.
        let dedup = cfg.replay_protected();

        // Memory servers.
        let mut mem_eps = Vec::new();
        let mut mem = Vec::new();
        for i in 0..cfg.mem_servers {
            let ep = fabric.add_endpoint(placement.mem_servers[i as usize]);
            mem_eps.push(ep.id());
            let died_at = cfg.faults.crash.filter(|&(dead, _)| faults_active && dead == i);
            mem.push(install(
                &sched,
                MemService {
                    ep,
                    server: MemoryServer::new(cfg.page_size, cfg.service),
                    track: tracer.as_ref().map(|t| t.shared_track(TrackId::MemServer(i))),
                    ctl,
                    dedup,
                    seen: HashMap::new(),
                    order: VecDeque::new(),
                    applied: Vec::new(),
                    held: Vec::new(),
                    died_at: died_at.map(|(_, at_ns)| SimTime::from_ns(at_ns)),
                },
            ));
        }

        // Manager and (optional) hot-standby endpoints, created before the
        // fault plan so a configured manager crash can name the primary's
        // endpoint. No protocol traffic flows until the host Register RPC
        // below, so the plan is still installed before any send it could
        // affect.
        let mgr_endpoint = fabric.add_endpoint(placement.manager);
        let mgr_ep = mgr_endpoint.id();
        let standby_endpoint =
            cfg.manager_standby.then(|| fabric.add_endpoint(placement.standby_node()));
        let standby_ep = standby_endpoint.as_ref().map(|ep| ep.id());

        // Deterministic fault injection: structural faults (crash windows
        // need the crashed endpoint's id) are resolved here, then the plan
        // is installed before any protocol traffic flows. Installed only for
        // an actually-active plan — a fault-free standby run stays on the
        // unfaulted fabric path.
        if faults_active {
            let f = &cfg.faults;
            let mut plan = samhita_scl::FaultPlan::lossy(
                f.seed,
                f.drop_p,
                f.dup_p,
                f.delay_p,
                SimTime::from_ns(f.delay_ns),
            );
            for p in &f.partitions {
                plan.partitions.push(samhita_scl::Partition {
                    a: samhita_scl::NodeId(p.a),
                    b: samhita_scl::NodeId(p.b),
                    from: SimTime::from_ns(p.from_ns),
                    until: SimTime::from_ns(p.until_ns),
                });
            }
            if let Some((server, at_ns)) = f.crash {
                plan.crashed.push((mem_eps[server as usize], SimTime::from_ns(at_ns)));
            }
            if let Some(at_ns) = f.mgr_crash {
                plan.crashed.push((mgr_ep, SimTime::from_ns(at_ns)));
            }
            fabric.set_fault_plan(plan);
        }

        // Manager (and standby) state machines. The standby folds the same
        // records through the same engine as the primary, starting from the
        // same initial state — the whole replication argument.
        let replica = |ep, track, dedup, died_at| MgrReplica {
            ep,
            engine: ManagerEngine::new(&cfg),
            track: tracer.as_ref().map(|t| t.shared_track(track)),
            ctl,
            dedup,
            died_at,
            hwm: HashMap::new(),
            done: HashMap::new(),
            awaiting: HashMap::new(),
        };
        let mgr_died_at =
            faults_active.then(|| cfg.faults.mgr_crash.map(SimTime::from_ns)).flatten();
        let mgr = install(
            &sched,
            MgrService {
                core: replica(mgr_endpoint, TrackId::Manager, dedup, mgr_died_at),
                standby: standby_ep,
                unacked: Vec::new(),
                shipped: 0,
            },
        );
        let standby = standby_endpoint.map(|ep| {
            let core = replica(ep, TrackId::MgrStandby, true, None);
            let standby =
                StandbyService { core, active: false, reclaims: 0, serves: 0, takeover_ns: 0 };
            install(&sched, standby)
        });

        // Host control client (registers like a thread, but never syncs).
        let mut ctl = HostChannel::new(ctl_endpoint, standby_ep);
        let resp = ctl.rpc_mgr(
            mgr_ep,
            HOST_TID,
            MgrRequest::Register { observer: true },
            MsgClass::Control,
        );
        assert!(matches!(resp, MgrResponse::Registered { .. }), "host registration failed");

        Samhita {
            cfg,
            layout,
            home_map,
            fabric,
            placement,
            mgr_ep,
            standby_ep,
            mem_eps,
            ctl: Mutex::new(ctl),
            mgr,
            standby,
            mem,
            tracer,
            sched,
            host_task,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SamhitaConfig {
        &self.cfg
    }

    /// The address-space layout.
    pub fn layout(&self) -> &AddressLayout {
        &self.layout
    }

    /// Cumulative fabric traffic since bring-up, by message class
    /// (per-run deltas are already included in each [`RunReport`]).
    pub fn fabric_stats(&self) -> FabricStats {
        self.fabric.stats()
    }

    /// Create a mutual-exclusion variable usable from any thread.
    pub fn create_mutex(&self) -> u32 {
        self.ctl_sync_id(MgrRequest::CreateLock)
    }

    /// Create a barrier over `parties` threads.
    pub fn create_barrier(&self, parties: u32) -> u32 {
        self.ctl_sync_id(MgrRequest::CreateBarrier { parties })
    }

    /// Create a condition variable.
    pub fn create_cond(&self) -> u32 {
        self.ctl_sync_id(MgrRequest::CreateCond)
    }

    fn ctl_sync_id(&self, req: MgrRequest) -> u32 {
        match self.ctl_rpc(req) {
            MgrResponse::SyncId(id) => id,
            other => panic!("unexpected create response: {other:?}"),
        }
    }

    /// A host request to the manager ([`HostChannel::rpc_mgr`]).
    fn ctl_rpc(&self, req: MgrRequest) -> MgrResponse {
        self.ctl.lock().rpc_mgr(self.mgr_ep, HOST_TID, req, MsgClass::Control)
    }

    /// Allocate `size` bytes of global memory from the host (shared zone or
    /// striped region by the configured threshold; the host has no arena).
    pub fn alloc_global(&self, size: u64) -> u64 {
        let req = if size >= self.cfg.large_threshold {
            MgrRequest::AllocStriped { size }
        } else {
            MgrRequest::AllocShared { size, align: 8 }
        };
        match self.ctl_rpc(req) {
            MgrResponse::Addr(a) => a,
            other => panic!("unexpected allocation response: {other:?}"),
        }
    }

    /// Free a host allocation.
    pub fn free_global(&self, addr: u64) {
        let resp = self.ctl_rpc(MgrRequest::Free { addr });
        assert!(matches!(resp, MgrResponse::Ok), "unexpected free response: {resp:?}");
    }

    /// Write `len` bytes of global memory from `addr` from the host, one
    /// fine-grain update per page, whose bytes `encode` makes from their
    /// range. With replication configured, every write also goes through to
    /// the replica as a shadow copy, so replicas mirror the primaries from
    /// time zero.
    fn write_pages(&self, addr: u64, len: usize, mut encode: impl FnMut(Range<usize>) -> Vec<u8>) {
        let mut ctl = self.ctl.lock();
        for (page, offset, range) in self.layout.pages(addr, len) {
            let page = PageId(page);
            let server = self.home_map.home_of_page(page);
            let req = MemRequest::ApplyFine { page, offset: offset as u32, bytes: encode(range) };
            if let Some(r) = self.home_map.replica_of_server(server, self.cfg.replica_offset) {
                let resp = ctl.rpc_mem(self.mem_eps[r as usize], true, req.clone());
                assert!(matches!(resp, MemResponse::Ack { .. }));
            }
            let resp = ctl.rpc_mem(self.mem_eps[server as usize], false, req);
            assert!(matches!(resp, MemResponse::Ack { .. }));
        }
    }

    /// Read `len` bytes of global memory from `addr` from the host, one
    /// single-page fetch per page: `decode` gets each range with the
    /// served frame's bytes for it.
    fn read_pages(&self, addr: u64, len: usize, mut decode: impl FnMut(Range<usize>, &[u8])) {
        let mut ctl = self.ctl.lock();
        for (page, offset, range) in self.layout.pages(addr, len) {
            let server = self.host_read_server(self.home_map.home_of_page(PageId(page)));
            let req = MemRequest::FetchLine { first: PageId(page), pages: 1 };
            match ctl.rpc_mem(self.mem_eps[server as usize], false, req) {
                MemResponse::Line { pages, .. } => {
                    decode(range.clone(), &pages[0].bytes()[offset..offset + range.len()]);
                }
                other => panic!("unexpected page response: {other:?}"),
            }
        }
    }

    /// Initialize global memory from the host (outside timed runs), one
    /// fine-grain update per page, written through to any replica.
    pub fn write_global(&self, addr: u64, data: &[u8]) {
        self.write_pages(addr, data.len(), |range| data[range].to_vec());
    }

    /// The server the host reads a page's home data from: the primary,
    /// unless the fault plan crashes it — the crashed store misses every
    /// update sent after the crash instant, so the host reads the
    /// write-through replica instead (validation guarantees one exists).
    fn host_read_server(&self, home: u32) -> u32 {
        match self.cfg.faults.crash {
            Some((dead, _)) if dead == home => self
                .home_map
                .replica_of_server(home, self.cfg.replica_offset)
                .expect("a crashed server always has a replica (config validation)"),
            _ => home,
        }
    }

    /// Read global memory from the host (outside timed runs).
    pub fn read_global(&self, addr: u64, out: &mut [u8]) {
        self.read_pages(addr, out.len(), |range, bytes| out[range].copy_from_slice(bytes));
    }

    /// Convenience: write a slice of `f64`s, each page's bytes encoded
    /// straight into its update.
    pub fn write_f64s(&self, addr: u64, values: &[f64]) {
        self.write_pages(addr, values.len() * 8, |range| {
            // The values the range touches, whole; an unaligned range then
            // trims the one at each end that it shares with a neighbour page.
            let words = &values[range.start / 8..range.end.div_ceil(8)];
            let mut bytes = Vec::with_capacity(words.len() * 8);
            for v in words {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            bytes.drain(..range.start % 8);
            bytes.truncate(range.len());
            bytes
        });
    }

    /// Convenience: read a slice of `f64`s, each served page decoded
    /// straight into the result.
    pub fn read_f64s(&self, addr: u64, n: usize) -> Vec<f64> {
        // A grid runs to megabytes, filled straight away: its whole 2 MiB
        // pages are advised huge. Every value is set before any page lands,
        // not just reserved: `patch_f64` reads the word it merges an
        // unaligned end into.
        let mut out = samhita_mem::vec_with_huge_pages(n);
        out.resize(n, 0f64);
        self.read_pages(addr, n * 8, |range, bytes| {
            // An unaligned range shares the value at each end with a
            // neighbour page: those are patched in byte by byte.
            let head = ((8 - range.start % 8) % 8).min(bytes.len());
            let (head, body) = bytes.split_at(head);
            let mut words = body.chunks_exact(8);
            for (v, word) in out[range.start.div_ceil(8)..].iter_mut().zip(&mut words) {
                *v = f64::from_le_bytes(word.try_into().expect("eight bytes"));
            }
            let tail = words.remainder();
            patch_f64(&mut out, range.start, head);
            patch_f64(&mut out, range.end - tail.len(), tail);
        });
        out
    }

    /// Run `body` on `nthreads` compute threads and collect their
    /// statistics. Thread ids are `0..nthreads`; placement follows the
    /// configured topology (fill compute nodes core by core).
    ///
    /// # Panics
    /// A failing run fails, it does not hang: a panicking body is re-raised
    /// with its payload, and threads left blocked with nothing to wake them
    /// panic with `deadlock:` (see `TaskRef::run_coroutines`).
    pub fn run<F>(&self, nthreads: u32, body: F) -> RunReport
    where
        F: Fn(&mut ThreadCtx) + Send + Sync,
    {
        assert!(nthreads >= 1, "need at least one compute thread");
        assert!(
            nthreads <= self.cfg.max_threads,
            "nthreads {nthreads} exceeds provisioned max_threads {}",
            self.cfg.max_threads
        );
        // Host clock, read exactly twice (here and at return) and stored
        // only in the Debug-redacted `host_wall_ns`: wall time is reported,
        // never consulted, so it cannot perturb virtual execution.
        let host_start = std::time::Instant::now();
        let fabric_before = self.fabric.stats();
        // Run-start snapshots of the services' cumulative counters, for
        // end-of-run deltas. Queue accounting is reset first: a peak depth
        // has no delta, so it has to start each run from zero. The host
        // holds the baton, so the services are quiescent.
        let (mgr_before, shipped_before) = {
            let mut mgr = self.mgr.lock();
            mgr.core.engine.reset_queue_accounting();
            (mgr.core.engine.stats(), mgr.shipped)
        };
        let mem_before: Vec<ResourceStats> = self
            .mem
            .iter()
            .map(|m| {
                let mut m = m.lock();
                m.server.reset_queue_accounting();
                m.server.stats()
            })
            .collect();
        let standby_before = self.standby.as_ref().map(|s| s.lock().counters());
        let start = self.settled_at();
        let sched_grants_before = self.sched.grants();
        let endpoints: Vec<Endpoint<Msg>> = (0..nthreads)
            .map(|t| self.fabric.add_endpoint(self.placement.compute_node(t)))
            .collect();
        // One scheduler task per compute thread, all ready at the run's
        // start (the seeded tie-break orders their first steps), each bound
        // to its endpoint before any traffic can target it. Registration
        // happens host-side, in tid order, so task ids (the final tie-break
        // key) are reproducible.
        let tasks: Vec<TaskRef> = endpoints
            .iter()
            .map(|ep| {
                let task = self.sched.register_ready(start.as_ns());
                ep.bind_task(&task);
                task
            })
            .collect();
        let body = &body;
        // Every body runs as a coroutine on this thread. The host gives up
        // the baton for the whole run and does not touch the fabric until
        // it has taken it back, which drains every pending service event
        // (one-way releases and updates, straggling prefetches) so the
        // counters below are final.
        let stats = self.host_task.run_coroutines(
            endpoints.into_iter().zip(tasks).enumerate().map(|(t, (ep, task))| {
                let t = t as u32;
                let run = move || {
                    let mut ctx = ThreadCtx::new(
                        start,
                        t,
                        nthreads,
                        Arc::clone(&self.cfg),
                        ep,
                        self.mgr_ep,
                        self.standby_ep,
                        self.mem_eps.clone(),
                    );
                    if let Some(tr) = &self.tracer {
                        ctx.attach_trace(tr.buf(TrackId::Thread(t)));
                    }
                    body(&mut ctx);
                    let (stats, buf) = ctx.finish();
                    if let (Some(tr), Some(buf)) = (&self.tracer, buf) {
                        tr.submit(buf);
                    }
                    stats
                };
                (task, run)
            }),
        );
        let mut report = RunReport::new(stats, self.fabric.stats().delta(&fabric_before));
        {
            let mgr = self.mgr.lock();
            let st = mgr.core.engine.stats();
            report.mgr_busy_ns = st.busy_ns - mgr_before.busy_ns;
            report.mgr_queue_wait_ns = st.queue_wait_ns - mgr_before.queue_wait_ns;
            report.mgr_queue_depth_sum = st.depth_sum - mgr_before.depth_sum;
            report.mgr_requests = st.requests - mgr_before.requests;
            report.mgr_peak_queue_depth = st.peak_depth;
            report.log_records_shipped = mgr.shipped - shipped_before;
        }
        for (m, before) in self.mem.iter().zip(&mem_before) {
            let st = m.lock().server.stats();
            report.server_busy_ns.push(st.busy_ns - before.busy_ns);
            report.server_queue_wait_ns.push(st.queue_wait_ns - before.queue_wait_ns);
            report.server_queue_depth_sum.push(st.depth_sum - before.depth_sum);
            report.server_peak_queue_depth.push(st.peak_depth);
        }
        report.sched_grants = self.sched.grants() - sched_grants_before;
        if let (Some(sb), Some(before)) = (&self.standby, standby_before) {
            let sb = sb.lock();
            let now = sb.counters();
            report.lease_reclaims = now.0 - before.0;
            report.stale_releases = now.1 - before.1;
            report.standby_serves = now.2 - before.2;
            report.takeover_ns = sb.takeover_ns;
        }
        report.layout = Some(self.layout);
        report.host_wall_ns = crate::stats::HostNanos::new(
            u64::try_from(host_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        report
    }

    /// When a run may start: once every service has settled — past the
    /// host's last reply and the last service window of the manager, its
    /// standby and every memory server — so that nothing the host or an
    /// earlier run asked of them is still queued when its threads begin.
    /// The host holds the baton, so every pending service event has been
    /// served.
    fn settled_at(&self) -> SimTime {
        let mgr = self.mgr.lock().core.engine.last_done();
        let standby = self.standby.as_ref().map(|s| s.lock().core.engine.last_done());
        let servers = self.mem.iter().map(|m| m.lock().server.settled_at());
        servers.chain(standby).fold(self.ctl.lock().now().max(mgr), SimTime::max)
    }

    /// Drain the event trace accumulated so far (threads that finished a
    /// run, plus manager / memory-server / fabric activity). Returns `None`
    /// unless the configuration enabled [`SamhitaConfig::tracing`]. Each
    /// call starts a fresh collection window.
    pub fn take_trace(&self) -> Option<RunTrace> {
        self.tracer.as_ref().map(|t| t.take())
    }

    /// Tear the system down and return each memory server's service
    /// accounting over its whole life, host requests included, in server
    /// order.
    pub fn shutdown(self) -> Vec<ResourceStats> {
        self.mem.iter().map(|m| m.lock().server.stats()).collect()
    }
}

/// Overwrite bytes `at..at + bytes.len()` of the little-endian image of
/// `values`, all of them within one value.
fn patch_f64(values: &mut [f64], at: usize, bytes: &[u8]) {
    if bytes.is_empty() {
        return;
    }
    let mut word = values[at / 8].to_le_bytes();
    word[at % 8..][..bytes.len()].copy_from_slice(bytes);
    values[at / 8] = f64::from_le_bytes(word);
}

/// Summarize a memory request stamped `stamp` as trace events (stamped
/// later, at the server's service-completion time). A batched update
/// expands into one event per component part, so byte-conservation checks
/// over the server track see exactly the same `ApplyDiff`/`ApplyFine`
/// totals whether or not the flushes travelled coalesced. A fetch is
/// traced from its reply ([`served_fetch`]), which knows what it carried.
fn mem_events(req: &MemRequest, stamp: &Stamp) -> Vec<EventKind> {
    let (writer, batch) = (stamp.tid, stamp.batch);
    let diff = |page: u64, diff: &samhita_regc::Diff| EventKind::ApplyDiff {
        page,
        bytes: diff.payload_bytes() as u64,
        writer,
        batch,
    };
    let fine = |page: u64, bytes: &[u8]| EventKind::ApplyFine {
        page,
        bytes: bytes.len() as u64,
        writer,
        batch,
    };
    match req {
        MemRequest::FetchLine { .. } => Vec::new(),
        MemRequest::ApplyFine { page, bytes, .. } => vec![fine(page.0, bytes)],
        MemRequest::WritePage { page, .. } => vec![EventKind::ServeWrite { page: page.0 }],
        MemRequest::UpdateBatch { batch } => batch
            .parts()
            .map(|part| match part {
                UpdatePart::Diff { page, diff: d } => diff(*page, d),
                UpdatePart::Fine { page, bytes, .. } => fine(*page, bytes),
            })
            .collect(),
    }
}

/// The trace event of a fetch by `reader` answered with `resp`, its
/// request at the home for `queued` before service began, if it was one.
fn served_fetch(resp: &MemResponse, reader: u32, queued: SimTime) -> Option<EventKind> {
    let MemResponse::Line { first, pages } = resp else { return None };
    let (pages, written) = (pages.len() as u32, resp.written_pages() as u32);
    Some(EventKind::ServeFetch { page: first.0, pages, reader, written, queued_ns: queued.as_ns() })
}

fn mem_resp_class(resp: &MemResponse) -> MsgClass {
    match resp {
        MemResponse::Line { .. } => MsgClass::Data,
        MemResponse::Ack { .. } | MemResponse::BatchAck { .. } => MsgClass::Update,
    }
}

/// A manager or memory server: a pure request→response state machine over
/// its endpoint. It owns no thread — see [`install`].
trait Service: Send + 'static {
    fn endpoint(&self) -> &Endpoint<Msg>;

    /// Act on one delivered message.
    fn handle(&mut self, env: Envelope<Msg>);

    /// A virtual instant at which to act even if no message is due by then.
    fn deadline(&self) -> Option<SimTime> {
        None
    }

    /// [`Service::deadline`] `at` arrived with no message due at or before it.
    fn on_deadline(&mut self, _at: SimTime) {}
}

/// Register `svc` with the scheduler as an inline task bound to its
/// endpoint: whenever a pick lands on it, the dispatching thread runs one
/// step — consume the message (or deadline) the grant made final, then
/// announce the next instant of interest.
///
/// The step is `Endpoint::recv_deadline`'s loop turned inside out: any
/// grant — at a time the step asked for or out of `Park` — may consume what
/// it made final, because every grant is the global minimum.
fn install<S: Service>(sched: &Arc<Scheduler>, svc: S) -> Arc<Mutex<S>> {
    let svc = Arc::new(Mutex::new(svc));
    // Weak, or scheduler → step → service → endpoint → fabric → wake hook →
    // scheduler would keep every system alive forever.
    let weak = Arc::downgrade(&svc);
    let task = sched.register_service(Box::new(move |granted| {
        let Some(svc) = weak.upgrade() else { return Next::Done };
        let mut svc = svc.lock();
        if let Some(env) = svc.endpoint().poll(granted) {
            svc.handle(env);
        } else if let Some(at) = svc.deadline().filter(|at| granted >= at.as_ns()) {
            svc.on_deadline(at);
        }
        let due = svc.endpoint().next_due();
        let deadline = svc.deadline().map(|at| at.as_ns());
        due.into_iter().chain(deadline).min().map_or(Next::Park, Next::At)
    }));
    svc.lock().endpoint().bind_task(&task);
    svc
}

/// Send a service's reply: reliably when the host control plane must hear
/// it, through the fault plan otherwise. A send failure means the requester
/// is gone; nothing to do.
fn reply(
    ep: &Endpoint<Msg>,
    reliable: bool,
    dst: EndpointId,
    at: SimTime,
    class: MsgClass,
    msg: Msg,
) {
    let wire = msg.wire_bytes();
    let _ = if reliable {
        ep.send_reliable(dst, at, wire, class, msg)
    } else {
        ep.send(dst, at, wire, class, msg)
    };
}

/// Requests kept in a server's idempotency cache. Retransmissions arrive
/// almost immediately after their original (the client blocks on the lost
/// copy's arrival), so a small window suffices; it only bounds memory.
const DEDUP_WINDOW: usize = 512;

/// One memory request as the server holds it.
struct Request {
    src: EndpointId,
    token: u64,
    shadow: bool,
    stamp: Stamp,
    req: MemRequest,
    arrival: SimTime,
    /// While held: the completion of the serve that took in the last batch
    /// it waits for, once that batch is served and until that instant has
    /// passed a release.
    ready: Option<SimTime>,
}

/// The last batch of each writer that `r` must follow at its home, indexed
/// by writer.
fn named(r: &Request) -> &[u32] {
    r.stamp.needs.at_homes().get(r.stamp.home as usize).map_or(&[][..], Vec::as_slice)
}

/// Whether `r` names a batch a home that took in `applied` has not.
fn unserved(applied: &[Vec<u32>], r: &Request) -> bool {
    let applied = |writer: usize| applied.get(r.stamp.home as usize)?.get(writer).copied();
    (0..).zip(named(r)).any(|(writer, &named)| named > applied(writer).unwrap_or(0))
}

struct MemService {
    ep: Endpoint<Msg>,
    server: MemoryServer,
    track: Option<SharedTrack>,
    ctl: EndpointId,
    dedup: bool,
    /// Idempotency cache: (requester, token) → completed response. A
    /// replayed request is answered again (a one-way update is absorbed)
    /// without re-applying, re-charging the service resource, or re-tracing
    /// — exactly-once application under at-least-once delivery.
    seen: HashMap<(EndpointId, u64), (SimTime, MemResponse)>,
    order: VecDeque<(EndpointId, u64)>,
    /// `applied[home][writer]`: the last of `writer`'s update batches to
    /// `home` applied here (one sender's batches arrive in order).
    applied: Vec<Vec<u32>>,
    /// Requests held until the batches their stamps name are applied, in
    /// arrival order; a later request of one sender about one home is held
    /// behind its earlier one. A held request joins the queue at the
    /// completion of the last batch it waits for ([`Request::ready`]) —
    /// behind whatever reached the home before then.
    held: Vec<Request>,
    /// The instant a configured crash kills this server. A request it holds
    /// then is served at once, its reply lost with the server: the
    /// requester fails over to the replica and is held there instead.
    died_at: Option<SimTime>,
}

impl MemService {
    /// Whether the requester `src` blocks on `resp`: a fetch's data, or the
    /// host control client's write. A compute thread's updates are one-way.
    fn awaited(&self, src: EndpointId, resp: &MemResponse) -> bool {
        src == self.ctl || matches!(resp, MemResponse::Line { .. })
    }

    /// Whether `r` must still wait at `at`: `behind` a held request of its
    /// sender about its home, or for the batches it names — one not taken
    /// in, or the completion of the last.
    fn waits(&self, r: &Request, behind: bool, at: SimTime) -> bool {
        self.died_at.is_none_or(|dead| at < dead)
            && (behind || r.ready.is_some_and(|ready| ready > at) || unserved(&self.applied, r))
    }

    /// Answer a retransmission of a request already served from the cache.
    fn replay(&self, src: EndpointId, token: u64, at: SimTime) -> bool {
        let Some((done, resp)) = self.seen.get(&(src, token)) else { return false };
        if self.awaited(src, resp) {
            let msg = Msg::MemResp { token, resp: resp.clone() };
            reply(&self.ep, src == self.ctl, src, (*done).max(at), mem_resp_class(resp), msg);
        }
        true
    }

    /// Serve `r` from `at` on; an update batch then releases the held
    /// requests it was the last wait of, at its completion.
    fn serve(&mut self, r: Request, at: SimTime) {
        if self.replay(r.src, r.token, at) {
            return;
        }
        // Shadow (replica write-through) copies are applied and charged, but
        // kept off the event trace so replication does not disturb the
        // observable protocol timeline.
        let events = match &self.track {
            Some(_) if !r.shadow => Some(mem_events(&r.req, &r.stamp)),
            _ => None,
        };
        let (resp, start, done) = self.server.serve(r.req, at);
        if let (Some(track), Some(events)) = (&self.track, events) {
            let fetch = served_fetch(&resp, r.stamp.tid, start - r.arrival);
            for event in events.into_iter().chain(fetch) {
                track.push(done, event);
            }
        }
        if self.dedup {
            self.seen.insert((r.src, r.token), (done, resp.clone()));
            self.order.push_back((r.src, r.token));
            if self.order.len() > DEDUP_WINDOW {
                if let Some(old) = self.order.pop_front() {
                    self.seen.remove(&old);
                }
            }
        }
        if self.awaited(r.src, &resp) {
            let class = mem_resp_class(&resp);
            let msg = Msg::MemResp { token: r.token, resp };
            reply(&self.ep, r.src == self.ctl, r.src, done, class, msg);
        }
        if r.stamp.batch > 0 {
            let Stamp { tid: writer, home, batch, .. } = r.stamp;
            Marks::raise(&mut self.applied, home, writer, batch);
            for h in &mut self.held {
                let last = h.stamp.home == home && named(h).get(writer as usize) == Some(&batch);
                if last && !unserved(&self.applied, h) {
                    h.ready = Some(done);
                }
            }
        }
    }

    /// Serve, in arrival order, every held request that no longer waits
    /// and follows no held request of its sender about its home, each from
    /// `at` or its arrival. A request passed over cannot be freed by a
    /// later one's serve: a batch taken in then completes after `at`. The
    /// instants passed are forgotten, so the deadline moves past `at`.
    fn release(&mut self, at: SimTime) {
        let mut behind = HashSet::new();
        let mut i = 0;
        while i < self.held.len() {
            let h = &self.held[i];
            let sender = (h.src, h.stamp.home);
            if self.waits(h, behind.contains(&sender), at) {
                behind.insert(sender);
                i += 1;
                continue;
            }
            let r = self.held.remove(i);
            let from = r.arrival.max(at);
            self.serve(r, from);
        }
        for h in &mut self.held {
            h.ready = h.ready.filter(|&ready| ready > at);
        }
    }
}

impl Service for MemService {
    fn endpoint(&self) -> &Endpoint<Msg> {
        &self.ep
    }

    fn handle(&mut self, env: Envelope<Msg>) {
        let Msg::MemReq { token, shadow, stamp, req } = env.msg else {
            panic!("memory server received unexpected message: {:?}", env.msg);
        };
        // A lost request never reached this server; discard it.
        if env.lost || self.replay(env.src, token, env.deliver_at) {
            return;
        }
        let r = Request {
            src: env.src,
            token,
            shadow,
            stamp,
            req,
            arrival: env.deliver_at,
            ready: None,
        };
        let behind = self.held.iter().any(|h| (h.src, h.stamp.home) == (r.src, r.stamp.home));
        if self.waits(&r, behind, r.arrival) {
            self.held.push(r);
        } else {
            self.serve(r, env.deliver_at);
        }
    }

    fn deadline(&self) -> Option<SimTime> {
        if self.held.is_empty() {
            return None;
        }
        self.held.iter().filter_map(|h| h.ready).chain(self.died_at).min()
    }

    fn on_deadline(&mut self, at: SimTime) {
        self.release(at);
    }
}

/// Whether `out` answers its request, and so is what a retransmission of
/// it is answered with: a whole grant the engine filed, and everything but
/// hints and grants it sends.
fn answers(out: &Outgoing) -> bool {
    out.filed
        || !matches!(
            out.resp,
            MgrResponse::Successor(_) | MgrResponse::Advance { .. } | MgrResponse::Rest { .. }
        )
}

/// What the primary manager and its hot standby share: the engine, the
/// replay cache, and the way answers leave.
struct MgrReplica {
    ep: Endpoint<Msg>,
    engine: ManagerEngine,
    track: Option<SharedTrack>,
    ctl: EndpointId,
    /// Replay protection. Each client's tokens arrive monotonically (its
    /// requests are serialized and the fabric preserves per-sender order),
    /// so a high-water mark per source (`hwm`) detects retransmissions, and
    /// the last response issued *to* each endpoint (`done`) answers a
    /// retransmission whose reply was lost. A retransmission of a
    /// still-queued request (a blocked acquire or condition wait) is simply
    /// ignored: the original will be answered when granted.
    dedup: bool,
    /// The instant a configured crash kills this manager. Replies to the
    /// host control endpoint are normally fault-exempt (the host models
    /// out-of-band experimenter access), but no amount of out-of-band
    /// reliability revives a dead process: once the crash has passed, ctl
    /// replies go through the faulted path so the crash fate drops them
    /// like everything else — otherwise a host setup RPC could be answered
    /// while its log record dies with the ship, leaving the standby
    /// permanently ignorant of state the host observed.
    died_at: Option<SimTime>,
    hwm: HashMap<EndpointId, u64>,
    done: HashMap<EndpointId, (u64, SimTime, MgrResponse)>,
    /// A retransmission of a request not answered yet, by requester: a
    /// grant the holder hands over itself is sent here too, since the
    /// retransmission says the holder's copy was lost.
    awaiting: HashMap<EndpointId, (u64, SimTime)>,
}

impl MgrReplica {
    fn respond(&self, dst: EndpointId, token: u64, at: SimTime, resp: MgrResponse) {
        let reliable = dst == self.ctl && self.died_at.is_none_or(|d| at < d);
        reply(&self.ep, reliable, dst, at, MsgClass::Sync, Msg::MgrResp { token, resp });
    }

    /// Replay protection: whether request `token` from `src` is new and
    /// must be served. A request already answered is re-answered from the
    /// cache, never re-applied.
    fn admit(&mut self, src: EndpointId, token: u64, deliver_at: SimTime) -> bool {
        if !self.dedup {
            return true;
        }
        let seen = self.hwm.get(&src).copied().unwrap_or(0);
        if token > seen {
            self.hwm.insert(src, token);
            return true;
        }
        if token == seen {
            match self.done.get(&src) {
                Some((t, at, resp)) if *t == token => {
                    self.respond(src, token, (*at).max(deliver_at), resp.clone());
                }
                _ => {
                    self.awaiting.insert(src, (token, deliver_at));
                }
            }
        }
        false
    }

    /// Fold one record into the engine and send what it answers. A hint or
    /// a part of a grant is never an answer to keep; the whole grant is
    /// kept but only sent to a requester that asked again.
    fn apply(&mut self, rec: MgrLogRecord) {
        for out in self.engine.apply(rec) {
            if !answers(&out) {
                self.respond(out.dst, out.token, out.at, out.resp);
                continue;
            }
            if self.dedup {
                self.done.insert(out.dst, (out.token, out.at, out.resp.clone()));
            }
            let asked = self.awaiting.remove(&out.dst).filter(|&(t, _)| t == out.token);
            match (out.filed, asked) {
                (false, _) => self.respond(out.dst, out.token, out.at, out.resp),
                (true, Some((_, again))) => {
                    self.respond(out.dst, out.token, out.at.max(again), out.resp)
                }
                (true, None) => {}
            }
        }
    }

    /// Serve one fresh request from `src`, delivered at `at`, traced as
    /// `MgrServe`. The record joins `unacked` (when there is a standby to
    /// ship it to) before it is applied: write-ahead. Returns when its
    /// service finished — nothing answers it earlier — or `None` when the
    /// engine parked it.
    fn serve(
        &mut self,
        src: EndpointId,
        at: SimTime,
        token: u64,
        tid: u32,
        req: MgrRequest,
        unacked: Option<&mut Vec<MgrLogRecord>>,
    ) -> Option<SimTime> {
        let rec = self.engine.record(src, tid, token, req, at);
        if let Some(unacked) = unacked {
            unacked.push(rec.clone());
        }
        self.apply(rec);
        let served = self.engine.take_served();
        if let Some(track) = &self.track {
            for &(done, op, tid) in &served {
                track.push(done, EventKind::MgrServe { op, tid });
            }
        }
        served.first().map(|&(done, ..)| done)
    }
}

struct MgrService {
    core: MgrReplica,
    standby: Option<EndpointId>,
    /// Write-ahead log records the standby has not yet acknowledged. Every
    /// serve ships the whole suffix, so a batch lost on the wire (or to the
    /// crash itself) is repaired by the next serve's re-ship; the standby
    /// deduplicates replays by sequence number.
    unacked: Vec<MgrLogRecord>,
    /// Log records shipped (counting re-ships of the unacked suffix —
    /// repair traffic is part of the cost story).
    shipped: u64,
}

impl Service for MgrService {
    fn endpoint(&self) -> &Endpoint<Msg> {
        &self.core.ep
    }

    fn handle(&mut self, env: Envelope<Msg>) {
        match env.msg {
            // A lost request never reached the manager; discard it.
            Msg::MgrReq { .. } if env.lost => {}
            Msg::MgrReq { token, tid, req } => {
                if !self.core.admit(env.src, token, env.deliver_at) {
                    return;
                }
                let unacked = self.standby.is_some().then_some(&mut self.unacked);
                let done = self.core.serve(env.src, env.deliver_at, token, tid, req, unacked);
                if let Some(sb) = self.standby {
                    // Write-ahead shipping: the log batch leaves when the
                    // record's service finished, no later than anything
                    // that answers it or the parked requests it released,
                    // and a manager crash is a structural fault keyed on
                    // send instants — so the crash can never deliver a
                    // response whose record it dropped. Only a *random* loss
                    // can separate them, and the next serve's re-ship
                    // repairs it (with lock leases covering the tail case of
                    // a crash right after).
                    self.shipped += self.unacked.len() as u64;
                    let msg = Msg::MgrLog { records: self.unacked.clone() };
                    let at = done.unwrap_or_else(|| self.core.engine.last_done());
                    reply(&self.core.ep, false, sb, at, MsgClass::Control, msg);
                }
            }
            // A lost ack is simply ignored: the suffix stays unacked and the
            // next serve re-ships it.
            Msg::MgrLogAck { upto } => {
                if !env.lost {
                    self.unacked.retain(|r| r.seq > upto);
                }
            }
            other => panic!("manager received unexpected message: {other:?}"),
        }
    }
}

/// The hot-standby manager.
///
/// **Before takeover** it is a pure log sink: every non-lost [`Msg::MgrLog`]
/// batch is folded into its own engine (skipping already-applied sequence
/// numbers — batches always restart at the first unacknowledged record), the
/// primary's replay-protection state is reconstructed from the records'
/// `(src, token)` pairs and the fold's outputs, and an ack is returned.
/// Nothing is sent to clients and nothing is traced: replay is bookkeeping,
/// not service.
///
/// **Takeover** is the first non-lost client request: a client only re-homes
/// after exhausting its retry budget against the primary, so the primary is
/// dead. From then on the standby serves exactly like the primary — same
/// record→apply path, same replay-cache discipline (a request the primary
/// already answered is re-answered from the reconstructed cache, never
/// re-applied), traced as `MgrServe` on its own track. Between requests its
/// [`Service::deadline`] is the earliest lock-lease expiry; reaching that
/// virtual instant with no message due, it folds a `ReclaimExpired` sweep
/// into the log so a lock whose holder (or whose release) died with the
/// primary is handed to the next waiter instead of blocking the run forever.
struct StandbyService {
    core: MgrReplica,
    active: bool,
    /// Locks reclaimed from expired leases, as drained from the engine.
    reclaims: u64,
    /// Requests served after takeover.
    serves: u64,
    /// Virtual ns of the first post-takeover serve (0 = no takeover).
    takeover_ns: u64,
}

impl StandbyService {
    /// Cumulative (lease reclaims, stale releases absorbed, serves).
    fn counters(&self) -> (u64, u64, u64) {
        (self.reclaims, self.core.engine.stale_releases(), self.serves)
    }
}

impl Service for StandbyService {
    fn endpoint(&self) -> &Endpoint<Msg> {
        &self.core.ep
    }

    fn deadline(&self) -> Option<SimTime> {
        if self.active {
            self.core.engine.next_lease_expiry()
        } else {
            None
        }
    }

    fn on_deadline(&mut self, at: SimTime) {
        // Reclaimed locks hand to their next queued waiter: the grants
        // answer those waiters' original acquire tokens.
        let rec = self.core.engine.record_reclaim(at);
        self.core.apply(rec);
        let reclaims = self.core.engine.take_reclaims();
        self.reclaims += reclaims.len() as u64;
        if let Some(track) = &self.core.track {
            for (lock, holder) in reclaims {
                track.push(at, EventKind::LeaseReclaim { lock, holder });
            }
        }
    }

    fn handle(&mut self, env: Envelope<Msg>) {
        match env.msg {
            // A lost batch never reached the standby (the primary's next
            // serve re-ships the suffix); nor did a lost request.
            Msg::MgrLog { .. } | Msg::MgrReq { .. } if env.lost => {}
            Msg::MgrLog { records } => {
                let core = &mut self.core;
                for rec in records {
                    if rec.seq <= core.engine.applied_seq() {
                        continue; // already folded (batches re-ship the suffix)
                    }
                    if let MgrLogOp::Request { src, token, .. } = &rec.op {
                        let seen = core.hwm.entry(*src).or_insert(0);
                        *seen = (*seen).max(*token);
                    }
                    // Replay: fold the record, filing its outputs in the
                    // reconstructed replay cache WITHOUT sending them — the
                    // primary already answered these requests.
                    for out in core.engine.apply(rec) {
                        if answers(&out) {
                            core.done.insert(out.dst, (out.token, out.at, out.resp));
                        }
                    }
                    core.engine.take_served();
                }
                let ack = Msg::MgrLogAck { upto: core.engine.applied_seq() };
                reply(&core.ep, false, env.src, env.deliver_at, MsgClass::Control, ack);
            }
            Msg::MgrReq { token, tid, req } => {
                if !self.active {
                    self.active = true;
                    self.takeover_ns = env.deliver_at.as_ns();
                }
                if self.core.admit(env.src, token, env.deliver_at) {
                    self.core.serve(env.src, env.deliver_at, token, tid, req, None);
                    self.serves += 1;
                }
            }
            other => panic!("standby manager received unexpected message: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> Samhita {
        Samhita::new(SamhitaConfig::small_for_tests())
    }

    #[test]
    fn bring_up_and_shutdown() {
        let s = system();
        assert_eq!(s.shutdown().len(), 1);
    }

    #[test]
    fn host_memory_roundtrip() {
        let s = system();
        let addr = s.alloc_global(1024);
        let values: Vec<f64> = (0..128).map(|i| i as f64 * 0.5).collect();
        s.write_f64s(addr, &values);
        assert_eq!(s.read_f64s(addr, 128), values);
        s.free_global(addr);
    }

    #[test]
    fn host_write_spanning_pages() {
        let s = system(); // 256-byte pages
        let addr = s.alloc_global(4096);
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        s.write_global(addr + 100, &data);
        let mut back = vec![0u8; 1000];
        s.read_global(addr + 100, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn read_f64s_from_mid_page_over_three_pages_fetches_each_page_once() {
        let s = system(); // 256-byte pages
        let base = s.alloc_global(4096).next_multiple_of(256);
        let fetches = |s: &Samhita| s.mem[0].lock().server.stats().requests;
        // 60 values from byte 104 of a page: 152 + 256 + 72 bytes; from byte
        // 100, the two that cross a page boundary come from two fetches.
        for start in [base + 104, base + 100] {
            let values: Vec<f64> = (0..60).map(|i| i as f64 * -1.25 + 0.1).collect();
            let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            s.write_global(start, &bytes);
            let before = fetches(&s);
            assert_eq!(s.read_f64s(start, 60), values);
            assert_eq!(fetches(&s) - before, 3, "one single-page fetch per page");
            // And back: write_f64s encodes what write_global wrote.
            let halves: Vec<f64> = values.iter().map(|v| v / 2.0).collect();
            s.write_f64s(start, &halves);
            let mut back = vec![0u8; bytes.len()];
            s.read_global(start, &mut back);
            assert_eq!(back, halves.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>());
        }
    }

    #[test]
    fn read_f64s_over_megabytes_from_an_odd_byte_equals_reads_one_value_at_a_time() {
        let s = system(); // 256-byte pages
        let n = (2 << 20) / 8 + 1000; // more than 2 MiB of values
        let start = s.alloc_global(n as u64 * 8 + 64) + 3;
        let values: Vec<f64> = (0..n).map(|i| (i as f64).sqrt() * -1.5 + 0.3).collect();
        s.write_f64s(start, &values);
        let got = s.read_f64s(start, n);
        // One value in 32 straddles two pages: read each alone.
        let mut word = [0u8; 8];
        for (i, v) in got.iter().enumerate() {
            s.read_global(start + i as u64 * 8, &mut word);
            assert_eq!(v.to_bits(), f64::from_le_bytes(word).to_bits(), "value {i}");
        }
        assert_eq!(got, values);
    }

    #[test]
    fn single_thread_run_reads_its_own_writes() {
        let s = system();
        let addr = s.alloc_global(2048);
        let report = s.run(1, |ctx| {
            for i in 0..256 {
                ctx.write_f64(addr + i * 8, i as f64);
            }
            for i in 0..256 {
                assert_eq!(ctx.read_f64(addr + i * 8), i as f64);
            }
        });
        assert_eq!(report.threads.len(), 1);
        assert!(report.makespan > SimTime::ZERO);
        // The final flush must have landed at the home.
        let back = s.read_f64s(addr, 256);
        assert_eq!(back[255], 255.0);
    }

    #[test]
    fn fabric_stats_classify_traffic() {
        use samhita_scl::MsgClass;
        let s = system();
        let addr = s.alloc_global(2048);
        let lock = s.create_mutex();
        s.run(2, |ctx| {
            ctx.write_u64(addr + ctx.tid() as u64 * 8, 1);
            ctx.lock(lock);
            ctx.unlock(lock);
        });
        let snap = s.fabric_stats();
        assert!(snap.msgs(MsgClass::Data) > 0, "line fetches are data traffic");
        assert!(snap.msgs(MsgClass::Sync) > 0, "lock RPCs are sync traffic");
        assert!(snap.msgs(MsgClass::Update) > 0, "flushes are update traffic");
        assert!(snap.msgs(MsgClass::Control) > 0, "registration/alloc are control traffic");
        assert!(snap.total_bytes() > snap.bytes(MsgClass::Sync));
    }

    #[test]
    fn two_runs_on_one_system() {
        let s = system();
        let addr = s.alloc_global(64);
        s.run(1, |ctx| ctx.write_u64(addr, 41));
        s.run(2, |ctx| {
            if ctx.tid() == 0 {
                let v = ctx.read_u64(addr);
                assert_eq!(v, 41);
            }
        });
    }

    #[test]
    #[should_panic(expected = "exceeds provisioned max_threads")]
    fn run_rejects_too_many_threads() {
        let s = system();
        s.run(1000, |_| {});
    }

    #[test]
    fn utilization_accounting_is_deterministic() {
        // Single-threaded on purpose: P=1 is the configuration whose virtual
        // timeline is bit-reproducible (multi-thread lock arbitration depends
        // on OS-level arrival order), so it is where exact equality holds.
        let run = || {
            let s = system();
            let addr = s.alloc_global(2048);
            let lock = s.create_mutex();
            s.run(1, |ctx| {
                for i in 0..128u64 {
                    ctx.write_u64(addr + i * 8, i);
                }
                ctx.lock(lock);
                ctx.unlock(lock);
            })
        };
        let a = run();
        let b = run();
        assert!(a.mgr_busy_ns > 0, "locks and registration must occupy the manager");
        assert_eq!(a.server_busy_ns.len(), 1);
        assert!(a.server_busy_ns[0] > 0, "fetches and flushes must occupy the server");
        assert!(a.mgr_utilization() > 0.0);
        assert!(a.server_utilization().iter().all(|&u| u > 0.0));
        assert!(a.layout.is_some());
        // Busy accounting is part of the deterministic report, not a
        // wall-clock artifact: two fresh systems agree exactly.
        assert_eq!(a.mgr_busy_ns, b.mgr_busy_ns);
        assert_eq!(a.server_busy_ns, b.server_busy_ns);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn report_hotspots_name_the_written_pages() {
        let s = system(); // 256-byte pages
        let addr = s.alloc_global(1024);
        let report = s.run(1, |ctx| {
            for i in 0..128u64 {
                ctx.write_u64(addr + i * 8, i);
            }
        });
        let hot = report.hotspots();
        assert!(!hot.is_empty());
        let first_page = addr / 256;
        // Every written page shows write-side churn (a twin) and flushed
        // bytes; the first line also shows the demand miss (later lines can
        // be store-allocated without a fetch).
        for p in first_page..first_page + 4 {
            let c = hot.page(p).unwrap_or_else(|| panic!("page {p} missing from hotspot map"));
            assert!(c.twins >= 1);
            assert!(c.diff_bytes + c.fine_bytes > 0);
        }
        assert!(hot.total_of(|c| c.misses) >= 1);
        // And the report can label where each page lives.
        for (page, _) in hot.iter() {
            assert_ne!(report.site_label(page), "?");
        }
    }

    /// With the services inline, a thread that is alone in the machine
    /// keeps the baton through every RPC: each is at least two picks, all
    /// of them made and served on the host's OS thread.
    #[test]
    fn uncontended_sync_rpcs_never_leave_the_thread() {
        let s = system();
        let lock = s.create_mutex();
        let barrier = s.create_barrier(1);
        let addr = s.alloc_global(64);
        let report = s.run(1, |ctx| {
            let (grants, handoffs) = (s.sched.grants(), s.sched.handoffs());
            for i in 0..100 {
                ctx.lock(lock);
                ctx.write_u64(addr, i);
                ctx.unlock(lock);
                ctx.barrier(barrier);
            }
            assert!(s.sched.grants() >= grants + 400, "each RPC is at least two picks");
            assert_eq!(s.sched.handoffs(), handoffs, "hand-offs inside the run");
        });
        assert!(report.sched_grants > 400);
    }

    /// Compute threads are coroutines of the host's OS thread: however
    /// they contend, a region never wakes another OS thread.
    #[test]
    fn a_contended_region_has_no_os_handoffs() {
        let s = system();
        let lock = s.create_mutex();
        let barrier = s.create_barrier(4);
        let addr = s.alloc_global(64);
        s.run(4, |ctx| {
            for _ in 0..10 {
                ctx.lock(lock);
                let v = ctx.read_u64(addr);
                ctx.write_u64(addr, v + 1);
                ctx.unlock(lock);
                ctx.barrier(barrier);
            }
        });
        assert_eq!(s.read_f64s(addr, 1)[0].to_bits(), 40);
        assert_eq!(s.sched.handoffs(), 0);
    }

    /// A body that panics while its siblings wait for it at a barrier fails
    /// the run with its own message; the siblings are abandoned.
    #[test]
    #[should_panic(expected = "thread 1 gave up")]
    fn body_panic_fails_the_run_instead_of_hanging_it() {
        let s = system();
        let barrier = s.create_barrier(3);
        s.run(3, |ctx| {
            if ctx.tid() == 1 {
                panic!("thread 1 gave up");
            }
            ctx.barrier(barrier);
        });
    }

    /// Releasing a lock the thread does not hold fails it, although nothing
    /// awaits the manager's answer to a release.
    #[test]
    #[should_panic(expected = "release failed: release of lock 1 not held by thread 0")]
    fn releasing_a_lock_not_held_fails_the_thread() {
        let s = system();
        let locks = [s.create_mutex(), s.create_mutex()];
        s.run(1, |ctx| {
            ctx.lock(locks[0]);
            ctx.unlock(locks[1]);
        });
    }

    /// An awaited request the manager refuses fails its thread, or the
    /// host, with the request's op and the typed error.
    #[test]
    #[should_panic(expected = "barrier-wait failed: unknown barrier id 7")]
    fn a_refused_sync_request_fails_the_thread_with_its_op() {
        system().run(1, |ctx| ctx.barrier(7));
    }

    #[test]
    #[should_panic(expected = "free failed: free of 0x")]
    fn a_refused_host_request_fails_the_host_with_its_op() {
        let s = system();
        let addr = s.alloc_global(64);
        s.free_global(addr);
        s.free_global(addr);
    }

    /// Two threads taking two locks in opposite orders: a deadlock of the
    /// simulated program is reported, not inherited by the simulator.
    #[test]
    #[should_panic(expected = "deadlock: tasks [0, 1] are blocked")]
    fn lock_order_inversion_is_a_reported_deadlock() {
        let s = system();
        let locks = [s.create_mutex(), s.create_mutex()];
        let both_hold_one = s.create_barrier(2);
        s.run(2, |ctx| {
            let first = ctx.tid() as usize;
            ctx.lock(locks[first]);
            ctx.barrier(both_hold_one);
            ctx.lock(locks[1 - first]);
        });
    }

    /// A panic inside a service step fails the run with the step's own
    /// message instead of leaving the compute threads parked forever.
    #[test]
    fn service_panic_fails_the_run_instead_of_hanging_it() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let s = system();
            let barrier = s.create_barrier(2);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s.run(2, |ctx| {
                    if ctx.tid() == 0 {
                        // A response is not something a manager can serve.
                        let bogus = Msg::MgrResp { token: 0, resp: MgrResponse::Ok };
                        s.fabric
                            .send(s.mem_eps[0], s.mgr_ep, ctx.now(), 8, MsgClass::Control, bogus)
                            .expect("manager endpoint is attached");
                    }
                    ctx.barrier(barrier);
                })
            }));
            let payload = outcome.expect_err("the run must fail");
            let _ = tx.send(payload.downcast_ref::<String>().cloned().unwrap_or_default());
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a panicking manager step must not hang the run");
        assert!(message.contains("manager received unexpected message"), "{message}");
    }

    /// A fault-free memory service on `ep`, serving `cfg`'s pages.
    fn mem_service(ep: Endpoint<Msg>, cfg: &SamhitaConfig) -> MemService {
        MemService {
            ep,
            server: MemoryServer::new(cfg.page_size, cfg.service),
            track: None,
            ctl: EndpointId(u32::MAX),
            dedup: true,
            seen: HashMap::new(),
            order: VecDeque::new(),
            applied: Vec::new(),
            held: Vec::new(),
            died_at: None,
        }
    }

    /// A fetch whose stamp names writer 1's first batch is held until that
    /// batch is applied, and served after it, with its bytes — and after
    /// writer 2's batch, which reached the home while writer 1's was being
    /// applied: a held request joins the queue when it is released.
    #[test]
    fn a_held_fetch_is_served_after_the_batch_it_waited_for() {
        let cfg = SamhitaConfig::small_for_tests();
        let sched = Scheduler::new(0);
        let fabric = Fabric::<Msg>::new(cfg.build_topology());
        let node = samhita_scl::NodeId(0);
        let reader = fabric.add_endpoint(node);
        reader.bind_task(&sched.register_running());
        let writers = [fabric.add_endpoint(node), fabric.add_endpoint(node)];
        let ep = fabric.add_endpoint(node);
        let server_ep = ep.id();
        let _service = install(&sched, mem_service(ep, &cfg));
        let page = PageId(0);
        let send = |from: &Endpoint<Msg>, at: u64, stamp: Stamp, req: MemRequest| {
            let msg = Msg::MemReq { token: 1, shadow: false, stamp, req };
            from.send(server_ep, SimTime::from_ns(at), 16, MsgClass::Data, msg).unwrap();
        };
        let batch = |writer: u32, offset: u32| {
            let mut batch = samhita_regc::UpdateBatch::new();
            batch.push(UpdatePart::Fine { page: 0, offset, bytes: vec![writer as u8; 8] });
            let stamp = Stamp { tid: writer, home: 0, batch: 1, needs: Marks::default() };
            (stamp, MemRequest::UpdateBatch { batch })
        };
        let needs = Marks::from_batches(vec![vec![0, 1]]);
        let fetch = MemRequest::FetchLine { first: page, pages: 1 };
        send(&reader, 0, Stamp { tid: 0, home: 0, batch: 0, needs }, fetch);
        // Writer 2's batch leaves (and, on the same link, arrives) 10 ns
        // after writer 1's: inside the window that applies writer 1's.
        assert!(cfg.service.batch_apply_ns() > SimTime::from_ns(10));
        let (stamp, req) = batch(1, 0);
        send(&writers[0], 1_000, stamp, req);
        let (stamp, req) = batch(2, 8);
        send(&writers[1], 1_010, stamp, req);
        let Msg::MemResp { resp: MemResponse::Line { pages, .. }, .. } = reader.recv().unwrap().msg
        else {
            panic!("a line fetch is answered with a line");
        };
        assert_eq!(&pages[0].bytes()[..8], &[1; 8], "the fetch reads the batch it waited for");
        assert!(pages[0].version() >= 1);
        assert_eq!(&pages[0].bytes()[8..16], &[2; 8], "and after the batch that came between");
    }

    /// A fetch that waits for the second of two batches applied back to
    /// back joins the queue when that second batch completes: a third batch
    /// that reaches the home between the two completions is served first.
    #[test]
    fn a_held_fetch_waits_for_the_completion_of_its_own_batch() {
        let cfg = SamhitaConfig::small_for_tests();
        let sched = Scheduler::new(0);
        let fabric = Fabric::<Msg>::new(cfg.build_topology());
        let node = samhita_scl::NodeId(0);
        let reader = fabric.add_endpoint(node);
        reader.bind_task(&sched.register_running());
        let writers: Vec<_> = (0..3).map(|_| fabric.add_endpoint(node)).collect();
        let ep = fabric.add_endpoint(node);
        let server_ep = ep.id();
        let _service = install(&sched, mem_service(ep, &cfg));
        let send = |from: &Endpoint<Msg>, at: u64, stamp: Stamp, req: MemRequest| {
            let msg = Msg::MemReq { token: 1, shadow: false, stamp, req };
            from.send(server_ep, SimTime::from_ns(at), 16, MsgClass::Data, msg).unwrap();
        };
        let batch = |writer: u32, offset: u32| {
            let mut batch = samhita_regc::UpdateBatch::new();
            batch.push(UpdatePart::Fine { page: 0, offset, bytes: vec![writer as u8; 8] });
            let stamp = Stamp { tid: writer, home: 0, batch: 1, needs: Marks::default() };
            (stamp, MemRequest::UpdateBatch { batch })
        };
        // The fetch names writer 2's batch only.
        let needs = Marks::from_batches(vec![vec![0, 0, 1]]);
        let fetch = MemRequest::FetchLine { first: PageId(0), pages: 1 };
        send(&reader, 0, Stamp { tid: 0, home: 0, batch: 0, needs }, fetch);
        let apply = cfg.service.batch_apply_ns().as_ns();
        assert!(apply > 10);
        // Writer 2's batch arrives while writer 1's is applied and queues
        // behind it; writer 3's arrives after writer 1's completes, while
        // writer 2's is still applied.
        for (writer, at) in [(1, 1_000), (2, 1_010), (3, 1_000 + apply + 5)] {
            let (stamp, req) = batch(writer, 8 * (writer - 1));
            send(&writers[writer as usize - 1], at, stamp, req);
        }
        let Msg::MemResp { resp: MemResponse::Line { pages, .. }, .. } = reader.recv().unwrap().msg
        else {
            panic!("a line fetch is answered with a line");
        };
        assert_eq!(&pages[0].bytes()[8..16], &[2; 8], "the fetch reads the batch it waited for");
        assert_eq!(&pages[0].bytes()[16..24], &[3; 8], "and the batch that reached the home first");
    }

    /// A request that arrives at the very instant a batch completes is
    /// handled first, and the fetch that batch held is still released.
    #[test]
    fn a_message_due_as_a_batch_completes_leaves_its_held_fetch_released() {
        let cfg = SamhitaConfig::small_for_tests();
        let sched = Scheduler::new(0);
        let fabric = Fabric::<Msg>::new(cfg.build_topology());
        let node = samhita_scl::NodeId(0);
        let reader = fabric.add_endpoint(node);
        reader.bind_task(&sched.register_running());
        let (writer, other) = (fabric.add_endpoint(node), fabric.add_endpoint(node));
        let ep = fabric.add_endpoint(node);
        let server_ep = ep.id();
        let _service = install(&sched, mem_service(ep, &cfg));
        let send = |from: &Endpoint<Msg>, at: u64, stamp: Stamp, req: MemRequest| {
            let msg = Msg::MemReq { token: 1, shadow: false, stamp, req };
            from.send(server_ep, SimTime::from_ns(at), 16, MsgClass::Data, msg).unwrap();
        };
        let needs = Marks::from_batches(vec![vec![0, 1]]);
        let fetch = MemRequest::FetchLine { first: PageId(0), pages: 1 };
        send(&reader, 0, Stamp { tid: 0, home: 0, batch: 0, needs }, fetch);
        let mut batch = samhita_regc::UpdateBatch::new();
        batch.push(UpdatePart::Fine { page: 0, offset: 0, bytes: vec![1; 8] });
        let stamp = Stamp { tid: 1, home: 0, batch: 1, needs: Marks::default() };
        send(&writer, 1_000, stamp, MemRequest::UpdateBatch { batch });
        // On the same link, due exactly as the batch's window closes.
        let due = 1_000 + cfg.service.batch_apply_ns().as_ns();
        let fine = MemRequest::ApplyFine { page: PageId(1), offset: 0, bytes: vec![3; 8] };
        send(&other, due, Stamp::default(), fine);
        let Msg::MemResp { resp: MemResponse::Line { pages, .. }, .. } = reader.recv().unwrap().msg
        else {
            panic!("a line fetch is answered with a line");
        };
        assert_eq!(&pages[0].bytes()[..8], &[1; 8]);
    }

    /// A replayed fetch is answered from the dedup cache with the frames it
    /// was first served: the cache holds references, and the home copies a
    /// page before updating it while a reference is out.
    #[test]
    fn a_replayed_line_fetch_carries_the_version_first_served() {
        let cfg = SamhitaConfig::small_for_tests();
        let sched = Scheduler::new(0);
        let fabric = Fabric::<Msg>::new(cfg.build_topology());
        let node = samhita_scl::NodeId(0);
        let client = fabric.add_endpoint(node);
        client.bind_task(&sched.register_running());
        let ep = fabric.add_endpoint(node);
        let server_ep = ep.id();
        let _service = install(&sched, mem_service(ep, &cfg));
        let send = |token: u64, at: u64, req: MemRequest| {
            let msg = Msg::MemReq { token, shadow: false, stamp: Stamp::default(), req };
            client.send(server_ep, SimTime::from_ns(at), 16, MsgClass::Data, msg).unwrap();
        };
        // The next message is the reply: nothing answers an update.
        let rpc = |token: u64, at: u64, req: MemRequest| {
            send(token, at, req);
            match client.recv().unwrap().msg {
                Msg::MemResp { token: t, resp } if t == token => resp,
                other => panic!("unexpected reply: {other:?}"),
            }
        };
        let page = PageId(0);
        let fetch = MemRequest::FetchLine { first: page, pages: cfg.line_pages };
        let update = |fill: u8| MemRequest::ApplyFine { page, offset: 0, bytes: vec![fill; 8] };
        send(1, 0, update(1));
        let MemResponse::Line { pages: first, .. } = rpc(2, 10, fetch.clone()) else {
            panic!("a line fetch is answered with a line");
        };
        send(3, 20, update(2));
        let MemResponse::Line { pages: replayed, .. } = rpc(2, 30, fetch.clone()) else {
            panic!("a replay is answered like its original");
        };
        assert!(replayed[0].shares_bytes_with(&first[0]));
        assert_eq!((replayed[0].version(), replayed[0].bytes()[0]), (1, 1));
        let MemResponse::Line { pages: fresh, .. } = rpc(4, 40, fetch) else {
            panic!("a line fetch is answered with a line");
        };
        assert_eq!((fresh[0].version(), fresh[0].bytes()[0]), (2, 2));
    }

    /// The standby's lease deadline is exact in virtual time: with no
    /// message due, the reclaim sweep fires at the lease instant itself,
    /// and a message due earlier is served first.
    #[test]
    fn standby_reclaims_at_exactly_the_lease_instant() {
        const LEASE: u64 = 50_000;
        let cfg = SamhitaConfig { mgr_lease_ns: LEASE, ..SamhitaConfig::small_for_tests() };
        let sched = Scheduler::new(0);
        let host = sched.register_running();
        let fabric = Fabric::<Msg>::new(cfg.build_topology());
        let node = samhita_scl::NodeId(0);
        let client = fabric.add_endpoint(node);
        client.bind_task(&host);
        let tracer = Tracer::new(64);
        let core = MgrReplica {
            ep: fabric.add_endpoint(node),
            engine: ManagerEngine::new(&cfg),
            track: Some(tracer.shared_track(TrackId::MgrStandby)),
            ctl: EndpointId(u32::MAX),
            dedup: true,
            died_at: None,
            hwm: HashMap::new(),
            done: HashMap::new(),
            awaiting: HashMap::new(),
        };
        let standby_ep = core.ep.id();
        let standby =
            StandbyService { core, active: false, reclaims: 0, serves: 0, takeover_ns: 0 };
        let standby = install(&sched, standby);
        let mut token = 0;
        let mut rpc = |tid: u32, at: u64, req: MgrRequest| {
            token += 1;
            let msg = Msg::MgrReq { token, tid, req };
            client.send(standby_ep, SimTime::from_ns(at), 8, MsgClass::Sync, msg).unwrap();
        };
        rpc(0, 0, MgrRequest::Register { observer: false });
        rpc(0, 10, MgrRequest::CreateLock);
        rpc(
            0,
            20,
            MgrRequest::Acquire {
                lock: 0,
                interval: samhita_regc::Interval::default(),
                last_seen: 0,
            },
        );
        for _ in 0..3 {
            assert!(!client.recv().unwrap().lost);
        }
        let expiry = standby.lock().core.engine.next_lease_expiry().expect("lock 0 is leased");
        // Due before the expiry: served first, and the deadline stands.
        rpc(0, expiry.as_ns() / 2, MgrRequest::CreateLock);
        client.recv().unwrap();
        assert_eq!(standby.lock().counters().0, 0, "no reclaim before the lease runs out");
        // Nothing else in flight: the next thing to happen is the sweep.
        host.yield_until(u64::MAX);
        assert_eq!(standby.lock().counters(), (1, 0, 4));
        let trace = tracer.take();
        let reclaims: Vec<_> = trace
            .track(TrackId::MgrStandby)
            .unwrap()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LeaseReclaim { lock: 0, holder: 0 }))
            .map(|e| e.at)
            .collect();
        assert_eq!(reclaims, vec![expiry]);
        assert_eq!(sched.handoffs(), 0);
    }

    /// An untraced standby drains the engine's reclaims as a traced one
    /// does: nothing is kept, and the run reports each reclaim once.
    #[test]
    fn an_untraced_standby_drains_its_reclaims() {
        use crate::config::{FaultConfig, TopologyKind};
        let cfg = SamhitaConfig {
            manager_standby: true,
            mem_servers: 2,
            replica_offset: 1,
            topology: TopologyKind::Cluster { nodes: 6 },
            mgr_lease_ns: 20_000,
            faults: FaultConfig { mgr_crash: Some(30_000), ..FaultConfig::default() },
            ..SamhitaConfig::default()
        };
        assert!(!cfg.tracing);
        let s = Samhita::new(cfg);
        let (lock_a, lock_b) = (s.create_mutex(), s.create_mutex());
        let report = s.run(2, move |ctx| {
            if ctx.tid() == 0 {
                // Holds its lock far past the lease, across the crash.
                ctx.lock(lock_a);
                ctx.compute(40_000_000);
                ctx.unlock(lock_a);
            } else {
                // Fails over, and so wakes the standby's lease sweep.
                for _ in 0..40 {
                    ctx.lock(lock_b);
                    ctx.unlock(lock_b);
                }
            }
        });
        assert_eq!((report.lease_reclaims, report.stale_releases), (1, 1));
        let standby = s.standby.as_ref().expect("a standby was configured");
        assert!(standby.lock().core.engine.take_reclaims().is_empty(), "a reclaim was kept");
    }
}
