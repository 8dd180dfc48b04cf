//! Virtual queueing resources.
//!
//! A [`VirtualResource`] models a shared service point with a single server
//! queue in *virtual* time: requests reserve `(start, done)` windows where
//! `start = max(arrival, clock)` and the clock advances to `done`. A memory
//! server uses one of these for its DRAM/CPU service path, which is what
//! makes hot-spotting observable — many compute threads missing into the
//! same server queue up behind each other, and striping allocations across
//! servers (the paper's third allocation strategy) relieves exactly this.
//!
//! A service reserves in the order its endpoint hands requests out:
//! `(effective time, posting order)`, which is virtual arrival order except
//! where per-sender FIFO holds a message behind its sender's previous one
//! (see [`crate::endpoint`]). `start = max(arrival, clock)` keeps the
//! reservation conservative either way: no two service windows overlap.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Completed-but-unexpired reservations kept for depth estimation. Done
/// times are monotone, so the deque stays sorted; the bound only matters
/// for pathological arrival reordering and caps memory, not correctness of
/// the (already approximate) depth estimate.
const OUTSTANDING_CAP: usize = 4096;

/// A single-server virtual-time queue, owned by the one service that
/// serves it.
#[derive(Debug, Default)]
pub struct VirtualResource {
    stats: ResourceStats,
    /// Done times of reservations not yet completed at the latest arrival,
    /// ascending (done times are monotone by construction).
    outstanding: VecDeque<SimTime>,
}

/// Usage summary for a resource.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ResourceStats {
    /// Virtual time of the last service completion.
    pub clock_ns: u64,
    /// Total virtual busy time.
    pub busy_ns: u64,
    /// Number of reservations served.
    pub requests: u64,
    /// Total virtual time requests spent queued before service
    /// (`Σ start − arrival`).
    pub queue_wait_ns: u64,
    /// Maximum observed system occupancy at any arrival (1 = uncontended).
    pub peak_depth: u64,
    /// Sum of occupancies sampled at each arrival; `depth_sum / requests`
    /// is the arrival-averaged queue depth.
    pub depth_sum: u64,
}

impl VirtualResource {
    /// Create an idle resource at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve a service window of length `service` for a request arriving
    /// at `arrival`. Returns `(start, done)`.
    ///
    /// Besides the reservation itself this records queue-wait
    /// (`start − arrival`) and samples the system occupancy seen by the
    /// arrival. Depth is estimated against reservations whose `done` still
    /// lies in the future at `arrival`; because arrivals can reach the
    /// resource slightly out of virtual order (see the module note), the
    /// depth is an estimate while queue-wait is exact.
    pub fn reserve(&mut self, arrival: SimTime, service: SimTime) -> (SimTime, SimTime) {
        let s = &mut self.stats;
        let start = arrival.max(SimTime::from_ns(s.clock_ns));
        let done = start + service;
        s.clock_ns = done.as_ns();
        s.busy_ns += service.as_ns();
        s.requests += 1;
        s.queue_wait_ns += (start - arrival).as_ns();
        while self.outstanding.front().is_some_and(|d| *d <= arrival) {
            self.outstanding.pop_front();
        }
        let depth = self.outstanding.len() as u64 + 1;
        s.peak_depth = s.peak_depth.max(depth);
        s.depth_sum += depth;
        self.outstanding.push_back(done);
        if self.outstanding.len() > OUTSTANDING_CAP {
            self.outstanding.pop_front();
        }
        (start, done)
    }

    /// Current usage counters.
    pub fn stats(&self) -> ResourceStats {
        self.stats
    }

    /// Reset the queue accounting (wait totals, depth peak/sum) without
    /// touching the service clock, so the queue counters — the peak above
    /// all, which no delta can recover — are per-run values even when one
    /// resource outlives several runs.
    pub fn reset_queue_accounting(&mut self) {
        let s = &mut self.stats;
        (s.queue_wait_ns, s.peak_depth, s.depth_sum) = (0, 0, 0);
    }
}

/// Service-time model for a memory server's local memory/CPU path, which
/// queues on a [`VirtualResource`] — the one rule both the server and the
/// trace's serve pricing (`samhita_trace::ServiceCosts`) apply.
///
/// Fetches walk the server's page table and stream data out (CPU on the
/// path): a fetch costs [`ServiceModel::service_ns`] of the bytes of the
/// pages its home has written, so a line nobody has written costs the base
/// alone. Updates arrive through SCL's DMA model — the paper's RDMA design
/// keeps the server CPU off the apply path, so their fixed cost is lower.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ServiceModel {
    /// Fixed cost per fetch request (request parsing, page-table walk), ns:
    /// paid whether or not the request's pages were ever written.
    pub base_ns: u64,
    /// Fixed cost per update (diff / fine-grain apply): NIC DMA scatter
    /// setup, ns.
    pub apply_base_ns: u64,
    /// Cost per KiB moved through the server's memory system, ns.
    /// 100 ns/KiB ≈ 10 GB/s, a 2013-era single-socket stream figure.
    pub per_kib_ns: u64,
}

impl Default for ServiceModel {
    fn default() -> Self {
        ServiceModel { base_ns: 400, apply_base_ns: 150, per_kib_ns: 100 }
    }
}

impl ServiceModel {
    /// Virtual service time for a fetch moving `bytes` of page data.
    pub fn service_ns(&self, bytes: usize) -> SimTime {
        SimTime::from_ns(self.base_ns + (bytes as u64 * self.per_kib_ns) / 1024)
    }

    /// Virtual service time for an update (RDMA apply path).
    pub fn apply_ns(&self, bytes: usize) -> SimTime {
        SimTime::from_ns(self.apply_base_ns + (bytes as u64 * self.per_kib_ns) / 1024)
    }

    /// Virtual service time for applying a whole update batch, independent
    /// of payload size.
    ///
    /// The batched path is the paper's one-sided RDMA design: the scatter
    /// list is posted from the message header while the payload is still
    /// streaming off the wire, and the NIC DMAs each part into place as its
    /// bytes arrive — DRAM (~10 GB/s) outruns the fabric (~4 GB/s), so by
    /// last-byte arrival the parts are already in memory. Every payload
    /// byte was paid for by the message's serialization time and the setup
    /// overlapped the stream; what remains on the critical path is
    /// completion signalling, a quarter of the standalone apply base.
    /// Standalone applies keep their full setup plus per-byte CPU copy.
    pub fn batch_apply_ns(&self) -> SimTime {
        SimTime::from_ns(self.apply_base_ns / 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_requests_queue() {
        let mut r = VirtualResource::new();
        let (s1, d1) = r.reserve(SimTime::from_ns(0), SimTime::from_ns(100));
        assert_eq!((s1.as_ns(), d1.as_ns()), (0, 100));
        // Arrives while the first is in service: waits.
        let (s2, d2) = r.reserve(SimTime::from_ns(50), SimTime::from_ns(100));
        assert_eq!((s2.as_ns(), d2.as_ns()), (100, 200));
        // Arrives after the queue drains: served immediately.
        let (s3, d3) = r.reserve(SimTime::from_ns(500), SimTime::from_ns(10));
        assert_eq!((s3.as_ns(), d3.as_ns()), (500, 510));
    }

    #[test]
    fn stats_track_busy_time() {
        let mut r = VirtualResource::new();
        r.reserve(SimTime::ZERO, SimTime::from_ns(30));
        r.reserve(SimTime::ZERO, SimTime::from_ns(70));
        let s = r.stats();
        assert_eq!(s.busy_ns, 100);
        assert_eq!(s.requests, 2);
        assert_eq!(s.clock_ns, 100);
    }

    #[test]
    fn queue_wait_and_depth_are_recorded() {
        let mut r = VirtualResource::new();
        r.reserve(SimTime::from_ns(0), SimTime::from_ns(100)); // depth 1, wait 0
        r.reserve(SimTime::from_ns(10), SimTime::from_ns(100)); // depth 2, wait 90
        r.reserve(SimTime::from_ns(20), SimTime::from_ns(100)); // depth 3, wait 180
        r.reserve(SimTime::from_ns(500), SimTime::from_ns(10)); // drained: depth 1, wait 0
        let s = r.stats();
        assert_eq!(s.queue_wait_ns, 90 + 180);
        assert_eq!(s.peak_depth, 3);
        assert_eq!(s.depth_sum, 1 + 2 + 3 + 1);
    }

    #[test]
    fn reset_queue_accounting_keeps_service_clock() {
        let mut r = VirtualResource::new();
        r.reserve(SimTime::from_ns(0), SimTime::from_ns(100));
        r.reserve(SimTime::from_ns(0), SimTime::from_ns(100));
        r.reset_queue_accounting();
        let s = r.stats();
        assert_eq!(s.clock_ns, 200, "service clock must survive the reset");
        assert_eq!((s.queue_wait_ns, s.peak_depth, s.depth_sum), (0, 0, 0));
        // Post-reset arrivals queue against the surviving clock.
        let (start, _) = r.reserve(SimTime::from_ns(50), SimTime::from_ns(10));
        assert_eq!(start.as_ns(), 200);
        assert_eq!(r.stats().queue_wait_ns, 150);
    }

    /// Eight requesters' arrivals, interleaved and out of virtual order,
    /// get service windows that never overlap.
    #[test]
    fn windows_never_overlap_under_concurrency() {
        let mut r = VirtualResource::new();
        let mut all = Vec::new();
        for k in 0..100u64 {
            for i in (0..8u64).rev() {
                all.push(r.reserve(SimTime::from_ns(i * 13 + k * 7), SimTime::from_ns(5)));
            }
        }
        all.sort();
        for pair in all.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "service windows overlap: {pair:?}");
        }
        assert_eq!(r.stats().busy_ns, 8 * 100 * 5);
    }
}
