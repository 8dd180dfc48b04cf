//! Link cost models.
//!
//! Every hop in the simulated fabric is described by a [`LinkModel`] — the
//! classic linear `α + β·n` communication model extended with a per-message
//! software/NIC overhead term (the `o` of LogP). The SCL charges a message of
//! `n` wire bytes:
//!
//! ```text
//! t = latency + per_msg_overhead + n * 8 / gbits_per_sec
//! ```
//!
//! Multi-hop routes add latencies and overheads and take the minimum
//! bandwidth along the route (store-and-forward pipelining is ignored; for
//! the small number of hops in our topologies this is a second-order effect).

use crate::time::SimTime;

/// Linear cost model for one link (or one precomputed multi-hop route).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct LinkModel {
    /// One-way propagation + port latency, in nanoseconds.
    pub latency_ns: u64,
    /// Sustained bandwidth in gigabits per second.
    pub gbits_per_sec: f64,
    /// Per-message software / NIC processing overhead, in nanoseconds.
    pub per_msg_overhead_ns: u64,
}

impl LinkModel {
    /// A link with effectively infinite speed; used for co-located endpoints
    /// in degenerate test topologies.
    pub const INSTANT: LinkModel =
        LinkModel { latency_ns: 0, gbits_per_sec: f64::INFINITY, per_msg_overhead_ns: 0 };

    /// Virtual time to move `bytes` across this link as a single message.
    #[inline]
    pub fn transfer_ns(&self, bytes: usize) -> SimTime {
        let serialization = if self.gbits_per_sec.is_finite() && self.gbits_per_sec > 0.0 {
            (bytes as f64 * 8.0 / self.gbits_per_sec).round() as u64
        } else {
            0
        };
        SimTime::from_ns(self.latency_ns + self.per_msg_overhead_ns + serialization)
    }

    /// Combine two links traversed in sequence into one effective route
    /// model: latencies and overheads add, bandwidth is the bottleneck.
    pub fn chain(&self, next: &LinkModel) -> LinkModel {
        LinkModel {
            latency_ns: self.latency_ns + next.latency_ns,
            gbits_per_sec: self.gbits_per_sec.min(next.gbits_per_sec),
            per_msg_overhead_ns: self.per_msg_overhead_ns + next.per_msg_overhead_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_linear_in_bytes() {
        let m = LinkModel {
            latency_ns: 1000,
            gbits_per_sec: 8.0, // 1 byte per ns
            per_msg_overhead_ns: 100,
        };
        assert_eq!(m.transfer_ns(0).as_ns(), 1100);
        assert_eq!(m.transfer_ns(4096).as_ns(), 1100 + 4096);
        // doubling the payload doubles only the serialization term
        let d1 = m.transfer_ns(1000).as_ns() - m.transfer_ns(0).as_ns();
        let d2 = m.transfer_ns(2000).as_ns() - m.transfer_ns(0).as_ns();
        assert_eq!(d2, 2 * d1);
    }

    #[test]
    fn instant_link_is_free() {
        assert_eq!(LinkModel::INSTANT.transfer_ns(1 << 20), SimTime::ZERO);
    }

    #[test]
    fn chain_adds_latency_and_takes_min_bandwidth() {
        let fast = LinkModel { latency_ns: 100, gbits_per_sec: 64.0, per_msg_overhead_ns: 10 };
        let slow = LinkModel { latency_ns: 900, gbits_per_sec: 32.0, per_msg_overhead_ns: 300 };
        let route = fast.chain(&slow);
        assert_eq!(route.latency_ns, 1000);
        assert_eq!(route.per_msg_overhead_ns, 310);
        assert_eq!(route.gbits_per_sec, 32.0);
    }

    #[test]
    fn bigger_messages_take_longer() {
        let m = crate::profiles::ib_qdr();
        assert!(m.transfer_ns(65536) > m.transfer_ns(4096));
    }
}
