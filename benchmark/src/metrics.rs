//! Every metric the harness emits, by name. `BENCHMARK.json` carries the
//! same names, units and directions (a test holds the two together); the
//! prediction of which end-to-end metric a layer metric should move, which
//! that file has no key for, lives here and in the README.

/// An end-to-end metric: the median over the timed reps of a run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the baseline value by which the metric may get worse.
    pub bound: f64,
    /// Absolute difference below which two values always agree.
    pub floor: f64,
    /// Read from the host clock (noisy) rather than the virtual one (exact).
    pub host_clock: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    floor: f64,
    host_clock: bool,
) -> EndToEnd {
    EndToEnd { name, unit, bound, floor, host_clock }
}

/// All four are "lower is better". `wall_s` and `setup_s` are calibrated
/// seconds (`calib`); their bound is the widest `BENCHMARK.json` may carry,
/// because the driver refuses a benchmark whose ten-run spread on its own box
/// exceeds the bound, and that box spread the uncalibrated `wall_s` by up to
/// 27% (README, "Why these bounds"). The virtual clock is exact for one seed
/// and `check` holds it to that; its bound here is what `BENCHMARK.json`
/// needs across seeds, where scheduler tie-breaks move `jacobi_p64`'s
/// makespan by 0.2% (0.7% at worst over sets of ten seeds).
pub const END_TO_END: [EndToEnd; 4] = [
    e2e("wall_s", "s", 0.25, 0.0, true),
    e2e("setup_s", "s", 0.25, 0.010, true),
    e2e("peak_rss_mib", "MiB", 0.15, 0.0, true),
    e2e("virt_makespan_us", "us", 0.02, 0.0, false),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a layer metric's value comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// A count or virtual-clock total from `RunReport`: bit-exact per seed,
    /// so two commits — or two runs of one — compare exactly on it.
    Exact,
    /// Host-clock or OS-counter reading from the workload's reps.
    Host,
    /// Group B: the layer driven alone through its public calls.
    Alone,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// The end-to-end metric this should move, and on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
) -> Layer {
    Layer { name, unit, better, source, moves }
}

use Better::{Higher, Lower};
use Source::{Alone, Exact, Host};

const SCHED: &str = "wall_s on micro_p256 (dominant), jacobi_p64; none on md_p8";
const SCL: &str = "wall_s on micro_p256, jacobi_p8_evict";
const REGC: &str = "wall_s, peak_rss_mib on the four jacobi workloads; ~0 on micro_p256, md_p8";
const MEM: &str = "wall_s on jacobi workloads; virt_makespan_us on jacobi_p8_evict";
const VIRT: &str =
    "virt_makespan_us: barrier+fetch on jacobi_p64, lock on micro_p256, compute on md_p8";
const TRACE: &str = "wall_s, peak_rss_mib on jacobi_p64_traced only";
const HOST: &str = "wall_s, setup_s on every workload";

/// The 78 per-layer metrics, grouped by layer. The first 58 are per
/// workload; the last 20 (source `Alone`) are the same on every workload.
pub const PER_LAYER: [Layer; 78] = [
    layer("sched.grants", "count", Lower, Exact, SCHED),
    layer("sched.step_ns", "ns", Lower, Host, SCHED),
    layer("sched.ctx_switches", "count", Lower, Host, SCHED),
    layer("scl.msgs", "count", Lower, Exact, SCL),
    layer("scl.bytes", "B", Lower, Exact, SCL),
    layer("scl.send_ns", "ns", Lower, Host, SCL),
    layer("scl.recv_ns", "ns", Lower, Host, SCL),
    layer("scl.faults", "count", Lower, Exact, "wall_s, virt_makespan_us on jacobi_p64_chaos only"),
    layer("regc.twins", "count", Lower, Exact, REGC),
    layer("regc.diff_bytes", "B", Lower, Exact, REGC),
    layer("regc.fine_bytes", "B", Lower, Exact, REGC),
    layer("regc.diff_ns", "ns", Lower, Host, REGC),
    layer("mem.batch_apply_ns", "ns", Lower, Host, MEM),
    layer("mem.busy_virt_ns", "ns", Lower, Exact, MEM),
    layer("mem.queue_wait_virt_ns", "ns", Lower, Exact, MEM),
    layer("core.line_misses", "count", Lower, Exact, "virt_makespan_us on jacobi_p8_evict only"),
    layer("core.page_refetches", "count", Lower, Exact, "virt_makespan_us on jacobi_p64"),
    layer("core.evictions", "count", Lower, Exact, "virt_makespan_us on jacobi_p8_evict only"),
    layer("core.invalidations", "count", Lower, Exact, "virt_makespan_us on jacobi_p64"),
    layer("core.sync_ops", "count", Lower, Exact, "virt_makespan_us on micro_p256"),
    layer("core.msgs_per_sync_op", "1/op", Lower, Exact, "virt_makespan_us, wall_s on jacobi_p64"),
    layer("core.mgr_requests", "count", Lower, Exact, "virt_makespan_us on micro_p256"),
    layer("core.mgr_busy_virt_ns", "ns", Lower, Exact, "virt_makespan_us on micro_p256"),
    layer("core.mgr_queue_wait_virt_ns", "ns", Lower, Exact, "virt_makespan_us on micro_p256"),
    layer("core.retries", "count", Lower, Exact, "virt_makespan_us on jacobi_p64_chaos only"),
    layer("core.failovers", "count", Lower, Exact, "virt_makespan_us on jacobi_p64_chaos only"),
    layer("core.log_records", "count", Lower, Exact, "wall_s on jacobi_p64_chaos only"),
    layer("virt.compute_frac", "1", Higher, Exact, VIRT),
    layer("virt.fetch_frac", "1", Lower, Exact, VIRT),
    layer("virt.lock_frac", "1", Lower, Exact, VIRT),
    layer("virt.barrier_frac", "1", Lower, Exact, VIRT),
    layer("virt.mgr_frac", "1", Lower, Exact, VIRT),
    layer("virt.flush_frac", "1", Lower, Exact, VIRT),
    layer("virt.idle_frac", "1", Lower, Exact, VIRT),
    layer("critpath.compute_us", "us", Lower, Exact, VIRT),
    layer("critpath.fetch_us", "us", Lower, Exact, VIRT),
    layer("critpath.lock_us", "us", Lower, Exact, VIRT),
    layer("critpath.barrier_us", "us", Lower, Exact, VIRT),
    layer("critpath.mgr_wait_us", "us", Lower, Exact, VIRT),
    layer("critpath.mgr_service_us", "us", Lower, Exact, VIRT),
    layer("critpath.server_service_us", "us", Lower, Exact, VIRT),
    layer("critpath.queue_us", "us", Lower, Exact, VIRT),
    layer("trace.events", "count", Lower, Exact, TRACE),
    layer("trace.emit_ns", "ns", Lower, Host, TRACE),
    layer("trace.span_graph_ns", "ns", Lower, Host, TRACE),
    layer("trace.take_s", "s", Lower, Host, TRACE),
    layer("trace.check_s", "s", Lower, Host, TRACE),
    layer("trace.export_s", "s", Lower, Host, TRACE),
    layer("bench.report_build_s", "s", Lower, Host, TRACE),
    layer("bench.report_json_s", "s", Lower, Host, TRACE),
    layer("host.region_s", "s", Lower, Host, HOST),
    layer("host.outside_region_s", "s", Lower, Host, "setup_s on every workload"),
    layer(
        "host.attributed_frac",
        "1",
        Higher,
        Host,
        "none: how much of wall_s the phase rows explain",
    ),
    layer("host.ns_per_event", "ns", Lower, Host, HOST),
    layer("host.cpu_user_s", "s", Lower, Host, HOST),
    layer("host.cpu_sys_s", "s", Lower, Host, "wall_s on micro_p256 (park/wake)"),
    layer("host.prof_overhead_frac", "1", Lower, Host, "none: what measuring the phases costs"),
    layer(
        "host.trace_overhead_frac",
        "1",
        Lower,
        Host,
        "wall_s(jacobi_p64_traced) - wall_s(jacobi_p64)",
    ),
    layer("sched.handoff_ns", "ns", Lower, Alone, "wall_s on micro_p256"),
    layer("sched.pick_ns_64", "ns", Lower, Alone, "wall_s on jacobi_p64"),
    layer("sched.pick_ns_256", "ns", Lower, Alone, "wall_s on micro_p256"),
    layer("scl.send_recv_ns", "ns", Lower, Alone, SCL),
    layer("regc.diff_sparse_ns_page", "ns", Lower, Alone, "wall_s on jacobi workloads"),
    layer("regc.diff_dense_ns_page", "ns", Lower, Alone, "wall_s on jacobi workloads"),
    layer("mem.apply_ns_part", "ns", Lower, Alone, "wall_s on jacobi_p64"),
    layer("mem.fetch_ns_line", "ns", Lower, Alone, "wall_s on jacobi_p8_evict"),
    layer("core.hit_scalar_ns", "ns", Lower, Alone, "wall_s on md_p8"),
    layer("core.hit_block_ns_elem", "ns", Lower, Alone, "wall_s on md_p8, micro_p256"),
    layer("core.miss_ns_line", "ns", Lower, Alone, "wall_s on jacobi_p8_evict"),
    layer("core.lock_rtt_ns", "ns", Lower, Alone, "wall_s on micro_p256"),
    layer("core.barrier_rtt_ns", "ns", Lower, Alone, "wall_s on micro_p256"),
    layer("trace.push_ns", "ns", Lower, Alone, "wall_s on jacobi_p64_traced"),
    layer("trace.critpath_ns_event", "ns", Lower, Alone, "wall_s on jacobi_p64_traced"),
    layer("trace.check_ns_event", "ns", Lower, Alone, "wall_s on jacobi_p64_traced"),
    layer("trace.export_ns_event", "ns", Lower, Alone, "wall_s on jacobi_p64_traced"),
    layer("prof.guard_on_ns", "ns", Lower, Alone, "none: cost of a profiled run only"),
    layer("prof.guard_off_ns", "ns", Lower, Alone, "wall_s on every untraced workload"),
    layer("rt.native_jacobi_s", "s", Lower, Alone, "the floor under wall_s on jacobi workloads"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use samhita_trace::JsonValue;
    use std::collections::BTreeSet;

    fn names(list: &JsonValue) -> Vec<String> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|e| e.get("name").and_then(JsonValue::as_str).expect("name").to_string())
            .collect()
    }

    /// `../BENCHMARK.json` names exactly the workloads (but the one it is
    /// meant to leave out) and metrics this harness emits, with the same
    /// units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = JsonValue::parse(&text).expect("valid JSON");

        let listed: Vec<&str> =
            workloads::NAMES.into_iter().filter(|n| *n != workloads::SEED_SENSITIVE).collect();
        assert_eq!(names(doc.get("workloads").unwrap()), listed);

        let e2e = doc.get("end_to_end").unwrap().as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(got.get("name").unwrap().as_str(), Some(want.name));
            assert_eq!(got.get("unit").unwrap().as_str(), Some(want.unit));
            assert_eq!(got.get("better").unwrap().as_str(), Some("lower"));
            assert_eq!(got.get("bound").unwrap().as_f64(), Some(want.bound), "{}", want.name);
        }

        let layers = doc.get("per_layer").unwrap().as_array().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(got.get("name").unwrap().as_str(), Some(want.name));
            assert_eq!(got.get("unit").unwrap().as_str(), Some(want.unit), "{}", want.name);
            assert_eq!(
                got.get("better").unwrap().as_str(),
                Some(want.better.label()),
                "{}",
                want.name
            );
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(workloads::NAMES)
            .collect();
        let unique: BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        for name in all {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
