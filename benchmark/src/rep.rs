//! One repetition of one workload: what the child process does between
//! `main` entry and its one line of JSON, and how the parent reads that
//! line back.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use samhita_bench::{thread_windows, BenchReport};
use samhita_core::RunReport;
use samhita_prof::Phase;
use samhita_rt::SamhitaRt;
use samhita_trace::{critical_path, JsonValue, PathClass};

use crate::json;
use crate::spans::{Recorder, Span};
use crate::sys;
use crate::workloads::{output_bits, workload};

/// What a rep measures besides the workload itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The workload as defined; the only mode end-to-end numbers come from.
    Plain,
    /// `samhita_prof` enabled: the host-clock phase totals.
    Prof,
    /// Event tracing forced on: the critical path and the trace-side costs.
    Trace,
}

impl Mode {
    pub fn label(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Prof => "prof",
            Mode::Trace => "trace",
        }
    }

    pub fn from_label(s: &str) -> Option<Mode> {
        [Mode::Plain, Mode::Prof, Mode::Trace].into_iter().find(|m| m.label() == s)
    }
}

/// The result of one rep, as the child reports it.
#[derive(Clone, Debug)]
pub struct Rep {
    /// `main` entry to results read back and checked (for a traced rep, to
    /// the end of the export).
    pub wall_ns: u64,
    /// `RunReport.host_wall_ns`: the simulated region alone.
    pub region_ns: u64,
    pub peak_rss_bytes: u64,
    pub makespan_ns: u64,
    /// The program's output in one word; see `workloads::Reference`.
    pub output_bits: u64,
    /// Why the workload's guard tripped, if it did.
    pub guard_failure: Option<String>,
    /// Per-layer metrics this rep could measure, by their final names.
    pub layers: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
    /// Not the child's to know: the parent's calibration passes just before
    /// and just after this rep, averaged, in host nanoseconds.
    pub pass_ns: f64,
}

/// Run one rep in this process. `origin` is the instant `main` was entered.
pub fn run(name: &str, seed: u64, mode: Mode, origin: Instant) -> Result<Rep, String> {
    let mut rec = Recorder::new(origin);
    let rep = rec.open_at_origin("rep");
    let w = workload(name, seed).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let mut cfg = w.cfg;
    cfg.tracing |= mode == Mode::Trace;
    if mode == Mode::Prof {
        samhita_prof::reset();
        samhita_prof::enable(true);
    }

    let rt = rec.span("rt.new", rep, || SamhitaRt::new(cfg.clone()));
    let (report, output) = rec.span("kernel.call", rep, || w.kernel.run(&rt));

    // What a user who asked for a trace does with it, in the order the
    // `trace-dump` and `bench-report` binaries do it.
    let mut trace_outcome = None;
    if cfg.tracing {
        let trace = rec.span("trace.take", rep, || rt.take_trace()).expect("tracing is on");
        let check = rec.span("trace.check", rep, || trace.check_invariants());
        let bench = rec.span("bench.report_build", rep, || {
            BenchReport::from_run(
                w.kernel.label(),
                &format!("{:?}", w.kernel),
                &cfg,
                w.kernel.threads(),
                &report,
                Some(&trace),
            )
        });
        black_box(rec.span("bench.report_json", rep, || bench.to_json()).len());
        black_box(rec.span("trace.export", rep, || trace.to_chrome_json()).len());
        trace_outcome = Some((trace, check));
    }
    rec.span("rt.drop", rep, || drop(rt));
    let bits = rec.span("results.checksum", rep, || output_bits(&output));
    rec.close(rep);
    samhita_prof::enable(false);
    let spans = rec.finish();

    // The clock has stopped; everything below is the harness's own work.
    let mut guard_failure = w.guard.check(&report).err();
    let mut layers = report_layers(&report);
    if let Some((trace, check)) = &trace_outcome {
        layers.insert("trace.events".into(), trace.len() as f64);
        for (key, span) in [
            ("trace.take_s", "trace.take"),
            ("trace.check_s", "trace.check"),
            ("trace.export_s", "trace.export"),
            ("bench.report_build_s", "bench.report_build"),
            ("bench.report_json_s", "bench.report_json"),
        ] {
            let span = spans.iter().find(|s| s.name == span).expect("the traced tail ran");
            layers.insert(key.into(), span.duration_ns() as f64 / 1e9);
        }
        if let Err(violations) = check {
            guard_failure.get_or_insert(format!("{} invariant violations", violations.len()));
        }
        if trace.dropped > 0 {
            guard_failure.get_or_insert(format!("{} trace events dropped", trace.dropped));
        }
        if mode == Mode::Trace {
            let cp = critical_path(trace, &thread_windows(&report), &cfg.service_costs());
            if cp.total_ns() != report.makespan.as_ns() {
                guard_failure
                    .get_or_insert("critical-path classes do not sum to the makespan".to_string());
            }
            for (class, key) in PathClass::ALL.iter().zip(CRITPATH_KEYS) {
                layers.insert(key.into(), cp.class_total(*class) as f64 / 1e3);
            }
        }
    }

    let wall_ns = spans[rep].duration_ns();
    let region_ns = report.host_wall_ns.get();
    let usage = sys::usage();
    layers.insert("sched.ctx_switches".into(), usage.voluntary_switches as f64);
    layers.insert("host.cpu_user_s".into(), usage.user_ns as f64 / 1e9);
    layers.insert("host.cpu_sys_s".into(), usage.sys_ns as f64 / 1e9);
    layers.insert("host.region_s".into(), region_ns as f64 / 1e9);
    layers.insert("host.outside_region_s".into(), wall_ns.saturating_sub(region_ns) as f64 / 1e9);
    layers.insert(
        "host.ns_per_event".into(),
        region_ns as f64 / report.fabric.total_msgs().max(1) as f64,
    );
    if mode == Mode::Prof {
        let prof = samhita_prof::snapshot();
        let mut in_region = 0u64;
        for (phase, key) in [
            (Phase::SchedStep, "sched.step_ns"),
            (Phase::ChannelSend, "scl.send_ns"),
            (Phase::ChannelRecv, "scl.recv_ns"),
            (Phase::RegcDiff, "regc.diff_ns"),
            (Phase::BatchApply, "mem.batch_apply_ns"),
            (Phase::TraceEvent, "trace.emit_ns"),
        ] {
            let ns = prof.phase(phase).wall_ns;
            in_region += ns;
            layers.insert(key.into(), ns as f64);
        }
        // Span graphs are built after the region, by the traced tail.
        layers.insert("trace.span_graph_ns".into(), prof.phase(Phase::SpanGraph).wall_ns as f64);
        layers.insert("host.attributed_frac".into(), in_region as f64 / region_ns.max(1) as f64);
    }

    Ok(Rep {
        wall_ns,
        region_ns,
        peak_rss_bytes: samhita_prof::peak_rss_bytes(),
        makespan_ns: report.makespan.as_ns(),
        output_bits: bits,
        guard_failure,
        layers,
        spans,
        pass_ns: 0.0,
    })
}

/// `critpath.*` names, in `PathClass::ALL` order.
const CRITPATH_KEYS: [&str; 8] = [
    "critpath.compute_us",
    "critpath.fetch_us",
    "critpath.lock_us",
    "critpath.barrier_us",
    "critpath.mgr_wait_us",
    "critpath.mgr_service_us",
    "critpath.server_service_us",
    "critpath.queue_us",
];

/// The counts and virtual-clock totals: public `RunReport` fields, exact
/// per seed.
fn report_layers(r: &RunReport) -> BTreeMap<String, f64> {
    let b = r.wait_breakdown();
    let thread_time = b.sum_ns().max(1) as f64;
    let frac = |ns: u64| ns as f64 / thread_time;
    let sum = |v: &[u64]| v.iter().sum::<u64>() as f64;
    [
        ("sched.grants", r.sched_grants as f64),
        ("scl.msgs", r.fabric.total_msgs() as f64),
        ("scl.bytes", r.fabric.total_bytes() as f64),
        ("scl.faults", r.fabric.total_faults() as f64),
        ("regc.twins", r.total_of(|t| t.twins_created) as f64),
        ("regc.diff_bytes", r.total_of(|t| t.diff_bytes_flushed) as f64),
        ("regc.fine_bytes", r.total_of(|t| t.fine_bytes_flushed) as f64),
        ("mem.busy_virt_ns", sum(&r.server_busy_ns)),
        ("mem.queue_wait_virt_ns", sum(&r.server_queue_wait_ns)),
        ("core.line_misses", r.total_of(|t| t.line_misses) as f64),
        ("core.page_refetches", r.total_of(|t| t.page_refetches) as f64),
        ("core.evictions", r.total_of(|t| t.evictions) as f64),
        ("core.invalidations", r.total_of(|t| t.invalidations) as f64),
        ("core.sync_ops", r.sync_ops() as f64),
        ("core.msgs_per_sync_op", r.msgs_per_sync_op()),
        ("core.mgr_requests", r.mgr_requests as f64),
        ("core.mgr_busy_virt_ns", r.mgr_busy_ns as f64),
        ("core.mgr_queue_wait_virt_ns", r.mgr_queue_wait_ns as f64),
        ("core.retries", r.total_of(|t| t.retries) as f64),
        ("core.failovers", (r.total_of(|t| t.failovers) + r.mgr_failovers()) as f64),
        ("core.log_records", r.log_records_shipped as f64),
        ("virt.compute_frac", frac(b.compute_ns)),
        ("virt.fetch_frac", frac(b.fetch_ns)),
        ("virt.lock_frac", frac(b.lock_ns)),
        ("virt.barrier_frac", frac(b.barrier_ns)),
        ("virt.mgr_frac", frac(b.mgr_ns)),
        ("virt.flush_frac", frac(b.flush_ns)),
        ("virt.idle_frac", frac(b.idle_ns)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

impl Rep {
    /// The child's one line of output.
    pub fn to_json(&self) -> String {
        let spans = self.spans.iter().map(|s| json::object(s.json_fields()));
        json::object([
            ("wall_ns", json::num(self.wall_ns as f64)),
            ("region_ns", json::num(self.region_ns as f64)),
            ("peak_rss_bytes", json::num(self.peak_rss_bytes as f64)),
            ("makespan_ns", json::num(self.makespan_ns as f64)),
            // A full-range u64: JSON numbers stop being exact at 2^53.
            ("output_bits", json::string(&format!("{:016x}", self.output_bits))),
            ("guard_failure", self.guard_failure.as_deref().map_or("null".into(), json::string)),
            ("layers", json::object(self.layers.iter().map(|(k, v)| (k, json::num(*v))))),
            ("spans", json::array(spans)),
        ])
    }

    pub fn from_json(line: &str) -> Result<Rep, String> {
        let doc = JsonValue::parse(line)?;
        let int = |v: &JsonValue, key: &str| {
            v.get(key).and_then(JsonValue::as_u64).ok_or_else(|| format!("missing '{key}'"))
        };
        let bits = doc.get("output_bits").and_then(JsonValue::as_str).ok_or("missing bits")?;
        let layers = doc.get("layers").and_then(JsonValue::as_object).ok_or("missing layers")?;
        let spans = doc.get("spans").and_then(JsonValue::as_array).ok_or("missing spans")?;
        Ok(Rep {
            wall_ns: int(&doc, "wall_ns")?,
            region_ns: int(&doc, "region_ns")?,
            peak_rss_bytes: int(&doc, "peak_rss_bytes")?,
            makespan_ns: int(&doc, "makespan_ns")?,
            output_bits: u64::from_str_radix(bits, 16).map_err(|e| e.to_string())?,
            guard_failure: doc.get("guard_failure").and_then(JsonValue::as_str).map(str::to_string),
            layers: layers.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect(),
            spans: spans
                .iter()
                .map(|s| {
                    Ok(Span {
                        name: s.get("name").and_then(JsonValue::as_str).ok_or("name")?.to_string(),
                        start_ns: int(s, "start_ns")?,
                        end_ns: int(s, "end_ns")?,
                        parent: s.get("parent").and_then(JsonValue::as_u64).map(|p| p as usize),
                    })
                })
                .collect::<Result<_, String>>()?,
            pass_ns: 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rep_survives_the_pipe() {
        let rep = Rep {
            wall_ns: 700_000_000,
            region_ns: 650_000_000,
            peak_rss_bytes: 80 << 20,
            makespan_ns: 20_200_000,
            output_bits: 0xfedc_ba98_7654_3210,
            guard_failure: Some("no evictions".into()),
            layers: [("sched.grants".to_string(), 39628.0), ("virt.idle_frac".to_string(), 0.125)]
                .into(),
            spans: vec![
                Span { name: "rep".into(), start_ns: 0, end_ns: 700_000_000, parent: None },
                Span { name: "rt.new".into(), start_ns: 5, end_ns: 900, parent: Some(0) },
            ],
            pass_ns: 0.0,
        };
        let line = rep.to_json();
        samhita_trace::validate_json(&line).expect("valid JSON");
        assert!(!line.contains('\n'));
        let back = Rep::from_json(&line).expect("parses");
        assert_eq!(back.output_bits, rep.output_bits);
        assert_eq!(back.guard_failure, rep.guard_failure);
        assert_eq!(back.layers, rep.layers);
        assert_eq!(back.spans, rep.spans);
        assert_eq!((back.wall_ns, back.makespan_ns), (rep.wall_ns, rep.makespan_ns));
    }
}
