//! Machine-readable per-kernel performance reports and the exact
//! comparison between two of them.
//!
//! A [`BenchReport`] condenses one benchmark run into virtual-time numbers:
//! makespan, sync fraction, stall-latency percentiles, manager / memory-
//! server utilization, traffic, time conservation, queue pressure,
//! recovery activity, the critical path, a trace-derived timeline summary,
//! and the top hotspot pages with their allocation sites.
//! It is a document tree ([`samhita_trace::JsonValue`]): [`BenchReport::from_run`]
//! derives every section in one pass and is the only place a section's
//! fields are named; [`BenchReport::to_json`] writes the tree and
//! [`BenchReport::from_json`] parses it back (`BENCH_<kernel>_p<threads>.json`).
//!
//! A report is a pure function of (tree, configuration, kernel), so two
//! reports of one point are equal or something moved. [`moved`] walks both
//! trees and lists every leaf that differs, by path; the `bench-diff`
//! binary prints that list and fails on any entry. A changed configuration
//! or kernel parameterization shows as a moved `config_fingerprint`.

use std::collections::BTreeMap;
use std::fmt;

use samhita_core::{RunReport, SamhitaConfig};
use samhita_scl::MsgClass;
use samhita_trace::{
    critical_path, JsonValue, LatencyHistogram, MetricsTimeline, PathClass, RunTrace, ThreadWindow,
};

/// Schema tag written into every report. Sections are additive — a reader
/// keeps ones it does not know, and [`moved`] lists a section only one side
/// has leaf by leaf — so a new section does not bump the tag; changing the
/// meaning of a field or removing one does.
///
/// The sections, in the order they were added: `fetch` / `lock` / `barrier`
/// stall digests, `timeline` and `hotspots`; `traffic` (per-class message
/// and byte counts plus `msgs_per_sync_op`); `breakdown` (per-thread time
/// conservation), `queue` (manager/server queue pressure) and
/// `critical_path`; and `recovery` (manager failover activity, zero on a
/// fault-free run except passive log shipping). Every section is
/// virtual-time: a report is a pure function of (tree, config, kernel), so
/// two reports of one tree are byte-identical. A report from an older
/// `bench-report` also carries a `git_rev` string and a wall-clock `host`
/// section; to this reader both are unknown fields, kept and ignored.
pub const SCHEMA: &str = "samhita-bench-report-v5";

/// Number of timeline intervals summarized into a report.
const TIMELINE_BUCKETS: u64 = 20;

/// Hotspot pages kept in a report (ranked by coherence churn).
const HOTSPOT_TOP_N: usize = 10;

/// The run's per-thread windows, as the critical-path layer wants them.
pub fn thread_windows(report: &RunReport) -> Vec<ThreadWindow> {
    report
        .threads
        .iter()
        .map(|t| ThreadWindow { tid: t.tid, epoch_ns: t.epoch_ns, end_ns: t.end_ns })
        .collect()
}

/// FNV-1a fingerprint of a configuration + kernel parameterization.
pub fn fingerprint(cfg: &SamhitaConfig, params: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{cfg:?}|{params}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The current short git revision, or `"unknown"` outside a git checkout.
/// Reports do not carry it; `samhita-perf` stamps its result files with it.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A section whose fields are all counters.
fn counts<const N: usize>(fields: [(&str, u64); N]) -> JsonValue {
    JsonValue::object(fields.map(|(k, v)| (k, v.into())))
}

/// Percentile digest of one stall-latency histogram.
fn histogram(h: &LatencyHistogram) -> JsonValue {
    counts([
        ("count", h.count()),
        ("p50_ns", h.p50_ns()),
        ("p95_ns", h.p95_ns()),
        ("p99_ns", h.p99_ns()),
        ("max_ns", h.max_ns()),
    ])
}

/// Machine-readable record of one benchmark run: a `samhita-bench-report-v5`
/// document. Read fields by dotted path ([`BenchReport::num`],
/// [`BenchReport::text`], [`BenchReport::get`]).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport(JsonValue);

impl BenchReport {
    /// Build a report from a finished run. Pass the run's event trace to
    /// include the trace-derived `timeline` and `critical_path` sections;
    /// without one, or with one that dropped events, they are `null`.
    /// Nothing here reads the host (no clock, no process spawn), so the
    /// output is deterministic byte for byte.
    pub fn from_run(
        kernel: &str,
        params: &str,
        cfg: &SamhitaConfig,
        threads: u32,
        report: &RunReport,
        trace: Option<&RunTrace>,
    ) -> Self {
        let costs = cfg.service_costs();
        let makespan_ns = report.makespan.as_ns();
        let trace = trace.and_then(|t| t.untruncated().ok());
        // Condensed view of the metrics timeline: the totals plus where the
        // peaks landed, enough to spot a phase shift without every bucket.
        let timeline = trace.map(|t| {
            let width = MetricsTimeline::bucket_width_for(makespan_ns, TIMELINE_BUCKETS);
            let tl = MetricsTimeline::from_trace(t, width, &costs);
            let fabric = tl.peak_by(|b| b.fabric_bytes).unwrap_or((0, 0));
            let server = tl.peak_by(|b| b.server_busy_ns).unwrap_or((0, 0));
            counts([
                ("bucket_ns", tl.bucket_ns),
                ("buckets", tl.len() as u64),
                ("fabric_bytes", tl.totals().fabric_bytes),
                ("peak_fabric_bucket", fabric.0 as u64),
                ("peak_fabric_bytes", fabric.1),
                ("peak_server_bucket", server.0 as u64),
                ("peak_server_busy_ns", server.1),
            ])
        });
        // Composition of the virtual-time critical path; the eight classes
        // sum to `makespan_ns` exactly.
        let critical = trace.map(|t| {
            let cp = critical_path(t, &thread_windows(report), &costs);
            counts([
                ("makespan_ns", cp.makespan_ns),
                ("compute_ns", cp.class_total(PathClass::Compute)),
                ("fetch_ns", cp.class_total(PathClass::Fetch)),
                ("lock_wait_ns", cp.class_total(PathClass::LockWait)),
                ("barrier_wait_ns", cp.class_total(PathClass::BarrierWait)),
                ("mgr_wait_ns", cp.class_total(PathClass::MgrWait)),
                ("mgr_service_ns", cp.class_total(PathClass::MgrService)),
                ("server_service_ns", cp.class_total(PathClass::ServerService)),
                ("queue_wait_ns", cp.class_total(PathClass::QueueWait)),
                ("n_segments", cp.segments.len() as u64),
            ])
        });
        // One entry per traffic class, in `MsgClass::ALL` order (a list, not
        // a map, so the order survives).
        let classes = MsgClass::ALL.iter().map(|&c| {
            JsonValue::object([
                ("class", c.label().into()),
                ("msgs", report.fabric.msgs(c).into()),
                ("bytes", report.fabric.bytes(c).into()),
            ])
        });
        let traffic = JsonValue::object([
            ("total_msgs", report.fabric.total_msgs().into()),
            ("total_bytes", report.fabric.total_bytes().into()),
            // Lock acquisitions + barrier episodes across all threads.
            ("sync_ops", report.sync_ops().into()),
            // Update-class messages per sync op: O(servers) with batched
            // flushes, O(dirty pages) without.
            ("msgs_per_sync_op", report.msgs_per_sync_op().into()),
            ("classes", JsonValue::array(classes)),
        ]);
        // Per-thread time conservation summed over threads: the classes add
        // up to `threads × makespan` exactly.
        let b = report.wait_breakdown();
        let breakdown = counts([
            ("compute_ns", b.compute_ns),
            ("fetch_ns", b.fetch_ns),
            ("lock_ns", b.lock_ns),
            ("barrier_ns", b.barrier_ns),
            ("mgr_ns", b.mgr_ns),
            ("flush_ns", b.flush_ns),
            ("idle_ns", b.idle_ns),
            ("total_ns", b.total_ns),
        ]);
        let queue = JsonValue::object([
            ("mgr_queue_wait_ns", report.mgr_queue_wait_ns.into()),
            // Share of `threads × makespan` spent queued at the manager —
            // the "manager is the wall" fraction.
            ("mgr_queue_wait_fraction", report.mgr_queue_wait_fraction().into()),
            ("mgr_peak_queue_depth", report.mgr_peak_queue_depth.into()),
            ("mgr_mean_queue_depth", report.mgr_mean_queue_depth().into()),
            ("mgr_requests", report.mgr_requests.into()),
            ("server_queue_wait_ns", report.server_queue_wait_ns.iter().sum::<u64>().into()),
            (
                "server_peak_queue_depth",
                report.server_peak_queue_depth.iter().copied().max().unwrap_or(0).into(),
            ),
        ]);
        // Log shipping counts a standby passively mirroring a healthy
        // primary; the other five only move once it takes over.
        let recovery = counts([
            ("mgr_failovers", report.mgr_failovers()),
            ("log_records_shipped", report.log_records_shipped),
            ("lease_reclaims", report.lease_reclaims),
            ("stale_releases", report.stale_releases),
            ("standby_serves", report.standby_serves),
            ("takeover_ns", report.takeover_ns),
        ]);
        let hotspots = report.hotspots().top_churn(HOTSPOT_TOP_N).into_iter().map(|(page, c)| {
            JsonValue::object([
                ("page", page.into()),
                ("site", report.site_label(page).into()),
                ("misses", c.misses.into()),
                ("refetches", c.refetches.into()),
                ("invalidations", c.invalidations.into()),
                ("twins", c.twins.into()),
                ("diff_bytes", c.diff_bytes.into()),
                ("fine_bytes", c.fine_bytes.into()),
            ])
        });
        BenchReport(JsonValue::object([
            ("schema", SCHEMA.into()),
            ("kernel", kernel.into()),
            ("params", params.into()),
            // A full-range u64; JSON numbers only carry 53 bits of integer
            // precision, so it travels as a hex string.
            ("config_fingerprint", format!("{:016x}", fingerprint(cfg, params)).into()),
            ("threads", u64::from(threads).into()),
            ("makespan_ns", makespan_ns.into()),
            ("sync_fraction", report.sync_fraction().into()),
            ("mgr_utilization", report.mgr_utilization().into()),
            ("server_utilization", JsonValue::array(report.server_utilization())),
            ("fetch", histogram(&report.fetch_latency())),
            ("lock", histogram(&report.lock_wait())),
            ("barrier", histogram(&report.barrier_wait())),
            ("timeline", timeline.into()),
            ("traffic", traffic),
            ("breakdown", breakdown),
            ("queue", queue),
            ("recovery", recovery),
            ("critical_path", critical.into()),
            ("hotspots", JsonValue::array(hotspots)),
        ]))
    }

    /// The report with the value at dotted `path` replaced (or added).
    ///
    /// # Panics
    /// Panics if a parent along `path` is not an object.
    pub fn with(mut self, path: &str, value: impl Into<JsonValue>) -> Self {
        let mut node = &mut self.0;
        for key in path.split('.') {
            let JsonValue::Object(members) = node else {
                panic!("{path:?}: parent of {key:?} is not an object");
            };
            node = members.entry(key.to_string()).or_insert(JsonValue::Null);
        }
        *node = value.into();
        self
    }

    /// The value at dotted `path` (`"queue.mgr_requests"`).
    pub fn get(&self, path: &str) -> Option<&JsonValue> {
        self.0.at(path)
    }

    /// The number at dotted `path`.
    pub fn num(&self, path: &str) -> Option<f64> {
        self.get(path)?.as_f64()
    }

    /// The string at dotted `path`.
    pub fn text(&self, path: &str) -> Option<&str> {
        self.get(path)?.as_str()
    }

    /// Serialize as a JSON object (`BENCH_<kernel>_p<threads>.json` contents).
    pub fn to_json(&self) -> String {
        self.0.to_string()
    }

    /// Parse a v5 report: any JSON object carrying the [`SCHEMA`] tag.
    /// Every section is read by path, so an unknown one is kept and an
    /// absent one simply has no leaves.
    pub fn from_json(input: &str) -> Result<Self, String> {
        let report = BenchReport(JsonValue::parse(input)?);
        match report.text("schema") {
            Some(SCHEMA) => Ok(report),
            Some(other) => Err(format!(
                "unsupported report schema {other:?} (want {SCHEMA:?}) — this report was \
                 written by a different tool version; regenerate it (and any committed \
                 baselines) with bench-report"
            )),
            None => Err("not a bench report: no \"schema\" string".to_string()),
        }
    }
}

/// One leaf that differs between two reports: its path (`makespan_ns`,
/// `traffic.classes[1].msgs`) and its value on each side, `None` where that
/// side has no such leaf.
#[derive(Clone, Debug, PartialEq)]
pub struct Moved<'a> {
    /// Dotted path, with `[i]` for an array element.
    pub path: String,
    /// The baseline's value.
    pub base: Option<&'a JsonValue>,
    /// The fresh report's value.
    pub fresh: Option<&'a JsonValue>,
}

/// `path  base -> fresh`, plus the relative change when both are numbers.
impl fmt::Display for Moved<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = |v: Option<&JsonValue>| v.map_or("(absent)".to_string(), JsonValue::to_string);
        write!(f, "{}  {} -> {}", self.path, side(self.base), side(self.fresh))?;
        match (self.base.and_then(JsonValue::as_f64), self.fresh.and_then(JsonValue::as_f64)) {
            (Some(b), Some(n)) if b != 0.0 => write!(f, "  ({:+.2}%)", (n - b) / b * 100.0),
            _ => Ok(()),
        }
    }
}

/// Every leaf of `base` and `fresh` whose value differs, in `base`'s
/// document order, then the leaves only `fresh` has. Empty means both
/// trees hold the same leaves at the same paths.
pub fn moved<'a>(base: &'a BenchReport, fresh: &'a BenchReport) -> Vec<Moved<'a>> {
    let (base, fresh) = (leaves(&base.0), leaves(&fresh.0));
    let in_base: BTreeMap<_, _> = base.iter().cloned().collect();
    let in_fresh: BTreeMap<_, _> = fresh.iter().cloned().collect();
    let changed = base.into_iter().filter_map(|(path, b)| {
        let f = in_fresh.get(&path).copied();
        (f != Some(b)).then_some(Moved { path, base: Some(b), fresh: f })
    });
    let added = fresh.into_iter().filter(|(path, _)| !in_base.contains_key(path));
    changed.chain(added.map(|(path, f)| Moved { path, base: None, fresh: Some(f) })).collect()
}

/// The leaves of `root` with their paths, in document order. An empty
/// object or array is a leaf of its own, so `[]` and `null` differ.
fn leaves(root: &JsonValue) -> Vec<(String, &JsonValue)> {
    fn walk<'a>(path: String, v: &'a JsonValue, out: &mut Vec<(String, &'a JsonValue)>) {
        match v {
            JsonValue::Object(m) if !m.is_empty() => {
                for (key, v) in m {
                    walk(
                        if path.is_empty() { key.clone() } else { format!("{path}.{key}") },
                        v,
                        out,
                    );
                }
            }
            JsonValue::Array(items) if !items.is_empty() => {
                for (i, v) in items.iter().enumerate() {
                    walk(format!("{path}[{i}]"), v, out);
                }
            }
            _ => out.push((path, v)),
        }
    }
    let mut out = Vec::new();
    walk(String::new(), root, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A complete v5 document as an older `bench-report` wrote it, with the
    /// `git_rev` field and wall-clock `host` section `from_run` does not
    /// emit: pinned in that form so such a report keeps parsing and
    /// round-tripping, both being unknown fields to this reader.
    const SAMPLE: &str = r#"{
        "schema": "samhita-bench-report-v5",
        "kernel": "micro", "params": "M=10 S=2 mode=global P=1", "git_rev": "abc1234",
        "config_fingerprint": "00000000deadbeef", "threads": 1,
        "makespan_ns": 1000000, "sync_fraction": 0.25,
        "mgr_utilization": 0.125, "server_utilization": [0.5, 0.0625],
        "fetch": {"count": 10, "p50_ns": 100, "p95_ns": 200, "p99_ns": 300, "max_ns": 400},
        "lock": {"count": 0, "p50_ns": 0, "p95_ns": 0, "p99_ns": 0, "max_ns": 0},
        "barrier": {"count": 2, "p50_ns": 8, "p95_ns": 8, "p99_ns": 8, "max_ns": 9},
        "timeline": {"bucket_ns": 50000, "buckets": 20, "fabric_bytes": 123456,
            "peak_fabric_bucket": 3, "peak_fabric_bytes": 40000,
            "peak_server_bucket": 4, "peak_server_busy_ns": 30000},
        "traffic": {"total_msgs": 1000, "total_bytes": 500000, "sync_ops": 40,
            "msgs_per_sync_op": 5,
            "classes": [{"class": "data", "msgs": 500, "bytes": 400000},
                        {"class": "update", "msgs": 200, "bytes": 80000},
                        {"class": "sync", "msgs": 200, "bytes": 15000},
                        {"class": "control", "msgs": 100, "bytes": 5000}]},
        "breakdown": {"compute_ns": 700000, "fetch_ns": 100000, "lock_ns": 50000,
            "barrier_ns": 50000, "mgr_ns": 40000, "flush_ns": 10000, "idle_ns": 50000,
            "total_ns": 1000000},
        "queue": {"mgr_queue_wait_ns": 30000, "mgr_queue_wait_fraction": 0.03,
            "mgr_peak_queue_depth": 5, "mgr_mean_queue_depth": 1.25, "mgr_requests": 160,
            "server_queue_wait_ns": 12000, "server_peak_queue_depth": 3},
        "recovery": {"mgr_failovers": 0, "log_records_shipped": 320, "lease_reclaims": 0,
            "stale_releases": 0, "standby_serves": 0, "takeover_ns": 0},
        "critical_path": {"makespan_ns": 1000000, "compute_ns": 600000, "fetch_ns": 150000,
            "lock_wait_ns": 80000, "barrier_wait_ns": 70000, "mgr_wait_ns": 30000,
            "mgr_service_ns": 25000, "server_service_ns": 25000, "queue_wait_ns": 20000,
            "n_segments": 42},
        "hotspots": [{"page": 65538, "site": "shared", "misses": 0, "refetches": 12,
            "invalidations": 11, "twins": 0, "diff_bytes": 0, "fine_bytes": 0}],
        "host": {"wall_ns": 5000000, "events": 1000, "ns_per_event": 5000,
            "allocs": 12000, "allocs_per_event": 12, "peak_rss_bytes": 67108864,
            "phases": [
                {"name": "sched_step", "wall_ns": 900000, "calls": 4000, "allocs": 0},
                {"name": "other", "wall_ns": 0, "calls": 0, "allocs": 11400}]}
    }"#;

    fn sample() -> BenchReport {
        BenchReport::from_json(SAMPLE).expect("the sample is a valid v5 report")
    }

    /// The paths [`moved`] lists between `base` and `fresh`.
    fn paths(base: &BenchReport, fresh: &BenchReport) -> Vec<String> {
        moved(base, fresh).into_iter().map(|m| m.path).collect()
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let json = r.to_json();
        samhita_trace::validate_json(&json).expect("valid JSON");
        assert_eq!(BenchReport::from_json(&json).expect("parses"), r);

        // Without the trace-derived sections, too.
        let bare = r
            .with("timeline", JsonValue::Null)
            .with("critical_path", JsonValue::Null)
            .with("hotspots", JsonValue::Array(Vec::new()));
        assert_eq!(BenchReport::from_json(&bare.to_json()).expect("parses"), bare);
    }

    /// Additive sections need no schema bump: a v5 reader keeps a section it
    /// does not know and parses a report without the optional ones or the
    /// two fields only an older tool wrote. Comparing the two lists each
    /// leaf of every section one side lacks, and nothing else.
    #[test]
    fn unknown_sections_are_kept_and_optional_ones_may_be_absent() {
        let JsonValue::Object(mut doc) = JsonValue::parse(SAMPLE).unwrap() else {
            panic!("the sample is an object")
        };
        let absent = ["timeline", "critical_path", "git_rev", "host"];
        for section in absent {
            assert!(doc.remove(section).is_some());
        }
        doc.insert("energy".into(), JsonValue::object([("joules", JsonValue::from(3u64))]));
        let text = JsonValue::Object(doc).to_string();
        let r = BenchReport::from_json(&text).expect("still a v5 report");
        assert_eq!(r.num("energy.joules"), Some(3.0), "the unknown section survives");
        assert_eq!(r.to_json(), text, "and is written back untouched");

        let base = sample();
        let listed = moved(&base, &r);
        let (added, dropped) = listed.split_last().expect("something moved");
        assert_eq!((added.path.as_str(), added.base), ("energy.joules", None));
        // 7 timeline + 10 critical-path leaves, `git_rev`, 6 + 2 × 4 host.
        assert_eq!(dropped.len(), 32);
        for m in dropped {
            assert!(m.fresh.is_none() && absent.iter().any(|s| m.path.starts_with(s)), "{m}");
        }
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(BenchReport::from_json("{}").is_err());
        assert!(BenchReport::from_json("[]").is_err());
        assert!(BenchReport::from_json("not json").is_err());
        let wrong_schema = sample().to_json().replace(SCHEMA, "other-schema-v9");
        assert!(BenchReport::from_json(&wrong_schema).unwrap_err().contains("schema"));
    }

    #[test]
    fn from_json_schema_mismatch_names_both_versions_and_the_fix() {
        // An old baseline (previous schema rev) must fail with a message
        // that names both versions and says to regenerate — not a field-
        // level parse error.
        let stale = sample().to_json().replace(SCHEMA, "samhita-bench-report-v4");
        let err = BenchReport::from_json(&stale).unwrap_err();
        assert!(err.contains("samhita-bench-report-v4"), "missing found version: {err}");
        assert!(err.contains(SCHEMA), "missing wanted version: {err}");
        assert!(err.contains("regenerate"), "missing remedy: {err}");
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = sample();
        assert_eq!(moved(&r, &r), []);
        let reparsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(moved(&r, &reparsed), []);
    }

    /// Every recovery counter is a leaf like any other, log shipping
    /// included: each one that moves is listed.
    #[test]
    fn recovery_activity_on_a_fault_free_run_fails_the_gate() {
        let base = sample();
        for (field, value) in [
            ("recovery.log_records_shipped", 9_999u64),
            ("recovery.mgr_failovers", 1),
            ("recovery.lease_reclaims", 1),
            ("recovery.stale_releases", 1),
            ("recovery.standby_serves", 1),
            ("recovery.takeover_ns", 60_000),
        ] {
            assert_eq!(paths(&base, &base.clone().with(field, value)), [field]);
        }
    }

    /// A move no relative tolerance or absolute slack would have flagged
    /// (3 % → 3.4 %) is listed with both values and its relative change.
    #[test]
    fn queue_wait_fraction_regression_fails() {
        let base = sample();
        let fresh = base.clone().with("queue.mgr_queue_wait_fraction", 0.034);
        let [m] = &moved(&base, &fresh)[..] else { panic!("one field moved") };
        assert_eq!(m.to_string(), "queue.mgr_queue_wait_fraction  0.03 -> 0.034  (+13.33%)");
    }

    #[test]
    fn thread_count_mismatch_is_always_a_failure() {
        let base = sample();
        assert_eq!(paths(&base, &base.clone().with("threads", 8u64)), ["threads"]);
    }

    /// One message more is a move, as is one fewer; a traffic class is
    /// named by its index in the list.
    #[test]
    fn message_count_regression_fails() {
        let base = sample();
        for total in [1001u64, 999] {
            let fresh = base.clone().with("traffic.total_msgs", total);
            assert_eq!(paths(&base, &fresh), ["traffic.total_msgs"]);
        }
        let mut classes = base.get("traffic.classes").unwrap().clone();
        let JsonValue::Array(items) = &mut classes else { panic!("classes is a list") };
        items[1] = JsonValue::object([
            ("class", "update".into()),
            ("msgs", 210u64.into()),
            ("bytes", 80000u64.into()),
        ]);
        let fresh = base.clone().with("traffic.classes", classes);
        assert_eq!(paths(&base, &fresh), ["traffic.classes[1].msgs"]);
    }

    #[test]
    fn a_ten_percent_makespan_move_is_listed_with_its_change() {
        let base = sample();
        let at = |ns: u64| base.clone().with("makespan_ns", ns);
        let slower = at(1_100_000);
        let [m] = &moved(&base, &slower)[..] else { panic!("one field moved") };
        assert_eq!(m.to_string(), "makespan_ns  1000000 -> 1100000  (+10.00%)");
        // Getting faster moves the makespan too.
        assert_eq!(paths(&base, &at(500_000)), ["makespan_ns"]);
    }

    #[test]
    fn sync_fraction_regression_fails() {
        let base = sample();
        assert_eq!(paths(&base, &base.clone().with("sync_fraction", 0.2501)), ["sync_fraction"]);
    }

    #[test]
    fn fingerprint_mismatch_is_always_a_failure() {
        let base = sample();
        let fresh = base.clone().with("config_fingerprint", "0000000000000001");
        let [m] = &moved(&base, &fresh)[..] else { panic!("one field moved") };
        assert_eq!(
            m.to_string(),
            r#"config_fingerprint  "00000000deadbeef" -> "0000000000000001""#
        );
    }

    /// Fields no hand-picked list named move like the rest: a critical-path
    /// class, every leaf of a hotspot one side lacks, and a field only one
    /// side has.
    #[test]
    fn every_leaf_is_compared_by_its_path() {
        let base = sample();
        let fresh = base.clone().with("critical_path.queue_wait_ns", 20_001u64);
        assert_eq!(paths(&base, &fresh), ["critical_path.queue_wait_ns"]);

        let hot = base.get("hotspots").unwrap().as_array().unwrap()[0].clone();
        let two = base.clone().with("hotspots", JsonValue::array([hot.clone(), hot]));
        let listed = moved(&two, &base);
        assert_eq!(listed.len(), 8, "one hotspot has eight fields");
        assert!(listed.iter().all(|m| m.path.starts_with("hotspots[1].") && m.fresh.is_none()));

        let extra = base.clone().with("queue.mgr_spins", 3u64);
        let [m] = &moved(&base, &extra)[..] else { panic!("one field moved") };
        assert_eq!(m.to_string(), "queue.mgr_spins  (absent) -> 3");
    }

    #[test]
    fn fingerprint_tracks_config_and_params() {
        let a = SamhitaConfig::default();
        let b = SamhitaConfig { page_size: a.page_size * 2, ..a.clone() };
        assert_ne!(fingerprint(&a, "x"), fingerprint(&b, "x"));
        assert_ne!(fingerprint(&a, "x"), fingerprint(&a, "y"));
        assert_eq!(fingerprint(&a, "x"), fingerprint(&a.clone(), "x"));
    }
}
