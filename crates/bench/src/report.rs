//! Machine-readable per-kernel performance reports and baseline comparison.
//!
//! A [`BenchReport`] condenses one benchmark run into the numbers a
//! regression gate needs: virtual makespan, sync fraction, stall-latency
//! percentiles, manager / memory-server utilization, a trace-derived
//! timeline summary, and the top hotspot pages with their allocation sites.
//! It is a document tree ([`samhita_trace::JsonValue`]): [`BenchReport::from_run`]
//! derives every section in one pass and is the only place a section's
//! fields are named; [`BenchReport::to_json`] writes the tree and
//! [`BenchReport::from_json`] parses it back (`BENCH_<kernel>_p<threads>.json`).
//! Reports are compared against committed baselines by the `bench-diff`
//! binary; [`compare`] is the pure decision function, reading the dozen
//! numbers it gates by path, so the gate itself is unit-testable.
//!
//! Comparability is guarded by a configuration fingerprint: a report made
//! under a different [`SamhitaConfig`] or kernel parameterization never
//! silently "passes" against a stale baseline — the fingerprint mismatch is
//! itself a failure that says "regenerate the baseline".

use samhita_core::{RunReport, SamhitaConfig};
use samhita_scl::MsgClass;
use samhita_trace::{
    critical_path, JsonValue, LatencyHistogram, MetricsTimeline, PathClass, RunTrace, ThreadWindow,
};

/// Schema tag written into every report. It names the *required* core: the
/// identity fields and the numbers [`compare`] gates. Sections are additive
/// — a reader ignores ones it does not know and tolerates absent optional
/// ones (`timeline`, `critical_path`) — so a new section does not bump the
/// tag; only changing or removing a gated field does.
///
/// The sections, in the order they were added: `fetch` / `lock` / `barrier`
/// stall digests, `timeline` and `hotspots`; `traffic` (per-class message
/// and byte counts plus `msgs_per_sync_op`); `breakdown` (per-thread time
/// conservation), `queue` (manager/server queue pressure) and
/// `critical_path`; and `recovery` (manager failover activity, which the
/// gate requires to stay quiet on fault-free runs). Every section is
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
            // the "manager is the wall" fraction the gate watches.
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

    /// Parse a v5 report: any JSON object carrying the [`SCHEMA`] tag and
    /// every field [`compare`] reads. Unknown sections are kept and
    /// ignored; optional ones may be absent.
    pub fn from_json(input: &str) -> Result<Self, String> {
        let report = BenchReport(JsonValue::parse(input)?);
        match report.text("schema") {
            Some(SCHEMA) => {}
            Some(other) => {
                return Err(format!(
                    "unsupported report schema {other:?} (want {SCHEMA:?}) — this report was \
                     written by a different tool version; regenerate it (and any committed \
                     baselines) with bench-report"
                ))
            }
            None => return Err("not a bench report: no \"schema\" string".to_string()),
        }
        // The gate's own reads are the definition of "every field compare
        // reads": a report is accepted iff it can be gated against itself.
        gate(&report, &report, 0.0)?;
        Ok(report)
    }
}

/// Outcome of comparing a fresh report against a committed baseline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Comparison {
    /// Human-readable metric lines (always populated).
    pub lines: Vec<String>,
    /// Regressions beyond tolerance; empty means the gate passes.
    pub regressions: Vec<String>,
}

impl Comparison {
    /// Whether the regression gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Absolute slack added to the sync-fraction bound so near-zero baselines
/// (where a relative tolerance is meaninglessly tight) don't flap.
const SYNC_FRACTION_SLACK: f64 = 0.005;

/// Absolute slack for the manager queue-wait fraction gate, same rationale.
const QUEUE_WAIT_SLACK: f64 = 0.005;

/// Compare `fresh` against `base`: makespan and sync fraction may grow by at
/// most `tolerance` (relative, e.g. `0.05` for 5%; sync fraction gets an
/// extra `SYNC_FRACTION_SLACK` absolute allowance). A `config_fingerprint`
/// mismatch is always a failure because the numbers are not comparable —
/// regenerate the baseline instead.
pub fn compare(base: &BenchReport, fresh: &BenchReport, tolerance: f64) -> Comparison {
    // `from_run` builds and `from_json` checks for every field the gate
    // reads, so only a report edited with `with` can fail to be read — and
    // a report the gate cannot read does not pass it.
    gate(base, fresh, tolerance)
        .unwrap_or_else(|e| Comparison { lines: Vec::new(), regressions: vec![e] })
}

/// The value at `path` in both reports, read with `read`.
fn both<'a, T>(
    base: &'a BenchReport,
    fresh: &'a BenchReport,
    path: &str,
    read: impl Fn(&'a JsonValue) -> Option<T>,
) -> Result<(T, T), String> {
    let one = |r: &'a BenchReport| {
        r.get(path).and_then(&read).ok_or_else(|| format!("missing or mistyped field {path:?}"))
    };
    Ok((one(base)?, one(fresh)?))
}

/// [`compare`], failing on a report that lacks a field it reads. This
/// function's reads *are* the v5 schema's required fields:
/// [`BenchReport::from_json`] accepts a document iff it gates against itself.
fn gate(base: &BenchReport, fresh: &BenchReport, tolerance: f64) -> Result<Comparison, String> {
    let text = |path| both(base, fresh, path, JsonValue::as_str);
    let num = |path| both(base, fresh, path, JsonValue::as_f64);
    let count = |path| both(base, fresh, path, JsonValue::as_u64);

    let mut cmp = Comparison::default();
    let (_, kernel) = text("kernel")?;
    let (base_fp, fresh_fp) = text("config_fingerprint")?;
    if base_fp != fresh_fp {
        cmp.regressions.push(format!(
            "{kernel}: config fingerprint 0x{fresh_fp} != baseline 0x{base_fp} — configuration \
             or kernel parameters changed; regenerate the baseline (bench-report)"
        ));
        return Ok(cmp);
    }
    // Thread counts are part of the fingerprinted params, but check them
    // explicitly too: a P=8 report gating against a P=64 baseline is never
    // a meaningful comparison, and this error message says why directly.
    let (base_threads, threads) = count("threads")?;
    if base_threads != threads {
        cmp.regressions.push(format!(
            "{kernel}: thread count {threads} != baseline {base_threads} — not comparable; \
             regenerate the baseline (bench-report --threads)"
        ));
        return Ok(cmp);
    }
    cmp.lines.push(format!("{kernel:>10}  threads       {threads:>14}"));
    let pct = |b: f64, f: f64| if b == 0.0 { 0.0 } else { (f - b) / b * 100.0 };

    let (b, f) = count("makespan_ns")?;
    let makespan_delta = pct(b as f64, f as f64);
    cmp.lines
        .push(format!("{kernel:>10}  makespan      {b:>14} -> {f:>14}  ({makespan_delta:+.2}%)"));
    if f as f64 > b as f64 * (1.0 + tolerance) {
        cmp.regressions.push(format!(
            "{kernel}: makespan regressed {makespan_delta:+.2}% ({b} -> {f} ns, tolerance {:.1}%)",
            tolerance * 100.0
        ));
    }

    let (b, f) = num("sync_fraction")?;
    cmp.lines.push(format!(
        "{kernel:>10}  sync fraction {:>13.2}% -> {:>13.2}%  ({:+.2} pts)",
        b * 100.0,
        f * 100.0,
        (f - b) * 100.0
    ));
    if f > b * (1.0 + tolerance) + SYNC_FRACTION_SLACK {
        cmp.regressions.push(format!(
            "{kernel}: sync fraction regressed {:.2}% -> {:.2}% (tolerance {:.1}% + {:.1} pts)",
            b * 100.0,
            f * 100.0,
            tolerance * 100.0,
            SYNC_FRACTION_SLACK * 100.0
        ));
    }

    // Message-count gates: a regression here means the protocol started
    // chattering — e.g. the flush batcher fell back to per-page messages.
    // Counts are deterministic, but a small absolute allowance keeps
    // near-zero baselines from failing on a handful of messages.
    const MSG_SLACK: u64 = 16;
    let (base_classes, fresh_classes) = both(base, fresh, "traffic.classes", JsonValue::as_array)?;
    // A report without an update class sent no update messages.
    let update_msgs = |classes: &[JsonValue]| {
        let update =
            classes.iter().find(|c| c.get("class").and_then(JsonValue::as_str) == Some("update"));
        update.and_then(|c| c.get("msgs")?.as_u64()).unwrap_or(0)
    };
    for (label, (b, f)) in [
        ("total msgs", count("traffic.total_msgs")?),
        ("update msgs", (update_msgs(base_classes), update_msgs(fresh_classes))),
    ] {
        cmp.lines.push(format!(
            "{kernel:>10}  {label:<13} {b:>14} -> {f:>14}  ({:+.2}%)",
            pct(b as f64, f as f64)
        ));
        if f as f64 > b as f64 * (1.0 + tolerance) + MSG_SLACK as f64 {
            cmp.regressions.push(format!(
                "{kernel}: {label} regressed {b} -> {f} (tolerance {:.1}% + {MSG_SLACK})",
                tolerance * 100.0
            ));
        }
    }
    let (b, f) = num("traffic.msgs_per_sync_op")?;
    cmp.lines.push(format!("{kernel:>10}  msgs/sync op  {b:>14.2} -> {f:>14.2}"));

    // Manager queue pressure: the fraction of all thread-time spent queued
    // at the manager. Gated like sync fraction — relative tolerance plus an
    // absolute slack so near-zero baselines don't flap.
    let (b, f) = num("queue.mgr_queue_wait_fraction")?;
    cmp.lines.push(format!(
        "{kernel:>10}  mgr queue wait{:>13.2}% -> {:>13.2}%  ({:+.2} pts)",
        b * 100.0,
        f * 100.0,
        (f - b) * 100.0
    ));
    if f > b * (1.0 + tolerance) + QUEUE_WAIT_SLACK {
        cmp.regressions.push(format!(
            "{kernel}: mgr queue-wait fraction regressed {:.2}% -> {:.2}% (tolerance {:.1}% + {:.1} pts)",
            b * 100.0,
            f * 100.0,
            tolerance * 100.0,
            QUEUE_WAIT_SLACK * 100.0
        ));
    }
    let (b, f) = count("queue.mgr_peak_queue_depth")?;
    cmp.lines.push(format!("{kernel:>10}  mgr peak queue{b:>14} -> {f:>14}"));

    // Recovery gate: benchmark baselines are fault-free, so the crash-
    // recovery machinery must never fire during a gated run. A spurious
    // failover means the probe/retry path misfired — it would silently
    // perturb every number above, so it is a hard failure, not a tolerance.
    // Log shipping alone (a standby passively mirroring a healthy primary)
    // does not count as firing.
    let failovers = count("recovery.mgr_failovers")?;
    let reclaims = count("recovery.lease_reclaims")?;
    let stale = count("recovery.stale_releases")?;
    let serves = count("recovery.standby_serves")?;
    let takeover = count("recovery.takeover_ns")?;
    cmp.lines
        .push(format!("{kernel:>10}  mgr failovers {:>14} -> {:>14}", failovers.0, failovers.1));
    let took_over = [failovers, reclaims, stale, serves, takeover];
    if took_over.iter().all(|c| c.0 == 0) && took_over.iter().any(|c| c.1 > 0) {
        cmp.regressions.push(format!(
            "{kernel}: recovery machinery fired on a fault-free run ({} failovers, {} lease \
             reclaims, {} stale releases, {} standby serves, takeover at {} ns) — the \
             failover path must stay quiet without an injected manager crash",
            failovers.1, reclaims.1, stale.1, serves.1, takeover.1
        ));
    }
    Ok(cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A complete v5 document as an older `bench-report` wrote it, with the
    /// `git_rev` field and wall-clock `host` section `from_run` does not
    /// emit: pinned in that form so such a report keeps parsing,
    /// round-tripping and gating, both being unknown fields to this reader.
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

    /// A traffic `classes` list whose update class carries `update` messages.
    fn classes_with_update(update: u64) -> JsonValue {
        JsonValue::array([("data", 500), ("update", update), ("sync", 200), ("control", 100)].map(
            |(class, msgs)| JsonValue::object([("class", class.into()), ("msgs", msgs.into())]),
        ))
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
    /// does not know and misses neither an optional one nor the two fields
    /// only an older tool wrote, so old and new reports gate each other.
    #[test]
    fn unknown_sections_are_kept_and_optional_ones_may_be_absent() {
        let JsonValue::Object(mut doc) = JsonValue::parse(SAMPLE).unwrap() else {
            panic!("the sample is an object")
        };
        for absent in ["timeline", "critical_path", "git_rev", "host"] {
            assert!(doc.remove(absent).is_some());
        }
        doc.insert("energy".into(), JsonValue::object([("joules", JsonValue::from(3u64))]));
        let text = JsonValue::Object(doc).to_string();
        let r = BenchReport::from_json(&text).expect("still a v5 report");
        assert_eq!(r.num("energy.joules"), Some(3.0), "the unknown section survives");
        assert_eq!(r.to_json(), text, "and is written back untouched");
        for (base, fresh) in [(&sample(), &r), (&r, &sample())] {
            let cmp = compare(base, fresh, 0.0);
            assert!(cmp.passed(), "{:?}", cmp.regressions);
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
    fn from_json_names_the_gated_field_a_report_lacks() {
        for (path, broken) in [
            ("makespan_ns", sample().with("makespan_ns", "fast")),
            ("queue.mgr_queue_wait_fraction", sample().with("queue", counts([]))),
            ("traffic.classes", sample().with("traffic.classes", JsonValue::Null)),
            ("recovery.takeover_ns", sample().with("recovery.takeover_ns", -1.0)),
        ] {
            let err = BenchReport::from_json(&broken.to_json()).unwrap_err();
            assert!(err.contains(path), "{path}: {err}");
        }
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
        let cmp = compare(&r, &r, 0.05);
        assert!(cmp.passed(), "self-comparison regressed: {:?}", cmp.regressions);
        assert_eq!(cmp.lines.len(), 9);
    }

    #[test]
    fn recovery_activity_on_a_fault_free_run_fails_the_gate() {
        let base = sample();
        // A passively mirroring standby (log shipping only) is fine.
        let quiet = base.clone().with("recovery.log_records_shipped", 9_999u64);
        assert!(compare(&base, &quiet, 0.05).passed());
        // Any takeover-side activity is a hard failure regardless of
        // tolerance: the baseline run never crashed its manager.
        for (field, value) in [
            ("recovery.mgr_failovers", 1u64),
            ("recovery.lease_reclaims", 1),
            ("recovery.stale_releases", 1),
            ("recovery.standby_serves", 1),
            ("recovery.takeover_ns", 60_000),
        ] {
            let fresh = base.clone().with(field, value);
            let cmp = compare(&base, &fresh, 0.5);
            assert!(!cmp.passed(), "takeover activity must fail: {field}");
            assert!(
                cmp.regressions.iter().any(|r| r.contains("recovery machinery")),
                "{:?}",
                cmp.regressions
            );
        }
    }

    #[test]
    fn queue_wait_fraction_regression_fails() {
        let at = |f: f64| sample().with("queue.mgr_queue_wait_fraction", f);
        let base = sample();
        let cmp = compare(&base, &at(0.12), 0.05); // 3% -> 12%
        assert!(!cmp.passed());
        assert!(cmp.regressions.iter().any(|r| r.contains("queue-wait")), "{:?}", cmp.regressions);
        // Movement inside relative tolerance + absolute slack passes.
        assert!(compare(&base, &at(0.034), 0.05).passed());
        // A near-zero baseline only trips past the absolute slack.
        assert!(compare(&at(0.0), &at(0.004), 0.05).passed());
        assert!(!compare(&at(0.0), &at(0.02), 0.05).passed());
    }

    #[test]
    fn thread_count_mismatch_is_always_a_failure() {
        let base = sample();
        let fresh = base.clone().with("threads", 8u64);
        let cmp = compare(&base, &fresh, 0.05);
        assert!(!cmp.passed());
        assert!(cmp.regressions[0].contains("thread count"));
    }

    #[test]
    fn message_count_regression_fails() {
        let base = sample();
        let traffic = |update: u64, total: u64| {
            base.clone()
                .with("traffic.classes", classes_with_update(update))
                .with("traffic.total_msgs", total)
        };
        // Update-class chatter doubled: the flush batcher broke.
        let cmp = compare(&base, &traffic(400, 1200), 0.05);
        assert!(!cmp.passed());
        assert!(cmp.regressions.iter().any(|r| r.contains("update msgs")), "{:?}", cmp.regressions);
        assert!(cmp.regressions.iter().any(|r| r.contains("total msgs")), "{:?}", cmp.regressions);
        // A few extra messages inside the absolute slack pass.
        assert!(compare(&base, &traffic(210, 1010), 0.0).passed());
        // Fewer messages are never a regression.
        assert!(compare(&base, &traffic(20, 820), 0.05).passed());
    }

    #[test]
    fn ten_percent_makespan_regression_fails_at_five_percent_tolerance() {
        let base = sample();
        let at = |ns: u64| base.clone().with("makespan_ns", ns);
        let cmp = compare(&base, &at(1_100_000), 0.05);
        assert!(!cmp.passed());
        assert!(cmp.regressions[0].contains("makespan"));
        // The same delta inside tolerance passes.
        assert!(compare(&base, &at(1_040_000), 0.05).passed());
        // Getting faster is never a regression.
        assert!(compare(&base, &at(500_000), 0.05).passed());
    }

    #[test]
    fn sync_fraction_regression_fails() {
        let at = |f: f64| sample().with("sync_fraction", f);
        let cmp = compare(&sample(), &at(0.40), 0.05);
        assert!(!cmp.passed());
        assert!(cmp.regressions[0].contains("sync fraction"));
        // Tiny absolute movement on a near-zero baseline is slack, not a
        // regression.
        assert!(compare(&at(0.0001), &at(0.004), 0.05).passed());
    }

    #[test]
    fn fingerprint_mismatch_is_always_a_failure() {
        let base = sample();
        let fresh = base.clone().with("config_fingerprint", "0000000000000001");
        let cmp = compare(&base, &fresh, 0.05);
        assert!(!cmp.passed());
        assert!(cmp.regressions[0].contains("fingerprint"));
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
