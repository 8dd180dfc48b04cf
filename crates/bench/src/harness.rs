//! Shared harness types: scales, figure data, CSV/tabular output.

use samhita_core::{RunReport, SamhitaConfig};
use samhita_kernels::{
    run_jacobi, run_md, run_micro, AllocMode, JacobiParams, MdParams, MicroParams,
};
use samhita_rt::SamhitaRt;
use samhita_trace::{RunTrace, ServiceCosts};

/// One-run diagnostic block: the compute/sync split as a ratio, the
/// per-thread skew, and the three stall-latency histograms. Printed by the
/// examples and `trace-dump` after each traced run.
pub fn run_summary(report: &RunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  makespan          {}  ({} threads)\n",
        report.makespan,
        report.threads.len()
    ));
    out.push_str(&format!("  sync fraction     {:.1}%\n", report.sync_fraction() * 100.0));
    out.push_str(&format!("  compute imbalance {:.3}x (max/mean)\n", report.compute_imbalance()));
    out.push_str(&format!("  fetch stalls      {}\n", report.fetch_latency().summary()));
    out.push_str(&format!("  lock waits        {}\n", report.lock_wait().summary()));
    out.push_str(&format!("  barrier waits     {}\n", report.barrier_wait().summary()));
    // Per-class fabric traffic plus the per-sync-op message rate — the
    // flush-batching signal (O(servers) batched, O(dirty pages) not).
    let cells: Vec<String> = samhita_scl::MsgClass::ALL
        .iter()
        .map(|&c| format!("{} {}/{}B", c.label(), report.fabric.msgs(c), report.fabric.bytes(c)))
        .collect();
    out.push_str(&format!("  fabric msgs       {}\n", cells.join(", ")));
    out.push_str(&format!(
        "  msgs per sync op  {:.2}  ({} sync ops)\n",
        report.msgs_per_sync_op(),
        report.sync_ops()
    ));
    // Host-side cost of producing the run: wall time and simulated-event
    // throughput. Always printed — this is the one line on the *host*
    // clock, and it reads 0 only for reports built by hand. The RSS figure
    // is the process's high-water mark (`VmHWM`), not this run's own peak:
    // it only ever grows across the runs one process makes.
    let host_ns = report.host_wall_ns.get();
    let events = report.fabric.total_msgs();
    let events_per_sec = if host_ns == 0 { 0.0 } else { events as f64 / (host_ns as f64 / 1e9) };
    out.push_str(&format!(
        "  host              {:.3}s wall, {:.0} simulated events/s, process RSS high-water {} MiB\n",
        host_ns as f64 / 1e9,
        events_per_sec,
        samhita_prof::peak_rss_bytes() >> 20
    ));
    // Service-side utilization rides on the always-on busy accounting; a
    // native (non-DSM) run has no services and skips the lines entirely.
    if report.layout.is_some() {
        out.push_str(&format!("  manager util      {:.1}%\n", report.mgr_utilization() * 100.0));
        let per_server: Vec<String> =
            report.server_utilization().iter().map(|u| format!("{:.1}%", u * 100.0)).collect();
        out.push_str(&format!("  mem-server util   {}\n", per_server.join(" ")));
        // Where all thread-time went: the five disjoint measured wait
        // classes plus derived compute and idle — sums to threads×makespan
        // exactly (the conservation identity the accounting tests pin).
        let b = report.wait_breakdown();
        if b.total_ns > 0 {
            let pct = |ns: u64| ns as f64 * 100.0 / b.total_ns as f64;
            out.push_str(&format!(
                "  time breakdown    compute {:.1}% / fetch {:.1}% / lock {:.1}% / \
                 barrier {:.1}% / mgr {:.1}% / flush {:.1}% / idle {:.1}%\n",
                pct(b.compute_ns),
                pct(b.fetch_ns),
                pct(b.lock_ns),
                pct(b.barrier_ns),
                pct(b.mgr_ns),
                pct(b.flush_ns),
                pct(b.idle_ns)
            ));
        }
        // Manager queue pressure — "the manager is the wall", measured.
        if report.mgr_requests > 0 {
            out.push_str(&format!(
                "  mgr queue         wait {:.2}% of thread-time, mean depth {:.2}, \
                 peak {}, {} requests\n",
                report.mgr_queue_wait_fraction() * 100.0,
                report.mgr_mean_queue_depth(),
                report.mgr_peak_queue_depth,
                report.mgr_requests
            ));
        }
        let server_qwait: u64 = report.server_queue_wait_ns.iter().sum();
        if server_qwait > 0 {
            out.push_str(&format!(
                "  server queues     wait {server_qwait}ns total, peak depth {}\n",
                report.server_peak_queue_depth.iter().copied().max().unwrap_or(0)
            ));
        }
    }
    // Top pages by coherence churn, with their allocation sites — the
    // false-sharing culprits, printed without any flag.
    let hot = report.hotspots();
    let top = hot.top_churn(3);
    if !top.is_empty() {
        out.push_str("  hot pages         ");
        let cells: Vec<String> = top
            .iter()
            .map(|(page, c)| {
                format!(
                    "page {page} [{}] {} refetch / {} inval / {} twin",
                    report.site_label(*page),
                    c.refetches,
                    c.invalidations,
                    c.twins
                )
            })
            .collect();
        out.push_str(&cells.join(", "));
        out.push('\n');
    }
    let retries = report.total_of(|t| t.retries);
    let failovers = report.total_of(|t| t.failovers);
    if report.fabric.total_faults() > 0 || retries > 0 || failovers > 0 {
        out.push_str(&format!(
            "  faults injected   {} dropped, {} duplicated, {} delayed\n",
            report.fabric.total_drops(),
            report.fabric.total_dups(),
            report.fabric.total_delays(),
        ));
        out.push_str(&format!("  recovery          {retries} retries, {failovers} failovers\n"));
    }
    // Manager replication and crash recovery: shipped-log volume when a hot
    // standby mirrors the primary, and the takeover story when it fired.
    if report.log_records_shipped > 0 || report.takeover_ns > 0 {
        out.push_str(&format!(
            "  mgr replication   {} log records shipped\n",
            report.log_records_shipped
        ));
    }
    if report.takeover_ns > 0 {
        out.push_str(&format!(
            "  mgr failover      takeover at {}ns, {} threads re-homed, {} standby serves, \
             {} leases reclaimed, {} stale releases\n",
            report.takeover_ns,
            report.mgr_failovers(),
            report.standby_serves,
            report.lease_reclaims,
            report.stale_releases
        ));
    }
    out
}

/// One labelled series of a figure.
#[derive(Clone, Debug)]
pub struct Series {
    pub label: String,
    /// (x, y) points in x order.
    pub points: Vec<(f64, f64)>,
}

/// One regenerated figure.
#[derive(Clone, Debug)]
pub struct FigureData {
    /// Identifier, e.g. `"fig03"` or `"ablation-prefetch"`.
    pub id: String,
    pub title: String,
    pub xlabel: String,
    pub ylabel: String,
    pub series: Vec<Series>,
}

impl FigureData {
    /// Render as CSV (`series,x,y` rows with a commented header).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}: {}\n", self.id, self.title));
        out.push_str(&format!("# x = {}, y = {}\n", self.xlabel, self.ylabel));
        out.push_str("series,x,y\n");
        for s in &self.series {
            for &(x, y) in &s.points {
                out.push_str(&format!("{},{},{}\n", s.label, x, y));
            }
        }
        out
    }

    /// Render as an aligned text table for the terminal.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&format!("   ({} vs {})\n", self.ylabel, self.xlabel));
        // Union of x values across series, in order.
        let mut xs: Vec<f64> = Vec::new();
        for s in &self.series {
            for &(x, _) in &s.points {
                if !xs.contains(&x) {
                    xs.push(x);
                }
            }
        }
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite x"));
        out.push_str(&format!("{:>24}", "x"));
        for &x in &xs {
            out.push_str(&format!("{x:>12}"));
        }
        out.push('\n');
        for s in &self.series {
            out.push_str(&format!("{:>24}", s.label));
            for &x in &xs {
                match s.points.iter().find(|&&(px, _)| px == x) {
                    Some(&(_, y)) if y != 0.0 && y.abs() < 0.01 => {
                        out.push_str(&format!("{y:>12.3e}"))
                    }
                    Some(&(_, y)) => out.push_str(&format!("{y:>12.4}")),
                    None => out.push_str(&format!("{:>12}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Look up a series by label (tests).
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

/// Sweep scales: the paper's parameters, or a reduced scale for CI.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Pthreads core counts (the paper's node had 8 cores).
    pub pth_cores: Vec<u32>,
    /// Samhita core counts (up to 32 across four compute nodes).
    pub smh_cores: Vec<u32>,
    /// Micro-benchmark constants.
    pub n_outer: usize,
    pub b_cols: usize,
    /// The `M` sweep of Figures 3–5.
    pub m_values: Vec<usize>,
    /// The `S` sweep of Figures 6–10.
    pub s_values: Vec<usize>,
    /// Fixed `M` for Figures 6–11.
    pub m_fixed: usize,
    /// Fixed `S` for Figures 3–5 and 11.
    pub s_fixed: usize,
    /// Thread count for Figures 9–10.
    pub p_fixed: u32,
    /// Jacobi interior grid size and sweeps (Figure 12).
    pub jacobi_n: usize,
    pub jacobi_iters: usize,
    /// MD particle count and steps (Figure 13).
    pub md_n: usize,
    pub md_steps: usize,
    /// Base Samhita configuration (the paper's cluster).
    pub base: SamhitaConfig,
}

impl HarnessConfig {
    /// The paper's scales.
    pub fn paper() -> Self {
        HarnessConfig {
            pth_cores: vec![1, 2, 4, 8],
            smh_cores: vec![1, 2, 4, 8, 16, 32],
            n_outer: 10,
            b_cols: 260,
            m_values: vec![1, 10, 100],
            s_values: vec![1, 2, 4, 8],
            m_fixed: 10,
            s_fixed: 2,
            p_fixed: 16,
            jacobi_n: 1022,
            jacobi_iters: 20,
            md_n: 2048,
            md_steps: 5,
            base: SamhitaConfig::default(),
        }
    }

    /// A reduced scale for CI: same shapes, seconds not minutes.
    pub fn quick() -> Self {
        HarnessConfig {
            pth_cores: vec![1, 2, 4],
            smh_cores: vec![1, 2, 4, 8],
            n_outer: 4,
            // Scale the paper's geometry down 4x in both row length and
            // page size: a row stays ~half a page, so the false-sharing
            // contrast between the three modes is preserved.
            b_cols: 68,
            m_values: vec![1, 10],
            s_values: vec![1, 2, 4],
            m_fixed: 10,
            s_fixed: 2,
            p_fixed: 4,
            jacobi_n: 62,
            jacobi_iters: 6,
            md_n: 256,
            md_steps: 3,
            base: SamhitaConfig { page_size: 1024, ..SamhitaConfig::default() },
        }
    }
}

/// The configuration every `bench-report` point runs under: `q`'s base with
/// tracing on and enough per-thread arenas for the largest requested run.
/// The default provisioning (64) covers the committed baselines, so
/// regenerating them never changes the fingerprint.
pub fn report_config(q: &HarnessConfig, max_threads: u32) -> SamhitaConfig {
    SamhitaConfig {
        tracing: true,
        max_threads: q.base.max_threads.max(max_threads),
        ..q.base.clone()
    }
}

/// The kernels of [`report_kernels`], by name: the one list `bench-report`,
/// `critpath`, `trace-dump` and `chaos-sweep` accept as `--kernel`.
pub const KERNELS: [&str; 3] = ["micro", "jacobi", "md"];

/// What one [`report_kernels`] point produced.
pub struct KernelPoint {
    /// The kernel's parameters, as fingerprinted into a report.
    pub params: String,
    /// The run's report.
    pub report: RunReport,
    /// The kernel's final shared memory: the jacobi grid, the micro global
    /// sum, the md positions (what `chaos-sweep` fingerprints).
    pub memory: Vec<f64>,
}

/// The kernels `bench-report` measures, each parameterized by thread count at
/// the quick scale — the one `(kernel, P)` problem table of the harness tools.
/// Jacobi and MD require at least one row / particle per thread, so their
/// problem sizes grow with P when P exceeds the quick scale; any `P >= 1` is
/// a valid point of every kernel.
#[allow(clippy::type_complexity)]
pub fn report_kernels(
    q: &HarnessConfig,
) -> Vec<(&'static str, Box<dyn Fn(&SamhitaRt, u32) -> KernelPoint + '_>)> {
    vec![
        (
            "micro",
            Box::new(|rt, threads| {
                let p = MicroParams {
                    n_outer: q.n_outer,
                    m_inner: q.m_fixed,
                    s_rows: q.s_fixed,
                    b_cols: q.b_cols,
                    mode: AllocMode::Global,
                    threads,
                };
                let r = run_micro(rt, &p);
                KernelPoint { params: format!("{p:?}"), report: r.report, memory: vec![r.gsum] }
            }),
        ),
        (
            "jacobi",
            Box::new(|rt, threads| {
                let n = q.jacobi_n.max(threads as usize);
                let p = JacobiParams { n, iters: q.jacobi_iters, threads };
                let r = run_jacobi(rt, &p);
                KernelPoint { params: format!("{p:?}"), report: r.report, memory: r.grid }
            }),
        ),
        (
            "md",
            Box::new(|rt, threads| {
                let n = q.md_n.max(threads as usize);
                let p = MdParams { n, steps: q.md_steps, dt: 1e-3, threads, seed: 42 };
                let r = run_md(rt, &p);
                KernelPoint { params: format!("{p:?}"), report: r.report, memory: r.positions }
            }),
        ),
    ]
}

/// Run `kernel`'s point at `threads` on `rt`.
///
/// # Panics
/// Panics unless `kernel` is one of [`KERNELS`] (the tools check while
/// parsing: `cli::kernel_arg`).
pub fn run_kernel(q: &HarnessConfig, kernel: &str, rt: &SamhitaRt, threads: u32) -> KernelPoint {
    let kernels = report_kernels(q);
    let (_, run) = kernels.iter().find(|(name, _)| *name == kernel).expect("a kernel of KERNELS");
    run(rt, threads)
}

/// What `critpath` and `trace-dump` look at: `kernel`'s point at `threads`
/// run exactly as `bench-report` runs it — the quick scale under
/// [`report_config`] — so `--kernel jacobi --threads 64` is the very run
/// whose `BENCH_jacobi_p64.json` is committed. Returns the configuration's
/// service costs, the run's report and its trace.
pub fn traced_point(kernel: &str, threads: u32) -> (ServiceCosts, RunReport, RunTrace) {
    let q = HarnessConfig::quick();
    let cfg = report_config(&q, threads);
    let costs = cfg.service_costs();
    let rt = SamhitaRt::new(cfg);
    let report = run_kernel(&q, kernel, &rt, threads).report;
    (costs, report, rt.take_trace().expect("tracing was enabled"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureData {
        FigureData {
            id: "fig00".into(),
            title: "sample".into(),
            xlabel: "cores".into(),
            ylabel: "time".into(),
            series: vec![
                Series { label: "a".into(), points: vec![(1.0, 2.0), (2.0, 3.0)] },
                Series { label: "b".into(), points: vec![(1.0, 5.0)] },
            ],
        }
    }

    #[test]
    fn csv_contains_all_points() {
        let csv = sample().to_csv();
        assert!(csv.contains("a,1,2"));
        assert!(csv.contains("a,2,3"));
        assert!(csv.contains("b,1,5"));
        assert!(csv.starts_with("# fig00"));
    }

    #[test]
    fn table_renders_missing_points_as_dash() {
        let table = sample().to_table();
        assert!(table.contains("fig00"));
        assert!(table.contains('-'), "series b has no x=2 point");
    }

    #[test]
    fn series_lookup() {
        let f = sample();
        assert_eq!(f.series("a").unwrap().points.len(), 2);
        assert!(f.series("zz").is_none());
    }

    #[test]
    fn the_kernel_list_names_the_problem_table() {
        let q = HarnessConfig::quick();
        let names: Vec<&str> = report_kernels(&q).iter().map(|(name, _)| *name).collect();
        assert_eq!(names, KERNELS);
    }

    #[test]
    fn large_thread_counts_get_their_arenas_and_small_ones_keep_the_fingerprint() {
        let q = HarnessConfig::quick();
        assert_eq!(report_config(&q, 256).max_threads, 256);
        assert_eq!(report_config(&q, 8).max_threads, q.base.max_threads);
    }

    #[test]
    fn scales_are_consistent() {
        for cfg in [HarnessConfig::paper(), HarnessConfig::quick()] {
            assert!(!cfg.pth_cores.is_empty());
            assert!(cfg.smh_cores.iter().all(|&c| c <= 32));
            assert!(cfg.m_values.contains(&1));
            cfg.base.validate().expect("harness base configs are valid");
        }
    }
}
