//! Shape assertions for the reproduced figures, at reduced (CI) scale.
//!
//! The paper's qualitative claims are encoded as inequalities on the actual
//! harness output — who wins, how penalties order, where amortization
//! appears — so a regression that breaks an experimental conclusion fails
//! the test suite, not just the eyeball check.

use samhita_bench::ablations;
use samhita_bench::figures;
use samhita_bench::{FigureData, HarnessConfig};

fn quick() -> HarnessConfig {
    HarnessConfig::quick()
}

fn last_y(fig: &FigureData, label: &str) -> f64 {
    fig.series(label)
        .unwrap_or_else(|| panic!("missing series {label}"))
        .points
        .last()
        .expect("points")
        .1
}

fn first_y(fig: &FigureData, label: &str) -> f64 {
    fig.series(label).unwrap_or_else(|| panic!("missing series {label}")).points[0].1
}

/// Fig 3 at paper scale (`results/fig03.csv`): "In the absence of false
/// sharing the time spent in computation for Samhita is very similar to
/// the equivalent Pthread implementation." With local allocation every
/// Samhita point, at every M and P, is the 1-thread Pthreads time exactly.
#[test]
fn fig03_local_allocation_keeps_samhita_at_pthreads_compute() {
    for m in [1, 10, 100] {
        let smh = committed_series("fig03", &format!("smh, M={m}"));
        assert_eq!(smh.len(), 6, "M={m}: one point per P = 1..32");
        for (p, y) in smh {
            assert_eq!(y, 1.0, "local allocation must stay at 1.00: M={m}, P={p}");
        }
    }
}

/// Figs 4–5 at paper scale: "as we increase the amount of compute this
/// cost is amortized." Global (contiguous and strided) allocation shows a
/// false-sharing penalty at M = 1 that M = 10 amortizes at P = 32.
#[test]
fn fig04_fig05_false_sharing_penalty_amortized_by_compute() {
    for id in ["fig04", "fig05"] {
        let at_32 = |m: u32| {
            let series = committed_series(id, &format!("smh, M={m}"));
            series.iter().find(|&&(p, _)| p == 32.0).expect("a point at P = 32").1
        };
        let (m1, m10) = (at_32(1), at_32(10));
        assert!(m1 > m10, "[{id}] M=1 ({m1}) must exceed M=10 ({m10}) at P = 32");
        assert!(m1 > 2.0, "[{id}] M=1 must show a visible penalty, got {m1}");
    }
}

/// Fig 5 against Fig 4 at paper scale: strided access shares more than
/// contiguous blocks — at M = 1 strided is the slower at every P > 1
/// (42.29 against 24.85 at P = 32); at P = 1 nothing is shared and both
/// are the 1-thread time.
#[test]
fn fig05_strided_access_is_worse_than_contiguous_global() {
    let global = committed_series("fig04", "smh, M=1");
    let strided = committed_series("fig05", "smh, M=1");
    assert_eq!(global.len(), strided.len());
    for (&(p, g), &(q, s)) in global.iter().zip(&strided) {
        assert_eq!(p, q, "both sweeps cover the same P");
        if p == 1.0 {
            assert_eq!((g, s), (1.0, 1.0), "P = 1 shares nothing");
        } else {
            assert!(s > g, "P = {p}: strided ({s}) must exceed global ({g})");
        }
    }
}

#[test]
fn fig06_local_compute_time_flat_in_cores_and_linear_in_s() {
    // "compute time per thread does not increase as the number of threads
    //  increases" (local allocation).
    let fig = figures::fig06(&quick());
    for s in [1usize, 2, 4] {
        let series = fig.series(&format!("S = {s}")).expect("series");
        let first = series.points[0].1;
        let last = series.points.last().expect("points").1;
        assert!(
            (last - first).abs() / first < 0.05,
            "S={s}: local compute must be flat in cores ({first} .. {last})"
        );
    }
    // Linear-ish in S: doubling S doubles compute.
    let s1 = first_y(&fig, "S = 1");
    let s4 = first_y(&fig, "S = 4");
    assert!((s4 / s1 - 4.0).abs() < 0.4, "S=4 must cost ~4x S=1, ratio {}", s4 / s1);
}

#[test]
fn fig08_strided_penalty_grows_with_s_and_cores() {
    let fig = figures::fig08(&quick());
    let s1 = last_y(&fig, "S = 1");
    let s4 = last_y(&fig, "S = 4");
    assert!(s4 > s1, "penalty must grow with S");
    let series = fig.series("S = 4").expect("series");
    assert!(
        series.points.last().expect("points").1 > series.points[0].1,
        "penalty must grow with cores"
    );
}

#[test]
fn fig09_mode_ordering_and_s1_equivalence() {
    // "When the number of blocks is one there is no difference in the
    //  access pattern between global and global strided allocations."
    //
    // At quick scale the global-vs-strided gap is comparable to the
    // queueing noise of the conservative-approximate model (manager and
    // memory servers serve requests in physical arrival order; DESIGN.md
    // §2), so a single run can invert the ordering. Assert on per-point
    // medians across repetitions instead of one sample.
    let runs: Vec<_> = (0..5).map(|_| figures::fig09(&quick())).collect();
    let med = |label: &str, pick: fn(&[(f64, f64)]) -> f64| -> f64 {
        let mut ys: Vec<f64> =
            runs.iter().map(|fig| pick(&fig.series(label).expect("series").points)).collect();
        ys.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        ys[ys.len() / 2]
    };
    let first = |pts: &[(f64, f64)]| pts[0].1;
    let last = |pts: &[(f64, f64)]| pts.last().expect("pts").1;
    let g1 = med("global", first);
    let st1 = med("global strided", first);
    assert!((g1 - st1).abs() / g1 < 0.25, "global ({g1}) and strided ({st1}) must coincide at S=1");
    // local <= global <= strided at the largest S.
    let l = med("local", last);
    let g = med("global", last);
    let s = med("global strided", last);
    assert!(l < g, "local ({l}) must beat global ({g})");
    assert!(g < s * 1.05, "global ({g}) must beat strided ({s})");
}

#[test]
fn fig10_sync_time_local_lowest() {
    // "when there is no false sharing (local allocation) the increase in
    //  synchronization cost is hardly noticeable"
    let fig = figures::fig10(&quick());
    let local = last_y(&fig, "local");
    let strided = last_y(&fig, "global strided");
    assert!(local < strided, "local sync ({local}) must be below strided ({strided})");
}

#[test]
fn fig11_samhita_sync_costs_more_than_pthreads_but_not_dramatically() {
    let fig = figures::fig11(&quick());
    let pth = last_y(&fig, "pth_local");
    let smh = last_y(&fig, "smh_local");
    assert!(
        smh > 3.0 * pth,
        "DSM sync ops include consistency work and must cost well above pthreads"
    );
    assert!(smh < 1000.0 * pth, "\"Samhita's synchronization overhead is not exceptionally high\"");
    // And the growth with threads is "not dramatic": superlinear by less
    // than ~4x over the sweep.
    let series = &fig.series("smh_local").expect("series").points;
    let per_core_growth = series.last().expect("pts").1 / series[0].1;
    let core_growth = series.last().expect("pts").0 / series[0].0;
    assert!(per_core_growth < 4.0 * core_growth);
}

/// One series of a committed paper-scale figure, `results/<id>.csv`, as
/// `(x, y)` points in file order. A series label may itself hold commas
/// (`smh, M=1`), so a row is split from the right.
fn committed_series(id: &str, series: &str) -> Vec<(f64, f64)> {
    let path = format!("{}/results/{id}.csv", env!("CARGO_MANIFEST_DIR"));
    let csv = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut rows = csv.lines().filter(|l| !l.starts_with('#'));
    assert_eq!(rows.next(), Some("series,x,y"), "{path}: header");
    let points: Vec<(f64, f64)> = rows
        .filter_map(|row| {
            let mut cols = row.rsplitn(3, ',');
            let (y, x, name) = (cols.next()?, cols.next()?, cols.next()?);
            let num = |v: &str| v.parse::<f64>().unwrap_or_else(|e| panic!("{path}: {row}: {e}"));
            (name == series).then(|| (num(x), num(y)))
        })
        .collect();
    assert!(!points.is_empty(), "{path}: no series {series}");
    points
}

/// Fig 12 at paper scale (1022×1022 grid, `results/fig12.csv`): "good
/// speedup up to 16 processors. And within a node Samhita tracks the
/// Pthread implementation very well." Tracking is read as: every Samhita
/// point up to 8 cores is within 20 % of Pthreads' speed-up at the same
/// core count, and the speed-up grows with every doubling of cores.
#[test]
fn fig12_committed_samhita_speedup_grows_and_tracks_pthreads_within_a_node() {
    let smh = committed_series("fig12", "samhita");
    let pth = committed_series("fig12", "pthreads");
    for pair in smh.windows(2) {
        assert!(pair[1].1 > pair[0].1, "Samhita speed-up must grow with cores: {pair:?}");
    }
    for &(p, y) in pth.iter().filter(|&&(p, _)| p <= 8.0) {
        let (_, s) = *smh.iter().find(|&&(x, _)| x == p).expect("a Samhita point at each P");
        assert!(s >= 0.8 * y, "P = {p}: Samhita {s} is not within 20 % of Pthreads {y}");
    }
}

/// Fig 13 at paper scale (2048 particles, `results/fig13.csv`): "the
/// Samhita implementation tracks the Pthread implementation very closely
/// within a node and continues to scale very well up to 32 cores …
/// applications that are computationally intensive … can easily mask the
/// synchronization overhead." Tracking very closely is read as: every
/// Samhita point up to 8 cores is within 5 % of Pthreads' speed-up at the
/// same core count; scaling very well, as a speed-up that grows with every
/// doubling and reaches 20 at 32 cores.
#[test]
fn fig13_committed_samhita_speedup_tracks_pthreads_closely_and_scales_to_32() {
    let smh = committed_series("fig13", "samhita");
    let pth = committed_series("fig13", "pthreads");
    for &(p, y) in pth.iter().filter(|&&(p, _)| p <= 8.0) {
        let (_, s) = *smh.iter().find(|&&(x, _)| x == p).expect("a Samhita point at each P");
        assert!(s >= 0.95 * y, "P = {p}: Samhita {s} is not within 5 % of Pthreads {y}");
    }
    for pair in smh.windows(2) {
        assert!(pair[1].1 > pair[0].1, "Samhita speed-up must grow with cores: {pair:?}");
    }
    let &(p, top) = smh.last().expect("points");
    assert_eq!(p, 32.0, "the sweep ends at 32 cores");
    assert!(top >= 20.0, "P = 32: Samhita speed-up {top} is below 20");
}

#[test]
fn fig13_md_scales_well_on_samhita() {
    let fig = figures::fig13(&quick());
    let smh = &fig.series("samhita").expect("series").points;
    // Individual points at quick scale carry queueing noise from the
    // conservative-approximate model (physical arrival order at the manager
    // and memory servers; DESIGN.md §2), so assert the scaling trend rather
    // than per-window monotonicity.
    let first = smh[0].1;
    let last = smh.last().expect("pts").1;
    assert!(last > 1.1, "MD must show parallel benefit at the largest P: {smh:?}");
    assert!(last > first * 1.2, "MD speed-up must grow over the sweep: {smh:?}");
    for pair in smh.windows(2) {
        assert!(pair[1].1 > pair[0].1 * 0.6, "MD speed-up must not collapse: {pair:?}");
    }
}

#[test]
fn ablation_scif_beats_verbs_proxy() {
    let fig = ablations::scif(&quick());
    let proxy = last_y(&fig, "verbs proxy");
    let scif = last_y(&fig, "SCIF (§V)");
    assert!(scif < proxy, "SCIF ({scif}) must beat the verbs proxy ({proxy})");
}

#[test]
fn ablation_bypass_reduces_sync_time() {
    let fig = ablations::bypass(&quick());
    let mgr = &fig.series("manager RPCs").expect("series").points;
    let byp = &fig.series("local bypass (§V)").expect("series").points;
    assert_eq!(mgr.len(), byp.len());
    for (&(p, mgr), &(_, byp)) in mgr.iter().zip(byp) {
        assert!(byp < mgr, "P={p}: bypass ({byp}) must reduce sync time vs manager ({mgr})");
    }
}

#[test]
fn ablation_finegrain_beats_whole_page_sync() {
    let fig = ablations::finegrain(&quick());
    let fine = last_y(&fig, "fine-grain (RegC)");
    let whole = last_y(&fig, "whole-page");
    assert!(fine < whole, "fine-grain ({fine}) must move less sync data than whole-page ({whole})");
}

#[test]
fn ablation_striping_relieves_hot_spots() {
    let fig = ablations::stripe(&quick());
    let pts = &fig.series[0].points;
    assert!(
        pts.last().expect("pts").1 < pts[0].1,
        "more memory servers must reduce hot-spot compute time: {pts:?}"
    );
}

#[test]
fn ablation_prefetch_helps_cold_streaming() {
    let fig = ablations::prefetch(&quick());
    let on = first_y(&fig, "prefetch on");
    let off = first_y(&fig, "prefetch off");
    assert!(on < off, "prefetch ({on}) must beat no-prefetch ({off}) on a cold stream");
}
