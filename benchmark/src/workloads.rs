//! The six named workloads: what each runs, on which configuration, and
//! what a correct rep of it must show.

use samhita_core::{FaultConfig, RunReport, SamhitaConfig};
use samhita_kernels::{
    expected_gsum, run_jacobi, run_md, run_micro, serial_reference_jacobi, serial_reference_md,
    AllocMode, JacobiParams, MdParams, MicroParams,
};
use samhita_rt::KernelRt;

/// Names, in the order every table prints them. `BENCHMARK.json` lists them
/// with the reason each is here, all but [`SEED_SENSITIVE`].
pub const NAMES: [&str; 6] = [
    "jacobi_p64",
    "micro_p256",
    "md_p8",
    "jacobi_p8_evict",
    "jacobi_p64_chaos",
    "jacobi_p64_traced",
];

/// The one workload `run` and `check` measure and `BENCHMARK.json` leaves
/// out. Which messages its fault plan hits depends on every scheduling
/// tie-break, so across the seeds the driver draws its virtual makespan
/// moves by 3.4% (8.7% at worst over sets of ten) where the other five move
/// by 0.2% or less, and `BENCHMARK.json` has one bound per metric for all
/// its workloads. At one seed it is exact like the rest, and that is how
/// `check` holds it.
pub const SEED_SENSITIVE: &str = "jacobi_p64_chaos";

#[derive(Clone, Copy, Debug)]
pub enum Kernel {
    Jacobi(JacobiParams),
    Micro(MicroParams),
    Md(MdParams),
}

/// The condition that proves a rep took the code path its workload exists
/// to exercise, so a drifted default cannot pass silently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Guard {
    /// No evictions and no retries.
    Clean,
    /// At least one eviction; no retries.
    Evicts,
    /// At least one injected fault and one retry.
    Faults,
    /// Clean, plus a trace that passes the invariant checker undropped.
    Traced,
}

pub struct Workload {
    pub name: &'static str,
    pub kernel: Kernel,
    pub cfg: SamhitaConfig,
    pub guard: Guard,
}

/// What the program's output must equal.
#[derive(Clone, Copy, Debug)]
pub enum Reference {
    /// FNV-1a over the bit patterns of the serial reference's result array:
    /// jacobi and md are bitwise reproducible at any thread count.
    Exact(u64),
    /// The analytic sum: micro adds per-thread sums in lock-grant order, so
    /// it matches to rounding, not to the bit.
    Close(f64),
}

impl Reference {
    /// `bits` is what [`output_bits`] returned in the child.
    pub fn matches(&self, bits: u64) -> bool {
        match *self {
            Reference::Exact(want) => bits == want,
            Reference::Close(want) => {
                let got = f64::from_bits(bits);
                (got - want).abs() <= 1e-9 * want.abs()
            }
        }
    }
}

/// Build a workload from its name and the run's seed. The seed reaches the
/// simulator only through the fields set here.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let jacobi = |threads| Kernel::Jacobi(JacobiParams { n: 1022, iters: 20, threads });
    let base = |threads: u32| SamhitaConfig {
        max_threads: threads.max(64),
        sched_seed: seed,
        ..SamhitaConfig::default()
    };
    let (kernel, cfg, guard) = match name {
        "jacobi_p64" => (jacobi(64), base(64), Guard::Clean),
        "micro_p256" => (
            Kernel::Micro(MicroParams {
                n_outer: 30,
                m_inner: 10,
                s_rows: 2,
                b_cols: 260,
                mode: AllocMode::Global,
                threads: 256,
            }),
            base(256),
            Guard::Clean,
        ),
        "md_p8" => (
            Kernel::Md(MdParams { n: 2048, steps: 20, dt: 1e-3, threads: 8, seed }),
            base(8),
            Guard::Clean,
        ),
        // 64 lines of 16 KiB = 1 MiB of cache per thread against ~2 MiB of
        // grid rows each thread touches per sweep.
        "jacobi_p8_evict" => {
            (jacobi(8), SamhitaConfig { cache_capacity_lines: 64, ..base(8) }, Guard::Evicts)
        }
        "jacobi_p64_chaos" => (
            jacobi(64),
            SamhitaConfig {
                mem_servers: 2,
                replica_offset: 1,
                manager_standby: true,
                faults: FaultConfig::lossy(seed, 0.03, 0.01, 0.03, 3000),
                ..base(64)
            },
            Guard::Faults,
        ),
        "jacobi_p64_traced" => {
            (jacobi(64), SamhitaConfig { tracing: true, ..base(64) }, Guard::Traced)
        }
        _ => return None,
    };
    let name = NAMES.iter().copied().find(|n| *n == name)?;
    Some(Workload { name, kernel, cfg, guard })
}

/// FNV-1a over 64-bit words (one multiply per double, not per byte: the
/// check must stay small beside a 0.4 s rep).
fn fnv1a_words(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        h ^= v.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The program's output, reduced to one word.
pub enum Output {
    Array(Vec<f64>),
    Sum(f64),
}

pub fn output_bits(out: &Output) -> u64 {
    match out {
        Output::Array(v) => fnv1a_words(v),
        Output::Sum(s) => s.to_bits(),
    }
}

impl Kernel {
    pub fn run(&self, rt: &dyn KernelRt) -> (RunReport, Output) {
        match self {
            Kernel::Jacobi(p) => {
                let r = run_jacobi(rt, p);
                (r.report, Output::Array(r.grid))
            }
            Kernel::Micro(p) => {
                let r = run_micro(rt, p);
                (r.report, Output::Sum(r.gsum))
            }
            Kernel::Md(p) => {
                let r = run_md(rt, p);
                (r.report, Output::Array(r.positions))
            }
        }
    }

    /// Serial reference, computed by the parent once, outside any timed span.
    pub fn reference(&self) -> Reference {
        match self {
            Kernel::Jacobi(p) => {
                Reference::Exact(fnv1a_words(&serial_reference_jacobi(p.n, p.iters)))
            }
            Kernel::Micro(p) => Reference::Close(expected_gsum(p)),
            Kernel::Md(p) => Reference::Exact(fnv1a_words(&serial_reference_md(p))),
        }
    }

    pub fn threads(&self) -> u32 {
        match self {
            Kernel::Jacobi(p) => p.threads,
            Kernel::Micro(p) => p.threads,
            Kernel::Md(p) => p.threads,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            Kernel::Jacobi(_) => "jacobi",
            Kernel::Micro(_) => "micro",
            Kernel::Md(_) => "md",
        }
    }
}

impl Guard {
    /// `Err` names the condition that did not hold. The trace half of
    /// [`Guard::Traced`] is checked where the trace is, in the rep.
    pub fn check(self, report: &RunReport) -> Result<(), String> {
        let evictions = report.total_of(|t| t.evictions);
        let retries = report.total_of(|t| t.retries);
        let faults = report.fabric.total_faults();
        let want = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
        match self {
            Guard::Clean | Guard::Traced => {
                want(evictions == 0, "evictions on a workload whose working set must fit")?;
                want(retries == 0 && faults == 0, "faults or retries on a fault-free workload")
            }
            Guard::Evicts => {
                want(evictions > 0, "no evictions: the cache is no longer too small")?;
                want(retries == 0 && faults == 0, "faults or retries on a fault-free workload")
            }
            Guard::Faults => {
                want(faults > 0, "no faults injected")?;
                want(retries > 0, "no retries: the faults never reached a client")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_a_valid_configuration() {
        for name in NAMES {
            let w = workload(name, 42).expect(name);
            assert_eq!(w.name, name);
            w.cfg.validate().expect(name);
            assert!(w.cfg.max_threads >= w.kernel.threads());
            assert_eq!(w.cfg.tracing, w.guard == Guard::Traced);
        }
        assert!(workload("jacobi_p65", 42).is_none());
    }

    #[test]
    fn the_seed_reaches_scheduler_inputs_and_faults() {
        let a = workload("jacobi_p64_chaos", 1).unwrap();
        let b = workload("jacobi_p64_chaos", 2).unwrap();
        assert_ne!(a.cfg.sched_seed, b.cfg.sched_seed);
        assert_ne!(a.cfg.faults.seed, b.cfg.faults.seed);
        let (Kernel::Md(a), Kernel::Md(b)) =
            (workload("md_p8", 1).unwrap().kernel, workload("md_p8", 2).unwrap().kernel)
        else {
            panic!("md_p8 runs md");
        };
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn references_accept_their_own_output_and_reject_others() {
        let exact = Reference::Exact(fnv1a_words(&[1.0, 2.0]));
        assert!(exact.matches(output_bits(&Output::Array(vec![1.0, 2.0]))));
        assert!(!exact.matches(output_bits(&Output::Array(vec![2.0, 1.0]))));
        let close = Reference::Close(1000.0);
        assert!(close.matches(output_bits(&Output::Sum(1000.0 + 1e-8))));
        assert!(!close.matches(output_bits(&Output::Sum(1000.1))));
    }
}
