//! Property test: no protocol cache ever double-applies.
//!
//! Three layers of idempotency machinery protect the DSM against
//! retransmissions: the memory servers' bounded dedup cache (a replayed
//! update batch is absorbed without re-applying any part), the primary
//! manager's replay cache (a retried acquire can never double-acquire),
//! and the standby's replay cache reconstructed from the shipped log (a
//! request the primary already served is re-answered, never re-applied,
//! after a failover). This suite samples arbitrary interleavings of
//! duplicates, drops, delays, server crashes, and manager crashes over
//! randomized lock/barrier programs, and holds two oracles against every
//! run: the final memory must equal the sequential interpretation (a
//! double-applied accumulator update would break the sum), and the traced
//! protocol timeline must satisfy the RegC invariant checker, whose
//! diff-byte conservation identity catches a double-applied batch on the
//! server side even when the value happens to survive.

mod common;

use common::{generate, interpret, run_on_dsm};
use proptest::prelude::*;
use samhita_repro::core::{FaultConfig, Samhita, SamhitaConfig, TopologyKind};

/// Build the six-node replicated cluster with the sampled fault schedule.
/// Manager crashes require the hot standby; it is only enabled when the
/// schedule can use it, so the plain configurations also stay covered.
fn cluster(faults: FaultConfig) -> SamhitaConfig {
    SamhitaConfig {
        manager_standby: faults.mgr_crash.is_some(),
        mem_servers: 2,
        replica_offset: 1,
        topology: TopologyKind::Cluster { nodes: 6 },
        tracing: true,
        faults,
        ..SamhitaConfig::default()
    }
}

proptest! {
    /// Arbitrary dup/drop/delay mixes, with one of four crash shapes laid
    /// on top: none, a memory-server crash, a manager crash, or both.
    #[test]
    fn caches_never_double_apply_under_dup_retry_and_failover(
        seed in 1u64..1 << 48,
        drop_pm in 0u32..100,     // ‰ drop rate: 0–10%
        dup_pm in 0u32..200,      // ‰ duplicate rate: 0–20%
        delay_pm in 0u32..100,    // ‰ delay rate: 0–10%
        crash_kind in 0u32..4,
        crash_at in 20_000u64..90_000,
        threads in 2u32..5,
    ) {
        let mut faults = FaultConfig::lossy(
            seed,
            f64::from(drop_pm) / 1000.0,
            f64::from(dup_pm) / 1000.0,
            f64::from(delay_pm) / 1000.0,
            4_000,
        );
        // Crash server 1 (the replicated data home) and/or the primary
        // manager mid-run, so dup/retry interleavings cross the failover.
        if crash_kind & 1 != 0 {
            faults.crash = Some((1, crash_at));
        }
        if crash_kind & 2 != 0 {
            faults.mgr_crash = Some(crash_at + 7_000);
        }
        let phases = generate(seed, threads, 3);
        let (want_slots, want_accs) = interpret(&phases, threads);
        let sys = Samhita::new(cluster(faults));
        let (slots, accs, report) = run_on_dsm(&sys, &phases, threads);

        // Value oracle: a double-applied lock-protected update would break
        // the accumulator sums; a double-applied ordinary write batch could
        // resurrect an overwritten slot value.
        prop_assert_eq!(slots, want_slots, "slots diverged (seed {seed}, crash {crash_kind})");
        prop_assert_eq!(accs, want_accs, "accumulators diverged (seed {seed}, crash {crash_kind})");
        if crash_kind & 2 != 0 {
            // The manager crash landed mid-run only if some thread re-homed;
            // either way the run completed and both oracles held. When it
            // did land, the failover must have been counted exactly once
            // per re-homed thread.
            prop_assert!(report.mgr_failovers() <= u64::from(threads));
        }

        // Conservation oracle: every diff byte a client flushed was applied
        // exactly once server-side; every fine-grain update notice matches
        // an application. A replayed batch that re-applied any part would
        // break these identities even where the value oracle cannot see it.
        let trace = sys.take_trace().expect("tracing was enabled");
        let summary = trace.check_invariants().unwrap_or_else(|e| {
            panic!("seed {seed} crash {crash_kind}: RegC invariant violated: {e:?}")
        });
        prop_assert!(summary.diff_bytes > 0, "the run must have flushed (and conserved) diffs");
    }
}
