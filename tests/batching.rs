//! The batching acceptance property, asserted on a real protocol trace:
//! every sync-time flush sends **at most one** update message per
//! destination memory server — message count per sync operation is
//! O(servers), not O(dirty pages).
//!
//! The thread track records one `BatchFlush { server, .. }` per update
//! message sent, stamped *before* the sync marker (`LockRequest`,
//! `LockRelease`, `BarrierArrive`) of the operation that flushed it. So
//! splitting a thread's event stream into windows at those markers and
//! counting `BatchFlush` events per server inside each window checks the
//! property exactly — for every sync operation of every thread.

use std::collections::BTreeMap;

use samhita_repro::core::{SamhitaConfig, TopologyKind};
use samhita_repro::kernels::{run_jacobi, run_micro, AllocMode, JacobiParams, MicroParams};
use samhita_repro::rt::SamhitaRt;
use samhita_repro::scl::MsgClass;
use samhita_repro::trace::{EventKind, TrackId};

/// A multi-server cluster so the per-server split is actually exercised
/// (page homes stripe across two servers), with tracing on and the default
/// cache capacity (no evictions: eviction batches are not sync flushes and
/// would muddy the windows).
fn traced_cluster() -> SamhitaConfig {
    SamhitaConfig {
        mem_servers: 2,
        topology: TopologyKind::Cluster { nodes: 6 },
        tracing: true,
        ..SamhitaConfig::default()
    }
}

/// Split one thread's events into sync windows and count update messages
/// per server in each; panic on the first window that sends two messages
/// to the same server. Returns (windows with at least one flush, total
/// batch messages).
fn check_thread_windows(tid: u32, events: &[samhita_repro::trace::TraceEvent]) -> (u64, u64) {
    let mut per_server: BTreeMap<u32, u64> = BTreeMap::new();
    let mut windows_with_flush = 0u64;
    let mut total_batches = 0u64;
    let mut window = 0u64;
    for e in events {
        match &e.kind {
            EventKind::BatchFlush { server, parts, bytes } => {
                assert!(*parts > 0, "thread {tid}: empty batch sent to server {server}");
                assert!(*bytes > 0);
                total_batches += 1;
                let n = per_server.entry(*server).or_default();
                *n += 1;
                assert!(
                    *n <= 1,
                    "thread {tid}, sync window {window}: {n} update messages \
                     to server {server} — flushes must coalesce to one"
                );
            }
            // Sync markers close the window that their flush populated.
            EventKind::LockRequest { .. }
            | EventKind::LockRelease { .. }
            | EventKind::BarrierArrive { .. } => {
                if !per_server.is_empty() {
                    windows_with_flush += 1;
                }
                per_server.clear();
                window += 1;
            }
            _ => {}
        }
    }
    (windows_with_flush, total_batches)
}

#[test]
fn flush_all_sends_at_most_one_message_per_server_per_sync_op() {
    let cfg = traced_cluster();
    let rt = SamhitaRt::new(cfg);
    run_jacobi(&rt, &JacobiParams { n: 24, iters: 4, threads: 3 });
    let trace = rt.take_trace().expect("tracing was enabled");

    let mut flush_windows = 0u64;
    let mut batches = 0u64;
    let mut threads = 0u32;
    for (track, events) in &trace.tracks {
        let TrackId::Thread(tid) = *track else { continue };
        threads += 1;
        let (w, b) = check_thread_windows(tid, events);
        flush_windows += w;
        batches += b;
    }
    assert_eq!(threads, 3, "every compute thread must contribute a track");
    assert!(flush_windows > 0, "a Jacobi run must flush at sync operations");
    assert!(batches > 0, "flushes must travel as update batches");
}

#[test]
fn false_sharing_flushes_coalesce_across_pages() {
    // The micro benchmark in Global mode is the paper's false-sharing
    // worst case: several threads dirty several pages between every sync
    // op. Exactly the workload where per-page messages exploded.
    let cfg = traced_cluster();
    let rt = SamhitaRt::new(cfg);
    let p = MicroParams {
        n_outer: 3,
        m_inner: 4,
        s_rows: 2,
        b_cols: 96,
        mode: AllocMode::Global,
        threads: 3,
    };
    run_micro(&rt, &p);
    let trace = rt.take_trace().expect("tracing was enabled");

    let mut multi_part = false;
    for (track, events) in &trace.tracks {
        let TrackId::Thread(tid) = *track else { continue };
        check_thread_windows(tid, events);
        multi_part |= events
            .iter()
            .any(|e| matches!(e.kind, EventKind::BatchFlush { parts, .. } if parts > 1));
    }
    assert!(
        multi_part,
        "a false-sharing run must coalesce several per-page updates into one batch"
    );
}

/// Updates are one-way: in a fault-free, unreplicated run every
/// Update-class message on the wire is a batch a thread sent, because a
/// home answers only what its requester blocks on. The host's writes
/// (`Samhita::write_global`) block on their answers, and still get them.
#[test]
fn every_update_message_is_a_batch_a_thread_sent() {
    for kernel in ["jacobi", "micro"] {
        let rt = SamhitaRt::new(traced_cluster());
        let sys = rt.system();
        let host = sys.alloc_global(16);
        sys.write_global(host, &[7; 16]);
        let report = match kernel {
            "jacobi" => run_jacobi(&rt, &JacobiParams { n: 24, iters: 4, threads: 3 }).report,
            _ => run_micro(&rt, &MicroParams::paper(2, 2, AllocMode::Global, 3)).report,
        };
        let trace = rt.take_trace().expect("tracing was enabled");
        let batches = (trace.tracks.iter())
            .filter(|(track, _)| matches!(track, TrackId::Thread(_)))
            .flat_map(|(_, events)| events)
            .filter(|e| matches!(e.kind, EventKind::BatchFlush { .. }))
            .count() as u64;
        assert!(batches > 0, "{kernel}: a run that writes flushes batches");
        assert_eq!(report.fabric.msgs(MsgClass::Update), batches, "{kernel}");
        let mut back = [0; 16];
        sys.read_global(host, &mut back);
        assert_eq!(back, [7; 16], "{kernel}: the host's write reached its home");
    }
}
