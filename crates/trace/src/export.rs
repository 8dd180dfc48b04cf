//! Trace exporters: JSONL and Chrome trace-event JSON.
//!
//! The one place outside [`crate::json`] that writes JSON text: the JSONL
//! lines are the trace-checksum basis and a Chrome export runs to hundreds of
//! thousands of records, so both stream their bytes directly instead of
//! building a value tree. The vocabulary keeps that safe — every string
//! written is a static identifier from the event vocabulary or a track
//! label, none of which contain characters needing escapes — and the tests
//! (and the `trace-dump` tool) run the output through
//! [`crate::json::validate_json`] anyway.
//!
//! The Chrome format targets Perfetto / `chrome://tracing`: one track per
//! compute thread plus manager / memory-server / fabric tracks, named via
//! `"M"` metadata records. Events that close a stall interval (fetch waits,
//! lock waits, barrier waits, manager RPCs) are rendered as `"X"` complete
//! spans covering the wait; everything else is an `"i"` instant. The causal
//! form ([`RunTrace::to_chrome_json_with`]) is the same body plus what the
//! critical path's index knows: tiled thread windows, serve slices on the
//! service tracks, and flow arrows from each stall to what ended it.

use crate::critpath::{Index, PathClass, Stall, ThreadWindow, WaitKind};
use crate::event::{EventKind, TraceEvent, TrackId};
use crate::metrics::ServiceCosts;
use crate::tracer::RunTrace;

/// (key, already-valid-JSON-value) argument pairs for one event.
fn args_of(kind: &EventKind) -> Vec<(&'static str, String)> {
    fn s(v: &str) -> String {
        format!("\"{v}\"")
    }
    match kind {
        EventKind::Fetch { page, pages, kind, wait_ns } => vec![
            ("page", page.to_string()),
            ("pages", pages.to_string()),
            ("kind", s(kind.label())),
            ("wait_ns", wait_ns.to_string()),
        ],
        EventKind::PrefetchIssue { page, pages } => {
            vec![("page", page.to_string()), ("pages", pages.to_string())]
        }
        EventKind::TwinCreate { page } => vec![("page", page.to_string())],
        EventKind::DiffFlush { page, bytes } | EventKind::FineFlush { page, bytes } => {
            vec![("page", page.to_string()), ("bytes", bytes.to_string())]
        }
        EventKind::Invalidate { page, writer } => {
            vec![("page", page.to_string()), ("writer", writer.to_string())]
        }
        EventKind::Evict { line, dirty_pages } => {
            vec![("line", line.to_string()), ("dirty_pages", dirty_pages.to_string())]
        }
        EventKind::LockRequest { lock } | EventKind::LockRelease { lock } => {
            vec![("lock", lock.to_string())]
        }
        EventKind::LockAcquire { lock, wait_ns } => {
            vec![("lock", lock.to_string()), ("wait_ns", wait_ns.to_string())]
        }
        EventKind::BarrierArrive { barrier } => vec![("barrier", barrier.to_string())],
        EventKind::BarrierRelease { barrier, wait_ns } => {
            vec![("barrier", barrier.to_string()), ("wait_ns", wait_ns.to_string())]
        }
        EventKind::MgrRpc { op, wait_ns } => {
            vec![("op", s(op)), ("wait_ns", wait_ns.to_string())]
        }
        EventKind::MgrServe { op, tid } => {
            vec![("op", s(op)), ("tid", tid.to_string())]
        }
        EventKind::ApplyDiff { page, bytes } | EventKind::ApplyFine { page, bytes } => {
            vec![("page", page.to_string()), ("bytes", bytes.to_string())]
        }
        EventKind::ServeFetch { page, pages } => {
            vec![("page", page.to_string()), ("pages", pages.to_string())]
        }
        EventKind::ServeWrite { page } => vec![("page", page.to_string())],
        EventKind::FabricSend { src, dst, class, bytes } => vec![
            ("src", src.to_string()),
            ("dst", dst.to_string()),
            ("class", s(class.label())),
            ("bytes", bytes.to_string()),
        ],
        EventKind::FaultInjected { src, dst, kind } => {
            vec![("src", src.to_string()), ("dst", dst.to_string()), ("kind", s(kind))]
        }
        EventKind::Retry { op, attempt } => {
            vec![("op", s(op)), ("attempt", attempt.to_string())]
        }
        EventKind::Failover { from, to } => {
            vec![("from", from.to_string()), ("to", to.to_string())]
        }
        EventKind::BatchFlush { server, parts, bytes } => vec![
            ("server", server.to_string()),
            ("parts", parts.to_string()),
            ("bytes", bytes.to_string()),
        ],
        EventKind::MgrFailover { op } => vec![("op", s(op))],
        EventKind::LeaseReclaim { lock, holder } => {
            vec![("lock", lock.to_string()), ("holder", holder.to_string())]
        }
    }
}

/// Coarse category for the Chrome `cat` field, so Perfetto can filter.
fn category(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::Fetch { .. }
        | EventKind::PrefetchIssue { .. }
        | EventKind::Evict { .. }
        | EventKind::ServeFetch { .. }
        | EventKind::ServeWrite { .. } => "mem",
        EventKind::TwinCreate { .. }
        | EventKind::DiffFlush { .. }
        | EventKind::FineFlush { .. }
        | EventKind::Invalidate { .. }
        | EventKind::ApplyDiff { .. }
        | EventKind::ApplyFine { .. }
        | EventKind::BatchFlush { .. } => "regc",
        EventKind::LockRequest { .. }
        | EventKind::LockAcquire { .. }
        | EventKind::LockRelease { .. }
        | EventKind::BarrierArrive { .. }
        | EventKind::BarrierRelease { .. } => "sync",
        EventKind::MgrRpc { .. } | EventKind::MgrServe { .. } => "mgr",
        EventKind::FabricSend { .. } => "fabric",
        EventKind::FaultInjected { .. }
        | EventKind::Retry { .. }
        | EventKind::Failover { .. }
        | EventKind::MgrFailover { .. }
        | EventKind::LeaseReclaim { .. } => "fault",
    }
}

fn args_json(kind: &EventKind) -> String {
    let body: Vec<String> =
        args_of(kind).into_iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

impl RunTrace {
    /// Export as JSON Lines: one event per line, tracks in order, each line
    /// a flat object `{"track": …, "at_ns": …, "event": …, <args>}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (track, events) in &self.tracks {
            for TraceEvent { at, kind } in events {
                out.push_str(&format!(
                    "{{\"track\":\"{}\",\"at_ns\":{},\"event\":\"{}\"",
                    track.label(),
                    at.as_ns(),
                    kind.name()
                ));
                for (k, v) in args_of(kind) {
                    out.push_str(&format!(",\"{k}\":{v}"));
                }
                out.push_str("}\n");
            }
        }
        out
    }

    /// Export as Chrome trace-event JSON (the "JSON object format"), which
    /// opens directly in Perfetto and `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        self.chrome_json(None)
    }

    /// Export as Chrome trace-event JSON **with causality**, drawn from the
    /// critical path's own index: every thread window is fully tiled with
    /// `"X"` slices (compute gaps and the stalls, clipped to the window),
    /// every reconstructed manager/server serve is an `"X"` slice on *its
    /// own* track, and for every stall the hops the critical-path walk
    /// would take out of it are Perfetto flow arrows (`"ph":"s"` /
    /// `"ph":"f"` pairs sharing an `id`): request and response of the serve
    /// the stall rode, and the lock hand-off or barrier last arrival it
    /// really waited on. Non-stall events remain `"i"` instants.
    ///
    /// [`RunTrace::to_jsonl`] (the checksum basis) and the plain
    /// [`RunTrace::to_chrome_json`] are untouched by this richer export.
    pub fn to_chrome_json_with(&self, windows: &[ThreadWindow], costs: &ServiceCosts) -> String {
        self.chrome_json(Some((windows, costs)))
    }

    fn chrome_json(&self, causal: Option<(&[ThreadWindow], &ServiceCosts)>) -> String {
        let mut records: Vec<String> = Vec::with_capacity(self.len() + self.tracks.len() + 1);
        records.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"samhita\"}}"
                .to_string(),
        );
        for (track, _) in &self.tracks {
            records.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                track.chrome_tid(),
                track.label()
            ));
        }
        if let Some((windows, costs)) = causal {
            self.causal_records(windows, costs, &mut records);
        }
        for (track, events) in &self.tracks {
            let tid = track.chrome_tid();
            for TraceEvent { at, kind } in events {
                let rec = match kind.wait_ns() {
                    // The causal layer already drew this stall as a tile.
                    Some(wait_ns) if causal.is_some() && wait_ns > 0 => continue,
                    // A stall interval: a complete span ending at the stamp.
                    Some(wait_ns) => slice(
                        kind.name(),
                        category(kind),
                        tid,
                        at.as_ns().saturating_sub(wait_ns),
                        wait_ns,
                        &args_json(kind),
                    ),
                    None => format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\
                         \"pid\":0,\"tid\":{tid},\"ts\":{:.3},\"s\":\"t\",\
                         \"args\":{}}}",
                        kind.name(),
                        category(kind),
                        us(at.as_ns()),
                        args_json(kind)
                    ),
                };
                records.push(rec);
            }
        }
        format!("{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n", records.join(",\n"))
    }

    /// The causal layer of [`RunTrace::to_chrome_json_with`]: tiles, serve
    /// slices and flow arrows, all read off one [`Index`].
    fn causal_records(
        &self,
        windows: &[ThreadWindow],
        costs: &ServiceCosts,
        records: &mut Vec<String>,
    ) {
        let _prof = samhita_prof::enter(samhita_prof::Phase::SpanGraph);
        let ix = Index::build(self, costs);
        let mut flows = 0u64;
        let mut flow = |records: &mut Vec<String>,
                        name: &str,
                        (src, src_ns): (TrackId, u64),
                        (dst, dst_ns): (TrackId, u64)| {
            records.push(format!(
                "{{\"name\":\"{name}\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{flows},\
                 \"pid\":0,\"tid\":{},\"ts\":{:.3}}}",
                src.chrome_tid(),
                us(src_ns)
            ));
            records.push(format!(
                "{{\"name\":\"{name}\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\
                 \"id\":{flows},\"pid\":0,\"tid\":{},\"ts\":{:.3}}}",
                dst.chrome_tid(),
                us(dst_ns)
            ));
            flows += 1;
        };
        let compute = PathClass::Compute.label();
        for w in windows {
            let me = TrackId::Thread(w.tid);
            let tid = me.chrome_tid();
            let mut cursor = w.epoch_ns;
            for iv in ix.stalls(w.tid) {
                // The stall clipped to the window; the gap before it is compute.
                let (start, end) = (iv.start.max(cursor), iv.end.min(w.end_ns));
                if start >= end {
                    continue;
                }
                if cursor < start {
                    records.push(slice(compute, "thread", tid, cursor, start - cursor, "{}"));
                }
                let args = match iv.kind {
                    WaitKind::Fetch { page } => format!("{{\"page\":{page}}}"),
                    WaitKind::Lock { lock } => format!("{{\"lock\":{lock}}}"),
                    WaitKind::Barrier { barrier } => format!("{{\"barrier\":{barrier}}}"),
                    WaitKind::Mgr { op } => format!("{{\"op\":\"{op}\"}}"),
                };
                let class = iv.kind.class().label();
                records.push(slice(class, "thread", tid, start, end - start, &args));
                cursor = end;

                // The hops out of the stall, exactly as the walk takes them.
                let b = ix.blocker(w.tid, &Stall { start, end, kind: iv.kind });
                let (from, to) = ((TrackId::Thread(b.tid), b.at), (me, end));
                if let Some(serve) = b.serve {
                    // A late prefetch's request left before its stall
                    // began: that stall gets the response arrow only.
                    if b.at <= serve.start {
                        flow(records, "rpc-request", from, (serve.track, serve.start));
                    }
                    let name = match iv.kind {
                        WaitKind::Fetch { .. } => "fetch-serve",
                        _ => "rpc-response",
                    };
                    flow(records, name, (serve.track, serve.done), to);
                }
                if b.tid != w.tid {
                    let name = match iv.kind {
                        WaitKind::Lock { .. } => "lock-handoff",
                        _ => "barrier",
                    };
                    flow(records, name, from, to);
                }
            }
            if cursor < w.end_ns {
                records.push(slice(compute, "thread", tid, cursor, w.end_ns - cursor, "{}"));
            }
        }
        for serve in ix.serves() {
            let (tid, dur) = (serve.track.chrome_tid(), serve.done - serve.start);
            let (cat, args) = (category(serve.label), args_json(serve.label));
            records.push(slice(serve.class().label(), cat, tid, serve.start, dur, &args));
        }
    }
}

/// Nanoseconds as the microseconds Chrome's `ts` / `dur` fields want
/// (fractional; three decimals keep every nanosecond).
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// One `"X"` complete slice; `args` is a whole JSON object.
fn slice(name: &str, cat: &str, tid: u64, start_ns: u64, dur_ns: u64, args: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\
         \"ts\":{:.3},\"dur\":{:.3},\"args\":{args}}}",
        us(start_ns),
        us(dur_ns)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FetchKind, TrackId};
    use crate::json::validate_json;
    use samhita_scl::{MsgClass, SimTime};

    fn sample_trace() -> RunTrace {
        let ns = SimTime::from_ns;
        RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                vec![
                    TraceEvent {
                        at: ns(1_000),
                        kind: EventKind::Fetch {
                            page: 7,
                            pages: 4,
                            kind: FetchKind::Demand,
                            wait_ns: 800,
                        },
                    },
                    TraceEvent { at: ns(2_000), kind: EventKind::TwinCreate { page: 7 } },
                    TraceEvent {
                        at: ns(3_000),
                        kind: EventKind::DiffFlush { page: 7, bytes: 128 },
                    },
                    TraceEvent {
                        at: ns(4_000),
                        kind: EventKind::LockAcquire { lock: 0, wait_ns: 500 },
                    },
                ],
            ),
            (
                TrackId::MemServer(0),
                vec![TraceEvent {
                    at: ns(3_500),
                    kind: EventKind::ApplyDiff { page: 7, bytes: 128 },
                }],
            ),
            (
                TrackId::Fabric,
                vec![TraceEvent {
                    at: ns(900),
                    kind: EventKind::FabricSend {
                        src: 0,
                        dst: 9,
                        class: MsgClass::Data,
                        bytes: 64,
                    },
                }],
            ),
        ])
    }

    #[test]
    fn jsonl_lines_are_individually_valid() {
        let out = sample_trace().to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 6);
        for line in lines {
            validate_json(line).unwrap_or_else(|e| panic!("invalid line {line}: {e}"));
        }
        assert!(out.contains("\"event\":\"twin-create\""));
        assert!(out.contains("\"track\":\"mem server 0\""));
        assert!(out.contains("\"class\":\"data\""));
    }

    #[test]
    fn chrome_export_is_valid_json_with_named_tracks() {
        let out = sample_trace().to_chrome_json();
        validate_json(&out).expect("valid chrome json");
        assert!(out.contains("\"traceEvents\""));
        assert!(out.contains("\"process_name\""));
        assert!(out.contains("\"name\":\"thread 0\""));
        assert!(out.contains("\"name\":\"mem server 0\""));
        assert!(out.contains("\"name\":\"fabric\""));
        // The fetch wait renders as a complete span: ts = (1000-800)/1000 µs.
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"ts\":0.200"));
        assert!(out.contains("\"dur\":0.800"));
        // Instants carry a scope.
        assert!(out.contains("\"ph\":\"i\""));
    }
}
