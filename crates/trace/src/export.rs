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
//! spans covering the wait; everything else is an `"i"` instant.

use crate::event::{EventKind, TraceEvent};
use crate::metrics::ServiceCosts;
use crate::span::{EdgeKind, SpanClass, SpanDetail, SpanGraph, ThreadWindow};
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
        for (track, events) in &self.tracks {
            let tid = track.chrome_tid();
            for TraceEvent { at, kind } in events {
                let args = args_json(kind);
                let cat = category(kind);
                let name = kind.name();
                let rec = match kind.wait_ns() {
                    // A stall interval: render as a complete span ending at
                    // the stamp. ts is in microseconds (fractional ok).
                    Some(wait_ns) => {
                        let start_ns = at.as_ns().saturating_sub(wait_ns);
                        format!(
                            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\
                             \"pid\":0,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                             \"args\":{args}}}",
                            start_ns as f64 / 1000.0,
                            wait_ns as f64 / 1000.0
                        )
                    }
                    None => format!(
                        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\
                         \"pid\":0,\"tid\":{tid},\"ts\":{:.3},\"s\":\"t\",\
                         \"args\":{args}}}",
                        at.as_ns() as f64 / 1000.0
                    ),
                };
                records.push(rec);
            }
        }
        format!("{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n", records.join(",\n"))
    }

    /// Export as Chrome trace-event JSON **with causality**: the span graph
    /// is built from the trace (plus the run's thread windows and service
    /// costs), thread tracks are fully tiled with `"X"` slices (compute and
    /// wait spans), manager/server service spans land as `"X"` slices on
    /// *their own* tracks — not the requester's — and every causal edge
    /// (lock handoffs, barrier releases, RPC request/response pairs, fetch
    /// serves) becomes a Perfetto flow arrow (`"ph":"s"` / `"ph":"f"`,
    /// `id` = edge index). Non-wait events remain `"i"` instants.
    ///
    /// [`RunTrace::to_jsonl`] (the checksum basis) is untouched by this
    /// richer export.
    pub fn to_chrome_json_with(&self, windows: &[ThreadWindow], costs: &ServiceCosts) -> String {
        let graph = SpanGraph::build(self, windows, costs);
        let mut records: Vec<String> =
            Vec::with_capacity(graph.spans.len() + 2 * graph.edges.len() + self.len());
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
        for span in &graph.spans {
            let args = match span.detail {
                SpanDetail::None => String::new(),
                SpanDetail::Page { page, pages } => format!("\"page\":{page},\"pages\":{pages}"),
                SpanDetail::Lock(lock) => format!("\"lock\":{lock}"),
                SpanDetail::Barrier(b) => format!("\"barrier\":{b}"),
                SpanDetail::Op(op) => format!("\"op\":\"{op}\""),
                SpanDetail::Serve { op, tid } => format!("\"op\":\"{op}\",\"tid\":{tid}"),
            };
            let cat = match span.class {
                SpanClass::MgrService => "mgr",
                SpanClass::ServerService => "mem",
                _ => "thread",
            };
            records.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":0,\
                 \"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                span.class.label(),
                span.track.chrome_tid(),
                span.start.as_ns() as f64 / 1000.0,
                (span.end.as_ns() - span.start.as_ns()) as f64 / 1000.0
            ));
        }
        for (id, e) in graph.edges.iter().enumerate() {
            if matches!(e.kind, EdgeKind::Program) {
                continue; // implicit in track layout
            }
            let name = e.kind.label();
            let src_tid = graph.spans[e.src].track.chrome_tid();
            let dst_tid = graph.spans[e.dst].track.chrome_tid();
            records.push(format!(
                "{{\"name\":\"{name}\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{id},\
                 \"pid\":0,\"tid\":{src_tid},\"ts\":{:.3}}}",
                e.src_at.as_ns() as f64 / 1000.0
            ));
            records.push(format!(
                "{{\"name\":\"{name}\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\
                 \"id\":{id},\"pid\":0,\"tid\":{dst_tid},\"ts\":{:.3}}}",
                e.dst_at.as_ns() as f64 / 1000.0
            ));
        }
        // Non-wait events stay as instants; wait-closing events are already
        // rendered as graph wait spans with identical geometry.
        for (track, events) in &self.tracks {
            let tid = track.chrome_tid();
            for TraceEvent { at, kind } in events {
                if matches!(kind.wait_ns(), Some(w) if w > 0) {
                    continue;
                }
                records.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"pid\":0,\
                     \"tid\":{tid},\"ts\":{:.3},\"s\":\"t\",\"args\":{}}}",
                    kind.name(),
                    category(kind),
                    at.as_ns() as f64 / 1000.0,
                    args_json(kind)
                ));
            }
        }
        format!("{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n", records.join(",\n"))
    }
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

    #[test]
    fn chrome_export_with_flows_binds_services_to_their_tracks() {
        let ns = SimTime::from_ns;
        let trace = RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                vec![
                    TraceEvent {
                        at: ns(2_000),
                        kind: EventKind::LockAcquire { lock: 0, wait_ns: 500 },
                    },
                    TraceEvent { at: ns(3_000), kind: EventKind::LockRelease { lock: 0 } },
                ],
            ),
            (
                TrackId::Thread(1),
                vec![TraceEvent {
                    at: ns(3_400),
                    kind: EventKind::LockAcquire { lock: 0, wait_ns: 1_000 },
                }],
            ),
            (
                TrackId::Manager,
                vec![TraceEvent {
                    at: ns(1_900),
                    kind: EventKind::MgrServe { op: "acquire", tid: 0 },
                }],
            ),
        ]);
        let windows = [
            ThreadWindow { tid: 0, epoch_ns: 0, end_ns: 4_000 },
            ThreadWindow { tid: 1, epoch_ns: 0, end_ns: 4_000 },
        ];
        let costs = ServiceCosts {
            mgr_service_ns: 300,
            fetch_base_ns: 400,
            apply_base_ns: 150,
            per_kib_ns: 100,
            page_size: 1024,
        };
        let out = trace.to_chrome_json_with(&windows, &costs);
        validate_json(&out).expect("valid chrome json");
        // Flow arrows come in begin/end pairs with matching ids.
        assert!(out.contains("\"ph\":\"s\""));
        assert!(out.contains("\"ph\":\"f\""));
        assert!(out.contains("\"name\":\"lock-handoff\""));
        // The manager service span renders on the manager's track (tid
        // 1000), not the requester's: [1600, 1900] -> ts 1.600 dur 0.300.
        assert!(out.contains(
            "\"name\":\"mgr-service\",\"cat\":\"mgr\",\"ph\":\"X\",\"pid\":0,\
             \"tid\":1000,\"ts\":1.600,\"dur\":0.300"
        ));
        // Thread tracks are tiled: compute slices exist.
        assert!(out.contains("\"name\":\"compute\""));
        // The plain export is untouched by the richer one.
        assert_eq!(trace.to_chrome_json(), trace.to_chrome_json());
    }
}
