//! Event-level tracing for the Samhita reproduction.
//!
//! Every protocol action — line fetches, prefetches, invalidations, twin
//! creation, diff/fine flushes, lock and barrier episodes, manager RPCs,
//! fabric sends — can be recorded as a [`TraceEvent`] stamped with the
//! *virtual* time at which it occurred. Recording is strictly observational:
//! events are pushed into per-track ring buffers ([`TraceBuf`]) and never
//! feed back into the simulation, so a traced run produces bit-identical
//! virtual clocks to an untraced one.
//!
//! On top of the raw event stream this crate provides
//!
//! * exporters ([`RunTrace::to_jsonl`], [`RunTrace::to_chrome_json`]) — the
//!   Chrome trace-event JSON opens directly in Perfetto / `chrome://tracing`
//!   with one track per compute thread plus manager / memory-server / fabric
//!   tracks; one allocation-free writer produces every form, into a `String`,
//!   a file ([`RunTrace::write_jsonl`], [`RunTrace::write_chrome_json_with`])
//!   or the [`RunTrace::checksum`] fold;
//! * one post-hoc causal derivation ([`critpath`]): an index of every
//!   thread's stalls, every manager/server serve and what each stall was
//!   really waiting on, read by [`critical_path`] — whose class totals tile
//!   the makespan exactly — and by [`RunTrace::to_chrome_json_with`], which
//!   draws the same serves and hops as slices and flow arrows;
//! * [`ThreadStats`], a compute thread's counters, log-bucketed
//!   [`LatencyHistogram`]s (p50/p95/p99/max), wait sums and page-granular
//!   [`HotspotMap`]: the one fold of its events ([`ThreadStats::fold`]),
//!   which the thread runs as it emits them and the trace-derived views
//!   below rerun on a stored track;
//! * a post-hoc [`MetricsTimeline`] — per-interval miss/refetch/byte/wait
//!   counters and manager/server busy time bucketed over virtual time — and
//!   [`HotspotMap::from_trace`] for false-sharing diagnosis;
//! * the workspace's one JSON implementation ([`json`]): the [`JsonValue`]
//!   tree every machine-readable report is built as, its writer (`Display`)
//!   and its parser — only the two trace exporters above stream their own
//!   bytes;
//! * a trace-driven RegC invariant checker ([`RunTrace::check_invariants`])
//!   that verifies mutual exclusion of lock hold intervals on the virtual
//!   timeline, causal ordering of invalidations behind their flushes,
//!   diff-byte conservation between flushers and memory servers, and barrier
//!   episode alignment.

pub mod check;
pub mod critpath;
pub mod event;
pub mod export;
pub mod hist;
pub mod hotspot;
pub mod json;
pub mod metrics;
pub mod stats;
pub mod tracer;

pub use check::{CheckSummary, Violation};
pub use critpath::{
    critical_path, CriticalPathReport, Detail, PathClass, PathSegment, ThreadWindow,
};
pub use event::{EventKind, FetchKind, TraceEvent, TrackId};
pub use hist::LatencyHistogram;
pub use hotspot::{HotspotMap, PageCounters};
pub use json::{validate_json, JsonValue};
pub use metrics::{MetricsTimeline, ServiceCosts, TimelineBucket};
pub use stats::{ThreadStats, TimeBreakdown};
pub use tracer::{RunTrace, SharedTrack, TraceBuf, Tracer};
