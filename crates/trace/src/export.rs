//! Trace exporters: JSONL and Chrome trace-event JSON.
//!
//! The one place outside [`crate::json`] that writes JSON text: the JSONL
//! lines are the trace-checksum basis and a Chrome export runs to hundreds of
//! thousands of records, so every text form of a trace comes from one
//! private `Writer` that walks tracks and events once — no value tree, no
//! `String` per record, no heap allocation per event. It copies each piece
//! into a 4 KiB stack buffer and hands a `Sink` the buffer whole, about
//! thirty records at a time: an append per piece was most of an export's
//! formatting time. The pieces are few: a record's head up to its `tid`
//! value is one static string per event variant, spliced at compile time
//! from the vocabulary ([`EventKind::name`], its category, its phase), and
//! a track's `tid` digits or JSONL `"track"` prefix are rendered once per
//! track. Three sinks exist: a `String` reserved up front from the event
//! count ([`RunTrace::to_jsonl`],
//! [`RunTrace::to_chrome_json`], [`RunTrace::to_chrome_json_with`]), whose
//! whole 2 MiB pages are advised huge ([`samhita_prof::vec_with_huge_pages`]:
//! a paper-scale Chrome text is 24 MB, and its first touch in 4 KiB pages
//! cost about 5 900 faults, more than the formatting), an
//! FNV-1a fold that hashes the JSONL without holding it
//! ([`RunTrace::checksum`]), and an `io::Write` adapter that streams a file
//! ([`RunTrace::write_jsonl`], [`RunTrace::write_chrome_json_with`]).
//! The vocabulary keeps that safe — every string written is a static
//! identifier from the event vocabulary or a track label, none of which
//! contain characters needing escapes — and the tests (and the `trace-dump`
//! tool) run the output through [`crate::json::validate_json`] anyway. The
//! `format!`-based exporters this writer replaced live on in the test
//! module as the oracle it must match byte for byte.
//!
//! The Chrome format targets Perfetto / `chrome://tracing`: one track per
//! compute thread plus manager / memory-server / fabric tracks, named via
//! `"M"` metadata records. Events that close a stall interval (fetch waits,
//! lock waits, barrier waits, manager RPCs) are rendered as `"X"` complete
//! spans covering the wait; everything else is an `"i"` instant. The causal
//! form ([`RunTrace::to_chrome_json_with`]) is the same body plus what the
//! critical path's index knows: tiled thread windows, serve slices on the
//! service tracks, and flow arrows from each stall to what ended it.

use std::io;

use crate::critpath::{Index, PathClass, Stall, ThreadWindow, WaitKind};
use crate::event::{EventKind, TraceEvent, TrackId};
use crate::metrics::ServiceCosts;
use crate::tracer::RunTrace;

/// Where the writer's text goes, a bufferful of whole pieces at a time.
trait Sink {
    fn put(&mut self, s: &str);
}

impl Sink for String {
    #[inline]
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

/// FNV-1a over the bytes put, none of them held.
struct Fnv1a(u64);

impl Sink for Fnv1a {
    #[inline]
    fn put(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Bytes streamed to an `io::Write`. A sink cannot refuse a piece, so the
/// first error is kept and everything after it discarded.
struct Stream<W> {
    to: W,
    status: io::Result<()>,
}

impl<W: io::Write> Sink for Stream<W> {
    fn put(&mut self, s: &str) {
        if self.status.is_ok() {
            self.status = self.to.write_all(s.as_bytes());
        }
    }
}

impl<W: io::Write> Stream<W> {
    fn new(to: W) -> Self {
        Stream { to, status: Ok(()) }
    }

    /// The first write error, else the flush's.
    fn finish(mut self) -> io::Result<()> {
        self.status?;
        self.to.flush()
    }
}

/// Upper bounds, in bytes, on one JSONL line and on one Chrome record with
/// its `,\n` separator, every integer at full width and every label the
/// vocabulary's longest: what the `String` forms reserve per record so they
/// are allocated once. (A longer label from a future protocol request costs
/// a reallocation, not a wrong byte; the tests hold the bounds against a
/// full-width trace.)
const LINE_MAX: usize = 208;
const RECORD_MAX: usize = 240;

/// Room for any track label: the longest name, `"mem server "`, and a
/// `u32` index.
const LABEL_MAX: usize = 32;

/// The writer's stack buffer: the sink is handed a bufferful — about thirty
/// records — at a time, not a piece at a time.
const BUFFER: usize = 4096;

/// Everything before the first per-track record, and everything after the
/// last event. Every record in between starts with `,\n`.
const CHROME_HEAD: &str = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n\
     {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"samhita\"}}";
const CHROME_TAIL: &str = "\n]}\n";

/// "00", "01", …, "99": decimal digits two at a time.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Text rendered on the stack, up to `N` bytes. Only whole `&str` pieces
/// and ASCII digits go in, so it is always UTF-8; the caller makes room.
struct Text<const N: usize> {
    bytes: [u8; N],
    len: usize,
}

impl<const N: usize> Text<N> {
    fn new() -> Self {
        Text { bytes: [0; N], len: 0 }
    }

    fn room(&self) -> usize {
        N - self.len
    }

    #[inline]
    fn put(&mut self, s: &str) {
        let end = self.len + s.len();
        self.bytes[self.len..end].copy_from_slice(s.as_bytes());
        self.len = end;
    }

    /// `v` in decimal: at most 20 bytes, written from the right two digits
    /// at a time.
    #[inline]
    fn num(&mut self, mut v: u64) {
        let end = self.len + v.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut at = end;
        while v >= 10 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            at -= 2;
            self.bytes[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if at > self.len {
            self.bytes[at - 1] = b'0' + v as u8;
        }
        self.len = end;
    }

    /// `ns` as the fractional microseconds Chrome's `ts` / `dur` fields
    /// want: `ns / 1000`, a point, `ns % 1000` zero-padded to three digits;
    /// at most 21 bytes. Integer arithmetic keeps every nanosecond of every
    /// `u64`; the `{:.3}` of `ns as f64 / 1000.0` it replaced prints the
    /// same bytes below 2⁴³ µs (≈ 101.8 virtual days) and misrounds from
    /// there up.
    #[inline]
    fn us(&mut self, ns: u64) {
        self.num(ns / 1000);
        let frac = ns % 1000;
        let point = [
            b'.',
            b'0' + (frac / 100) as u8,
            b'0' + (frac / 10 % 10) as u8,
            b'0' + (frac % 10) as u8,
        ];
        self.bytes[self.len..self.len + 4].copy_from_slice(&point);
        self.len += 4;
    }

    /// The track's display label: its name, then its index if it has one.
    fn label(&mut self, track: TrackId) {
        let (name, index) = track.label_parts();
        self.put(name);
        if let Some(index) = index {
            self.num(index.into());
        }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("whole pieces and ASCII digits")
    }
}

/// One argument value: integers bare, vocabulary strings quoted.
trait Arg {
    fn write<S: Sink>(self, w: &mut Writer<S>);
}

impl Arg for u64 {
    fn write<S: Sink>(self, w: &mut Writer<S>) {
        w.num(self);
    }
}

impl Arg for u32 {
    fn write<S: Sink>(self, w: &mut Writer<S>) {
        w.num(self.into());
    }
}

impl Arg for &str {
    fn write<S: Sink>(self, w: &mut Writer<S>) {
        w.put("\"");
        w.put(self);
        w.put("\"");
    }
}

/// `"k0":v0,"k1":v1,…` into the writer: each key goes out as one literal,
/// joined with its quotes, colon and leading comma at compile time.
macro_rules! pairs {
    ($w:expr, $k0:literal: $v0:expr $(, $k:literal: $v:expr)*) => {{
        $w.put(concat!("\"", $k0, "\":"));
        Arg::write($v0, $w);
        $(
            $w.put(concat!(",\"", $k, "\":"));
            Arg::write($v, $w);
        )*
    }};
}

/// The one producer of trace text, over whichever [`Sink`] the caller
/// needs. Pieces are copied into a stack buffer, which goes to the sink
/// whole when the next piece does not fit and at [`Writer::finish`]: a
/// `String` grows by one append per bufferful, not one per piece.
struct Writer<S> {
    to: S,
    text: Text<BUFFER>,
}

impl Writer<String> {
    /// A writer into a `String` of `bytes` capacity, allocated once. A
    /// paper-scale export fills tens of MB of it straight away, so its
    /// whole 2 MiB pages are advised huge: first-touch faults were most of
    /// what the export cost.
    fn reserved(bytes: usize) -> Self {
        let buf = samhita_prof::vec_with_huge_pages(bytes);
        Writer::new(String::from_utf8(buf).expect("an empty buffer is UTF-8"))
    }
}

impl<S: Sink> Writer<S> {
    fn new(to: S) -> Self {
        Writer { to, text: Text::new() }
    }

    /// The sink, holding every byte rendered.
    fn finish(mut self) -> S {
        self.flush();
        self.to
    }

    fn flush(&mut self) {
        self.to.put(self.text.as_str());
        self.text.len = 0;
    }

    /// Room for `n` more bytes in the buffer.
    #[inline]
    fn reserve(&mut self, n: usize) {
        if self.text.room() < n {
            self.flush();
        }
    }

    #[inline]
    fn put(&mut self, s: &str) {
        self.reserve(s.len());
        if s.len() > BUFFER {
            return self.to.put(s);
        }
        self.text.put(s);
    }

    /// `v` in decimal.
    #[inline]
    fn num(&mut self, v: u64) {
        self.reserve(20);
        self.text.num(v);
    }

    /// `ns` as Chrome's microseconds (see [`Text::us`]).
    #[inline]
    fn us(&mut self, ns: u64) {
        self.reserve(21);
        self.text.us(ns);
    }

    /// A track's label (see [`Text::label`]).
    fn label(&mut self, track: TrackId) {
        self.reserve(LABEL_MAX);
        self.text.label(track);
    }

    /// One event's arguments as `"key":value` pairs — the tail of JSONL's
    /// flat object and the body of Chrome's `"args":{…}` alike. Every
    /// variant carries at least one, which both callers rely on.
    fn args(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::Fetch { page, pages, kind, wait_ns } => {
                pairs!(self, "page": page, "pages": pages, "kind": kind.label(), "wait_ns": wait_ns)
            }
            EventKind::PrefetchIssue { page, pages } | EventKind::RefetchIssue { page, pages } => {
                pairs!(self, "page": page, "pages": pages)
            }
            EventKind::ServeFetch { page, pages, reader, written, queued_ns } => {
                pairs!(
                    self,
                    "page": page,
                    "pages": pages,
                    "reader": reader,
                    "written": written,
                    "queued_ns": queued_ns
                )
            }
            EventKind::TwinCreate { page } | EventKind::ServeWrite { page } => {
                pairs!(self, "page": page)
            }
            EventKind::DiffFlush { page, bytes } | EventKind::FineFlush { page, bytes } => {
                pairs!(self, "page": page, "bytes": bytes)
            }
            EventKind::ApplyDiff { page, bytes, writer, batch }
            | EventKind::ApplyFine { page, bytes, writer, batch } => {
                pairs!(self, "page": page, "bytes": bytes, "writer": writer, "batch": batch)
            }
            EventKind::Invalidate { page, writer, batch } => {
                pairs!(self, "page": page, "writer": writer, "batch": batch)
            }
            EventKind::Evict { line, dirty_pages } => {
                pairs!(self, "line": line, "dirty_pages": dirty_pages)
            }
            EventKind::LockRequest { lock } | EventKind::LockRelease { lock } => {
                pairs!(self, "lock": lock)
            }
            EventKind::LockAcquire { lock, wait_ns } => {
                pairs!(self, "lock": lock, "wait_ns": wait_ns)
            }
            EventKind::BarrierArrive { barrier } => pairs!(self, "barrier": barrier),
            EventKind::BarrierRelease { barrier, wait_ns } => {
                pairs!(self, "barrier": barrier, "wait_ns": wait_ns)
            }
            EventKind::MgrRpc { op, wait_ns } => pairs!(self, "op": op, "wait_ns": wait_ns),
            EventKind::MgrServe { op, tid } => pairs!(self, "op": op, "tid": tid),
            EventKind::FabricSend { src, dst, class, bytes } => {
                pairs!(self, "src": src, "dst": dst, "class": class.label(), "bytes": bytes)
            }
            EventKind::FaultInjected { src, dst, kind } => {
                pairs!(self, "src": src, "dst": dst, "kind": kind)
            }
            EventKind::Retry { op, attempt } => pairs!(self, "op": op, "attempt": attempt),
            EventKind::Failover { from, to } => pairs!(self, "from": from, "to": to),
            EventKind::BatchFlush { server, parts, bytes } => {
                pairs!(self, "server": server, "parts": parts, "bytes": bytes)
            }
            EventKind::MgrFailover { op } => pairs!(self, "op": op),
            EventKind::LeaseReclaim { lock, holder } => {
                pairs!(self, "lock": lock, "holder": holder)
            }
        }
    }

    /// The JSONL form: one flat object per event, one event per line.
    fn jsonl(&mut self, trace: &RunTrace) {
        for (track, events) in &trace.tracks {
            // `{"track":"<label>","at_ns":`, rendered once per track.
            let mut head = Text::<{ LABEL_MAX + 24 }>::new();
            head.put("{\"track\":\"");
            head.label(*track);
            head.put("\",\"at_ns\":");
            let head = head.as_str();
            for TraceEvent { at, kind } in events {
                self.put(head);
                self.num(at.as_ns());
                self.put(kind.jsonl_name());
                self.args(kind);
                self.put("}\n");
            }
        }
    }

    /// The Chrome form, with the causal layer when `causal` is given.
    fn chrome(&mut self, trace: &RunTrace, causal: Option<(&[ThreadWindow], &ServiceCosts)>) {
        self.put(CHROME_HEAD);
        for (track, _) in &trace.tracks {
            self.put(",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":");
            self.num(track.chrome_tid());
            self.put(",\"args\":{\"name\":\"");
            self.label(*track);
            self.put("\"}}");
        }
        if let Some((windows, costs)) = causal {
            self.causal(trace, windows, costs);
        }
        for (track, events) in &trace.tracks {
            // The track's `tid` digits, rendered once.
            let mut tid = Text::<20>::new();
            tid.num(track.chrome_tid());
            let tid = tid.as_str();
            for TraceEvent { at, kind } in events {
                match kind.wait_ns() {
                    // The causal layer already drew this stall as a tile.
                    Some(wait_ns) if causal.is_some() && wait_ns > 0 => continue,
                    // A stall interval: a complete span ending at the stamp.
                    Some(wait_ns) => {
                        self.put(kind.chrome_head());
                        self.put(tid);
                        self.span(at.as_ns().saturating_sub(wait_ns), wait_ns);
                    }
                    None => {
                        self.put(kind.chrome_head());
                        self.put(tid);
                        self.put(",\"ts\":");
                        self.us(at.as_ns());
                        self.put(",\"s\":\"t\",\"args\":{");
                    }
                }
                self.args(kind);
                self.put("}}");
            }
        }
        self.put(CHROME_TAIL);
    }

    /// One `"X"` complete slice, left open inside `"args":{` — the caller
    /// writes the pairs, if any, and closes with `}}`.
    fn slice(&mut self, name: &str, cat: &str, tid: u64, start_ns: u64, dur_ns: u64) {
        self.put(",\n{\"name\":\"");
        self.put(name);
        self.put("\",\"cat\":\"");
        self.put(cat);
        self.put("\",\"ph\":\"X\",\"pid\":0,\"tid\":");
        self.num(tid);
        self.span(start_ns, dur_ns);
    }

    /// An `"X"` record's tail after its `tid`: its `ts` and `dur`, then
    /// `"args":{` left open.
    fn span(&mut self, start_ns: u64, dur_ns: u64) {
        self.put(",\"ts\":");
        self.us(start_ns);
        self.put(",\"dur\":");
        self.us(dur_ns);
        self.put(",\"args\":{");
    }

    /// One flow arrow: an `"s"` record at its source and the `"f"` record
    /// that binds to the enclosing slice at its destination, sharing `id`.
    fn flow(&mut self, name: &str, id: u64, from: (TrackId, u64), to: (TrackId, u64)) {
        for (ph, (track, ns)) in [("s\"", from), ("f\",\"bp\":\"e\"", to)] {
            self.put(",\n{\"name\":\"");
            self.put(name);
            self.put("\",\"cat\":\"flow\",\"ph\":\"");
            self.put(ph);
            self.put(",\"id\":");
            self.num(id);
            self.put(",\"pid\":0,\"tid\":");
            self.num(track.chrome_tid());
            self.put(",\"ts\":");
            self.us(ns);
            self.put("}");
        }
    }

    /// The causal layer of [`RunTrace::to_chrome_json_with`]: tiles, serve
    /// slices and flow arrows, all read off one [`Index`].
    fn causal(&mut self, trace: &RunTrace, windows: &[ThreadWindow], costs: &ServiceCosts) {
        let _prof = samhita_prof::enter(samhita_prof::Phase::SpanGraph);
        let ix = Index::build(trace, costs);
        let mut flows = 0u64;
        let mut flow = |w: &mut Self, name: &str, from: (TrackId, u64), to: (TrackId, u64)| {
            w.flow(name, flows, from, to);
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
                    self.slice(compute, "thread", tid, cursor, start - cursor);
                    self.put("}}");
                }
                self.slice(iv.kind.class().label(), "thread", tid, start, end - start);
                match iv.kind {
                    WaitKind::Fetch { page } => pairs!(self, "page": page),
                    WaitKind::Lock { lock } => pairs!(self, "lock": lock),
                    WaitKind::Barrier { barrier } => pairs!(self, "barrier": barrier),
                    WaitKind::Mgr { op } => pairs!(self, "op": op),
                }
                self.put("}}");
                cursor = end;

                // The hops out of the stall, exactly as the walk takes them.
                let b = ix.blocker(w.tid, &Stall { start, end, kind: iv.kind });
                let (from, to) = ((TrackId::Thread(b.tid), b.at), (me, end));
                if let Some(serve) = b.serve {
                    // A late prefetch's request left before its stall
                    // began: that stall gets the response arrow only.
                    if b.at <= serve.start {
                        flow(self, "rpc-request", from, (serve.track, serve.start));
                    }
                    let name = match iv.kind {
                        WaitKind::Fetch { .. } => "fetch-serve",
                        _ => "rpc-response",
                    };
                    flow(self, name, (serve.track, serve.done), to);
                }
                if b.tid != w.tid {
                    let name = match iv.kind {
                        WaitKind::Lock { .. } => "lock-handoff",
                        _ => "barrier",
                    };
                    flow(self, name, from, to);
                }
            }
            if cursor < w.end_ns {
                self.slice(compute, "thread", tid, cursor, w.end_ns - cursor);
                self.put("}}");
            }
        }
        for serve in ix.serves() {
            let (tid, dur) = (serve.track.chrome_tid(), serve.done - serve.start);
            self.slice(serve.class().label(), serve.label.category(), tid, serve.start, dur);
            self.args(serve.label);
            self.put("}}");
        }
    }
}

impl RunTrace {
    /// Export as JSON Lines: one event per line, tracks in order, each line
    /// a flat object `{"track": …, "at_ns": …, "event": …, <args>}`.
    pub fn to_jsonl(&self) -> String {
        let mut w = Writer::reserved(LINE_MAX * self.len());
        w.jsonl(self);
        w.finish()
    }

    /// Stream the bytes of [`RunTrace::to_jsonl`] to `to` without holding
    /// them, flushing at the end; the first write error ends the export.
    pub fn write_jsonl(&self, to: impl io::Write) -> io::Result<()> {
        let mut w = Writer::new(Stream::new(to));
        w.jsonl(self);
        w.finish().finish()
    }

    /// FNV-1a checksum over the bytes of [`RunTrace::to_jsonl`], folded as
    /// they are written rather than held — the reproducibility fingerprint
    /// of a run: two runs with bit-identical protocol timelines (every
    /// event, on every track, at the same virtual time with the same
    /// arguments) have equal checksums. The deterministic runtime promises
    /// exactly this across repeated runs of one configuration.
    pub fn checksum(&self) -> u64 {
        let mut w = Writer::new(Fnv1a(0xcbf2_9ce4_8422_2325));
        w.jsonl(self);
        w.finish().0
    }

    /// Export as Chrome trace-event JSON (the "JSON object format"), which
    /// opens directly in Perfetto and `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let mut w = Writer::reserved(self.chrome_reserve(None));
        w.chrome(self, None);
        w.finish()
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
        let mut w = Writer::reserved(self.chrome_reserve(Some(windows)));
        w.chrome(self, Some((windows, costs)));
        w.finish()
    }

    /// Stream the bytes of [`RunTrace::to_chrome_json_with`] to `to`
    /// without holding them, flushing at the end; the first write error
    /// ends the export.
    pub fn write_chrome_json_with(
        &self,
        to: impl io::Write,
        windows: &[ThreadWindow],
        costs: &ServiceCosts,
    ) -> io::Result<()> {
        let mut w = Writer::new(Stream::new(to));
        w.chrome(self, Some((windows, costs)));
        w.finish().finish()
    }

    /// An upper bound on the Chrome form's length: a record per track and
    /// per event, and with the causal layer (`windows` given) at most a
    /// closing tile per window, a serve slice per service-track event, and
    /// per stall two tiles and three flow pairs where its own record was.
    fn chrome_reserve(&self, windows: Option<&[ThreadWindow]>) -> usize {
        let mut records = self.tracks.len() + self.len();
        if let Some(windows) = windows {
            records += windows.len();
            for (track, events) in &self.tracks {
                records += match track {
                    TrackId::Thread(_) => {
                        7 * events
                            .iter()
                            .filter(|e| e.kind.wait_ns().is_some_and(|w| w > 0))
                            .count()
                    }
                    TrackId::Fabric => 0,
                    _ => events.len(),
                };
            }
        }
        CHROME_HEAD.len() + RECORD_MAX * records + CHROME_TAIL.len()
    }
}

/// The `format!`-based exporters the [`Writer`] replaced, kept as the
/// reference the tests compare it against byte for byte.
#[cfg(test)]
mod oracle {
    use super::*;

    /// (key, already-valid-JSON-value) argument pairs for one event.
    pub fn args_of(kind: &EventKind) -> Vec<(&'static str, String)> {
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
            EventKind::PrefetchIssue { page, pages } | EventKind::RefetchIssue { page, pages } => {
                vec![("page", page.to_string()), ("pages", pages.to_string())]
            }
            EventKind::TwinCreate { page } => vec![("page", page.to_string())],
            EventKind::DiffFlush { page, bytes } | EventKind::FineFlush { page, bytes } => {
                vec![("page", page.to_string()), ("bytes", bytes.to_string())]
            }
            EventKind::Invalidate { page, writer, batch } => vec![
                ("page", page.to_string()),
                ("writer", writer.to_string()),
                ("batch", batch.to_string()),
            ],
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
            EventKind::ApplyDiff { page, bytes, writer, batch }
            | EventKind::ApplyFine { page, bytes, writer, batch } => vec![
                ("page", page.to_string()),
                ("bytes", bytes.to_string()),
                ("writer", writer.to_string()),
                ("batch", batch.to_string()),
            ],
            EventKind::ServeFetch { page, pages, reader, written, queued_ns } => vec![
                ("page", page.to_string()),
                ("pages", pages.to_string()),
                ("reader", reader.to_string()),
                ("written", written.to_string()),
                ("queued_ns", queued_ns.to_string()),
            ],
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

    fn args_json(kind: &EventKind) -> String {
        let body: Vec<String> =
            args_of(kind).into_iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }

    pub fn to_jsonl(trace: &RunTrace) -> String {
        let mut out = String::new();
        for (track, events) in &trace.tracks {
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

    pub fn chrome_json(
        trace: &RunTrace,
        causal: Option<(&[ThreadWindow], &ServiceCosts)>,
    ) -> String {
        let mut records: Vec<String> = Vec::with_capacity(trace.len() + trace.tracks.len() + 1);
        records.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"samhita\"}}"
                .to_string(),
        );
        for (track, _) in &trace.tracks {
            records.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                track.chrome_tid(),
                track.label()
            ));
        }
        if let Some((windows, costs)) = causal {
            causal_records(trace, windows, costs, &mut records);
        }
        for (track, events) in &trace.tracks {
            let tid = track.chrome_tid();
            for TraceEvent { at, kind } in events {
                let rec = match kind.wait_ns() {
                    Some(wait_ns) if causal.is_some() && wait_ns > 0 => continue,
                    Some(wait_ns) => slice(
                        kind.name(),
                        kind.category(),
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
                        kind.category(),
                        us(at.as_ns()),
                        args_json(kind)
                    ),
                };
                records.push(rec);
            }
        }
        format!("{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n", records.join(",\n"))
    }

    fn causal_records(
        trace: &RunTrace,
        windows: &[ThreadWindow],
        costs: &ServiceCosts,
        records: &mut Vec<String>,
    ) {
        let ix = Index::build(trace, costs);
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

                let b = ix.blocker(w.tid, &Stall { start, end, kind: iv.kind });
                let (from, to) = ((TrackId::Thread(b.tid), b.at), (me, end));
                if let Some(serve) = b.serve {
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
            let (cat, args) = (serve.label.category(), args_json(serve.label));
            records.push(slice(serve.class().label(), cat, tid, serve.start, dur, &args));
        }
    }

    /// Nanoseconds as microseconds through `f64`: exact with `{:.3}` only
    /// below [`US_EXACT_BELOW_NS`].
    pub fn us(ns: u64) -> f64 {
        ns as f64 / 1000.0
    }

    /// From 2⁴³ µs up, `{:.3}` of [`us`] no longer prints every nanosecond.
    pub const US_EXACT_BELOW_NS: u64 = (1 << 43) * 1000;

    /// One `"X"` complete slice; `args` is a whole JSON object.
    fn slice(name: &str, cat: &str, tid: u64, start_ns: u64, dur_ns: u64, args: &str) -> String {
        format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{args}}}",
            us(start_ns),
            us(dur_ns)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FetchKind;
    use crate::json::validate_json;
    use samhita_scl::{MsgClass, ServiceModel, SimTime};

    fn ev(at_ns: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { at: SimTime::from_ns(at_ns), kind }
    }

    fn sample_trace() -> RunTrace {
        RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                vec![
                    ev(
                        1_000,
                        EventKind::Fetch {
                            page: 7,
                            pages: 4,
                            kind: FetchKind::Demand,
                            wait_ns: 800,
                        },
                    ),
                    ev(2_000, EventKind::TwinCreate { page: 7 }),
                    ev(3_000, EventKind::DiffFlush { page: 7, bytes: 128 }),
                    ev(4_000, EventKind::LockAcquire { lock: 0, wait_ns: 500 }),
                ],
            ),
            (
                TrackId::MemServer(0),
                vec![ev(3_500, EventKind::ApplyDiff { page: 7, bytes: 128, writer: 1, batch: 1 })],
            ),
            (
                TrackId::Fabric,
                vec![ev(
                    900,
                    EventKind::FabricSend { src: 0, dst: 9, class: MsgClass::Data, bytes: 64 },
                )],
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

    fn fnv1a(text: &str) -> u64 {
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        h.put(text);
        h.0
    }

    /// SplitMix64: the seeded stream behind the property test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[(self.next() % from.len() as u64) as usize]
        }

        /// A payload: an edge of its width as often as not.
        fn u64(&mut self) -> u64 {
            let any = self.next() >> (self.next() % 64);
            self.pick(&[0, 1, u64::from(u32::MAX), u64::MAX, any, any])
        }

        fn u32(&mut self) -> u32 {
            let any = (self.next() >> 32) as u32;
            self.pick(&[0, 1, u32::MAX, any])
        }

        /// A stamp or a wait, inside the range the float oracle can print:
        /// the 999 / 1000 / 1001 ns boundary, small values, and the whole
        /// range up to the bound.
        fn ns(&mut self) -> u64 {
            let any = self.next() % oracle::US_EXACT_BELOW_NS;
            let small = self.next() % 5_000;
            self.pick(&[0, 999, 1000, 1001, oracle::US_EXACT_BELOW_NS - 1, small, small, any])
        }
    }

    const OPS: [&str; 6] =
        ["acquire", "release", "barrier-wait", "create-barrier", "cond-broadcast", "exit"];
    const FATES: [&str; 5] = ["drop", "partition", "crash", "duplicate", "delay"];
    const FETCHES: [FetchKind; 4] =
        [FetchKind::Demand, FetchKind::Refetch, FetchKind::PrefetchHit, FetchKind::PrefetchLate];
    const VARIANTS: usize = 26;

    /// Variant `i` of the 26, with seeded payloads over their whole width,
    /// but for two kinds of field: ids the causal index keys its tables by
    /// (locks, barriers, tids, served pages) stay small so its lookups hit,
    /// and the sizes the service-cost rule multiplies stay where it cannot
    /// overflow (`full_width_records_fit_the_reservation` has those at
    /// `u64::MAX`).
    fn variant(i: usize, r: &mut Rng) -> EventKind {
        let id = |r: &mut Rng| (r.next() % 3) as u32;
        let wait_ns = if r.next() & 3 == 0 { 0 } else { r.ns() };
        match i {
            0 => {
                EventKind::Fetch { page: r.u64(), pages: r.u32(), kind: r.pick(&FETCHES), wait_ns }
            }
            1 => EventKind::PrefetchIssue { page: r.u64(), pages: r.u32() },
            2 => EventKind::TwinCreate { page: r.u64() },
            3 => EventKind::DiffFlush { page: r.u64(), bytes: r.u64() },
            4 => EventKind::FineFlush { page: r.u64(), bytes: r.u64() },
            5 => EventKind::Invalidate { page: r.u64(), writer: r.u32(), batch: r.u32() },
            6 => EventKind::Evict { line: r.u64(), dirty_pages: r.u32() },
            7 => EventKind::LockRequest { lock: id(r) },
            8 => EventKind::LockAcquire { lock: id(r), wait_ns },
            9 => EventKind::LockRelease { lock: id(r) },
            10 => EventKind::BarrierArrive { barrier: id(r) },
            11 => EventKind::BarrierRelease { barrier: id(r), wait_ns },
            12 => EventKind::MgrRpc { op: r.pick(&OPS), wait_ns },
            13 => EventKind::MgrServe { op: r.pick(&OPS), tid: id(r) },
            14 => EventKind::ApplyDiff {
                page: r.u64(),
                bytes: r.next() % 65_536,
                writer: id(r),
                batch: r.u32(),
            },
            15 => EventKind::ApplyFine {
                page: r.u64(),
                bytes: r.next() % 65_536,
                writer: id(r),
                batch: r.u32(),
            },
            16 => {
                let pages = r.u32() % 64;
                let (page, reader, queued_ns) = (r.next() % 4, id(r), r.ns());
                EventKind::ServeFetch { page, pages, reader, written: pages / 2, queued_ns }
            }
            17 => EventKind::ServeWrite { page: r.u64() },
            18 => EventKind::FabricSend {
                src: r.u64(),
                dst: r.u64(),
                class: r.pick(&MsgClass::ALL),
                bytes: r.u64(),
            },
            19 => EventKind::FaultInjected { src: r.u64(), dst: r.u64(), kind: r.pick(&FATES) },
            20 => EventKind::Retry { op: r.pick(&OPS), attempt: r.u32() },
            21 => EventKind::Failover { from: r.u32(), to: r.u32() },
            22 => EventKind::BatchFlush { server: r.u32(), parts: r.u32(), bytes: r.u64() },
            23 => EventKind::MgrFailover { op: r.pick(&OPS) },
            24 => EventKind::LeaseReclaim { lock: id(r), holder: r.u32() },
            25 => EventKind::RefetchIssue { page: r.u64(), pages: r.u32() },
            _ => unreachable!("{VARIANTS} variants"),
        }
    }

    fn costs() -> ServiceCosts {
        ServiceCosts { mgr_service_ns: 300, service: ServiceModel::default(), page_size: 1024 }
    }

    /// Every form of `trace` against the oracle, plus everything that must
    /// hold of any export: valid JSON, inside the reservation, the streamed
    /// bytes equal to the `String`, the checksum the FNV-1a of the JSONL.
    fn check_against_oracle(trace: &RunTrace, windows: &[ThreadWindow]) {
        let costs = costs();
        let jsonl = trace.to_jsonl();
        assert_eq!(jsonl, oracle::to_jsonl(trace));
        assert!(jsonl.len() <= LINE_MAX * trace.len());
        for line in jsonl.lines() {
            validate_json(line).unwrap_or_else(|e| panic!("invalid line {line}: {e}"));
        }
        assert_eq!(jsonl.lines().count(), trace.len());
        assert_eq!(trace.checksum(), fnv1a(&jsonl));
        let mut streamed = Vec::new();
        trace.write_jsonl(&mut streamed).expect("a Vec takes every byte");
        assert_eq!(streamed, jsonl.as_bytes());

        let plain = trace.to_chrome_json();
        assert_eq!(plain, oracle::chrome_json(trace, None));
        assert!(plain.len() <= trace.chrome_reserve(None));
        validate_json(&plain).expect("plain Chrome form is valid JSON");

        let causal = trace.to_chrome_json_with(windows, &costs);
        assert_eq!(causal, oracle::chrome_json(trace, Some((windows, &costs))));
        assert!(causal.len() <= trace.chrome_reserve(Some(windows)));
        validate_json(&causal).expect("causal Chrome form is valid JSON");
        let mut streamed = Vec::new();
        trace.write_chrome_json_with(&mut streamed, windows, &costs).expect("a Vec takes it");
        assert_eq!(streamed, causal.as_bytes());
    }

    /// The property the rewrite stands on: over seeded traces holding all
    /// 26 event variants on all 5 track variants — payloads at 0,
    /// `u32::MAX` and `u64::MAX`, `wait_ns` zero and larger than the stamp,
    /// stamps around the 999 / 1000 / 1001 ns boundary, an empty track —
    /// the writer's bytes are the `format!` oracle's in all three forms.
    #[test]
    fn writer_matches_the_format_oracle_in_all_three_forms() {
        let tracks = [
            TrackId::Thread(0),
            TrackId::Thread(1),
            TrackId::Thread(u32::MAX),
            TrackId::Manager,
            TrackId::MgrStandby,
            TrackId::MemServer(0),
            TrackId::MemServer(2),
            TrackId::Fabric,
        ];
        for seed in 0..48u64 {
            let mut r = Rng(seed);
            let mut all = vec![(TrackId::Thread(2), Vec::new())];
            for track in tracks {
                let rounds = 1 + r.next() % 3;
                let events = (0..rounds as usize * VARIANTS)
                    .map(|i| ev(r.ns(), variant(i % VARIANTS, &mut r)))
                    .collect();
                all.push((track, events));
            }
            let trace = RunTrace::from_tracks(all);
            assert!(trace.track(TrackId::Thread(2)).is_some_and(<[_]>::is_empty));
            let windows: Vec<ThreadWindow> = [0, 1, 2, u32::MAX, 9]
                .into_iter()
                .map(|tid| {
                    let (a, b) = (r.ns(), r.ns());
                    ThreadWindow { tid, epoch_ns: a.min(b), end_ns: a.max(b) }
                })
                .collect();
            check_against_oracle(&trace, &windows);
        }
    }

    #[test]
    fn one_event_and_empty_traces_match_the_oracle() {
        let window = [ThreadWindow { tid: 0, epoch_ns: 0, end_ns: 2_000 }];
        check_against_oracle(&RunTrace::default(), &[]);
        check_against_oracle(&RunTrace::default(), &window);
        for i in 0..VARIANTS {
            let event = ev(1_001, variant(i, &mut Rng(i as u64)));
            check_against_oracle(
                &RunTrace::from_tracks(vec![(TrackId::Thread(0), vec![event])]),
                &window,
            );
        }
    }

    /// The text one writer call renders.
    fn rendered(f: impl FnOnce(&mut Writer<String>)) -> String {
        let mut w = Writer::new(String::new());
        f(&mut w);
        w.finish()
    }

    #[test]
    fn numbers_render_as_format_does_at_their_edges() {
        for v in [0, 9, 10, 999, 1000, u64::MAX] {
            assert_eq!(rendered(|w| w.num(v)), format!("{v}"));
        }
        for ns in [0, 999, 1000, 1_000_001, u64::MAX] {
            assert_eq!(rendered(|w| w.us(ns)), format!("{}.{:03}", ns / 1000, ns % 1000));
        }
    }

    /// `us` keeps every nanosecond of every `u64`; the float form it
    /// replaced agrees only below 2⁴³ µs, so above that the expectation is
    /// spelled out instead of taken from the oracle.
    #[test]
    fn microseconds_are_exact_over_the_whole_u64_range() {
        let us = |ns: u64| rendered(|w| w.us(ns));
        let mut r = Rng(7);
        for ns in [0, 1, 999, 1000, 1001, 999_999, 1_000_000, oracle::US_EXACT_BELOW_NS - 1] {
            assert_eq!(us(ns), format!("{:.3}", oracle::us(ns)), "{ns} ns");
        }
        for _ in 0..20_000 {
            let ns = r.next() % oracle::US_EXACT_BELOW_NS;
            assert_eq!(us(ns), format!("{:.3}", oracle::us(ns)), "{ns} ns");
        }
        // Where the oracle misrounds: 2⁴³ µs + 1 ns, and the last stamp.
        assert_eq!(format!("{:.3}", oracle::us(8_796_093_022_208_001)), "8796093022208.002");
        assert_eq!(us(8_796_093_022_208_001), "8796093022208.001");
        assert_eq!(us(u64::MAX), "18446744073709551.615");
        for _ in 0..20_000 {
            let ns = r.next() | 1 << 63;
            assert_eq!(us(ns), format!("{}.{:03}", ns / 1000, ns % 1000), "{ns} ns");
        }
    }

    /// The per-record reservations hold for the widest record each variant
    /// can render: every integer at full width on the widest track labels,
    /// stamps at `u64::MAX`, the longest labels of the vocabulary.
    #[test]
    fn full_width_records_fit_the_reservation() {
        let (w64, w32) = (u64::MAX, u32::MAX);
        let op = OPS.into_iter().max_by_key(|op| op.len()).expect("ops");
        let kinds = vec![
            // The widest slice: a 20-digit wait that still leaves a 16-digit `ts`.
            EventKind::Fetch {
                page: w64,
                pages: w32,
                kind: FetchKind::PrefetchLate,
                wait_ns: 10_000_000_000_000_000_000,
            },
            EventKind::PrefetchIssue { page: w64, pages: w32 },
            EventKind::RefetchIssue { page: w64, pages: w32 },
            EventKind::TwinCreate { page: w64 },
            EventKind::DiffFlush { page: w64, bytes: w64 },
            EventKind::FineFlush { page: w64, bytes: w64 },
            EventKind::Invalidate { page: w64, writer: w32, batch: w32 },
            EventKind::Evict { line: w64, dirty_pages: w32 },
            EventKind::LockRequest { lock: w32 },
            EventKind::LockAcquire { lock: w32, wait_ns: 1 },
            EventKind::LockRelease { lock: w32 },
            EventKind::BarrierArrive { barrier: w32 },
            EventKind::BarrierRelease { barrier: w32, wait_ns: 1 },
            EventKind::MgrRpc { op, wait_ns: 1 },
            EventKind::MgrServe { op, tid: w32 },
            EventKind::ApplyDiff { page: w64, bytes: w64, writer: w32, batch: w32 },
            EventKind::ApplyFine { page: w64, bytes: w64, writer: w32, batch: w32 },
            EventKind::ServeFetch {
                page: w64,
                pages: w32,
                reader: w32,
                written: w32,
                queued_ns: w64,
            },
            EventKind::ServeWrite { page: w64 },
            EventKind::FabricSend { src: w64, dst: w64, class: MsgClass::Control, bytes: w64 },
            EventKind::FaultInjected { src: w64, dst: w64, kind: "partition" },
            EventKind::Retry { op, attempt: w32 },
            EventKind::Failover { from: w32, to: w32 },
            EventKind::BatchFlush { server: w32, parts: w32, bytes: w64 },
            EventKind::MgrFailover { op },
            EventKind::LeaseReclaim { lock: w32, holder: w32 },
        ];
        for track in [TrackId::Thread(w32), TrackId::MemServer(w32)] {
            for kind in &kinds {
                let trace = RunTrace::from_tracks(vec![(track, vec![ev(w64, *kind)])]);
                let line = trace.to_jsonl();
                validate_json(&line).expect("valid line");
                assert!(line.len() <= LINE_MAX, "{} > {LINE_MAX}: {line}", line.len());
                let chrome = trace.to_chrome_json();
                validate_json(&chrome).expect("valid Chrome form");
                let record = chrome.lines().nth(3).expect("two head lines, one track, one event");
                // The line lost its `\n`; the separator's comma sits on the one before.
                let len = record.len() + 2;
                assert!(len <= RECORD_MAX, "{len} > {RECORD_MAX}: {record}");
            }
        }
        // The causal layer's own records: tiles and flow arrows.
        let tile = rendered(|w| {
            w.slice(PathClass::ServerService.label(), "thread", u64::from(w32), w64, w64);
            pairs!(w, "barrier": w32);
            w.put("}}");
        });
        assert!(tile.len() <= RECORD_MAX, "{tile}");
        let flows = rendered(|w| {
            w.flow("lock-handoff", w64, (TrackId::MemServer(w32), w64), (TrackId::Fabric, 0))
        });
        let longest = flows.split(",\n").map(str::len).max().expect("two records");
        assert!(longest + 2 <= RECORD_MAX, "{flows}");
    }

    /// A writer that takes `budget` bytes and then fails every write.
    struct Failing {
        budget: usize,
        failed: bool,
        writes_after_failure: usize,
    }

    impl Failing {
        fn after(budget: usize) -> Self {
            Failing { budget, failed: false, writes_after_failure: 0 }
        }
    }

    impl io::Write for Failing {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.failed {
                self.writes_after_failure += 1;
            }
            if self.failed || self.budget < buf.len() {
                self.failed = true;
                return Err(io::Error::other("disk full"));
            }
            self.budget -= buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("flush reached"))
        }
    }

    #[test]
    fn a_failing_writer_returns_its_first_error() {
        let trace = sample_trace();
        let window = [ThreadWindow { tid: 0, epoch_ns: 0, end_ns: 5_000 }];
        for budget in [0, 1, 100, 400] {
            let mut to = Failing::after(budget);
            let err = trace.write_jsonl(&mut to).expect_err("the budget is under one export");
            assert_eq!(err.to_string(), "disk full");
            assert_eq!(to.writes_after_failure, 0, "nothing is written past the first error");
            let mut to = Failing::after(budget);
            let err = trace
                .write_chrome_json_with(&mut to, &window, &costs())
                .expect_err("the budget is under one export");
            assert_eq!(err.to_string(), "disk full");
            assert_eq!(to.writes_after_failure, 0);
        }
        // With room for every byte, the flush's own error is the result.
        let mut to = Failing::after(usize::MAX);
        assert_eq!(trace.write_jsonl(&mut to).expect_err("flush").to_string(), "flush reached");
    }
}
