//! Per-track event buffers and run-level trace collection.
//!
//! Compute threads own a private [`TraceBuf`] (no locking on the hot path)
//! and hand it back to the [`Tracer`] when they finish. Service loops —
//! manager, memory servers, fabric observer — record through a
//! [`SharedTrack`], a mutex-wrapped buffer, because their events are pushed
//! from whichever OS thread happens to run the loop or call `Fabric::send`.
//!
//! Buffers are bounded rings: past `capacity` events the oldest are dropped
//! and counted, never blocking or reallocating without bound. A trace with
//! drops is still exportable, but the invariant checker refuses it and
//! nothing is derived from it ([`RunTrace::untruncated`]): a truncated
//! event stream cannot prove anything.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use samhita_scl::SimTime;

use crate::event::{EventKind, TraceEvent, TrackId};

/// A bounded ring of events on one track.
#[derive(Debug)]
pub struct TraceBuf {
    track: TrackId,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceBuf {
    /// Create a buffer for `track` holding at most `capacity` events.
    pub fn new(track: TrackId, capacity: usize) -> Self {
        TraceBuf { track, capacity, events: VecDeque::new(), dropped: 0 }
    }

    /// Record one event. O(1); drops the oldest event when full.
    #[inline]
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        let _prof = samhita_prof::enter(samhita_prof::Phase::TraceEvent);
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent { at, kind });
    }

    /// The track this buffer records.
    pub fn track(&self) -> TrackId {
        self.track
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// A [`TraceBuf`] shared between OS threads (service loops, fabric observer).
#[derive(Clone, Debug)]
pub struct SharedTrack(Arc<Mutex<TraceBuf>>);

impl SharedTrack {
    /// Record one event.
    #[inline]
    pub fn push(&self, at: SimTime, kind: EventKind) {
        self.0.lock().push(at, kind);
    }
}

/// Collects all track buffers for one run.
#[derive(Debug, Default)]
pub struct Tracer {
    capacity: usize,
    collected: Mutex<Vec<TraceBuf>>,
    shared: Mutex<Vec<SharedTrack>>,
}

impl Tracer {
    /// Create a tracer; every track buffer is bounded to `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Tracer { capacity, collected: Mutex::new(Vec::new()), shared: Mutex::new(Vec::new()) }
    }

    /// A private buffer for a compute-thread track; hand it back with
    /// [`Tracer::submit`] when the thread finishes.
    pub fn buf(&self, track: TrackId) -> TraceBuf {
        TraceBuf::new(track, self.capacity)
    }

    /// Register and return a shared buffer for a service track.
    pub fn shared_track(&self, track: TrackId) -> SharedTrack {
        let t = SharedTrack(Arc::new(Mutex::new(TraceBuf::new(track, self.capacity))));
        self.shared.lock().push(t.clone());
        t
    }

    /// Hand a finished thread buffer back to the tracer.
    pub fn submit(&self, buf: TraceBuf) {
        self.collected.lock().push(buf);
    }

    /// Drain everything recorded so far into a [`RunTrace`]. Shared tracks
    /// keep recording into fresh buffers afterwards.
    pub fn take(&self) -> RunTrace {
        let mut bufs = std::mem::take(&mut *self.collected.lock());
        for shared in self.shared.lock().iter() {
            let mut inner = shared.0.lock();
            let fresh = TraceBuf::new(inner.track, inner.capacity);
            bufs.push(std::mem::replace(&mut inner, fresh));
        }
        let dropped = bufs.iter().map(|buf| buf.dropped).sum();
        // Each ring is copied out at its length: a ring grew by doubling
        // over the whole run, and adopted it would stay resident at its
        // capacity through the export.
        let lists = bufs
            .into_iter()
            .map(|buf| {
                let (front, back) = buf.events.as_slices();
                (buf.track, [front, back].concat())
            })
            .collect();
        RunTrace { tracks: merged(lists), dropped }
    }
}

/// Per-track event lists as a trace's tracks: in [`TrackId`] order, a
/// track's lists appended in the order they come, its events stably sorted
/// by stamp. A track's first list is adopted, not copied, and a track
/// already in stamp order is not sorted: of a run's tracks only the
/// fabric's needs it, where every endpoint's sends interleave.
fn merged(mut lists: Vec<(TrackId, Vec<TraceEvent>)>) -> Vec<(TrackId, Vec<TraceEvent>)> {
    lists.sort_by_key(|(track, _)| *track);
    let mut tracks: Vec<(TrackId, Vec<TraceEvent>)> = Vec::with_capacity(lists.len());
    for (track, events) in lists {
        match tracks.last_mut() {
            Some((last, merged)) if *last == track => merged.extend(events),
            _ => tracks.push((track, events)),
        }
    }
    for (_, events) in &mut tracks {
        if !events.is_sorted_by_key(|e| e.at) {
            events.sort_by_key(|e| e.at);
        }
    }
    tracks
}

/// The full event record of one run: per-track event streams, each sorted by
/// virtual time, with tracks in [`TrackId`] order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunTrace {
    /// (track, events-sorted-by-stamp) pairs, sorted by track id.
    pub tracks: Vec<(TrackId, Vec<TraceEvent>)>,
    /// Events lost to buffer capacity across all tracks.
    pub dropped: u64,
}

impl RunTrace {
    /// Total recorded events across all tracks.
    pub fn len(&self) -> usize {
        self.tracks.iter().map(|(_, ev)| ev.len()).sum()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The event stream of one track, if present.
    pub fn track(&self, id: TrackId) -> Option<&[TraceEvent]> {
        self.tracks.iter().find(|(t, _)| *t == id).map(|(_, ev)| ev.as_slice())
    }

    /// Build a trace directly from per-track event lists (used by tests and
    /// the checker fixtures), merged as [`Tracer::take`] merges buffers:
    /// tracks by id, a track's lists in order, events sorted per track.
    pub fn from_tracks(tracks: Vec<(TrackId, Vec<TraceEvent>)>) -> Self {
        RunTrace { tracks: merged(tracks), dropped: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn ring_drops_oldest_past_capacity() {
        let mut buf = TraceBuf::new(TrackId::Thread(0), 3);
        for i in 0..5u64 {
            buf.push(SimTime::from_ns(i), EventKind::TwinCreate { page: i });
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 2);
        assert_eq!(buf.events[0].kind, EventKind::TwinCreate { page: 2 });
    }

    #[test]
    fn tracer_merges_and_sorts_tracks() {
        let tracer = Tracer::new(1024);
        let mut t1 = tracer.buf(TrackId::Thread(1));
        let mut t0 = tracer.buf(TrackId::Thread(0));
        t1.push(SimTime::from_ns(20), EventKind::TwinCreate { page: 1 });
        t0.push(SimTime::from_ns(10), EventKind::TwinCreate { page: 0 });
        let mgr = tracer.shared_track(TrackId::Manager);
        mgr.push(SimTime::from_ns(5), EventKind::MgrServe { op: "acquire", tid: 0 });
        tracer.submit(t1);
        tracer.submit(t0);
        let trace = tracer.take();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.dropped, 0);
        // Tracks come out in TrackId order: Thread(0), Thread(1), Manager.
        let ids: Vec<TrackId> = trace.tracks.iter().map(|(t, _)| *t).collect();
        assert_eq!(ids, vec![TrackId::Thread(0), TrackId::Thread(1), TrackId::Manager]);
        // A second take sees only what was recorded since.
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn take_sorts_within_track() {
        let tracer = Tracer::new(16);
        // Two buffers for the same track (e.g. two phases) interleave.
        let mut a = tracer.buf(TrackId::Thread(0));
        let mut b = tracer.buf(TrackId::Thread(0));
        a.push(SimTime::from_ns(30), EventKind::TwinCreate { page: 3 });
        b.push(SimTime::from_ns(10), EventKind::TwinCreate { page: 1 });
        a.push(SimTime::from_ns(50), EventKind::TwinCreate { page: 5 });
        tracer.submit(a);
        tracer.submit(b);
        let trace = tracer.take();
        let events = trace.track(TrackId::Thread(0)).expect("track");
        let stamps: Vec<u64> = events.iter().map(|e| e.at.as_ns()).collect();
        assert_eq!(stamps, vec![10, 30, 50]);
    }

    /// What `take` and `from_tracks` returned before either adopted a
    /// buffer: each track's buffers appended in the order they come, then a
    /// stable sort by stamp.
    fn merged_as_before(bufs: &[(TrackId, Vec<TraceEvent>)]) -> Vec<(TrackId, Vec<TraceEvent>)> {
        let mut map: BTreeMap<TrackId, Vec<TraceEvent>> = BTreeMap::new();
        for (id, events) in bufs {
            map.entry(*id).or_default().extend(events.iter().cloned());
        }
        for events in map.values_mut() {
            events.sort_by_key(|e| e.at);
        }
        map.into_iter().collect()
    }

    /// Thread 0 is fed by two collected buffers and a shared one, out of
    /// stamp order within a buffer and tied at 10 ns across all three;
    /// thread 1's ring wrapped; the manager's one buffer is in order. Both
    /// entry points must give the old merge: ties in buffer order
    /// (collected in submission order, then shared), the wrapped ring's
    /// newest events, every track sorted.
    #[test]
    fn fed_and_unordered_tracks_merge_as_before() {
        let tracer = Tracer::new(5);
        let mut fed: Vec<(TrackId, Vec<TraceEvent>)> = Vec::new();
        let mut page = 0;
        let mut record = |at: u64| {
            page += 1;
            TraceEvent { at: SimTime::from_ns(at), kind: EventKind::TwinCreate { page } }
        };
        let mut push = |buf: &mut TraceBuf, fed_as: &mut Vec<TraceEvent>, stamps: &[u64]| {
            for &at in stamps {
                let e = record(at);
                buf.push(e.at, e.kind);
                fed_as.push(e);
            }
        };
        let (mut a, mut c, mut b) = (Vec::new(), Vec::new(), Vec::new());
        let mut buf_a = tracer.buf(TrackId::Thread(0));
        push(&mut buf_a, &mut a, &[30, 10, 20]);
        let mut buf_c = tracer.buf(TrackId::Thread(0));
        push(&mut buf_c, &mut c, &[10, 40]);
        let mut buf_b = tracer.buf(TrackId::Thread(1));
        push(&mut buf_b, &mut b, &[1, 2, 3, 4, 5, 6, 7]);
        let shared = tracer.shared_track(TrackId::Thread(0));
        let mgr = tracer.shared_track(TrackId::Manager);
        let (mut s, mut m) = (Vec::new(), Vec::new());
        for (at, page) in [(10, 100), (5, 101)] {
            shared.push(SimTime::from_ns(at), EventKind::TwinCreate { page });
            s.push(TraceEvent { at: SimTime::from_ns(at), kind: EventKind::TwinCreate { page } });
        }
        for at in [3, 8, 9] {
            mgr.push(SimTime::from_ns(at), EventKind::MgrServe { op: "acquire", tid: 0 });
            m.push(TraceEvent {
                at: SimTime::from_ns(at),
                kind: EventKind::MgrServe { op: "acquire", tid: 0 },
            });
        }
        assert_eq!(buf_b.dropped(), 2);
        b.drain(..2);
        tracer.submit(buf_a);
        tracer.submit(buf_b);
        tracer.submit(buf_c);
        // The order `take` meets them in: submissions, then shared tracks.
        fed.extend([
            (TrackId::Thread(0), a),
            (TrackId::Thread(1), b),
            (TrackId::Thread(0), c),
            (TrackId::Thread(0), s),
            (TrackId::Manager, m),
        ]);
        let want = merged_as_before(&fed);
        let pages: Vec<u64> = want[0]
            .1
            .iter()
            .map(|e| match e.kind {
                EventKind::TwinCreate { page } => page,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pages, [101, 2, 4, 100, 3, 1, 5], "stamps 5, 10 ×3, 20, 30, 40");
        let taken = tracer.take();
        assert_eq!(taken, RunTrace { tracks: want.clone(), dropped: 2 });
        assert_eq!(RunTrace::from_tracks(fed), RunTrace { tracks: want, dropped: 0 });
    }
}
