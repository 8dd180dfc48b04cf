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

use std::collections::{BTreeMap, VecDeque};
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
        let mut dropped = 0u64;
        let mut tracks: BTreeMap<TrackId, Vec<TraceEvent>> = BTreeMap::new();
        for buf in bufs {
            dropped += buf.dropped;
            tracks.entry(buf.track).or_default().extend(buf.events);
        }
        for events in tracks.values_mut() {
            events.sort_by_key(|e| e.at);
        }
        RunTrace { tracks: tracks.into_iter().collect(), dropped }
    }
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
    /// the checker fixtures). Events are sorted per track; tracks by id.
    pub fn from_tracks(tracks: Vec<(TrackId, Vec<TraceEvent>)>) -> Self {
        let mut map: BTreeMap<TrackId, Vec<TraceEvent>> = BTreeMap::new();
        for (id, events) in tracks {
            map.entry(id).or_default().extend(events);
        }
        for events in map.values_mut() {
            events.sort_by_key(|e| e.at);
        }
        RunTrace { tracks: map.into_iter().collect(), dropped: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
