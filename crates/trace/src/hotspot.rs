//! Page-granular hotspot attribution.
//!
//! The paper explains DSM overheads by pointing at *which data* causes them
//! — false sharing shows up as a handful of pages ping-ponging between
//! writers. A [`HotspotMap`] accumulates per-page protocol counters
//! (misses, refetches, invalidations, twins, diff/fine bytes), folded from
//! a compute thread's events ([`HotspotMap::fold`], part of
//! [`ThreadStats::fold`](crate::ThreadStats::fold)): always on, like the
//! latency histograms, one BTreeMap update per page of a protocol action
//! that already pays a fetch or flush.
//!
//! Aggregation is page-keyed. Line-granular events (multi-page demand
//! fetches) attribute to every page of the line, so a page's `misses`
//! column answers "how often was this page brought in", regardless of line
//! geometry. The same fold over a recorded trace rebuilds the run's map
//! ([`HotspotMap::from_trace`]).

use std::collections::BTreeMap;

use crate::event::{EventKind, FetchKind, TrackId};
use crate::tracer::RunTrace;

/// Protocol activity attributed to one global page.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PageCounters {
    /// Demand fetches that brought this page in (cold/capacity misses).
    pub misses: u64,
    /// Refetches after invalidation whose run held this page — the
    /// false-sharing signal.
    pub refetches: u64,
    /// Invalidations received for this page.
    pub invalidations: u64,
    /// Twins created for this page.
    pub twins: u64,
    /// Diff payload flushed from this page, in bytes.
    pub diff_bytes: u64,
    /// Fine-grain payload flushed from this page, in bytes.
    pub fine_bytes: u64,
}

impl PageCounters {
    fn add(&mut self, other: &PageCounters) {
        self.misses += other.misses;
        self.refetches += other.refetches;
        self.invalidations += other.invalidations;
        self.twins += other.twins;
        self.diff_bytes += other.diff_bytes;
        self.fine_bytes += other.fine_bytes;
    }

    /// Coherence churn score used for default hotspot ranking: refetches and
    /// invalidations dominate (each is a whole-page round trip), twins count
    /// as write-side churn.
    pub fn churn(&self) -> u64 {
        self.refetches + self.invalidations + self.twins
    }
}

/// Per-page protocol counters for one thread or one whole run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HotspotMap {
    pages: BTreeMap<u64, PageCounters>,
}

impl HotspotMap {
    /// Create an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn entry(&mut self, page: u64) -> &mut PageCounters {
        self.pages.entry(page).or_default()
    }

    /// Fold one compute-thread event in: the rule deciding which event
    /// counts on which pages — a fetch's or refetch's run, the one page of
    /// an invalidation, twin or flush.
    pub fn fold(&mut self, kind: &EventKind) {
        let none = PageCounters::default();
        let (page, pages, add) = match *kind {
            EventKind::Fetch { page, pages, kind: FetchKind::Demand, .. } => {
                (page, pages, PageCounters { misses: 1, ..none })
            }
            EventKind::Fetch { page, pages, kind: FetchKind::Refetch, .. }
            | EventKind::RefetchIssue { page, pages } => {
                (page, pages, PageCounters { refetches: 1, ..none })
            }
            EventKind::Invalidate { page, .. } => {
                (page, 1, PageCounters { invalidations: 1, ..none })
            }
            EventKind::TwinCreate { page } => (page, 1, PageCounters { twins: 1, ..none }),
            EventKind::DiffFlush { page, bytes } => {
                (page, 1, PageCounters { diff_bytes: bytes, ..none })
            }
            EventKind::FineFlush { page, bytes } => {
                (page, 1, PageCounters { fine_bytes: bytes, ..none })
            }
            _ => return,
        };
        for p in page..page + u64::from(pages) {
            self.entry(p).add(&add);
        }
    }

    /// Fold another map into this one (per-thread maps → run map).
    pub fn merge(&mut self, other: &HotspotMap) {
        for (&page, counters) in &other.pages {
            self.entry(page).add(counters);
        }
    }

    /// Number of distinct pages with any recorded activity.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether no activity was recorded.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The counters of one page, if it saw any activity.
    pub fn page(&self, page: u64) -> Option<&PageCounters> {
        self.pages.get(&page)
    }

    /// Iterate `(page, counters)` in page order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &PageCounters)> {
        self.pages.iter().map(|(&p, c)| (p, c))
    }

    /// Sum a counter over all pages.
    pub fn total_of(&self, f: impl Fn(&PageCounters) -> u64) -> u64 {
        self.pages.values().map(f).sum()
    }

    /// The `n` pages with the largest `key`, descending (ties broken by
    /// page number, ascending, for determinism). Pages scoring 0 are
    /// omitted.
    pub fn top_by(&self, n: usize, key: impl Fn(&PageCounters) -> u64) -> Vec<(u64, PageCounters)> {
        let mut ranked: Vec<(u64, PageCounters)> =
            self.pages.iter().filter(|(_, c)| key(c) > 0).map(|(&p, c)| (p, *c)).collect();
        ranked.sort_by(|a, b| key(&b.1).cmp(&key(&a.1)).then(a.0.cmp(&b.0)));
        ranked.truncate(n);
        ranked
    }

    /// The `n` pages with the most coherence churn ([`PageCounters::churn`]).
    pub fn top_churn(&self, n: usize) -> Vec<(u64, PageCounters)> {
        self.top_by(n, PageCounters::churn)
    }

    /// Rebuild a run-wide map from a recorded event trace: every compute
    /// thread's track folded in (server-side Apply/Serve events mirror the
    /// thread-side flush/fetch events already counted).
    pub fn from_trace(trace: &RunTrace) -> Self {
        let mut map = HotspotMap::new();
        for (track, events) in &trace.tracks {
            if let TrackId::Thread(_) = track {
                events.iter().for_each(|e| map.fold(&e.kind));
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use samhita_scl::SimTime;

    fn fetch(page: u64, pages: u32, kind: FetchKind) -> EventKind {
        EventKind::Fetch { page, pages, kind, wait_ns: 100 }
    }

    fn refetch(page: u64) -> EventKind {
        EventKind::RefetchIssue { page, pages: 1 }
    }

    fn folded(events: &[EventKind]) -> HotspotMap {
        let mut m = HotspotMap::new();
        events.iter().for_each(|e| m.fold(e));
        m
    }

    #[test]
    fn records_and_ranks() {
        let m = folded(&[
            fetch(4, 2, FetchKind::Demand), // pages 4 and 5
            fetch(7, 1, FetchKind::Refetch),
            refetch(7),
            EventKind::Invalidate { page: 7, writer: 1, batch: 1 },
            EventKind::TwinCreate { page: 5 },
            EventKind::DiffFlush { page: 7, bytes: 128 },
            EventKind::FineFlush { page: 9, bytes: 16 },
            fetch(11, 2, FetchKind::PrefetchHit), // a prefetch take touches no page
        ]);
        assert_eq!(m.len(), 4);
        assert_eq!(m.page(4).unwrap().misses, 1);
        assert_eq!(m.page(5).unwrap().misses, 1);
        assert_eq!(m.page(5).unwrap().twins, 1);
        assert_eq!(m.page(7).unwrap().refetches, 2);
        assert_eq!(m.total_of(|c| c.refetches), 2);
        let top = m.top_churn(2);
        assert_eq!(top[0].0, 7); // churn 3
        assert_eq!(top[1].0, 5); // churn 1
                                 // Pages with zero score are omitted entirely.
        assert!(m.top_by(10, |c| c.fine_bytes).iter().all(|&(p, _)| p == 9));
    }

    #[test]
    fn merge_is_additive() {
        let a = folded(&[refetch(3), EventKind::DiffFlush { page: 3, bytes: 100 }]);
        let b = folded(&[refetch(3), fetch(8, 1, FetchKind::Demand)]);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.page(3).unwrap().refetches, 2);
        assert_eq!(merged.page(3).unwrap().diff_bytes, 100);
        assert_eq!(merged.page(8).unwrap().misses, 1);
    }

    #[test]
    fn ranking_is_deterministic_on_ties() {
        let m = folded(&[refetch(9), refetch(2), refetch(5)]);
        let top = m.top_by(3, |c| c.refetches);
        let pages: Vec<u64> = top.iter().map(|&(p, _)| p).collect();
        assert_eq!(pages, vec![2, 5, 9]);
    }

    #[test]
    fn from_trace_matches_direct_recording() {
        let ns = SimTime::from_ns;
        let thread = vec![
            fetch(4, 2, FetchKind::Demand),
            fetch(4, 2, FetchKind::Refetch),
            refetch(5),
            EventKind::TwinCreate { page: 4 },
            EventKind::DiffFlush { page: 4, bytes: 64 },
            EventKind::Invalidate { page: 5, writer: 1, batch: 1 },
        ];
        let trace = RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                (10..).zip(&thread).map(|(at, &kind)| TraceEvent { at: ns(at), kind }).collect(),
            ),
            // Server-side mirror events must not double count.
            (
                TrackId::MemServer(0),
                vec![TraceEvent {
                    at: ns(45),
                    kind: EventKind::ApplyDiff { page: 4, bytes: 64, writer: 0, batch: 1 },
                }],
            ),
        ]);
        assert_eq!(HotspotMap::from_trace(&trace), folded(&thread));
    }
}
