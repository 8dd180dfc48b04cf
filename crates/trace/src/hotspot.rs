//! Page-granular hotspot attribution.
//!
//! The paper explains DSM overheads by pointing at *which data* causes them
//! — false sharing shows up as a handful of pages ping-ponging between
//! writers. A [`HotspotMap`] accumulates per-page protocol counters
//! (misses, refetches, invalidations, twins, diff/fine bytes) as plain
//! always-on bookkeeping: recording touches no virtual clock and costs one
//! BTreeMap update per protocol action that already pays a fetch or flush,
//! so it rides along unconditionally, like the latency histograms.
//!
//! Aggregation is page-keyed. Line-granular events (multi-page demand
//! fetches) attribute to every page of the line, so a page's `misses`
//! column answers "how often was this page brought in", regardless of line
//! geometry. The same map can also be rebuilt from a recorded event trace
//! ([`HotspotMap::from_trace`]), which the tests use to prove the always-on
//! counters and the event stream agree.

use std::collections::BTreeMap;

use crate::event::{EventKind, FetchKind};
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

    /// Record a demand fetch of `pages` consecutive pages starting at `page`.
    #[inline]
    pub fn record_miss(&mut self, page: u64, pages: u64) {
        for p in page..page + pages {
            self.entry(p).misses += 1;
        }
    }

    /// Record a post-invalidation refetch of `pages` consecutive pages
    /// starting at `page`.
    #[inline]
    pub fn record_refetch(&mut self, page: u64, pages: u64) {
        for p in page..page + pages {
            self.entry(p).refetches += 1;
        }
    }

    /// Record an invalidation of one page.
    #[inline]
    pub fn record_invalidate(&mut self, page: u64) {
        self.entry(page).invalidations += 1;
    }

    /// Record a twin creation on one page.
    #[inline]
    pub fn record_twin(&mut self, page: u64) {
        self.entry(page).twins += 1;
    }

    /// Record a diff flush of `bytes` from one page.
    #[inline]
    pub fn record_diff(&mut self, page: u64, bytes: u64) {
        self.entry(page).diff_bytes += bytes;
    }

    /// Record a fine-grain flush of `bytes` from one page.
    #[inline]
    pub fn record_fine(&mut self, page: u64, bytes: u64) {
        self.entry(page).fine_bytes += bytes;
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

    /// Rebuild a run-wide map from a recorded event trace. Only compute
    /// thread tracks contribute (server-side Apply/Serve events mirror the
    /// thread-side flush/fetch events already counted).
    pub fn from_trace(trace: &RunTrace) -> Self {
        let mut map = HotspotMap::new();
        for (track, events) in &trace.tracks {
            if !matches!(track, crate::event::TrackId::Thread(_)) {
                continue;
            }
            for e in events {
                match e.kind {
                    EventKind::Fetch { page, pages, kind, .. } => match kind {
                        FetchKind::Demand => map.record_miss(page, pages as u64),
                        FetchKind::Refetch => map.record_refetch(page, pages as u64),
                        FetchKind::PrefetchHit | FetchKind::PrefetchLate => {}
                    },
                    EventKind::RefetchIssue { page, pages } => {
                        map.record_refetch(page, u64::from(pages));
                    }
                    EventKind::Invalidate { page, .. } => map.record_invalidate(page),
                    EventKind::TwinCreate { page } => map.record_twin(page),
                    EventKind::DiffFlush { page, bytes } => map.record_diff(page, bytes),
                    EventKind::FineFlush { page, bytes } => map.record_fine(page, bytes),
                    _ => {}
                }
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceEvent, TrackId};
    use samhita_scl::SimTime;

    #[test]
    fn records_and_ranks() {
        let mut m = HotspotMap::new();
        m.record_miss(4, 2); // pages 4 and 5
        m.record_refetch(7, 1);
        m.record_refetch(7, 1);
        m.record_invalidate(7);
        m.record_twin(5);
        m.record_diff(7, 128);
        m.record_fine(9, 16);
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
        let mut a = HotspotMap::new();
        a.record_refetch(3, 1);
        a.record_diff(3, 100);
        let mut b = HotspotMap::new();
        b.record_refetch(3, 1);
        b.record_miss(8, 1);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.page(3).unwrap().refetches, 2);
        assert_eq!(merged.page(3).unwrap().diff_bytes, 100);
        assert_eq!(merged.page(8).unwrap().misses, 1);
    }

    #[test]
    fn ranking_is_deterministic_on_ties() {
        let mut m = HotspotMap::new();
        m.record_refetch(9, 1);
        m.record_refetch(2, 1);
        m.record_refetch(5, 1);
        let top = m.top_by(3, |c| c.refetches);
        let pages: Vec<u64> = top.iter().map(|&(p, _)| p).collect();
        assert_eq!(pages, vec![2, 5, 9]);
    }

    #[test]
    fn from_trace_matches_direct_recording() {
        let ns = SimTime::from_ns;
        let trace = RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                vec![
                    TraceEvent {
                        at: ns(10),
                        kind: EventKind::Fetch {
                            page: 4,
                            pages: 2,
                            kind: FetchKind::Demand,
                            wait_ns: 100,
                        },
                    },
                    TraceEvent {
                        at: ns(20),
                        kind: EventKind::Fetch {
                            page: 4,
                            pages: 2,
                            kind: FetchKind::Refetch,
                            wait_ns: 100,
                        },
                    },
                    TraceEvent { at: ns(25), kind: EventKind::RefetchIssue { page: 5, pages: 1 } },
                    TraceEvent { at: ns(30), kind: EventKind::TwinCreate { page: 4 } },
                    TraceEvent { at: ns(40), kind: EventKind::DiffFlush { page: 4, bytes: 64 } },
                    TraceEvent {
                        at: ns(50),
                        kind: EventKind::Invalidate { page: 5, writer: 1, batch: 1 },
                    },
                ],
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
        let mut expect = HotspotMap::new();
        expect.record_miss(4, 2);
        expect.record_refetch(4, 2);
        expect.record_refetch(5, 1);
        expect.record_twin(4);
        expect.record_diff(4, 64);
        expect.record_invalidate(5);
        assert_eq!(HotspotMap::from_trace(&trace), expect);
    }
}
