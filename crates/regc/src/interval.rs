//! Write-notice intervals.
//!
//! Every flush (lock release, barrier entry, condition wait) closes an
//! *interval* for the flushing thread and publishes a [`WriteNotice`] naming
//! the pages it modified. The manager stores these in a global
//! [`IntervalLog`]; at each acquire/barrier a thread receives all notices it
//! has not yet seen and invalidates its cached copies of pages written by
//! *other* threads. Per-thread high-water marks allow the log to be
//! truncated once every registered thread has seen a prefix.

use std::sync::Arc;

/// A fine-grain (consistency-region) update carried inside a write notice.
///
/// Because consistency-region stores are tracked at data-object granularity,
/// their *data* can travel with the notice: receivers apply the bytes to
/// their cached copy instead of invalidating and refetching the page. This
/// is how "Samhita's synchronization operations move only the minimum
/// amount of data required".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FineUpdate {
    /// Global page number.
    pub page: u64,
    /// Byte offset within the page.
    pub offset: u32,
    /// The new bytes.
    pub bytes: Vec<u8>,
}

impl FineUpdate {
    /// Wire size estimate (payload + header).
    pub fn wire_bytes(&self) -> usize {
        16 + self.bytes.len()
    }
}

/// One published interval: "thread `writer` modified `pages`" (page
/// granularity ⇒ receivers invalidate) plus carried fine-grain `updates`
/// (object granularity ⇒ receivers apply in place).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteNotice {
    /// Global sequence number (monotonically increasing, starting at 1).
    pub seq: u64,
    /// The writing thread.
    pub writer: u32,
    /// Global page numbers modified in ordinary regions, ascending.
    pub pages: Vec<u64>,
    /// Fine-grain updates from consistency regions.
    pub updates: Vec<FineUpdate>,
}

impl WriteNotice {
    /// Wire size estimate.
    pub fn wire_bytes(&self) -> usize {
        16 + self.pages.len() * 8 + self.updates.iter().map(FineUpdate::wire_bytes).sum::<usize>()
    }
}

/// The manager's global log of write notices. Records are shared, not
/// copied, into the answers that carry them: a barrier release hands each
/// of P waiters a suffix of the same log, which by value is P² notice
/// clones live at once.
#[derive(Clone, Debug, Default)]
pub struct IntervalLog {
    records: Vec<Arc<WriteNotice>>,
    /// Sequence number of the first retained record minus one (records with
    /// `seq <= base_seq` have been truncated).
    base_seq: u64,
    next_seq: u64,
}

impl IntervalLog {
    /// An empty log; the first published interval gets `seq == 1`.
    pub fn new() -> Self {
        IntervalLog { records: Vec::new(), base_seq: 0, next_seq: 1 }
    }

    /// Publish an interval for `writer`. Empty intervals are skipped (no
    /// notice needed) and return the current sequence watermark.
    ///
    /// `pages` must be strictly ascending — a flush hands them over from an
    /// ordered set — because receivers binary-search the list.
    pub fn publish(&mut self, writer: u32, pages: Vec<u64>, updates: Vec<FineUpdate>) -> u64 {
        debug_assert!(pages.windows(2).all(|w| w[0] < w[1]), "notice pages not ascending");
        if pages.is_empty() && updates.is_empty() {
            return self.next_seq - 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.records.push(Arc::new(WriteNotice { seq, writer, pages, updates }));
        seq
    }

    /// All notices with `seq > last_seen`, in publication order.
    ///
    /// # Panics
    /// Panics if `last_seen` falls before the truncation point — the caller
    /// would silently miss notices, which is a protocol bug.
    pub fn since(&self, last_seen: u64) -> Vec<Arc<WriteNotice>> {
        assert!(
            last_seen >= self.base_seq,
            "notices before seq {} were truncated (asked for > {})",
            self.base_seq,
            last_seen
        );
        let skip = (last_seen - self.base_seq) as usize;
        self.records[skip.min(self.records.len())..].to_vec()
    }

    /// The highest sequence number published so far.
    pub fn watermark(&self) -> u64 {
        self.next_seq - 1
    }

    /// Drop records already seen by every thread (callers pass the minimum
    /// of all per-thread `last_seen` values).
    pub fn truncate_seen(&mut self, min_last_seen: u64) {
        if min_last_seen <= self.base_seq {
            return;
        }
        let drop = (min_last_seen - self.base_seq) as usize;
        let drop = drop.min(self.records.len());
        self.records.drain(..drop);
        self.base_seq = min_last_seen;
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_assigns_increasing_seqs() {
        let mut log = IntervalLog::new();
        assert_eq!(log.publish(0, vec![1], vec![]), 1);
        assert_eq!(log.publish(1, vec![2], vec![]), 2);
        assert_eq!(log.watermark(), 2);
    }

    #[test]
    fn empty_page_list_publishes_nothing() {
        let mut log = IntervalLog::new();
        assert_eq!(log.publish(0, vec![], vec![]), 0);
        assert!(log.is_empty());
        assert_eq!(log.watermark(), 0);
    }

    #[test]
    fn since_returns_unseen_suffix() {
        let mut log = IntervalLog::new();
        log.publish(0, vec![10], vec![]);
        log.publish(1, vec![20], vec![]);
        log.publish(2, vec![30], vec![]);
        let unseen = log.since(1);
        assert_eq!(unseen.len(), 2);
        assert_eq!(unseen[0].pages, vec![20]);
        assert_eq!(unseen[1].pages, vec![30]);
        assert!(log.since(3).is_empty());
    }

    #[test]
    fn truncation_preserves_since_semantics() {
        let mut log = IntervalLog::new();
        for i in 0..10u64 {
            log.publish(0, vec![i], vec![]);
        }
        log.truncate_seen(4);
        assert_eq!(log.len(), 6);
        let unseen = log.since(4);
        assert_eq!(unseen.len(), 6);
        assert_eq!(unseen[0].seq, 5);
        // Idempotent / non-regressing truncation.
        log.truncate_seen(2);
        assert_eq!(log.len(), 6);
        log.truncate_seen(10);
        assert!(log.is_empty());
        assert_eq!(log.watermark(), 10);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn asking_for_truncated_history_panics() {
        let mut log = IntervalLog::new();
        for i in 0..5u64 {
            log.publish(0, vec![i], vec![]);
        }
        log.truncate_seen(3);
        let _ = log.since(1);
    }

    #[test]
    fn writers_recorded() {
        let mut log = IntervalLog::new();
        log.publish(7, vec![1, 2, 3], vec![]);
        let n = &log.since(0)[0];
        assert_eq!(n.writer, 7);
        assert_eq!(n.pages, vec![1, 2, 3]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Under any interleaving of publishes, reads, and truncations at
        /// read watermarks, a reader that tracks its watermark never misses
        /// a notice and never sees one twice.
        #[test]
        fn readers_see_every_notice_exactly_once(
            ops in proptest::collection::vec((0u8..3, 0u32..4, 0u64..64), 1..120)
        ) {
            let mut log = IntervalLog::new();
            let mut last_seen = [0u64; 4];
            let mut seen_counts = [0u64; 4];
            let mut published = 0u64;
            for (kind, who, page) in ops {
                let who = who as usize;
                match kind {
                    0 => {
                        log.publish(who as u32, vec![page], vec![]);
                        published += 1;
                    }
                    1 => {
                        let unseen = log.since(last_seen[who]);
                        for pair in unseen.windows(2) {
                            prop_assert!(pair[0].seq < pair[1].seq, "out of order");
                        }
                        if let Some(first) = unseen.first() {
                            prop_assert_eq!(first.seq, last_seen[who] + 1, "gap in delivery");
                        }
                        seen_counts[who] += unseen.len() as u64;
                        last_seen[who] = log.watermark();
                    }
                    _ => {
                        // Truncate up to the slowest reader: always safe.
                        let floor = *last_seen.iter().min().expect("readers");
                        log.truncate_seen(floor);
                    }
                }
            }
            // Final drain: everyone catches up and has seen exactly
            // `published` notices.
            for who in 0..4 {
                seen_counts[who] += log.since(last_seen[who]).len() as u64;
                prop_assert_eq!(seen_counts[who], published, "reader {} missed notices", who);
            }
        }
    }
}
