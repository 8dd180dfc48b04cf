//! Write-notice intervals.
//!
//! Every flush (lock release, barrier entry, condition wait) closes an
//! *interval* for the flushing thread and publishes a [`WriteNotice`] naming
//! the pages it modified. The manager stores these in a global
//! [`IntervalLog`]. At each acquire/barrier a thread is owed the suffix of
//! the log it has not yet seen — but it is not *sent* that suffix. It is
//! sent what the suffix amounts to for this reader, a [`NoticeSet`]
//! ([`IntervalLog::merged_since`]):
//!
//! * the union of pages written by anyone but the reader, as ascending
//!   [`PageRun`]s `(first_page, len, writer)` — the reader invalidates its
//!   cached copies; `writer` is the first other thread that named the page,
//!   so a traced invalidation still points at a thread that really flushed
//!   it;
//! * the fine-grain updates from other writers that still matter: none for
//!   a page in that union (the whole page is stale), and of several updates
//!   to the identical `(page, offset, len)` only the last.
//!
//! Applying the set leaves a cache exactly as applying the suffix notice by
//! notice would (own notices skipped): a page goes `Invalid` at the first
//! foreign notice naming it and nothing later can touch it, and an update
//! that a later identical-range update overwrites leaves no byte behind.
//! Partially overlapping updates are all kept, in publication order. What
//! the set saves is wire: a lock chain of P threads bumping one counter
//! carries one update per grant, not P, and a barrier release one run per
//! writer's block, not one page list per writer per flush.
//!
//! A record may also be skipped by up to two readers besides its writer: a
//! lock holder that hands the lock straight to its successor sends it its
//! interval, which the successor applies after the rest of its grant
//! ([`NoticeSet::followed_by`]), and the successor relays it on to the
//! thread after it when that thread's grant began before the interval was
//! published. The manager publishes the interval *seen by* both
//! ([`IntervalLog::publish_seen_by`]), and it must never be sent either of
//! them again. To the merge a record is skipped by its *skippers* — its
//! writer and its seers — the way it was skipped by its writer alone.
//!
//! A record also carries its writer's [`Marks`]: how many update batches it
//! had sent to each home by the time it published. A writer does not wait
//! for its batches to be applied before it publishes, so a reader that
//! fetches a page it was told about names the batches the home must have
//! applied first; a set carries, per writer in the suffix and per home, the
//! highest mark. It must be per writer: a run names a page's first writer
//! only, and a later writer of the same page must be waited for too.
//!
//! Per-thread high-water marks allow the log to be truncated once every
//! registered thread has seen a prefix.

use std::collections::hash_map::Entry;
use std::collections::{btree_map, BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

/// The highest update-batch number per home and writer, `[home][writer]`
/// (0 for none), shared by every set that carries it; naming none
/// allocates nothing. Joining, requiring and checking them are passes of
/// maxima over arrays.
///
/// On the wire, per home: a 16-byte header (home, first and last writer
/// named, the lowest number) and, per writer between, its number less the
/// lowest plus one (0 for none) in as many bits as the largest needs.
/// Writers of one SPMD program flush about as often, so a few bits are the
/// rule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Marks(Option<Arc<(Vec<Vec<u32>>, usize)>>);

impl Marks {
    /// Batch numbers by home and then writer.
    pub fn from_batches(by_home: Vec<Vec<u32>>) -> Marks {
        let wire: usize = by_home.iter().map(|by_writer| home_wire_bytes(by_writer)).sum();
        Marks((wire > 0).then(|| Arc::new((by_home, wire))))
    }

    /// `writer`'s marks: how many batches it sent to each home.
    pub fn of_writer(writer: u32, batches: &[u32]) -> Marks {
        let mut by_home = Vec::new();
        for (home, &batch) in (0..).zip(batches) {
            Marks::raise(&mut by_home, home, writer, batch);
        }
        Marks::from_batches(by_home)
    }

    /// Raise `by_home[home][writer]` to at least `batch`.
    pub fn raise(by_home: &mut Vec<Vec<u32>>, home: u32, writer: u32, batch: u32) {
        let (home, writer) = (home as usize, writer as usize);
        by_home.resize(by_home.len().max(home + 1), Vec::new());
        let by_writer = &mut by_home[home];
        by_writer.resize(by_writer.len().max(writer + 1), 0);
        by_writer[writer] = by_writer[writer].max(batch);
    }

    /// Raise `by_home[home][writer]` to at least these marks.
    pub fn raise_into(&self, by_home: &mut Vec<Vec<u32>>) {
        by_home.resize(by_home.len().max(self.at_homes().len()), Vec::new());
        for (into, from) in by_home.iter_mut().zip(self.at_homes()) {
            into.resize(into.len().max(from.len()), 0);
            for (into, &from) in into.iter_mut().zip(from) {
                *into = (*into).max(from);
            }
        }
    }

    /// The batch numbers by home and then writer.
    pub fn at_homes(&self) -> &[Vec<u32>] {
        self.0.as_ref().map_or(&[], |marks| &marks.0)
    }

    /// `writer`'s batch number at `home`, 0 for none.
    pub fn batch(&self, home: u32, writer: u32) -> u32 {
        let by_writer = self.at_homes().get(home as usize);
        by_writer.and_then(|by_writer| by_writer.get(writer as usize)).copied().unwrap_or(0)
    }

    /// Whether no mark is named.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// Both, the higher batch of a pair named by both.
    pub fn join(&self, other: &Marks) -> Marks {
        match (self.is_empty(), other.is_empty()) {
            (_, true) => self.clone(),
            (true, _) => other.clone(),
            _ => {
                let mut by_home = self.at_homes().to_vec();
                other.raise_into(&mut by_home);
                Marks::from_batches(by_home)
            }
        }
    }

    /// Bytes on the wire.
    pub fn wire_bytes(&self) -> usize {
        self.0.as_ref().map_or(0, |marks| marks.1)
    }
}

/// One home's marks on the wire (see [`Marks`]).
fn home_wire_bytes(by_writer: &[u32]) -> usize {
    let (mut first, mut last, mut lo, mut hi) = (usize::MAX, 0, u32::MAX, 0);
    for (writer, &batch) in by_writer.iter().enumerate().filter(|&(_, &batch)| batch > 0) {
        (first, last) = (first.min(writer), writer);
        (lo, hi) = (lo.min(batch), hi.max(batch));
    }
    match hi {
        0 => 0,
        _ => {
            16 + ((last - first + 1) * (u32::BITS - (hi - lo + 1).leading_zeros()) as usize)
                .div_ceil(8)
        }
    }
}

/// What one synchronization operation of a writer publishes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Interval {
    /// The pages its flushes diffed, strictly ascending.
    pub pages: Vec<u64>,
    /// The fine-grain updates it flushed.
    pub updates: Vec<FineUpdate>,
    /// Per home, how many update batches the writer had sent there by then
    /// (0 for none): a home that applied them has every flush it published.
    pub batches: Vec<u32>,
}

impl Interval {
    /// Whether it publishes nothing.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty() && self.updates.is_empty()
    }

    /// Bytes on the wire: 8 per page, header plus payload per update, 4 per
    /// home's batch count.
    pub fn wire_bytes(&self) -> usize {
        let updates: usize = self.updates.iter().map(FineUpdate::wire_bytes).sum();
        8 * self.pages.len() + updates + 4 * self.batches.len()
    }
}

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
    /// Wire size (payload + header).
    pub fn wire_bytes(&self) -> usize {
        16 + self.bytes.len()
    }

    /// The `(page, offset, len)` it overwrites.
    fn range(&self) -> (u64, u32, usize) {
        (self.page, self.offset, self.bytes.len())
    }
}

/// One published interval: "thread `writer` modified `pages`" (page
/// granularity ⇒ receivers invalidate) plus carried fine-grain `updates`
/// (object granularity ⇒ receivers apply in place). This is the log's
/// record; what a reader receives is a [`NoticeSet`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteNotice {
    /// Global sequence number (monotonically increasing, starting at 1).
    pub seq: u64,
    /// The writing thread.
    pub writer: u32,
    /// The threads the interval was handed to with a lock, which have
    /// applied it already; skipped by them like by its writer.
    pub seen_by: Seers,
    /// Global page numbers modified in ordinary regions, ascending.
    pub pages: Vec<u64>,
    /// Fine-grain updates from consistency regions, shared with every
    /// [`NoticeSet`] that carries them.
    pub updates: Vec<Arc<FineUpdate>>,
    /// Per home, the writer's update batches sent there by then.
    pub batches: Vec<u32>,
}

/// `len` consecutive pages, starting at `first_page`, that the reader must
/// invalidate; `writer` is the first thread other than the reader that
/// named them in the merged suffix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageRun {
    /// First page of the run.
    pub first_page: u64,
    /// Number of pages.
    pub len: u32,
    /// A thread that flushed every page of the run.
    pub writer: u32,
}

impl PageRun {
    /// The pages of the run, ascending.
    pub fn pages(&self) -> std::ops::Range<u64> {
        self.first_page..self.first_page + self.len as u64
    }
}

/// A set's runs, ascending and disjoint, with their size on the wire: per
/// run, LEB128 varints of the gap from the previous run's end (from page 0
/// for the first), the length and the writer. The size is worked out once,
/// the first time it is asked for: most sets are merged into others and
/// never sent, and a walk for every set built is a measurable share of a
/// lock chain's host time (EXPERIMENTS.md "Refetch what was used").
#[derive(Clone, Debug, Default)]
pub struct Runs {
    runs: Vec<PageRun>,
    wire: OnceLock<usize>,
}

impl Runs {
    /// Bytes on the wire.
    pub fn wire_bytes(&self) -> usize {
        // An unsigned LEB128 varint carries 7 bits a byte.
        let leb128 = |v: u64| (u64::BITS - (v | 1).leading_zeros()).div_ceil(7) as usize;
        *self.wire.get_or_init(|| {
            let ends = std::iter::once(0).chain(self.runs.iter().map(|r| r.pages().end));
            let bytes = |(r, end): (&PageRun, u64)| {
                leb128(r.first_page - end) + leb128(r.len.into()) + leb128(r.writer.into())
            };
            self.runs.iter().zip(ends).map(bytes).sum()
        })
    }
}

impl From<Vec<PageRun>> for Runs {
    fn from(runs: Vec<PageRun>) -> Runs {
        Runs { runs, wire: OnceLock::new() }
    }
}

impl PartialEq for Runs {
    fn eq(&self, other: &Runs) -> bool {
        self.runs == other.runs
    }
}

impl Eq for Runs {}

impl std::ops::Deref for Runs {
    type Target = [PageRun];

    fn deref(&self) -> &[PageRun] {
        &self.runs
    }
}

/// Append `next`, which starts at or after the end of the last run, growing
/// that run instead when the two are one.
fn append(runs: &mut Vec<PageRun>, next: PageRun) {
    match runs.last_mut() {
        Some(run) if run.writer == next.writer && run.pages().end == next.first_page => {
            run.len += next.len;
        }
        _ => runs.push(next),
    }
}

/// Of several updates to one identical range keep only the last.
fn last_per_range(mut updates: Vec<Arc<FineUpdate>>) -> Vec<Arc<FineUpdate>> {
    // A handful at most, so a scan of the later ones beats hashing.
    let mut at = 0;
    while at < updates.len() {
        let range = updates[at].range();
        if updates[at + 1..].iter().any(|later| later.range() == range) {
            updates.remove(at);
        } else {
            at += 1;
        }
    }
    updates
}

/// What one reader needs from a suffix of the log, in the form it is sent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NoticeSet {
    /// Pages to invalidate: ascending, disjoint, maximal per writer.
    pub runs: Runs,
    /// Updates to apply in place, in publication order.
    pub updates: Vec<Arc<FineUpdate>>,
    /// Per writer and home, the highest mark in the suffix. One merge
    /// serves every reader, so the list is shared and names the reader's
    /// own marks too; a reader ignores those.
    pub marks: Marks,
}

impl NoticeSet {
    /// Wire size of the encoding: a 16-byte header (watermark, three
    /// counts), the runs ([`Runs`]), header plus payload per update, and
    /// the marks ([`Marks`]).
    pub fn wire_bytes(&self) -> usize {
        16 + self.runs.wire_bytes()
            + self.updates.iter().map(|u| u.wire_bytes()).sum::<usize>()
            + self.marks.wire_bytes()
    }

    /// What one interval of `writer` amounts to for any other reader: its
    /// pages as runs, its updates but those to its own pages, its marks.
    pub fn interval(writer: u32, interval: &Interval) -> NoticeSet {
        let mut runs = Vec::new();
        for &first_page in &interval.pages {
            append(&mut runs, PageRun { first_page, len: 1, writer });
        }
        let own = |u: &&FineUpdate| interval.pages.binary_search(&u.page).is_err();
        let carried = interval.updates.iter().filter(own);
        let updates = last_per_range(carried.cloned().map(Arc::new).collect());
        let marks = Marks::of_writer(writer, &interval.batches);
        NoticeSet { runs: runs.into(), updates, marks }
    }

    /// This set followed by `later`, both sent to one reader: what applying
    /// the one and then the other does. A page in both stays on this set's
    /// account, this set's updates to `later`'s pages die, `later`'s updates
    /// to this set's pages never apply, of updates to one identical range
    /// only the last is kept, and of two marks of one writer at one home the
    /// higher.
    pub fn followed_by(&self, later: &NoticeSet) -> NoticeSet {
        let first_after =
            |runs: &[PageRun], page: u64| runs.partition_point(|r| r.pages().end <= page);
        // The parts of `later`'s runs this set's runs leave uncovered, in
        // page order, then both merged in one pass.
        let mut uncovered = Vec::new();
        for run in later.runs.iter() {
            let (mut at, end) = (run.first_page, run.pages().end);
            for earlier in &self.runs[first_after(&self.runs, at)..] {
                if earlier.first_page >= end {
                    break;
                }
                if earlier.first_page > at {
                    let len = (earlier.first_page - at) as u32;
                    uncovered.push(PageRun { first_page: at, len, writer: run.writer });
                }
                at = at.max(earlier.pages().end);
            }
            if at < end {
                uncovered.push(PageRun {
                    first_page: at,
                    len: (end - at) as u32,
                    writer: run.writer,
                });
            }
        }
        let mut runs = Vec::with_capacity(self.runs.len() + uncovered.len());
        let (mut mine, mut theirs) =
            (self.runs.iter().peekable(), uncovered.into_iter().peekable());
        loop {
            let next = match (mine.peek(), theirs.peek()) {
                (Some(a), Some(b)) if b.first_page < a.first_page => theirs.next(),
                (Some(_), _) => mine.next().copied(),
                (None, _) => theirs.next(),
            };
            let Some(run) = next else { break };
            append(&mut runs, run);
        }
        let kept = self.updates.iter().filter(|u| !covers(&later.runs, u.page));
        let applied = later.updates.iter().filter(|u| !covers(&self.runs, u.page));
        NoticeSet {
            runs: runs.into(),
            updates: last_per_range(kept.chain(applied).cloned().collect()),
            marks: self.marks.join(&later.marks),
        }
    }

    /// This set as sent ahead of `later` to one reader: without the
    /// updates `later` overwrites or invalidates, which
    /// [`followed_by`](Self::followed_by) would drop — so this set, then
    /// `later`, does what it did.
    pub fn ahead_of(&self, later: &NoticeSet) -> NoticeSet {
        let live = |u: &&Arc<FineUpdate>| {
            !covers(&later.runs, u.page) && later.updates.iter().all(|l| l.range() != u.range())
        };
        NoticeSet { updates: self.updates.iter().filter(live).cloned().collect(), ..self.clone() }
    }
}

/// Whether `runs` (ascending, disjoint) name `page`.
fn covers(runs: &[PageRun], page: u64) -> bool {
    let at = runs.partition_point(|r| r.pages().end <= page);
    runs.get(at).is_some_and(|r| r.first_page <= page)
}

/// The threads besides its writer that have applied a record already: the
/// thread it was handed to with a lock, and the one that thread relayed it
/// to. Distinct, and neither is the writer.
pub type Seers = [Option<u32>; 2];

/// Blame `page` on a first record of skippers `who` in `runs` (ascending,
/// maximal per skippers), wherever it stood before.
fn blame_run(runs: &mut Vec<(PageRun, Seers)>, page: u64, who: Skippers) {
    let one = (PageRun { first_page: page, len: 1, writer: who.writer }, who.seen_by);
    let i = runs.partition_point(|(r, _)| r.pages().end <= page);
    let at = match runs.get(i).copied() {
        Some((r, seen_by)) if r.first_page <= page => {
            if (r.writer, seen_by) == (who.writer, who.seen_by) {
                return;
            }
            // Split the run around the page.
            let left = PageRun { len: (page - r.first_page) as u32, ..r };
            let right = PageRun { first_page: page + 1, len: r.len - left.len - 1, ..r };
            runs[i] = one;
            if right.len > 0 {
                runs.insert(i + 1, (right, seen_by));
            }
            if left.len > 0 {
                runs.insert(i, (left, seen_by));
            }
            i + usize::from(left.len > 0)
        }
        _ => {
            runs.insert(i, one);
            i
        }
    };
    // Join the neighbours it now touches.
    let joins = |(a, s): (PageRun, Seers), (b, t): (PageRun, Seers)| {
        (a.writer, s) == (b.writer, t) && a.pages().end == b.first_page
    };
    if at + 1 < runs.len() && joins(runs[at], runs[at + 1]) {
        runs[at].0.len += runs.remove(at + 1).0.len;
    }
    if at > 0 && joins(runs[at - 1], runs[at]) {
        runs[at - 1].0.len += runs.remove(at).0.len;
    }
}

/// Who skips a record: its writer, and its seers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Skippers {
    writer: u32,
    seen_by: Seers,
}

impl Skippers {
    fn of(n: &WriteNotice) -> Self {
        Skippers { writer: n.writer, seen_by: n.seen_by }
    }

    /// The skippers by slot: the writer, then each seer.
    fn slots(&self) -> [Option<u32>; 3] {
        [Some(self.writer), self.seen_by[0], self.seen_by[1]]
    }

    /// The slot `reader` skips the record by, if it does.
    fn slot(&self, reader: u32) -> Option<usize> {
        self.slots().iter().position(|&s| s == Some(reader))
    }

    fn skip(&self, reader: u32) -> bool {
        self.slot(reader).is_some()
    }
}

/// Who a page is blamed on: the first record that named it, and for each
/// of that record's skippers, by slot, the writer of the first record it
/// does not skip — so every reader's answer is at hand.
#[derive(Clone, Copy, Debug)]
struct Blame {
    first: Skippers,
    by_slot: [Option<u32>; 3],
}

impl Blame {
    fn new(first: Skippers) -> Self {
        Blame { first, by_slot: [None; 3] }
    }

    /// Who `reader` should blame for the page being stale, if anyone.
    fn of(&self, reader: u32) -> Option<u32> {
        match self.first.slot(reader) {
            None => Some(self.first.writer),
            Some(slot) => self.by_slot[slot],
        }
    }

    /// A later record of `n` named the page.
    fn then(&mut self, n: Skippers) {
        for (blamed, skipper) in self.by_slot.iter_mut().zip(self.first.slots()) {
            if blamed.is_none() && skipper.is_some_and(|s| !n.skip(s)) {
                *blamed = Some(n.writer);
            }
        }
    }

    /// An earlier record of `n` named the page.
    fn before(&self, n: Skippers) -> Blame {
        Blame { first: n, by_slot: n.slots().map(|s| s.and_then(|s| self.of(s))) }
    }
}

/// The live updates to one range: the last, and for each of its skippers,
/// by slot, the last that skipper does not skip — keys into
/// [`Merged::live`].
#[derive(Clone, Copy, Debug)]
struct Latest {
    last: (i64, Skippers),
    by_slot: [Option<i64>; 3],
}

impl Latest {
    fn new(at: i64, who: Skippers) -> Self {
        Latest { last: (at, who), by_slot: [None; 3] }
    }

    /// The update `reader` is to apply to the range, if any.
    fn pick(&self, reader: u32) -> Option<i64> {
        let (last, who) = self.last;
        match who.slot(reader) {
            None => Some(last),
            Some(slot) => self.by_slot[slot],
        }
    }

    fn keys(&self) -> [Option<i64>; 4] {
        let [a, b, c] = self.by_slot;
        [Some(self.last.0), a, b, c]
    }
}

/// The merge of the records in `(from, upto]`, in a form that serves every
/// reader: per page its [`Blame`], per update range its [`Latest`]. Records
/// can be folded in at either end, so the successive grantees of a lock
/// chain (same `from`, growing watermark) and the waiters of a barrier that
/// passed a lock first (same watermark, `from` one grant apart) each cost
/// the new records only.
#[derive(Clone, Debug, Default)]
struct Merged {
    from: u64,
    upto: u64,
    pages: BTreeMap<u64, Blame>,
    /// `pages` as runs by first record's skippers — what a reader that
    /// skips none of them is sent — kept as records are folded in: a view
    /// costs a pass over the runs and the reader's own pages, not over
    /// every page.
    runs: Vec<(PageRun, Seers)>,
    /// The updates that still matter to someone, keyed by publication
    /// order: the k-th folded in at the back is `k`, at the front `-1 - k`.
    live: BTreeMap<i64, Arc<FineUpdate>>,
    latest: HashMap<(u64, u32, usize), Latest>,
    pushed_back: i64,
    pushed_front: i64,
    /// The highest batch number per home and writer, and as sent since
    /// they last changed.
    marks: Vec<Vec<u32>>,
    sent: Option<Marks>,
}

impl Merged {
    fn starting_after(seq: u64) -> Self {
        Merged { from: seq, upto: seq, ..Merged::default() }
    }

    /// Fold in a record's marks, from either end.
    fn mark(&mut self, n: &WriteNotice) {
        for (home, &batch) in (0..).zip(&n.batches).filter(|&(_, &batch)| batch > 0) {
            Marks::raise(&mut self.marks, home, n.writer, batch);
            self.sent = None;
        }
    }

    /// An update to a page its own notice invalidates is stale for every
    /// other reader and skipped by its skippers: it never matters.
    fn carried(n: &WriteNotice) -> impl DoubleEndedIterator<Item = &Arc<FineUpdate>> {
        n.updates.iter().filter(|u| n.pages.binary_search(&u.page).is_err())
    }

    /// Fold in the record after `upto`.
    fn push_back(&mut self, n: &WriteNotice) {
        let who = Skippers::of(n);
        self.mark(n);
        for &page in &n.pages {
            match self.pages.entry(page) {
                btree_map::Entry::Occupied(mut blame) => blame.get_mut().then(who),
                btree_map::Entry::Vacant(slot) => {
                    slot.insert(Blame::new(who));
                    blame_run(&mut self.runs, page, who);
                }
            }
        }
        for u in Self::carried(n) {
            let at = self.pushed_back;
            self.pushed_back += 1;
            match self.latest.entry(u.range()) {
                Entry::Vacant(slot) => {
                    slot.insert(Latest::new(at, who));
                }
                Entry::Occupied(mut slot) => {
                    let old = *slot.get();
                    let by_slot = who.slots().map(|s| s.and_then(|s| old.pick(s)));
                    let new = Latest { last: (at, who), by_slot };
                    for key in old.keys().into_iter().flatten() {
                        if !new.keys().contains(&Some(key)) {
                            self.live.remove(&key);
                        }
                    }
                    slot.insert(new);
                }
            }
            self.live.insert(at, u.clone());
        }
    }

    /// Fold in the record at `from` (the one just before the merged range).
    fn push_front(&mut self, n: &WriteNotice) {
        let who = Skippers::of(n);
        self.mark(n);
        for &page in &n.pages {
            let blame = self.pages.get(&page).map_or(Blame::new(who), |b| b.before(who));
            self.pages.insert(page, blame);
            blame_run(&mut self.runs, page, who);
        }
        for u in Self::carried(n).rev() {
            let at = -1 - self.pushed_front;
            match self.latest.entry(u.range()) {
                Entry::Vacant(slot) => {
                    slot.insert(Latest::new(at, who));
                }
                // An older update matters only to a skipper of the last
                // one that nothing newer serves, and that does not skip it.
                Entry::Occupied(mut slot) => {
                    let latest = slot.get_mut();
                    let (_, last) = latest.last;
                    let mut serves = false;
                    for (picked, skipper) in latest.by_slot.iter_mut().zip(last.slots()) {
                        if picked.is_none() && skipper.is_some_and(|s| !who.skip(s)) {
                            *picked = Some(at);
                            serves = true;
                        }
                    }
                    if !serves {
                        continue;
                    }
                }
            }
            self.pushed_front += 1;
            self.live.insert(at, u.clone());
        }
    }

    fn view(&mut self, reader: u32) -> NoticeSet {
        // The runs of records the reader skips come apart into the pages
        // someone else wrote too; everything else is sent as it stands.
        let mut runs = Vec::with_capacity(self.runs.len());
        for &(run, seen_by) in &self.runs {
            if !(Skippers { writer: run.writer, seen_by }).skip(reader) {
                append(&mut runs, run);
                continue;
            }
            for (&first_page, blame) in self.pages.range(run.pages()) {
                if let Some(writer) = blame.of(reader) {
                    append(&mut runs, PageRun { first_page, len: 1, writer });
                }
            }
        }
        let stale = |page: u64| self.pages.get(&page).is_some_and(|b| b.of(reader).is_some());
        let updates = self
            .live
            .iter()
            .filter(|&(&at, u)| self.latest[&u.range()].pick(reader) == Some(at))
            .filter(|(_, u)| !stale(u.page))
            .map(|(_, u)| u.clone())
            .collect();
        let marks =
            self.sent.get_or_insert_with(|| Marks::from_batches(self.marks.clone())).clone();
        NoticeSet { runs: runs.into(), updates, marks }
    }
}

/// The manager's global log of write notices.
#[derive(Clone, Debug)]
pub struct IntervalLog {
    records: Vec<WriteNotice>,
    /// Sequence number of the first retained record minus one (records with
    /// `seq <= base_seq` have been truncated).
    base_seq: u64,
    next_seq: u64,
    /// The last two merges asked for, kept to be extended: see [`Merged`].
    memos: [Merged; 2],
    /// Which of `memos` was asked for last.
    recent: usize,
}

impl Default for IntervalLog {
    fn default() -> Self {
        IntervalLog::new()
    }
}

impl IntervalLog {
    /// An empty log; the first published interval gets `seq == 1`.
    pub fn new() -> Self {
        IntervalLog {
            records: Vec::new(),
            base_seq: 0,
            next_seq: 1,
            memos: Default::default(),
            recent: 0,
        }
    }

    /// Publish an interval for `writer` of `pages` and `updates` alone.
    /// Empty intervals are skipped (no notice needed) and return the current
    /// sequence watermark.
    ///
    /// `pages` must be strictly ascending — a flush hands them over from an
    /// ordered set — because the merge binary-searches the list.
    pub fn publish(&mut self, writer: u32, pages: Vec<u64>, updates: Vec<FineUpdate>) -> u64 {
        self.publish_seen_by(writer, [None; 2], Interval { pages, updates, batches: Vec::new() })
    }

    /// [`publish`](Self::publish) an interval that its `seen_by` have
    /// already applied — it was handed to them with a lock — and that must
    /// never be sent them.
    pub fn publish_seen_by(&mut self, writer: u32, seen_by: Seers, i: Interval) -> u64 {
        debug_assert!(i.pages.windows(2).all(|w| w[0] < w[1]), "notice pages not ascending");
        debug_assert!(
            seen_by[0].is_none_or(|s| s != writer && seen_by[1] != Some(s))
                && seen_by[1].is_none_or(|s| s != writer),
            "a seer is the writer, or named twice"
        );
        if i.is_empty() {
            return self.next_seq - 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let (pages, batches) = (i.pages, i.batches);
        let updates = i.updates.into_iter().map(Arc::new).collect();
        self.records.push(WriteNotice { seq, writer, seen_by, pages, updates, batches });
        seq
    }

    /// The retained records with `seq` in `(after, upto]`.
    fn between(&self, after: u64, upto: u64) -> &[WriteNotice] {
        &self.records[(after - self.base_seq) as usize..(upto - self.base_seq) as usize]
    }

    /// What `reader` needs from the notices with `seq > last_seen`: see the
    /// module docs. A pure function of the log, `last_seen` and `reader` —
    /// the memo only spares recomputation: a query whose `last_seen` is at
    /// or before the previous one's extends that merge by the records on
    /// either side, any other starts afresh.
    ///
    /// # Panics
    /// Panics if `last_seen` falls before the truncation point — the caller
    /// would silently miss notices, which is a protocol bug.
    pub fn merged_since(&mut self, last_seen: u64, reader: u32) -> NoticeSet {
        assert!(
            last_seen >= self.base_seq,
            "notices before seq {} were truncated (asked for > {})",
            self.base_seq,
            last_seen
        );
        // A reader ahead of the log (it was answered by a manager whose
        // last records died with it) has simply seen everything.
        let last_seen = last_seen.min(self.watermark());
        // Extend the memo that starts closest at or after `last_seen`; with
        // none, the one asked for less recently starts afresh. Two, because
        // a lock chain's grants (one `from`) alternate with the grants that
        // complete an advance (a later `from` each time).
        let slot = (0..2)
            .filter(|&i| self.memos[i].from >= last_seen)
            .min_by_key(|&i| self.memos[i].from)
            .unwrap_or(1 - self.recent);
        let mut memo = std::mem::take(&mut self.memos[slot]);
        if last_seen > memo.from {
            memo = Merged::starting_after(last_seen);
        }
        for n in self.between(last_seen, memo.from).iter().rev() {
            memo.push_front(n);
        }
        for n in self.between(memo.upto, self.watermark()) {
            memo.push_back(n);
        }
        (memo.from, memo.upto) = (last_seen, self.watermark());
        let set = memo.view(reader);
        (self.memos[slot], self.recent) = (memo, slot);
        set
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

    impl IntervalLog {
        /// All notices with `seq > last_seen`, in publication order: the
        /// suffix `merged_since` merges, and what was sent before it did.
        pub(super) fn since(&self, last_seen: u64) -> &[WriteNotice] {
            assert!(last_seen >= self.base_seq, "notices up to {} were truncated", self.base_seq);
            self.between(last_seen, self.watermark())
        }
    }

    fn upd(page: u64, offset: u32, bytes: &[u8]) -> FineUpdate {
        FineUpdate { page, offset, bytes: bytes.to_vec() }
    }

    fn run(first_page: u64, len: u32, writer: u32) -> PageRun {
        PageRun { first_page, len, writer }
    }

    /// What the reader is sent, with the update payloads unwrapped.
    fn merged(
        log: &mut IntervalLog,
        last_seen: u64,
        reader: u32,
    ) -> (Vec<PageRun>, Vec<FineUpdate>) {
        let set = log.merged_since(last_seen, reader);
        (set.runs.to_vec(), set.updates.iter().map(|u| (**u).clone()).collect())
    }

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
        assert_eq!(log.merged_since(0, 1), NoticeSet::default());
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
        assert_eq!(log.merged_since(1, 9).runs[..], [run(20, 1, 1), run(30, 1, 2)]);
        assert_eq!(log.merged_since(3, 9), NoticeSet::default());
        assert_eq!(log.merged_since(5, 9), NoticeSet::default(), "ahead of the log: seen it all");
        assert_eq!(log.merged_since(2, 9).runs[..], [run(30, 1, 2)]);
    }

    #[test]
    fn adjacent_pages_of_one_writer_coalesce_into_one_run() {
        let mut log = IntervalLog::new();
        log.publish(0, vec![4, 5, 6], vec![]);
        log.publish(0, vec![7, 9], vec![]); // a later flush extends the run; 8 is a gap
        log.publish(1, vec![10, 11], vec![]); // adjacent, but another writer
        log.publish(1, vec![6], vec![]); // named again: the first writer is kept
        let (runs, _) = merged(&mut log, 0, 2);
        assert_eq!(runs, vec![run(4, 4, 0), run(9, 1, 0), run(10, 2, 1)]);
        // Gap, length and writer of each run fit a one-byte varint.
        assert_eq!(log.merged_since(0, 2).wire_bytes(), 16 + 3 * 3);
    }

    #[test]
    fn runs_are_charged_varints_of_gap_length_and_writer() {
        let run = |first_page, len, writer| PageRun { first_page, len, writer };
        assert_eq!(Runs::default().wire_bytes(), 0);
        // Page 127 is one byte from 0, page 128 two; so are a length and a
        // writer of 127 and 128.
        assert_eq!(Runs::from(vec![run(127, 1, 0)]).wire_bytes(), 3);
        assert_eq!(Runs::from(vec![run(128, 128, 128)]).wire_bytes(), 6);
        // A gap is counted from the previous run's end, not from page 0.
        let far = vec![run(1 << 20, 4, 1), run((1 << 20) + 5, 1, 2)];
        assert_eq!(Runs::from(far).wire_bytes(), (3 + 1 + 1) + 3);
    }

    #[test]
    fn a_reader_is_not_sent_its_own_pages_unless_someone_else_wrote_them_too() {
        let mut log = IntervalLog::new();
        log.publish(0, vec![1, 2, 3], vec![]);
        log.publish(1, vec![3, 4], vec![]);
        log.publish(2, vec![3], vec![]);
        // Thread 0 wrote 1..=3 first, but page 3 is also thread 1's.
        assert_eq!(merged(&mut log, 0, 0).0, vec![run(3, 2, 1)]);
        // Thread 1 is sent page 3 on thread 0's account, and not page 4.
        assert_eq!(merged(&mut log, 0, 1).0, vec![run(1, 3, 0)]);
        assert_eq!(merged(&mut log, 0, 2).0, vec![run(1, 3, 0), run(4, 1, 1)]);
    }

    #[test]
    fn updates_to_a_page_in_the_union_are_dropped() {
        let mut log = IntervalLog::new();
        log.publish(0, vec![], vec![upd(5, 0, &[1; 8])]); // before the invalidation
        log.publish(1, vec![5], vec![]);
        log.publish(0, vec![], vec![upd(5, 8, &[2; 8])]); // and after it
        log.publish(0, vec![], vec![upd(6, 0, &[3; 8])]);
        let (runs, updates) = merged(&mut log, 0, 2);
        assert_eq!(runs, vec![run(5, 1, 1)]);
        assert_eq!(updates, vec![upd(6, 0, &[3; 8])]);
        // Thread 1 invalidated page 5 itself: for it the page is not stale,
        // and thread 0's updates to it are all it has.
        let (runs, updates) = merged(&mut log, 0, 1);
        assert!(runs.is_empty());
        assert_eq!(updates, vec![upd(5, 0, &[1; 8]), upd(5, 8, &[2; 8]), upd(6, 0, &[3; 8])]);
        // An update riding a notice that names its own page is never sent.
        log.publish(3, vec![7], vec![upd(7, 0, &[4; 8])]);
        assert_eq!(merged(&mut log, 4, 2), (vec![run(7, 1, 3)], vec![]));
        assert_eq!(merged(&mut log, 4, 3), (vec![], vec![]));
    }

    #[test]
    fn of_updates_to_one_range_only_the_last_survives() {
        let mut log = IntervalLog::new();
        for w in 0..5u32 {
            log.publish(w, vec![], vec![upd(9, 16, &[w as u8; 8])]);
        }
        assert_eq!(merged(&mut log, 0, 7).1, vec![upd(9, 16, &[4; 8])]);
        assert_eq!(log.merged_since(0, 7).wire_bytes(), 16 + 24);
        // The last writer is sent the last update that is not its own.
        assert_eq!(merged(&mut log, 0, 4).1, vec![upd(9, 16, &[3; 8])]);
        // Same offset, another length: a different range, both kept in
        // order, as are ranges that merely overlap.
        log.publish(5, vec![], vec![upd(9, 16, &[5; 4]), upd(9, 12, &[6; 8])]);
        log.publish(6, vec![], vec![upd(9, 16, &[7; 8])]);
        assert_eq!(
            merged(&mut log, 0, 7).1,
            vec![upd(9, 16, &[5; 4]), upd(9, 12, &[6; 8]), upd(9, 16, &[7; 8])]
        );
    }

    #[test]
    fn a_readers_own_update_does_not_shadow_an_earlier_foreign_one() {
        // w: X = 1, then reader: X = 2. Notice by notice the reader skips
        // its own record and applies w's; so must the merge. Everyone else
        // is sent only the reader's.
        let mut log = IntervalLog::new();
        log.publish(0, vec![], vec![upd(3, 0, &[1; 8])]);
        log.publish(1, vec![], vec![upd(3, 0, &[2; 8])]);
        assert_eq!(merged(&mut log, 0, 1).1, vec![upd(3, 0, &[1; 8])]);
        assert_eq!(merged(&mut log, 0, 0).1, vec![upd(3, 0, &[2; 8])]);
        assert_eq!(merged(&mut log, 0, 2).1, vec![upd(3, 0, &[2; 8])]);
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
        assert_eq!(log.merged_since(4, 1).runs[..], [run(4, 6, 0)]);
        // Idempotent / non-regressing truncation.
        log.truncate_seen(2);
        assert_eq!(log.len(), 6);
        log.truncate_seen(10);
        assert!(log.is_empty());
        assert_eq!(log.watermark(), 10);
    }

    /// The same log with nothing remembered.
    fn forgetful(log: &IntervalLog) -> IntervalLog {
        IntervalLog { memos: Default::default(), ..log.clone() }
    }

    #[test]
    fn a_merge_extended_across_a_truncation_equals_a_fresh_one() {
        let mut log = IntervalLog::new();
        for i in 0..6u64 {
            log.publish((i % 3) as u32, vec![i, i + 1], vec![upd(40 + i % 2, 0, &[i as u8; 4])]);
        }
        let early = log.merged_since(4, 0);
        assert_eq!(early, forgetful(&log).merged_since(4, 0));
        // Everyone has seen up to 4: the records the memo was built from
        // go, the memo stays good for what follows.
        log.truncate_seen(4);
        for i in 6..9u64 {
            log.publish((i % 3) as u32, vec![i], vec![upd(40, 0, &[i as u8; 4])]);
        }
        for reader in 0..4 {
            assert_eq!(log.merged_since(4, reader), forgetful(&log).merged_since(4, reader));
        }
        assert_ne!(log.merged_since(4, 0), early);
        // A later starting point cannot reuse it; an earlier one could, but
        // its records are gone.
        assert_eq!(log.merged_since(7, 1), forgetful(&log).merged_since(7, 1));
        assert_eq!(log.merged_since(5, 1), forgetful(&log).merged_since(5, 1));
    }

    #[test]
    fn a_merge_extended_backwards_equals_a_fresh_one() {
        // The waiters of a barrier that passed a lock first: same
        // watermark, each one grant further back than the last served.
        let mut log = IntervalLog::new();
        log.publish(3, vec![1], vec![upd(9, 0, &[1; 8])]);
        log.publish(1, vec![2, 3], vec![upd(9, 0, &[2; 8])]);
        log.publish(1, vec![1], vec![upd(9, 0, &[3; 8]), upd(9, 4, &[3; 8])]);
        log.publish(2, vec![3], vec![upd(9, 4, &[4; 8])]);
        for last_seen in (0..4).rev() {
            for reader in 0..4 {
                let fresh = forgetful(&log).merged_since(last_seen, reader);
                assert_eq!(log.merged_since(last_seen, reader), fresh, "{reader} past {last_seen}");
            }
        }
        // Thread 1 wrote the last two updates of the first range: going
        // back, its own older one must not stand in for thread 3's.
        assert_eq!(merged(&mut log, 0, 1).1, vec![upd(9, 0, &[1; 8]), upd(9, 4, &[4; 8])]);
        assert_eq!(merged(&mut log, 0, 1).0, vec![run(1, 1, 3), run(3, 1, 2)]);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn asking_for_truncated_history_panics() {
        let mut log = IntervalLog::new();
        for i in 0..5u64 {
            log.publish(0, vec![i], vec![]);
        }
        log.truncate_seen(3);
        let _ = log.merged_since(1, 1);
    }

    #[test]
    fn writers_recorded() {
        let mut log = IntervalLog::new();
        log.publish(7, vec![1, 2, 3], vec![]);
        let n = &log.since(0)[0];
        assert_eq!(n.writer, 7);
        assert_eq!(n.pages, vec![1, 2, 3]);
    }

    /// `writer` had sent `batch` update batches to `home`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(super) struct Mark {
        pub home: u32,
        pub writer: u32,
        pub batch: u32,
    }

    fn mark(home: u32, writer: u32, batch: u32) -> Mark {
        Mark { home, writer, batch }
    }

    fn marks(list: &[Mark]) -> Marks {
        let mut by_home = Vec::new();
        list.iter().for_each(|m| Marks::raise(&mut by_home, m.home, m.writer, m.batch));
        Marks::from_batches(by_home)
    }

    impl Marks {
        /// Every mark, by home and then writer.
        pub(super) fn iter(&self) -> impl Iterator<Item = Mark> + '_ {
            (0..).zip(self.at_homes()).flat_map(|(home, by_writer)| {
                let named = (0..).zip(by_writer).filter(|&(_, &batch)| batch > 0);
                named.map(move |(writer, &batch)| Mark { home, writer, batch })
            })
        }
    }

    #[test]
    fn a_set_carries_each_writers_highest_mark_per_home() {
        let mut log = IntervalLog::new();
        let interval = |pages: Vec<u64>, updates, batches| Interval { pages, updates, batches };
        log.publish_seen_by(1, [None; 2], interval(vec![3], vec![], vec![1, 4]));
        log.publish_seen_by(2, [None; 2], interval(vec![3], vec![], vec![7]));
        // A record of no pages and no updates publishes nothing, marks or not.
        log.publish_seen_by(2, [None; 2], interval(vec![], vec![], vec![8]));
        let seen = [Some(0), None];
        log.publish_seen_by(1, seen, interval(vec![], vec![upd(9, 0, &[1; 8])], vec![2]));
        // Page 3's run names thread 1 only; thread 2's mark still comes.
        let set = log.merged_since(0, 0);
        assert_eq!(set.runs[..], [run(3, 1, 1)]);
        let listed = |m: &Marks| m.iter().collect::<Vec<_>>();
        assert_eq!(listed(&set.marks), [mark(0, 1, 2), mark(0, 2, 7), mark(1, 1, 4)]);
        // Every reader is sent the one list, its own marks among them.
        let shared = |m: &Marks| m.0.clone().expect("marks");
        assert!(Arc::ptr_eq(&shared(&log.merged_since(0, 2).marks), &shared(&set.marks)));
        assert_eq!(listed(&log.merged_since(2, 2).marks), [mark(0, 1, 2)]);
        // Followed by an interval: the higher of two marks of one writer.
        let then = NoticeSet::interval(2, &interval(vec![], vec![upd(9, 8, &[2; 8])], vec![9]));
        let joined = set.followed_by(&then).marks;
        assert_eq!(listed(&joined), [mark(0, 1, 2), mark(0, 2, 9), mark(1, 1, 4)]);
    }

    #[test]
    fn marks_are_charged_a_header_per_home_and_bits_per_writer() {
        let wire = |list: &[Mark]| marks(list).wire_bytes();
        assert_eq!(wire(&[]), 0);
        // One number and none: a bit per writer over the span.
        assert_eq!(wire(&[mark(0, 300, 5)]), 16 + 1);
        let even: Vec<Mark> = (0..64).filter(|&w| w != 9).map(|w| mark(0, w, 5)).collect();
        assert_eq!(wire(&even), 16 + 8);
        // Two numbers and none: two bits. The span starts at the first
        // writer named; another home has its own.
        let mixed: Vec<Mark> = (10..74).map(|w| mark(0, w, 5 + w % 2)).collect();
        assert_eq!(wire(&mixed), 16 + 16);
        assert_eq!(wire(&[mixed, vec![mark(1, 3, 5)]].concat()), 16 + 16 + 16 + 1);
        // Numbers far apart take more bits.
        assert_eq!(wire(&[mark(0, 0, 1), mark(0, 1, 255)]), 16 + 2);
        assert_eq!(wire(&[mark(0, 0, 1), mark(0, 1, 256)]), 16 + 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const READERS: usize = 4;
    const PAGE: usize = 16;

    /// A cache holding every page clean, and what notices do to it.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Model {
        /// `None` = invalidated, with the writer that was blamed.
        pages: Vec<Result<[u8; PAGE], u32>>,
        /// The batches a fetch must wait for, per `(home, writer)`.
        need: BTreeMap<(u32, u32), u32>,
    }

    impl Model {
        fn new() -> Self {
            Model { pages: vec![Ok([0; PAGE]); 12], need: BTreeMap::new() }
        }

        /// What `reader` must wait for: it ignores its own marks.
        fn require(&mut self, marks: &Marks, reader: u32) {
            for m in marks.iter().filter(|m| m.writer != reader) {
                let need = self.need.entry((m.home, m.writer)).or_default();
                *need = (*need).max(m.batch);
            }
        }

        fn invalidate(&mut self, page: u64, writer: u32) {
            let slot = &mut self.pages[page as usize];
            if slot.is_ok() {
                *slot = Err(writer);
            }
        }

        fn update(&mut self, u: &FineUpdate) {
            if let Ok(bytes) = &mut self.pages[u.page as usize] {
                bytes[u.offset as usize..u.offset as usize + u.bytes.len()]
                    .copy_from_slice(&u.bytes);
            }
        }

        /// The suffix notice by notice, as `ThreadCtx::apply_notices` did
        /// before there was a merge, skipping what the reader skips.
        fn apply_suffix(&mut self, suffix: &[WriteNotice], reader: u32) {
            for n in suffix.iter().filter(|n| !Skippers::of(n).skip(reader)) {
                self.apply_notice(n, reader);
            }
        }

        fn apply_notice(&mut self, n: &WriteNotice, reader: u32) {
            for &page in &n.pages {
                self.invalidate(page, n.writer);
            }
            for u in n.updates.iter().filter(|u| n.pages.binary_search(&u.page).is_err()) {
                self.update(u);
            }
            self.require(&Marks::of_writer(n.writer, &n.batches), reader);
        }

        fn apply_set(&mut self, set: &NoticeSet, reader: u32) {
            for run in set.runs.iter() {
                for page in run.pages() {
                    self.invalidate(page, run.writer);
                }
            }
            for u in &set.updates {
                self.update(u);
            }
            self.require(&set.marks, reader);
        }
    }

    /// Ascending, disjoint, and no two runs that could have been one.
    fn well_formed(runs: &[PageRun]) -> bool {
        runs.iter().all(|r| r.len > 0)
            && runs.windows(2).all(|w| {
                let end = w[0].pages().end;
                end < w[1].first_page || (end == w[1].first_page && w[0].writer != w[1].writer)
            })
    }

    /// A writer, the threads it was handed to (none, one or two), its
    /// interval.
    type Published = (u32, Seers, Interval);

    fn interval() -> impl Strategy<Value = Published> {
        (
            0u32..READERS as u32,
            (0u32..=READERS as u32, 0u32..=READERS as u32),
            proptest::collection::vec(0u64..12, 0..4),
            // Few ranges on few pages, so that updates collide.
            proptest::collection::vec((0u64..4, 0u32..2, 1usize..3, any::<u8>()), 0..3),
            proptest::collection::vec((0u32..2, 1u32..9), 0..3),
        )
            .prop_map(|(writer, seen_by, mut pages, updates, marks)| {
                pages.sort_unstable();
                pages.dedup();
                let update = |(page, slot, words, fill)| FineUpdate {
                    page,
                    offset: slot * 4,
                    bytes: vec![fill; words * 4],
                };
                // Batches are sent only for pages and updates.
                let mut batches = vec![0; 2];
                for (home, batch) in
                    marks.into_iter().filter(|_| !pages.is_empty() || !updates.is_empty())
                {
                    batches[home as usize] = batch;
                }
                // A second seer only beside a first, each another thread.
                let seer = |s: u32| Some(s).filter(|&s| s != writer && s < READERS as u32);
                let first = seer(seen_by.0);
                let second = first.and(seer(seen_by.1)).filter(|&s| Some(s) != first);
                let seen_by = [first, second];
                let updates = updates.into_iter().map(update).collect();
                (writer, seen_by, Interval { pages, updates, batches })
            })
    }

    proptest! {
        /// Under any interleaving of publishes, reads, and truncations at
        /// read watermarks, a reader that tracks its watermark is sent a
        /// well-formed set that does to a cache exactly what the unseen
        /// suffix would have done notice by notice, whatever the memo held:
        /// it never misses a notice and never sees one twice. A record handed
        /// to a reader — the holder's successor, and the thread it relays the
        /// record to — is applied to its cache when published, as their
        /// grants do, and never again; the model skips it for both.
        #[test]
        fn a_merged_set_does_what_its_suffix_does(
            ops in proptest::collection::vec((0u8..4, 0usize..READERS, interval()), 1..80)
        ) {
            let mut log = IntervalLog::new();
            let mut last_seen = [0u64; READERS];
            // Per reader: the cache by suffix, the cache by set.
            let mut caches = vec![(Model::new(), Model::new()); READERS];
            let read = |log: &mut IntervalLog,
                        who: usize,
                        last_seen: &mut [u64; READERS],
                        caches: &mut [(Model, Model)]| {
                let suffix = log.since(last_seen[who]).to_vec();
                if let Some(first) = suffix.first() {
                    assert_eq!(first.seq, last_seen[who] + 1, "gap in delivery");
                }
                let set = log.merged_since(last_seen[who], who as u32);
                assert!(well_formed(&set.runs), "{:?}", set.runs);
                assert!(runs_kept(log), "a memo's runs drifted from its pages");
                assert_eq!(&set, &forgetful(log).merged_since(last_seen[who], who as u32));
                let (by_suffix, by_set) = &mut caches[who];
                by_suffix.apply_suffix(&suffix, who as u32);
                by_set.apply_set(&set, who as u32);
                assert_eq!(by_set, by_suffix, "reader {who}, set {set:?}");
                last_seen[who] = log.watermark();
            };
            for (kind, who, (writer, seen_by, interval)) in ops {
                match kind {
                    0 | 1 => {
                        let before = log.watermark();
                        log.publish_seen_by(writer, seen_by, interval);
                        if let Some(n) = log.since(before).first() {
                            for to in seen_by.into_iter().flatten() {
                                let (by_suffix, by_set) = &mut caches[to as usize];
                                by_suffix.apply_notice(n, to);
                                by_set.apply_notice(n, to);
                            }
                        }
                    }
                    2 => read(&mut log, who, &mut last_seen, &mut caches),
                    _ => {
                        // Truncate up to the slowest reader: always safe.
                        let floor = *last_seen.iter().min().expect("readers");
                        log.truncate_seen(floor);
                    }
                }
            }
            // Final drain, slowest reader last so each merge extends the
            // one before it backwards.
            let mut order: Vec<usize> = (0..READERS).collect();
            order.sort_by_key(|&who| std::cmp::Reverse(last_seen[who]));
            for who in order {
                read(&mut log, who, &mut last_seen, &mut caches);
            }
        }
    }

    fn forgetful(log: &IntervalLog) -> IntervalLog {
        IntervalLog { memos: Default::default(), ..log.clone() }
    }

    /// Every memo's runs are what its pages come to, built at once.
    fn runs_kept(log: &IntervalLog) -> bool {
        log.memos.iter().all(|memo| {
            let mut runs: Vec<(PageRun, Seers)> = Vec::new();
            for (&first_page, b) in &memo.pages {
                let (writer, seen_by) = (b.first.writer, b.first.seen_by);
                match runs.last_mut() {
                    Some((run, s))
                        if (run.writer, *s) == (writer, seen_by)
                            && run.pages().end == first_page =>
                    {
                        run.len += 1;
                    }
                    _ => runs.push((PageRun { first_page, len: 1, writer }, seen_by)),
                }
            }
            runs == memo.runs
        })
    }

    proptest! {
        /// A set followed by one more interval does to a reader that did
        /// not write it what the set and then the interval do, and a set
        /// followed by the next one sent to the same reader what both do —
        /// also without the updates the next one overwrites.
        #[test]
        fn a_set_followed_by_another_does_what_both_do(
            before in proptest::collection::vec(interval(), 0..12),
            after in proptest::collection::vec(interval(), 0..6),
            (writer, _, interval) in interval(),
            reader in 0u32..READERS as u32,
        ) {
            let mut log = IntervalLog::new();
            for (w, seen_by, i) in before {
                log.publish_seen_by(w, seen_by, i);
            }
            let set = log.merged_since(0, reader);
            if writer != reader {
                let before = log.watermark();
                log.publish_seen_by(writer, [None; 2], interval.clone());
                let (mut both, mut merged) = (Model::new(), Model::new());
                both.apply_set(&set, reader);
                both.apply_suffix(log.since(before), reader);
                let then = set.followed_by(&NoticeSet::interval(writer, &interval));
                prop_assert!(well_formed(&then.runs), "{:?}", then.runs);
                merged.apply_set(&then, reader);
                prop_assert_eq!(merged, both);
            }
            let (first, seen) = (log.merged_since(0, reader), log.watermark());
            for (w, seen_by, i) in after {
                log.publish_seen_by(w, seen_by, i);
            }
            let next = log.merged_since(seen, reader);
            let joined = first.followed_by(&next);
            prop_assert!(well_formed(&joined.runs), "{:?}", joined.runs);
            // Sent ahead of `next`, `first` may leave out what `next` overwrites.
            prop_assert_eq!(&first.ahead_of(&next).followed_by(&next), &joined);
            let (mut two, mut one, mut all) = (Model::new(), Model::new(), Model::new());
            two.apply_set(&first, reader);
            two.apply_set(&next, reader);
            one.apply_set(&joined, reader);
            all.apply_set(&log.merged_since(0, reader), reader);
            prop_assert_eq!(&one, &two);
            prop_assert_eq!(one, all);
        }
    }
}
