//! Trace-driven RegC invariant checker.
//!
//! Replays a [`RunTrace`] and verifies protocol invariants that must hold on
//! the *virtual* timeline of any correct run:
//!
//! 1. **Lock mutual exclusion** — hold intervals `[acquire, release]` for
//!    the same lock never overlap across threads. A release is stamped
//!    after the consistency flush and before anything leaves for the next
//!    holder — the release to the manager, which grants no earlier than its
//!    arrival, or the lock handed straight to the successor — so on a
//!    correct run intervals are disjoint with at most boundary contact.
//! 2. **Invalidation causality** — every `Invalidate {page, writer}` at time
//!    `t` is preceded by a `DiffFlush {page}` on the writer's track at some
//!    time `<= t`: write notices are published from flushed diffs, never
//!    from un-flushed state. A flush is not waited for before its notice
//!    leaves, so this orders the flush's departure, not its arrival; rule 5
//!    holds the arrival.
//! 3. **Diff-byte conservation** — bytes flushed as diffs by threads equal
//!    bytes applied as diffs by memory servers (threads are the only diff
//!    producers). Fine-grain bytes may only be *under*-counted on the thread
//!    side (the host control client also writes through the fine path), so
//!    servers must apply at least what threads flushed.
//! 4. **Barrier episode alignment** — for each barrier episode, no thread is
//!    released before the last participant has arrived:
//!    `min(release stamps) >= max(arrive stamps)`.
//! 5. **Refetch after apply** — the first fetch of a page after an
//!    `Invalidate {page, writer, batch}` is served no earlier than the
//!    server's `ApplyDiff {page, writer}` of the writer's last flush of the
//!    page the notice followed: its highest batch number up to `batch`. The
//!    serve is the reader's last `ServeFetch` of the run holding the page:
//!    within the stall of a demand fetch or refetch, and for a prefetch —
//!    a line's, or a run refetched at a release (`RefetchIssue`) — whose
//!    response a fault took, any time before the fault.
//!
//! The checker refuses traces with dropped events — a truncated stream
//! proves nothing — and reports each violation with precise virtual-time
//! diagnostics. It reads each track once; what a rule needs from other
//! tracks (a writer's flushes, a server's applies and serves, the
//! standby's reclaims) is resolved after the last.

use std::collections::BTreeMap;
use std::fmt;

use samhita_scl::IntMap;

use crate::event::{EventKind, FetchKind, TraceEvent, TrackId};
use crate::tracer::RunTrace;

/// What a clean check verified, for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckSummary {
    /// Distinct locks observed.
    pub locks: usize,
    /// Total lock hold intervals checked for overlap.
    pub lock_holds: u64,
    /// Invalidations whose causal flush was found.
    pub invalidations: u64,
    /// Refetches of invalidated pages served after the flush's apply.
    pub refetches: u64,
    /// Barrier episodes checked for alignment.
    pub barrier_episodes: u64,
    /// Diff bytes conserved between flushers and servers.
    pub diff_bytes: u64,
    /// Fine-grain bytes flushed by threads (servers may apply more).
    pub fine_bytes: u64,
    /// Lease reclamations audited against the holder's actual hold.
    pub lease_reclaims: u64,
}

impl fmt::Display for CheckSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} holds on {} locks, {} invalidations, {} refetches after apply, {} barrier \
             episodes, {} diff bytes conserved, {} fine bytes accounted, {} lease reclaims",
            self.lock_holds,
            self.locks,
            self.invalidations,
            self.refetches,
            self.barrier_episodes,
            self.diff_bytes,
            self.fine_bytes,
            self.lease_reclaims
        )
    }
}

/// A violated invariant, with virtual-time diagnostics. All times in ns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The trace lost events to buffer capacity; nothing can be proven.
    Truncated { dropped: u64 },
    /// Two threads held the same lock at overlapping virtual times.
    LockOverlap {
        lock: u32,
        holder: u32,
        held_from: u64,
        held_to: u64,
        intruder: u32,
        acquired_at: u64,
    },
    /// A lock event without its counterpart on the same thread.
    UnpairedLock { lock: u32, tid: u32, at: u64, what: &'static str },
    /// The standby reclaimed a lease from a thread that never held the lock
    /// at that point in virtual time.
    ReclaimWithoutHold { lock: u32, holder: u32, at: u64 },
    /// An invalidation with no causally-ordered diff flush by the writer.
    UnorderedInvalidate {
        page: u64,
        reader: u32,
        writer: u32,
        at: u64,
        earliest_flush: Option<u64>,
    },
    /// A refetch of an invalidated page was served before the server had
    /// applied the flush the invalidation followed (`None`: never).
    StaleRefetch { page: u64, reader: u32, writer: u32, served_at: u64, applied_at: Option<u64> },
    /// Threads flushed a different number of diff bytes than servers applied.
    DiffBytesMismatch { flushed: u64, applied: u64 },
    /// Servers applied fewer fine-grain bytes than threads flushed.
    FineBytesLoss { flushed: u64, applied: u64 },
    /// A barrier released a thread before the last participant arrived.
    BarrierOverlap { barrier: u32, episode: u64, last_arrive: u64, first_release: u64 },
    /// A barrier arrive without a matching release on the same thread.
    UnpairedBarrier { barrier: u32, tid: u32, at: u64 },
    /// Threads disagree on how many episodes a barrier ran.
    BarrierArity { barrier: u32, tid: u32, episodes: u64, expected: u64 },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Truncated { dropped } => write!(
                f,
                "trace truncated: {dropped} events dropped by ring capacity (raise \
                 SamhitaConfig::trace_capacity); nothing can be verified on, or derived \
                 from, a partial stream"
            ),
            Violation::LockOverlap { lock, holder, held_from, held_to, intruder, acquired_at } => {
                write!(
                    f,
                    "mutual exclusion violated on lock {lock}: thread {intruder} acquired at \
                     {acquired_at}ns while thread {holder} held it during [{held_from}ns, \
                     {held_to}ns]"
                )
            }
            Violation::UnpairedLock { lock, tid, at, what } => {
                write!(f, "unpaired lock event on lock {lock}: thread {tid} {what} at {at}ns")
            }
            Violation::ReclaimWithoutHold { lock, holder, at } => write!(
                f,
                "bogus lease reclaim of lock {lock} at {at}ns: thread {holder} never held it \
                 at that point"
            ),
            Violation::UnorderedInvalidate { page, reader, writer, at, earliest_flush } => {
                match earliest_flush {
                    Some(flush) => write!(
                        f,
                        "out-of-order invalidation of page {page}: thread {reader} invalidated \
                         at {at}ns but writer thread {writer} first flushed a diff at {flush}ns \
                         (flush must causally precede the notice)"
                    ),
                    None => write!(
                        f,
                        "orphan invalidation of page {page}: thread {reader} invalidated at \
                         {at}ns but writer thread {writer} never flushed a diff for it"
                    ),
                }
            }
            Violation::StaleRefetch { page, reader, writer, served_at, applied_at } => write!(
                f,
                "stale refetch of page {page}: thread {reader}'s fetch was served at \
                 {served_at}ns, but thread {writer}'s flush it was invalidated for was applied \
                 {}",
                applied_at.map_or("never".to_string(), |at| format!("at {at}ns"))
            ),
            Violation::DiffBytesMismatch { flushed, applied } => write!(
                f,
                "diff bytes not conserved: threads flushed {flushed} bytes but memory servers \
                 applied {applied} bytes"
            ),
            Violation::FineBytesLoss { flushed, applied } => write!(
                f,
                "fine-grain bytes lost: threads flushed {flushed} bytes but memory servers \
                 applied only {applied} bytes"
            ),
            Violation::BarrierOverlap { barrier, episode, last_arrive, first_release } => write!(
                f,
                "barrier {barrier} episode {episode} misaligned: a thread was released at \
                 {first_release}ns before the last arrival at {last_arrive}ns"
            ),
            Violation::UnpairedBarrier { barrier, tid, at } => write!(
                f,
                "unpaired barrier event on barrier {barrier}: thread {tid} arrived at {at}ns \
                 with no release"
            ),
            Violation::BarrierArity { barrier, tid, episodes, expected } => write!(
                f,
                "barrier {barrier} episode-count mismatch: thread {tid} ran {episodes} episodes \
                 but other participants ran {expected}"
            ),
        }
    }
}

impl RunTrace {
    /// `self`, if its rings kept every event. A ring that overflowed holds
    /// only the newest events of its track; a critical path derived from
    /// that still tiles the makespan — with the lost stalls counted as
    /// compute — so a truncated trace must derive nothing at all.
    pub fn untruncated(&self) -> Result<&RunTrace, Violation> {
        match self.dropped {
            0 => Ok(self),
            dropped => Err(Violation::Truncated { dropped }),
        }
    }

    /// Verify the RegC protocol invariants (see module docs). Returns a
    /// summary of what was proven, or every violation found.
    pub fn check_invariants(&self) -> Result<CheckSummary, Vec<Violation>> {
        self.untruncated().map_err(|truncated| vec![truncated])?;
        let mut walk = Walk::default();
        for (track, events) in &self.tracks {
            walk.track(*track, events);
        }
        walk.finish()
    }
}

/// What one walk over each track gathers for the five rules, in flat
/// vectors that [`Walk::finish`] sorts or groups once; what is keyed by a
/// `(tid, page)` pair is filed under the pair's dense number. A lock's or
/// barrier's pairing completes within its thread's track; everything keyed
/// across tracks — flushes, applies, serves, reclaims — is resolved after
/// the last track. Violations come out in rule order, each rule's in the
/// order the rule meets them.
#[derive(Default)]
struct Walk<'a> {
    summary: CheckSummary,
    /// Rule 1's unpaired lock events and rule 4's unpaired arrivals, as
    /// each thread's track ends.
    unpaired_locks: Vec<Violation>,
    unpaired_barriers: Vec<Violation>,
    /// `(lock, acquire, release, tid)`; a hold open at exit ends at
    /// `u64::MAX`, excluding everyone after it.
    holds: Vec<(u32, u64, u64, u32)>,
    /// `(lock, holder, at)` of every lease reclaim.
    reclaims: Vec<(u32, u32, u64)>,
    /// `(barrier, tid, arrive, release)` of every paired episode.
    episodes: Vec<(u32, u32, u64, u64)>,
    /// A dense number for every `(tid, page)` pair met.
    pairs: IntMap<(u32, u64), u32>,
    /// By pair number: the first diff flush of the page by the tid.
    first_flush: Vec<Option<u64>>,
    /// `(pair, (batch, at))` of every diff apply, the pair its writer's.
    applies: Vec<(u32, (u32, u64))>,
    /// `(pair, at)` of every fetch serve, the pair its reader's.
    serves: Vec<(u32, u64)>,
    /// Each reader's invalidations and fetches, in track order: rules 2
    /// and 5 read them once every flush, apply and serve is known.
    reads: Vec<(u32, &'a TraceEvent)>,
    diff_flushed: u64,
    diff_applied: u64,
    fine_flushed: u64,
    fine_applied: u64,
}

impl<'a> Walk<'a> {
    fn track(&mut self, track: TrackId, events: &'a [TraceEvent]) {
        match track {
            TrackId::Thread(tid) => self.thread(tid, events),
            TrackId::MemServer(_) => {
                for e in events {
                    let at = e.at.as_ns();
                    match e.kind {
                        EventKind::ApplyDiff { page, bytes, writer, batch } => {
                            self.diff_applied += bytes;
                            let pair = self.pair(writer, page);
                            self.applies.push((pair, (batch, at)));
                        }
                        EventKind::ApplyFine { bytes, .. } => self.fine_applied += bytes,
                        EventKind::ServeFetch { page, reader, .. } => {
                            let pair = self.pair(reader, page);
                            self.serves.push((pair, at));
                        }
                        _ => {}
                    }
                }
            }
            TrackId::Manager | TrackId::MgrStandby => {
                for e in events {
                    if let EventKind::LeaseReclaim { lock, holder } = e.kind {
                        self.reclaims.push((lock, holder, e.at.as_ns()));
                    }
                }
            }
            TrackId::Fabric => {}
        }
    }

    /// The number of the pair `(tid, page)`, numbering it if new.
    fn pair(&mut self, tid: u32, page: u64) -> u32 {
        let next = self.pairs.len() as u32;
        let pair = *self.pairs.entry((tid, page)).or_insert(next);
        if pair == next {
            self.first_flush.push(None);
        }
        pair
    }

    fn thread(&mut self, tid: u32, events: &'a [TraceEvent]) {
        // Holds begun and arrivals not yet released, by lock and barrier.
        let mut open: BTreeMap<u32, u64> = BTreeMap::new();
        let mut pending: BTreeMap<u32, u64> = BTreeMap::new();
        for e in events {
            let at = e.at.as_ns();
            match e.kind {
                EventKind::LockAcquire { lock, .. } => {
                    if let Some(prev) = open.insert(lock, at) {
                        self.unpaired_locks.push(Violation::UnpairedLock {
                            lock,
                            tid,
                            at: prev,
                            what: "re-acquired without releasing the hold begun",
                        });
                    }
                }
                EventKind::LockRelease { lock } => match open.remove(&lock) {
                    Some(acq) => self.holds.push((lock, acq, at, tid)),
                    None => self.unpaired_locks.push(Violation::UnpairedLock {
                        lock,
                        tid,
                        at,
                        what: "released without holding",
                    }),
                },
                EventKind::BarrierArrive { barrier } => {
                    pending.insert(barrier, at);
                }
                EventKind::BarrierRelease { barrier, .. } => {
                    if let Some(arrive) = pending.remove(&barrier) {
                        self.episodes.push((barrier, tid, arrive, at));
                    }
                }
                EventKind::DiffFlush { page, bytes } => {
                    self.diff_flushed += bytes;
                    let pair = self.pair(tid, page) as usize;
                    self.first_flush[pair].get_or_insert(at);
                }
                EventKind::FineFlush { bytes, .. } => self.fine_flushed += bytes,
                EventKind::Invalidate { .. } | EventKind::Fetch { .. } => self.reads.push((tid, e)),
                _ => {}
            }
        }
        self.holds.extend(open.into_iter().map(|(lock, acq)| (lock, acq, u64::MAX, tid)));
        self.unpaired_barriers.extend(
            pending.into_iter().map(|(barrier, at)| Violation::UnpairedBarrier {
                barrier,
                tid,
                at,
            }),
        );
    }

    fn finish(mut self) -> Result<CheckSummary, Vec<Violation>> {
        let mut violations = std::mem::take(&mut self.unpaired_locks);
        self.locks(&mut violations);
        self.invalidations(&mut violations);
        self.byte_conservation(&mut violations);
        violations.append(&mut self.unpaired_barriers);
        self.barriers(&mut violations);
        if violations.is_empty() {
            Ok(self.summary)
        } else {
            Err(violations)
        }
    }

    /// Rule 1, once every hold is known.
    fn locks(&mut self, violations: &mut Vec<Violation>) {
        // Lease reclamations (standby track) forcibly end the named holder's
        // latest hold begun by the reclaim stamp; the deposed holder's own
        // release, if it ever arrives, is stale and must not extend the
        // interval. A reclaim whose end is already earlier is a release
        // that was in flight when the standby swept — legal, nothing to
        // truncate.
        for &(lock, holder, at) in &self.reclaims {
            let hold = self
                .holds
                .iter_mut()
                .filter(|&&mut (l, acq, _, tid)| l == lock && tid == holder && acq <= at)
                .max_by_key(|&&mut (_, acq, _, _)| acq);
            match hold {
                Some((_, _, end, _)) => {
                    *end = (*end).min(at);
                    self.summary.lease_reclaims += 1;
                }
                None => violations.push(Violation::ReclaimWithoutHold { lock, holder, at }),
            }
        }
        self.holds.sort_unstable();
        for holds in self.holds.chunk_by(|a, b| a.0 == b.0) {
            self.summary.locks += 1;
            self.summary.lock_holds += holds.len() as u64;
            for pair in holds.windows(2) {
                let (lock, a1, r1, t1) = pair[0];
                let (_, a2, _, t2) = pair[1];
                // Boundary contact (a2 == r1) is legal: the release stamp is
                // taken before the wire send, strictly before the next grant.
                if a2 < r1 {
                    violations.push(Violation::LockOverlap {
                        lock,
                        holder: t1,
                        held_from: a1,
                        held_to: r1,
                        intruder: t2,
                        acquired_at: a2,
                    });
                }
            }
        }
    }

    /// Rules 2 and 5: each reader's invalidations and fetches in order,
    /// against the writers' first flushes and the servers' applies and
    /// serves.
    fn invalidations(&mut self, violations: &mut Vec<Violation>) {
        let applies = Grouped::new(self.pairs.len(), &self.applies);
        let serves = Grouped::new(self.pairs.len(), &self.serves);
        // Pages invalidated and not fetched since: by whom, and its last
        // batch the notice followed; one reader's at a time (a trace holds
        // each thread's track once).
        let mut stale: BTreeMap<u64, (u32, u32)> = BTreeMap::new();
        let mut current = None;
        for &(reader, e) in &self.reads {
            if current != Some(reader) {
                (current, stale) = (Some(reader), BTreeMap::new());
            }
            let at = e.at.as_ns();
            match e.kind {
                EventKind::Invalidate { page, writer, batch } => {
                    let pair = self.pairs.get(&(writer, page));
                    let earliest_flush = pair.and_then(|&p| self.first_flush[p as usize]);
                    if earliest_flush.is_some_and(|f| f <= at) {
                        self.summary.invalidations += 1;
                        stale.insert(page, (writer, batch));
                    } else {
                        violations.push(Violation::UnorderedInvalidate {
                            page,
                            reader,
                            writer,
                            at,
                            earliest_flush,
                        });
                    }
                }
                EventKind::Fetch { page: first, pages, kind, wait_ns } => {
                    let served = serves.of(self.pairs.get(&(reader, first)));
                    let served =
                        served[..served.partition_point(|&done| done <= at)].last().copied();
                    // A prefetch's response may have waited for the
                    // fault; a fetch the thread stalled for was served
                    // within the stall.
                    let prefetched =
                        matches!(kind, FetchKind::PrefetchHit | FetchKind::PrefetchLate);
                    let served = served.filter(|&done| prefetched || done + wait_ns >= at);
                    let end = first.saturating_add(u64::from(pages));
                    while let Some((&page, &(writer, batch))) = stale.range(first..end).next() {
                        stale.remove(&page);
                        let Some(served_at) = served else { continue };
                        // The writer's last apply of the page the notice
                        // followed: its highest batch up to the mark.
                        let applies = applies.of(self.pairs.get(&(writer, page)));
                        let upto = applies.partition_point(|&(b, _)| b <= batch);
                        let applied_at = upto.checked_sub(1).map(|i| applies[i].1);
                        if applied_at.is_some_and(|applied| applied <= served_at) {
                            self.summary.refetches += 1;
                        } else {
                            violations.push(Violation::StaleRefetch {
                                page,
                                reader,
                                writer,
                                served_at,
                                applied_at,
                            });
                        }
                    }
                }
                _ => unreachable!("only invalidations and fetches are read"),
            }
        }
    }

    /// Rule 3.
    fn byte_conservation(&mut self, violations: &mut Vec<Violation>) {
        let (flushed, applied) = (self.diff_flushed, self.diff_applied);
        if flushed != applied {
            violations.push(Violation::DiffBytesMismatch { flushed, applied });
        } else {
            self.summary.diff_bytes = flushed;
        }
        // The host control client also writes through ApplyFine, so servers
        // may legitimately apply more fine bytes than threads flushed.
        let (flushed, applied) = (self.fine_flushed, self.fine_applied);
        if applied < flushed {
            violations.push(Violation::FineBytesLoss { flushed, applied });
        } else {
            self.summary.fine_bytes = flushed;
        }
    }

    /// Rule 4, once every thread's episodes are known.
    fn barriers(&mut self, violations: &mut Vec<Violation>) {
        // By barrier, then thread; a stable sort keeps each thread's
        // episodes in order.
        self.episodes.sort_by_key(|&(barrier, tid, _, _)| (barrier, tid));
        for group in self.episodes.chunk_by(|a, b| a.0 == b.0) {
            let barrier = group[0].0;
            let by_tid: Vec<&[(u32, u32, u64, u64)]> = group.chunk_by(|a, b| a.1 == b.1).collect();
            // All participants must have run the same number of episodes —
            // barriers in this system are whole-group (fixed parties).
            let expected = by_tid.iter().map(|eps| eps.len() as u64).max().unwrap_or(0);
            let mut aligned = true;
            for eps in &by_tid {
                if eps.len() as u64 != expected {
                    violations.push(Violation::BarrierArity {
                        barrier,
                        tid: eps[0].1,
                        episodes: eps.len() as u64,
                        expected,
                    });
                    aligned = false;
                }
            }
            if !aligned {
                continue;
            }
            for k in 0..expected as usize {
                let last_arrive = by_tid.iter().map(|eps| eps[k].2).max().expect("participants");
                let first_release = by_tid.iter().map(|eps| eps[k].3).min().expect("participants");
                if first_release < last_arrive {
                    violations.push(Violation::BarrierOverlap {
                        barrier,
                        episode: k as u64,
                        last_arrive,
                        first_release,
                    });
                } else {
                    self.summary.barrier_episodes += 1;
                }
            }
        }
    }
}

/// Values filed by pair number, grouped by a counting sort — each pair's
/// in the order they came — then sorted within a pair, which a group
/// needs only when it came out of order: a track's stamps ascend, and so
/// do a writer's batches at its home.
struct Grouped<T> {
    /// Pair `p`'s values are `values[bounds[p]..bounds[p + 1]]`.
    bounds: Vec<usize>,
    values: Vec<T>,
}

impl<T: Copy + Default + Ord> Grouped<T> {
    fn new(pairs: usize, filed: &[(u32, T)]) -> Self {
        let mut bounds = vec![0; pairs + 1];
        for &(pair, _) in filed {
            bounds[pair as usize + 1] += 1;
        }
        for p in 0..pairs {
            bounds[p + 1] += bounds[p];
        }
        let mut next = bounds.clone();
        let mut values = vec![T::default(); filed.len()];
        for &(pair, v) in filed {
            values[next[pair as usize]] = v;
            next[pair as usize] += 1;
        }
        for group in bounds.windows(2) {
            let group = &mut values[group[0]..group[1]];
            if !group.is_sorted() {
                group.sort_unstable();
            }
        }
        Grouped { bounds, values }
    }

    /// The values of `pair`, if it was ever numbered.
    fn of(&self, pair: Option<&u32>) -> &[T] {
        pair.map_or(&[], |&p| &self.values[self.bounds[p as usize]..self.bounds[p as usize + 1]])
    }
}

/// The four-pass checker the one-pass walk replaced — one pass per rule
/// over every track, with `BTreeMap`s keyed by `(tid, page)` — kept as the
/// reference the tests hold the walk to: the same summary, and the same
/// violations in the same order.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::collections::BTreeMap;

    pub fn check_invariants(trace: &RunTrace) -> Result<CheckSummary, Vec<Violation>> {
        trace.untruncated().map_err(|truncated| vec![truncated])?;
        let mut violations = Vec::new();
        let mut summary = CheckSummary::default();
        check_locks(trace, &mut summary, &mut violations);
        check_invalidations(trace, &mut summary, &mut violations);
        check_byte_conservation(trace, &mut summary, &mut violations);
        check_barriers(trace, &mut summary, &mut violations);
        if violations.is_empty() {
            Ok(summary)
        } else {
            Err(violations)
        }
    }

    fn check_locks(trace: &RunTrace, summary: &mut CheckSummary, violations: &mut Vec<Violation>) {
        // (acquire, release, tid) intervals per lock, from per-thread pairing.
        let mut intervals: BTreeMap<u32, Vec<(u64, u64, u32)>> = BTreeMap::new();
        for (track, events) in &trace.tracks {
            let TrackId::Thread(tid) = *track else { continue };
            let mut open: BTreeMap<u32, u64> = BTreeMap::new();
            for e in events {
                match e.kind {
                    EventKind::LockAcquire { lock, .. } => {
                        if let Some(prev) = open.insert(lock, e.at.as_ns()) {
                            violations.push(Violation::UnpairedLock {
                                lock,
                                tid,
                                at: prev,
                                what: "re-acquired without releasing the hold begun",
                            });
                        }
                    }
                    EventKind::LockRelease { lock } => match open.remove(&lock) {
                        Some(acq) => {
                            intervals.entry(lock).or_default().push((acq, e.at.as_ns(), tid));
                        }
                        None => violations.push(Violation::UnpairedLock {
                            lock,
                            tid,
                            at: e.at.as_ns(),
                            what: "released without holding",
                        }),
                    },
                    _ => {}
                }
            }
            // A hold still open at thread exit excludes everyone forever.
            for (lock, acq) in open {
                intervals.entry(lock).or_default().push((acq, u64::MAX, tid));
            }
        }
        // Lease reclamations (standby track) forcibly end the named holder's
        // hold at the reclaim stamp; the deposed holder's own release, if it
        // ever arrives, is stale and must not extend the interval. A reclaim
        // whose end is already earlier is a release that was in flight when
        // the standby swept — legal, nothing to truncate.
        for (track, events) in &trace.tracks {
            if !matches!(track, TrackId::MgrStandby | TrackId::Manager) {
                continue;
            }
            for e in events {
                let EventKind::LeaseReclaim { lock, holder } = e.kind else { continue };
                let at = e.at.as_ns();
                let hold = intervals.get_mut(&lock).and_then(|holds| {
                    holds
                        .iter_mut()
                        .filter(|(acq, _, tid)| *tid == holder && *acq <= at)
                        .max_by_key(|(acq, _, _)| *acq)
                });
                match hold {
                    Some((_, end, _)) => {
                        *end = (*end).min(at);
                        summary.lease_reclaims += 1;
                    }
                    None => violations.push(Violation::ReclaimWithoutHold { lock, holder, at }),
                }
            }
        }
        summary.locks = intervals.len();
        for (lock, mut holds) in intervals {
            holds.sort_unstable();
            summary.lock_holds += holds.len() as u64;
            for pair in holds.windows(2) {
                let (a1, r1, t1) = pair[0];
                let (a2, _, t2) = pair[1];
                // Boundary contact (a2 == r1) is legal: the release stamp is
                // taken before the wire send, strictly before the next grant.
                if a2 < r1 {
                    violations.push(Violation::LockOverlap {
                        lock,
                        holder: t1,
                        held_from: a1,
                        held_to: r1,
                        intruder: t2,
                        acquired_at: a2,
                    });
                }
            }
        }
    }

    /// Rules 2 and 5, over the writers' flushes and the servers' applies
    /// and fetch serves.
    fn check_invalidations(
        trace: &RunTrace,
        summary: &mut CheckSummary,
        violations: &mut Vec<Violation>,
    ) {
        // First flush per (writer, page); applies per (writer, page) by
        // batch; serve stamps per (reader, first page), by time.
        let mut flushes: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        let mut applies: BTreeMap<(u32, u64), Vec<(u32, u64)>> = BTreeMap::new();
        let mut serves: BTreeMap<(u32, u64), Vec<u64>> = BTreeMap::new();
        for (track, events) in &trace.tracks {
            for e in events {
                let at = e.at.as_ns();
                match (*track, &e.kind) {
                    (TrackId::Thread(tid), &EventKind::DiffFlush { page, .. }) => {
                        flushes.entry((tid, page)).or_insert(at);
                    }
                    (TrackId::MemServer(_), &EventKind::ApplyDiff { page, writer, batch, .. }) => {
                        applies.entry((writer, page)).or_default().push((batch, at));
                    }
                    (TrackId::MemServer(_), &EventKind::ServeFetch { page, reader, .. }) => {
                        serves.entry((reader, page)).or_default().push(at);
                    }
                    _ => {}
                }
            }
        }
        for stamps in applies.values_mut() {
            stamps.sort_unstable();
        }
        for stamps in serves.values_mut() {
            stamps.sort_unstable();
        }
        for (track, events) in &trace.tracks {
            let TrackId::Thread(reader) = *track else { continue };
            // Pages invalidated and not fetched since: by whom, and its
            // last batch the notice followed.
            let mut stale: BTreeMap<u64, (u32, u32)> = BTreeMap::new();
            for e in events {
                let at = e.at.as_ns();
                match e.kind {
                    EventKind::Invalidate { page, writer, batch } => {
                        let earliest_flush = flushes.get(&(writer, page)).copied();
                        if earliest_flush.is_some_and(|f| f <= at) {
                            summary.invalidations += 1;
                            stale.insert(page, (writer, batch));
                        } else {
                            violations.push(Violation::UnorderedInvalidate {
                                page,
                                reader,
                                writer,
                                at,
                                earliest_flush,
                            });
                        }
                    }
                    EventKind::Fetch { page: first, pages, kind, wait_ns } => {
                        let served = serves.get(&(reader, first)).and_then(|s| {
                            s[..s.partition_point(|&done| done <= at)].last().copied()
                        });
                        // A prefetch's response may have waited for the
                        // fault; a fetch the thread stalled for was served
                        // within the stall.
                        let prefetched =
                            matches!(kind, FetchKind::PrefetchHit | FetchKind::PrefetchLate);
                        let served = served.filter(|&done| prefetched || done + wait_ns >= at);
                        for page in first..first + u64::from(pages) {
                            let Some((writer, batch)) = stale.remove(&page) else { continue };
                            let Some(served_at) = served else { continue };
                            // The writer's last apply of the page the notice
                            // followed: its highest batch up to the mark.
                            let applies =
                                applies.get(&(writer, page)).map_or(&[][..], Vec::as_slice);
                            let upto = applies.partition_point(|&(b, _)| b <= batch);
                            let applied_at = upto.checked_sub(1).map(|i| applies[i].1);
                            if applied_at.is_some_and(|applied| applied <= served_at) {
                                summary.refetches += 1;
                            } else {
                                violations.push(Violation::StaleRefetch {
                                    page,
                                    reader,
                                    writer,
                                    served_at,
                                    applied_at,
                                });
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    fn check_byte_conservation(
        trace: &RunTrace,
        summary: &mut CheckSummary,
        violations: &mut Vec<Violation>,
    ) {
        let (mut diff_flushed, mut fine_flushed) = (0u64, 0u64);
        let (mut diff_applied, mut fine_applied) = (0u64, 0u64);
        for (track, events) in &trace.tracks {
            for e in events {
                match (track, &e.kind) {
                    (TrackId::Thread(_), EventKind::DiffFlush { bytes, .. }) => {
                        diff_flushed += bytes;
                    }
                    (TrackId::Thread(_), EventKind::FineFlush { bytes, .. }) => {
                        fine_flushed += bytes;
                    }
                    (TrackId::MemServer(_), EventKind::ApplyDiff { bytes, .. }) => {
                        diff_applied += bytes;
                    }
                    (TrackId::MemServer(_), EventKind::ApplyFine { bytes, .. }) => {
                        fine_applied += bytes;
                    }
                    _ => {}
                }
            }
        }
        if diff_flushed != diff_applied {
            violations.push(Violation::DiffBytesMismatch {
                flushed: diff_flushed,
                applied: diff_applied,
            });
        } else {
            summary.diff_bytes = diff_flushed;
        }
        // The host control client also writes through ApplyFine, so servers
        // may legitimately apply more fine bytes than threads flushed.
        if fine_applied < fine_flushed {
            violations
                .push(Violation::FineBytesLoss { flushed: fine_flushed, applied: fine_applied });
        } else {
            summary.fine_bytes = fine_flushed;
        }
    }

    fn check_barriers(
        trace: &RunTrace,
        summary: &mut CheckSummary,
        violations: &mut Vec<Violation>,
    ) {
        // Per (barrier, tid): the ordered list of (arrive, release) pairs.
        let mut pairs: BTreeMap<u32, BTreeMap<u32, Vec<(u64, u64)>>> = BTreeMap::new();
        for (track, events) in &trace.tracks {
            let TrackId::Thread(tid) = *track else { continue };
            let mut pending: BTreeMap<u32, u64> = BTreeMap::new();
            for e in events {
                match e.kind {
                    EventKind::BarrierArrive { barrier } => {
                        pending.insert(barrier, e.at.as_ns());
                    }
                    EventKind::BarrierRelease { barrier, .. } => {
                        if let Some(arrive) = pending.remove(&barrier) {
                            pairs
                                .entry(barrier)
                                .or_default()
                                .entry(tid)
                                .or_default()
                                .push((arrive, e.at.as_ns()));
                        }
                    }
                    _ => {}
                }
            }
            for (barrier, at) in pending {
                violations.push(Violation::UnpairedBarrier { barrier, tid, at });
            }
        }
        for (barrier, by_tid) in pairs {
            // All participants must have run the same number of episodes —
            // barriers in this system are whole-group (fixed parties).
            let expected = by_tid.values().map(|v| v.len() as u64).max().unwrap_or(0);
            let mut aligned = true;
            for (tid, eps) in &by_tid {
                if eps.len() as u64 != expected {
                    violations.push(Violation::BarrierArity {
                        barrier,
                        tid: *tid,
                        episodes: eps.len() as u64,
                        expected,
                    });
                    aligned = false;
                }
            }
            if !aligned {
                continue;
            }
            for k in 0..expected as usize {
                let last_arrive = by_tid.values().map(|eps| eps[k].0).max().expect("participants");
                let first_release =
                    by_tid.values().map(|eps| eps[k].1).min().expect("participants");
                if first_release < last_arrive {
                    violations.push(Violation::BarrierOverlap {
                        barrier,
                        episode: k as u64,
                        last_arrive,
                        first_release,
                    });
                } else {
                    summary.barrier_episodes += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samhita_scl::SimTime;

    fn ev(at: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { at: SimTime::from_ns(at), kind }
    }

    /// `trace.check_invariants()`, held to the oracle's answer: every
    /// fixture below is also a case of the equivalence.
    fn checked(trace: &RunTrace) -> Result<CheckSummary, Vec<Violation>> {
        let result = trace.check_invariants();
        assert_eq!(result, oracle::check_invariants(trace), "the checker and its oracle disagree");
        result
    }

    /// A small well-formed trace: two threads trade a lock, run one barrier
    /// episode, and thread 1 invalidates a page thread 0 flushed.
    fn clean_trace() -> RunTrace {
        RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                vec![
                    ev(100, EventKind::LockAcquire { lock: 0, wait_ns: 50 }),
                    ev(150, EventKind::TwinCreate { page: 9 }),
                    ev(200, EventKind::DiffFlush { page: 9, bytes: 64 }),
                    ev(250, EventKind::LockRelease { lock: 0 }),
                    ev(300, EventKind::BarrierArrive { barrier: 0 }),
                    ev(500, EventKind::BarrierRelease { barrier: 0, wait_ns: 200 }),
                ],
            ),
            (
                TrackId::Thread(1),
                vec![
                    ev(400, EventKind::LockAcquire { lock: 0, wait_ns: 300 }),
                    ev(410, EventKind::Invalidate { page: 9, writer: 0, batch: 1 }),
                    ev(450, EventKind::LockRelease { lock: 0 }),
                    ev(460, EventKind::BarrierArrive { barrier: 0 }),
                    ev(520, EventKind::BarrierRelease { barrier: 0, wait_ns: 60 }),
                ],
            ),
            (
                TrackId::MemServer(0),
                vec![ev(230, EventKind::ApplyDiff { page: 9, bytes: 64, writer: 0, batch: 1 })],
            ),
        ])
    }

    #[test]
    fn clean_trace_passes_with_accurate_summary() {
        let summary = checked(&clean_trace()).expect("clean");
        assert_eq!(summary.locks, 1);
        assert_eq!(summary.lock_holds, 2);
        assert_eq!(summary.invalidations, 1);
        assert_eq!(summary.barrier_episodes, 1);
        assert_eq!(summary.diff_bytes, 64);
        // Display is a one-liner mentioning what was proven.
        assert!(summary.to_string().contains("2 holds on 1 locks"));
    }

    /// Injected-violation fixture 1: overlapping lock holds.
    #[test]
    fn rejects_mutual_exclusion_violation_with_diagnostics() {
        let trace = RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                vec![
                    ev(100, EventKind::LockAcquire { lock: 3, wait_ns: 0 }),
                    ev(500, EventKind::LockRelease { lock: 3 }),
                ],
            ),
            (
                TrackId::Thread(1),
                vec![
                    // Acquired at 300 while thread 0 still holds until 500.
                    ev(300, EventKind::LockAcquire { lock: 3, wait_ns: 0 }),
                    ev(600, EventKind::LockRelease { lock: 3 }),
                ],
            ),
        ]);
        let violations = checked(&trace).expect_err("must reject");
        assert_eq!(violations.len(), 1);
        let v = &violations[0];
        assert_eq!(
            *v,
            Violation::LockOverlap {
                lock: 3,
                holder: 0,
                held_from: 100,
                held_to: 500,
                intruder: 1,
                acquired_at: 300,
            }
        );
        let msg = v.to_string();
        assert!(msg.contains("lock 3"), "diagnostic names the lock: {msg}");
        assert!(msg.contains("thread 1 acquired at 300ns"), "names the intruder: {msg}");
        assert!(msg.contains("[100ns, 500ns]"), "names the hold interval: {msg}");
    }

    /// Injected-violation fixture 2: invalidation precedes the writer's flush.
    #[test]
    fn rejects_out_of_order_invalidation_with_diagnostics() {
        let trace = RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                // Flush happens only at t=900…
                vec![ev(900, EventKind::DiffFlush { page: 42, bytes: 32 })],
            ),
            (
                TrackId::Thread(1),
                // …but the reader saw the invalidation at t=400.
                vec![ev(400, EventKind::Invalidate { page: 42, writer: 0, batch: 1 })],
            ),
            (
                TrackId::MemServer(0),
                vec![ev(950, EventKind::ApplyDiff { page: 42, bytes: 32, writer: 0, batch: 1 })],
            ),
        ]);
        let violations = checked(&trace).expect_err("must reject");
        assert_eq!(violations.len(), 1);
        assert_eq!(
            violations[0],
            Violation::UnorderedInvalidate {
                page: 42,
                reader: 1,
                writer: 0,
                at: 400,
                earliest_flush: Some(900),
            }
        );
        let msg = violations[0].to_string();
        assert!(msg.contains("page 42"), "diagnostic names the page: {msg}");
        assert!(msg.contains("invalidated at 400ns"), "names the notice time: {msg}");
        assert!(msg.contains("flushed a diff at 900ns"), "names the flush time: {msg}");
    }

    /// Thread 0 flushes page 7 in its batches 1 and 3 to home 0; the server
    /// applies them at 300 and 900. Thread 1 is told of the page with
    /// thread 0's mark `batch` and refetches it, served at `served`.
    fn refetch_trace(batch: u32, served: u64) -> RunTrace {
        let apply =
            |at, batch| ev(at, EventKind::ApplyDiff { page: 7, bytes: 8, writer: 0, batch });
        let fetch = EventKind::Fetch { page: 7, pages: 1, kind: FetchKind::Refetch, wait_ns: 200 };
        RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                vec![
                    ev(100, EventKind::DiffFlush { page: 7, bytes: 8 }),
                    ev(700, EventKind::DiffFlush { page: 7, bytes: 8 }),
                ],
            ),
            (
                TrackId::Thread(1),
                vec![
                    ev(served - 100, EventKind::Invalidate { page: 7, writer: 0, batch }),
                    ev(served + 100, fetch),
                ],
            ),
            (
                TrackId::MemServer(0),
                vec![
                    apply(300, 1),
                    apply(900, 3),
                    ev(
                        served,
                        EventKind::ServeFetch {
                            page: 7,
                            pages: 1,
                            reader: 1,
                            written: 1,
                            queued_ns: 0,
                        },
                    ),
                ],
            ),
        ])
    }

    /// Thread 0 flushes page 7 in its batch 1, applied at 900. Thread 1,
    /// told of it at 400, refetches the page at that release, served to it
    /// at `served` — and, at 1 500, to thread 2 — and takes the response at
    /// a fault at 2 000.
    fn release_refetch_trace(served: u64) -> RunTrace {
        let fetch =
            EventKind::Fetch { page: 7, pages: 1, kind: FetchKind::PrefetchHit, wait_ns: 0 };
        let serve = |at, reader| {
            ev(at, EventKind::ServeFetch { page: 7, pages: 1, reader, written: 1, queued_ns: 0 })
        };
        RunTrace::from_tracks(vec![
            (TrackId::Thread(0), vec![ev(100, EventKind::DiffFlush { page: 7, bytes: 8 })]),
            (
                TrackId::Thread(1),
                vec![
                    ev(400, EventKind::Invalidate { page: 7, writer: 0, batch: 1 }),
                    ev(410, EventKind::RefetchIssue { page: 7, pages: 1 }),
                    ev(2_000, fetch),
                ],
            ),
            (
                TrackId::MemServer(0),
                vec![
                    ev(900, EventKind::ApplyDiff { page: 7, bytes: 8, writer: 0, batch: 1 }),
                    serve(served, 1),
                    serve(1_500, 2),
                ],
            ),
        ])
    }

    #[test]
    fn a_release_refetch_is_held_to_the_apply_its_notice_named() {
        let summary = checked(&release_refetch_trace(1_000)).expect("clean");
        assert_eq!((summary.invalidations, summary.refetches), (1, 1));
        // Served early, and taken long after: another reader's later serve
        // of the page does not stand in for it.
        let violations = checked(&release_refetch_trace(500)).expect_err("must reject");
        assert_eq!(
            violations,
            vec![Violation::StaleRefetch {
                page: 7,
                reader: 1,
                writer: 0,
                served_at: 500,
                applied_at: Some(900),
            }]
        );
    }

    #[test]
    fn a_refetch_is_served_after_the_apply_its_notice_named() {
        // Told of batch 1 (or 2, which did not touch the page), it needs
        // the apply at 300; told of batch 3, the one at 900.
        for batch in [1, 2, 3] {
            let summary = checked(&refetch_trace(batch, 1_000)).expect("clean");
            assert_eq!((summary.invalidations, summary.refetches), (1, 1));
        }
        assert!(checked(&refetch_trace(2, 500)).is_ok());
        // Served before the apply it follows: a stale copy left the home.
        let violations = checked(&refetch_trace(3, 500)).expect_err("must reject");
        assert_eq!(
            violations,
            vec![Violation::StaleRefetch {
                page: 7,
                reader: 1,
                writer: 0,
                served_at: 500,
                applied_at: Some(900),
            }]
        );
        assert!(violations[0].to_string().contains("applied at 900ns"), "{}", violations[0]);
        // No apply at all by the mark: never applied.
        let violations = checked(&refetch_trace(0, 500)).expect_err("must reject");
        assert!(violations[0].to_string().contains("applied never"), "{}", violations[0]);
    }

    #[test]
    fn rejects_orphan_invalidation() {
        let trace = RunTrace::from_tracks(vec![(
            TrackId::Thread(1),
            vec![ev(400, EventKind::Invalidate { page: 5, writer: 0, batch: 1 })],
        )]);
        let violations = checked(&trace).expect_err("must reject");
        assert!(matches!(
            violations[0],
            Violation::UnorderedInvalidate { page: 5, earliest_flush: None, .. }
        ));
        assert!(violations[0].to_string().contains("never flushed"));
    }

    #[test]
    fn rejects_unpaired_release() {
        let trace = RunTrace::from_tracks(vec![(
            TrackId::Thread(2),
            vec![ev(700, EventKind::LockRelease { lock: 1 })],
        )]);
        let violations = checked(&trace).expect_err("must reject");
        assert_eq!(
            violations[0],
            Violation::UnpairedLock { lock: 1, tid: 2, at: 700, what: "released without holding" }
        );
    }

    #[test]
    fn hold_open_at_exit_excludes_later_acquires() {
        let trace = RunTrace::from_tracks(vec![
            (TrackId::Thread(0), vec![ev(100, EventKind::LockAcquire { lock: 0, wait_ns: 0 })]),
            (
                TrackId::Thread(1),
                vec![
                    ev(200, EventKind::LockAcquire { lock: 0, wait_ns: 0 }),
                    ev(300, EventKind::LockRelease { lock: 0 }),
                ],
            ),
        ]);
        let violations = checked(&trace).expect_err("must reject");
        assert!(matches!(violations[0], Violation::LockOverlap { lock: 0, .. }));
    }

    #[test]
    fn rejects_diff_byte_mismatch() {
        let trace = RunTrace::from_tracks(vec![
            (TrackId::Thread(0), vec![ev(10, EventKind::DiffFlush { page: 1, bytes: 100 })]),
            (
                TrackId::MemServer(0),
                vec![ev(20, EventKind::ApplyDiff { page: 1, bytes: 60, writer: 0, batch: 1 })],
            ),
        ]);
        let violations = checked(&trace).expect_err("must reject");
        assert_eq!(violations[0], Violation::DiffBytesMismatch { flushed: 100, applied: 60 });
    }

    #[test]
    fn fine_bytes_tolerate_host_writes_but_not_loss() {
        // Servers applying more than threads flushed is fine (host writes).
        let extra = RunTrace::from_tracks(vec![
            (TrackId::Thread(0), vec![ev(10, EventKind::FineFlush { page: 1, bytes: 8 })]),
            (
                TrackId::MemServer(0),
                vec![ev(20, EventKind::ApplyFine { page: 1, bytes: 8, writer: 0, batch: 1 })],
            ),
            (
                TrackId::MemServer(0),
                vec![ev(30, EventKind::ApplyFine { page: 2, bytes: 16, writer: 0, batch: 1 })],
            ),
        ]);
        assert!(checked(&extra).is_ok());
        // Applying less is loss.
        let loss = RunTrace::from_tracks(vec![
            (TrackId::Thread(0), vec![ev(10, EventKind::FineFlush { page: 1, bytes: 32 })]),
            (
                TrackId::MemServer(0),
                vec![ev(20, EventKind::ApplyFine { page: 1, bytes: 8, writer: 0, batch: 1 })],
            ),
        ]);
        let violations = checked(&loss).expect_err("must reject");
        assert_eq!(violations[0], Violation::FineBytesLoss { flushed: 32, applied: 8 });
    }

    #[test]
    fn rejects_misaligned_barrier_episode() {
        let trace = RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                vec![
                    ev(100, EventKind::BarrierArrive { barrier: 0 }),
                    // Released at 150, before thread 1 arrives at 200.
                    ev(150, EventKind::BarrierRelease { barrier: 0, wait_ns: 50 }),
                ],
            ),
            (
                TrackId::Thread(1),
                vec![
                    ev(200, EventKind::BarrierArrive { barrier: 0 }),
                    ev(250, EventKind::BarrierRelease { barrier: 0, wait_ns: 50 }),
                ],
            ),
        ]);
        let violations = checked(&trace).expect_err("must reject");
        assert_eq!(
            violations[0],
            Violation::BarrierOverlap {
                barrier: 0,
                episode: 0,
                last_arrive: 200,
                first_release: 150
            }
        );
        let msg = violations[0].to_string();
        assert!(msg.contains("released at 150ns"), "{msg}");
        assert!(msg.contains("last arrival at 200ns"), "{msg}");
    }

    #[test]
    fn rejects_barrier_arity_mismatch() {
        let trace = RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                vec![
                    ev(100, EventKind::BarrierArrive { barrier: 0 }),
                    ev(200, EventKind::BarrierRelease { barrier: 0, wait_ns: 100 }),
                    ev(300, EventKind::BarrierArrive { barrier: 0 }),
                    ev(400, EventKind::BarrierRelease { barrier: 0, wait_ns: 100 }),
                ],
            ),
            (
                TrackId::Thread(1),
                vec![
                    ev(110, EventKind::BarrierArrive { barrier: 0 }),
                    ev(200, EventKind::BarrierRelease { barrier: 0, wait_ns: 90 }),
                ],
            ),
        ]);
        let violations = checked(&trace).expect_err("must reject");
        assert!(matches!(
            violations[0],
            Violation::BarrierArity { barrier: 0, tid: 1, episodes: 1, expected: 2 }
        ));
    }

    #[test]
    fn lease_reclaim_closes_the_deposed_holders_interval() {
        // T0 acquires at 100 and only releases (stale) at 700, after the
        // standby reclaimed the lease at 500 and granted T1. Without the
        // reclaim this is a textbook overlap; with it the intervals are
        // [100, 500] and [500, 600].
        let trace = RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                vec![
                    ev(100, EventKind::LockAcquire { lock: 4, wait_ns: 0 }),
                    ev(700, EventKind::LockRelease { lock: 4 }),
                ],
            ),
            (
                TrackId::Thread(1),
                vec![
                    ev(500, EventKind::LockAcquire { lock: 4, wait_ns: 400 }),
                    ev(600, EventKind::LockRelease { lock: 4 }),
                ],
            ),
            (TrackId::MgrStandby, vec![ev(500, EventKind::LeaseReclaim { lock: 4, holder: 0 })]),
        ]);
        let summary = checked(&trace).expect("reclaim resolves the overlap");
        assert_eq!(summary.lease_reclaims, 1);
        assert_eq!(summary.lock_holds, 2);
        // Sanity: the same trace without the reclaim event is rejected.
        let without = RunTrace::from_tracks(
            trace.tracks.iter().filter(|(t, _)| *t != TrackId::MgrStandby).cloned().collect(),
        );
        let violations = checked(&without).expect_err("overlap without reclaim");
        assert!(matches!(violations[0], Violation::LockOverlap { lock: 4, .. }));
    }

    #[test]
    fn rejects_reclaim_from_a_thread_that_never_held() {
        let trace = RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                vec![
                    ev(100, EventKind::LockAcquire { lock: 2, wait_ns: 0 }),
                    ev(200, EventKind::LockRelease { lock: 2 }),
                ],
            ),
            (TrackId::MgrStandby, vec![ev(300, EventKind::LeaseReclaim { lock: 2, holder: 9 })]),
        ]);
        let violations = checked(&trace).expect_err("must reject");
        assert_eq!(violations[0], Violation::ReclaimWithoutHold { lock: 2, holder: 9, at: 300 });
        let msg = violations[0].to_string();
        assert!(msg.contains("lock 2"), "{msg}");
        assert!(msg.contains("thread 9 never held"), "{msg}");
    }

    #[test]
    fn refuses_truncated_traces() {
        let mut trace = clean_trace();
        trace.dropped = 17;
        let violations = checked(&trace).expect_err("must refuse");
        assert_eq!(violations, vec![Violation::Truncated { dropped: 17 }]);
        assert!(violations[0].to_string().contains("17 events dropped"));
    }

    #[test]
    fn rejects_an_arrival_with_no_release() {
        let trace = RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                vec![
                    ev(100, EventKind::BarrierArrive { barrier: 1 }),
                    ev(200, EventKind::BarrierRelease { barrier: 1, wait_ns: 100 }),
                    // The second episode's release never came.
                    ev(300, EventKind::BarrierArrive { barrier: 1 }),
                ],
            ),
            (
                TrackId::Thread(1),
                vec![
                    ev(150, EventKind::BarrierArrive { barrier: 1 }),
                    ev(200, EventKind::BarrierRelease { barrier: 1, wait_ns: 50 }),
                ],
            ),
        ]);
        let violations = checked(&trace).expect_err("must reject");
        assert_eq!(violations, vec![Violation::UnpairedBarrier { barrier: 1, tid: 0, at: 300 }]);
        let msg = violations[0].to_string();
        assert!(msg.contains("barrier 1: thread 0 arrived at 300ns with no release"), "{msg}");
    }

    #[test]
    fn rejects_a_reacquire_without_a_release() {
        let trace = RunTrace::from_tracks(vec![(
            TrackId::Thread(3),
            vec![
                ev(100, EventKind::LockAcquire { lock: 1, wait_ns: 0 }),
                ev(200, EventKind::LockAcquire { lock: 1, wait_ns: 0 }),
                ev(300, EventKind::LockRelease { lock: 1 }),
            ],
        )]);
        let violations = checked(&trace).expect_err("must reject");
        assert_eq!(
            violations,
            vec![Violation::UnpairedLock {
                lock: 1,
                tid: 3,
                at: 100,
                what: "re-acquired without releasing the hold begun",
            }]
        );
        let msg = violations[0].to_string();
        assert!(msg.contains("thread 3 re-acquired without releasing the hold begun at 100ns"));
    }

    /// SplitMix64: the seeded stream behind the generated runs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A correct run shaped like the simulator's: rounds in which every
    /// thread, in a seeded order, takes one of two locks, refetches the
    /// page its last holder wrote once the home has applied it, writes and
    /// flushes a page of its own (sometimes a fine update too), and
    /// releases; then every thread meets at one barrier. The standby
    /// reclaims one lease at its holder's release, which truncates nothing.
    fn protocol_trace(seed: u64) -> RunTrace {
        let mut r = Rng(seed);
        let threads = 2 + r.below(4) as usize;
        let mut tracks = vec![Vec::new(); threads];
        let (mut server, mut standby) = (Vec::new(), Vec::new());
        let mut clock = vec![0u64; threads];
        let mut batch = vec![0u32; threads];
        // Per lock: when its last holder released, and (page, writer,
        // batch, applied at) of what that holder wrote.
        let mut free_at = [0u64; 2];
        let mut notice: [Option<(u64, u32, u32, u64)>; 2] = [None, None];
        for _ in 0..2 + r.below(3) {
            let mut order: Vec<usize> = (0..threads).collect();
            for i in (1..threads).rev() {
                order.swap(i, r.below(i as u64 + 1) as usize);
            }
            for tid in order {
                let lock = r.below(2) as usize;
                let asked = clock[tid];
                let mut now = asked.max(free_at[lock]) + 1 + r.below(20);
                let track = &mut tracks[tid];
                track.push(ev(asked, EventKind::LockRequest { lock: lock as u32 }));
                let wait_ns = now - asked;
                track.push(ev(now, EventKind::LockAcquire { lock: lock as u32, wait_ns }));
                if let Some((page, writer, b, applied)) = notice[lock] {
                    if writer as usize != tid {
                        track.push(ev(now, EventKind::Invalidate { page, writer, batch: b }));
                        let served = now.max(applied) + 1 + r.below(10);
                        let done = served + 1 + r.below(10);
                        server.push(ev(
                            served,
                            EventKind::ServeFetch {
                                page,
                                pages: 1,
                                reader: tid as u32,
                                written: 1,
                                queued_ns: 0,
                            },
                        ));
                        let kind = FetchKind::Refetch;
                        let wait_ns = done - now;
                        track.push(ev(done, EventKind::Fetch { page, pages: 1, kind, wait_ns }));
                        now = done;
                    }
                }
                let (page, bytes) = (r.below(6), 8 + 8 * r.below(64));
                batch[tid] += 1;
                track.push(ev(now + 1, EventKind::TwinCreate { page }));
                track.push(ev(now + 2, EventKind::DiffFlush { page, bytes }));
                let applied = now + 3 + r.below(50);
                let (writer, b) = (tid as u32, batch[tid]);
                server.push(ev(applied, EventKind::ApplyDiff { page, bytes, writer, batch: b }));
                if r.below(4) == 0 {
                    track.push(ev(now + 2, EventKind::FineFlush { page: page + 6, bytes: 8 }));
                    let kind = EventKind::ApplyFine { page: page + 6, bytes: 8, writer, batch: b };
                    server.push(ev(applied, kind));
                }
                track.push(ev(now + 3, EventKind::LockRelease { lock: lock as u32 }));
                if standby.is_empty() && r.below(8) == 0 {
                    standby.push(ev(
                        now + 3,
                        EventKind::LeaseReclaim { lock: lock as u32, holder: writer },
                    ));
                }
                free_at[lock] = now + 3;
                notice[lock] = Some((page, writer, b, applied));
                clock[tid] = now + 3;
            }
            let arrivals: Vec<u64> = clock.iter().map(|&t| t + r.below(20)).collect();
            let last = *arrivals.iter().max().expect("threads");
            for (tid, &arrive) in arrivals.iter().enumerate() {
                let release = last + 1 + r.below(5);
                tracks[tid].push(ev(arrive, EventKind::BarrierArrive { barrier: 0 }));
                let wait_ns = release - arrive;
                tracks[tid].push(ev(release, EventKind::BarrierRelease { barrier: 0, wait_ns }));
                clock[tid] = release;
            }
        }
        let mut all: Vec<_> =
            tracks.into_iter().enumerate().map(|(t, e)| (TrackId::Thread(t as u32), e)).collect();
        all.push((TrackId::MemServer(0), server));
        all.push((TrackId::MgrStandby, standby));
        RunTrace::from_tracks(all)
    }

    /// `trace` with the `pick`-th event (counting across tracks in order)
    /// that `is` selects changed by `edit` — `None` drops it — re-sorted.
    fn mutated(
        trace: &RunTrace,
        pick: u64,
        is: impl Fn(&TrackId, &EventKind) -> bool,
        edit: impl Fn(&TraceEvent) -> Option<TraceEvent>,
    ) -> Option<RunTrace> {
        let found: Vec<(usize, usize)> = trace
            .tracks
            .iter()
            .enumerate()
            .flat_map(|(t, (id, evs))| {
                evs.iter().enumerate().filter(|(_, e)| is(id, &e.kind)).map(move |(i, _)| (t, i))
            })
            .collect();
        let &(t, i) = found.get((pick % found.len().max(1) as u64) as usize)?;
        let mut tracks = trace.tracks.clone();
        match edit(&tracks[t].1[i]) {
            Some(e) => tracks[t].1[i] = e,
            None => drop(tracks[t].1.remove(i)),
        }
        Some(RunTrace::from_tracks(tracks))
    }

    /// The checker returns the oracle's summary and violations on every
    /// generated run and on seeded mutations of each: a release dropped, an
    /// apply moved after its serve, an arrival dropped, a flush dropped, a
    /// reclaim aimed at a thread that never held the lock. Each mutation
    /// must be caught somewhere in the sweep, so the runs have teeth.
    #[test]
    fn the_checker_matches_its_oracle_on_generated_runs_and_their_mutations() {
        let (mut caught, mut refetches, mut reclaims) = ([0u32; 5], 0, 0);
        for seed in 0..200u64 {
            let trace = protocol_trace(seed);
            let summary = checked(&trace).unwrap_or_else(|v| panic!("seed {seed}: {v:?}"));
            assert!(summary.lock_holds > 0 && summary.barrier_episodes > 0, "seed {seed}");
            (refetches, reclaims) =
                (refetches + summary.refetches, reclaims + summary.lease_reclaims);
            let end = trace.tracks.iter().flat_map(|(_, e)| e.last()).map(|e| e.at).max();
            let late = end.expect("events").as_ns() + 1;
            let mut r = Rng(seed ^ 0x5eed);
            let mutants = [
                mutated(
                    &trace,
                    r.next(),
                    |_, k| matches!(k, EventKind::LockRelease { .. }),
                    |_| None,
                ),
                mutated(
                    &trace,
                    r.next(),
                    |_, k| matches!(k, EventKind::ApplyDiff { .. }),
                    |e| Some(ev(late, e.kind)),
                ),
                mutated(
                    &trace,
                    r.next(),
                    |_, k| matches!(k, EventKind::BarrierArrive { .. }),
                    |_| None,
                ),
                mutated(
                    &trace,
                    r.next(),
                    |_, k| matches!(k, EventKind::DiffFlush { .. }),
                    |_| None,
                ),
                mutated(
                    &trace,
                    r.next(),
                    |_, k| matches!(k, EventKind::LeaseReclaim { .. }),
                    |e| Some(ev(e.at.as_ns(), EventKind::LeaseReclaim { lock: 0, holder: 99 })),
                ),
            ];
            // Only the reclaim may be missing: not every run has one.
            for (k, mutant) in mutants.iter().enumerate() {
                let Some(mutant) = mutant else { continue };
                caught[k] += u32::from(checked(mutant).is_err());
            }
        }
        assert!(refetches >= 400 && reclaims >= 20, "{refetches} refetches, {reclaims} reclaims");
        assert!(caught.iter().all(|&n| n >= 20), "mutations caught per kind: {caught:?}");
    }
}
