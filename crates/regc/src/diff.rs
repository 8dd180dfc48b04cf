//! Word-granularity page diffs (the multiple-writer protocol's currency).
//!
//! A [`Diff`] records the byte runs of a page that changed relative to its
//! twin, coalescing adjacent changed words into runs. Diffs from different
//! writers of the same page commute as long as their modified words are
//! disjoint — which RegC guarantees for correctly synchronized programs
//! (conflicting unsynchronized stores to the *same word* are a data race in
//! the source program; like the original system, last-writer-wins applies).
//!
//! ## Representation
//!
//! A diff is a flat run table — one `(offset, len, at)` entry per run — over
//! shared bytes (`Arc<[u8]>`): each run's new bytes are `bytes[at..][..len]`.
//! A flush diffs the writer's page frame in place ([`Diff::compute_shared`],
//! `at == offset`), so it allocates only the run table and copies no page
//! byte, and holds the twin it was taken against; a page claimed whole
//! ships as one run over its frame ([`Diff::whole`]). A home whose frame
//! the diff makes without applying — a whole page over any frame, runs
//! over their own twin — adopts the diff's bytes as its new frame
//! ([`Diff::result_over`]). Both frames stay correct while the diff holds
//! them because nobody writes a frame another holder can see: the writer's
//! next store copies it first (`samhita_mem::PageFrame::bytes_mut`).
//! Callers with plain slices ([`Diff::compute`]) and fine-grain runs
//! ([`Diff::from_run`]) own their bytes, packed back to back. The table
//! doubles from four entries if it must; [`Diff::payload_bytes`] /
//! [`Diff::wire_bytes`] are O(1) and the same whichever bytes the runs read.
//! [`Diff::compute`] costs time proportional to what changed: equal
//! stretches are skipped 64 bytes at a time.

use std::fmt;
use std::sync::Arc;

/// Comparison granularity in bytes. Diffing whole 8-byte words matches the
/// `f64`/`u64`-dominated workloads of the paper and keeps run tables small.
pub const WORD: usize = 8;

/// Equal stretches are skipped this many bytes at a time (one `memcmp` over
/// eight words) before falling back to single words.
const CHUNK: usize = 8 * WORD;

/// Wire bytes of one run's `(offset, len)` header.
const RUN_HEADER_BYTES: usize = 8;

/// One changed run: where it lies in the page, and where its new bytes
/// start in [`Diff`]'s shared bytes.
#[derive(Copy, Clone)]
struct Run {
    offset: u32,
    len: u32,
    at: u32,
}

/// The set of modified runs of one page, relative to its twin.
#[derive(Clone, Default)]
pub struct Diff {
    /// The runs, ascending by page offset.
    runs: Vec<Run>,
    /// What the runs read: the writer's page, or bytes of the diff's own.
    /// `None` exactly when there are no runs.
    bytes: Option<Arc<[u8]>>,
    /// The twin the runs were taken against, when the diff reads the
    /// writer's page ([`Diff::compute_shared`]): over it, the runs make
    /// `bytes`.
    twin: Option<Arc<[u8]>>,
    /// Sum of the runs' lengths.
    payload: usize,
}

impl Diff {
    /// Compare `current` against the pristine `twin` and collect changed
    /// words into coalesced runs, whose bytes the diff copies into a buffer
    /// of its own, sized once from the finished run table. A tail shorter
    /// than a word (odd page sizes only) is compared as one short word.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn compute(twin: &[u8], current: &[u8]) -> Diff {
        let _prof = samhita_prof::enter(samhita_prof::Phase::RegcDiff);
        let mut diff = Diff::scan(twin, current);
        if diff.runs.is_empty() {
            return diff;
        }
        // Collected from an iterator of known length, the buffer is
        // allocated once, in place; it has no other holder to copy for.
        let mut packed: Arc<[u8]> = std::iter::repeat_n(0, diff.payload).collect();
        let buf = Arc::get_mut(&mut packed).expect("a new buffer has one holder");
        let mut at = 0;
        for run in &mut diff.runs {
            let len = run.len as usize;
            buf[at..at + len].copy_from_slice(&current[run.offset as usize..][..len]);
            run.at = at as u32;
            at += len;
        }
        diff.bytes = Some(packed);
        diff
    }

    /// [`Diff::compute`] of the writer's shared `page` against its shared
    /// `twin`, whose runs read the page in place: the diff allocates only
    /// its run table, and holds the page and the twin only if something
    /// changed. Held, neither frame is ever written again, so the twin plus
    /// the runs stays the page ([`Diff::result_over`]).
    ///
    /// # Panics
    /// Panics if the twin and the page differ in length.
    pub fn compute_shared(twin: &Arc<[u8]>, page: &Arc<[u8]>) -> Diff {
        let _prof = samhita_prof::enter(samhita_prof::Phase::RegcDiff);
        let mut diff = Diff::scan(twin, page);
        if !diff.runs.is_empty() {
            diff.bytes = Some(Arc::clone(page));
            diff.twin = Some(Arc::clone(twin));
        }
        diff
    }

    /// The run table of `current` against `twin`, each run's bytes at its
    /// own page offset, with no bytes to read them from yet.
    fn scan(twin: &[u8], current: &[u8]) -> Diff {
        assert_eq!(twin.len(), current.len(), "twin/page size mismatch");
        let len = twin.len();
        // Whole words compare as one fixed-size load each; only the tail
        // takes the variable-length path.
        let whole = len - len % WORD;
        let changed = |at: usize| {
            if at < whole {
                twin[at..at + WORD] != current[at..at + WORD]
            } else {
                twin[at..] != current[at..]
            }
        };
        let mut diff = Diff::default();
        let mut at = 0;
        while at < len {
            while at + CHUNK <= len && twin[at..at + CHUNK] == current[at..at + CHUNK] {
                at += CHUNK;
            }
            while at < len && !changed(at) {
                at += WORD;
            }
            // Stepping over a short tail overshoots `len`.
            let start = at.min(len);
            while at < len && changed(at) {
                at += WORD;
            }
            // Empty when the scan reached the end of the page.
            let run = at.min(len) - start;
            if run > 0 {
                diff.runs.push(Run { offset: start as u32, len: run as u32, at: start as u32 });
                diff.payload += run;
            }
        }
        diff
    }

    /// The whole of `page` as one run, shared, not copied: what a page
    /// with no twin (claimed whole) ships.
    pub fn whole(page: &Arc<[u8]>) -> Diff {
        let len = page.len();
        Diff {
            runs: vec![Run { offset: 0, len: len as u32, at: 0 }],
            bytes: Some(Arc::clone(page)),
            twin: None,
            payload: len,
        }
    }

    /// A diff consisting of a single explicit run (used for fine-grain
    /// updates that are already known byte ranges), keeping its bytes.
    pub fn from_run(offset: u32, bytes: Vec<u8>) -> Diff {
        if bytes.is_empty() {
            return Diff::default();
        }
        let len = bytes.len();
        Diff {
            runs: vec![Run { offset, len: len as u32, at: 0 }],
            bytes: Some(bytes.into()),
            twin: None,
            payload: len,
        }
    }

    /// What applying the runs to `frame` makes, when the diff holds it
    /// already: its shared bytes, when they are as long as `frame` and
    /// either one run covers all of them or `frame` is the very twin the
    /// runs were taken against. Its home may take them as the page's new
    /// frame instead of applying; any other diff is applied, which is the
    /// multiple-writer merge.
    pub fn result_over(&self, frame: &Arc<[u8]>) -> Option<&Arc<[u8]>> {
        let bytes = self.bytes.as_ref().filter(|bytes| bytes.len() == frame.len())?;
        let whole = matches!(
            self.runs.as_slice(),
            [Run { offset: 0, at: 0, len }] if *len as usize == bytes.len()
        );
        let over_twin = self.twin.as_ref().is_some_and(|twin| Arc::ptr_eq(twin, frame));
        (whole || over_twin).then_some(bytes)
    }

    /// True when the runs read `bytes` itself: no copy lies between them.
    pub fn shares(&self, bytes: &Arc<[u8]>) -> bool {
        self.bytes.as_ref().is_some_and(|mine| Arc::ptr_eq(mine, bytes))
    }

    /// Apply the runs to `target` (the home's copy of the page).
    ///
    /// # Panics
    /// Panics if a run falls outside `target`.
    pub fn apply(&self, target: &mut [u8]) {
        for (offset, bytes) in self.runs() {
            let start = offset as usize;
            let end = start + bytes.len();
            assert!(end <= target.len(), "diff run out of page bounds");
            target[start..end].copy_from_slice(bytes);
        }
    }

    /// True when no words changed.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Payload bytes (what travels on the wire, excluding headers).
    pub fn payload_bytes(&self) -> usize {
        self.payload
    }

    /// Wire size estimate: payload plus one (offset,len) header per run.
    pub fn wire_bytes(&self) -> usize {
        self.payload + self.runs.len() * RUN_HEADER_BYTES
    }

    /// Iterate over the runs as `(page offset, new bytes)`, ascending.
    pub fn runs(&self) -> impl Iterator<Item = (u32, &[u8])> {
        let bytes = self.bytes.as_deref().unwrap_or_default();
        self.runs.iter().map(move |run| (run.offset, &bytes[run.at as usize..][..run.len as usize]))
    }
}

/// Two diffs are equal when they change the same runs to the same bytes,
/// whichever bytes they read them from.
impl PartialEq for Diff {
    fn eq(&self, other: &Diff) -> bool {
        self.payload == other.payload && self.runs().eq(other.runs())
    }
}

impl Eq for Diff {}

impl fmt::Debug for Diff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.runs()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: usize) -> Vec<u8> {
        vec![0u8; n]
    }

    #[test]
    fn identical_pages_have_empty_diff() {
        let twin = page(4096);
        let cur = twin.clone();
        let d = Diff::compute(&twin, &cur);
        assert!(d.is_empty());
        assert_eq!(d.payload_bytes(), 0);
    }

    #[test]
    fn single_word_change() {
        let twin = page(4096);
        let mut cur = twin.clone();
        cur[16] = 0xAB;
        let d = Diff::compute(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.payload_bytes(), WORD);
        let mut target = twin.clone();
        d.apply(&mut target);
        assert_eq!(target, cur);
    }

    #[test]
    fn adjacent_words_coalesce_into_one_run() {
        let twin = page(256);
        let mut cur = twin.clone();
        for b in cur[32..64].iter_mut() {
            *b = 0xFF;
        }
        let d = Diff::compute(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.payload_bytes(), 32);
    }

    #[test]
    fn disjoint_changes_make_separate_runs() {
        let twin = page(256);
        let mut cur = twin.clone();
        cur[0] = 1;
        cur[128] = 2;
        let d = Diff::compute(&twin, &cur);
        assert_eq!(d.run_count(), 2);
    }

    #[test]
    fn multiple_writer_merge_is_union() {
        // Two writers modify disjoint halves of the same page; applying both
        // diffs to the home yields both modifications — the multiple-writer
        // protocol in miniature.
        let home0 = page(4096);
        let mut w1 = home0.clone();
        let mut w2 = home0.clone();
        for b in w1[0..2048].iter_mut() {
            *b = 0x11;
        }
        for b in w2[2048..4096].iter_mut() {
            *b = 0x22;
        }
        let d1 = Diff::compute(&home0, &w1);
        let d2 = Diff::compute(&home0, &w2);
        let mut home = home0.clone();
        d1.apply(&mut home);
        d2.apply(&mut home);
        assert!(home[0..2048].iter().all(|&b| b == 0x11));
        assert!(home[2048..4096].iter().all(|&b| b == 0x22));
        // And merge order does not matter for disjoint diffs.
        let mut home_rev = home0.clone();
        d2.apply(&mut home_rev);
        d1.apply(&mut home_rev);
        assert_eq!(home, home_rev);
    }

    #[test]
    fn odd_sized_tail_is_diffed() {
        let twin = page(20); // 2 words + 4-byte tail
        let mut cur = twin.clone();
        cur[18] = 9;
        let d = Diff::compute(&twin, &cur);
        let mut t = twin.clone();
        d.apply(&mut t);
        assert_eq!(t, cur);
    }

    #[test]
    fn from_run_roundtrip() {
        let d = Diff::from_run(100, vec![1, 2, 3, 4]);
        assert_eq!(d.payload_bytes(), 4);
        let mut t = page(256);
        d.apply(&mut t);
        assert_eq!(&t[100..104], &[1, 2, 3, 4]);
        assert!(Diff::from_run(0, vec![]).is_empty());
    }

    #[test]
    fn a_shared_diff_reads_the_page_in_place() {
        let twin: Arc<[u8]> = page(256).into();
        let mut cur = twin.to_vec();
        cur[8] = 1;
        cur[200] = 2;
        let shared: Arc<[u8]> = cur.clone().into();
        let d = Diff::compute_shared(&twin, &shared);
        assert!(d.shares(&shared));
        assert_eq!(d, Diff::compute(&twin, &cur), "same runs, same bytes");
        assert!(!Diff::compute(&twin, &cur).shares(&shared));
        assert_eq!((d.run_count(), d.payload_bytes()), (2, 16));
        // Over its own twin the runs make the page; over equal bytes in
        // another frame they are applied.
        assert!(d.result_over(&twin).is_some_and(|bytes| Arc::ptr_eq(bytes, &shared)));
        assert!(d.result_over(&page(256).into()).is_none());
        assert!(
            Diff::compute(&twin, &cur).result_over(&twin).is_none(),
            "an owned diff has no twin"
        );
        let unchanged: Arc<[u8]> = twin.to_vec().into();
        let empty = Diff::compute_shared(&twin, &unchanged);
        assert!(empty.is_empty() && !empty.shares(&unchanged), "an empty diff holds no page");
        assert!(empty.result_over(&twin).is_none());
    }

    #[test]
    fn a_whole_page_is_one_run_over_its_bytes() {
        let frame: Arc<[u8]> = vec![7u8; 256].into();
        let d = Diff::whole(&frame);
        assert_eq!((d.run_count(), d.payload_bytes(), d.wire_bytes()), (1, 256, 264));
        // Over any frame of its length, a whole page makes itself.
        let other: Arc<[u8]> = page(256).into();
        assert!(d.result_over(&other).is_some_and(|bytes| Arc::ptr_eq(bytes, &frame)));
        assert!(d.result_over(&page(512).into()).is_none(), "but not over a longer one");
        // A page that changed everywhere diffs to the same whole page.
        let dense = Diff::compute_shared(&page(256).into(), &frame);
        assert_eq!(dense, d);
        assert!(dense.result_over(&other).is_some());
        // A run that starts past 0, or stops short of its bytes' end, is not.
        assert!(Diff::from_run(8, vec![1; 248]).result_over(&other).is_none());
        let mut short = page(256);
        short[..128].fill(7);
        let partial = Diff::compute_shared(&page(256).into(), &short.into());
        assert!(partial.result_over(&other).is_none());
    }

    #[test]
    fn wire_bytes_counts_headers() {
        let twin = page(256);
        let mut cur = twin.clone();
        cur[0] = 1;
        cur[100] = 1;
        let d = Diff::compute(&twin, &cur);
        assert_eq!(d.wire_bytes(), d.payload_bytes() + 2 * 8);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_sizes_panic() {
        let _ = Diff::compute(&page(8), &page(16));
    }

    #[test]
    #[should_panic(expected = "out of page bounds")]
    fn out_of_bounds_apply_panics() {
        let d = Diff::from_run(250, vec![0; 16]);
        let mut t = page(256);
        d.apply(&mut t);
    }
}

/// The algorithm [`Diff::compute`] replaced, kept as the differential
/// oracle: one comparison and one `extend_from_slice` per changed word, each
/// run owning its own `Vec`.
#[cfg(test)]
fn compute_word_by_word(twin: &[u8], current: &[u8]) -> Vec<(u32, Vec<u8>)> {
    let mut runs: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut at = 0;
    while at < twin.len() {
        let end = (at + WORD).min(twin.len());
        if twin[at..end] != current[at..end] {
            match runs.last_mut() {
                Some((offset, bytes)) if *offset as usize + bytes.len() == at => {
                    bytes.extend_from_slice(&current[at..end]);
                }
                _ => runs.push((at as u32, current[at..end].to_vec())),
            }
        }
        at = end;
    }
    runs
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn page_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
        // A twin plus a mutation of it at random word positions.
        (
            proptest::collection::vec(any::<u8>(), 256..=256),
            proptest::collection::vec((0usize..32, any::<u64>()), 0..16),
        )
            .prop_map(|(twin, writes)| {
                let mut cur = twin.clone();
                for (word, value) in writes {
                    cur[word * 8..word * 8 + 8].copy_from_slice(&value.to_le_bytes());
                }
                (twin, cur)
            })
    }

    proptest! {
        /// apply(compute(twin, cur)) over twin reproduces cur exactly.
        #[test]
        fn diff_roundtrip((twin, cur) in page_pair()) {
            let d = Diff::compute(&twin, &cur);
            let mut out = twin.clone();
            d.apply(&mut out);
            prop_assert_eq!(out, cur);
        }

        /// The diff never carries more than the page and is empty iff the
        /// buffers are equal; runs are sorted and non-overlapping.
        #[test]
        fn diff_is_minimal_and_well_formed((twin, cur) in page_pair()) {
            let d = Diff::compute(&twin, &cur);
            prop_assert!(d.payload_bytes() <= twin.len());
            prop_assert_eq!(d.is_empty(), twin == cur);
            let mut prev_end = 0usize;
            for (offset, bytes) in d.runs() {
                prop_assert!(offset as usize >= prev_end, "runs overlap or unsorted");
                prop_assert!(!bytes.is_empty());
                prev_end = offset as usize + bytes.len();
            }
            prop_assert!(prev_end <= twin.len());
        }

        /// Diffs from writers that touched disjoint words commute.
        #[test]
        fn disjoint_diffs_commute(
            base in proptest::collection::vec(any::<u8>(), 256..=256),
            writes_a in proptest::collection::vec((0usize..16, any::<u64>()), 0..8),
            writes_b in proptest::collection::vec((16usize..32, any::<u64>()), 0..8),
        ) {
            let mut a = base.clone();
            for (w, v) in &writes_a {
                a[w * 8..w * 8 + 8].copy_from_slice(&v.to_le_bytes());
            }
            let mut b = base.clone();
            for (w, v) in &writes_b {
                b[w * 8..w * 8 + 8].copy_from_slice(&v.to_le_bytes());
            }
            let da = Diff::compute(&base, &a);
            let db = Diff::compute(&base, &b);
            let mut ab = base.clone();
            da.apply(&mut ab);
            db.apply(&mut ab);
            let mut ba = base.clone();
            db.apply(&mut ba);
            da.apply(&mut ba);
            prop_assert_eq!(ab, ba);
        }

        /// Old algorithm vs new over sparse, dense, alternating-word and
        /// odd-length pages: same run table, same byte counts, and the
        /// diff still rebuilds `current` from `twin`.
        #[test]
        fn matches_the_word_by_word_oracle((twin, cur) in oracle_pair()) {
            let d = Diff::compute(&twin, &cur);
            let want = compute_word_by_word(&twin, &cur);
            let got: Vec<(u32, Vec<u8>)> = d.runs().map(|(o, b)| (o, b.to_vec())).collect();
            prop_assert_eq!(&got, &want);
            let payload: usize = want.iter().map(|(_, b)| b.len()).sum();
            prop_assert_eq!(d.run_count(), want.len());
            prop_assert_eq!(d.payload_bytes(), payload);
            prop_assert_eq!(d.wire_bytes(), payload + want.len() * 8);
            let mut out = twin.clone();
            d.apply(&mut out);
            prop_assert_eq!(out, cur);
            // In place over the shared page: the same runs, the page's bytes.
            let page: Arc<[u8]> = cur.as_slice().into();
            let base: Arc<[u8]> = twin.as_slice().into();
            let shared = Diff::compute_shared(&base, &page);
            prop_assert_eq!(&shared, &d);
            prop_assert_eq!(shared.wire_bytes(), d.wire_bytes());
            prop_assert_eq!(shared.shares(&page), !d.is_empty());
            // Over its twin the runs make the page itself, nothing applied.
            let made = shared.result_over(&base);
            prop_assert_eq!(made.is_some(), !d.is_empty());
            prop_assert!(made.is_none_or(|bytes| Arc::ptr_eq(bytes, &page)));
        }
    }

    /// A twin and a mutation of it in one of four shapes, at a length that
    /// is a whole number of chunks, a whole number of words, or neither
    /// (tail < 8 B).
    fn oracle_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
        (
            prop_oneof![Just(512usize), Just(4096), Just(200), Just(4093), Just(7), Just(75)],
            0u8..4,
            proptest::collection::vec((any::<u16>(), 1u8..=255), 0..24),
        )
            .prop_map(|(len, shape, picks)| {
                let twin: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
                let mut cur = twin.clone();
                match shape {
                    // Sparse: a few single bytes.
                    0 => {
                        for (at, flip) in picks {
                            cur[at as usize % len] ^= flip;
                        }
                    }
                    // Dense: every byte.
                    1 => cur.iter_mut().for_each(|b| *b ^= 0x5A),
                    // Alternating words: the worst case for run count.
                    2 => {
                        for word in cur.chunks_mut(WORD).step_by(2) {
                            word[0] ^= 0xFF;
                        }
                    }
                    // Stretches of whole words, some adjacent, some reaching the tail.
                    _ => {
                        for (at, flip) in picks {
                            let start = at as usize % len;
                            let end = (start + flip as usize).min(len);
                            cur[start..end].iter_mut().for_each(|b| *b ^= flip);
                        }
                    }
                }
                (twin, cur)
            })
    }
}
