//! The per-page RegC state machine, as pure transition functions.
//!
//! The software cache in `samhita-core` drives real pages through exactly
//! these transitions; keeping the rules here, free of I/O, lets us test the
//! protocol exhaustively and document the subtle cases:
//!
//! * An **ordinary write** to a clean page must create a twin before the
//!   store lands (so the sync-time diff captures exactly the local
//!   modifications).
//! * A **consistency write** is logged in the fine-grain write set and also
//!   applied to the twin *if one exists*: otherwise a later ordinary diff of
//!   the same page would re-send (and possibly resurrect stale values of)
//!   bytes that were already flushed at lock release — the double-propagation
//!   hazard described in `DESIGN.md §7`.
//! * A **flush** (sync operation) diffs dirty pages against their twins,
//!   drops the twins, and leaves the local copy valid-clean.
//! * An **invalidation** (write notice from another thread) marks the page
//!   invalid; the next access demand-fetches the merged copy from home.

use crate::region::RegionKind;

/// Cache-resident page states.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PageState {
    /// Not resident (or invalidated): an access must fetch from home.
    Invalid,
    /// Resident and identical to the home copy as of the fetch.
    Clean,
    /// Resident with local ordinary-region modifications (twin exists).
    Dirty,
}

/// What the cache must do to honor a write, as decided by the protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteEffect {
    /// Create a twin (pristine copy) before applying the store.
    pub make_twin: bool,
    /// Record the store in the fine-grain write set.
    pub log_fine_grain: bool,
    /// Mirror the store into the existing twin (consistency-region store to
    /// an already-dirty page; see module docs).
    pub write_through_twin: bool,
    /// State after the write.
    pub next: PageState,
}

/// Decide the effect of a store to a page in state `state` while the thread
/// executes in region `region`. The page must be resident (`Clean` or
/// `Dirty`) — the cache fetches before writing.
///
/// # Panics
/// Panics on a write to an `Invalid` page: the fault handler must run first.
pub fn on_write(state: PageState, region: RegionKind) -> WriteEffect {
    match (state, region) {
        (PageState::Invalid, _) => {
            panic!("write to non-resident page: fault handler must run first")
        }
        (PageState::Clean, RegionKind::Ordinary) => WriteEffect {
            make_twin: true,
            log_fine_grain: false,
            write_through_twin: false,
            next: PageState::Dirty,
        },
        (PageState::Dirty, RegionKind::Ordinary) => WriteEffect {
            make_twin: false,
            log_fine_grain: false,
            write_through_twin: false,
            next: PageState::Dirty,
        },
        (PageState::Clean, RegionKind::Consistency) => WriteEffect {
            // No twin: the write set alone carries the update. The page
            // stays Clean from the ordinary protocol's point of view.
            make_twin: false,
            log_fine_grain: true,
            write_through_twin: false,
            next: PageState::Clean,
        },
        (PageState::Dirty, RegionKind::Consistency) => WriteEffect {
            make_twin: false,
            log_fine_grain: true,
            write_through_twin: true,
            next: PageState::Dirty,
        },
    }
}

/// State after a flush of this page at a synchronization operation. Only
/// dirty pages ship diffs; every resident page stays resident and clean.
pub fn after_flush(state: PageState) -> PageState {
    match state {
        PageState::Invalid => PageState::Invalid,
        PageState::Clean | PageState::Dirty => PageState::Clean,
    }
}

/// State after receiving a write notice from another thread for this page.
///
/// A `Dirty` page receiving a remote notice means concurrent writers shared
/// the page (false sharing): our diff was (or will be) flushed by the same
/// sync operation that delivered the notice, and we must refetch the merged
/// copy before the next access. The caller is responsible for flushing dirty
/// pages *before* applying notices — [`on_invalidate`] panics otherwise.
///
/// # Panics
/// Panics if the page is still `Dirty` (unflushed local writes would be
/// lost).
pub fn on_invalidate(state: PageState) -> PageState {
    match state {
        PageState::Dirty => panic!("invalidation of an unflushed dirty page loses writes"),
        PageState::Invalid | PageState::Clean => PageState::Invalid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordinary_write_to_clean_page_twins() {
        let e = on_write(PageState::Clean, RegionKind::Ordinary);
        assert!(e.make_twin);
        assert!(!e.log_fine_grain);
        assert_eq!(e.next, PageState::Dirty);
    }

    #[test]
    fn ordinary_write_to_dirty_page_reuses_twin() {
        let e = on_write(PageState::Dirty, RegionKind::Ordinary);
        assert!(!e.make_twin);
        assert_eq!(e.next, PageState::Dirty);
    }

    #[test]
    fn consistency_write_to_clean_page_only_logs() {
        let e = on_write(PageState::Clean, RegionKind::Consistency);
        assert!(!e.make_twin);
        assert!(e.log_fine_grain);
        assert!(!e.write_through_twin);
        assert_eq!(
            e.next,
            PageState::Clean,
            "page must not become dirty: the write set carries the update"
        );
    }

    #[test]
    fn consistency_write_to_dirty_page_writes_through_twin() {
        // The double-propagation hazard: without write-through, the later
        // ordinary diff (current vs twin) would include the consistency
        // store a second time.
        let e = on_write(PageState::Dirty, RegionKind::Consistency);
        assert!(e.log_fine_grain);
        assert!(e.write_through_twin);
        assert_eq!(e.next, PageState::Dirty);
    }

    #[test]
    #[should_panic(expected = "fault handler")]
    fn write_to_invalid_page_panics() {
        on_write(PageState::Invalid, RegionKind::Ordinary);
    }

    #[test]
    fn flush_cleans_resident_pages() {
        assert_eq!(after_flush(PageState::Dirty), PageState::Clean);
        assert_eq!(after_flush(PageState::Clean), PageState::Clean);
        assert_eq!(after_flush(PageState::Invalid), PageState::Invalid);
    }

    #[test]
    fn invalidate_clean_and_invalid() {
        assert_eq!(on_invalidate(PageState::Clean), PageState::Invalid);
        assert_eq!(on_invalidate(PageState::Invalid), PageState::Invalid);
    }

    #[test]
    #[should_panic(expected = "loses writes")]
    fn invalidate_dirty_panics() {
        on_invalidate(PageState::Dirty);
    }

    /// End-to-end check of the double-propagation rule using real byte
    /// buffers: ordinary + consistency writes to one page, flushed in the
    /// paper's order (fine-grain at release, diff at barrier), must leave the
    /// home holding exactly the final values — and the barrier diff must not
    /// contain the consistency-region bytes.
    #[test]
    fn mixed_region_writes_do_not_double_propagate() {
        use crate::diff::Diff;
        use crate::writeset::WriteSet;

        let page_size = 256usize;
        let mut home = vec![0u8; page_size];
        let mut local = home.clone();
        let mut ws = WriteSet::new();

        // Ordinary write: word 0 := 1.
        let e = on_write(PageState::Clean, RegionKind::Ordinary);
        assert!(e.make_twin);
        let mut twin: Option<Vec<u8>> = Some(local.clone());
        local[0] = 1;

        // Consistency write (lock held): word 8 := 2, on the now-dirty page.
        let e = on_write(PageState::Dirty, RegionKind::Consistency);
        assert!(e.log_fine_grain && e.write_through_twin);
        local[8] = 2;
        ws.record(8, &[2]);
        if let Some(t) = twin.as_mut() {
            t[8] = 2;
        }

        // Release: flush fine grain.
        for (_, off, bytes) in ws.drain_per_page(page_size as u64) {
            home[off as usize..off as usize + bytes.len()].copy_from_slice(&bytes);
        }
        // Meanwhile another thread updates word 8 := 9 under the same lock
        // (it acquired after our release; its fine-grain flush lands later).
        home[8] = 9;

        // Barrier: flush the ordinary diff.
        let diff = Diff::compute(twin.as_ref().unwrap(), &local);
        diff.apply(&mut home);

        assert_eq!(home[0], 1, "ordinary write propagated");
        assert_eq!(home[8], 9, "diff must not clobber the later lock-protected update");
    }
}
