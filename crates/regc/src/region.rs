//! Per-thread region tracking.
//!
//! RegC's defining feature: the runtime always knows whether the current
//! thread executes inside a *consistency region* (at least one mutual
//! exclusion variable held) or an *ordinary region*. The paper's LLVM pass
//! determines this statically; here the lock/unlock operations maintain it
//! dynamically, with nesting support.

/// The kind of region the thread is currently executing in.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RegionKind {
    /// No mutual-exclusion variable held: page-granularity tracking.
    Ordinary,
    /// Inside a critical section: fine-grain store tracking.
    Consistency,
}

/// Tracks consistency-region nesting for one thread.
#[derive(Clone, Debug, Default)]
pub struct RegionState {
    depth: u32,
    entries: u64,
    max_depth: u32,
}

impl RegionState {
    /// A fresh thread state (ordinary region).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current region kind.
    #[inline]
    pub fn kind(&self) -> RegionKind {
        if self.depth > 0 {
            RegionKind::Consistency
        } else {
            RegionKind::Ordinary
        }
    }

    /// True while inside a consistency region.
    #[inline]
    pub fn in_consistency_region(&self) -> bool {
        self.depth > 0
    }

    /// Enter a consistency region (lock acquired). Nesting is allowed; only
    /// the outermost exit returns the thread to an ordinary region.
    pub fn enter(&mut self) {
        self.depth += 1;
        self.entries += 1;
        self.max_depth = self.max_depth.max(self.depth);
    }

    /// Exit a consistency region (lock released). Returns `true` when this
    /// was the outermost exit — the moment the fine-grain write set must be
    /// flushed.
    ///
    /// # Panics
    /// Panics on exit without a matching enter (an unlock of an unheld
    /// lock, which the manager would also reject).
    pub fn exit(&mut self) -> bool {
        assert!(self.depth > 0, "consistency-region exit without enter");
        self.depth -= 1;
        self.depth == 0
    }

    /// Current nesting depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of region entries over the thread's lifetime (statistics).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Deepest nesting observed (statistics).
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_ordinary() {
        let r = RegionState::new();
        assert_eq!(r.kind(), RegionKind::Ordinary);
        assert!(!r.in_consistency_region());
        assert_eq!(r.depth(), 0);
    }

    #[test]
    fn enter_exit_cycle() {
        let mut r = RegionState::new();
        r.enter();
        assert_eq!(r.kind(), RegionKind::Consistency);
        assert!(r.exit());
        assert_eq!(r.kind(), RegionKind::Ordinary);
    }

    #[test]
    fn nesting_only_outermost_exit_flushes() {
        let mut r = RegionState::new();
        r.enter();
        r.enter();
        assert_eq!(r.depth(), 2);
        assert!(!r.exit(), "inner exit must not flush");
        assert_eq!(r.kind(), RegionKind::Consistency);
        assert!(r.exit(), "outermost exit flushes");
        assert_eq!(r.max_depth(), 2);
        assert_eq!(r.entries(), 2);
    }

    #[test]
    #[should_panic(expected = "exit without enter")]
    fn unbalanced_exit_panics() {
        RegionState::new().exit();
    }
}
