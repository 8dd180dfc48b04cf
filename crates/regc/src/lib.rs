#![warn(missing_docs)]

//! # Regional consistency (RegC) machinery
//!
//! The paper's memory model divides an application's accesses into
//! **consistency regions** (code executed while holding a mutual-exclusion
//! variable) and **ordinary regions** (everything else), and lets the
//! implementation propagate the two kinds of modification differently:
//!
//! * ordinary-region stores are handled at **page granularity** — the first
//!   store to a clean page makes a *twin* (pristine copy); at the next
//!   synchronization operation the page is compared against its twin and the
//!   resulting [`Diff`] is shipped to the page's home;
//! * consistency-region stores are tracked at **fine (data-object)
//!   granularity** in a [`WriteSet`] — the paper instruments every store in a
//!   consistency region with an LLVM pass; in this reproduction the runtime's
//!   store API plays the role of that instrumentation — and flushed as small
//!   object-level updates at lock release.
//!
//! Multiple concurrent writers to one page are supported (the
//! multiple-writer protocol): each writer's diff covers only the words *it*
//! changed, and the home merges them.
//!
//! Invalidations are driven by **write notices** ([`interval`]): every flush
//! publishes `(interval seq, writer, pages)` records through the manager, and
//! at each acquire/barrier a thread receives what the records it has not yet
//! seen amount to — one merged, run-encoded [`NoticeSet`] — and invalidates
//! the named pages it caches (its own flushes are not among them). Each
//! record also carries its writer's update-batch [`Marks`], so a reader can
//! name to a home the batches it must have applied before it answers.
//!
//! The [`protocol`] module captures the per-page state machine these rules
//! induce, in a pure, exhaustively-testable form.

pub mod batch;
pub mod diff;
pub mod interval;
pub mod protocol;
pub mod region;
pub mod writeset;

pub use batch::{UpdateBatch, UpdatePart};
pub use diff::Diff;
pub use interval::{
    FineUpdate, Interval, IntervalLog, Marks, NoticeSet, PageRun, Runs, Seers, WriteNotice,
};
pub use protocol::{PageState, WriteEffect};
pub use region::{RegionKind, RegionState};
pub use writeset::WriteSet;
