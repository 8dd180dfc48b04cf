#![warn(missing_docs)]

//! # Samhita: a virtual shared memory runtime (simulated reproduction)
//!
//! This crate is the paper's primary contribution: a software
//! distributed-shared-memory system that provides a consistent shared global
//! address space to compute threads running on components without hardware
//! cache coherence, built from:
//!
//! * **memory servers** that own the backing store (`samhita-mem`),
//! * a **manager** responsible for allocation, synchronization and thread
//!   placement ([`manager`]),
//! * **compute threads**, each with a local software cache filled by demand
//!   paging with multi-page cache lines, adjacent-line prefetching, and
//!   write-biased eviction ([`cache`], [`thread`]),
//! * the **regional consistency** model (`samhita-regc`): fine-grain updates
//!   for lock-protected stores, page-granularity twin/diff updates for
//!   ordinary stores, write-notice invalidations at synchronization
//!   operations,
//! * a **three-strategy allocator**: per-thread arenas, a manager-mediated
//!   shared zone, and server-striped large allocations ([`freelist`],
//!   [`layout`], [`thread::ThreadCtx::alloc`]),
//! * all over the simulated **Samhita Communication Layer** (`samhita-scl`).
//!
//! ## Quick start
//!
//! ```
//! use samhita_core::{Samhita, SamhitaConfig};
//!
//! let system = Samhita::new(SamhitaConfig::small_for_tests());
//! let counter = system.alloc_global(8);
//! let lock = system.create_mutex();
//! let barrier = system.create_barrier(4);
//!
//! let report = system.run(4, |ctx| {
//!     // Lock-protected read-modify-write: a consistency region, flushed
//!     // at fine grain on unlock.
//!     ctx.lock(lock);
//!     let v = ctx.read_u64(counter);
//!     ctx.write_u64(counter, v + 1);
//!     ctx.unlock(lock);
//!     ctx.barrier(barrier);
//!     // After the barrier every thread observes all four increments.
//!     assert_eq!(ctx.read_u64(counter), 4);
//! });
//! assert_eq!(report.threads.len(), 4);
//! let mut back = [0u8; 8];
//! system.read_global(counter, &mut back);
//! assert_eq!(u64::from_le_bytes(back), 4);
//! ```

pub mod cache;
pub mod config;
pub mod freelist;
pub mod layout;
pub mod manager;
pub mod msg;
pub mod proto;
pub mod stats;
pub mod system;
pub mod thread;

pub use config::{
    ConfigError, ConsistencyVariant, CostParams, EvictionPolicy, FabricProfile, FaultConfig,
    PartitionSpec, RetryConfig, SamhitaConfig, TopologyKind,
};
pub use layout::{AddressLayout, Placement, Region};
pub use msg::MgrError;
pub use stats::{HostNanos, RunReport, ThreadStats, TimeBreakdown};
pub use system::Samhita;
pub use thread::ThreadCtx;
