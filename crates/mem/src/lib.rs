#![warn(missing_docs)]

//! # Memory servers
//!
//! Samhita separates *serving* memory from *consuming* it: memory servers
//! own the backing store of the shared global address space, while compute
//! threads only cache it. This crate provides the server side:
//!
//! * [`store::PageStore`] — a versioned page store whose frames are fetched
//!   by reference and copied on write;
//! * [`server::MemoryServer`] — the pure request-processing engine
//!   (fetch line / fetch page / apply diff / apply fine-grain), with a
//!   virtual-time service model so that request bursts queue and hot-spots
//!   are observable;
//! * [`stripe::HomeMap`] — the page→server home mapping, striped at cache
//!   line granularity so that large allocations spread across servers (the
//!   paper's third allocation strategy exists to exploit exactly this).
//!
//! The event loop that binds a `MemoryServer` to an SCL endpoint lives in
//! `samhita-core`; keeping the engine transport-free makes it directly
//! testable.

pub mod page;
pub mod server;
pub mod store;
pub mod stripe;

pub use page::{PageId, DEFAULT_PAGE_SIZE};
pub use samhita_scl::ServiceModel;
pub use server::{MemRequest, MemResponse, MemoryServer};
pub use store::{PageFrame, PageStore};
pub use stripe::HomeMap;
