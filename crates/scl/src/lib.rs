#![warn(missing_docs)]

//! # Samhita Communication Layer (SCL) — simulated
//!
//! The paper abstracts all interconnect traffic behind the *Samhita
//! Communication Layer*, whose reference implementation drives InfiniBand
//! verbs and whose proposed Xeon Phi port would use SCIF over PCI Express.
//! Neither fabric is available here, so this crate provides the substitution
//! called out in `DESIGN.md`: a **virtual-time interconnect simulator**.
//!
//! Components of the DSM (manager, memory servers, compute threads) run as
//! tasks of one virtual-time scheduler, each owning an [`Endpoint`]. A send
//! is charged against a link cost model (`latency + per-message overhead +
//! bytes/bandwidth`) derived from the [`Topology`], the resulting *virtual*
//! delivery time is stamped on the [`Envelope`], and the envelope is filed
//! in the receiver's inbox under that time; a receiver takes a message only
//! once a scheduler grant makes it final (see [`endpoint`]). Receivers
//! advance their own virtual clocks to `max(own clock, deliver_at)`, which
//! is exactly how cost is accounted in classic LogP-style simulations.
//!
//! Shared service points (the memory servers, the manager) additionally model
//! queueing with [`resource::VirtualResource`], so hot-spotting on a single
//! memory server — the phenomenon the paper's striped allocator exists to
//! avoid — shows up in measured virtual time.
//!
//! ```
//! use samhita_scl::{Fabric, Topology, profiles, SimTime, MsgClass};
//!
//! let topo = Topology::cluster(2, profiles::ib_qdr());
//! let fabric = Fabric::<u32>::new(topo);
//! let a = fabric.add_endpoint(0.into());
//! let b = fabric.add_endpoint(1.into());
//! let deliver = a.send(b.id(), SimTime::ZERO, 4096, MsgClass::Data, 7).unwrap();
//! let env = b.recv().unwrap();
//! assert_eq!(env.msg, 7);
//! assert_eq!(env.deliver_at, deliver);
//! assert!(deliver > SimTime::ZERO);
//! ```

pub mod endpoint;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod model;
pub mod profiles;
pub mod resource;
pub mod stats;
pub mod time;
pub mod topology;

pub use endpoint::{Endpoint, Envelope};
pub use error::SclError;
pub use fabric::{Fabric, SendObserver};
pub use fault::{FaultPlan, Partition, RetryPolicy, SendFate};
pub use model::LinkModel;
pub use resource::{ResourceStats, ServiceModel, VirtualResource};
pub use stats::{FabricStats, MsgClass};
pub use time::SimTime;
pub use topology::{EndpointId, NodeId, NodeKind, Topology};
