//! # jl-simkit — deterministic discrete-event simulation kernel
//!
//! The substrate for the join-location experiments: a cluster of nodes, each
//! with CPU cores, a disk, and a duplex NIC modelled as FIFO multi-server
//! queues, exchanging sized messages over a latency/bandwidth network model.
//!
//! Design points:
//!
//! * **Analytic resources** — FIFO, non-preemptive stations return completion
//!   times at submission ([`resource::FifoResource`]), so nodes charge costs
//!   synchronously and schedule follow-up events at the returned instants.
//! * **Static dispatch** — [`sim::Sim`] is generic over one concrete node
//!   type (usually an enum of roles); after a run node state is fully typed.
//! * **Determinism** — integer nanosecond time, seq-number tie-breaking, and
//!   per-node RNG streams derived from a single root seed ([`rng`]).
//!
//! ```
//! use jl_simkit::prelude::*;
//!
//! struct Echo;
//! impl Node for Echo {
//!     type Msg = u32;
//!     fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Ctx<'_, u32>) {
//!         if from != EXTERNAL { return; }
//!         let done = ctx.use_cpu(SimDuration::from_millis(u64::from(msg))).done;
//!         ctx.send_ready_at(done, ctx.self_id(), 0, 0);
//!     }
//! }
//!
//! let mut sim: Sim<Echo> = Sim::new(42, NetConfig::default());
//! let n = sim.add_node(Echo, NodeSpec::default());
//! sim.post(SimTime::ZERO, n, 5, 100);
//! let end = sim.run();
//! assert!(end >= SimTime::ZERO + SimDuration::from_millis(5));
//! ```

#![warn(missing_docs)]

pub mod fault;
pub mod probe;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;

/// Convenient glob import of the common kernel types.
pub mod prelude {
    pub use crate::fault::{Crash, FaultKind, FaultPlan, LinkFault, Straggler};
    pub use crate::probe::{LinkStats, SimProbe};
    pub use crate::resource::{FifoResource, Grant, NodeResources, ResourceKind};
    pub use crate::sim::{Ctx, NetConfig, Node, NodeId, NodeSpec, Sim, EXTERNAL};
    pub use crate::stats::{DurationHistogram, Moments, TimeWeightedGauge};
    pub use crate::time::{SimDuration, SimTime};
}
