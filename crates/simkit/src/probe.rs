//! Kernel instrumentation: a pluggable probe observing resource grants,
//! message loss, link delays, and fault transitions as they happen.
//!
//! A [`SimProbe`] is installed with
//! [`Sim::set_probe`](crate::sim::Sim::set_probe) and invoked synchronously
//! from inside the event loop, so every callback sees simulated time
//! exactly as the kernel does. Probes carry no `Send` bound: a simulation
//! cell is single-threaded by construction, and probes typically share
//! state with the node actors via `Rc`.
//!
//! All hooks default to no-ops; with no probe installed the instrumented
//! paths reduce to a single `Option` check.

use crate::fault::FaultKind;
use crate::resource::{Grant, ResourceKind};
use crate::sim::NodeId;
use crate::time::{SimDuration, SimTime};

/// Observer of kernel-level events.
pub trait SimProbe {
    /// A resource grant was issued on `node`: work became ready at `ready`,
    /// requested `service` time (post fault-plan scaling), and was scheduled
    /// as `grant`. Covers CPU and disk charges from node code as well as
    /// the NIC occupancy the network model charges for each transfer.
    fn on_grant(
        &mut self,
        _node: NodeId,
        _kind: ResourceKind,
        _ready: SimTime,
        _service: SimDuration,
        _grant: Grant,
    ) {
    }

    /// A message on `from -> to` was lost at `at` (lossy link, or a crashed
    /// endpoint at delivery time).
    fn on_drop(&mut self, _from: NodeId, _to: NodeId, _at: SimTime) {}

    /// A message on `from -> to` was delayed by `extra` beyond the normal
    /// network model by an injected link fault.
    fn on_delay(&mut self, _from: NodeId, _to: NodeId, _at: SimTime, _extra: SimDuration) {}

    /// A scheduled fault transition hit `node` at `at`.
    fn on_fault(&mut self, _node: NodeId, _kind: FaultKind, _at: SimTime) {}
}

/// Per-link fault accounting, tracked whenever a fault plan is installed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages this link lost (lossy-link coin or dead endpoint).
    pub dropped: u64,
    /// Messages this link delayed beyond the normal network model.
    pub delayed: u64,
}
