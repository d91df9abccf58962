//! # jl-runtime — the pluggable time/transport plane
//!
//! The engine's actors (compute nodes, data nodes, the controller) never
//! talk to a clock, a network, or a timer wheel directly: everything goes
//! through a per-callback context handle. This crate names that surface as
//! a trait, [`RuntimeCtx`], names the actor side as [`RuntimeNode`], and
//! hosts any such actor on the simulation kernel through one adapter,
//! [`Hosted`]. There is **one kernel and two clocks**:
//!
//! * **Simulated** — a [`Sim`](jl_simkit::sim::Sim)`<Hosted<N>>` run by its
//!   own event loop. [`jl_simkit::sim::Ctx`] implements
//!   [`RuntimeCtx`] and [`Hosted`] implements
//!   [`Node`], both by `#[inline]` delegation: the
//!   adapter adds no state, no allocation, and no branches, so a hosted
//!   actor is byte-identical to one written against the kernel directly
//!   (the determinism digests and golden decision traces pin this).
//! * **Real** — [`real::RealRuntime`] paces *that same kernel* against the
//!   wall clock: one OS thread owns it and a monotonic clock
//!   ([`std::time::Instant`]) anchored at run start, dispatching each event
//!   once the wall clock reaches it, while any number of driver threads
//!   inject messages through a channel ([`real::RealHandle`]). Time is
//!   still integer nanoseconds ([`SimTime`] = nanos since the anchor), so
//!   every piece of time math in the engine is backend-agnostic by
//!   construction.
//!
//! Dispatch is static: actors are generic over `C: RuntimeCtx<M>`, the node
//! set is a single concrete enum behind [`RuntimeNode`], and nothing boxes
//! per-event state. The hot path of a simulated run is exactly the seed's
//! hot path.
//!
//! What differs between the two clocks — and only this:
//!
//! | | simulated (the kernel's own loops) | real ([`real::RealRuntime`]) |
//! |---|---|---|
//! | `now()` | event timestamp | nanos since run start (monotonic), ≥ the event timestamp |
//! | an event runs | as soon as it is the earliest | once the wall clock passes its timestamp |
//! | external input | [`post`](jl_simkit::sim::Sim::post) before the run | also [`RealHandle::send`] from any thread, entering at dequeue time |
//! | timers | exact | fire when the wall clock passes `at` |
//!
//! Everything else — `(time, seq)` delivery order of *modeled* times, the
//! analytic FIFO stations, [`FaultPlan`](jl_simkit::fault::FaultPlan)
//! semantics and its drop coin, per-node seeded RNG streams, the
//! [`SimProbe`](jl_simkit::probe::SimProbe) — is the kernel's, because it
//! is the kernel.

#![warn(missing_docs)]

use std::ops::{Deref, DerefMut};

use rand::rngs::StdRng;

use jl_simkit::fault::FaultKind;
use jl_simkit::resource::{Grant, NodeResources, ResourceKind};
use jl_simkit::sim::{Ctx, Node, NodeId};
use jl_simkit::time::{SimDuration, SimTime};

pub mod real;

pub use real::{RealHandle, RealRuntime};

/// The surface through which an actor interacts with its runtime while one
/// of its callbacks is executing: clock, transport, resources, timers,
/// seeded randomness, and run control.
///
/// This mirrors [`jl_simkit::sim::Ctx`] method-for-method — the sim
/// implementation is pure delegation — so porting an actor to the trait
/// cannot change its simulated behavior.
pub trait RuntimeCtx<M> {
    /// Current time: simulated, or nanoseconds since run start.
    fn now(&self) -> SimTime;

    /// The node this callback belongs to.
    fn self_id(&self) -> NodeId;

    /// Send `msg` of `bytes` payload to `to`, leaving now. Returns the
    /// (modeled) delivery time.
    fn send(&mut self, to: NodeId, msg: M, bytes: u64) -> SimTime {
        self.send_ready_at(self.now(), to, msg, bytes)
    }

    /// Send `msg`, the payload becoming available at `ready` (e.g. after a
    /// CPU or disk completion). Returns the (modeled) delivery time.
    fn send_ready_at(&mut self, ready: SimTime, to: NodeId, msg: M, bytes: u64) -> SimTime;

    /// Charge `service` time on one of this node's resources, becoming
    /// ready at `ready`. Returns when the work starts and completes.
    fn use_resource(&mut self, kind: ResourceKind, ready: SimTime, service: SimDuration) -> Grant;

    /// Charge CPU time starting no earlier than now.
    fn use_cpu(&mut self, service: SimDuration) -> Grant {
        self.use_resource(ResourceKind::Cpu, self.now(), service)
    }

    /// Charge disk time starting no earlier than now.
    fn use_disk(&mut self, service: SimDuration) -> Grant {
        self.use_resource(ResourceKind::Disk, self.now(), service)
    }

    /// Read-only view of this node's resources (load introspection).
    fn resources(&self) -> &NodeResources;

    /// Arrange for the timer callback to fire with `tag` at absolute time
    /// `at` (clamped to now if in the past).
    fn set_timer(&mut self, at: SimTime, tag: u64);

    /// Arrange for the timer callback to fire after `delay`.
    fn set_timer_after(&mut self, delay: SimDuration, tag: u64) {
        let at = self.now() + delay;
        self.set_timer(at, tag);
    }

    /// This node's deterministic random stream.
    fn rng(&mut self) -> &mut StdRng;

    /// Request that the run stop after the current callback returns.
    fn stop(&mut self);
}

impl<'a, M> RuntimeCtx<M> for Ctx<'a, M> {
    #[inline]
    fn now(&self) -> SimTime {
        Ctx::now(self)
    }

    #[inline]
    fn self_id(&self) -> NodeId {
        Ctx::self_id(self)
    }

    #[inline]
    fn send_ready_at(&mut self, ready: SimTime, to: NodeId, msg: M, bytes: u64) -> SimTime {
        Ctx::send_ready_at(self, ready, to, msg, bytes)
    }

    #[inline]
    fn use_resource(&mut self, kind: ResourceKind, ready: SimTime, service: SimDuration) -> Grant {
        Ctx::use_resource(self, kind, ready, service)
    }

    #[inline]
    fn resources(&self) -> &NodeResources {
        Ctx::resources(self)
    }

    #[inline]
    fn set_timer(&mut self, at: SimTime, tag: u64) {
        Ctx::set_timer(self, at, tag)
    }

    #[inline]
    fn rng(&mut self) -> &mut StdRng {
        Ctx::rng(self)
    }

    #[inline]
    fn stop(&mut self) {
        Ctx::stop(self)
    }
}

/// Behaviour of a node, written once against [`RuntimeCtx`].
///
/// The engine implements this once per node type; the handlers are generic
/// over the context (static dispatch — there is no `Box<dyn>` per event)
/// and reach the kernel through [`Hosted`].
pub trait RuntimeNode {
    /// Message type exchanged between nodes.
    type Msg;

    /// Called once when the run starts.
    fn handle_start<C: RuntimeCtx<Self::Msg>>(&mut self, _ctx: &mut C) {}

    /// Called when a message addressed to this node is delivered.
    fn handle_message<C: RuntimeCtx<Self::Msg>>(
        &mut self,
        from: NodeId,
        msg: Self::Msg,
        ctx: &mut C,
    );

    /// Called when a timer set via [`RuntimeCtx::set_timer`] fires.
    fn handle_timer<C: RuntimeCtx<Self::Msg>>(&mut self, _tag: u64, _ctx: &mut C) {}

    /// Called when a scheduled fault transition hits this node.
    fn handle_fault<C: RuntimeCtx<Self::Msg>>(&mut self, _kind: FaultKind, _ctx: &mut C) {}
}

/// The one adapter between the two traits: hosts a [`RuntimeNode`] on the
/// simulation kernel. Transparent — it derefs to the node, and every
/// [`Node`] callback is an `#[inline]` call of the matching handler with
/// the kernel's own [`Ctx`] — so every backend runs the *same type*,
/// `Sim<Hosted<N>>`.
#[repr(transparent)]
pub struct Hosted<N>(pub N);

impl<N> Deref for Hosted<N> {
    type Target = N;
    #[inline]
    fn deref(&self) -> &N {
        &self.0
    }
}

impl<N> DerefMut for Hosted<N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut N {
        &mut self.0
    }
}

impl<N: RuntimeNode> Node for Hosted<N> {
    type Msg = N::Msg;

    #[inline]
    fn on_start(&mut self, ctx: &mut Ctx<'_, N::Msg>) {
        self.0.handle_start(ctx);
    }

    #[inline]
    fn on_message(&mut self, from: NodeId, msg: N::Msg, ctx: &mut Ctx<'_, N::Msg>) {
        self.0.handle_message(from, msg, ctx);
    }

    #[inline]
    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, N::Msg>) {
        self.0.handle_timer(tag, ctx);
    }

    #[inline]
    fn on_fault(&mut self, kind: FaultKind, ctx: &mut Ctx<'_, N::Msg>) {
        self.0.handle_fault(kind, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jl_simkit::sim::{NetConfig, NodeSpec, Sim};

    /// A node written purely against the trait, hosted on the kernel
    /// through [`Hosted`] — the exact pattern the engine uses.
    struct Echo {
        peer: NodeId,
        got: Vec<u64>,
        start: bool,
    }

    impl RuntimeNode for Echo {
        type Msg = u64;
        fn handle_start<C: RuntimeCtx<u64>>(&mut self, ctx: &mut C) {
            if self.start {
                let done = ctx.use_cpu(SimDuration::from_millis(1)).done;
                ctx.send_ready_at(done, self.peer, 3, 100);
            }
        }
        fn handle_message<C: RuntimeCtx<u64>>(&mut self, _from: NodeId, msg: u64, ctx: &mut C) {
            self.got.push(msg);
            if msg > 0 {
                ctx.send(self.peer, msg - 1, 100);
            }
        }
    }

    fn echo_pair(start: bool) -> (Echo, Echo) {
        (
            Echo {
                peer: 1,
                got: vec![],
                start,
            },
            Echo {
                peer: 0,
                got: vec![],
                start: false,
            },
        )
    }

    #[test]
    fn trait_hosted_node_runs_on_sim() {
        let (a, b) = echo_pair(true);
        let mut sim: Sim<Hosted<Echo>> = Sim::new(1, NetConfig::default());
        sim.add_node(Hosted(a), NodeSpec::default());
        sim.add_node(Hosted(b), NodeSpec::default());
        sim.run();
        assert_eq!(sim.node(1).got, vec![3, 1]);
        assert_eq!(sim.node(0).got, vec![2, 0]);
    }

    #[test]
    fn same_node_runs_on_real_backend() {
        let (a, b) = echo_pair(true);
        let mut rt: RealRuntime<Echo> = RealRuntime::new(1, NetConfig::default());
        rt.add_node(a, NodeSpec::default());
        rt.add_node(b, NodeSpec::default());
        rt.run();
        assert_eq!(rt.node(1).got, vec![3, 1]);
        assert_eq!(rt.node(0).got, vec![2, 0]);
    }
}
