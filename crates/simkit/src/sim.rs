//! The discrete-event simulation kernel.
//!
//! A simulation is a set of nodes exchanging messages. Nodes are a single
//! concrete type `N: Node` (typically an enum over the roles in the cluster),
//! so dispatch is static and node state is fully typed when the run finishes.
//!
//! Time advances only through the event queue — a calendar/bucket queue
//! ([`crate::queue::CalendarQueue`]) with exact `(time, seq)` ordering, so
//! the schedule is byte-identical to the binary heap it replaced. The run
//! loop drains all events sharing a timestamp in one pass (batch dispatch).
//! Resource usage (CPU, disk, NIC) is charged through [`Ctx`], which returns
//! analytic completion times from
//! [`FifoResource`](crate::resource::FifoResource)s; nodes then schedule
//! messages or timers at those instants.

use std::collections::BTreeMap;

use rand::rngs::StdRng;

use crate::fault::{FaultKind, FaultPlan};
use crate::probe::{LinkStats, SimProbe};
use crate::queue::CalendarQueue;
use crate::resource::{Grant, NodeResources, ResourceKind};
use crate::rng::indexed_rng;
use crate::time::{SimDuration, SimTime};

/// Identifies a node within a simulation.
pub type NodeId = usize;

/// Pseudo-sender for messages injected from outside the simulation
/// (workload sources, drivers).
pub const EXTERNAL: NodeId = usize::MAX;

/// Behaviour of a simulated node.
pub trait Node {
    /// Message type exchanged in this simulation.
    type Msg;

    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Called when a message addressed to this node is delivered.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Called when a scheduled fault transition hits this node: `Crash`
    /// means the process just died (volatile state should be treated as
    /// lost), `Restart` means it came back with fresh resources. The
    /// default ignores faults, which is correct for nodes whose plan never
    /// touches them.
    fn on_fault(&mut self, _kind: FaultKind, _ctx: &mut Ctx<'_, Self::Msg>) {}
}

/// Hardware description of a node.
#[derive(Debug, Clone, Copy)]
pub struct NodeSpec {
    /// Number of CPU cores.
    pub cores: usize,
    /// Number of concurrent disk channels (1 models a spinning disk,
    /// larger values approximate an SSD's internal parallelism).
    pub disk_channels: usize,
    /// Effective NIC bandwidth in bytes per second, per direction.
    pub net_bw_bps: f64,
}

impl Default for NodeSpec {
    fn default() -> Self {
        // Mirrors the paper's testbed: two quad-core Xeons, GbE.
        NodeSpec {
            cores: 8,
            disk_channels: 1,
            net_bw_bps: 125_000_000.0, // 1 Gbit/s
        }
    }
}

/// Network-wide parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// One-way propagation + protocol latency per message: no cross-node
    /// message is delivered sooner than `latency` after it is sent.
    pub latency: SimDuration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency: SimDuration::from_micros(200),
        }
    }
}

enum EventKind<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    /// An external message entering the network at its scheduled time: the
    /// receiver's inbound NIC is charged when this pops, not when the
    /// message was posted — so a feed posted far in advance cannot reserve
    /// the NIC ahead of traffic generated during the run.
    Inject {
        to: NodeId,
        msg: M,
        bytes: u64,
    },
    Timer {
        node: NodeId,
        tag: u64,
    },
    Fault {
        node: NodeId,
        kind: FaultKind,
    },
}

/// Aggregate transfer accounting for a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetTotals {
    /// Messages delivered (including self-sends and external injections).
    pub messages: u64,
    /// Total payload bytes that crossed the network (self-sends excluded).
    pub bytes: u64,
    /// Messages lost to injected faults: lossy links, or a crashed sender
    /// or receiver at delivery time.
    pub dropped: u64,
    /// Messages delayed beyond the normal network model by an injected
    /// link fault.
    pub delayed: u64,
}

/// Everything in the simulation except the nodes themselves; nodes interact
/// with it through [`Ctx`].
struct SimInner<M> {
    time: SimTime,
    seq: u64,
    queue: CalendarQueue<EventKind<M>>,
    resources: Vec<NodeResources>,
    rngs: Vec<StdRng>,
    net: NetConfig,
    totals: NetTotals,
    events_processed: u64,
    stopped: bool,
    faults: Option<FaultPlan>,
    /// Monotone per-send counter feeding the fault plan's deterministic
    /// link-drop coin. Advances once per cross-node send while a plan is
    /// installed, so the coin sequence depends only on the (deterministic)
    /// event order, never on host parallelism.
    fault_sends: u64,
    /// Per-link drop/delay accounting; populated only at fault-plan sites,
    /// so healthy runs never touch it.
    links: BTreeMap<(NodeId, NodeId), LinkStats>,
    probe: Option<Box<dyn SimProbe>>,
}

impl<M> SimInner<M> {
    fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        let time = time.max(self.time);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(time, seq, kind);
    }

    fn transfer(&mut self, ready: SimTime, from: NodeId, to: NodeId, bytes: u64) -> SimTime {
        if from == to {
            // Local hand-off: no NIC, no latency.
            return ready;
        }
        let out_done = if from == EXTERNAL {
            ready
        } else {
            let mut wire = self.resources[from].wire_time(bytes);
            if let Some(plan) = &self.faults {
                wire = plan.scale_service(from, self.time, wire);
            }
            let grant = self.resources[from].nic_out.submit(ready, wire);
            if let Some(probe) = &mut self.probe {
                probe.on_grant(from, ResourceKind::NicOut, ready, wire, grant);
            }
            grant.done
        };
        let mut arrive = out_done + self.net.latency;
        let mut wire_in = self.resources[to].wire_time(bytes);
        if let Some(plan) = &self.faults {
            let extra = plan.link_delay(from, to, self.time);
            if extra > SimDuration::ZERO {
                self.totals.delayed += 1;
                self.links.entry((from, to)).or_default().delayed += 1;
                if let Some(probe) = &mut self.probe {
                    probe.on_delay(from, to, self.time, extra);
                }
            }
            arrive += extra;
            wire_in = plan.scale_service(to, self.time, wire_in);
        }
        let grant = self.resources[to].nic_in.submit(arrive, wire_in);
        if let Some(probe) = &mut self.probe {
            probe.on_grant(to, ResourceKind::NicIn, arrive, wire_in, grant);
        }
        self.totals.bytes += bytes;
        grant.done
    }

    /// Route one message through the network model and enqueue its
    /// delivery. With a fault plan installed, a lossy link may eat the
    /// message *after* it occupied the wire (loss is charged like a sent
    /// packet); the returned instant is when it would have arrived.
    fn send_message(
        &mut self,
        ready: SimTime,
        from: NodeId,
        to: NodeId,
        msg: M,
        bytes: u64,
    ) -> SimTime {
        let delivered = self.transfer(ready, from, to, bytes);
        if from != to {
            if let Some(plan) = &self.faults {
                let counter = self.fault_sends;
                self.fault_sends += 1;
                if plan.drops_message(from, to, self.time, counter) {
                    self.totals.dropped += 1;
                    self.links.entry((from, to)).or_default().dropped += 1;
                    if let Some(probe) = &mut self.probe {
                        probe.on_drop(from, to, self.time);
                    }
                    return delivered;
                }
            }
        }
        self.push(delivered, EventKind::Deliver { from, to, msg });
        delivered
    }
}

/// Handle through which a node interacts with the simulation while one of
/// its callbacks is running.
pub struct Ctx<'a, M> {
    inner: &'a mut SimInner<M>,
    self_id: NodeId,
}

impl<'a, M> Ctx<'a, M> {
    fn new(inner: &'a mut SimInner<M>, self_id: NodeId) -> Self {
        Ctx { inner, self_id }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.inner.time
    }

    /// The node this callback belongs to.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Send `msg` of `bytes` payload to `to`, leaving now. Returns the
    /// delivery time. The transfer occupies this node's outbound NIC and the
    /// receiver's inbound NIC; self-sends bypass the network.
    pub fn send(&mut self, to: NodeId, msg: M, bytes: u64) -> SimTime {
        self.send_ready_at(self.now(), to, msg, bytes)
    }

    /// Send `msg`, but the payload only becomes available at `ready`
    /// (e.g. after a CPU or disk completion). Returns the delivery time.
    pub fn send_ready_at(&mut self, ready: SimTime, to: NodeId, msg: M, bytes: u64) -> SimTime {
        let ready = ready.max(self.inner.time);
        self.inner.send_message(ready, self.self_id, to, msg, bytes)
    }

    /// Charge `service` time on one of this node's resources, becoming ready
    /// at `ready`. Returns when the work starts and completes.
    pub fn use_resource(
        &mut self,
        kind: ResourceKind,
        ready: SimTime,
        service: SimDuration,
    ) -> Grant {
        let (inner, self_id) = (&mut *self.inner, self.self_id);
        let ready = ready.max(inner.time);
        let service = match &inner.faults {
            Some(plan) => plan.scale_service(self_id, inner.time, service),
            None => service,
        };
        let grant = inner.resources[self_id]
            .get_mut(kind)
            .submit(ready, service);
        if let Some(probe) = &mut inner.probe {
            probe.on_grant(self_id, kind, ready, service, grant);
        }
        grant
    }

    /// Charge CPU time starting no earlier than now.
    pub fn use_cpu(&mut self, service: SimDuration) -> Grant {
        self.use_resource(ResourceKind::Cpu, self.now(), service)
    }

    /// Charge disk time starting no earlier than now.
    pub fn use_disk(&mut self, service: SimDuration) -> Grant {
        self.use_resource(ResourceKind::Disk, self.now(), service)
    }

    /// Read-only view of this node's resources (for load introspection).
    pub fn resources(&self) -> &NodeResources {
        &self.inner.resources[self.self_id]
    }

    /// Read-only view of another node's resources. Real systems cannot peek
    /// at remote load; engines use this only for *measurement*, never for
    /// decisions, so the paper's decentralised-information constraint holds.
    pub fn resources_of(&self, node: NodeId) -> &NodeResources {
        &self.inner.resources[node]
    }

    /// Arrange for `on_timer(tag)` to fire at absolute time `at`
    /// (clamped to now if in the past).
    pub fn set_timer(&mut self, at: SimTime, tag: u64) {
        let node = self.self_id;
        self.inner.push(at, EventKind::Timer { node, tag });
    }

    /// Arrange for `on_timer(tag)` to fire after `delay`.
    pub fn set_timer_after(&mut self, delay: SimDuration, tag: u64) {
        let at = self.now() + delay;
        self.set_timer(at, tag);
    }

    /// This node's deterministic random stream.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.inner.rngs[self.self_id]
    }

    /// Request that the simulation stop after the current callback returns.
    pub fn stop(&mut self) {
        self.inner.stopped = true;
    }
}

/// A discrete-event simulation over nodes of type `N`.
pub struct Sim<N: Node> {
    nodes: Vec<N>,
    inner: SimInner<N::Msg>,
    started: bool,
    seed: u64,
    /// Hardware specs, retained so a fault-plan restart can rebuild a
    /// node's resources from scratch.
    specs: Vec<NodeSpec>,
}

impl<N: Node> Sim<N> {
    /// Create an empty simulation with the given root seed and network
    /// configuration.
    pub fn new(seed: u64, net: NetConfig) -> Self {
        Sim {
            nodes: Vec::new(),
            inner: SimInner {
                time: SimTime::ZERO,
                seq: 0,
                // Pre-sized so small simulations never reallocate mid-run;
                // big feeds call `reserve_events` with their real volume.
                queue: CalendarQueue::with_capacity(1024),
                resources: Vec::new(),
                rngs: Vec::new(),
                net,
                totals: NetTotals::default(),
                events_processed: 0,
                stopped: false,
                faults: None,
                fault_sends: 0,
                links: BTreeMap::new(),
                probe: None,
            },
            started: false,
            seed,
            specs: Vec::new(),
        }
    }

    /// Add a node with the given hardware spec; returns its id.
    pub fn add_node(&mut self, node: N, spec: NodeSpec) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(node);
        self.inner.resources.push(NodeResources::new(
            spec.cores,
            spec.disk_channels,
            spec.net_bw_bps,
            SimTime::ZERO,
        ));
        self.inner
            .rngs
            .push(indexed_rng(self.seed, "node", id as u64));
        self.specs.push(spec);
        id
    }

    /// Install a fault plan: schedules every crash/restart transition as a
    /// kernel event and activates link loss/delay and straggler slowdowns.
    /// Must be called after all nodes are added and before the first run.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            !self.started,
            "fault plan must be installed before the simulation starts"
        );
        plan.validate(self.nodes.len());
        for (at, node, kind) in plan.schedule() {
            self.inner.push(at, EventKind::Fault { node, kind });
        }
        self.inner.faults = Some(plan);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Grow the event arena to hold at least `additional` more events
    /// without reallocating. Callers that post a known feed volume (e.g.
    /// an input stream) use this to avoid repeated slab growth mid-run;
    /// the calendar queue's payload arena honors the hint exactly.
    pub fn reserve_events(&mut self, additional: usize) {
        self.inner.queue.reserve(additional);
    }

    /// Inject a message from outside the simulation, entering the network
    /// at `at` and delivered through the receiver's inbound NIC.
    ///
    /// The NIC charge happens when simulated time *reaches* `at`, not when
    /// `post` is called: the inbound NIC is a FIFO station, and charging a
    /// whole pre-posted arrival stream up front would reserve it through
    /// the last arrival's timestamp, head-of-line blocking every message
    /// sent to that node during the run (replies would all be pushed past
    /// the end of the feed — a non-work-conserving artifact, not queueing).
    pub fn post(&mut self, at: SimTime, to: NodeId, msg: N::Msg, bytes: u64) {
        let at = at.max(self.inner.time);
        self.inner.push(at, EventKind::Inject { to, msg, bytes });
    }

    /// Run all `on_start` callbacks once (idempotent). Every run entry
    /// point calls this; a pacer calls it itself so start-time timers are
    /// queued before it first asks for [`Sim::next_time`].
    pub fn run_starts(&mut self) {
        if !self.started {
            self.started = true;
            for id in 0..self.nodes.len() {
                let mut ctx = Ctx::new(&mut self.inner, id);
                self.nodes[id].on_start(&mut ctx);
            }
        }
    }

    /// Dispatch one already-popped event at its timestamp. Shared by the
    /// run loop and [`Sim::step`]. Forced inline: it was inlined into the
    /// loop while that was its only caller, and a second caller must not
    /// turn the loop's per-event dispatch into a call.
    #[inline(always)]
    fn dispatch(&mut self, time: SimTime, kind: EventKind<N::Msg>) {
        match kind {
            EventKind::Deliver { from, to, msg } => {
                if let Some(plan) = &self.inner.faults {
                    // A dead receiver loses the message outright; a
                    // sender that crashed while the message was on the
                    // wire loses it too (in-flight work dies with the
                    // process that owned it).
                    let lost =
                        plan.is_down(to, time) || (from != EXTERNAL && plan.is_down(from, time));
                    if lost {
                        self.inner.totals.dropped += 1;
                        self.inner.links.entry((from, to)).or_default().dropped += 1;
                        if let Some(probe) = &mut self.inner.probe {
                            probe.on_drop(from, to, time);
                        }
                        return;
                    }
                }
                self.inner.totals.messages += 1;
                let mut ctx = Ctx::new(&mut self.inner, to);
                self.nodes[to].on_message(from, msg, &mut ctx);
            }
            EventKind::Inject { to, msg, bytes } => {
                // The message leaves its external source now (the clock
                // is the event time unless a pacer advanced it past); loss
                // and dead-receiver checks stay on the Deliver path, where
                // in-flight messages are judged for node sends too.
                let now = time.max(self.inner.time);
                self.inner.send_message(now, EXTERNAL, to, msg, bytes);
            }
            EventKind::Timer { node, tag } => {
                if let Some(plan) = &self.inner.faults {
                    if plan.is_down(node, time) {
                        // Timers die with the process that armed them.
                        return;
                    }
                }
                let mut ctx = Ctx::new(&mut self.inner, node);
                self.nodes[node].on_timer(tag, &mut ctx);
            }
            EventKind::Fault { node, kind } => {
                if let Some(probe) = &mut self.inner.probe {
                    probe.on_fault(node, kind, time);
                }
                if kind == FaultKind::Restart {
                    // The process comes back empty-handed: fresh FIFO
                    // queues, no memory of pre-crash backlog.
                    let spec = self.specs[node];
                    self.inner.resources[node] =
                        NodeResources::new(spec.cores, spec.disk_channels, spec.net_bw_bps, time);
                }
                let mut ctx = Ctx::new(&mut self.inner, node);
                self.nodes[node].on_fault(kind, &mut ctx);
            }
        }
    }

    /// Run until the event queue drains, a node calls [`Ctx::stop`], or
    /// `horizon` is reached. Returns the final simulated time.
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        self.run_starts();
        // Reused batch buffer: one queue operation yields every event of
        // the current timestamp, dispatched back-to-back without touching
        // the queue's ordering structure again.
        let mut batch: Vec<(SimTime, u64, EventKind<N::Msg>)> = Vec::new();
        while !self.inner.stopped {
            let Some(t) = self.inner.queue.next_time() else {
                break;
            };
            if t > horizon {
                self.inner.time = horizon;
                break;
            }
            self.inner.queue.pop_run(&mut batch);
            let mut it = batch.drain(..);
            while let Some((time, seq, kind)) = it.next() {
                if self.inner.stopped {
                    // A mid-batch stop: the rest of the run never executes,
                    // exactly like the per-pop stop check of the old loop.
                    // Unprocessed events return to the queue with their
                    // original seqs (observable if the run is resumed).
                    self.inner.queue.push(time, seq, kind);
                    for (time, seq, kind) in it {
                        self.inner.queue.push(time, seq, kind);
                    }
                    break;
                }
                self.inner.time = time;
                self.inner.events_processed += 1;
                self.dispatch(time, kind);
            }
        }
        self.inner.time
    }

    /// Run until the event queue drains or a node stops the simulation.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    // ---- the stepping surface: what an external pacer (the wall-clock
    // backend in `jl-runtime`) needs to drive this kernel one event at a
    // time against a clock of its own. The loop above never calls these.

    /// Timestamp of the earliest pending event, if any.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.inner.queue.next_time()
    }

    /// Move the clock forward to `t` (never backward) without dispatching
    /// anything: callbacks then read `t` as now, and anything they schedule
    /// earlier than `t` clamps to it.
    pub fn advance_clock(&mut self, t: SimTime) {
        self.inner.time = self.inner.time.max(t);
    }

    /// Dispatch the earliest pending event with the clock at the later of
    /// its timestamp and the current clock. Returns `false`, dispatching
    /// nothing, once the queue is empty or a stop was requested. Stepping
    /// until `false` is [`Sim::run`], event for event.
    pub fn step(&mut self) -> bool {
        self.run_starts();
        if self.inner.stopped {
            return false;
        }
        let Some((time, _, kind)) = self.inner.queue.pop() else {
            return false;
        };
        self.advance_clock(time);
        self.inner.events_processed += 1;
        self.dispatch(time, kind);
        true
    }

    /// Send a message from outside the simulation *now*: it enters the
    /// network at the current clock, exactly as a [`Sim::post`] scheduled
    /// for this instant would when it pops, without the queue hop.
    pub fn inject(&mut self, to: NodeId, msg: N::Msg, bytes: u64) {
        let now = self.inner.time;
        self.inner.send_message(now, EXTERNAL, to, msg, bytes);
    }

    /// Request a stop from outside a callback (what [`Ctx::stop`] does
    /// from inside one).
    pub fn request_stop(&mut self) {
        self.inner.stopped = true;
    }

    /// Current simulated time.
    pub fn time(&self) -> SimTime {
        self.inner.time
    }

    /// True if a node requested a stop.
    pub fn stopped(&self) -> bool {
        self.inner.stopped
    }

    /// Install a kernel probe observing grants, drops, delays, and faults.
    /// At most one probe is active; installing replaces any previous one.
    pub fn set_probe(&mut self, probe: Box<dyn SimProbe>) {
        self.inner.probe = Some(probe);
    }

    /// Aggregate network accounting.
    pub fn net_totals(&self) -> NetTotals {
        self.inner.totals
    }

    /// Per-link drop/delay counts, keyed `(from, to)`. Only fault-plan
    /// sites populate this, so it is empty for healthy runs.
    pub fn link_stats(&self) -> &BTreeMap<(NodeId, NodeId), LinkStats> {
        &self.inner.links
    }

    /// Total events (deliveries and timers) popped off the queue so far —
    /// the denominator-free work measure the kernel benchmark reports as
    /// simulated-events/sec.
    pub fn events_processed(&self) -> u64 {
        self.inner.events_processed
    }

    /// A node's resources (utilization, backlog inspection after a run).
    pub fn resources(&self, id: NodeId) -> &NodeResources {
        &self.inner.resources[id]
    }

    /// Shared access to a node's state.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id]
    }

    /// Mutable access to a node's state (between runs).
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id]
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.nodes.iter()
    }

    /// Consume the simulation, returning node states for result extraction.
    pub fn into_nodes(self) -> Vec<N> {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong node: replies `n-1` to any `n > 0`.
    struct PingPong {
        peer: NodeId,
        received: Vec<u64>,
        start: bool,
    }

    impl Node for PingPong {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            if self.start {
                ctx.send(self.peer, 4, 1000);
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
            self.received.push(msg);
            if msg > 0 {
                ctx.send(self.peer, msg - 1, 1000);
            }
        }
    }

    fn two_node_sim() -> Sim<PingPong> {
        let mut sim = Sim::new(1, NetConfig::default());
        let a = sim.add_node(
            PingPong {
                peer: 1,
                received: vec![],
                start: true,
            },
            NodeSpec::default(),
        );
        let b = sim.add_node(
            PingPong {
                peer: 0,
                received: vec![],
                start: false,
            },
            NodeSpec::default(),
        );
        assert_eq!((a, b), (0, 1));
        sim
    }

    #[test]
    fn ping_pong_runs_to_completion() {
        let mut sim = two_node_sim();
        let end = sim.run();
        assert!(end > SimTime::ZERO);
        assert_eq!(sim.node(1).received, vec![4, 2, 0]);
        assert_eq!(sim.node(0).received, vec![3, 1]);
        assert_eq!(sim.net_totals().messages, 5);
        assert_eq!(sim.net_totals().bytes, 5000);
    }

    #[test]
    fn determinism_across_runs() {
        let t1 = two_node_sim().run();
        let t2 = two_node_sim().run();
        assert_eq!(t1, t2);
    }

    #[test]
    fn latency_and_bandwidth_shape_delivery() {
        // One 1 MB message at 1 Gbit/s (=125 MB/s): 8 ms out + 8 ms in + 200us.
        struct Sink {
            at: Option<SimTime>,
        }
        impl Node for Sink {
            type Msg = ();
            fn on_message(&mut self, _f: NodeId, _m: (), ctx: &mut Ctx<'_, ()>) {
                self.at = Some(ctx.now());
            }
        }
        let mut sim: Sim<Sink> = Sim::new(0, NetConfig::default());
        let sender = sim.add_node(Sink { at: None }, NodeSpec::default());
        let recv = sim.add_node(Sink { at: None }, NodeSpec::default());
        assert_eq!(sender, 0);
        sim.post(SimTime::ZERO, recv, (), 1_000_000);
        sim.run();
        let at = sim.node(recv).at.expect("delivered");
        // External sends skip the sender NIC: 200us latency + 8ms receive.
        let expected =
            SimDuration::from_micros(200) + SimDuration::from_secs_f64(1_000_000.0 / 125_000_000.0);
        assert_eq!(at, SimTime::ZERO + expected);
    }

    #[test]
    fn timers_fire_in_order() {
        struct T {
            fired: Vec<u64>,
        }
        impl Node for T {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer_after(SimDuration::from_millis(20), 2);
                ctx.set_timer_after(SimDuration::from_millis(10), 1);
                ctx.set_timer_after(SimDuration::from_millis(20), 3); // tie: insertion order
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Ctx<'_, ()>) {}
            fn on_timer(&mut self, tag: u64, _ctx: &mut Ctx<'_, ()>) {
                self.fired.push(tag);
            }
        }
        let mut sim: Sim<T> = Sim::new(0, NetConfig::default());
        sim.add_node(T { fired: vec![] }, NodeSpec::default());
        sim.run();
        assert_eq!(sim.node(0).fired, vec![1, 2, 3]);
    }

    #[test]
    fn stop_halts_immediately() {
        struct S;
        impl Node for S {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer_after(SimDuration::from_secs(100), 0);
                ctx.stop();
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Ctx<'_, ()>) {}
            fn on_timer(&mut self, _t: u64, _c: &mut Ctx<'_, ()>) {
                panic!("should not fire after stop");
            }
        }
        let mut sim: Sim<S> = Sim::new(0, NetConfig::default());
        sim.add_node(S, NodeSpec::default());
        let end = sim.run();
        assert!(sim.stopped());
        assert_eq!(end, SimTime::ZERO);
    }

    #[test]
    fn stop_mid_batch_skips_same_time_events() {
        // Two timers at the identical instant; the first handler stops the
        // run, so the second must never fire even though it was popped in
        // the same batch.
        struct S {
            fired: u64,
        }
        impl Node for S {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimTime(1000), 1);
                ctx.set_timer(SimTime(1000), 2);
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Ctx<'_, ()>) {}
            fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, ()>) {
                self.fired += 1;
                assert_eq!(tag, 1, "second same-time timer fired after stop");
                ctx.stop();
            }
        }
        let mut sim: Sim<S> = Sim::new(0, NetConfig::default());
        sim.add_node(S { fired: 0 }, NodeSpec::default());
        sim.run();
        assert_eq!(sim.node(0).fired, 1);
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn run_until_respects_horizon() {
        struct T {
            fired: u64,
        }
        impl Node for T {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                for i in 1..=10 {
                    ctx.set_timer(SimTime(i * 1_000_000_000), i);
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Ctx<'_, ()>) {}
            fn on_timer(&mut self, _t: u64, _c: &mut Ctx<'_, ()>) {
                self.fired += 1;
            }
        }
        let mut sim: Sim<T> = Sim::new(0, NetConfig::default());
        sim.add_node(T { fired: 0 }, NodeSpec::default());
        let end = sim.run_until(SimTime(3_500_000_000));
        assert_eq!(sim.node(0).fired, 3);
        assert_eq!(end, SimTime(3_500_000_000));
        // Resume: the remaining timers still fire.
        sim.run();
        assert_eq!(sim.node(0).fired, 10);
    }

    #[test]
    fn advanced_clock_is_what_callbacks_read_and_push_clamps_to() {
        struct T {
            fired: Vec<(u64, SimTime)>,
        }
        impl Node for T {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimTime(10_000_000), 1);
            }
            fn on_message(&mut self, _f: NodeId, _m: (), ctx: &mut Ctx<'_, ()>) {
                self.fired.push((0, ctx.now()));
            }
            fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, ()>) {
                self.fired.push((tag, ctx.now()));
                if tag == 1 {
                    ctx.set_timer(SimTime(20_000_000), 2); // already past
                }
            }
        }
        let mut sim: Sim<T> = Sim::new(0, NetConfig::default());
        sim.add_node(T { fired: vec![] }, NodeSpec::default());
        sim.post(SimTime(30_000_000), 0, (), 0);
        sim.run_starts();
        assert_eq!(sim.next_time(), Some(SimTime(10_000_000)));
        let late = SimTime(50_000_000);
        sim.advance_clock(late);
        sim.advance_clock(SimTime(1)); // never backward
        assert_eq!(sim.time(), late);
        assert!(sim.step());
        // The overdue post pops next and enters the network at the clock,
        // not at its own timestamp: delivered one latency after `late`,
        // behind the past-dated timer that clamped to `late`.
        assert_eq!(sim.next_time(), Some(SimTime(30_000_000)));
        assert!(sim.step());
        assert_eq!(sim.next_time(), Some(late), "past-dated timer clamps");
        while sim.step() {}
        let arrived = late + NetConfig::default().latency;
        assert_eq!(sim.node(0).fired, [(1, late), (2, late), (0, arrived)]);
    }

    #[test]
    fn self_send_bypasses_network() {
        struct L {
            got: Option<SimTime>,
        }
        impl Node for L {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                ctx.send(ctx.self_id(), 7, 1_000_000_000);
            }
            fn on_message(&mut self, from: NodeId, msg: u8, ctx: &mut Ctx<'_, u8>) {
                assert_eq!(from, 0);
                assert_eq!(msg, 7);
                self.got = Some(ctx.now());
            }
        }
        let mut sim: Sim<L> = Sim::new(0, NetConfig::default());
        sim.add_node(L { got: None }, NodeSpec::default());
        sim.run();
        assert_eq!(sim.node(0).got, Some(SimTime::ZERO));
        assert_eq!(sim.net_totals().bytes, 0);
    }

    /// Worker/sink node for the fault tests: records every arrival, and
    /// answers *external* messages with a reply to `sink` after a 1 ms CPU
    /// charge (internal messages are terminal, so runs always drain).
    struct Echo {
        replies: Vec<SimTime>,
        faults: Vec<FaultKind>,
        sink: NodeId,
    }
    impl Node for Echo {
        type Msg = u32;
        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.replies.push(ctx.now());
            if from == EXTERNAL {
                let done = ctx.use_cpu(SimDuration::from_millis(1)).done;
                ctx.send_ready_at(done, self.sink, msg, 1000);
            }
        }
        fn on_fault(&mut self, kind: FaultKind, _ctx: &mut Ctx<'_, u32>) {
            self.faults.push(kind);
        }
    }
    impl Echo {
        fn sink() -> Echo {
            Echo {
                replies: vec![],
                faults: vec![],
                sink: 0,
            }
        }
    }

    fn echo_pair() -> Sim<Echo> {
        let mut sim: Sim<Echo> = Sim::new(3, NetConfig::default());
        let worker = sim.add_node(
            Echo {
                replies: vec![],
                faults: vec![],
                sink: 1,
            },
            NodeSpec::default(),
        );
        let sink = sim.add_node(Echo::sink(), NodeSpec::default());
        assert_eq!((worker, sink), (0, 1));
        sim
    }

    #[test]
    fn crashed_node_loses_messages_until_restart() {
        let mut sim = echo_pair();
        sim.set_fault_plan(FaultPlan::new(9).crash(
            0,
            SimTime::ZERO + SimDuration::from_millis(10),
            Some(SimTime::ZERO + SimDuration::from_millis(30)),
        ));
        // One message before the crash, one during, one after restart.
        for (ms, tag) in [(1u64, 1u32), (15, 2), (40, 3)] {
            sim.post(SimTime(ms * 1_000_000), 0, tag, 1000);
        }
        sim.run();
        let worker = sim.node(0);
        assert_eq!(worker.faults, vec![FaultKind::Crash, FaultKind::Restart]);
        assert_eq!(worker.replies.len(), 2, "mid-outage message must be lost");
        assert_eq!(sim.node(1).replies.len(), 2);
        assert_eq!(sim.net_totals().dropped, 1);
    }

    #[test]
    fn crash_loses_in_flight_replies_from_the_dead_sender() {
        let mut sim = echo_pair();
        // Worker handles the request at ~1.2ms and its reply lands at
        // ~2.4ms; the worker dies at 2.05ms with the reply on the wire.
        sim.set_fault_plan(FaultPlan::new(9).crash(
            0,
            SimTime(1_050_000) + SimDuration::from_millis(1),
            None,
        ));
        sim.post(SimTime(1_000_000), 0, 7, 1000);
        sim.run();
        assert_eq!(sim.node(0).replies.len(), 1, "worker handled the request");
        assert_eq!(sim.node(1).replies.len(), 0, "reply died with the sender");
        assert_eq!(sim.net_totals().dropped, 1);
    }

    #[test]
    fn restart_resets_resource_backlog() {
        let mut sim = echo_pair();
        sim.set_fault_plan(FaultPlan::new(9).crash(
            0,
            SimTime::ZERO + SimDuration::from_millis(5),
            Some(SimTime::ZERO + SimDuration::from_millis(50)),
        ));
        // Pile up CPU work before the crash.
        for i in 0..64 {
            sim.post(SimTime(i * 1_000), 0, i as u32, 100);
        }
        sim.run();
        let res = sim.resources(0);
        // Fresh resources created at restart: every pre-crash charge is gone.
        assert!(res.cpu.drained_at() >= SimTime::ZERO + SimDuration::from_millis(50));
        assert!(res.cpu.jobs() < 64);
    }

    #[test]
    fn straggler_inflates_service_times() {
        let run = |factor: f64| {
            let mut sim = echo_pair();
            if factor > 1.0 {
                sim.set_fault_plan(FaultPlan::new(9).straggle(
                    0,
                    (SimTime::ZERO, SimTime::MAX),
                    factor,
                ));
            }
            sim.post(SimTime::ZERO, 0, 1, 1000);
            sim.run()
        };
        let normal = run(1.0);
        let slow = run(4.0);
        assert!(
            slow > normal,
            "4x straggler must finish later ({slow} vs {normal})"
        );
    }

    #[test]
    fn lossy_link_drops_deterministically() {
        let run = || {
            let mut sim = echo_pair();
            sim.set_fault_plan(FaultPlan::new(11).drop_link(
                Some(EXTERNAL),
                Some(0),
                (SimTime::ZERO, SimTime::MAX),
                0.5,
            ));
            for i in 0..100u64 {
                sim.post(SimTime(i * 1_000_000), 0, i as u32, 1000);
            }
            sim.run();
            (sim.node(0).replies.len(), sim.net_totals().dropped)
        };
        let (got_a, dropped_a) = run();
        let (got_b, dropped_b) = run();
        assert_eq!((got_a, dropped_a), (got_b, dropped_b), "chaos must replay");
        assert_eq!(got_a + dropped_a as usize, 100);
        assert!(got_a > 10 && dropped_a > 10, "p=0.5 should hit both sides");
    }

    #[test]
    #[should_panic(expected = "before the simulation starts")]
    fn fault_plan_after_start_rejected() {
        let mut sim = echo_pair();
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(1));
        sim.set_fault_plan(FaultPlan::new(1));
    }

    #[test]
    fn cpu_contention_is_visible_in_resources() {
        struct C;
        impl Node for C {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                for _ in 0..16 {
                    ctx.use_cpu(SimDuration::from_millis(100));
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Ctx<'_, ()>) {}
        }
        let mut sim: Sim<C> = Sim::new(0, NetConfig::default());
        let id = sim.add_node(
            C,
            NodeSpec {
                cores: 8,
                ..NodeSpec::default()
            },
        );
        sim.run();
        let res = sim.resources(id);
        // 16 jobs on 8 cores: drains at 200 ms.
        assert_eq!(
            res.cpu.drained_at(),
            SimTime::ZERO + SimDuration::from_millis(200)
        );
        assert_eq!(res.cpu.jobs(), 16);
    }

    /// A mesh worker exercising every Ctx surface: CPU/disk charges, RNG
    /// draws, timers, self-sends, and cross-node sends with data-dependent
    /// fan-out. `hops` bounds total traffic so runs always drain.
    struct Worker {
        peers: usize,
        log: Vec<(SimTime, NodeId, u64)>,
        timer_log: Vec<(SimTime, u64)>,
        faults: Vec<FaultKind>,
    }

    impl Node for Worker {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.set_timer_after(SimDuration::from_micros(50), 999);
        }
        fn on_message(&mut self, from: NodeId, hops: u64, ctx: &mut Ctx<'_, u64>) {
            use rand::Rng;
            self.log.push((ctx.now(), from, hops));
            if hops == 0 {
                return;
            }
            let cpu_us = ctx.rng().gen_range(1..200);
            let done = ctx.use_cpu(SimDuration::from_micros(cpu_us)).done;
            if cpu_us % 3 == 0 {
                ctx.use_disk(SimDuration::from_micros(cpu_us * 2));
            }
            let to = ctx.rng().gen_range(0..self.peers);
            if to == ctx.self_id() {
                ctx.send(to, hops - 1, 64);
            } else {
                ctx.send_ready_at(done, to, hops - 1, 1000 + hops * 7);
            }
            if hops.is_multiple_of(4) {
                ctx.set_timer_after(SimDuration::from_micros(cpu_us / 2 + 1), hops);
            }
        }
        fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, u64>) {
            self.timer_log.push((ctx.now(), tag));
        }
        fn on_fault(&mut self, kind: FaultKind, _ctx: &mut Ctx<'_, u64>) {
            self.faults.push(kind);
        }
    }

    fn mesh(n: usize, plan: Option<FaultPlan>) -> Sim<Worker> {
        let mut sim: Sim<Worker> = Sim::new(7, NetConfig::default());
        for i in 0..n {
            let worker = Worker {
                peers: n,
                log: Vec::new(),
                timer_log: Vec::new(),
                faults: Vec::new(),
            };
            sim.add_node(
                worker,
                NodeSpec {
                    cores: 2 + i % 3,
                    disk_channels: 1,
                    net_bw_bps: 125_000_000.0 * (1.0 + i as f64 * 0.1),
                },
            );
        }
        if let Some(plan) = plan {
            sim.set_fault_plan(plan);
        }
        for i in 0..n * 4 {
            sim.post(
                SimTime(i as u64 * 37_000),
                i % n,
                12 + (i as u64 % 5),
                500 + i as u64,
            );
        }
        sim
    }

    /// Everything observable about a finished run.
    fn digest(sim: &Sim<Worker>) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let t = sim.net_totals();
        writeln!(
            out,
            "time={} events={} msgs={} bytes={} dropped={} delayed={}",
            sim.time().nanos(),
            sim.events_processed(),
            t.messages,
            t.bytes,
            t.dropped,
            t.delayed
        )
        .unwrap();
        for ((f, to), ls) in sim.link_stats() {
            writeln!(out, "link {f}->{to} d={} y={}", ls.dropped, ls.delayed).unwrap();
        }
        for (i, node) in sim.nodes().enumerate() {
            let r = sim.resources(i);
            writeln!(
                out,
                "n{i} log={:?} timers={:?} faults={:?} cpu=({},{}) disk=({},{}) \
                 out=({},{}) in=({},{})",
                node.log,
                node.timer_log,
                node.faults,
                r.cpu.jobs(),
                r.cpu.drained_at().nanos(),
                r.disk.jobs(),
                r.disk.drained_at().nanos(),
                r.nic_out.jobs(),
                r.nic_out.drained_at().nanos(),
                r.nic_in.jobs(),
                r.nic_in.drained_at().nanos(),
            )
            .unwrap();
        }
        out
    }

    /// A crash with restart, a lossy link and a straggler, all biting the
    /// six-node mesh.
    fn plan() -> FaultPlan {
        FaultPlan::new(5)
            .crash(
                2,
                SimTime::ZERO + SimDuration::from_micros(900),
                Some(SimTime::ZERO + SimDuration::from_millis(2)),
            )
            .drop_link(None, Some(4), (SimTime::ZERO, SimTime::MAX), 0.3)
            .straggle(1, (SimTime::ZERO, SimTime::MAX), 3.0)
    }

    /// Terminates the run after a fixed number of deliveries.
    struct Counter {
        seen: u64,
        limit: u64,
    }

    impl Node for Counter {
        type Msg = u64;
        fn on_message(&mut self, _from: NodeId, _msg: u64, ctx: &mut Ctx<'_, u64>) {
            self.seen += 1;
            if self.seen == self.limit {
                ctx.stop();
            }
        }
    }

    fn counter_sim(limit: u64) -> Sim<Counter> {
        let mut sim: Sim<Counter> = Sim::new(3, NetConfig::default());
        for _ in 0..4 {
            sim.add_node(Counter { seen: 0, limit }, NodeSpec::default());
        }
        for i in 0..200u64 {
            // Several deliveries share a timestamp, so the stop cuts
            // within a same-time batch.
            sim.post(SimTime((i / 4) * 10_000), (i % 4) as usize, i, 100);
        }
        sim
    }

    /// The stepping surface a pacer drives is the run loop, one event at
    /// a time: same final time, event count, totals and node state,
    /// healthy or faulty, and a stop ends it at the same event.
    #[test]
    fn stepping_matches_run() {
        for faults in [None, Some(plan())] {
            let mut ran = mesh(6, faults.clone());
            ran.run();
            let mut stepped = mesh(6, faults);
            while stepped.step() {}
            assert_eq!(digest(&stepped), digest(&ran));
        }
        let mut ran = counter_sim(17);
        ran.run();
        let mut stepped = counter_sim(17);
        while stepped.step() {}
        assert!(stepped.stopped());
        assert_eq!(
            (stepped.time(), stepped.events_processed()),
            (ran.time(), ran.events_processed())
        );
        let seen = |sim: &Sim<Counter>| sim.nodes().map(|n| n.seen).collect::<Vec<_>>();
        assert_eq!(seen(&stepped), seen(&ran));
    }
}
