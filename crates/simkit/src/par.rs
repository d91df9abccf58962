//! Deterministic node-sharded parallel execution (conservative PDES).
//!
//! [`Sim::run_parallel`] executes the same simulation as [`Sim::run`] with
//! bit-identical results, using epoch-lockstep conservative lookahead:
//!
//! * **Window.** Each epoch executes every queued event in `[T, T + L)`,
//!   where `T` is the earliest pending event and `L` is the network latency
//!   ([`NetConfig::latency`](crate::sim::NetConfig::latency)). No cross-node
//!   message sent at `t` can be delivered before `t + L`, so events inside
//!   one window on *different* nodes cannot affect each other — they may
//!   run concurrently.
//! * **Shards.** Nodes are partitioned round-robin over worker shards. A
//!   shard owns its nodes' state, RNG streams, and resources for the epoch
//!   (moved to a worker thread and back — ownership ping-pong, no locks).
//!   Within a shard, events run in exact serial `(time, seq)` order.
//! * **Journal + commit.** Globally-visible effects (cross-node transfers,
//!   probe callbacks, drop coins, event-queue pushes) are journaled per
//!   shard and replayed on the coordinating thread in exact serial order
//!   after the wave, reassigning sequence numbers from the global counter.
//!   The inbound NIC of every node is touched *only* during this commit, so
//!   its FIFO submission order — and therefore every delivery time — is
//!   identical to the serial kernel's.
//! * **Stops.** Nodes that declare [`Node::may_stop`] execute on the
//!   coordinating thread *before* the wave; a stop there establishes a
//!   `(time, seq)` watermark past which workers skip (and re-queue) events,
//!   reproducing the serial kernel's exact stop point.
//!
//! The result is bit-identical to the serial kernel for any worker count:
//! same fingerprints, same `NetTotals`, same RNG streams, same event
//! sequence numbers (so a run can even be *resumed* under the other mode).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc;
use std::sync::Arc;

use rand::rngs::StdRng;

use crate::fault::{FaultKind, FaultPlan};
use crate::resource::{FifoResource, Grant, NodeResources, ResourceKind};
use crate::sim::{Ctx, CtxBackend, EventKind, Node, NodeId, NodeSpec, Sim, SimInner, EXTERNAL};
use crate::time::{SimDuration, SimTime};

/// Execution-order key for an event inside one epoch: events that were in
/// the global queue when the epoch started carry their final sequence
/// number (`Final`); events pushed during the epoch are keyed by push order
/// within their shard (`Local`) until the commit walk assigns the real
/// sequence number. At equal time every `Final` seq precedes every `Local`
/// one (the global counter only grows), which the derived order encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum SeqKey {
    Final(u64),
    Local(u64),
}

/// One journaled side effect of an executed event, replayed at commit.
pub(crate) enum Op<M> {
    /// The event pushed a new event: `idx` into the shard's `pushed` vec.
    /// The commit walk assigns it the next global sequence number.
    Push { idx: u32 },
    /// A resource grant to replay to the probe (journaled only when a
    /// probe is installed; the grant itself already happened shard-side).
    Grant {
        kind: ResourceKind,
        ready: SimTime,
        service: SimDuration,
        grant: Grant,
    },
    /// Cross-node send: the sender half (outbound NIC) already ran on the
    /// shard; the receiver half (inbound NIC, fault coin, delivery push)
    /// runs at commit, in serial order.
    CrossSend {
        to: NodeId,
        bytes: u64,
        out_done: SimTime,
        msg: M,
    },
    /// A delivery was lost to a dead sender/receiver: replay the drop
    /// accounting (and probe callback) at commit.
    DeliverDrop { from: NodeId },
    /// Replay `probe.on_fault` at commit.
    FaultProbe { kind: FaultKind },
    /// A restart wiped this node's resources shard-side — except the
    /// inbound NIC, which only the commit walk may touch. This op wipes it
    /// at the correct serial point relative to other commit-side submits.
    RestartNicIn,
    /// A deferred side effect journaled by [`Ctx::defer`] (node trace
    /// events, deferred metric updates). The closure runs on the
    /// coordinator during the commit walk, at this op's exact serial
    /// position — interleaved with grants and cross-sends in the order the
    /// callback issued them — so traced parallel runs replay observability
    /// effects byte-identically to the serial kernel.
    Effect(Box<dyn FnOnce() + Send>),
    /// Placeholder left behind once the walk consumes an op.
    Done,
}

/// Journal record: one executed event's ops, keyed for the commit walk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rec {
    node: NodeId,
    time: SimTime,
    key: SeqKey,
    start: u32,
    end: u32,
}

/// An event pushed during the epoch. `kind` is consumed if the event
/// executed within the window; otherwise it is a leftover the commit walk
/// moves into the global queue under its newly-assigned sequence number.
pub(crate) struct Pushed<M> {
    time: SimTime,
    kind: Option<EventKind<M>>,
    rec: Option<u32>,
}

/// The per-shard execution context a [`Ctx`] delegates to during an epoch.
pub(crate) struct ShardCtx<M> {
    pub(crate) time: SimTime,
    shard: u32,
    /// Global node id -> (shard, local index); shared, read-only.
    assign: Arc<Vec<(u32, u32)>>,
    /// Per-node NIC bandwidth, for receiver-side arrival estimates.
    bw: Arc<Vec<f64>>,
    resources: Vec<NodeResources>,
    specs: Vec<NodeSpec>,
    rngs: Vec<StdRng>,
    latency: SimDuration,
    faults: Option<FaultPlan>,
    probe_on: bool,
    allow_stop: bool,
    window_end: SimTime,
    horizon: SimTime,
    watermark: Option<(SimTime, u64)>,
    stopped: bool,
    heap: BinaryHeap<Reverse<(SimTime, SeqKey, u32)>>,
    initial: Vec<(SimTime, u64, Option<EventKind<M>>)>,
    pushed: Vec<Pushed<M>>,
    ops: Vec<Op<M>>,
    recs: Vec<Rec>,
    unconsumed: Vec<(SimTime, u64, EventKind<M>)>,
    events: u64,
    messages: u64,
    max_time: SimTime,
}

impl<M> ShardCtx<M> {
    fn local(&self, node: NodeId) -> usize {
        let (shard, local) = self.assign[node];
        debug_assert_eq!(shard, self.shard, "event routed to the wrong shard");
        local as usize
    }

    /// Push an event originating from this shard's own node (timer or
    /// self-send). Mirrors `SimInner::push`, but the sequence number is
    /// assigned later, at commit, in exact serial order.
    fn push_local(&mut self, at: SimTime, kind: EventKind<M>) {
        let at = at.max(self.time);
        let idx = self.pushed.len() as u32;
        self.ops.push(Op::Push { idx });
        // Runnable this epoch? Local events at the watermark time sort
        // after the stop (their final seqs exceed the stopper's).
        let runnable = at < self.window_end
            && at <= self.horizon
            && self.watermark.is_none_or(|(wt, _)| at < wt)
            && !self.stopped;
        self.pushed.push(Pushed {
            time: at,
            kind: Some(kind),
            rec: None,
        });
        if runnable {
            self.heap
                .push(Reverse((at, SeqKey::Local(idx as u64), idx)));
        }
    }

    pub(crate) fn send_ready_at(
        &mut self,
        from: NodeId,
        ready: SimTime,
        to: NodeId,
        msg: M,
        bytes: u64,
    ) -> SimTime {
        let ready = ready.max(self.time);
        if from == to {
            // Local hand-off: no NIC, no latency — identical to serial.
            self.push_local(ready, EventKind::Deliver { from, to, msg });
            return ready;
        }
        let lf = self.local(from);
        let mut wire = self.resources[lf].wire_time(bytes);
        if let Some(plan) = &self.faults {
            wire = plan.scale_service(from, self.time, wire);
        }
        let grant = self.resources[lf].nic_out.submit(ready, wire);
        if self.probe_on {
            self.ops.push(Op::Grant {
                kind: ResourceKind::NicOut,
                ready,
                service: wire,
                grant,
            });
        }
        // The receiver half runs at commit; return an arrival estimate
        // that excludes inbound queueing (see `Ctx::send` docs — nothing
        // in the engine branches on this value).
        let mut arrive = grant.done + self.latency;
        let mut wire_in = SimDuration::from_secs_f64(bytes as f64 / self.bw[to]);
        if let Some(plan) = &self.faults {
            arrive += plan.link_delay(from, to, self.time);
            wire_in = plan.scale_service(to, self.time, wire_in);
        }
        self.ops.push(Op::CrossSend {
            to,
            bytes,
            out_done: grant.done,
            msg,
        });
        arrive + wire_in
    }

    pub(crate) fn use_resource(
        &mut self,
        node: NodeId,
        kind: ResourceKind,
        ready: SimTime,
        service: SimDuration,
    ) -> Grant {
        assert!(
            kind != ResourceKind::NicIn,
            "charging NicIn through Ctx::use_resource is not supported under \
             run_parallel: the inbound NIC is committed in serial order at \
             epoch boundaries"
        );
        let ready = ready.max(self.time);
        let service = match &self.faults {
            Some(plan) => plan.scale_service(node, self.time, service),
            None => service,
        };
        let l = self.local(node);
        let grant = self.resources[l].get_mut(kind).submit(ready, service);
        if self.probe_on {
            self.ops.push(Op::Grant {
                kind,
                ready,
                service,
                grant,
            });
        }
        grant
    }

    pub(crate) fn set_timer(&mut self, node: NodeId, at: SimTime, tag: u64) {
        self.push_local(at, EventKind::Timer { node, tag });
    }

    pub(crate) fn resources(&self, node: NodeId) -> &NodeResources {
        &self.resources[self.local(node)]
    }

    pub(crate) fn rng(&mut self, node: NodeId) -> &mut StdRng {
        let l = self.local(node);
        &mut self.rngs[l]
    }

    /// Journal a side effect for the commit walk (see [`Op::Effect`]).
    pub(crate) fn defer(&mut self, f: Box<dyn FnOnce() + Send>) {
        self.ops.push(Op::Effect(f));
    }

    pub(crate) fn stop(&mut self) {
        assert!(
            self.allow_stop,
            "Ctx::stop under run_parallel from a node that does not declare \
             Node::may_stop; override may_stop() to return true so the \
             kernel serializes this node's events"
        );
        self.stopped = true;
    }
}

/// One shard: the nodes it owns plus their execution context. Moved to a
/// worker thread for the wave and back to the coordinator for the commit.
pub(crate) struct ShardState<N: Node> {
    /// Global ids of owned nodes, in local order (for reassembly).
    ids: Vec<NodeId>,
    nodes: Vec<N>,
    ctx: ShardCtx<N::Msg>,
}

impl<N: Node> ShardState<N> {
    fn begin_epoch(&mut self, window_end: SimTime, horizon: SimTime) {
        let c = &mut self.ctx;
        c.window_end = window_end;
        c.horizon = horizon;
        c.watermark = None;
        c.stopped = false;
        c.heap.clear();
        c.initial.clear();
        c.pushed.clear();
        c.ops.clear();
        c.recs.clear();
        c.unconsumed.clear();
        c.events = 0;
        c.messages = 0;
        c.max_time = SimTime::ZERO;
    }

    fn seed(&mut self, time: SimTime, seq: u64, kind: EventKind<N::Msg>) {
        let idx = self.ctx.initial.len() as u32;
        self.ctx.initial.push((time, seq, Some(kind)));
        self.ctx.heap.push(Reverse((time, SeqKey::Final(seq), idx)));
    }

    /// Execute this shard's slice of the epoch: seeded events plus any
    /// same-window events they push, in exact serial `(time, key)` order.
    fn run_epoch(&mut self) {
        while let Some(Reverse((time, key, idx))) = self.ctx.heap.pop() {
            if time >= self.ctx.window_end || time > self.ctx.horizon {
                // Only locally-pushed events can land here (seeded events
                // are all inside the window); they stay as leftovers for
                // the commit walk to move into the global queue.
                debug_assert!(matches!(key, SeqKey::Local(_)));
                continue;
            }
            if let Some((wt, ws)) = self.ctx.watermark {
                let after = time > wt
                    || (time == wt
                        && match key {
                            SeqKey::Final(s) => s > ws,
                            SeqKey::Local(_) => true,
                        });
                if after {
                    // The serial kernel stopped before this event: return
                    // it unconsumed (seeded) or leave it as a leftover
                    // (local) so the queue state matches serial exactly.
                    if let SeqKey::Final(s) = key {
                        if let Some(kind) = self.ctx.initial[idx as usize].2.take() {
                            self.ctx.unconsumed.push((time, s, kind));
                        }
                    }
                    continue;
                }
            }
            let kind = match key {
                SeqKey::Final(_) => self.ctx.initial[idx as usize].2.take(),
                SeqKey::Local(_) => self.ctx.pushed[idx as usize].kind.take(),
            }
            .expect("epoch event executed twice");
            let node = match &kind {
                EventKind::Deliver { to, .. } => *to,
                EventKind::Timer { node, .. } | EventKind::Fault { node, .. } => *node,
                EventKind::Inject { .. } => {
                    unreachable!("injects are committed on the coordinator")
                }
            };
            self.ctx.time = time;
            self.ctx.max_time = self.ctx.max_time.max(time);
            self.ctx.events += 1;
            let ops_start = self.ctx.ops.len() as u32;
            self.execute(time, kind);
            let ops_end = self.ctx.ops.len() as u32;
            if ops_end > ops_start {
                let r = self.ctx.recs.len() as u32;
                self.ctx.recs.push(Rec {
                    node,
                    time,
                    key,
                    start: ops_start,
                    end: ops_end,
                });
                if let SeqKey::Local(i) = key {
                    self.ctx.pushed[i as usize].rec = Some(r);
                }
            }
            if self.ctx.stopped {
                let SeqKey::Final(s) = key else {
                    panic!(
                        "Ctx::stop under run_parallel fired from an event scheduled \
                         within the current epoch; stops must come from cross-epoch \
                         events (message deliveries, earlier timers) so the serial \
                         stop point is well-defined"
                    );
                };
                self.ctx.watermark = Some((time, s));
                // Everything still queued sorts after the stopper.
                while let Some(Reverse((t2, k2, i2))) = self.ctx.heap.pop() {
                    if let SeqKey::Final(s2) = k2 {
                        if let Some(kind) = self.ctx.initial[i2 as usize].2.take() {
                            self.ctx.unconsumed.push((t2, s2, kind));
                        }
                    }
                }
                break;
            }
        }
    }

    /// Dispatch one event — the shard-side mirror of `Sim::dispatch`.
    fn execute(&mut self, time: SimTime, kind: EventKind<N::Msg>) {
        match kind {
            EventKind::Deliver { from, to, msg } => {
                if let Some(plan) = &self.ctx.faults {
                    let lost =
                        plan.is_down(to, time) || (from != EXTERNAL && plan.is_down(from, time));
                    if lost {
                        self.ctx.ops.push(Op::DeliverDrop { from });
                        return;
                    }
                }
                self.ctx.messages += 1;
                let l = self.ctx.local(to);
                let mut ctx = Ctx {
                    backend: CtxBackend::Shard(&mut self.ctx),
                    self_id: to,
                };
                self.nodes[l].on_message(from, msg, &mut ctx);
            }
            EventKind::Inject { .. } => unreachable!("injects are committed on the coordinator"),
            EventKind::Timer { node, tag } => {
                if let Some(plan) = &self.ctx.faults {
                    if plan.is_down(node, time) {
                        return;
                    }
                }
                let l = self.ctx.local(node);
                let mut ctx = Ctx {
                    backend: CtxBackend::Shard(&mut self.ctx),
                    self_id: node,
                };
                self.nodes[l].on_timer(tag, &mut ctx);
            }
            EventKind::Fault { node, kind } => {
                if self.ctx.probe_on {
                    self.ctx.ops.push(Op::FaultProbe { kind });
                }
                if kind == FaultKind::Restart {
                    let l = self.ctx.local(node);
                    let spec = self.ctx.specs[l];
                    let mut fresh =
                        NodeResources::new(spec.cores, spec.disk_channels, spec.net_bw_bps, time);
                    // The inbound NIC belongs to the commit walk: keep the
                    // old one in place and journal the wipe so it happens
                    // at the right serial point.
                    std::mem::swap(&mut fresh.nic_in, &mut self.ctx.resources[l].nic_in);
                    self.ctx.resources[l] = fresh;
                    self.ctx.ops.push(Op::RestartNicIn);
                }
                let l = self.ctx.local(node);
                let mut ctx = Ctx {
                    backend: CtxBackend::Shard(&mut self.ctx),
                    self_id: node,
                };
                self.nodes[l].on_fault(kind, &mut ctx);
            }
        }
    }
}

/// Replay the receiver half of a transfer at commit time: inbound NIC,
/// fault accounting, drop coin, and the delivery push — byte-for-byte the
/// serial `transfer` + `send_message` tail, executed in serial order.
#[allow(clippy::too_many_arguments)]
fn commit_recv<N: Node>(
    inner: &mut SimInner<N::Msg>,
    shards: &mut [Option<ShardState<N>>],
    assign: &[(u32, u32)],
    t_send: SimTime,
    from: NodeId,
    to: NodeId,
    out_done: SimTime,
    bytes: u64,
    msg: N::Msg,
    window_end: SimTime,
) {
    let (s, l) = assign[to];
    let res = &mut shards[s as usize]
        .as_mut()
        .expect("shard home")
        .ctx
        .resources[l as usize];
    let mut arrive = out_done + inner.net.latency;
    let mut wire_in = res.wire_time(bytes);
    if let Some(plan) = &inner.faults {
        let extra = plan.link_delay(from, to, t_send);
        if extra > SimDuration::ZERO {
            inner.totals.delayed += 1;
            inner.links.entry((from, to)).or_default().delayed += 1;
            if let Some(probe) = &mut inner.probe {
                probe.on_delay(from, to, t_send, extra);
            }
        }
        arrive += extra;
        wire_in = plan.scale_service(to, t_send, wire_in);
    }
    let grant = res.nic_in.submit(arrive, wire_in);
    if let Some(probe) = &mut inner.probe {
        probe.on_grant(to, ResourceKind::NicIn, arrive, wire_in, grant);
    }
    inner.totals.bytes += bytes;
    if let Some(plan) = &inner.faults {
        let counter = inner.fault_sends;
        inner.fault_sends += 1;
        if plan.drops_message(from, to, t_send, counter) {
            inner.totals.dropped += 1;
            inner.links.entry((from, to)).or_default().dropped += 1;
            if let Some(probe) = &mut inner.probe {
                probe.on_drop(from, to, t_send);
            }
            return;
        }
    }
    debug_assert!(
        grant.done >= window_end,
        "conservative lookahead violated: delivery {} before window end {}",
        grant.done,
        window_end
    );
    let seq = inner.seq;
    inner.seq += 1;
    inner
        .queue
        .push(grant.done, seq, EventKind::Deliver { from, to, msg });
}

/// Heap entry payload for the commit walk.
enum WalkItem<M> {
    Rec {
        shard: u32,
        rec: u32,
    },
    Inject {
        to: NodeId,
        bytes: u64,
        msg: Option<M>,
    },
}

impl<N: Node + Send> Sim<N>
where
    N::Msg: Send,
{
    /// Run to completion with `threads` worker shards. Bit-identical to
    /// [`Sim::run`] — same fingerprints, totals, RNG streams, and event
    /// sequence numbers — for any thread count. See the [module docs](self)
    /// for the epoch-lockstep scheme.
    pub fn run_parallel(&mut self, threads: usize) -> SimTime {
        self.run_parallel_until(SimTime::MAX, threads)
    }

    /// Run until the queue drains, a [`Node::may_stop`] node stops the
    /// simulation, or `horizon` is reached — bit-identical to
    /// [`Sim::run_until`]. A run may freely alternate between the serial
    /// and parallel entry points between calls.
    pub fn run_parallel_until(&mut self, horizon: SimTime, threads: usize) -> SimTime {
        let threads = threads.max(1);
        if self.inner.net.latency == SimDuration::ZERO {
            // Zero lookahead: no window to parallelize over.
            return self.run_until(horizon);
        }
        self.run_starts();
        let n = self.nodes.len();
        let stop_shard = threads as u32;

        // Node -> shard assignment: stop-capable nodes execute on the
        // coordinator (so a stop yields an exact watermark); everything
        // else round-robins over the workers.
        let mut assign: Vec<(u32, u32)> = Vec::with_capacity(n);
        let mut counts = vec![0u32; threads + 1];
        let mut rr = 0usize;
        for node in &self.nodes {
            let s = if node.may_stop() {
                stop_shard
            } else {
                let s = (rr % threads) as u32;
                rr += 1;
                s
            };
            assign.push((s, counts[s as usize]));
            counts[s as usize] += 1;
        }
        let bw: Vec<f64> = self.specs.iter().map(|sp| sp.net_bw_bps).collect();
        let assign = Arc::new(assign);
        let bw = Arc::new(bw);

        // Carve the simulation into shards (ownership moves out of `self`
        // for the duration of the run and is reassembled at the end).
        let probe_on = self.inner.probe.is_some();
        let latency = self.inner.net.latency;
        let mut shards: Vec<Option<ShardState<N>>> = (0..=threads)
            .map(|si| {
                Some(ShardState {
                    ids: Vec::new(),
                    nodes: Vec::new(),
                    ctx: ShardCtx {
                        time: SimTime::ZERO,
                        shard: si as u32,
                        assign: assign.clone(),
                        bw: bw.clone(),
                        resources: Vec::new(),
                        specs: Vec::new(),
                        rngs: Vec::new(),
                        latency,
                        faults: self.inner.faults.clone(),
                        probe_on,
                        allow_stop: si == threads,
                        window_end: SimTime::ZERO,
                        horizon: SimTime::ZERO,
                        watermark: None,
                        stopped: false,
                        heap: BinaryHeap::new(),
                        initial: Vec::new(),
                        pushed: Vec::new(),
                        ops: Vec::new(),
                        recs: Vec::new(),
                        unconsumed: Vec::new(),
                        events: 0,
                        messages: 0,
                        max_time: SimTime::ZERO,
                    },
                })
            })
            .collect();
        let nodes = std::mem::take(&mut self.nodes);
        let resources = std::mem::take(&mut self.inner.resources);
        let rngs = std::mem::take(&mut self.inner.rngs);
        for (id, ((node, res), rng)) in nodes.into_iter().zip(resources).zip(rngs).enumerate() {
            let sh = shards[assign[id].0 as usize].as_mut().unwrap();
            sh.ids.push(id);
            sh.nodes.push(node);
            sh.ctx.resources.push(res);
            sh.ctx.rngs.push(rng);
            sh.ctx.specs.push(self.specs[id]);
        }

        let inner = &mut self.inner;
        std::thread::scope(|scope| {
            // Persistent workers: each epoch, shard state is sent to its
            // worker and received back after the wave. With one worker the
            // wave runs inline (no channel round-trip).
            let (done_tx, done_rx) = mpsc::channel::<(usize, ShardState<N>)>();
            let work_txs: Vec<mpsc::Sender<ShardState<N>>> = if threads > 1 {
                (0..threads)
                    .map(|i| {
                        let (tx, rx) = mpsc::channel::<ShardState<N>>();
                        let done = done_tx.clone();
                        scope.spawn(move || {
                            while let Ok(mut st) = rx.recv() {
                                st.run_epoch();
                                if done.send((i, st)).is_err() {
                                    break;
                                }
                            }
                        });
                        tx
                    })
                    .collect()
            } else {
                Vec::new()
            };
            drop(done_tx);

            loop {
                if inner.stopped {
                    break;
                }
                let Some(t) = inner.queue.next_time() else {
                    break;
                };
                if t > horizon {
                    inner.time = horizon;
                    break;
                }
                // `+` saturates; a degenerate window still covers >= 1 event
                // because the head is popped unconditionally below.
                let window_end = t + latency;

                for sh in shards.iter_mut() {
                    sh.as_mut().unwrap().begin_epoch(window_end, horizon);
                }

                // Pop the window's events and route them home. Injects are
                // executed wholly at commit (they only touch commit-owned
                // state: inbound NIC, totals, coins, the queue).
                let mut injects: Vec<(SimTime, u64, NodeId, N::Msg, u64)> = Vec::new();
                let mut first = true;
                while let Some(nt) = inner.queue.next_time() {
                    if !first && (nt >= window_end || nt > horizon) {
                        break;
                    }
                    first = false;
                    let (time, seq, kind) = inner.queue.pop().unwrap();
                    match kind {
                        EventKind::Inject { to, msg, bytes } => {
                            injects.push((time, seq, to, msg, bytes));
                        }
                        other => {
                            let node = match &other {
                                EventKind::Deliver { to, .. } => *to,
                                EventKind::Timer { node, .. } | EventKind::Fault { node, .. } => {
                                    *node
                                }
                                EventKind::Inject { .. } => unreachable!(),
                            };
                            let s = assign[node].0 as usize;
                            shards[s].as_mut().unwrap().seed(time, seq, other);
                        }
                    }
                }

                // Stop-capable nodes run first, on this thread, yielding
                // the watermark every other shard must respect.
                let mut stopsh = shards[threads].take().unwrap();
                stopsh.run_epoch();
                let watermark = stopsh.ctx.watermark;
                shards[threads] = Some(stopsh);

                if let Some((wt, ws)) = watermark {
                    // Injects past the stop point go back unexecuted.
                    let (kept, skipped): (Vec<_>, Vec<_>) = injects
                        .into_iter()
                        .partition(|it| it.0 < wt || (it.0 == wt && it.1 < ws));
                    injects = kept;
                    for (time, seq, to, msg, bytes) in skipped {
                        inner
                            .queue
                            .push(time, seq, EventKind::Inject { to, msg, bytes });
                    }
                }

                // The wave.
                if threads == 1 {
                    let mut sh = shards[0].take().unwrap();
                    sh.ctx.watermark = watermark;
                    sh.run_epoch();
                    shards[0] = Some(sh);
                } else {
                    let mut outstanding = 0;
                    for (i, slot) in shards.iter_mut().take(threads).enumerate() {
                        let sh = slot.as_mut().unwrap();
                        if sh.ctx.heap.is_empty() {
                            continue;
                        }
                        sh.ctx.watermark = watermark;
                        work_txs[i].send(slot.take().unwrap()).unwrap();
                        outstanding += 1;
                    }
                    for _ in 0..outstanding {
                        let (i, st) = done_rx.recv().unwrap();
                        shards[i] = Some(st);
                    }
                }

                // Gather wave-side counters and watermark-skipped events.
                let mut epoch_max = SimTime::ZERO;
                for slot in shards.iter_mut() {
                    let sh = slot.as_mut().unwrap();
                    inner.events_processed += sh.ctx.events;
                    inner.totals.messages += sh.ctx.messages;
                    if sh.ctx.events > 0 {
                        epoch_max = epoch_max.max(sh.ctx.max_time);
                    }
                    for (time, seq, kind) in sh.ctx.unconsumed.drain(..) {
                        inner.queue.push(time, seq, kind);
                    }
                }

                // Commit walk: replay journaled effects in exact serial
                // (time, seq) order, assigning sequence numbers as the
                // serial kernel would have. Producers always precede their
                // products (an event's pusher has a smaller key), so the
                // heap minimum is always the globally next record.
                let mut items: Vec<WalkItem<N::Msg>> = Vec::new();
                let mut wheap: BinaryHeap<Reverse<(SimTime, u64, u32)>> = BinaryHeap::new();
                for (si, slot) in shards.iter().enumerate() {
                    let sh = slot.as_ref().unwrap();
                    for (ri, rec) in sh.ctx.recs.iter().enumerate() {
                        if let SeqKey::Final(s) = rec.key {
                            wheap.push(Reverse((rec.time, s, items.len() as u32)));
                            items.push(WalkItem::Rec {
                                shard: si as u32,
                                rec: ri as u32,
                            });
                        }
                    }
                }
                for (time, seq, to, msg, bytes) in injects {
                    wheap.push(Reverse((time, seq, items.len() as u32)));
                    items.push(WalkItem::Inject {
                        to,
                        bytes,
                        msg: Some(msg),
                    });
                }
                while let Some(Reverse((time, _seq, ii))) = wheap.pop() {
                    match &mut items[ii as usize] {
                        WalkItem::Inject { to, bytes, msg } => {
                            let (to, bytes, msg) = (*to, *bytes, msg.take().unwrap());
                            inner.events_processed += 1;
                            epoch_max = epoch_max.max(time);
                            commit_recv(
                                inner,
                                &mut shards,
                                &assign,
                                time,
                                EXTERNAL,
                                to,
                                time,
                                bytes,
                                msg,
                                window_end,
                            );
                        }
                        WalkItem::Rec { shard, rec } => {
                            let si = *shard as usize;
                            let rec = shards[si].as_ref().unwrap().ctx.recs[*rec as usize];
                            for oi in rec.start..rec.end {
                                let op = std::mem::replace(
                                    &mut shards[si].as_mut().unwrap().ctx.ops[oi as usize],
                                    Op::Done,
                                );
                                match op {
                                    Op::Push { idx } => {
                                        let s = inner.seq;
                                        inner.seq += 1;
                                        let p = &mut shards[si].as_mut().unwrap().ctx.pushed
                                            [idx as usize];
                                        let ptime = p.time;
                                        if let Some(kind) = p.kind.take() {
                                            // Leftover: lands in the global
                                            // queue under its serial seq.
                                            inner.queue.push(ptime, s, kind);
                                        } else if let Some(r2) = p.rec {
                                            // Executed in-window: its own
                                            // effects replay under the seq
                                            // just assigned.
                                            wheap.push(Reverse((ptime, s, items.len() as u32)));
                                            items.push(WalkItem::Rec {
                                                shard: si as u32,
                                                rec: r2,
                                            });
                                        }
                                    }
                                    Op::Grant {
                                        kind,
                                        ready,
                                        service,
                                        grant,
                                    } => {
                                        if let Some(probe) = &mut inner.probe {
                                            probe.on_grant(rec.node, kind, ready, service, grant);
                                        }
                                    }
                                    Op::CrossSend {
                                        to,
                                        bytes,
                                        out_done,
                                        msg,
                                    } => {
                                        commit_recv(
                                            inner,
                                            &mut shards,
                                            &assign,
                                            rec.time,
                                            rec.node,
                                            to,
                                            out_done,
                                            bytes,
                                            msg,
                                            window_end,
                                        );
                                    }
                                    Op::DeliverDrop { from } => {
                                        inner.totals.dropped += 1;
                                        inner.links.entry((from, rec.node)).or_default().dropped +=
                                            1;
                                        if let Some(probe) = &mut inner.probe {
                                            probe.on_drop(from, rec.node, rec.time);
                                        }
                                    }
                                    Op::FaultProbe { kind } => {
                                        if let Some(probe) = &mut inner.probe {
                                            probe.on_fault(rec.node, kind, rec.time);
                                        }
                                    }
                                    Op::Effect(f) => f(),
                                    Op::RestartNicIn => {
                                        let (s2, l2) = assign[rec.node];
                                        shards[s2 as usize].as_mut().unwrap().ctx.resources
                                            [l2 as usize]
                                            .nic_in = FifoResource::new(1, rec.time);
                                    }
                                    Op::Done => unreachable!("op consumed twice"),
                                }
                            }
                        }
                    }
                }

                inner.time = inner.time.max(epoch_max);
                if watermark.is_some() {
                    inner.stopped = true;
                }
            }
        });

        // Reassemble the simulation from the shards.
        let mut nodes_back: Vec<Option<N>> = (0..n).map(|_| None).collect();
        let mut res_back: Vec<Option<NodeResources>> = (0..n).map(|_| None).collect();
        let mut rng_back: Vec<Option<StdRng>> = (0..n).map(|_| None).collect();
        for slot in shards {
            let sh = slot.unwrap();
            let ShardState { ids, nodes, ctx } = sh;
            for (((id, node), res), rng) in
                ids.into_iter().zip(nodes).zip(ctx.resources).zip(ctx.rngs)
            {
                nodes_back[id] = Some(node);
                res_back[id] = Some(res);
                rng_back[id] = Some(rng);
            }
        }
        self.nodes = nodes_back.into_iter().map(Option::unwrap).collect();
        self.inner.resources = res_back.into_iter().map(Option::unwrap).collect();
        self.inner.rngs = rng_back.into_iter().map(Option::unwrap).collect();
        self.inner.time
    }
}

#[cfg(test)]
mod tests {
    use rand::Rng;

    use crate::fault::FaultPlan;
    use crate::sim::{Ctx, NetConfig, Node, NodeSpec, Sim};
    use crate::time::{SimDuration, SimTime};

    use super::*;

    /// A mesh worker exercising every Ctx surface: CPU/disk charges, RNG
    /// draws, timers, self-sends, and cross-node sends with data-dependent
    /// fan-out. `hops` bounds total traffic so runs always drain.
    struct Worker {
        peers: usize,
        log: Vec<(SimTime, NodeId, u64)>,
        timer_log: Vec<(SimTime, u64)>,
        faults: Vec<FaultKind>,
    }

    impl Worker {
        fn new(peers: usize) -> Worker {
            Worker {
                peers,
                log: Vec::new(),
                timer_log: Vec::new(),
                faults: Vec::new(),
            }
        }
    }

    impl Node for Worker {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.set_timer_after(SimDuration::from_micros(50), 999);
        }
        fn on_message(&mut self, from: NodeId, hops: u64, ctx: &mut Ctx<'_, u64>) {
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
                // Same-window self-send: exercises the Local event path.
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
            sim.add_node(
                Worker::new(n),
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

    #[test]
    fn parallel_matches_serial_healthy() {
        let mut serial = mesh(9, None);
        serial.run();
        let want = digest(&serial);
        for threads in [1, 2, 8] {
            let mut par = mesh(9, None);
            par.run_parallel(threads);
            assert_eq!(digest(&par), want, "threads={threads}");
        }
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

    /// The stepping surface a pacer drives is the serial loop, one event
    /// at a time: same final time, event count, totals and node state,
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
        let mut ran = counter_sim(17, true);
        ran.run();
        let mut stepped = counter_sim(17, true);
        while stepped.step() {}
        assert!(stepped.stopped());
        assert_eq!(
            (stepped.time(), stepped.events_processed()),
            (ran.time(), ran.events_processed())
        );
        let seen = |sim: &Sim<Counter>| sim.nodes().map(|n| n.seen).collect::<Vec<_>>();
        assert_eq!(seen(&stepped), seen(&ran));
    }

    #[test]
    fn parallel_matches_serial_with_faults() {
        let mut serial = mesh(6, Some(plan()));
        serial.run();
        let want = digest(&serial);
        assert!(serial.net_totals().dropped > 0, "plan must actually bite");
        for threads in [1, 2, 8] {
            let mut par = mesh(6, Some(plan()));
            par.run_parallel(threads);
            assert_eq!(digest(&par), want, "threads={threads}");
        }
    }

    #[test]
    fn parallel_horizon_and_mixed_mode_resume() {
        let horizon = SimTime(400_000);
        let mut serial = mesh(5, None);
        serial.run_until(horizon);
        let mid_serial = digest(&serial);
        serial.run();
        let end_serial = digest(&serial);

        // Parallel to the horizon, then finish on the *serial* kernel:
        // sequence numbers and queue state must line up exactly.
        let mut par = mesh(5, None);
        assert_eq!(par.run_parallel_until(horizon, 2), horizon);
        assert_eq!(digest(&par), mid_serial);
        par.run();
        assert_eq!(digest(&par), end_serial);

        // And the reverse hand-off.
        let mut par2 = mesh(5, None);
        par2.run_until(horizon);
        par2.run_parallel(8);
        assert_eq!(digest(&par2), end_serial);
    }

    /// Terminates the run after a fixed number of deliveries.
    struct Counter {
        seen: u64,
        limit: u64,
        can_stop: bool,
    }

    impl Node for Counter {
        type Msg = u64;
        fn on_message(&mut self, _from: NodeId, _msg: u64, ctx: &mut Ctx<'_, u64>) {
            self.seen += 1;
            if self.seen == self.limit {
                ctx.stop();
            }
        }
        fn may_stop(&self) -> bool {
            self.can_stop
        }
    }

    fn counter_sim(limit: u64, can_stop: bool) -> Sim<Counter> {
        let mut sim: Sim<Counter> = Sim::new(3, NetConfig::default());
        for _ in 0..4 {
            sim.add_node(
                Counter {
                    seen: 0,
                    limit,
                    can_stop,
                },
                NodeSpec::default(),
            );
        }
        for i in 0..200u64 {
            // Several deliveries share timestamps across nodes, so the stop
            // watermark must cut within a batch.
            sim.post(SimTime((i / 4) * 10_000), (i % 4) as usize, i, 100);
        }
        sim
    }

    #[test]
    fn parallel_stop_matches_serial() {
        let mut serial = counter_sim(17, true);
        serial.run();
        let want = (
            serial.time(),
            serial.events_processed(),
            serial.net_totals().messages,
            serial.nodes().map(|n| n.seen).collect::<Vec<_>>(),
        );
        assert!(serial.stopped());
        for threads in [1, 2, 8] {
            let mut par = counter_sim(17, true);
            par.run_parallel(threads);
            assert!(par.stopped(), "threads={threads}");
            let got = (
                par.time(),
                par.events_processed(),
                par.net_totals().messages,
                par.nodes().map(|n| n.seen).collect::<Vec<_>>(),
            );
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "does not declare Node::may_stop")]
    fn undeclared_stop_panics_under_parallel() {
        let mut sim = counter_sim(17, false);
        // One worker runs the wave inline, so the panic message surfaces
        // directly (with more workers it would arrive as a dead channel).
        sim.run_parallel(1);
    }

    #[test]
    fn zero_latency_falls_back_to_serial() {
        let mut serial = counter_sim(17, true);
        serial.run();
        let mut par = counter_sim(17, true);
        par.inner.net.latency = SimDuration::ZERO;
        serial.inner.net.latency = SimDuration::ZERO;
        // Rebuild both with zero latency from scratch for a fair compare.
        let build = || {
            let mut s = counter_sim(17, true);
            s.inner.net.latency = SimDuration::ZERO;
            s
        };
        let mut a = build();
        a.run();
        let mut b = build();
        b.run_parallel(4);
        assert_eq!(a.time(), b.time());
        assert_eq!(a.events_processed(), b.events_processed());
    }
}
