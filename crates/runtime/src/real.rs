//! The wall-clock backend: the simulation kernel, paced by a real clock.
//!
//! [`RealRuntime`] owns no scheduling model of its own. It holds a
//! [`Sim`] — the same event queue, network model, resource stations, fault
//! plan, drop coin, per-node RNG streams and probe every simulated run
//! uses — and *paces* it: one OS thread reads a monotonic [`Instant`]
//! anchored at run start, moves the kernel's clock up to it, and dispatches
//! the earliest event only once the wall clock has reached its timestamp.
//! Time is therefore still a [`SimTime`] (nanoseconds since the anchor) and
//! every piece of engine time math works unchanged, but callbacks read the
//! **wall** clock, UDFs execute for real inside them, and latencies reflect
//! the host. Any number of driver threads (socket readers, request
//! generators) inject messages through a cloneable [`RealHandle`]; an
//! injected message enters the network model at the instant the loop
//! dequeues it.
//!
//! Nodes are written against [`RuntimeNode`] and hosted through
//! [`Hosted`], so a fixed workload produces the *same join results* here as
//! on the simulator (the parity tests pin fingerprint equality; latencies
//! are allowed to differ, and do).

use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use jl_simkit::sim::{NetConfig, NodeId, NodeSpec, Sim};
use jl_simkit::time::{SimDuration, SimTime};

use crate::{Hosted, RuntimeNode};

/// Shared run clock: `None` until the loop starts, then the anchor every
/// thread measures against.
struct ClockShared {
    start: OnceLock<Instant>,
}

impl ClockShared {
    fn now(&self) -> SimTime {
        match self.start.get() {
            Some(t0) => SimTime(t0.elapsed().as_nanos() as u64),
            None => SimTime::ZERO,
        }
    }
}

/// A message injected from outside the loop thread.
enum Inbound<M> {
    /// Deliver `msg` to `to` through the network model, entering at the
    /// time the loop dequeues it (external sends skip the sender NIC,
    /// like [`EXTERNAL`](jl_simkit::sim::EXTERNAL) posts in the simulator).
    Msg { to: NodeId, msg: M, bytes: u64 },
    /// Ask the loop to stop after the current event.
    Stop,
}

/// Cloneable ingress handle for driver threads: inject messages, read the
/// run clock, request a stop. Dropping every handle (and finishing the
/// kernel's posted or fed input) ends a [`RealRuntime::run`] once the
/// event queue drains.
pub struct RealHandle<M> {
    tx: Sender<Inbound<M>>,
    clock: Arc<ClockShared>,
}

impl<M> Clone for RealHandle<M> {
    fn clone(&self) -> Self {
        RealHandle {
            tx: self.tx.clone(),
            clock: Arc::clone(&self.clock),
        }
    }
}

impl<M> RealHandle<M> {
    /// Inject a message from outside the cluster (the driver side of the
    /// wire). Returns `false` if the loop has already shut down.
    pub fn send(&self, to: NodeId, msg: M, bytes: u64) -> bool {
        self.tx.send(Inbound::Msg { to, msg, bytes }).is_ok()
    }

    /// Nanoseconds since the run started (ZERO before it does).
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Ask the loop to stop. Returns `false` if it already has.
    pub fn stop(&self) -> bool {
        self.tx.send(Inbound::Stop).is_ok()
    }
}

/// The sampler callback: boxed so the runtime stays object-safe over it.
type SamplerFn<N> = Box<dyn FnMut(&Sim<Hosted<N>>) + Send>;

/// A periodic mid-run observer installed with
/// [`RealRuntime::set_live_sampler`].
struct Sampler<N: RuntimeNode> {
    interval: SimDuration,
    next: SimTime,
    f: SamplerFn<N>,
}

/// A wall-clock run over nodes of type `N`: a [`Sim`] plus the pacing
/// state around it.
///
/// Either configure a kernel first (nodes, fault plan, probe, posted or
/// fed input) and hand it to [`pace`](RealRuntime::pace), or start from
/// [`new`](RealRuntime::new) and [`add_node`](RealRuntime::add_node); then
/// [`run`](RealRuntime::run) on the thread that owns it while driver
/// threads feed it through [`handle`](RealRuntime::handle)s. Everything
/// the kernel accounts — time, network totals, link statistics, resources,
/// event counts — is read through [`sim`](RealRuntime::sim).
pub struct RealRuntime<N: RuntimeNode> {
    sim: Sim<Hosted<N>>,
    clock: Arc<ClockShared>,
    rx: Receiver<Inbound<N::Msg>>,
    /// Held until the run starts so handles can still be created; dropped
    /// then, so channel disconnection tracks only *external* handles.
    tx: Option<Sender<Inbound<N::Msg>>>,
    disconnected: bool,
    sampler: Option<Sampler<N>>,
}

impl<N: RuntimeNode> RealRuntime<N> {
    /// Pace an already-loaded kernel against the wall clock.
    pub fn pace(sim: Sim<Hosted<N>>) -> Self {
        let (tx, rx) = mpsc::channel();
        RealRuntime {
            sim,
            clock: Arc::new(ClockShared {
                start: OnceLock::new(),
            }),
            rx,
            tx: Some(tx),
            disconnected: false,
            sampler: None,
        }
    }

    /// Create an empty runtime with the given root seed and network model.
    pub fn new(seed: u64, net: NetConfig) -> Self {
        Self::pace(Sim::new(seed, net))
    }

    /// Add a node with the given hardware spec; returns its id.
    pub fn add_node(&mut self, node: N, spec: NodeSpec) -> NodeId {
        self.sim.add_node(Hosted(node), spec)
    }

    /// The kernel being paced: clock, accounting, resources and nodes.
    pub fn sim(&self) -> &Sim<Hosted<N>> {
        &self.sim
    }

    /// Shared access to a node's state.
    pub fn node(&self, id: NodeId) -> &N {
        self.sim.node(id)
    }

    /// Mutable access to a node's state (before or between runs).
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        self.sim.node_mut(id)
    }

    /// Install a live sampler: `f` runs on the loop thread with the kernel
    /// borrowed shared, roughly every `interval` of wall clock, between
    /// event dispatches — this is how live observability (stats snapshots,
    /// per-node queue depths) reads node state without any cross-thread
    /// access to the nodes. The loop's idle waits are capped at the next
    /// sample deadline, so sampling stays on schedule even when no events
    /// arrive. Panics on a zero interval.
    pub fn set_live_sampler(
        &mut self,
        interval: SimDuration,
        f: impl FnMut(&Sim<Hosted<N>>) + Send + 'static,
    ) {
        assert!(
            interval > SimDuration::ZERO,
            "sampler interval must be nonzero"
        );
        self.sampler = Some(Sampler {
            interval,
            next: self.sim.time() + interval,
            f: Box::new(f),
        });
    }

    /// Run the sampler if its deadline passed.
    fn maybe_sample(&mut self, now: SimTime) {
        if let Some(s) = &mut self.sampler {
            if now >= s.next {
                (s.f)(&self.sim);
                // Skip missed beats instead of bursting to catch up.
                while s.next <= now {
                    s.next += s.interval;
                }
            }
        }
    }

    /// An ingress handle for driver threads. Must be taken before
    /// [`run`](RealRuntime::run) is first called.
    pub fn handle(&self) -> RealHandle<N::Msg> {
        let tx = self
            .tx
            .as_ref()
            .expect("handles must be created before the run starts")
            .clone();
        RealHandle {
            tx,
            clock: Arc::clone(&self.clock),
        }
    }

    /// Bring the kernel's clock up to the wall clock (nanoseconds since
    /// the run started) and return it.
    fn observe(&mut self) -> SimTime {
        self.sim.advance_clock(self.clock.now());
        self.sim.time()
    }

    fn enqueue(&mut self, inbound: Inbound<N::Msg>) {
        match inbound {
            Inbound::Msg { to, msg, bytes } => {
                self.observe();
                self.sim.inject(to, msg, bytes);
            }
            Inbound::Stop => self.sim.request_stop(),
        }
    }

    /// Pull everything already waiting on the channel without blocking.
    fn drain_inbound(&mut self) {
        loop {
            match self.rx.try_recv() {
                Ok(ib) => self.enqueue(ib),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.disconnected = true;
                    break;
                }
            }
        }
    }

    /// Block until `wake` (wall clock) or an inbound message, whichever
    /// comes first.
    fn wait_until(&mut self, wake: SimTime) {
        let now = self.observe();
        if wake <= now {
            return;
        }
        let dur = Duration::from_nanos(wake.0 - now.0);
        if self.disconnected {
            // No senders left: nothing can arrive, just sleep it off (in
            // slices so a Stop that raced the disconnect is still seen).
            std::thread::sleep(dur.min(Duration::from_millis(50)));
            return;
        }
        match self.rx.recv_timeout(dur) {
            Ok(ib) => self.enqueue(ib),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => self.disconnected = true,
        }
    }

    /// Run until a node calls [`RuntimeCtx::stop`](crate::RuntimeCtx::stop),
    /// a handle sends a stop, or the event queue drains with every handle
    /// dropped — or `horizon` nanoseconds of wall clock elapse. Returns the
    /// final clock reading.
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        // All three are no-ops on a resumed run. From here on the channel
        // must disconnect when the *external* handles go away.
        self.tx = None;
        let _ = self.clock.start.set(Instant::now());
        self.sim.run_starts();
        while !self.sim.stopped() {
            self.drain_inbound();
            if self.sim.stopped() {
                break;
            }
            let now = self.observe();
            if now >= horizon {
                break;
            }
            self.maybe_sample(now);
            let wake_cap = match &self.sampler {
                Some(s) => s.next.min(horizon),
                None => horizon,
            };
            match self.sim.next_time() {
                // Due: dispatched with the clock at `now`, not at `t`.
                Some(t) if t <= now => {
                    self.sim.step();
                }
                Some(t) => self.wait_until(t.min(wake_cap)),
                None => {
                    if self.disconnected {
                        break;
                    }
                    self.wait_until(wake_cap);
                }
            }
        }
        self.observe()
    }

    /// Run with no horizon: until stopped, or drained with all handles
    /// dropped.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimeCtx;
    use jl_simkit::fault::FaultPlan;

    /// Counts messages; replies `n-1` to its peer while `n > 0`.
    struct Relay {
        peer: NodeId,
        got: Vec<u64>,
    }

    impl RuntimeNode for Relay {
        type Msg = u64;
        fn handle_message<C: RuntimeCtx<u64>>(&mut self, _from: NodeId, msg: u64, ctx: &mut C) {
            self.got.push(msg);
            if msg > 0 {
                ctx.send(self.peer, msg - 1, 256);
            }
        }
    }

    /// The kernel under test: load it, then run it on either clock.
    fn pair() -> Sim<Hosted<Relay>> {
        let mut sim = Sim::new(7, NetConfig::default());
        for peer in [1, 0] {
            sim.add_node(Hosted(Relay { peer, got: vec![] }), NodeSpec::default());
        }
        sim
    }

    #[test]
    fn preposted_feed_drains_and_counts() {
        let mut sim = pair();
        sim.post(SimTime::ZERO, 0, 4, 256);
        let mut rt = RealRuntime::pace(sim);
        let end = rt.run();
        assert!(end > SimTime::ZERO);
        assert_eq!(rt.node(0).got, vec![4, 2, 0]);
        assert_eq!(rt.node(1).got, vec![3, 1]);
        assert_eq!(rt.sim().net_totals().messages, 5);
    }

    #[test]
    fn handle_injects_from_another_thread() {
        let mut rt = RealRuntime::pace(pair());
        let h = rt.handle();
        let feeder = std::thread::spawn(move || {
            for v in [2u64, 0] {
                assert!(h.send(0, v, 128));
            }
            // Dropping `h` here lets the loop finish once drained.
        });
        let _ = rt.run();
        feeder.join().unwrap();
        // Node 0 sees the injected 2 and 0, plus the 0 relayed back by its
        // peer after the 2 → 1 → 0 countdown.
        let mut got = rt.node(0).got.clone();
        got.sort_unstable();
        assert_eq!(got, vec![0, 0, 2]);
        assert_eq!(rt.node(1).got, vec![1]);
    }

    #[test]
    fn stop_from_handle_halts_the_loop() {
        let mut rt = RealRuntime::pace(pair());
        let h = rt.handle();
        let stopper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            assert!(h.stop());
        });
        let end = rt.run();
        stopper.join().unwrap();
        assert!(rt.sim().stopped());
        assert!(end >= SimTime::ZERO);
    }

    #[test]
    fn horizon_bounds_the_run() {
        struct Idle;
        impl RuntimeNode for Idle {
            type Msg = ();
            fn handle_message<C: RuntimeCtx<()>>(&mut self, _f: NodeId, _m: (), _c: &mut C) {}
        }
        let mut rt: RealRuntime<Idle> = RealRuntime::new(0, NetConfig::default());
        rt.add_node(Idle, NodeSpec::default());
        let _h = rt.handle(); // keep a sender alive: only the horizon ends it
        let t0 = Instant::now();
        rt.run_until(SimTime(20_000_000)); // 20 ms
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(15), "returned too early");
        assert!(elapsed < Duration::from_secs(5), "horizon ignored");
    }

    #[test]
    fn live_sampler_fires_while_idle() {
        struct Idle;
        impl RuntimeNode for Idle {
            type Msg = ();
            fn handle_message<C: RuntimeCtx<()>>(&mut self, _f: NodeId, _m: (), _c: &mut C) {}
        }
        let mut rt: RealRuntime<Idle> = RealRuntime::new(0, NetConfig::default());
        rt.add_node(Idle, NodeSpec::default());
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let h = Arc::clone(&hits);
        rt.set_live_sampler(SimDuration::from_millis(5), move |sim| {
            assert_eq!(sim.node_count(), 1); // the callback sees the kernel
            h.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        let _keep = rt.handle(); // keep a sender alive: only the horizon ends it
        rt.run_until(SimTime(40_000_000)); // 40 ms, no events at all
        let n = hits.load(std::sync::atomic::Ordering::Relaxed);
        assert!(n >= 2, "sampler fired {n} times in 40ms at 5ms interval");
    }

    #[test]
    fn timers_pace_against_the_wall_clock() {
        struct T {
            fired: Vec<SimTime>,
        }
        impl RuntimeNode for T {
            type Msg = ();
            fn handle_start<C: RuntimeCtx<()>>(&mut self, ctx: &mut C) {
                ctx.set_timer_after(SimDuration::from_millis(10), 1);
                ctx.set_timer_after(SimDuration::from_millis(20), 2);
            }
            fn handle_message<C: RuntimeCtx<()>>(&mut self, _f: NodeId, _m: (), _c: &mut C) {}
            fn handle_timer<C: RuntimeCtx<()>>(&mut self, tag: u64, ctx: &mut C) {
                self.fired.push(ctx.now());
                if tag == 2 {
                    ctx.stop();
                }
            }
        }
        let mut rt: RealRuntime<T> = RealRuntime::new(0, NetConfig::default());
        rt.add_node(T { fired: vec![] }, NodeSpec::default());
        let t0 = Instant::now();
        rt.run();
        assert!(t0.elapsed() >= Duration::from_millis(20));
        let fired = &rt.node(0).fired;
        assert_eq!(fired.len(), 2);
        assert!(fired[0] >= SimTime(10_000_000));
        assert!(fired[1] >= SimTime(20_000_000));
    }

    #[test]
    fn crash_window_loses_messages_like_the_sim() {
        let load = || {
            let mut sim = pair();
            sim.set_fault_plan(FaultPlan::new(9).crash(
                0,
                SimTime(5_000_000),
                Some(SimTime(30_000_000)),
            ));
            sim.post(SimTime::ZERO, 0, 0, 256); // delivered before the crash
            sim.post(SimTime(10_000_000), 0, 0, 256); // lost mid-outage
            sim.post(SimTime(40_000_000), 0, 0, 256); // delivered after restart
            sim
        };
        let mut sim = load();
        sim.run();
        assert_eq!(sim.node(0).got.len(), 2, "mid-outage message must be lost");
        let mut rt = RealRuntime::pace(load());
        rt.run();
        assert_eq!(rt.node(0).got, sim.node(0).got);
        assert_eq!(rt.sim().net_totals().dropped, sim.net_totals().dropped);
    }
}
