//! The telemetry recorder: a per-run collector of trace events and metrics.
//!
//! A `Telemetry` instance is shared (via [`TelemetryHandle`]) by every
//! actor in one simulation cell. The event loop records from its own
//! thread; the only other threads that touch it are `jl-serve`'s request
//! reader, responder and stats socket, which read or drain it (`METRICS`,
//! `DUMP`) now and then while the loop writes. So the handle needs mutual
//! exclusion to be *sound*, but almost never arbitrates real contention.
//! It therefore uses a single atomic flag plus an `UnsafeCell` rather than
//! a `Mutex`: one uncontended compare-exchange per access instead of a
//! pthread lock, which is what keeps the traced hot path (a `record` per
//! event) cheap.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use jl_simkit::time::SimTime;

use crate::clock::TelemetryClock;
use crate::event::{Arg, Args, EventLog, TraceEvent};
use crate::flight::FlightRecorder;
use crate::registry::MetricsRegistry;

/// Destination for recorded trace events. The default [`VecSink`] buffers
/// them for end-of-run export; a custom sink can stream them elsewhere.
/// `Send` so the recorder behind a [`TelemetryHandle`] can be reached from
/// the threads that read it while the event loop writes.
pub trait TelemetrySink: Send {
    /// Accept one event.
    fn record(&mut self, ev: TraceEvent);
    /// Hand back everything buffered (empty for streaming sinks).
    fn drain(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

/// Buffers every event in order of emission.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Vec<TraceEvent>,
}

impl TelemetrySink for VecSink {
    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// Discards everything. Useful when only the metrics registry is wanted.
#[derive(Debug, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    fn record(&mut self, _ev: TraceEvent) {}
}

/// Configuration for a run's telemetry.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Record span/instant trace events (metrics are always collected once
    /// telemetry is on).
    pub spans: bool,
    /// Arm the flight recorder with this per-generation event capacity: a
    /// bounded ring of recent events that every recorded event is teed
    /// into, dumpable mid-run (see [`crate::flight::FlightRecorder`]).
    /// Independent of `spans` — a long-running server arms the ring with
    /// spans *off*, so nothing grows without bound.
    pub flight: Option<usize>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            spans: true,
            flight: None,
        }
    }
}

impl TelemetryConfig {
    /// Default config with the flight recorder armed at `cap` events per
    /// generation.
    pub fn with_flight(cap: usize) -> Self {
        TelemetryConfig {
            flight: Some(cap),
            ..Default::default()
        }
    }

    /// Ring-only config: no unbounded span buffer, flight recorder armed —
    /// the always-on serving shape.
    pub fn flight_only(cap: usize) -> Self {
        TelemetryConfig {
            spans: false,
            flight: Some(cap),
        }
    }
}

/// The recorder's event destination: the built-in compact log, stored
/// inline so the hot [`Telemetry::record`] path is a direct (inlinable)
/// push, or a user-supplied sink behind a virtual call.
enum SinkImpl {
    Buffer(EventLog),
    Custom(Box<dyn TelemetrySink>),
}

/// Per-run telemetry collector: trace-event sink plus metrics registry,
/// stamped exclusively with simulated time.
pub struct Telemetry {
    sink: SinkImpl,
    /// Metrics cells, keyed `(node, scope, name)`.
    pub registry: MetricsRegistry,
    now: SimTime,
    spans: bool,
    /// Bounded ring of recent events, teed from every record when armed.
    ring: Option<FlightRecorder>,
    /// Source of [`Telemetry::now`] when installed (wall clock on the real
    /// backend); `None` keeps the manual `set_now` clock.
    clock: Option<Box<dyn TelemetryClock>>,
}

impl Telemetry {
    /// New recorder buffering events internally. With spans on, the log
    /// is pre-sized generously: instrumented runs record hundreds of
    /// thousands of events, and reserving up front keeps buffer regrowth
    /// (a multi-megabyte copy by the end of a big run) out of the hot
    /// path. The reservation is virtual address space — untouched pages
    /// cost nothing.
    pub fn new(config: TelemetryConfig) -> Self {
        let events = if config.spans {
            EventLog::with_capacity(256 * 1024)
        } else {
            EventLog::new()
        };
        Telemetry {
            sink: SinkImpl::Buffer(events),
            registry: MetricsRegistry::new(),
            now: SimTime::ZERO,
            spans: config.spans,
            ring: config.flight.map(FlightRecorder::new),
            clock: None,
        }
    }

    /// New recorder with a custom sink.
    pub fn with_sink(config: TelemetryConfig, sink: Box<dyn TelemetrySink>) -> Self {
        Telemetry {
            sink: SinkImpl::Custom(sink),
            registry: MetricsRegistry::new(),
            now: SimTime::ZERO,
            spans: config.spans,
            ring: config.flight.map(FlightRecorder::new),
            clock: None,
        }
    }

    /// Install a clock as the source of [`Telemetry::now`]. The simulator
    /// never installs one (its traces must be a pure function of sim
    /// inputs); the wall-clock backend lends its run clock so out-of-band
    /// consumers — windowed metrics, live snapshots — see real time.
    pub fn set_clock(&mut self, clock: Box<dyn TelemetryClock>) {
        self.clock = Some(clock);
    }

    /// Advance the recorder's clock for callers that stamp events with
    /// [`Telemetry::now`]. The engine stamps every event from its own
    /// callback clock instead (a per-callback `set_now` was measurable
    /// overhead), so this exists for out-of-band recording — tests,
    /// ad-hoc tooling — not the hot path.
    #[inline]
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// The recorder's current time: the installed
    /// [`clock`](Telemetry::set_clock) when present, else the manual
    /// `set_now` clock.
    #[inline]
    pub fn now(&self) -> SimTime {
        match &self.clock {
            Some(c) => c.now(),
            None => self.now,
        }
    }

    /// Whether span recording is enabled.
    #[inline]
    pub fn spans_enabled(&self) -> bool {
        self.spans
    }

    /// Whether recorded events go anywhere: the span buffer/sink, the
    /// flight ring, or both. Emitters gate on this — with spans off but
    /// the ring armed, events still flow (into bounded memory).
    #[inline]
    pub fn events_enabled(&self) -> bool {
        self.spans || self.ring.is_some()
    }

    /// Record a trace event. Teed into the flight ring when armed;
    /// dropped from the span buffer when spans are disabled.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if let Some(ring) = &mut self.ring {
            let args: Vec<Arg> = ev.args.iter().cloned().collect();
            ring.record_parts(ev.node, ev.track, ev.name, ev.start, ev.dur, &args);
        }
        if self.spans {
            match &mut self.sink {
                SinkImpl::Buffer(events) => events.push(ev),
                SinkImpl::Custom(sink) => sink.record(ev),
            }
        }
    }

    /// Record a trace event from its parts — the allocation-free fast
    /// path for hot emitters, see [`EventLog::push_parts`]. Teed into the
    /// flight ring when armed; dropped from the span buffer when spans
    /// are disabled. A custom sink still receives a whole [`TraceEvent`],
    /// assembled here on the cold branch.
    #[inline]
    pub fn record_parts(
        &mut self,
        node: u32,
        track: crate::event::Track,
        name: &'static str,
        start: SimTime,
        dur: Option<jl_simkit::time::SimDuration>,
        args: &[Arg],
    ) {
        if let Some(ring) = &mut self.ring {
            ring.record_parts(node, track, name, start, dur, args);
        }
        if !self.spans {
            return;
        }
        match &mut self.sink {
            SinkImpl::Buffer(events) => events.push_parts(node, track, name, start, dur, args),
            SinkImpl::Custom(sink) => {
                let mut list = Args::new();
                for (key, val) in args {
                    list.push(key, val.clone());
                }
                sink.record(TraceEvent {
                    node,
                    track,
                    name,
                    start,
                    dur,
                    args: list,
                });
            }
        }
    }

    /// Drain the flight ring, if armed: both generations, oldest first,
    /// leaving the ring empty and still recording. O(1) under the
    /// recorder lock — stitch the generations with
    /// [`crate::flight::stitch`] *after* releasing the guard.
    pub fn drain_flight(&mut self) -> Option<(EventLog, EventLog)> {
        self.ring.as_mut().map(|r| r.drain())
    }

    /// Flight-ring liveness: `(events ever recorded, events retained)`,
    /// or `None` when the ring is not armed.
    pub fn flight_stats(&self) -> Option<(u64, usize)> {
        self.ring.as_ref().map(|r| (r.recorded(), r.len()))
    }

    /// Tear down, returning the buffered event log and the metrics
    /// registry. A custom sink's drained events are repacked into a log so
    /// both paths hand back the same shape. The flight ring, if still
    /// armed, is dropped — dumps are a mid-run affair
    /// ([`Telemetry::drain_flight`]).
    pub fn finish(self) -> (EventLog, MetricsRegistry) {
        let events = match self.sink {
            SinkImpl::Buffer(events) => events,
            SinkImpl::Custom(mut sink) => EventLog::from(sink.drain()),
        };
        (events, self.registry)
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("now", &self.now)
            .field("spans", &self.spans)
            .field("flight", &self.ring.as_ref().map(|r| r.capacity()))
            .field("registry_len", &self.registry.len())
            .finish()
    }
}

/// The shared cell behind a [`TelemetryHandle`]: an exclusive-access flag
/// guarding the recorder. Access is always uncontended by construction
/// (one thread at a time, see the module docs), so exclusion is a single
/// compare-exchange; genuine contention — a bug in the calling kernel —
/// spins, and a double-borrow from one thread panics via the same path a
/// `RefCell` would (after a bounded spin), instead of deadlocking.
struct TelemetryCell {
    busy: AtomicBool,
    inner: UnsafeCell<Telemetry>,
}

// SAFETY: `inner` is only reached through `TelemetryGuard`, whose
// construction wins the `busy` compare-exchange (Acquire) and whose drop
// releases it (Release) — classic spinlock exclusion.
unsafe impl Sync for TelemetryCell {}
unsafe impl Send for TelemetryCell {}

/// Exclusive access to a shared recorder (see [`TelemetryHandle`]).
pub struct TelemetryGuard<'a> {
    cell: &'a TelemetryCell,
}

impl Deref for TelemetryGuard<'_> {
    type Target = Telemetry;
    #[inline]
    fn deref(&self) -> &Telemetry {
        // SAFETY: the guard holds the `busy` flag.
        unsafe { &*self.cell.inner.get() }
    }
}

impl DerefMut for TelemetryGuard<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut Telemetry {
        // SAFETY: the guard holds the `busy` flag exclusively.
        unsafe { &mut *self.cell.inner.get() }
    }
}

impl Drop for TelemetryGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.cell.busy.store(false, Ordering::Release);
    }
}

/// Shared handle to one simulation cell's recorder.
///
/// An `Arc` over a one-flag exclusive cell: `jl-serve` reads the recorder
/// from its reader, responder and stats-socket threads while the loop
/// thread writes it, so the handle must be shareable across threads, but
/// those reads are rare and a pthread mutex on the per-event hot path was
/// the bulk of the traced-run overhead. The `borrow`/`borrow_mut` names are kept so
/// call sites read the same as the `RefCell` era; both take exclusive
/// access.
#[derive(Clone)]
pub struct TelemetryHandle(Arc<TelemetryCell>);

impl TelemetryHandle {
    /// Wrap a recorder in a shared handle.
    pub fn new(telemetry: Telemetry) -> Self {
        TelemetryHandle(Arc::new(TelemetryCell {
            busy: AtomicBool::new(false),
            inner: UnsafeCell::new(telemetry),
        }))
    }

    #[inline]
    fn lock(&self) -> TelemetryGuard<'_> {
        if self
            .0
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.lock_slow();
        }
        TelemetryGuard { cell: &self.0 }
    }

    /// Contended path, kept out of line: spin briefly (another thread is
    /// mid-record — possible only if the calling kernel broke its
    /// one-thread-at-a-time contract), then treat a persistent holder as a
    /// same-thread double borrow and panic like `RefCell` would.
    #[cold]
    fn lock_slow(&self) {
        for _ in 0..1_000_000 {
            std::hint::spin_loop();
            if self
                .0
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
        panic!("telemetry recorder already borrowed (recursive borrow_mut?)");
    }

    /// Shared access to the recorder.
    #[inline]
    pub fn borrow(&self) -> TelemetryGuard<'_> {
        self.lock()
    }

    /// Exclusive access to the recorder.
    #[inline]
    pub fn borrow_mut(&self) -> TelemetryGuard<'_> {
        self.lock()
    }

    /// Unwrap the recorder at end of run.
    ///
    /// # Panics
    /// Panics if other handles are still alive (actors must be dropped
    /// before the run's telemetry is finalized).
    pub fn into_inner(self) -> Telemetry {
        match Arc::try_unwrap(self.0) {
            Ok(cell) => cell.inner.into_inner(),
            Err(_) => panic!("telemetry handle still shared at finalization"),
        }
    }
}

impl std::fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("TelemetryHandle").finish()
    }
}

/// Build a shared recorder handle.
pub fn shared(config: TelemetryConfig) -> TelemetryHandle {
    TelemetryHandle::new(Telemetry::new(config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Track;

    #[test]
    fn records_and_drains() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        t.set_now(SimTime(42));
        t.record(TraceEvent::instant(0, Track::Fault, "crash", t.now()));
        t.registry.counter_add(0, "fault", "crashes", 1);
        let (events, registry) = t.finish();
        assert_eq!(events.len(), 1);
        assert_eq!(events.iter().next().unwrap().start, SimTime(42));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn spans_disabled_drops_events_but_keeps_metrics() {
        let mut t = Telemetry::new(TelemetryConfig {
            spans: false,
            ..Default::default()
        });
        t.record(TraceEvent::instant(0, Track::Fault, "crash", SimTime::ZERO));
        t.registry.counter_add(0, "fault", "crashes", 1);
        assert!(!t.spans_enabled());
        let (events, registry) = t.finish();
        assert!(events.is_empty());
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn shared_handle_is_cloneable() {
        let h = shared(TelemetryConfig::default());
        let h2 = h.clone();
        h.borrow_mut().set_now(SimTime(7));
        assert_eq!(h2.borrow().now(), SimTime(7));
    }
}
