//! Engine-side telemetry bridge.
//!
//! Connects the kernel's [`SimProbe`] hook and the cluster nodes to a
//! [`jl_telemetry::Telemetry`] recorder. Everything here stamps events with
//! **simulated** time (the probe callbacks carry it; node-side events are
//! stamped from the node's `Ctx` clock), so traces are byte-identical
//! regardless of how many host threads run the experiment grid.
//!
//! The probe turns every non-trivial resource grant into a complete span on
//! the matching per-node track (`cpu` / `disk` / `nic-out` / `nic-in`) and
//! every injected network/node fault into an instant on the `fault` track.
//! Node-level lifecycle, wire, serve, decision, retry and membership events
//! are emitted by [`ComputeNode`](crate::compute_node::ComputeNode),
//! [`DataNode`](crate::data_node::DataNode) and the controller, each
//! through its `NodeTrace`.

use jl_core::{DecisionEvent, DecisionSink, FnSink, Placement};
use jl_simkit::prelude::*;
use jl_telemetry::{Arg, ArgVal, TelemetryHandle, Track};

use crate::cluster::EKey;

/// One node's tracing handle: the run's shared recorder, when the run is
/// traced, and the node's id in the trace (its sim node id, the Chrome
/// `pid`). Untraced runs pay one `None` branch per emission site; the
/// argument closures run only when a recorder is attached, so an untraced
/// run builds no argument value.
#[derive(Default)]
pub(crate) struct NodeTrace {
    tel: Option<TelemetryHandle>,
    node: u32,
}

impl NodeTrace {
    /// Attach the run's recorder, recording as trace process `node`.
    pub(crate) fn attach(&mut self, tel: TelemetryHandle, node: u32) {
        self.tel = Some(tel);
        self.node = node;
    }

    /// Whether a recorder is attached.
    pub(crate) fn is_on(&self) -> bool {
        self.tel.is_some()
    }

    /// Record an instant event at `at`.
    #[inline]
    pub(crate) fn instant<const N: usize>(
        &self,
        track: Track,
        name: &'static str,
        at: SimTime,
        args: impl FnOnce() -> [Arg; N],
    ) {
        self.record(track, name, at, None, args);
    }

    /// Record an instant on the `fault` track whose arguments are already
    /// built (the migration table's trace effects).
    pub(crate) fn fault(&self, name: &'static str, at: SimTime, args: &[Arg]) {
        if let Some(t) = &self.tel {
            t.borrow_mut()
                .record_parts(self.node, Track::Fault, name, at, None, args);
        }
    }

    /// Record a complete span covering `[start, end]`.
    #[inline]
    pub(crate) fn span<const N: usize>(
        &self,
        track: Track,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        args: impl FnOnce() -> [Arg; N],
    ) {
        self.record(track, name, start, Some(end.since(start)), args);
    }

    #[inline]
    fn record<const N: usize>(
        &self,
        track: Track,
        name: &'static str,
        start: SimTime,
        dur: Option<SimDuration>,
        args: impl FnOnce() -> [Arg; N],
    ) {
        let Some(t) = &self.tel else { return };
        let args = args();
        t.borrow_mut()
            .record_parts(self.node, track, name, start, dur, &args);
    }
}

/// Kernel probe that records resource grants and fault-plan effects as
/// trace events. Installed by the runner only when a job asks for
/// telemetry; an uninstrumented run never constructs one.
pub struct EngineProbe {
    tel: TelemetryHandle,
    /// [`Telemetry::events_enabled`](jl_telemetry::Telemetry::events_enabled),
    /// cached at construction: `on_grant` fires for every resource grant of
    /// the run, and the cached flag turns the all-sinks-off case into a
    /// branch instead of a `RefCell` borrow. True when either the span
    /// buffer or the flight ring wants events (the recorder routes
    /// internally); fixed per run — nothing toggles recording mid-flight.
    events: bool,
}

impl EngineProbe {
    /// Bridge kernel callbacks into `tel`.
    pub fn new(tel: TelemetryHandle) -> Self {
        let events = tel.borrow().events_enabled();
        EngineProbe { tel, events }
    }
}

impl SimProbe for EngineProbe {
    fn on_grant(
        &mut self,
        node: NodeId,
        kind: ResourceKind,
        ready: SimTime,
        service: SimDuration,
        grant: Grant,
    ) {
        if !self.events || service == SimDuration::ZERO {
            return;
        }
        let track = match kind {
            ResourceKind::Cpu => Track::Cpu,
            ResourceKind::Disk => Track::Disk,
            ResourceKind::NicOut => Track::NicOut,
            ResourceKind::NicIn => Track::NicIn,
        };
        let wait = grant.start.since(ready);
        let args = [("wait_us", ArgVal::U64(wait.nanos() / 1_000))];
        let used = usize::from(wait > SimDuration::ZERO);
        self.tel.borrow_mut().record_parts(
            node as u32,
            track,
            "service",
            grant.start,
            Some(grant.done.since(grant.start)),
            &args[..used],
        );
    }

    fn on_drop(&mut self, from: NodeId, to: NodeId, at: SimTime) {
        let args = [("from", ArgVal::U64(from as u64))];
        self.tel
            .borrow_mut()
            .record_parts(to as u32, Track::Fault, "msg-dropped", at, None, &args);
    }

    fn on_delay(&mut self, from: NodeId, to: NodeId, at: SimTime, extra: SimDuration) {
        let args = [
            ("from", ArgVal::U64(from as u64)),
            ("extra_us", ArgVal::U64(extra.nanos() / 1_000)),
        ];
        self.tel
            .borrow_mut()
            .record_parts(to as u32, Track::Fault, "msg-delayed", at, None, &args);
    }

    fn on_fault(&mut self, node: NodeId, kind: FaultKind, at: SimTime) {
        let name = match kind {
            FaultKind::Crash => "crash",
            FaultKind::Restart => "restart",
        };
        self.tel
            .borrow_mut()
            .record_parts(node as u32, Track::Fault, name, at, None, &[]);
    }
}

/// Build the decision sink for one compute node of a traced run: every
/// [`DecisionEvent`] is recorded at its own time on trace process `node`
/// — an instant on the decision track plus the per-node decision counter
/// — then flows on to the user's sink, if any.
pub(crate) fn decision_tee(
    tel: TelemetryHandle,
    node: u32,
    mut user: Option<Box<dyn DecisionSink<EKey>>>,
) -> Box<dyn DecisionSink<EKey>> {
    Box::new(FnSink(move |ev: &DecisionEvent<'_, EKey>| {
        let name = match ev.placement {
            Placement::Rent => "rent",
            Placement::Buy(_) => "buy",
        };
        let args = [
            ("dest", ArgVal::U64(ev.dest as u64)),
            ("rent_eff", ArgVal::F64(ev.rent_eff)),
            ("buy", ArgVal::F64(ev.buy)),
            ("freq", ArgVal::U64(ev.freq_count)),
        ];
        let mut t = tel.borrow_mut();
        t.record_parts(node, Track::Decision, name, ev.at, None, &args);
        t.registry.counter_add(node, "decision", name, 1);
        drop(t);
        if let Some(u) = user.as_mut() {
            u.on_decision(ev);
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jl_telemetry::TelemetryConfig;

    #[test]
    fn probe_skips_zero_service_grants() {
        let tel = jl_telemetry::shared(TelemetryConfig::default());
        let mut p = EngineProbe::new(tel.clone());
        let g = Grant {
            start: SimTime(5),
            done: SimTime(5),
        };
        p.on_grant(0, ResourceKind::Cpu, SimTime(5), SimDuration::ZERO, g);
        let g2 = Grant {
            start: SimTime(10),
            done: SimTime(30),
        };
        p.on_grant(1, ResourceKind::Disk, SimTime(5), SimDuration(20), g2);
        p.on_fault(2, FaultKind::Crash, SimTime(40));
        drop(p);
        let tel = tel.into_inner();
        let (events, _) = tel.finish();
        assert_eq!(events.len(), 2);
        let evs: Vec<_> = events.iter().collect();
        assert_eq!(evs[0].node, 1);
        assert_eq!(evs[0].track, Track::Disk);
        assert_eq!(evs[0].start, SimTime(10));
        assert_eq!(evs[1].name, "crash");
    }
}
