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
//! Node-level lifecycle, wire, serve, decision and retry events are emitted
//! by [`ComputeNode`](crate::compute_node::ComputeNode) and
//! [`DataNode`](crate::data_node::DataNode) through the same shared handle.

use std::cell::RefCell;
use std::rc::Rc;

use jl_core::{DecisionEvent, DecisionSink, FnSink, Placement};
use jl_runtime::RuntimeCtx;
use jl_simkit::prelude::*;
use jl_telemetry::{ArgVal, TelemetryHandle, TraceEvent, Track};

use crate::cluster::EKey;

/// Record one node-side trace event, stamped by `mk` from the callback's
/// clock. The closure only runs when a recorder is attached, so untraced
/// runs pay one branch.
#[inline]
pub(crate) fn tel_record<M, C: RuntimeCtx<M>>(
    tel: &Option<TelemetryHandle>,
    ctx: &mut C,
    mk: impl FnOnce(SimTime) -> TraceEvent,
) {
    let Some(t) = tel else { return };
    let ev = mk(ctx.now());
    t.borrow_mut().record(ev);
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
        let mut t = self.tel.borrow_mut();
        t.record(
            TraceEvent::instant(to as u32, Track::Fault, "msg-dropped", at)
                .arg("from", from as u64),
        );
    }

    fn on_delay(&mut self, from: NodeId, to: NodeId, at: SimTime, extra: SimDuration) {
        let mut t = self.tel.borrow_mut();
        t.record(
            TraceEvent::instant(to as u32, Track::Fault, "msg-delayed", at)
                .arg("from", from as u64)
                .arg("extra_us", extra.nanos() / 1_000),
        );
    }

    fn on_fault(&mut self, node: NodeId, kind: FaultKind, at: SimTime) {
        let name = match kind {
            FaultKind::Crash => "crash",
            FaultKind::Restart => "restart",
        };
        let mut t = self.tel.borrow_mut();
        t.record(TraceEvent::instant(node as u32, Track::Fault, name, at));
    }
}

/// One decision captured by the staged tee, pending its drain. Carries
/// the event fields minus the timestamp: decisions are stamped with the
/// callback's sim time when the node drains the stage — which is the
/// callback time the old clock-publishing tee used, since sim time never
/// advances mid-callback.
pub(crate) struct StagedDecision {
    name: &'static str,
    dest: u64,
    rent_eff: f64,
    buy: f64,
    freq: u64,
}

/// Staging buffer between one compute node and its decision sink: the
/// sink pushes, and the node drains right after every optimizer call that
/// can decide.
#[derive(Default)]
pub(crate) struct DecisionStage(RefCell<Vec<StagedDecision>>);

impl DecisionStage {
    /// Record everything staged into `tel`, stamped `now`, reusing the
    /// buffer. Nothing staged (the common case) costs one empty check.
    pub(crate) fn drain(&self, tel: &TelemetryHandle, node: u32, now: SimTime) {
        let mut staged = self.0.borrow_mut();
        if staged.is_empty() {
            return;
        }
        let mut t = tel.borrow_mut();
        for d in staged.drain(..) {
            record_decision(&mut t, node, now, d);
        }
    }
}

/// Build the decision sink for one compute node of a traced run: every
/// [`DecisionEvent`] is staged (the sink lives inside the compute runtime,
/// which has no clock), then flows on to the user's sink, if any. The
/// node drains the stage after each optimizer call, so each decision is
/// recorded at its callback's time — this is how tracing observes the
/// decision plane without changing its golden-tested event shape.
pub(crate) fn decision_tee_staged(
    stage: Rc<DecisionStage>,
    user: Option<Box<dyn DecisionSink<EKey>>>,
) -> Box<dyn DecisionSink<EKey>> {
    let mut user = user;
    Box::new(FnSink(move |ev: &DecisionEvent<'_, EKey>| {
        let name = match ev.placement {
            Placement::Rent => "rent",
            Placement::Buy(_) => "buy",
        };
        stage.0.borrow_mut().push(StagedDecision {
            name,
            dest: ev.dest as u64,
            rent_eff: ev.rent_eff,
            buy: ev.buy,
            freq: ev.freq_count,
        });
        if let Some(u) = user.as_mut() {
            u.on_decision(ev);
        }
    }))
}

/// Record one staged decision: the instant event on the decision track
/// plus the per-node decision counter.
fn record_decision(t: &mut jl_telemetry::Telemetry, node: u32, now: SimTime, d: StagedDecision) {
    t.record_parts(
        node,
        Track::Decision,
        d.name,
        now,
        None,
        &[
            ("dest", ArgVal::U64(d.dest)),
            ("rent_eff", ArgVal::F64(d.rent_eff)),
            ("buy", ArgVal::F64(d.buy)),
            ("freq", ArgVal::U64(d.freq)),
        ],
    );
    t.registry.counter_add(node, "decision", d.name, 1);
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
