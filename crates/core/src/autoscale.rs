//! The elasticity decision plane: pluggable rent/release policies.
//!
//! Mirrors the placement and shedding decision planes
//! ([`PlacementPolicy`](crate::compute::policy::PlacementPolicy),
//! [`ShedPolicy`](crate::shed::ShedPolicy)): the engine's membership
//! controller decides *how* capacity changes happen (live region
//! migration, graceful drain), and delegates *whether* to change
//! capacity to an [`AutoscalePolicy`] evaluated on a fixed cadence
//! against the cluster's aggregated load signals. One implementation
//! exists per built-in mode ([`autoscale_policy_for`]); custom policies
//! plug in through the engine's `AutoscaleFactory` hook without touching
//! the membership machinery.
//!
//! Determinism contract: `decide` must be a pure function of its
//! arguments and the policy's own (deterministically updated) state —
//! no wall clocks, no global randomness — so elastic runs stay
//! reproducible and thread-count-invariant.

use jl_simkit::time::{SimDuration, SimTime};

/// The cluster-load snapshot an [`AutoscalePolicy`] decides on: what the
/// controller has aggregated from data-node heartbeats since the last
/// evaluation tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleSignals {
    /// Data nodes currently active (serving regions or draining).
    pub active: usize,
    /// Standby data nodes available to rent.
    pub standby: usize,
    /// Floor below which the controller refuses to release.
    pub min_active: usize,
    /// Mean ingest queue depth across active nodes at their last
    /// heartbeat.
    pub mean_queue_depth: f64,
    /// Deepest ingest queue across active nodes at their last heartbeat.
    pub max_queue_depth: u64,
    /// How many active nodes reported backpressure (watermark exceeded)
    /// in their last heartbeat.
    pub pressured: usize,
}

/// What an [`AutoscalePolicy`] wants done this tick. The controller
/// executes at most one membership change per tick: renting activates
/// the lowest-numbered standby and rebalances regions onto it; releasing
/// drains the highest-numbered active node and migrates its regions off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AutoscaleDecision {
    /// No change.
    #[default]
    Hold,
    /// Activate one standby node.
    Rent,
    /// Drain and deactivate one active node.
    Release,
}

/// An elasticity policy: given the current time and the load snapshot,
/// decide whether the active set should grow, shrink, or hold.
pub trait AutoscalePolicy {
    /// Decide this tick. The controller clamps infeasible decisions
    /// (renting with no standby, releasing at `min_active`) to `Hold`.
    fn decide(&mut self, now: SimTime, signals: &AutoscaleSignals) -> AutoscaleDecision;

    /// Short label for reports and traces.
    fn label(&self) -> &'static str;
}

/// Queue-watermark autoscaler with hysteresis and a cooldown: rent when
/// the mean queue depth (or the pressured-node count) says the cluster
/// is saturating, release when it has been comfortably idle, and never
/// flap — a decision starts a cooldown during which the policy holds.
#[derive(Debug, Clone)]
pub struct QueueWatermarkScaler {
    /// Rent when mean queue depth exceeds this.
    pub rent_above: f64,
    /// Release when mean queue depth is below this (strictly less than
    /// `rent_above`, the hysteresis band).
    pub release_below: f64,
    /// Minimum spacing between consecutive non-hold decisions.
    pub cooldown: SimDuration,
    last_action: Option<SimTime>,
}

impl QueueWatermarkScaler {
    /// Build a scaler; panics if the watermarks do not leave a
    /// hysteresis band.
    pub fn new(rent_above: f64, release_below: f64, cooldown: SimDuration) -> Self {
        assert!(
            release_below < rent_above,
            "autoscale watermarks must leave a hysteresis band \
             (release_below {release_below} >= rent_above {rent_above})"
        );
        QueueWatermarkScaler {
            rent_above,
            release_below,
            cooldown,
            last_action: None,
        }
    }
}

impl AutoscalePolicy for QueueWatermarkScaler {
    fn decide(&mut self, now: SimTime, s: &AutoscaleSignals) -> AutoscaleDecision {
        if let Some(last) = self.last_action {
            if now < last + self.cooldown {
                return AutoscaleDecision::Hold;
            }
        }
        // Pressure trumps the mean: one node over its watermark means
        // tuples are about to shed even if the fleet average looks calm.
        let hot = s.mean_queue_depth > self.rent_above || s.pressured > 0;
        let cold = s.mean_queue_depth < self.release_below && s.pressured == 0;
        let decision = if hot && s.standby > 0 {
            AutoscaleDecision::Rent
        } else if cold && s.active > s.min_active {
            AutoscaleDecision::Release
        } else {
            AutoscaleDecision::Hold
        };
        if decision != AutoscaleDecision::Hold {
            self.last_action = Some(now);
        }
        decision
    }

    fn label(&self) -> &'static str {
        "queue-watermark"
    }
}

/// Built-in autoscale modes — the serializable config surface, like
/// [`ShedMode`](crate::shed::ShedMode) is for shedding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AutoscaleMode {
    /// [`QueueWatermarkScaler`] with the given watermarks and cooldown.
    QueueWatermark {
        /// Rent when mean queue depth exceeds this.
        rent_above: f64,
        /// Release when mean queue depth is below this.
        release_below: f64,
        /// Minimum spacing between consecutive non-hold decisions.
        cooldown: SimDuration,
    },
}

impl Default for AutoscaleMode {
    fn default() -> Self {
        AutoscaleMode::QueueWatermark {
            rent_above: 8.0,
            release_below: 1.0,
            cooldown: SimDuration::from_millis(50),
        }
    }
}

/// The built-in autoscale-policy factory: the only place an
/// [`AutoscaleMode`] is turned into behavior.
pub fn autoscale_policy_for(mode: AutoscaleMode) -> Box<dyn AutoscalePolicy> {
    match mode {
        AutoscaleMode::QueueWatermark {
            rent_above,
            release_below,
            cooldown,
        } => Box::new(QueueWatermarkScaler::new(
            rent_above,
            release_below,
            cooldown,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signals(mean: f64, pressured: usize, active: usize, standby: usize) -> AutoscaleSignals {
        AutoscaleSignals {
            active,
            standby,
            min_active: 1,
            mean_queue_depth: mean,
            max_queue_depth: mean.ceil() as u64,
            pressured,
        }
    }

    #[test]
    fn watermark_rents_hot_and_releases_cold() {
        let mut p = QueueWatermarkScaler::new(8.0, 1.0, SimDuration::ZERO);
        assert_eq!(
            p.decide(SimTime(0), &signals(10.0, 0, 2, 1)),
            AutoscaleDecision::Rent
        );
        assert_eq!(
            p.decide(SimTime(1), &signals(0.5, 0, 3, 0)),
            AutoscaleDecision::Release
        );
        // Inside the hysteresis band: hold.
        assert_eq!(
            p.decide(SimTime(2), &signals(4.0, 0, 2, 1)),
            AutoscaleDecision::Hold
        );
    }

    #[test]
    fn pressure_forces_rent_even_with_calm_mean() {
        let mut p = QueueWatermarkScaler::new(8.0, 1.0, SimDuration::ZERO);
        assert_eq!(
            p.decide(SimTime(0), &signals(0.2, 1, 2, 1)),
            AutoscaleDecision::Rent
        );
    }

    #[test]
    fn infeasible_decisions_become_hold() {
        let mut p = QueueWatermarkScaler::new(8.0, 1.0, SimDuration::ZERO);
        // Hot but no standby to rent.
        assert_eq!(
            p.decide(SimTime(0), &signals(10.0, 0, 2, 0)),
            AutoscaleDecision::Hold
        );
        // Cold but already at the floor.
        assert_eq!(
            p.decide(SimTime(1), &signals(0.0, 0, 1, 2)),
            AutoscaleDecision::Hold
        );
    }

    #[test]
    fn cooldown_suppresses_flapping() {
        let mut p = QueueWatermarkScaler::new(8.0, 1.0, SimDuration::from_nanos(100));
        assert_eq!(
            p.decide(SimTime(0), &signals(10.0, 0, 2, 2)),
            AutoscaleDecision::Rent
        );
        // Still hot, but inside the cooldown window.
        assert_eq!(
            p.decide(SimTime(50), &signals(10.0, 0, 3, 1)),
            AutoscaleDecision::Hold
        );
        // Cooldown elapsed: acts again.
        assert_eq!(
            p.decide(SimTime(150), &signals(10.0, 0, 3, 1)),
            AutoscaleDecision::Rent
        );
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_watermarks_panic() {
        QueueWatermarkScaler::new(1.0, 8.0, SimDuration::ZERO);
    }

    #[test]
    fn factory_builds_each_mode() {
        let p = autoscale_policy_for(AutoscaleMode::default());
        assert_eq!(p.label(), "queue-watermark");
    }
}
