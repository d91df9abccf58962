//! The decision plane: pluggable per-key placement policies.
//!
//! [`ComputeRuntime`](super::ComputeRuntime) owns the *execution* plane —
//! batching, in-flight bookkeeping, the cache, cost measurement. Every
//! rent-vs-buy choice is delegated to a [`PlacementPolicy`]: the runtime
//! prices the key (a [`DecisionCtx`] built from the
//! [`CostTracker`](super::costs::CostTracker)) and the policy answers with
//! a [`Placement`]. One implementation exists per paper strategy
//! ([`policy_for`]); custom policies plug in through
//! [`ComputeRuntime::with_policy`](super::ComputeRuntime::with_policy)
//! without touching the runtime.
//!
//! Every decision is also offered to an optional [`DecisionSink`] — a
//! no-op by default — so harnesses can trace or aggregate the decision
//! stream without instrumenting the runtime.

mod fixed;
mod skirental;

pub use fixed::{ComputeSidePolicy, DataSidePolicy, RandomPolicy};
pub use skirental::SkiRentalPolicy;

use std::hash::Hash;

use jl_costmodel::{RentBuyCosts, SizeProfile};

use crate::config::{OptimizerConfig, Strategy};
use crate::types::{CostInfo, NodeHealth};

/// Where a fetched value should land if the policy buys (Algorithm 1
/// lines 15 vs 19).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheIntent {
    /// Admit to the memory tier on arrival.
    Memory,
    /// Admit to the disk tier on arrival.
    Disk,
    /// Use once and drop (non-caching strategies).
    None,
}

/// A placement decision for one tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Rent: send a compute request; the UDF runs at the data node.
    Rent,
    /// Buy: fetch the stored value and run locally, caching per the intent.
    Buy(CacheIntent),
}

/// Everything the runtime knows about one key at decision time.
#[derive(Debug, Clone, Copy)]
pub struct DecisionCtx {
    /// Destination data node owning the key.
    pub dest: usize,
    /// The cache is frozen (`freeze_cache_after` exceeded): buying is off
    /// the table.
    pub frozen: bool,
    /// Per-key costs have been observed at least once; until then the
    /// rent/buy prices below are built from fallbacks.
    pub observed: bool,
    /// A purchase for this key is already in flight; further accesses
    /// should rent until the value lands.
    pub fetch_in_flight: bool,
    /// The memory tier would admit this value at its current size.
    pub would_cache_mem: bool,
    /// Message/value sizes entering the cost model.
    pub sizes: SizeProfile,
    /// The §4.1 rent/buy cost bundle for this key at this destination.
    pub rb: RentBuyCosts,
    /// Bounce-aware effective rent (see
    /// [`DecisionCosts`](super::costs::DecisionCosts)).
    pub rent_eff: f64,
    /// The runtime's current belief about the destination's availability
    /// (timeout/reply driven; `Healthy` when no failure model is active).
    pub dest_health: NodeHealth,
}

/// A per-key placement policy: the decision plane of the compute runtime.
///
/// Implementations are driven by the runtime: [`decide`] on every cache
/// miss, [`on_cache_hit`] on every (unfrozen) hit, [`on_feedback`] for
/// every cost report, [`on_invalidate`] when a key's stored value changed.
///
/// [`decide`]: PlacementPolicy::decide
/// [`on_cache_hit`]: PlacementPolicy::on_cache_hit
/// [`on_feedback`]: PlacementPolicy::on_feedback
/// [`on_invalidate`]: PlacementPolicy::on_invalidate
pub trait PlacementPolicy<K> {
    /// Choose a placement for one tuple that missed the cache.
    fn decide(&mut self, key: &K, ctx: &DecisionCtx) -> Placement;

    /// Cost feedback arrived for `key` (already folded into the tracker
    /// the runtime prices [`DecisionCtx`] from).
    fn on_feedback(&mut self, _key: &K, _cost: &CostInfo) {}

    /// `key`'s stored value changed (version bump or update notice):
    /// forget its history.
    fn on_invalidate(&mut self, _key: &K) {}

    /// `key` was served from the local cache (only called while the cache
    /// is not frozen).
    fn on_cache_hit(&mut self, _key: &K) {}

    /// Whether the runtime should maintain the value cache for this
    /// policy (lookups, benefit updates, admissions).
    fn uses_cache(&self) -> bool {
        false
    }

    /// The policy's current frequency estimate for `key` (0 when the
    /// policy keeps no counts). Reported to [`DecisionSink`]s.
    fn freq_count(&self, _key: &K) -> u64 {
        0
    }
}

/// One placement decision, as offered to a [`DecisionSink`].
#[derive(Debug, Clone, Copy)]
pub struct DecisionEvent<'a, K> {
    /// The tuple's join key.
    pub key: &'a K,
    /// Destination data node owning the key.
    pub dest: usize,
    /// The decision taken.
    pub placement: Placement,
    /// Rent price (`tCompute`) at decision time.
    pub rent: f64,
    /// Buy price (`tFetch`) at decision time.
    pub buy: f64,
    /// Recurring cost after buying into memory.
    pub rec_mem: f64,
    /// Bounce-aware effective rent actually compared against.
    pub rent_eff: f64,
    /// The policy's frequency estimate for the key (0 if untracked).
    pub freq_count: u64,
    /// Whether the cache was frozen at decision time.
    pub frozen: bool,
}

/// Observer of the decision stream. The runtime calls this after every
/// [`PlacementPolicy::decide`]; the default configuration installs none.
pub trait DecisionSink<K> {
    /// One decision was taken.
    fn on_decision(&mut self, event: &DecisionEvent<'_, K>);
}

/// Closure adapter for [`DecisionSink`], so harnesses can observe the
/// decision stream (or tee it into telemetry *and* a user sink) without
/// defining a named type.
pub struct FnSink<F>(pub F);

impl<K, F> DecisionSink<K> for FnSink<F>
where
    F: FnMut(&DecisionEvent<'_, K>),
{
    fn on_decision(&mut self, event: &DecisionEvent<'_, K>) {
        (self.0)(event);
    }
}

/// The paper-strategy policy factory: the only place a [`Strategy`] is
/// turned into behavior. `seed` feeds [`RandomPolicy`] so runs stay
/// reproducible.
pub fn policy_for<K>(cfg: &OptimizerConfig, seed: u64) -> Box<dyn PlacementPolicy<K>>
where
    K: Hash + Eq + Clone + Ord + 'static,
{
    match cfg.strategy {
        Strategy::NoOpt | Strategy::ComputeSide => Box::new(ComputeSidePolicy),
        Strategy::DataSide | Strategy::BalanceOnly => Box::new(DataSidePolicy),
        Strategy::Random => Box::new(RandomPolicy::new(seed)),
        Strategy::CacheOnly | Strategy::Full => Box::new(SkiRentalPolicy::new(cfg)),
    }
}

#[cfg(test)]
mod fn_sink_tests {
    use super::*;

    #[test]
    fn fn_sink_forwards_events() {
        let ev = DecisionEvent {
            key: &42u64,
            dest: 3,
            placement: Placement::Rent,
            rent: 1.0,
            buy: 2.0,
            rec_mem: 0.1,
            rent_eff: 1.0,
            freq_count: 0,
            frozen: false,
        };
        let mut seen: Vec<(u64, usize)> = Vec::new();
        {
            let mut sink = FnSink(|ev: &DecisionEvent<'_, u64>| seen.push((*ev.key, ev.dest)));
            sink.on_decision(&ev);
            sink.on_decision(&ev);
        }
        assert_eq!(seen, vec![(42, 3), (42, 3)]);
    }
}
