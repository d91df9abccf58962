//! Algorithm 1's decision core: per-key recurring ski-rental over observed
//! rent/buy costs, with a pluggable frequency estimator.

use std::hash::Hash;
use std::marker::PhantomData;

use jl_freq::{FrequencyEstimator, LossyCounter};
use jl_skirental::{Decision, RecurringSkiRental};

use super::{CacheIntent, DecisionCtx, Placement, PlacementPolicy};
use crate::config::OptimizerConfig;
use crate::types::NodeHealth;

/// Effective-rent multiplier applied when the destination is [`Degraded`]:
/// recent timeouts mean the piggybacked cost estimates understate what a
/// compute request will really take, so renting is priced up, which tips
/// ski-rental toward buying hot keys out of the sick node sooner.
///
/// [`Degraded`]: NodeHealth::Degraded
const DEGRADED_RENT_PENALTY: f64 = 2.0;

/// The CO/FO strategies' policy: rent while the access count is below the
/// (recurring) ski-rental threshold, then buy — into memory if the cache
/// would admit the value, else onto disk if that still pays.
///
/// Generic over the [`FrequencyEstimator`] so the estimator ablation can
/// swap Lossy Counting for Space-Saving or exact counts end-to-end.
pub struct SkiRentalPolicy<K, F = LossyCounter<K>>
where
    K: Hash + Eq + Clone,
    F: FrequencyEstimator<K>,
{
    freq: F,
    scale: f64,
    _key: PhantomData<K>,
}

impl<K> SkiRentalPolicy<K, LossyCounter<K>>
where
    K: Hash + Eq + Clone + Ord,
{
    /// The configured policy: Lossy Counting at `cfg.lossy_epsilon`,
    /// thresholds scaled by `cfg.ski_threshold_scale`.
    pub fn new(cfg: &OptimizerConfig) -> Self {
        Self::with_scale(cfg, cfg.ski_threshold_scale)
    }

    /// Like [`new`](Self::new) with an explicit threshold scale (the
    /// ski-rental ablation sweeps this directly).
    pub fn with_scale(cfg: &OptimizerConfig, scale: f64) -> Self {
        SkiRentalPolicy {
            freq: LossyCounter::new(cfg.lossy_epsilon),
            scale,
            _key: PhantomData,
        }
    }
}

impl<K, F> SkiRentalPolicy<K, F>
where
    K: Hash + Eq + Clone,
    F: FrequencyEstimator<K>,
{
    /// A policy over an arbitrary frequency estimator.
    pub fn with_estimator(freq: F, scale: f64) -> Self {
        SkiRentalPolicy {
            freq,
            scale,
            _key: PhantomData,
        }
    }

    /// The underlying estimator (for harness inspection).
    pub fn estimator(&self) -> &F {
        &self.freq
    }
}

impl<K, F> PlacementPolicy<K> for SkiRentalPolicy<K, F>
where
    K: Hash + Eq + Clone,
    F: FrequencyEstimator<K>,
{
    fn decide(&mut self, key: &K, ctx: &DecisionCtx) -> Placement {
        if ctx.frozen {
            return Placement::Rent;
        }
        let count = self.freq.observe(key.clone());
        if !ctx.observed {
            // First request for a key is always a compute request: costs
            // are unknown until the data node reports them.
            return Placement::Rent;
        }
        if ctx.fetch_in_flight {
            // Purchase already in flight: rent until it lands.
            return Placement::Rent;
        }
        match ctx.dest_health {
            NodeHealth::Down => {
                // Every rent against a dead node times out; buy the value
                // (the failover path serves the fetch from a replica) so
                // future accesses run locally until the node recovers.
                return if ctx.would_cache_mem {
                    Placement::Buy(CacheIntent::Memory)
                } else {
                    Placement::Buy(CacheIntent::Disk)
                };
            }
            NodeHealth::Degraded | NodeHealth::Draining | NodeHealth::Healthy => {}
        }
        let rent_eff = match ctx.dest_health {
            // A draining node is still correct to rent against, but every
            // rent keeps it alive longer — price it like a degraded one so
            // traffic migrates off before the drain barrier.
            NodeHealth::Degraded | NodeHealth::Draining => ctx.rent_eff * DEGRADED_RENT_PENALTY,
            _ => ctx.rent_eff,
        };
        let mem_policy =
            RecurringSkiRental::new(rent_eff.max(1e-12), ctx.rb.buy * self.scale, ctx.rb.rec_mem);
        if mem_policy.decide(count) == Decision::Rent {
            return Placement::Rent;
        }
        if ctx.would_cache_mem {
            return Placement::Buy(CacheIntent::Memory);
        }
        let disk_policy = RecurringSkiRental::new(
            rent_eff.max(1e-12),
            ctx.rb.buy * self.scale,
            ctx.rb.rec_disk,
        );
        if disk_policy.decide(count) == Decision::Rent {
            Placement::Rent
        } else {
            Placement::Buy(CacheIntent::Disk)
        }
    }

    fn on_invalidate(&mut self, key: &K) {
        self.freq.reset(key);
    }

    fn on_cache_hit(&mut self, key: &K) {
        let _ = self.freq.observe(key.clone());
    }

    fn uses_cache(&self) -> bool {
        true
    }

    fn freq_count(&self, key: &K) -> u64 {
        self.freq.estimate(key)
    }
}
