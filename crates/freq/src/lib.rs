//! # jl-freq — streaming frequency estimation
//!
//! The optimizer needs per-key access counts to drive ski-rental decisions,
//! but the key universe can be huge, so exact counting of everything is not
//! feasible. The paper uses the Lossy Counting algorithm of Manku & Motwani
//! ("Approximate frequency counts over data streams", VLDB 2002) to keep
//! counts for the frequent keys in bounded space.
//!
//! * [`lossy::LossyCounter`] — the paper's choice: ε-deficient counts in
//!   `O(1/ε · log(εN))` space.
//! * [`spacesaving::SpaceSaving`] — the Metwally et al. alternative with a
//!   hard entry budget; used by `figs ablate freq`.
//! * [`exact::ExactCounter`] — unbounded exact counts, the accuracy baseline.
//!
//! All implement [`FrequencyEstimator`].

#![warn(missing_docs)]

use std::hash::Hash;

pub mod exact;
pub mod lossy;
pub mod spacesaving;

pub use exact::ExactCounter;
pub use lossy::LossyCounter;
pub use spacesaving::SpaceSaving;

/// A streaming counter of key frequencies.
///
/// Estimates may undercount (Lossy Counting) or overcount (Space-Saving)
/// within each algorithm's documented bound; `observe` returns the estimate
/// *after* recording the occurrence.
pub trait FrequencyEstimator<K: Hash + Eq + Clone> {
    /// Record one occurrence of `key`; returns the updated estimate.
    fn observe(&mut self, key: K) -> u64;

    /// Current estimate for `key` (0 if not tracked).
    fn estimate(&self, key: &K) -> u64;

    /// Forget `key` entirely (used when the stored item is updated, so the
    /// ski-rental counter restarts).
    fn reset(&mut self, key: &K);

    /// Total occurrences observed across all keys.
    fn stream_len(&self) -> u64;

    /// Number of keys currently tracked (the space actually used).
    fn tracked(&self) -> usize;

    /// Keys whose estimated frequency is at least `support × stream_len`,
    /// with their estimates, sorted by descending estimate.
    fn heavy_hitters(&self, support: f64) -> Vec<(K, u64)>;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn exercise(mut est: impl FrequencyEstimator<u32>) {
        for _ in 0..90 {
            est.observe(1);
        }
        for _ in 0..10 {
            est.observe(2);
        }
        assert_eq!(est.stream_len(), 100);
        let hh = est.heavy_hitters(0.5);
        assert_eq!(hh.len(), 1);
        assert_eq!(hh[0].0, 1);
        est.reset(&1);
        assert_eq!(est.estimate(&1), 0);
    }

    #[test]
    fn all_impls_share_contract() {
        exercise(ExactCounter::new());
        exercise(LossyCounter::new(0.001));
        exercise(SpaceSaving::new(16));
    }
}
