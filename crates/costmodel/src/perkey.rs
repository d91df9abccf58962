//! Per-key cost tracking with bounded memory.
//!
//! Costs are key-specific (§4.3): a key's stored value size and UDF time can
//! differ wildly from the average (entity models span bytes to hundreds of
//! megabytes). The first request for a key is always a compute request, and
//! the data node piggybacks the key's cost parameters on the response; this
//! registry holds the smoothed per-key view with global fallbacks, evicting
//! the coldest half when the budget is exceeded.

use rustc_hash::FxHashMap;
use std::hash::Hash;

use crate::smoothing::ExpSmoothed;

/// Smoothed per-key parameters.
#[derive(Debug, Clone)]
struct KeyEntry {
    value_size: ExpSmoothed,
    cpu_secs: ExpSmoothed,
    last_access: u64,
}

/// A key's cost parameters, resolved against global fallbacks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyCosts {
    /// `sv` — stored value size in bytes.
    pub value_size: f64,
    /// UDF CPU seconds for this key.
    pub cpu_secs: f64,
    /// False when both components are global fallbacks (key never seen).
    pub observed: bool,
}

/// Bounded registry of per-key cost estimates.
#[derive(Debug, Clone)]
pub struct PerKeyCosts<K: Hash + Eq + Clone> {
    entries: FxHashMap<K, KeyEntry>,
    alpha: f64,
    capacity: usize,
    clock: u64,
    global_value_size: ExpSmoothed,
    global_cpu: ExpSmoothed,
}

impl<K: Hash + Eq + Clone> PerKeyCosts<K> {
    /// Create a registry tracking at most ~`capacity` keys, smoothing with
    /// `alpha`.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, alpha: f64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        PerKeyCosts {
            entries: FxHashMap::default(),
            alpha,
            capacity,
            clock: 0,
            global_value_size: ExpSmoothed::new(alpha),
            global_cpu: ExpSmoothed::new(alpha),
        }
    }

    /// Record observed parameters for `key` (piggybacked on a response).
    pub fn record(&mut self, key: K, value_size: u64, cpu_secs: f64) {
        self.clock += 1;
        self.global_value_size.update(value_size as f64);
        self.global_cpu.update(cpu_secs);
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            self.evict_cold_half();
        }
        let alpha = self.alpha;
        let clock = self.clock;
        let e = self.entries.entry(key).or_insert_with(|| KeyEntry {
            value_size: ExpSmoothed::new(alpha),
            cpu_secs: ExpSmoothed::new(alpha),
            last_access: clock,
        });
        e.value_size.update(value_size as f64);
        e.cpu_secs.update(cpu_secs);
        e.last_access = clock;
    }

    fn evict_cold_half(&mut self) {
        let mut accesses: Vec<u64> = self.entries.values().map(|e| e.last_access).collect();
        accesses.sort_unstable();
        let cutoff = accesses[accesses.len() / 2];
        self.entries.retain(|_, e| e.last_access > cutoff);
    }

    /// Resolve `key`'s costs, with defaults for never-seen keys.
    pub fn get(&self, key: &K, default_value_size: f64, default_cpu: f64) -> KeyCosts {
        match self.entries.get(key) {
            Some(e) => KeyCosts {
                value_size: e.value_size.get_or(default_value_size),
                cpu_secs: e.cpu_secs.get_or(default_cpu),
                observed: true,
            },
            None => KeyCosts {
                value_size: self.global_value_size.get_or(default_value_size),
                cpu_secs: self.global_cpu.get_or(default_cpu),
                observed: false,
            },
        }
    }

    /// Drop a key (e.g. on update notification).
    pub fn forget(&mut self, key: &K) {
        self.entries.remove(key);
    }

    /// Keys currently tracked.
    pub fn tracked(&self) -> usize {
        self.entries.len()
    }

    /// Global (all-key) smoothed mean value size.
    pub fn global_value_size(&self, default: f64) -> f64 {
        self.global_value_size.get_or(default)
    }

    /// Global (all-key) smoothed mean UDF CPU seconds.
    pub fn global_cpu(&self, default: f64) -> f64 {
        self.global_cpu.get_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unseen_key_uses_global_then_defaults() {
        let mut r: PerKeyCosts<u32> = PerKeyCosts::new(10, 0.5);
        let c = r.get(&1, 500.0, 0.01);
        assert!(!c.observed);
        assert_eq!(c.value_size, 500.0);
        r.record(2, 1000, 0.1);
        // Other keys now fall back to the global average, not the default.
        let c = r.get(&1, 500.0, 0.01);
        assert_eq!(c.value_size, 1000.0);
        assert!(!c.observed);
    }

    #[test]
    fn per_key_overrides_global() {
        let mut r: PerKeyCosts<u32> = PerKeyCosts::new(10, 1.0);
        r.record(1, 100, 0.001);
        r.record(2, 1_000_000, 1.0);
        let c1 = r.get(&1, 0.0, 0.0);
        assert!(c1.observed);
        assert_eq!(c1.value_size, 100.0);
        assert_eq!(c1.cpu_secs, 0.001);
    }

    #[test]
    fn eviction_keeps_recent_keys() {
        let mut r: PerKeyCosts<u32> = PerKeyCosts::new(8, 1.0);
        for k in 0..8 {
            r.record(k, 1, 0.0);
        }
        // Re-touch the newest half, then overflow.
        for k in 4..8 {
            r.record(k, 1, 0.0);
        }
        r.record(100, 1, 0.0);
        assert!(r.tracked() <= 8);
        assert!(r.get(&7, 0.0, 0.0).observed, "hot key evicted");
        assert!(!r.get(&0, 0.0, 0.0).observed, "cold key kept");
    }

    #[test]
    fn forget_removes_key() {
        let mut r: PerKeyCosts<&str> = PerKeyCosts::new(4, 1.0);
        r.record("k", 10, 0.5);
        r.forget(&"k");
        assert!(!r.get(&"k", 0.0, 0.0).observed);
    }

    #[test]
    fn smoothing_applied_per_key() {
        let mut r: PerKeyCosts<u8> = PerKeyCosts::new(4, 0.5);
        r.record(1, 100, 0.0);
        r.record(1, 200, 0.0);
        assert_eq!(r.get(&1, 0.0, 0.0).value_size, 150.0);
    }
}
