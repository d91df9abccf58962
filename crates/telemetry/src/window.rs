//! Sliding-window metrics: quantiles and rates over the recent past.
//!
//! The registry's [`DurationHistogram`] cells aggregate over the whole
//! run — the right shape for a finite simulation, useless for a server
//! that has been up for a week and wants "p99 over the last ten seconds".
//! [`WindowedHistogram`] keeps a ring of per-slot histograms and rotates
//! as time passes: recording touches only the current slot, a snapshot
//! merges the live slots (histogram merge is exact, so a windowed
//! quantile equals a brute-force recompute over the retained samples —
//! the property test below pins that). [`WindowedCounter`] is the same
//! ring over plain counts, answering events/second over the window.
//!
//! Time comes from the caller (the serve layer passes its run clock), so
//! the same type serves sim-time tests and wall-clock serving.

use jl_simkit::stats::DurationHistogram;
use jl_simkit::time::{SimDuration, SimTime};

/// What a windowed histogram answers at snapshot time.
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    /// Width of the full window (slot width × slot count).
    pub window: SimDuration,
    /// Samples retained in the window.
    pub count: u64,
    /// Samples per second over the window.
    pub rate_per_sec: f64,
    /// Median of the retained samples.
    pub p50: SimDuration,
    /// 90th percentile.
    pub p90: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// Largest retained sample.
    pub max: SimDuration,
}

/// Ring of per-slot [`DurationHistogram`]s giving sliding-window
/// quantiles. With `n` slots of width `w`, a snapshot covers between
/// `(n-1)·w` and `n·w` of history — the current (partial) slot plus
/// `n-1` full ones. Rotation is O(slots) worst case and amortized O(1);
/// recording is one histogram insert.
#[derive(Debug)]
pub struct WindowedHistogram {
    slots: Vec<DurationHistogram>,
    slot_width: SimDuration,
    /// Start of the current slot; samples before it rotate the ring.
    slot_start: SimTime,
    cur: usize,
}

impl WindowedHistogram {
    /// A window of `slots` slots, each `slot_width` wide.
    ///
    /// # Panics
    /// Panics on zero slots or zero width.
    pub fn new(slots: usize, slot_width: SimDuration) -> Self {
        assert!(slots > 0, "windowed histogram needs at least one slot");
        assert!(slot_width > SimDuration::ZERO, "slot width must be nonzero");
        WindowedHistogram {
            slots: (0..slots).map(|_| DurationHistogram::new()).collect(),
            slot_width,
            slot_start: SimTime::ZERO,
            cur: 0,
        }
    }

    /// Width of the full window.
    pub fn window(&self) -> SimDuration {
        SimDuration(self.slot_width.nanos() * self.slots.len() as u64)
    }

    /// Rotate the ring so `now` falls in the current slot, clearing every
    /// slot whose retention expired. A gap longer than the whole window
    /// clears everything in one pass.
    fn advance(&mut self, now: SimTime) {
        if now < self.slot_start {
            // Time never runs backwards on either clock; tolerate a stale
            // reading by folding it into the current slot.
            return;
        }
        let elapsed = now.since(self.slot_start).nanos() / self.slot_width.nanos();
        if elapsed == 0 {
            return;
        }
        let n = self.slots.len() as u64;
        for _ in 0..elapsed.min(n) {
            self.cur = (self.cur + 1) % self.slots.len();
            self.slots[self.cur] = DurationHistogram::new();
        }
        self.slot_start += SimDuration(elapsed * self.slot_width.nanos());
    }

    /// Record one sample observed at `now`.
    pub fn record(&mut self, now: SimTime, sample: SimDuration) {
        self.advance(now);
        self.slots[self.cur].record(sample);
    }

    /// Merge the retained slots and answer window quantiles as of `now`.
    pub fn snapshot(&mut self, now: SimTime) -> WindowSnapshot {
        self.advance(now);
        let mut merged = DurationHistogram::new();
        for s in &self.slots {
            merged.merge(s);
        }
        let window = self.window();
        WindowSnapshot {
            window,
            count: merged.count(),
            rate_per_sec: merged.count() as f64 / window.as_secs_f64(),
            p50: merged.quantile(0.50),
            p90: merged.quantile(0.90),
            p99: merged.quantile(0.99),
            max: merged.max(),
        }
    }
}

/// Sliding-window counter: the [`WindowedHistogram`] ring over bare
/// counts, for rates of discrete events (requests, sheds, malformed
/// lines) without per-sample durations.
#[derive(Debug)]
pub struct WindowedCounter {
    slots: Vec<u64>,
    slot_width: SimDuration,
    slot_start: SimTime,
    cur: usize,
}

impl WindowedCounter {
    /// A window of `slots` slots, each `slot_width` wide.
    ///
    /// # Panics
    /// Panics on zero slots or zero width.
    pub fn new(slots: usize, slot_width: SimDuration) -> Self {
        assert!(slots > 0, "windowed counter needs at least one slot");
        assert!(slot_width > SimDuration::ZERO, "slot width must be nonzero");
        WindowedCounter {
            slots: vec![0; slots],
            slot_width,
            slot_start: SimTime::ZERO,
            cur: 0,
        }
    }

    fn advance(&mut self, now: SimTime) {
        if now < self.slot_start {
            return;
        }
        let elapsed = now.since(self.slot_start).nanos() / self.slot_width.nanos();
        if elapsed == 0 {
            return;
        }
        let n = self.slots.len() as u64;
        for _ in 0..elapsed.min(n) {
            self.cur = (self.cur + 1) % self.slots.len();
            self.slots[self.cur] = 0;
        }
        self.slot_start += SimDuration(elapsed * self.slot_width.nanos());
    }

    /// Count `delta` events observed at `now`.
    pub fn add(&mut self, now: SimTime, delta: u64) {
        self.advance(now);
        self.slots[self.cur] += delta;
    }

    /// Events retained in the window as of `now`.
    pub fn count(&mut self, now: SimTime) -> u64 {
        self.advance(now);
        self.slots.iter().sum()
    }

    /// Events per second over the window as of `now`.
    pub fn rate_per_sec(&mut self, now: SimTime) -> f64 {
        let window = SimDuration(self.slot_width.nanos() * self.slots.len() as u64);
        self.count(now) as f64 / window.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rotation_expires_old_samples() {
        let w = SimDuration::from_secs(1);
        let mut h = WindowedHistogram::new(4, w);
        h.record(SimTime::ZERO, SimDuration::from_millis(5));
        let snap = h.snapshot(SimTime::ZERO);
        assert_eq!(snap.count, 1);
        // Still retained three slots later…
        let snap = h.snapshot(SimTime(3_500_000_000));
        assert_eq!(snap.count, 1);
        // …gone once the ring wraps past its slot.
        let snap = h.snapshot(SimTime(4_000_000_000));
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p99, SimDuration::ZERO);
    }

    #[test]
    fn long_gap_clears_everything() {
        let mut h = WindowedHistogram::new(4, SimDuration::from_secs(1));
        for i in 0..4u64 {
            h.record(SimTime(i * 1_000_000_000), SimDuration::from_micros(i + 1));
        }
        assert_eq!(h.snapshot(SimTime(3_000_000_000)).count, 4);
        assert_eq!(h.snapshot(SimTime(600_000_000_000)).count, 0);
    }

    #[test]
    fn counter_rates() {
        let mut c = WindowedCounter::new(10, SimDuration::from_secs(1));
        for i in 0..50u64 {
            c.add(SimTime(i * 100_000_000), 1); // 10/sec for 5s
        }
        let now = SimTime(5_000_000_000);
        assert_eq!(c.count(now), 50);
        assert!((c.rate_per_sec(now) - 5.0).abs() < 1e-9); // 50 over a 10s window
        assert_eq!(c.count(SimTime(600_000_000_000)), 0);
    }

    // The satellite property: sliding-window p99 over the rotating bucket
    // ring must equal a brute-force recompute over the retained samples —
    // i.e. over exactly the samples whose slot is still live in the ring.
    // Histogram merge is exact, so the comparison is equality, not
    // tolerance.
    proptest! {
        #[test]
        fn windowed_p99_matches_brute_force(
            samples in proptest::collection::vec((0u64..20_000_000_000, 1u64..10_000_000_000), 1..300),
            slots in 1usize..8,
            slot_width_ms in 1u64..5_000,
        ) {
            let slot_width = SimDuration::from_millis(slot_width_ms);
            let mut sorted = samples.clone();
            sorted.sort_unstable_by_key(|&(at, _)| at);
            let mut win = WindowedHistogram::new(slots, slot_width);
            for &(at, dur) in &sorted {
                win.record(SimTime(at), SimDuration(dur));
            }
            let now = SimTime(sorted.last().unwrap().0);
            let snap = win.snapshot(now);

            // Brute force: a sample is retained iff its slot index is
            // within the last `slots` slots ending at now's slot.
            let cur_slot = now.nanos() / slot_width.nanos();
            let oldest = cur_slot.saturating_sub(slots as u64 - 1);
            let mut brute = DurationHistogram::new();
            for &(at, dur) in &sorted {
                let slot = at / slot_width.nanos();
                if slot >= oldest && slot <= cur_slot {
                    brute.record(SimDuration(dur));
                }
            }
            prop_assert_eq!(snap.count, brute.count());
            prop_assert_eq!(snap.p50, brute.quantile(0.50));
            prop_assert_eq!(snap.p90, brute.quantile(0.90));
            prop_assert_eq!(snap.p99, brute.quantile(0.99));
            prop_assert_eq!(snap.max, brute.max());
        }
    }
}
