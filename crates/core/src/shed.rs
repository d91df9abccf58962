//! The load-shedding decision plane: pluggable victim-selection policies.
//!
//! Mirrors the placement decision plane
//! ([`PlacementPolicy`](crate::compute::policy::PlacementPolicy)): the
//! engine's overload machinery decides *when* something must be dropped
//! (a bounded queue is over its cap), and delegates *what* to drop to a
//! [`ShedPolicy`]. One implementation exists per built-in mode
//! ([`shed_policy_for`]); custom policies plug in through the engine's
//! `ShedFactory` hook without touching the overload machinery.
//!
//! Determinism contract: `choose_victim` must be a pure function of its
//! arguments and the policy's own (deterministically updated) state —
//! no wall clocks, no global randomness — so overload runs stay
//! reproducible and thread-count-invariant.

use jl_simkit::time::SimTime;

/// One queued tuple offered to a [`ShedPolicy`] as a shedding candidate.
#[derive(Debug, Clone)]
pub struct ShedCandidate<K> {
    /// The tuple's (first-stage) join key.
    pub key: K,
    /// When the tuple arrived at the compute node.
    pub arrival: SimTime,
    /// The tuple's deadline, when the run propagates deadline budgets.
    pub deadline: Option<SimTime>,
    /// The placement policy's frequency estimate for the key (0 when the
    /// policy keeps no counts). Lets shedding spare hot cached keys.
    pub freq: u64,
}

/// A load-shedding policy: given the current simulated time and a
/// non-empty candidate slate, pick the index of the tuple to drop.
///
/// Returning an out-of-range index is a driver bug; the engine clamps it
/// defensively to the last candidate.
pub trait ShedPolicy<K> {
    /// Choose the victim among `candidates` (never empty).
    fn choose_victim(&mut self, now: SimTime, candidates: &[ShedCandidate<K>]) -> usize;

    /// Short label for reports and traces.
    fn label(&self) -> &'static str;
}

/// Drop the oldest queued tuple (classic tail-drop inverted: the head of
/// the line has waited longest and is most likely already stale).
#[derive(Debug, Default, Clone, Copy)]
pub struct OldestFirstShed;

impl<K> ShedPolicy<K> for OldestFirstShed {
    fn choose_victim(&mut self, _now: SimTime, candidates: &[ShedCandidate<K>]) -> usize {
        let mut best = 0;
        for (i, c) in candidates.iter().enumerate().skip(1) {
            if c.arrival < candidates[best].arrival {
                best = i;
            }
        }
        best
    }

    fn label(&self) -> &'static str {
        "oldest-first"
    }
}

/// Deadline-aware shedding: drop an already-expired tuple if one exists
/// (it is doomed anyway), otherwise the one with the least slack — the
/// work most likely to be wasted. Ties, and candidates without deadlines,
/// fall back to oldest-first.
#[derive(Debug, Default, Clone, Copy)]
pub struct DeadlineAwareShed;

impl<K> ShedPolicy<K> for DeadlineAwareShed {
    fn choose_victim(&mut self, now: SimTime, candidates: &[ShedCandidate<K>]) -> usize {
        // (expired, slack, arrival) — expired first, then least slack,
        // then oldest. Candidates without a deadline sort behind every
        // deadline-carrying one on the slack axis.
        let rank = |c: &ShedCandidate<K>| match c.deadline {
            Some(d) if d <= now => (0u8, SimTime::ZERO, c.arrival),
            Some(d) => (1u8, d, c.arrival),
            None => (2u8, SimTime::ZERO, c.arrival),
        };
        let mut best = 0;
        for (i, c) in candidates.iter().enumerate().skip(1) {
            if rank(c) < rank(&candidates[best]) {
                best = i;
            }
        }
        best
    }

    fn label(&self) -> &'static str {
        "deadline-aware"
    }
}

/// Key-frequency-aware shedding: drop the coldest key (lowest placement-
/// policy frequency estimate), so hot cached keys — the ones the paper's
/// runtime placement worked to make cheap — survive pressure. Ties fall
/// back to oldest-first.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyFreqShed;

impl<K> ShedPolicy<K> for KeyFreqShed {
    fn choose_victim(&mut self, _now: SimTime, candidates: &[ShedCandidate<K>]) -> usize {
        let mut best = 0;
        for (i, c) in candidates.iter().enumerate().skip(1) {
            let b = &candidates[best];
            if (c.freq, c.arrival) < (b.freq, b.arrival) {
                best = i;
            }
        }
        best
    }

    fn label(&self) -> &'static str {
        "key-freq"
    }
}

/// Built-in shedding modes — the serializable config surface, like
/// [`Strategy`](crate::config::Strategy) is for placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedMode {
    /// [`OldestFirstShed`].
    OldestFirst,
    /// [`DeadlineAwareShed`] (the default: under deadline budgets it sheds
    /// exactly the work that cannot pay off).
    #[default]
    DeadlineAware,
    /// [`KeyFreqShed`].
    KeyFreq,
}

/// The built-in shed-policy factory: the only place a [`ShedMode`] is
/// turned into behavior.
pub fn shed_policy_for<K: 'static>(mode: ShedMode) -> Box<dyn ShedPolicy<K>> {
    match mode {
        ShedMode::OldestFirst => Box::new(OldestFirstShed),
        ShedMode::DeadlineAware => Box::new(DeadlineAwareShed),
        ShedMode::KeyFreq => Box::new(KeyFreqShed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(key: u64, arrival_ns: u64, deadline_ns: Option<u64>, freq: u64) -> ShedCandidate<u64> {
        ShedCandidate {
            key,
            arrival: SimTime(arrival_ns),
            deadline: deadline_ns.map(SimTime),
            freq,
        }
    }

    #[test]
    fn oldest_first_picks_min_arrival() {
        let mut p = OldestFirstShed;
        let cands = vec![
            cand(1, 30, None, 0),
            cand(2, 10, None, 0),
            cand(3, 20, None, 0),
        ];
        assert_eq!(p.choose_victim(SimTime(100), &cands), 1);
    }

    #[test]
    fn deadline_aware_prefers_expired_then_least_slack() {
        let mut p = DeadlineAwareShed;
        let now = SimTime(100);
        // One expired candidate: it must be chosen regardless of arrival.
        let cands = vec![
            cand(1, 0, Some(500), 0),
            cand(2, 50, Some(90), 0), // expired
            cand(3, 1, Some(200), 0),
        ];
        assert_eq!(p.choose_victim(now, &cands), 1);
        // No expired: least slack wins.
        let cands = vec![
            cand(1, 0, Some(500), 0),
            cand(2, 50, Some(150), 0),
            cand(3, 1, Some(200), 0),
        ];
        assert_eq!(p.choose_victim(now, &cands), 1);
        // No deadlines at all: oldest-first fallback.
        let cands = vec![cand(1, 9, None, 0), cand(2, 3, None, 0)];
        assert_eq!(p.choose_victim(now, &cands), 1);
        // Deadline-carrying candidates outrank deadline-free ones.
        let cands = vec![cand(1, 0, None, 0), cand(2, 99, Some(900), 0)];
        assert_eq!(p.choose_victim(now, &cands), 1);
    }

    #[test]
    fn key_freq_sheds_the_coldest_key() {
        let mut p = KeyFreqShed;
        let cands = vec![
            cand(1, 0, None, 12),
            cand(2, 5, None, 2),
            cand(3, 9, None, 2), // same freq, younger — loses the tie
        ];
        assert_eq!(p.choose_victim(SimTime(100), &cands), 1);
    }

    #[test]
    fn factory_builds_each_mode() {
        for (mode, label) in [
            (ShedMode::OldestFirst, "oldest-first"),
            (ShedMode::DeadlineAware, "deadline-aware"),
            (ShedMode::KeyFreq, "key-freq"),
        ] {
            let p = shed_policy_for::<u64>(mode);
            assert_eq!(p.label(), label);
        }
        assert_eq!(ShedMode::default(), ShedMode::DeadlineAware);
    }
}
