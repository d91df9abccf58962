//! Two-level calendar/bucket event queue with a slab payload arena.
//!
//! The kernel's former `BinaryHeap<Event<M>>` paid `O(log n)` sift cost —
//! and whole-event memmoves, with `M` inline — on every push and pop. This
//! queue splits pending events into three tiers, ordered strictly by
//! `(time, seq)` exactly like the heap it replaces:
//!
//! * **near** — a small vector, sorted descending so the minimum is at the
//!   tail. It covers `[.., near_end)` and is where all pops happen; a
//!   same-timestamp run drains from the tail with no per-event sift
//!   ([`CalendarQueue::pop_run`] — batch dispatch).
//! * **ring** — a classic calendar: `NBUCKETS` buckets of width
//!   `1 << shift` nanoseconds covering one "year" from the cursor. Pushes
//!   land in their bucket unsorted in O(1); when the near tier empties, the
//!   cursor advances and the next non-empty bucket is sorted once and
//!   becomes the near tier. The consumed bucket hands its buffer to near
//!   instead of being copied out, so it restarts empty and the tiers'
//!   capacity follows the events pending now (about 2× the live entries),
//!   not the largest burst each bucket ever held.
//! * **far** — a binary heap for events beyond the ring's year (the
//!   hierarchical fallback). When the cursor reaches an empty ring the
//!   queue jumps to the far minimum and re-tunes the bucket width to the
//!   observed event density.
//!
//! Payloads live in a slab (`slots` + freelist): tier entries are 24-byte
//! `(time, seq, slot)` triples, so sorting and sifting never move the
//! payload, and a payload is written once at push and moved out once at
//! pop. The slab grows with the events pending at once; an external input
//! handed over with `Sim::feed` enters the queue only when it is due, so
//! it never fills the slab ahead of time. A slot is as large as the
//! payload type, so a payload enum should box its rare large variants
//! (the engine's `Msg` does) rather than size every pending event by them.
//!
//! Ordering is exact regardless of bucket geometry — the tiers partition
//! the time axis, so the near minimum is always the global minimum. The
//! proptests at the bottom pin equivalence with a `BinaryHeap` oracle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Number of ring buckets; must be a power of two.
const NBUCKETS: u64 = 1024;
/// Initial bucket width: 2^13 ns = 8.2 µs, sized for the engine's
/// microsecond-scale event gaps (re-tuned on ring-empty jumps).
const DEFAULT_SHIFT: u32 = 13;
/// Narrowest re-tuned width: 64 ns (widening is capped at the default;
/// see `retune` for why wide buckets are a trap).
const MIN_SHIFT: u32 = 6;

/// A queue entry: ordering key plus the payload's slab slot.
#[derive(Clone, Copy, Debug)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Exact-order event queue: min by `(time, seq)`, O(1) amortized push,
/// O(1)-ish amortized pop, same-timestamp batch drain.
pub struct CalendarQueue<T> {
    /// Payload slab; `None` slots are on the freelist.
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    /// Sorted descending by `(time, seq)`: minimum at the tail.
    near: Vec<Entry>,
    /// Calendar ring; bucket `b` holds absolute buckets `≡ b (mod NBUCKETS)`
    /// within the current year.
    ring: Vec<Vec<Entry>>,
    ring_len: usize,
    /// Absolute index (`time >> shift`) of the next unconsumed bucket.
    cursor: u64,
    /// Exclusive upper bound of the near tier (`cursor << shift`, clamped).
    near_end: u64,
    /// Bucket width exponent: width = `1 << shift` nanoseconds.
    shift: u32,
    /// Events beyond the ring's year.
    far: BinaryHeap<Reverse<Entry>>,
    /// Largest time ever pushed to `far` (width re-tune heuristic only).
    far_max: u64,
    len: usize,
}

impl<T> CalendarQueue<T> {
    /// Create a queue pre-sized for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        CalendarQueue {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            near: Vec::new(),
            ring: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            ring_len: 0,
            cursor: 0,
            near_end: 0,
            shift: DEFAULT_SHIFT,
            far: BinaryHeap::new(),
            far_max: 0,
            len: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn alloc(&mut self, v: T) -> u32 {
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = Some(v);
            i
        } else {
            let i = u32::try_from(self.slots.len()).expect("more than 2^32 pending events");
            self.slots.push(Some(v));
            i
        }
    }

    #[inline]
    fn release(&mut self, slot: u32) -> T {
        self.free.push(slot);
        self.slots[slot as usize].take().expect("slot occupied")
    }

    /// Absolute bucket of a timestamp under the current width.
    #[inline]
    fn abucket(&self, t: SimTime) -> u64 {
        t.0 >> self.shift
    }

    /// `cursor << shift`, clamped so huge cursors can't overflow.
    fn cursor_time(&self) -> u64 {
        let v = (self.cursor as u128) << self.shift;
        v.min(u64::MAX as u128) as u64
    }

    /// Push an event. `(time, seq)` pairs must be unique; ordering is exact.
    pub fn push(&mut self, time: SimTime, seq: u64, payload: T) {
        let slot = self.alloc(payload);
        self.len += 1;
        let e = Entry { time, seq, slot };
        if time.0 < self.near_end {
            let pos = self.near.partition_point(|x| x.key() > e.key());
            self.near.insert(pos, e);
        } else {
            let ab = self.abucket(time);
            if ab < self.cursor.saturating_add(NBUCKETS) {
                self.ring[(ab & (NBUCKETS - 1)) as usize].push(e);
                self.ring_len += 1;
            } else {
                self.far_max = self.far_max.max(time.0);
                self.far.push(Reverse(e));
            }
        }
    }

    /// Move far events that now fall inside the ring's year into buckets.
    fn pull_far(&mut self) {
        let end = self.cursor.saturating_add(NBUCKETS);
        while let Some(&Reverse(e)) = self.far.peek() {
            if self.abucket(e.time) >= end {
                break;
            }
            let Reverse(e) = self.far.pop().expect("peeked");
            let slot = (self.abucket(e.time) & (NBUCKETS - 1)) as usize;
            self.ring[slot].push(e);
            self.ring_len += 1;
        }
    }

    /// Jump the (empty) ring to `t` and re-tune the bucket width to the
    /// far tier's observed density. Only legal when near and ring are empty.
    fn retune(&mut self, t: SimTime) {
        debug_assert!(self.near.is_empty() && self.ring_len == 0);
        let n = self.far.len().max(1) as u64;
        let span = self.far_max.saturating_sub(t.0).max(1);
        // Target ~4 events per bucket so an advance sorts short runs — but
        // never widen past the default. The far tier only sees the events
        // scheduled well ahead of time (horizon timers, fault transitions,
        // posted messages), and the runtime cascade each of those triggers
        // is orders of magnitude denser; widening to the *static* density
        // turns the sorted near vector into an O(n)-memmove insertion list
        // for every cascade event that lands inside the current bucket.
        // (A fed input is not in the far tier: `Sim::feed` queues each
        // item only once it is due.) Narrow buckets are cheap in
        // comparison: crossing a quiet gap is one retune jump, and walking
        // the ring costs at most sim-duration / width increments.
        let width = (span / n).saturating_mul(4).max(1);
        self.shift = (63 - width.leading_zeros()).clamp(MIN_SHIFT, DEFAULT_SHIFT);
        self.cursor = t.0 >> self.shift;
        self.near_end = self.cursor_time();
    }

    /// Ensure the near tier holds the global minimum (or the queue is empty).
    fn ensure_near(&mut self) {
        while self.near.is_empty() {
            if self.ring_len == 0 {
                let Some(&Reverse(e)) = self.far.peek() else {
                    return; // truly empty
                };
                self.retune(e.time);
            }
            self.pull_far();
            let b = (self.cursor & (NBUCKETS - 1)) as usize;
            if !self.ring[b].is_empty() {
                self.ring_len -= self.ring[b].len();
                // `near` is empty here, so it takes the bucket's buffer
                // rather than copying out of it: no bucket keeps the
                // capacity of the largest burst it ever held.
                self.near = std::mem::take(&mut self.ring[b]);
                // Descending, so pops come off the tail cheapest-first.
                self.near
                    .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            }
            self.cursor += 1;
            self.near_end = self.cursor_time();
        }
    }

    /// Timestamp of the next event, if any.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.ensure_near();
        self.near.last().map(|e| e.time)
    }

    /// Pop the minimum event.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.ensure_near();
        let e = self.near.pop()?;
        self.len -= 1;
        let v = self.release(e.slot);
        Some((e.time, e.seq, v))
    }

    /// Drain every event sharing the minimum timestamp into `out`, in seq
    /// order — the batch-dispatch primitive: one queue operation yields the
    /// whole same-time run with no per-event sifting.
    pub fn pop_run(&mut self, out: &mut Vec<(SimTime, u64, T)>) {
        self.ensure_near();
        let Some(&last) = self.near.last() else {
            return;
        };
        let t = last.time;
        while let Some(&e) = self.near.last() {
            if e.time != t {
                break;
            }
            self.near.pop();
            self.len -= 1;
            let v = self.release(e.slot);
            out.push((e.time, e.seq, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = vec![];
        while let Some((t, s, v)) = q.pop() {
            out.push((t.0, s, v));
        }
        out
    }

    #[test]
    fn orders_by_time_then_seq() {
        let mut q = CalendarQueue::with_capacity(8);
        q.push(SimTime(50), 2, 0);
        q.push(SimTime(10), 1, 1);
        q.push(SimTime(50), 0, 2);
        q.push(SimTime(10), 3, 3);
        let got = drain(&mut q);
        assert_eq!(got, vec![(10, 1, 1), (10, 3, 3), (50, 0, 2), (50, 2, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_survive_the_jump() {
        let mut q = CalendarQueue::with_capacity(8);
        // Beyond any ring year at the default width.
        q.push(SimTime(u64::MAX - 10), 0, 7);
        q.push(SimTime(3), 1, 1);
        q.push(SimTime(1 << 40), 2, 2);
        assert_eq!(q.pop().unwrap().2, 1);
        assert_eq!(q.pop().unwrap().2, 2);
        assert_eq!(q.pop().unwrap().2, 7);
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_run_takes_exactly_one_timestamp() {
        let mut q = CalendarQueue::with_capacity(8);
        for s in 0..5u64 {
            q.push(SimTime(100), s, s as u32);
        }
        q.push(SimTime(101), 5, 99);
        let mut out = vec![];
        q.pop_run(&mut out);
        assert_eq!(out.len(), 5);
        assert!(out.iter().enumerate().all(|(i, e)| e.1 == i as u64));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = CalendarQueue::with_capacity(8);
        let mut seq = 0u64;
        let mut last = (SimTime(0), 0u64);
        for round in 0..200u64 {
            // Push a spread of near/ring/far events keyed off the round.
            for dt in [0u64, 5, 9_000, 1 << 20, 1 << 30] {
                q.push(SimTime(round * 1000 + dt), seq, 0);
                seq += 1;
            }
            let (t, s, _) = q.pop().unwrap();
            assert!((t, s) > last || last == (SimTime(0), 0), "regressed");
            last = (t, s);
        }
        let rest = drain(&mut q);
        assert!(rest.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    }

    #[test]
    fn slab_recycles_slots() {
        let mut q = CalendarQueue::with_capacity(4);
        for i in 0..10_000u64 {
            q.push(SimTime(i), i, i as u32);
            let _ = q.pop();
        }
        // Steady-state ping-pong must not grow the slab past a handful.
        assert!(q.slots.len() <= 4, "slab grew to {}", q.slots.len());
    }

    #[test]
    fn tier_capacity_follows_pending_events() {
        const BURST: u64 = 512;
        let mut q = CalendarQueue::with_capacity(BURST as usize);
        let mut seq = 0u64;
        // One burst per ring bucket in turn, each drained before the next:
        // never more than BURST events pending at once.
        for b in 0..NBUCKETS {
            for i in 0..BURST {
                q.push(SimTime((b << DEFAULT_SHIFT) + i), seq, 0);
                seq += 1;
            }
            while q.pop().is_some() {}
            let held = q.near.capacity() + q.ring.iter().map(Vec::capacity).sum::<usize>();
            assert!(
                held <= 4 * BURST as usize,
                "after bucket {b}: tiers hold {held} entries of capacity for {BURST} pending"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A scripted interleaving of pushes and pops, run against both the
    /// calendar queue and a `BinaryHeap` oracle; every pop must agree.
    fn check_script(times: Vec<u64>, pop_every: usize) {
        let mut q: CalendarQueue<u64> = CalendarQueue::with_capacity(16);
        let mut oracle: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        for (i, t) in times.iter().enumerate() {
            let seq = i as u64;
            q.push(SimTime(*t), seq, seq);
            oracle.push(Reverse((SimTime(*t), seq)));
            if pop_every > 0 && i % pop_every == 0 {
                let got = q.pop();
                let want = oracle.pop();
                match (got, want) {
                    (Some((t, s, v)), Some(Reverse((ot, os)))) => {
                        assert_eq!((t, s), (ot, os));
                        assert_eq!(v, s);
                    }
                    (None, None) => {}
                    other => panic!("oracle mismatch: {other:?}"),
                }
            }
        }
        while let Some(Reverse((ot, os))) = oracle.pop() {
            let (t, s, _) = q.pop().expect("queue drained early");
            assert_eq!((t, s), (ot, os));
        }
        assert!(q.pop().is_none());
    }

    proptest! {
        /// Random times spanning near/ring/far tiers, interleaved pops.
        #[test]
        fn matches_binary_heap_oracle(
            times in proptest::collection::vec(0u64..u64::MAX / 2, 1..400),
            pop_every in 1usize..8,
        ) {
            check_script(times, pop_every);
        }

        /// Heavy timestamp collisions (the batch-dispatch regime).
        #[test]
        fn matches_oracle_with_collisions(
            times in proptest::collection::vec(0u64..64, 1..400),
            pop_every in 1usize..4,
        ) {
            check_script(times, pop_every);
        }

        /// Monotone run_until-style feeds: clustered bursts marching
        /// forward with occasional far-future outliers (timer wheels).
        #[test]
        fn matches_oracle_monotone_bursts(
            bursts in proptest::collection::vec(
                (
                    0u64..10_000,
                    1usize..12,
                    (0u32..100, 30u32..60).prop_map(|(p, exp)| (p < 40).then_some(exp)),
                ),
                1..60,
            ),
        ) {
            let mut times = Vec::new();
            let mut base = 0u64;
            for (gap, k, far) in bursts {
                base += gap;
                for _ in 0..k {
                    times.push(base);
                }
                if let Some(exp) = far {
                    times.push(base.saturating_add(1u64 << exp));
                }
            }
            check_script(times, 3);
        }
    }
}
