//! The compute node's tuples and requests as one sans-IO table.
//!
//! A tuple is live from ingest until it completes or is shed, and while
//! live it has at most one request outstanding: a remote one (sent to a
//! data node, re-keyed when it is re-issued) or a local one (a UDF running
//! on this node's CPU until its completion timer fires). Local ids come
//! from the optimizer's one request counter, so they never collide with
//! remote ids. [`Requests`] keeps one record per live tuple and one per
//! outstanding request; [`rule`] decides what a NACK or a fired timer does
//! to a request:
//!
//! | event        | not in flight | budget spent                 | otherwise                                          |
//! |--------------|---------------|------------------------------|----------------------------------------------------|
//! | NACK         | ignore        | shed `deadline-on-nack`      | back off, then re-present                          |
//! | re-present   | ignore        | shed `deadline-on-represent` | re-present (same kind, same attempt)               |
//! | retry timer  | ignore        | shed `deadline-on-timeout`   | re-issue, flipping kind on attempt 2; past `max_retries` give up |
//!
//! A tuple's deadline is `started + budget`, where `started` is its
//! arrival (streaming: queue wait counts) or its ingest (batch). Nothing
//! here reads a clock but the `now` passed in.

use bytes::Bytes;
use jl_simkit::time::{SimDuration, SimTime};
use rustc_hash::FxHashMap;

use crate::cluster::{EKey, Val};
use crate::config::RetryConfig;
use crate::plan::{decode_params, JobTuple};

/// Bits 63–62 of a timer tag hold its kind; the rest hold the request id.
const KIND_SHIFT: u32 = 62;

/// The id part of a timer tag. Request ids count up from zero and never
/// reach the kind bits.
const ID_MASK: u64 = (1 << KIND_SHIFT) - 1;

/// What a compute-node timer is for, decoded from its `u64` tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Timer {
    /// Kind `00`: a local UDF execution finished on this node's CPU.
    Local(u64),
    /// Kind `01`: a NACK backoff ran out; re-present the request.
    Represent(u64),
    /// Kind `10`: a request's retry timeout.
    Retry(u64),
    /// Kind `11` (`u64::MAX`): poll the batchers' max-wait deadline.
    Flush,
}

impl Timer {
    /// The tag this timer is armed under.
    pub(crate) fn tag(self) -> u64 {
        match self {
            Timer::Local(id) => id,
            Timer::Represent(id) => 1 << KIND_SHIFT | id,
            Timer::Retry(id) => 2 << KIND_SHIFT | id,
            Timer::Flush => u64::MAX,
        }
    }

    /// The timer a fired tag stands for.
    pub(crate) fn decode(tag: u64) -> Self {
        let id = tag & ID_MASK;
        match tag >> KIND_SHIFT {
            0 => Timer::Local(id),
            1 => Timer::Represent(id),
            2 => Timer::Retry(id),
            _ => Timer::Flush,
        }
    }
}

/// Something that happened to a remote request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// Its destination's ingest queue refused it.
    Nack,
    /// Its NACK backoff ran out.
    Represent,
    /// Its retry timer fired.
    Retry,
}

/// What the compute node does about an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Nothing: the request was answered or superseded (a stale timer).
    Ignore,
    /// Abandon the request and shed its tuple, for this reason.
    Shed(&'static str),
    /// Re-present the request after the NACK backoff.
    Backoff,
    /// Re-present the request now: same destination, same kind, same
    /// attempt (admission refusal is not a timeout).
    Represent,
    /// Re-issue the request under a new id; `flip` turns a compute
    /// request into a fetch and a fetch into a compute request.
    Reissue { flip: bool },
    /// Retries are exhausted: abandon the request and complete its tuple
    /// with no output.
    GiveUp,
}

/// The one rule for a NACK or a fired timer. `attempt` is the attempt a
/// retry timeout would start: 1 for the first re-issue. A retry timer
/// without a [`RetryConfig`] is never armed, so it is ignored.
pub(crate) fn rule(
    event: Event,
    in_flight: bool,
    budget_spent: bool,
    attempt: u32,
    retry: Option<&RetryConfig>,
) -> Verdict {
    if !in_flight {
        return Verdict::Ignore;
    }
    match (event, retry) {
        (Event::Nack, _) if budget_spent => Verdict::Shed("deadline-on-nack"),
        (Event::Nack, _) => Verdict::Backoff,
        (Event::Represent, _) if budget_spent => Verdict::Shed("deadline-on-represent"),
        (Event::Represent, _) => Verdict::Represent,
        (Event::Retry, None) => Verdict::Ignore,
        // The budget is authoritative over retry timeouts: a timer capped
        // at the remaining budget fired at budget expiry, not at a
        // timeout — no evidence against the node, and a re-issue could
        // only finish late.
        (Event::Retry, Some(_)) if budget_spent => Verdict::Shed("deadline-on-timeout"),
        (Event::Retry, Some(rc)) if attempt > rc.max_retries => Verdict::GiveUp,
        // The second attempt flips the request's side: a compute request
        // that keeps timing out becomes a fetch (the UDF can run
        // anywhere), a stalled fetch becomes a compute request.
        (Event::Retry, Some(_)) => Verdict::Reissue { flip: attempt == 2 },
    }
}

/// A streaming tuple's arrival; batch tuples carry none (`ZERO`).
fn arrival(tuple: &JobTuple) -> Option<SimTime> {
    (tuple.arrival > SimTime::ZERO).then_some(tuple.arrival)
}

/// One live tuple.
pub(crate) struct Live {
    tuple: JobTuple,
    /// When its latency clock and its deadline budget started.
    pub(crate) started: SimTime,
    /// Its request gave up; it completes with no output.
    pub(crate) gave_up: bool,
}

/// A request on the wire, for stage `stage` of tuple `seq`.
#[derive(Clone, Copy)]
pub(crate) struct Remote {
    pub(crate) seq: u64,
    pub(crate) stage: u16,
    /// When it was last sent.
    pub(crate) sent_at: SimTime,
    /// Re-issues so far (0 on the first send).
    pub(crate) attempt: u32,
}

/// One outstanding request.
enum Req {
    Remote(Remote),
    /// A UDF running on this node's CPU until its completion timer fires:
    /// the key, the params and the value it runs on.
    Local(EKey, Bytes, Val),
}

/// Every live tuple and every outstanding request of one compute node.
pub(crate) struct Requests {
    tuples: FxHashMap<u64, Live>,
    reqs: FxHashMap<u64, Req>,
    /// The per-tuple deadline budget, if overload protection sets one.
    budget: Option<SimDuration>,
    /// The timeout/retry policy; `None` arms no retry timers at all.
    retry: Option<RetryConfig>,
}

impl Requests {
    /// An empty table for tuples with this deadline budget and requests
    /// under this retry policy.
    pub(crate) fn new(budget: Option<SimDuration>, retry: Option<RetryConfig>) -> Self {
        Requests {
            tuples: FxHashMap::default(),
            reqs: FxHashMap::default(),
            budget,
            retry,
        }
    }

    /// The timeout/retry policy requests run under.
    pub(crate) fn retry(&self) -> Option<&RetryConfig> {
        self.retry.as_ref()
    }

    /// Tuples somewhere in the pipeline.
    pub(crate) fn live(&self) -> u64 {
        self.tuples.len() as u64
    }

    /// The deadline a queued (not yet ingested) tuple is racing. Batch
    /// tuples carry no arrival, so their budget starts at ingest and they
    /// never expire in the queue.
    pub(crate) fn queue_deadline(&self, tuple: &JobTuple) -> Option<SimTime> {
        Some(arrival(tuple)? + self.budget?)
    }

    /// Ingest `tuple` at `now`; returns its seq.
    pub(crate) fn start(&mut self, tuple: JobTuple, now: SimTime) -> u64 {
        let seq = tuple.seq;
        let started = arrival(&tuple).unwrap_or(now);
        let live = Live {
            tuple,
            started,
            gave_up: false,
        };
        self.tuples.insert(seq, live);
        seq
    }

    /// The live tuple `seq`. Panics if it is not live.
    pub(crate) fn tuple(&self, seq: u64) -> &JobTuple {
        &self.tuples[&seq].tuple
    }

    /// Forget tuple `seq`, which completed at `now`: its record, and
    /// whether it completed past its deadline.
    pub(crate) fn finish(&mut self, seq: u64, now: SimTime) -> Option<(Live, bool)> {
        let live = self.tuples.remove(&seq)?;
        let late = self.budget.is_some_and(|b| now > live.started + b);
        Some((live, late))
    }

    /// Record that request `id`, for the tuple and stage its `params`
    /// encode, went on the wire at `now`, keeping the attempt a re-key
    /// carried over. Returns the retry timeout to arm for it when retries
    /// are on: capped exponential backoff by attempt, and never past the
    /// tuple's budget, so backoff cannot stretch its latency beyond it.
    pub(crate) fn sent(&mut self, id: u64, params: &[u8], now: SimTime) -> Option<SimDuration> {
        let (seq, stage) = decode_params(params);
        let attempt = self.remote(id).map_or(0, |r| r.attempt);
        let remote = Remote {
            seq,
            stage,
            sent_at: now,
            attempt,
        };
        self.reqs.insert(id, Req::Remote(remote));
        let to = self.retry?.timeout_for(attempt);
        Some(self.remaining(id, now).map_or(to, |rem| to.min(rem)))
    }

    /// Record a local execution awaiting its completion timer.
    pub(crate) fn run_local(&mut self, id: u64, key: EKey, params: Bytes, value: Val) {
        self.reqs.insert(id, Req::Local(key, params, value));
    }

    /// Take the local execution `id` whose timer fired.
    pub(crate) fn take_local(&mut self, id: u64) -> Option<(EKey, Bytes, Val)> {
        match self.reqs.remove(&id)? {
            Req::Local(key, params, value) => Some((key, params, value)),
            Req::Remote(_) => None,
        }
    }

    /// Remote request `id`, if it is outstanding.
    pub(crate) fn remote(&self, id: u64) -> Option<&Remote> {
        match self.reqs.get(&id)? {
            Req::Remote(r) => Some(r),
            Req::Local(..) => None,
        }
    }

    /// Time left in the budget of the tuple `id` works for (`ZERO`
    /// once spent); `None` when no budget applies. The one deadline
    /// lookup: retry timeouts are capped by it and verdicts read it.
    fn remaining(&self, id: u64, now: SimTime) -> Option<SimDuration> {
        let started = self.tuples.get(&self.remote(id)?.seq)?.started;
        let deadline = started + self.budget?;
        Some(deadline.since(now.min(deadline)))
    }

    /// Judge `event` for request `id` by [`rule`]. A retry verdict
    /// that re-issues or gives up counts the attempt it starts, so a
    /// re-key carries it and [`remote`](Self::remote) reports it.
    pub(crate) fn judge(&mut self, event: Event, id: u64, flying: bool, now: SimTime) -> Verdict {
        let spent = self.remaining(id, now) == Some(SimDuration::ZERO);
        let attempt = self.remote(id).map_or(0, |r| r.attempt) + 1;
        let verdict = rule(event, flying, spent, attempt, self.retry.as_ref());
        if let Verdict::Reissue { .. } | Verdict::GiveUp = verdict {
            if let Some(Req::Remote(r)) = self.reqs.get_mut(&id) {
                r.attempt = attempt;
            }
        }
        verdict
    }

    /// Move `old`'s record to `new`, the id it was re-issued under, keeping
    /// its attempt.
    pub(crate) fn rekey(&mut self, old: u64, new: u64) {
        if let Some(req) = self.reqs.remove(&old) {
            self.reqs.insert(new, req);
        }
    }

    /// Remote request `id` was answered (or its value came back to run
    /// locally): forget it. Ids come from one counter, so a local id is
    /// never answered and a remote one never fires a local timer.
    pub(crate) fn answered(&mut self, id: u64) -> Option<Remote> {
        match self.reqs.remove(&id)? {
            Req::Remote(r) => Some(r),
            Req::Local(..) => None,
        }
    }

    /// Shed request `id` and its tuple; returns the tuple's seq.
    pub(crate) fn shed(&mut self, id: u64) -> Option<u64> {
        let seq = self.answered(id)?.seq;
        self.tuples.remove(&seq);
        Some(seq)
    }

    /// Request `id` gave up: forget it and mark its tuple, which now
    /// completes with no output.
    pub(crate) fn give_up(&mut self, id: u64) -> Option<Remote> {
        let r = self.answered(id)?;
        if let Some(live) = self.tuples.get_mut(&r.seq) {
            live.gave_up = true;
        }
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jl_store::{RowKey, StoredValue};

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    fn tuple(seq: u64, arrival: SimTime) -> JobTuple {
        JobTuple {
            seq,
            keys: vec![RowKey::from_u64(seq)],
            params_size: 8,
            arrival,
        }
    }

    /// Stage-0 params of tuple `seq`, as the compute node encodes them.
    fn params(seq: u64) -> Bytes {
        crate::plan::encode_params(seq, 0, 16)
    }

    fn retry(max_retries: u32) -> RetryConfig {
        RetryConfig {
            max_retries,
            ..RetryConfig::default()
        }
    }

    #[test]
    fn timer_tags_round_trip_and_keep_their_numbers() {
        for id in [0, ID_MASK] {
            for (timer, tag) in [
                (Timer::Local(id), id),
                (Timer::Represent(id), 1 << 62 | id),
                (Timer::Retry(id), 1 << 63 | id),
                (Timer::Flush, u64::MAX),
            ] {
                assert_eq!(timer.tag(), tag, "{timer:?}");
                assert_eq!(Timer::decode(tag), timer, "{tag:#x}");
            }
        }
    }

    /// The rule as a table, with `max_retries = 2`.
    #[test]
    fn every_case_gives_its_documented_verdict() {
        use Event::*;
        let rc = retry(2);
        let rows: [(Event, bool, u32, Verdict); 12] = [
            (Nack, false, 1, Verdict::Backoff),
            (Nack, true, 1, Verdict::Shed("deadline-on-nack")),
            (Nack, false, 9, Verdict::Backoff),
            (Represent, false, 1, Verdict::Represent),
            (Represent, true, 1, Verdict::Shed("deadline-on-represent")),
            (Represent, false, 9, Verdict::Represent),
            (Retry, false, 1, Verdict::Reissue { flip: false }),
            (Retry, false, 2, Verdict::Reissue { flip: true }),
            (Retry, false, 3, Verdict::GiveUp),
            (Retry, true, 1, Verdict::Shed("deadline-on-timeout")),
            (Retry, true, 2, Verdict::Shed("deadline-on-timeout")),
            (Retry, true, 3, Verdict::Shed("deadline-on-timeout")),
        ];
        for (event, spent, attempt, want) in rows {
            let at = format!("{event:?} spent={spent} attempt={attempt}");
            assert_eq!(rule(event, true, spent, attempt, Some(&rc)), want, "{at}");
            // What is no longer in flight is a stale event.
            let stale = rule(event, false, spent, attempt, Some(&rc));
            assert_eq!(stale, Verdict::Ignore, "{at}");
        }
        // Attempt 2 flips whatever the retry budget; no other attempt does.
        for attempt in 1..=6 {
            let v = rule(Retry, true, false, attempt, Some(&retry(8)));
            assert_eq!(v, Verdict::Reissue { flip: attempt == 2 }, "{attempt}");
        }
        // No retries at all: the first timeout gives up.
        assert_eq!(
            rule(Retry, true, false, 1, Some(&retry(0))),
            Verdict::GiveUp
        );
        // Without a retry config no retry timer is armed.
        assert_eq!(rule(Retry, true, false, 1, None), Verdict::Ignore);
    }

    #[test]
    fn rekey_drops_the_old_id_and_keeps_the_attempt() {
        let rc = retry(8);
        let mut t = Requests::new(None, Some(rc));
        let seq = t.start(tuple(4, SimTime::ZERO), ms(1));
        assert_eq!(t.sent(10, &params(seq), ms(1)), Some(rc.timeout_for(0)));
        let v = t.judge(Event::Retry, 10, true, ms(5));
        assert_eq!(v, Verdict::Reissue { flip: false });
        assert_eq!(t.remote(10).map(|r| r.attempt), Some(1));
        t.rekey(10, 11);
        assert!(t.remote(10).is_none(), "old id still known");
        // The re-issue backs off by the attempt it carried over.
        assert_eq!(t.sent(11, &params(seq), ms(5)), Some(rc.timeout_for(1)));
        let r = *t.remote(11).expect("re-keyed");
        assert_eq!((r.seq, r.stage, r.sent_at, r.attempt), (seq, 0, ms(5), 1));
        // A NACK re-present keeps the attempt too: no timeout was seen.
        let v = t.judge(Event::Represent, 11, true, ms(6));
        assert_eq!(v, Verdict::Represent);
        t.rekey(11, 12);
        assert_eq!(t.remote(12).map(|r| r.attempt), Some(1));
        let v = t.judge(Event::Retry, 12, true, ms(9));
        assert_eq!(v, Verdict::Reissue { flip: true });
    }

    #[test]
    fn a_stale_timer_is_ignored() {
        let mut t = Requests::new(Some(SimDuration::from_millis(1)), Some(retry(0)));
        let seq = t.start(tuple(1, SimTime::ZERO), ms(0));
        t.sent(3, &params(seq), ms(0));
        // Answered, then its retry timer fires long past the budget.
        assert_eq!(t.answered(3).map(|r| r.seq), Some(seq));
        for event in [Event::Nack, Event::Represent, Event::Retry] {
            assert_eq!(t.judge(event, 3, false, ms(50)), Verdict::Ignore);
        }
        assert!(t.remote(3).is_none());
    }

    #[test]
    fn the_budget_runs_from_arrival_and_caps_retry_timers() {
        let mut t = Requests::new(Some(SimDuration::from_millis(5)), Some(retry(8)));
        let queued = tuple(7, ms(10));
        assert_eq!(t.queue_deadline(&queued), Some(ms(15)));
        assert_eq!(t.queue_deadline(&tuple(8, SimTime::ZERO)), None, "batch");
        let seq = t.start(queued, ms(12));
        let to = t.sent(20, &params(seq), ms(12));
        assert_eq!(
            to,
            Some(SimDuration::from_millis(3)),
            "capped at the budget"
        );
        let v = t.judge(Event::Retry, 20, true, ms(15));
        assert_eq!(v, Verdict::Shed("deadline-on-timeout"));
        let attempt = t.remote(20).map(|r| r.attempt);
        assert_eq!(attempt, Some(0), "a shed is no attempt");
        assert_eq!(t.shed(20), Some(seq));
        assert_eq!(t.live(), 0);
        // A batch tuple's budget starts at ingest; completing after it is late.
        let seq = t.start(tuple(9, SimTime::ZERO), ms(100));
        let (ended, late) = t.finish(seq, ms(106)).expect("live");
        assert_eq!((ended.started, ended.gave_up, late), (ms(100), false, true));
    }

    #[test]
    fn tuples_and_both_kinds_of_request_share_one_table() {
        let mut t = Requests::new(None, None);
        let a = t.start(tuple(1, SimTime::ZERO), ms(0));
        let b = t.start(tuple(2, SimTime::ZERO), ms(0));
        assert_eq!(t.live(), 2);
        assert_eq!(t.tuple(b).seq, 2);
        let value = Val(StoredValue::new(vec![1], 1, SimDuration::ZERO));
        t.run_local(0, (0, RowKey::from_u64(1)), Bytes::new(), value);
        assert_eq!(t.sent(1, &params(b), ms(0)), None, "no retry timer");
        assert!(t.remote(0).is_none(), "a local request is not remote");
        let local = t.take_local(0);
        assert!(local.is_some_and(|(key, ..)| key.1 == RowKey::from_u64(1)));
        assert!(t.take_local(0).is_none(), "taken twice");
        assert_eq!(t.give_up(1).map(|r| (r.seq, r.stage)), Some((b, 0)));
        let (ended, late) = t.finish(b, ms(3)).expect("live");
        assert!(ended.gave_up && !late);
        assert!(t.finish(a, ms(3)).is_some_and(|(e, _)| !e.gave_up));
        assert_eq!(t.live(), 0);
    }
}
