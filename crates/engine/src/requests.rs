//! The compute node's live tuples as one sans-IO table.
//!
//! A tuple is live from ingest until it completes or is shed, and while
//! live it has at most one request outstanding: a remote one (sent to a
//! data node, re-issued under a new id on a retry or a NACK) or a local one
//! (a UDF running on this node's CPU until its completion timer fires).
//! The optimizer's in-flight record is the one record of a remote request;
//! its params name the tuple and stage it works for
//! ([`decode_params`](crate::plan::decode_params)). [`Requests`] keeps one
//! record per live tuple, and in it what the compute node adds to the
//! tuple's request: when it went on the wire, how often it was re-issued,
//! and the value a local run works on. [`rule`] decides what a NACK or a
//! fired timer does to a request:
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
use crate::plan::JobTuple;

/// Bits 63–62 of a timer tag hold its kind; the rest hold a request id or,
/// for a local run, the tuple's seq.
const KIND_SHIFT: u32 = 62;

/// The id part of a timer tag. Request ids and seqs count up from zero
/// and never reach the kind bits.
const ID_MASK: u64 = (1 << KIND_SHIFT) - 1;

/// What a compute-node timer is for, decoded from its `u64` tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Timer {
    /// Kind `00`: tuple `seq`'s local UDF run finished on this node's CPU.
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

/// A local UDF run awaiting its completion timer: the request id, key,
/// params and the value the UDF runs on.
pub(crate) type LocalRun = (u64, EKey, Bytes, Val);

/// One live tuple and the state of its one request.
pub(crate) struct Live {
    tuple: JobTuple,
    /// When its latency clock and its deadline budget started.
    pub(crate) started: SimTime,
    /// Its request gave up; it completes with no output.
    pub(crate) gave_up: bool,
    /// When its request last went on the wire.
    pub(crate) sent_at: SimTime,
    /// Re-issues of its request so far (0 on a stage's first send).
    pub(crate) attempt: u32,
    /// Its local run, while one is pending. Boxed: most live tuples have
    /// none, and every record pays for the slot.
    local: Option<Box<LocalRun>>,
}

/// Every live tuple of one compute node.
pub(crate) struct Requests {
    tuples: FxHashMap<u64, Live>,
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
            sent_at: now,
            attempt: 0,
            local: None,
        };
        self.tuples.insert(seq, live);
        seq
    }

    /// Live tuple `seq`, whose next stage is about to be issued: that
    /// stage's request starts at attempt 0. Panics if it is not live.
    pub(crate) fn next_stage(&mut self, seq: u64) -> &JobTuple {
        let live = self.tuples.get_mut(&seq).expect("live tuple");
        live.attempt = 0;
        &live.tuple
    }

    /// Tuple `seq`'s record, while it is live.
    pub(crate) fn get(&self, seq: u64) -> Option<&Live> {
        self.tuples.get(&seq)
    }

    /// Forget tuple `seq`, which completed at `now`: its record, and
    /// whether it completed past its deadline.
    pub(crate) fn finish(&mut self, seq: u64, now: SimTime) -> Option<(Live, bool)> {
        let live = self.tuples.remove(&seq)?;
        let late = self.budget.is_some_and(|b| now > live.started + b);
        Some((live, late))
    }

    /// Tuple `seq`'s request went on the wire at `now`, at the attempt its
    /// record holds. Returns the retry timeout to arm for it when retries
    /// are on: capped exponential backoff by attempt, and never past the
    /// tuple's budget, so backoff cannot stretch its latency beyond it.
    pub(crate) fn sent(&mut self, seq: u64, now: SimTime) -> Option<SimDuration> {
        let live = self.tuples.get_mut(&seq)?;
        live.sent_at = now;
        let attempt = live.attempt;
        let to = self.retry?.timeout_for(attempt);
        Some(self.remaining(seq, now).map_or(to, |rem| to.min(rem)))
    }

    /// Tuple `seq`'s stage runs locally until its completion timer fires.
    pub(crate) fn run_local(&mut self, seq: u64, run: LocalRun) {
        if let Some(live) = self.tuples.get_mut(&seq) {
            live.local = Some(Box::new(run));
        }
    }

    /// Take tuple `seq`'s local run, whose timer fired.
    pub(crate) fn take_local(&mut self, seq: u64) -> Option<LocalRun> {
        self.tuples.get_mut(&seq)?.local.take().map(|run| *run)
    }

    /// Time left in tuple `seq`'s budget (`ZERO` once spent); `None` when
    /// no budget applies. The one deadline lookup: retry timeouts are
    /// capped by it and verdicts read it.
    fn remaining(&self, seq: u64, now: SimTime) -> Option<SimDuration> {
        let deadline = self.tuples.get(&seq)?.started + self.budget?;
        Some(deadline.since(now.min(deadline)))
    }

    /// Judge `event` for tuple `seq`'s request by [`rule`]; a tuple that is
    /// not live has no request in flight. A retry verdict that re-issues
    /// or gives up counts the attempt it starts, so the re-issue is sent
    /// at it and [`get`](Self::get) reports it.
    pub(crate) fn judge(&mut self, event: Event, seq: u64, now: SimTime) -> Verdict {
        let spent = self.remaining(seq, now) == Some(SimDuration::ZERO);
        let live = self.tuples.get_mut(&seq);
        let attempt = live.as_ref().map_or(0, |l| l.attempt) + 1;
        let verdict = rule(event, live.is_some(), spent, attempt, self.retry.as_ref());
        if let (Verdict::Reissue { .. } | Verdict::GiveUp, Some(live)) = (verdict, live) {
            live.attempt = attempt;
        }
        verdict
    }

    /// Shed tuple `seq`, whose request was abandoned.
    pub(crate) fn shed(&mut self, seq: u64) {
        self.tuples.remove(&seq);
    }

    /// Tuple `seq`'s request gave up: mark the tuple, which now completes
    /// with no output.
    pub(crate) fn give_up(&mut self, seq: u64) {
        if let Some(live) = self.tuples.get_mut(&seq) {
            live.gave_up = true;
        }
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
    fn a_reissue_keeps_the_attempt_and_a_new_stage_resets_it() {
        let rc = retry(8);
        let mut t = Requests::new(None, Some(rc));
        let seq = t.start(tuple(4, SimTime::ZERO), ms(1));
        assert_eq!(t.sent(seq, ms(1)), Some(rc.timeout_for(0)));
        let v = t.judge(Event::Retry, seq, ms(5));
        assert_eq!(v, Verdict::Reissue { flip: false });
        assert_eq!(t.get(seq).map(|r| r.attempt), Some(1));
        // The re-issue backs off by the attempt the tuple's record holds.
        assert_eq!(t.sent(seq, ms(5)), Some(rc.timeout_for(1)));
        let r = t.get(seq).expect("live");
        assert_eq!((r.sent_at, r.attempt), (ms(5), 1));
        // A NACK re-present keeps the attempt too: no timeout was seen.
        let v = t.judge(Event::Represent, seq, ms(6));
        assert_eq!(v, Verdict::Represent);
        t.sent(seq, ms(6));
        assert_eq!(t.get(seq).map(|r| r.attempt), Some(1));
        let v = t.judge(Event::Retry, seq, ms(9));
        assert_eq!(v, Verdict::Reissue { flip: true });
        // The next stage's request starts over.
        assert_eq!(t.next_stage(seq).seq, 4);
        assert_eq!(t.sent(seq, ms(9)), Some(rc.timeout_for(0)));
    }

    #[test]
    fn a_stale_timer_is_ignored() {
        let mut t = Requests::new(Some(SimDuration::from_millis(1)), Some(retry(0)));
        let seq = t.start(tuple(1, SimTime::ZERO), ms(0));
        t.sent(seq, ms(0));
        // Completed, then its retry timer fires long past the budget.
        assert!(t.finish(seq, ms(0)).is_some());
        for event in [Event::Nack, Event::Represent, Event::Retry] {
            assert_eq!(t.judge(event, seq, ms(50)), Verdict::Ignore);
        }
        assert!(t.get(seq).is_none());
    }

    #[test]
    fn the_budget_runs_from_arrival_and_caps_retry_timers() {
        let mut t = Requests::new(Some(SimDuration::from_millis(5)), Some(retry(8)));
        let queued = tuple(7, ms(10));
        assert_eq!(t.queue_deadline(&queued), Some(ms(15)));
        assert_eq!(t.queue_deadline(&tuple(8, SimTime::ZERO)), None, "batch");
        let seq = t.start(queued, ms(12));
        let to = t.sent(seq, ms(12));
        assert_eq!(
            to,
            Some(SimDuration::from_millis(3)),
            "capped at the budget"
        );
        let v = t.judge(Event::Retry, seq, ms(15));
        assert_eq!(v, Verdict::Shed("deadline-on-timeout"));
        let attempt = t.get(seq).map(|r| r.attempt);
        assert_eq!(attempt, Some(0), "a shed is no attempt");
        t.shed(seq);
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
        assert_eq!(t.next_stage(b).seq, 2);
        let value = Val(StoredValue::new(vec![1], 1, SimDuration::ZERO));
        let key = (0, RowKey::from_u64(1));
        t.run_local(a, (7, key, Bytes::new(), value));
        assert_eq!(t.sent(b, ms(0)), None, "no retry timer");
        let local = t.take_local(a);
        assert!(local.is_some_and(|(id, key, ..)| id == 7 && key.1 == RowKey::from_u64(1)));
        assert!(t.take_local(a).is_none(), "taken twice");
        assert!(t.take_local(b).is_none(), "a remote request is not local");
        t.give_up(b);
        let (ended, late) = t.finish(b, ms(3)).expect("live");
        assert!(ended.gave_up && !late);
        assert!(t.finish(a, ms(3)).is_some_and(|(e, _)| !e.gave_up));
        assert_eq!(t.live(), 0);
    }
}
