//! The compute-node actor: feeds input tuples through the optimizer,
//! executes local UDFs against its simulated CPU/disk, transmits batches,
//! and walks multi-stage plans.

use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;

use jl_core::compute::ComputeRuntime;
use jl_core::types::{Action, NodeHealth, ResponseItem, ValueSource};
use jl_costmodel::NodeCosts;
use jl_runtime::RuntimeCtx;
use jl_simkit::prelude::*;
use jl_simkit::sim::NodeId;
use jl_store::{Catalog, TableId, UdfRegistry};
use jl_telemetry::{Arg, ArgVal, TelemetryHandle, TraceEvent, Track};

use jl_core::shed::{ShedCandidate, ShedPolicy};

use crate::cluster::{EKey, Msg, Val, BATCH_OVERHEAD, ITEM_OVERHEAD};
use crate::config::{ClusterSpec, FeedMode, OverloadConfig, RetryConfig};
use crate::plan::{decode_params, encode_params, output_fingerprint, survives, JobPlan, JobTuple};
use crate::telemetry::tel_record;

/// Timer tag reserved for batch-deadline polling.
const DEADLINE_TAG: u64 = u64::MAX;

/// Tag bit marking per-request retry timers (`RETRY_BIT | req_id`).
/// Request ids are sequential and never reach this bit. `DEADLINE_TAG`
/// also carries the bit, so the deadline check must come first.
const RETRY_BIT: u64 = 1 << 63;

/// Tag bit marking NACK re-present timers (`NACK_BIT | req_id`). Disjoint
/// from `RETRY_BIT`; `DEADLINE_TAG` carries both, so it is checked first.
const NACK_BIT: u64 = 1 << 62;

/// How many queue-head entries the shed policy scans when an arrival
/// overflows the bounded ingest queue. The head holds the oldest (and
/// under deadlines, most doomed) tuples, so a bounded slate keeps victim
/// quality while keeping the per-shed cost O(1) in the queue bound.
const SHED_SCAN: usize = 64;

/// Why a tuple left the pipeline without completing. Reported per tuple
/// in [`RunReport::outcomes`](crate::runner::RunReport::outcomes) when
/// [`OverloadConfig::record_outcomes`] is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleOutcome {
    /// Dropped by overload protection (queue overflow or hopeless
    /// deadline). A shed tuple does *not* count as completed.
    Shed,
    /// Its request exhausted every retry; the tuple completed with no
    /// output (counted in both `completed` and `gave_up`).
    GaveUp,
}

/// How a tuple left the pipeline, as observed by a completion hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleFate {
    /// Completed all stages and produced (fingerprinted) output.
    Done,
    /// Completed with no output after exhausting every retry.
    GaveUp,
    /// Dropped by overload protection before completing.
    Shed,
}

/// Observer called once per tuple when its fate is decided:
/// `(seq, fate, now)`. Used by `jl-serve` to answer requests as they
/// finish; `None` (every sim path) costs one branch per completion.
pub type CompletionHook = Box<dyn FnMut(u64, TupleFate, SimTime)>;

struct PendingLocal {
    key: EKey,
    params: Bytes,
    value: Val,
}

/// Per-run counters a compute node reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct ComputeNodeReport {
    /// Tuples fully processed (all stages).
    pub completed: u64,
    /// Tuples ingested.
    pub ingested: u64,
    /// XOR fingerprint over all stage outputs.
    pub fingerprint: u64,
    /// Requests re-issued after a timeout.
    pub retries: u64,
    /// Batches rerouted to a failover replica of a down data node.
    pub failovers: u64,
    /// Requests abandoned after exhausting retries.
    pub gave_up: u64,
    /// Tuples dropped by overload protection (never counted completed).
    pub shed: u64,
    /// Tuples that completed after their deadline budget expired.
    pub deadline_misses: u64,
    /// NACK messages received from backpressuring data nodes.
    pub nacks: u64,
    /// Deepest the streaming ingest queue ever got (tracked only with
    /// overload protection on; bounded by `compute_queue_cap`).
    pub peak_ingest_queue: u64,
}

/// The compute-node actor state.
pub struct ComputeNode {
    idx: usize,
    rt: ComputeRuntime<EKey, Bytes, Val>,
    catalog: Arc<Catalog>,
    udfs: UdfRegistry,
    plan: Arc<JobPlan>,
    spec: ClusterSpec,
    feed: FeedMode,
    input: VecDeque<JobTuple>,
    /// Tuples currently somewhere in the pipeline, by seq (needed to reach
    /// later-stage keys).
    live: FxHashMap<u64, JobTuple>,
    /// Local executions awaiting their CPU-completion timer.
    pending_local: FxHashMap<u64, PendingLocal>,
    /// `(seq, stage)` of every request sent to a data node, by request id.
    sent: FxHashMap<u64, (u64, u16)>,
    report: ComputeNodeReport,
    done_sent: bool,
    flushed_input: bool,
    /// Ingest→completion latency per tuple (streaming diagnosis).
    latency: jl_simkit::stats::DurationHistogram,
    started_at: FxHashMap<u64, SimTime>,
    /// Request-send→reply latency per remote item.
    remote_lat: jl_simkit::stats::DurationHistogram,
    /// RunLocal issue→completion latency.
    local_lat: jl_simkit::stats::DurationHistogram,
    /// Send timestamps per remote item, for the remote-latency histogram.
    sent_at: FxHashMap<u64, SimTime>,
    /// Timeout/retry policy; `None` arms no retry timers at all.
    retry: Option<RetryConfig>,
    /// Failover map: crashed data node -> surviving node that absorbed a
    /// replica of its regions. Only crash-planned nodes appear here.
    backups: Arc<FxHashMap<usize, usize>>,
    /// Re-issue attempts per request id (absent = first attempt).
    attempts: FxHashMap<u64, u32>,
    /// Per data node: avoid routing to it until this time (set by
    /// timeouts, cleared by replies).
    down_until: Vec<SimTime>,
    /// Overload protection; `None` disables every shed/backpressure path.
    overload: Option<OverloadConfig>,
    /// Victim selection under pressure (present iff `overload` is).
    shed_policy: Option<Box<dyn ShedPolicy<EKey>>>,
    /// Per-tuple deadline, by seq (populated only when the overload
    /// config carries a deadline budget).
    deadlines: FxHashMap<u64, SimTime>,
    /// Per data node: last piggybacked pressure bit (true between a NACK
    /// or pressured reply and the next clean reply).
    pressured_dests: Vec<bool>,
    /// How many destinations are currently pressured; while nonzero the
    /// issue window is halved (slow issue instead of unbounded buffering).
    n_pressured: usize,
    /// Ingested tuples later shed mid-flight — outstanding() must not
    /// wait on them.
    shed_inflight: u64,
    /// Per-tuple `(seq, outcome)` log, kept only when
    /// `overload.record_outcomes` is set.
    outcomes: Vec<(u64, TupleOutcome)>,
    /// Shared recorder, when the run is traced. `None` costs one branch
    /// per emission site and nothing else.
    tel: Option<TelemetryHandle>,
    /// This node's id in the trace (its sim node id).
    tel_node: u32,
    /// Staging buffer between this node and its staged decision sink,
    /// installed for every traced run (see
    /// [`decision_tee_staged`](crate::telemetry::decision_tee_staged)).
    /// Drained right after every optimizer call that can decide.
    decision_stage: Option<std::rc::Rc<crate::telemetry::DecisionStage>>,
    /// In-pipeline tuple count over time, tracked locally per sample and
    /// adopted into the metrics registry at snapshot (traced runs only).
    outstanding_gauge: Option<jl_simkit::stats::TimeWeightedGauge>,
    /// Per-tuple fate observer (request/response serving). Called once
    /// per tuple, never per event.
    on_complete: Option<CompletionHook>,
    /// Seqs whose request gave up — so the completion path can tell a
    /// give-up apart from a normal finish when reporting fate.
    gave_up_seqs: rustc_hash::FxHashSet<u64>,
    /// Runtime region-ownership overrides from controller `EpochUpdate`s:
    /// `(table, region) -> (epoch, owner)`. Strictly newer epochs win;
    /// regions absent here still route by the static catalog. Empty on
    /// every static run.
    overrides: FxHashMap<(TableId, usize), (u64, usize)>,
    /// Sticky per-data-node draining flags from controller
    /// `HealthUpdate`s: reply-driven health resets restore *this* state,
    /// not unconditional Healthy, so the rent penalty survives traffic.
    draining: Vec<bool>,
    /// Streaming arrivals this node will be posted over the whole run,
    /// when the runner knows the stream's length up front. Zero means
    /// open-ended (jl-serve feeds arrivals live): the node never declares
    /// `Done` and the run ends at its horizon.
    stream_expected: u64,
    /// Streaming arrivals seen so far (shed ones included).
    stream_received: u64,
}

impl ComputeNode {
    /// Build a compute node.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        idx: usize,
        cfg: jl_core::OptimizerConfig,
        spec: ClusterSpec,
        feed: FeedMode,
        catalog: Arc<Catalog>,
        udfs: UdfRegistry,
        plan: Arc<JobPlan>,
        input: Vec<JobTuple>,
        udf_cpu_hint: f64,
        seed: u64,
        policy: Option<Box<dyn jl_core::PlacementPolicy<EKey>>>,
        sink: Option<Box<dyn jl_core::DecisionSink<EKey>>>,
        retry: Option<RetryConfig>,
        backups: Arc<FxHashMap<usize, usize>>,
        overload: Option<OverloadConfig>,
        shed_policy: Option<Box<dyn ShedPolicy<EKey>>>,
    ) -> Self {
        let my = NodeCosts {
            t_disk: spec.disk_service(64 * 1024).as_secs_f64(),
            t_cpu: udf_cpu_hint,
            net_bw: spec.node.net_bw_bps,
        };
        let mut rt = match policy {
            Some(p) => ComputeRuntime::with_policy(cfg, spec.n_data, my, my, p),
            None => ComputeRuntime::new(cfg, spec.n_data, my, my, seed),
        };
        if let Some(s) = sink {
            rt.set_decision_sink(s);
        }
        let spec_n_data = spec.n_data;
        ComputeNode {
            idx,
            rt,
            catalog,
            udfs,
            plan,
            spec,
            feed,
            input: input.into(),
            live: FxHashMap::default(),
            pending_local: FxHashMap::default(),
            sent: FxHashMap::default(),
            report: ComputeNodeReport::default(),
            done_sent: false,
            flushed_input: false,
            latency: jl_simkit::stats::DurationHistogram::new(),
            started_at: FxHashMap::default(),
            remote_lat: jl_simkit::stats::DurationHistogram::new(),
            local_lat: jl_simkit::stats::DurationHistogram::new(),
            sent_at: FxHashMap::default(),
            retry,
            backups,
            attempts: FxHashMap::default(),
            down_until: vec![SimTime::ZERO; spec_n_data],
            overload,
            shed_policy,
            deadlines: FxHashMap::default(),
            pressured_dests: vec![false; spec_n_data],
            n_pressured: 0,
            shed_inflight: 0,
            outcomes: Vec::new(),
            tel: None,
            tel_node: 0,
            decision_stage: None,
            outstanding_gauge: None,
            on_complete: None,
            gave_up_seqs: rustc_hash::FxHashSet::default(),
            overrides: FxHashMap::default(),
            draining: vec![false; spec_n_data],
            stream_expected: 0,
            stream_received: 0,
        }
    }

    /// Declare how many streaming arrivals this node will be posted, so a
    /// stream run can report `Done` (and stop the cluster) once the last
    /// one resolves instead of idling to its horizon. Call before the run
    /// starts; leave unset for open-ended feeds (jl-serve).
    pub fn set_stream_expected(&mut self, n: u64) {
        self.stream_expected = n;
    }

    /// A data node's health when nothing is actively wrong with it: Healthy
    /// normally, Draining while the controller has it mid-decommission.
    /// Every reply-driven "proof of life" reset restores this instead of
    /// unconditional Healthy, keeping the drain's rent penalty sticky.
    fn base_health(&self, j: usize) -> NodeHealth {
        if self.draining[j] {
            NodeHealth::Draining
        } else {
            NodeHealth::Healthy
        }
    }

    /// Attach a per-tuple fate observer (see [`CompletionHook`]). Call
    /// before the run starts.
    pub fn set_completion_hook(&mut self, hook: CompletionHook) {
        self.on_complete = Some(hook);
    }

    /// Attach a telemetry recorder. `node` is this node's sim id, used as
    /// the trace process id. Call before the simulation starts.
    pub fn set_telemetry(&mut self, tel: TelemetryHandle, node: u32) {
        self.tel = Some(tel);
        self.tel_node = node;
    }

    /// Attach the staging buffer shared with this node's staged decision
    /// sink (traced runs only). Call before the run starts.
    pub(crate) fn set_decision_stage(
        &mut self,
        stage: std::rc::Rc<crate::telemetry::DecisionStage>,
    ) {
        self.decision_stage = Some(stage);
    }

    /// [`tel_record`] for the hottest emitters, from event parts: records
    /// allocation-free (no ~220-byte `TraceEvent` built just to be
    /// unpacked).
    #[inline]
    fn tel_record_parts<const N: usize>(
        &self,
        track: Track,
        name: &'static str,
        start: SimTime,
        dur: Option<SimDuration>,
        args: [Arg; N],
    ) {
        let Some(t) = &self.tel else { return };
        t.borrow_mut()
            .record_parts(self.tel_node, track, name, start, dur, &args);
    }

    /// Record the decisions the staged sink captured since the last drain
    /// (traced runs only; the stage is absent elsewhere). Must run right
    /// after any `self.rt` call that can fire the sink, *before* this node
    /// records anything else, so each decision lands at its trace position.
    fn drain_decisions<C: RuntimeCtx<Msg>>(&self, ctx: &mut C) {
        if let (Some(stage), Some(t)) = (&self.decision_stage, &self.tel) {
            stage.drain(t, self.tel_node, ctx.now());
        }
    }

    /// Track the in-pipeline tuple count as a time-weighted gauge. The
    /// gauge is node-local state (like the latency histograms), updated in
    /// place on every sample — no registry lookup, no recorder lock. The
    /// runner adopts the finished gauge into the registry at snapshot.
    fn tel_outstanding<C: RuntimeCtx<Msg>>(&mut self, ctx: &mut C) {
        if self.tel.is_none() {
            return;
        }
        let now = ctx.now();
        let v = self.outstanding() as f64;
        self.outstanding_gauge
            .get_or_insert_with(|| jl_simkit::stats::TimeWeightedGauge::new(SimTime::ZERO, 0.0))
            .set(now, v);
    }

    /// The locally-tracked in-pipeline gauge, if any sample was taken
    /// (traced runs only). Adopted into the metrics registry at snapshot.
    pub(crate) fn outstanding_gauge(&self) -> Option<&jl_simkit::stats::TimeWeightedGauge> {
        self.outstanding_gauge.as_ref()
    }

    /// Live pipeline state for mid-run observability: `(tuples in flight,
    /// destinations currently signalling pressure)`. Plain accounting, no
    /// side effects.
    pub fn live_pipeline(&self) -> (u64, u64) {
        (self.outstanding(), self.n_pressured as u64)
    }

    /// Remote request→reply latency distribution.
    pub fn remote_latency(&self) -> &jl_simkit::stats::DurationHistogram {
        &self.remote_lat
    }

    /// Local execution latency distribution.
    pub fn local_latency(&self) -> &jl_simkit::stats::DurationHistogram {
        &self.local_lat
    }

    /// Ingest→completion latency distribution.
    pub fn latency(&self) -> &jl_simkit::stats::DurationHistogram {
        &self.latency
    }

    /// Final counters.
    pub fn report(&self) -> ComputeNodeReport {
        self.report
    }

    /// Optimizer decision statistics.
    pub fn decision_stats(&self) -> jl_core::DecisionStats {
        self.rt.stats()
    }

    /// Cache statistics.
    pub fn cache_stats(&self) -> jl_cache::CacheStats {
        self.rt.cache_stats()
    }

    fn window(&self) -> usize {
        match self.feed {
            FeedMode::Batch { window } | FeedMode::Stream { window, .. } => window,
        }
    }

    /// The issue window after backpressure: while any destination is
    /// pressured, issue at half rate instead of buffering unboundedly.
    fn window_now(&self) -> usize {
        let w = self.window();
        if self.n_pressured > 0 {
            (w / 2).max(1)
        } else {
            w
        }
    }

    fn outstanding(&self) -> u64 {
        self.report.ingested - self.report.completed - self.shed_inflight
    }

    /// Per-tuple outcome log (`(seq, Shed | GaveUp)`), populated only
    /// when the overload config sets `record_outcomes`.
    pub fn outcomes(&self) -> &[(u64, TupleOutcome)] {
        &self.outcomes
    }

    /// The deadline a queued (not yet ingested) tuple is racing: its
    /// arrival plus the budget. Batch tuples carry no arrival timestamp;
    /// their budget starts at ingest instead, so they never queue-shed.
    fn queue_deadline(&self, tuple: &JobTuple) -> Option<SimTime> {
        let budget = self.overload.as_ref()?.deadline?;
        (tuple.arrival > SimTime::ZERO).then(|| tuple.arrival + budget)
    }

    fn record_outcome(&mut self, seq: u64, outcome: TupleOutcome) {
        if self.overload.is_some_and(|ov| ov.record_outcomes) {
            self.outcomes.push((seq, outcome));
        }
    }

    /// The bounded ingest queue overflowed: have the shed policy pick a
    /// victim from a bounded slate — the queue head (oldest, and under
    /// deadlines most doomed, tuples) plus the newest arrival — and drop
    /// it before it was ever ingested.
    fn shed_from_queue<C: RuntimeCtx<Msg>>(&mut self, ctx: &mut C) {
        let table = self.plan.stages[0].table;
        let scan = SHED_SCAN.min(self.input.len());
        let mut slate: Vec<usize> = (0..scan).collect();
        if self.input.len() > scan {
            slate.push(self.input.len() - 1);
        }
        let candidates: Vec<ShedCandidate<EKey>> = slate
            .iter()
            .map(|&i| {
                let t = &self.input[i];
                let key: EKey = (table, t.keys[0].clone());
                ShedCandidate {
                    freq: self.rt.key_freq(&key),
                    deadline: self.queue_deadline(t),
                    arrival: t.arrival,
                    key,
                }
            })
            .collect();
        let pick = self
            .shed_policy
            .as_mut()
            .map(|p| p.choose_victim(ctx.now(), &candidates))
            .unwrap_or(0)
            .min(slate.len() - 1);
        let victim = self
            .input
            .remove(slate[pick])
            .expect("slate index in range");
        self.note_shed(victim.seq, "queue-overflow", ctx);
    }

    /// Count one shed tuple: counter, outcome log, hook, trace instant.
    fn note_shed<C: RuntimeCtx<Msg>>(&mut self, seq: u64, why: &'static str, ctx: &mut C) {
        self.report.shed += 1;
        self.record_outcome(seq, TupleOutcome::Shed);
        if let Some(hook) = &mut self.on_complete {
            hook(seq, TupleFate::Shed, ctx.now());
        }
        let node = self.tel_node;
        tel_record(&self.tel, ctx, |now| {
            TraceEvent::instant(node, Track::Fault, "shed", now)
                .arg("seq", seq)
                .arg("why", why)
        });
    }

    /// Called by the kernel at simulation start.
    pub fn on_start<C: RuntimeCtx<Msg>>(&mut self, ctx: &mut C) {
        if matches!(self.feed, FeedMode::Batch { .. }) {
            self.refill(ctx);
        }
    }

    fn is_batch(&self) -> bool {
        matches!(self.feed, FeedMode::Batch { .. })
    }

    fn refill<C: RuntimeCtx<Msg>>(&mut self, ctx: &mut C) {
        while (self.outstanding() as usize) < self.window_now() {
            let Some(tuple) = self.input.pop_front() else {
                // Batch jobs flush residual batches once the input is
                // exhausted; streams rely on the max-wait timer because
                // more input may still arrive.
                if self.is_batch() && !self.flushed_input {
                    self.flushed_input = true;
                    let actions = self.rt.flush_all();
                    self.drain_decisions(ctx);
                    self.handle_actions(actions, ctx);
                }
                break;
            };
            // Early shed: a queued tuple already past its deadline is
            // doomed — drop it before paying any decision or wire cost.
            if self.queue_deadline(&tuple).is_some_and(|d| ctx.now() >= d) {
                self.note_shed(tuple.seq, "expired-in-queue", ctx);
                continue;
            }
            self.start_tuple(tuple, ctx);
        }
        self.maybe_done(ctx);
    }

    fn start_tuple<C: RuntimeCtx<Msg>>(&mut self, tuple: JobTuple, ctx: &mut C) {
        self.report.ingested += 1;
        let seq = tuple.seq;
        if let Some(budget) = self.overload.as_ref().and_then(|ov| ov.deadline) {
            // Streaming budgets run from arrival (queue wait counts);
            // batch tuples have no arrival and start their budget here.
            let base = if tuple.arrival > SimTime::ZERO {
                tuple.arrival
            } else {
                ctx.now()
            };
            self.deadlines.insert(seq, base + budget);
        }
        // Latency is ingest→completion: a streaming tuple's clock starts
        // at its arrival — time spent waiting in the ingest queue is
        // exactly what an overloaded run must answer for — while a batch
        // tuple (no arrival timestamp) starts when it is issued.
        let t0 = if tuple.arrival > SimTime::ZERO {
            tuple.arrival
        } else {
            ctx.now()
        };
        self.started_at.insert(seq, t0);
        self.live.insert(seq, tuple);
        self.tel_outstanding(ctx);
        self.issue_stage(seq, 0, ctx);
    }

    fn issue_stage<C: RuntimeCtx<Msg>>(&mut self, seq: u64, stage: u16, ctx: &mut C) {
        let tuple = &self.live[&seq];
        let spec = &self.plan.stages[stage as usize];
        let row = tuple.keys[stage as usize].clone();
        let params = encode_params(seq, stage, tuple.params_size);
        let key: EKey = (spec.table, row.clone());
        let (region, mut server) = self.catalog.locate(spec.table, &row);
        // Live-migrated regions route by the controller's epoch overrides;
        // the static catalog stays the fallback for everything else.
        if let Some(&(_, owner)) = self.overrides.get(&(spec.table, region)) {
            server = owner;
        }
        let key_size = row.len() as u64 + 8;
        let params_size = params.len() as u64;
        let actions = self
            .rt
            .on_input(ctx.now(), key, params, key_size, params_size, server);
        self.drain_decisions(ctx);
        self.handle_actions(actions, ctx);
    }

    fn handle_actions<C: RuntimeCtx<Msg>>(
        &mut self,
        actions: Vec<Action<EKey, Bytes, Val>>,
        ctx: &mut C,
    ) {
        for action in actions {
            match action {
                Action::RunLocal {
                    req_id,
                    key,
                    params,
                    value,
                    source,
                } => {
                    // Disk-cache reads pay the local disk before the CPU.
                    let ready = if source == ValueSource::DiskCache {
                        let svc = self.spec.disk_service(value.0.size());
                        ctx.use_resource(ResourceKind::Disk, ctx.now(), svc).done
                    } else {
                        ctx.now()
                    };
                    let grant = ctx.use_resource(ResourceKind::Cpu, ready, value.0.udf_cpu());
                    self.local_lat.record(grant.done.since(ctx.now()));
                    self.pending_local
                        .insert(req_id, PendingLocal { key, params, value });
                    ctx.set_timer(grant.done, req_id);
                }
                Action::Send { dest, batch } => {
                    let mut bytes = BATCH_OVERHEAD;
                    for item in &batch.items {
                        let (seq, stage) = decode_params(&item.params);
                        self.sent.insert(item.req_id, (seq, stage));
                        self.sent_at.insert(item.req_id, ctx.now());
                        bytes += item.key.1.len() as u64 + item.params.len() as u64 + ITEM_OVERHEAD;
                    }
                    if let Some(rc) = self.retry {
                        for item in &batch.items {
                            let a = self.attempts.get(&item.req_id).copied().unwrap_or(0);
                            let mut to = rc.timeout_for(a);
                            // The deadline budget is authoritative: a
                            // retry timer may never be armed past it, so
                            // backoff cannot extend a tuple's total
                            // latency beyond its budget.
                            if let Some(rem) = self.remaining_budget(item.req_id, ctx.now()) {
                                to = to.min(rem);
                            }
                            ctx.set_timer_after(to, RETRY_BIT | item.req_id);
                        }
                    }
                    let to = self.route(dest, &batch, ctx);
                    ctx.send(
                        to,
                        Msg::Request {
                            from_compute: self.idx,
                            batch,
                        },
                        bytes,
                    );
                }
            }
        }
        if let Some(deadline) = self.rt.next_deadline() {
            ctx.set_timer(deadline, DEADLINE_TAG);
        }
    }

    /// The sim node id a batch for data node `dest` should be wired to:
    /// the owner itself, or — while the owner is in its post-timeout
    /// cooldown *and* a failover replica exists — the backup holding a
    /// copy of its regions. Nodes without a replica are never rerouted
    /// (the replica is what makes the redirect answerable). A batch that
    /// touches any live-migrated region is never rerouted either: the
    /// backup absorbed a *build-time* replica of `dest`'s regions, which
    /// cannot answer for data that migrated in afterward — those requests
    /// keep probing the owner and fall back to retry/give-up semantics.
    fn route<C: RuntimeCtx<Msg>>(
        &mut self,
        dest: usize,
        batch: &jl_core::types::BatchRequest<EKey, Bytes>,
        ctx: &mut C,
    ) -> usize {
        if ctx.now() < self.down_until[dest] {
            let replica_safe = self.overrides.is_empty()
                || batch.items.iter().all(|item| {
                    let (region, _) = self.catalog.locate(item.key.0, &item.key.1);
                    !self.overrides.contains_key(&(item.key.0, region))
                });
            if !replica_safe {
                return self.spec.data_id(dest);
            }
            if let Some(&b) = self.backups.get(&dest) {
                self.report.failovers += 1;
                let node = self.tel_node;
                tel_record(&self.tel, ctx, |now| {
                    TraceEvent::instant(node, Track::Fault, "failover", now)
                        .arg("dest", dest as u64)
                        .arg("backup", b as u64)
                });
                return self.spec.data_id(b);
            }
        }
        self.spec.data_id(dest)
    }

    /// The deadline of the tuple `req_id` is working for, if both the
    /// request is known and deadline budgets are on.
    fn deadline_of_req(&self, req_id: u64) -> Option<SimTime> {
        let (seq, _) = self.sent.get(&req_id)?;
        self.deadlines.get(seq).copied()
    }

    /// Time left in `req_id`'s deadline budget (`ZERO` once expired);
    /// `None` when no budget applies.
    fn remaining_budget(&self, req_id: u64, now: SimTime) -> Option<SimDuration> {
        let dl = self.deadline_of_req(req_id)?;
        Some(if dl > now {
            dl.since(now)
        } else {
            SimDuration::ZERO
        })
    }

    /// Shed an in-flight request whose deadline is hopeless: abandon the
    /// request, drop the tuple from the pipeline with a `Shed` outcome,
    /// and free its window slot. The typed counterpart of give-up — but
    /// *early*, before more CPU/NIC is burnt on doomed work.
    fn shed_request<C: RuntimeCtx<Msg>>(&mut self, req_id: u64, why: &'static str, ctx: &mut C) {
        self.rt.abandon(req_id);
        self.drain_decisions(ctx);
        self.attempts.remove(&req_id);
        self.sent_at.remove(&req_id);
        let Some((seq, _stage)) = self.sent.remove(&req_id) else {
            return;
        };
        self.live.remove(&seq);
        self.deadlines.remove(&seq);
        self.started_at.remove(&seq);
        self.shed_inflight += 1;
        self.note_shed(seq, why, ctx);
        self.tel_outstanding(ctx);
        self.refill(ctx);
    }

    /// A NACK arrived: the destination's ingest queue refused the batch.
    /// Treat it like a Degraded signal for the decision plane, then
    /// re-present each request after the backoff — unless its deadline is
    /// already hopeless, in which case shed it now.
    fn handle_nack<C: RuntimeCtx<Msg>>(
        &mut self,
        from_data: usize,
        req_ids: Vec<u64>,
        ctx: &mut C,
    ) {
        let Some(ov) = self.overload else { return };
        self.report.nacks += 1;
        if !self.pressured_dests[from_data] {
            self.pressured_dests[from_data] = true;
            self.n_pressured += 1;
        }
        self.rt.set_health(from_data, NodeHealth::Degraded);
        let node = self.tel_node;
        let n_items = req_ids.len() as u64;
        tel_record(&self.tel, ctx, |now| {
            TraceEvent::instant(node, Track::Fault, "nacked", now)
                .arg("from_data", from_data as u64)
                .arg("items", n_items)
        });
        for req_id in req_ids {
            if self.rt.inflight_info(req_id).is_none() {
                continue;
            }
            if self
                .remaining_budget(req_id, ctx.now())
                .is_some_and(|rem| rem == SimDuration::ZERO)
            {
                self.shed_request(req_id, "deadline-on-nack", ctx);
            } else {
                ctx.set_timer_after(ov.nack_backoff, NACK_BIT | req_id);
            }
        }
    }

    /// A NACK backoff expired: re-present the request to its destination
    /// (same dest, same kind, no attempt bump — admission refusal is not
    /// a timeout). Stale timers are no-ops, exactly like retry timers.
    fn handle_nack_retry<C: RuntimeCtx<Msg>>(&mut self, req_id: u64, ctx: &mut C) {
        let Some((dest, _)) = self.rt.inflight_info(req_id) else {
            return;
        };
        if self
            .remaining_budget(req_id, ctx.now())
            .is_some_and(|rem| rem == SimDuration::ZERO)
        {
            self.shed_request(req_id, "deadline-on-represent", ctx);
            return;
        }
        let reissued = self.rt.reissue(req_id, dest, false);
        self.drain_decisions(ctx);
        let Some((new_id, action)) = reissued else {
            return;
        };
        if let Some(m) = self.sent.remove(&req_id) {
            self.sent.insert(new_id, m);
        }
        if let Some(a) = self.attempts.remove(&req_id) {
            self.attempts.insert(new_id, a);
        }
        self.sent_at.remove(&req_id);
        self.handle_actions(vec![action], ctx);
    }

    /// A retry timer fired for `req_id`: if the request is still
    /// unanswered, mark its destination unhealthy and re-issue (or give
    /// up once retries are exhausted). Stale timers — the reply already
    /// arrived, or the id was superseded by an earlier re-issue — are
    /// no-ops, which is what makes premature timeouts safe: they can
    /// duplicate work but never completions.
    fn handle_retry<C: RuntimeCtx<Msg>>(&mut self, req_id: u64, ctx: &mut C) {
        let Some(rc) = self.retry else { return };
        let Some((old_dest, _)) = self.rt.inflight_info(req_id) else {
            self.attempts.remove(&req_id);
            return;
        };
        // The deadline budget is authoritative over retry timeouts: when
        // the timer was capped at the remaining budget it fired at budget
        // expiry, not at a timeout — that is no evidence against the node,
        // and re-issuing could only finish late. Shed instead.
        if self
            .remaining_budget(req_id, ctx.now())
            .is_some_and(|rem| rem == SimDuration::ZERO)
        {
            self.shed_request(req_id, "deadline-on-timeout", ctx);
            return;
        }
        // Timeout observed. If the node has a failover replica, treat it
        // as down and reroute; otherwise keep probing it (slow links and
        // stragglers recover on their own) but tell the optimizer it is
        // degraded so ski-rental prices rents against it up.
        self.down_until[old_dest] = ctx.now() + rc.down_cooldown;
        let health = if self.backups.contains_key(&old_dest) {
            NodeHealth::Down
        } else {
            NodeHealth::Degraded
        };
        self.rt.set_health(old_dest, health);
        let attempt = self.attempts.remove(&req_id).unwrap_or(0) + 1;
        if let Some(&t0) = self.sent_at.get(&req_id) {
            let node = self.tel_node;
            tel_record(&self.tel, ctx, |now| {
                TraceEvent::span(node, Track::Fault, "timeout", t0, now.since(t0))
                    .arg("req", req_id)
                    .arg("dest", old_dest as u64)
                    .arg("attempt", u64::from(attempt))
            });
        }
        if attempt > rc.max_retries {
            self.rt.abandon(req_id);
            self.drain_decisions(ctx);
            self.sent_at.remove(&req_id);
            self.report.gave_up += 1;
            let node = self.tel_node;
            tel_record(&self.tel, ctx, |now| {
                TraceEvent::instant(node, Track::Fault, "gave-up", now).arg("req", req_id)
            });
            if let Some((seq, stage)) = self.sent.remove(&req_id) {
                self.record_outcome(seq, TupleOutcome::GaveUp);
                if self.on_complete.is_some() {
                    self.gave_up_seqs.insert(seq);
                }
                self.stage_finished(seq, stage, None, ctx);
            }
            return;
        }
        // Second attempt flips the request's side: a compute request that
        // keeps timing out becomes a fetch (the UDF can run anywhere), a
        // stalled fetch becomes a compute request.
        let flip = attempt == 2;
        let reissued = self.rt.reissue(req_id, old_dest, flip);
        self.drain_decisions(ctx);
        let Some((new_id, action)) = reissued else {
            return;
        };
        self.report.retries += 1;
        let node = self.tel_node;
        tel_record(&self.tel, ctx, |now| {
            TraceEvent::instant(node, Track::Fault, "retry", now)
                .arg("req", req_id)
                .arg("attempt", u64::from(attempt))
        });
        self.attempts.insert(new_id, attempt);
        if let Some(m) = self.sent.remove(&req_id) {
            self.sent.insert(new_id, m);
        }
        self.sent_at.remove(&req_id);
        self.handle_actions(vec![action], ctx);
    }

    /// A stage of a tuple produced `output` (or was filtered/missing when
    /// `None`): fingerprint it, advance the pipeline or finish the tuple.
    fn stage_finished<C: RuntimeCtx<Msg>>(
        &mut self,
        seq: u64,
        stage: u16,
        output: Option<&[u8]>,
        ctx: &mut C,
    ) {
        let mut advance = false;
        if let Some(out) = output {
            self.report.fingerprint ^= output_fingerprint(seq, stage, out);
            let spec = &self.plan.stages[stage as usize];
            advance = survives(seq, stage, spec.selectivity)
                && (stage as usize + 1) < self.plan.stages.len();
        }
        if advance {
            self.issue_stage(seq, stage + 1, ctx);
        } else {
            self.live.remove(&seq);
            // A tuple that completes past its budget is a deadline miss
            // (late, but not shed — its output still counts).
            if let Some(dl) = self.deadlines.remove(&seq) {
                if ctx.now() > dl {
                    self.report.deadline_misses += 1;
                }
            }
            if let Some(t0) = self.started_at.remove(&seq) {
                self.latency.record(ctx.now().since(t0));
                self.tel_record_parts(
                    Track::Lifecycle,
                    "tuple",
                    t0,
                    Some(ctx.now().since(t0)),
                    [("seq", ArgVal::U64(seq))],
                );
            }
            self.report.completed += 1;
            if let Some(hook) = &mut self.on_complete {
                let fate = if self.gave_up_seqs.remove(&seq) {
                    TupleFate::GaveUp
                } else {
                    TupleFate::Done
                };
                hook(seq, fate, ctx.now());
            }
            self.tel_outstanding(ctx);
            self.refill(ctx);
        }
    }

    fn maybe_done<C: RuntimeCtx<Msg>>(&mut self, ctx: &mut C) {
        if self.done_sent {
            return;
        }
        // Batch feeds drain their pulled input; stream feeds are done once
        // every declared arrival has been seen — a node with no declared
        // stream length (jl-serve's live feed) never reports Done.
        let stream_drained = match self.feed {
            FeedMode::Batch { .. } => true,
            FeedMode::Stream { .. } => {
                self.stream_expected > 0 && self.stream_received >= self.stream_expected
            }
        };
        if stream_drained && self.input.is_empty() && self.outstanding() == 0 {
            self.done_sent = true;
            ctx.send(
                self.spec.controller_id(),
                Msg::Done {
                    completed: self.report.completed,
                    fingerprint: self.report.fingerprint,
                },
                64,
            );
        }
    }

    /// Kernel message dispatch.
    pub fn on_message<C: RuntimeCtx<Msg>>(&mut self, _from: NodeId, msg: Msg, ctx: &mut C) {
        match msg {
            Msg::Tuple(tuple) => {
                // Streaming arrival: queue it; process under the window.
                self.stream_received += 1;
                self.input.push_back(tuple);
                if let Some(cap) = self.overload.map(|ov| ov.compute_queue_cap) {
                    while self.input.len() > cap {
                        self.shed_from_queue(ctx);
                    }
                    self.report.peak_ingest_queue =
                        self.report.peak_ingest_queue.max(self.input.len() as u64);
                }
                self.refill(ctx);
            }
            Msg::Reply {
                from_data,
                items,
                outputs,
                pressured,
            } => {
                if self.retry.is_some() {
                    // A reply is proof of life: stop avoiding the sender
                    // and let the optimizer trust it again. (A backup
                    // answering for a crashed owner clears only its own
                    // status — the owner stays in cooldown.)
                    self.down_until[from_data] = ctx.now();
                    let h = self.base_health(from_data);
                    self.rt.set_health(from_data, h);
                    for item in &items {
                        self.attempts.remove(&item.req_id);
                    }
                    for (req_id, _) in &outputs {
                        self.attempts.remove(req_id);
                    }
                }
                // Piggybacked backpressure. Applied *after* the retry
                // plane's proof-of-life Healthy above, so a pressured
                // reply leaves the sender Degraded for the decision plane
                // (ski-rental prices rents against it up); a clean reply
                // clears the mark and restores the full issue window.
                if self.overload.is_some() {
                    if pressured != self.pressured_dests[from_data] {
                        self.pressured_dests[from_data] = pressured;
                        if pressured {
                            self.n_pressured += 1;
                            let node = self.tel_node;
                            tel_record(&self.tel, ctx, |now| {
                                TraceEvent::instant(node, Track::Fault, "dest-pressured", now)
                                    .arg("from_data", from_data as u64)
                            });
                        } else {
                            self.n_pressured -= 1;
                            let h = self.base_health(from_data);
                            self.rt.set_health(from_data, h);
                        }
                    }
                    if pressured {
                        self.rt.set_health(from_data, NodeHealth::Degraded);
                    }
                }
                for item in &items {
                    if let Some(t0) = self.sent_at.remove(&item.req_id) {
                        self.remote_lat.record(ctx.now().since(t0));
                        self.tel_record_parts(
                            Track::Wire,
                            "request",
                            t0,
                            Some(ctx.now().since(t0)),
                            [
                                ("req", ArgVal::U64(item.req_id)),
                                ("from_data", ArgVal::U64(from_data as u64)),
                            ],
                        );
                    }
                }
                // Outputs computed at the data node complete their stage.
                for item in &items {
                    if matches!(item.payload, jl_core::types::ResponsePayload::Missing) {
                        if let Some((seq, stage)) = self.sent.remove(&item.req_id) {
                            self.stage_finished(seq, stage, None, ctx);
                        }
                    }
                }
                for (req_id, out) in &outputs {
                    if let Some((seq, stage)) = self.sent.remove(req_id) {
                        self.stage_finished(seq, stage, Some(out), ctx);
                    }
                }
                // Returned values (data requests and bounces) run locally.
                let value_items: Vec<ResponseItem<EKey, Val>> = items;
                for it in &value_items {
                    if matches!(it.payload, jl_core::types::ResponsePayload::Value { .. }) {
                        self.sent.remove(&it.req_id);
                    }
                }
                let actions = self.rt.on_batch_response(from_data, value_items);
                self.drain_decisions(ctx);
                self.handle_actions(actions, ctx);
            }
            Msg::Nack { from_data, req_ids } => {
                self.handle_nack(from_data, req_ids, ctx);
            }
            Msg::Invalidate { key } => {
                self.rt.on_update_notice(&key);
                self.drain_decisions(ctx);
            }
            Msg::HealthUpdate { node, health } => {
                // Controller-driven membership health: sticky until the
                // next HealthUpdate (reply-driven resets go through
                // base_health and preserve the draining mark).
                self.draining[node] = health == NodeHealth::Draining;
                self.rt.set_health(node, health);
                let tn = self.tel_node;
                tel_record(&self.tel, ctx, |now| {
                    TraceEvent::instant(tn, Track::Fault, "health-update", now)
                        .arg("data", node as u64)
                        .arg("draining", u64::from(health == NodeHealth::Draining))
                });
            }
            Msg::EpochUpdate {
                epoch,
                table,
                region,
                owner,
            } => {
                // Strictly newer epochs win; reordered stale updates lose.
                let slot = self.overrides.entry((table, region)).or_insert((0, 0));
                if epoch > slot.0 {
                    *slot = (epoch, owner);
                    let tn = self.tel_node;
                    tel_record(&self.tel, ctx, |now| {
                        TraceEvent::instant(tn, Track::Fault, "epoch-update", now)
                            .arg("epoch", epoch)
                            .arg("table", table as u64)
                            .arg("region", region as u64)
                            .arg("owner", owner as u64)
                    });
                }
            }
            _ => {}
        }
    }

    /// Kernel timer dispatch: local UDF completions, batch deadlines, and
    /// per-request retry timeouts.
    pub fn on_timer<C: RuntimeCtx<Msg>>(&mut self, tag: u64, ctx: &mut C) {
        // DEADLINE_TAG is u64::MAX, which also carries RETRY_BIT — it must
        // be checked first.
        if tag == DEADLINE_TAG {
            let actions = self.rt.poll(ctx.now());
            self.drain_decisions(ctx);
            self.handle_actions(actions, ctx);
            return;
        }
        if tag & RETRY_BIT != 0 {
            self.handle_retry(tag & !RETRY_BIT, ctx);
            return;
        }
        if tag & NACK_BIT != 0 {
            self.handle_nack_retry(tag & !NACK_BIT, ctx);
            return;
        }
        let Some(p) = self.pending_local.remove(&tag) else {
            return;
        };
        let (seq, stage) = decode_params(&p.params);
        let spec = &self.plan.stages[stage as usize];
        let udf = self.udfs.get(spec.udf).expect("udf registered").clone();
        let out = udf.apply(&p.key.1, &p.params, &p.value.0);
        self.rt
            .on_local_done(tag, p.value.0.udf_cpu().as_secs_f64());
        self.drain_decisions(ctx);
        self.stage_finished(seq, stage, Some(&out), ctx);
    }
}
