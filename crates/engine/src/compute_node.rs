//! The compute-node actor: feeds input tuples through the optimizer,
//! executes local UDFs against its simulated CPU/disk, transmits batches,
//! and walks multi-stage plans.

use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;

use jl_core::compute::ComputeRuntime;
use jl_core::types::{Action, NodeHealth, ResponsePayload, ValueSource};
use jl_costmodel::NodeCosts;
use jl_runtime::RuntimeCtx;
use jl_simkit::prelude::*;
use jl_simkit::sim::NodeId;
use jl_store::{Catalog, TableId, UdfRegistry};
use jl_telemetry::{ArgVal, TelemetryHandle, Track};

use jl_core::shed::{ShedCandidate, ShedPolicy};

use crate::cluster::{EKey, Msg, Val, BATCH_OVERHEAD, CTRL_BYTES, ITEM_OVERHEAD};
use crate::config::{ClusterSpec, FeedMode, OverloadConfig, RetryConfig};
use crate::plan::{decode_params, encode_params, output_fingerprint, survives, JobPlan, JobTuple};
use crate::requests::{Event, Requests, Timer, Verdict};
use crate::telemetry::NodeTrace;

/// How many queue-head entries the shed policy scans when an arrival
/// overflows the bounded ingest queue. The head holds the oldest (and
/// under deadlines, most doomed) tuples, so a bounded slate keeps victim
/// quality while keeping the per-shed cost O(1) in the queue bound.
const SHED_SCAN: usize = 64;

/// How a tuple left the pipeline: what a completion hook observes, and
/// (for every fate but `Done`) what
/// [`RunReport::outcomes`](crate::runner::RunReport::outcomes) logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleFate {
    /// Completed all stages and produced (fingerprinted) output.
    Done,
    /// Its request exhausted every retry; the tuple completed with no
    /// output (counted in both `completed` and `gave_up`).
    GaveUp,
    /// Dropped by overload protection (queue overflow or hopeless
    /// deadline). A shed tuple does *not* count as completed.
    Shed,
}

/// Observer called once per tuple when its fate is decided:
/// `(seq, fate, now)`. Used by `jl-serve` to answer requests as they
/// finish; `None` (every sim path) costs one branch per completion.
pub type CompletionHook = Box<dyn FnMut(u64, TupleFate, SimTime)>;

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

/// A request in flight, as the optimizer's in-flight record names it.
#[derive(Clone, Copy)]
struct Flying {
    req_id: u64,
    /// The data node it was last sent to.
    dest: usize,
    /// The tuple and stage it works for.
    seq: u64,
    stage: u16,
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
    /// Every live tuple and the engine's state of its request.
    reqs: Requests,
    report: ComputeNodeReport,
    done_sent: bool,
    flushed_input: bool,
    /// Ingest→completion latency per tuple (streaming diagnosis).
    latency: jl_simkit::stats::DurationHistogram,
    /// Request-send→reply latency per remote item.
    remote_lat: jl_simkit::stats::DurationHistogram,
    /// RunLocal issue→completion latency.
    local_lat: jl_simkit::stats::DurationHistogram,
    /// Failover map: crashed data node -> surviving node that absorbed a
    /// replica of its regions. Only crash-planned nodes appear here.
    backups: Arc<FxHashMap<usize, usize>>,
    /// Per data node: avoid routing to it until this time (set by
    /// timeouts, cleared by replies).
    down_until: Vec<SimTime>,
    /// Overload protection; `None` disables every shed/backpressure path.
    overload: Option<OverloadConfig>,
    /// Victim selection under pressure (present iff `overload` is).
    shed_policy: Option<Box<dyn ShedPolicy<EKey>>>,
    /// Per data node: last piggybacked pressure bit (true between a NACK
    /// or pressured reply and the next clean reply).
    pressured_dests: Vec<bool>,
    /// How many destinations are currently pressured; while nonzero the
    /// issue window is halved (slow issue instead of unbounded buffering).
    n_pressured: usize,
    /// `(seq, fate)` of every tuple that shed or gave up.
    outcomes: Vec<(u64, TupleFate)>,
    /// This node's tracing handle (inert on untraced runs).
    trace: NodeTrace,
    /// In-pipeline tuple count over time, tracked locally per sample and
    /// adopted into the metrics registry at snapshot (traced runs only).
    outstanding_gauge: Option<jl_simkit::stats::TimeWeightedGauge>,
    /// Per-tuple fate observer (request/response serving). Called once
    /// per tuple, never per event.
    on_complete: Option<CompletionHook>,
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
            reqs: Requests::new(overload.and_then(|ov| ov.deadline), retry),
            report: ComputeNodeReport::default(),
            done_sent: false,
            flushed_input: false,
            latency: jl_simkit::stats::DurationHistogram::new(),
            remote_lat: jl_simkit::stats::DurationHistogram::new(),
            local_lat: jl_simkit::stats::DurationHistogram::new(),
            backups,
            down_until: vec![SimTime::ZERO; spec_n_data],
            overload,
            shed_policy,
            pressured_dests: vec![false; spec_n_data],
            n_pressured: 0,
            outcomes: Vec::new(),
            trace: NodeTrace::default(),
            outstanding_gauge: None,
            on_complete: None,
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
    pub(crate) fn set_telemetry(&mut self, tel: TelemetryHandle, node: u32) {
        self.trace.attach(tel, node);
    }

    /// Track the in-pipeline tuple count as a time-weighted gauge. The
    /// gauge is node-local state (like the latency histograms), updated in
    /// place on every sample — no registry lookup, no recorder lock. The
    /// runner adopts the finished gauge into the registry at snapshot.
    fn tel_outstanding<C: RuntimeCtx<Msg>>(&mut self, ctx: &mut C) {
        if !self.trace.is_on() {
            return;
        }
        let now = ctx.now();
        let v = self.reqs.live() as f64;
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
        (self.reqs.live(), self.n_pressured as u64)
    }

    /// What this node still holds: `(requests in flight, local runs
    /// pending, live tuples)`. All three are zero once a run has drained.
    #[cfg(test)]
    pub(crate) fn held(&self) -> (usize, u64, u64) {
        let rt = &self.rt;
        (rt.inflight_count(), rt.local_pending(), self.reqs.live())
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

    /// The issue window after backpressure: while any destination is
    /// pressured, issue at half rate instead of buffering unboundedly.
    fn window_now(&self) -> usize {
        let (FeedMode::Batch { window } | FeedMode::Stream { window, .. }) = self.feed;
        if self.n_pressured > 0 {
            (window / 2).max(1)
        } else {
            window
        }
    }

    /// Per-tuple outcome log: `(seq, Shed | GaveUp)` for every tuple that
    /// did not complete with output.
    pub fn outcomes(&self) -> &[(u64, TupleFate)] {
        &self.outcomes
    }

    /// Tuple `seq` left the pipeline: log its fate unless it is `Done`,
    /// and tell the completion hook.
    fn tuple_ended(&mut self, seq: u64, fate: TupleFate, now: SimTime) {
        if fate != TupleFate::Done {
            self.outcomes.push((seq, fate));
        }
        if let Some(hook) = &mut self.on_complete {
            hook(seq, fate, now);
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
                    deadline: self.reqs.queue_deadline(t),
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
        self.tuple_ended(seq, TupleFate::Shed, ctx.now());
        self.trace.instant(Track::Fault, "shed", ctx.now(), || {
            [("seq", seq.into()), ("why", why.into())]
        });
    }

    /// Called by the kernel at simulation start.
    pub fn on_start<C: RuntimeCtx<Msg>>(&mut self, ctx: &mut C) {
        if self.is_batch() {
            self.refill(ctx);
        }
    }

    fn is_batch(&self) -> bool {
        matches!(self.feed, FeedMode::Batch { .. })
    }

    fn refill<C: RuntimeCtx<Msg>>(&mut self, ctx: &mut C) {
        while (self.reqs.live() as usize) < self.window_now() {
            let Some(tuple) = self.input.pop_front() else {
                // Batch jobs flush residual batches once the input is
                // exhausted; streams rely on the max-wait timer because
                // more input may still arrive.
                if self.is_batch() && !self.flushed_input {
                    self.flushed_input = true;
                    let actions = self.rt.flush_all();
                    self.handle_actions(actions, ctx);
                }
                break;
            };
            // Early shed: a queued tuple already past its deadline is
            // doomed — drop it before paying any decision or wire cost.
            let deadline = self.reqs.queue_deadline(&tuple);
            if deadline.is_some_and(|d| ctx.now() >= d) {
                self.note_shed(tuple.seq, "expired-in-queue", ctx);
                continue;
            }
            self.start_tuple(tuple, ctx);
        }
        self.maybe_done(ctx);
    }

    /// Ingest a tuple. Its latency clock and deadline budget start at its
    /// arrival — time spent waiting in the ingest queue is exactly what
    /// an overloaded run must answer for — or, for a batch tuple (no
    /// arrival timestamp), now.
    fn start_tuple<C: RuntimeCtx<Msg>>(&mut self, tuple: JobTuple, ctx: &mut C) {
        self.report.ingested += 1;
        let seq = self.reqs.start(tuple, ctx.now());
        self.tel_outstanding(ctx);
        self.issue_stage(seq, 0, ctx);
    }

    fn issue_stage<C: RuntimeCtx<Msg>>(&mut self, seq: u64, stage: u16, ctx: &mut C) {
        let tuple = self.reqs.next_stage(seq);
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
                    let (seq, _) = decode_params(&params);
                    self.reqs.run_local(seq, (req_id, key, params, value));
                    ctx.set_timer(grant.done, Timer::Local(seq).tag());
                }
                Action::Send { dest, batch } => {
                    let mut bytes = BATCH_OVERHEAD;
                    for item in &batch.items {
                        bytes += item.key.1.len() as u64 + item.params.len() as u64 + ITEM_OVERHEAD;
                        let (seq, _) = decode_params(&item.params);
                        if let Some(to) = self.reqs.sent(seq, ctx.now()) {
                            ctx.set_timer_after(to, Timer::Retry(item.req_id).tag());
                        }
                    }
                    let to = self.route(dest, &batch, ctx);
                    ctx.send(
                        to,
                        Msg::Request {
                            from_compute: self.idx,
                            batch: Box::new(batch),
                        },
                        bytes,
                    );
                }
            }
        }
        if let Some(deadline) = self.rt.next_deadline() {
            ctx.set_timer(deadline, Timer::Flush.tag());
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
                self.trace.instant(Track::Fault, "failover", ctx.now(), || {
                    [
                        ("dest", ArgVal::U64(dest as u64)),
                        ("backup", ArgVal::U64(b as u64)),
                    ]
                });
                return self.spec.data_id(b);
            }
        }
        self.spec.data_id(dest)
    }

    /// The destination, tuple and stage of request `req_id` while it is in
    /// flight: the optimizer's in-flight record is the one request table,
    /// and its params name the tuple. `None` once the request was
    /// answered, re-issued or abandoned.
    fn flying(&self, req_id: u64) -> Option<Flying> {
        let (dest, params) = self.rt.inflight_info(req_id)?;
        let (seq, stage) = decode_params(params);
        Some(Flying {
            req_id,
            dest,
            seq,
            stage,
        })
    }

    /// Shed an in-flight request whose deadline is hopeless: abandon the
    /// request, drop the tuple from the pipeline with a `Shed` outcome,
    /// and free its window slot. The typed counterpart of give-up — but
    /// *early*, before more CPU/NIC is burnt on doomed work.
    fn shed_request<C: RuntimeCtx<Msg>>(&mut self, f: Flying, why: &'static str, ctx: &mut C) {
        self.rt.abandon(f.req_id);
        self.reqs.shed(f.seq);
        self.note_shed(f.seq, why, ctx);
        self.tel_outstanding(ctx);
        self.refill(ctx);
    }

    /// Act on a NACK or a fired timer for `req_id` as the request table
    /// judges it. Stale timers — the reply already arrived, or the id was
    /// superseded by an earlier re-issue — are no-ops, which is what makes
    /// premature timeouts safe: they can duplicate work but never
    /// completions.
    fn on_request<C: RuntimeCtx<Msg>>(&mut self, event: Event, req_id: u64, ctx: &mut C) {
        let Some(f) = self.flying(req_id) else {
            return;
        };
        match self.reqs.judge(event, f.seq, ctx.now()) {
            Verdict::Ignore => {}
            Verdict::Shed(why) => self.shed_request(f, why, ctx),
            Verdict::Backoff => {
                if let Some(ov) = self.overload {
                    ctx.set_timer_after(ov.nack_backoff, Timer::Represent(req_id).tag());
                }
            }
            v @ Verdict::Represent => self.reissue(f, v, ctx),
            v @ (Verdict::Reissue { .. } | Verdict::GiveUp) => self.timed_out(f, v, ctx),
        }
    }

    /// A retry timer caught `req_id` unanswered at `dest`. If the node has
    /// a failover replica, treat it as down and reroute; otherwise keep
    /// probing it (slow links and stragglers recover on their own) but
    /// tell the optimizer it is degraded so ski-rental prices rents
    /// against it up. Then re-issue the request or give up, as judged.
    fn timed_out<C: RuntimeCtx<Msg>>(&mut self, f: Flying, v: Verdict, ctx: &mut C) {
        if let Some(rc) = self.reqs.retry() {
            self.down_until[f.dest] = ctx.now() + rc.down_cooldown;
        }
        let health = if self.backups.contains_key(&f.dest) {
            NodeHealth::Down
        } else {
            NodeHealth::Degraded
        };
        self.rt.set_health(f.dest, health);
        if let Some(r) = self.reqs.get(f.seq) {
            self.trace
                .span(Track::Fault, "timeout", r.sent_at, ctx.now(), || {
                    [
                        ("req", f.req_id.into()),
                        ("dest", ArgVal::U64(f.dest as u64)),
                        ("attempt", ArgVal::U64(r.attempt.into())),
                    ]
                });
        }
        match v {
            Verdict::GiveUp => self.give_up(f, ctx),
            _ => self.reissue(f, v, ctx),
        }
    }

    /// Re-issue a request to its destination under a new id: a NACK
    /// re-present, or a retry (`Verdict::Reissue`), which is counted and
    /// traced. The tuple's record keeps its attempt for the new id.
    fn reissue<C: RuntimeCtx<Msg>>(&mut self, f: Flying, v: Verdict, ctx: &mut C) {
        let attempt = self.reqs.get(f.seq).map_or(0, |r| r.attempt);
        let flip = v == Verdict::Reissue { flip: true };
        let reissued = self.rt.reissue(f.req_id, f.dest, flip);
        let Some((_, action)) = reissued else {
            return;
        };
        if let Verdict::Reissue { .. } = v {
            self.report.retries += 1;
            self.trace.instant(Track::Fault, "retry", ctx.now(), || {
                [
                    ("req", f.req_id.into()),
                    ("attempt", ArgVal::U64(attempt.into())),
                ]
            });
        }
        self.handle_actions(vec![action], ctx);
    }

    /// Retries are exhausted: abandon the request and complete its tuple
    /// with no output.
    fn give_up<C: RuntimeCtx<Msg>>(&mut self, f: Flying, ctx: &mut C) {
        self.rt.abandon(f.req_id);
        self.report.gave_up += 1;
        self.trace.instant(Track::Fault, "gave-up", ctx.now(), || {
            [("req", f.req_id.into())]
        });
        self.reqs.give_up(f.seq);
        self.stage_finished(f.seq, f.stage, None, ctx);
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
            let mut fate = TupleFate::Done;
            if let Some((ended, late)) = self.reqs.finish(seq, ctx.now()) {
                // A tuple that completes past its budget is a deadline
                // miss (late, but not shed — its output still counts).
                if late {
                    self.report.deadline_misses += 1;
                }
                let t0 = ended.started;
                self.latency.record(ctx.now().since(t0));
                self.trace
                    .span(Track::Lifecycle, "tuple", t0, ctx.now(), || {
                        [("seq", seq.into())]
                    });
                if ended.gave_up {
                    fate = TupleFate::GaveUp;
                }
            }
            self.report.completed += 1;
            self.tuple_ended(seq, fate, ctx.now());
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
        if stream_drained && self.input.is_empty() && self.reqs.live() == 0 {
            self.done_sent = true;
            ctx.send(self.spec.controller_id(), Msg::Done, CTRL_BYTES);
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
                if self.reqs.retry().is_some() {
                    // A reply is proof of life: stop avoiding the sender
                    // and let the optimizer trust it again. (A backup
                    // answering for a crashed owner clears only its own
                    // status — the owner stays in cooldown.)
                    self.down_until[from_data] = ctx.now();
                    let h = self.base_health(from_data);
                    self.rt.set_health(from_data, h);
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
                            self.trace
                                .instant(Track::Fault, "dest-pressured", ctx.now(), || {
                                    [("from_data", ArgVal::U64(from_data as u64))]
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
                // The optimizer drops the answered ids last, so each pass
                // finds its items' tuples, and this first one reads every
                // `sent_at` before a next stage's send can overwrite it.
                for item in &items {
                    let flying = self.flying(item.req_id);
                    let sent = flying.and_then(|f| self.reqs.get(f.seq));
                    if let Some(t0) = sent.map(|r| r.sent_at) {
                        self.remote_lat.record(ctx.now().since(t0));
                        self.trace.span(Track::Wire, "request", t0, ctx.now(), || {
                            [
                                ("req", item.req_id.into()),
                                ("from_data", ArgVal::U64(from_data as u64)),
                            ]
                        });
                    }
                }
                // A missing row completes its stage empty, then outputs
                // computed at the data node complete theirs; a returned
                // value (a data request or a bounce) runs locally below.
                for item in &items {
                    if let ResponsePayload::Missing = item.payload {
                        if let Some(f) = self.flying(item.req_id) {
                            self.stage_finished(f.seq, f.stage, None, ctx);
                        }
                    }
                }
                for (req_id, out) in &outputs {
                    if let Some(f) = self.flying(*req_id) {
                        self.stage_finished(f.seq, f.stage, Some(out), ctx);
                    }
                }
                let actions = self.rt.on_batch_response(from_data, items);
                self.handle_actions(actions, ctx);
            }
            // The destination's ingest queue refused the batch: a Degraded
            // signal for the decision plane, then each request is judged
            // (re-presented after the backoff, or shed if hopeless).
            Msg::Nack { from_data, req_ids } if self.overload.is_some() => {
                self.report.nacks += 1;
                if !self.pressured_dests[from_data] {
                    self.pressured_dests[from_data] = true;
                    self.n_pressured += 1;
                }
                self.rt.set_health(from_data, NodeHealth::Degraded);
                self.trace.instant(Track::Fault, "nacked", ctx.now(), || {
                    [
                        ("from_data", ArgVal::U64(from_data as u64)),
                        ("items", ArgVal::U64(req_ids.len() as u64)),
                    ]
                });
                for req_id in req_ids {
                    self.on_request(Event::Nack, req_id, ctx);
                }
            }
            Msg::Invalidate { key } => {
                self.rt.on_update_notice(&key);
            }
            Msg::HealthUpdate { node, health } => {
                // Controller-driven membership health: sticky until the
                // next HealthUpdate (reply-driven resets go through
                // base_health and preserve the draining mark).
                let draining = health == NodeHealth::Draining;
                self.draining[node] = draining;
                self.rt.set_health(node, health);
                self.trace
                    .instant(Track::Fault, "health-update", ctx.now(), || {
                        [
                            ("data", ArgVal::U64(node as u64)),
                            ("draining", ArgVal::U64(draining.into())),
                        ]
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
                    self.trace
                        .instant(Track::Fault, "epoch-update", ctx.now(), || {
                            [
                                ("epoch", epoch.into()),
                                ("table", ArgVal::U64(table as u64)),
                                ("region", ArgVal::U64(region as u64)),
                                ("owner", ArgVal::U64(owner as u64)),
                            ]
                        });
                }
            }
            _ => {}
        }
    }

    /// Kernel timer dispatch: local UDF completions, batch deadlines,
    /// NACK re-presents and per-request retry timeouts.
    pub fn on_timer<C: RuntimeCtx<Msg>>(&mut self, tag: u64, ctx: &mut C) {
        let seq = match Timer::decode(tag) {
            Timer::Flush => {
                let actions = self.rt.poll(ctx.now());
                self.handle_actions(actions, ctx);
                return;
            }
            Timer::Retry(req_id) => return self.on_request(Event::Retry, req_id, ctx),
            Timer::Represent(req_id) => return self.on_request(Event::Represent, req_id, ctx),
            Timer::Local(seq) => seq,
        };
        let Some((req_id, key, params, value)) = self.reqs.take_local(seq) else {
            return;
        };
        let (_, stage) = decode_params(&params);
        let spec = &self.plan.stages[stage as usize];
        let udf = self.udfs.get(spec.udf).expect("udf registered").clone();
        let out = udf.apply(&key.1, &params, &value.0);
        self.rt
            .on_local_done(req_id, value.0.udf_cpu().as_secs_f64());
        self.stage_finished(seq, stage, Some(&out), ctx);
    }
}
