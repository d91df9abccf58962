//! The data-node actor: a region-server shard plus the data-side
//! optimizer. Serves batched requests — fetching rows from its simulated
//! disk, executing its load-balanced share of the UDFs on its simulated
//! CPU, and bouncing the rest back as raw values.

use std::sync::Arc;

use bytes::Bytes;

use jl_core::data::DataRuntime;
use jl_core::types::{BatchRequest, CostInfo, ReqKind, ResponseItem, ResponsePayload};
use jl_costmodel::{ExpSmoothed, SizeProfile};
use jl_runtime::RuntimeCtx;
use jl_simkit::prelude::*;
use jl_simkit::sim::NodeId;
use jl_store::{BlockCache, Catalog, InterestTracker, RegionServer, StoredValue, UdfRegistry};
use jl_telemetry::{ArgVal, TelemetryHandle, Track};

use crate::cluster::{EKey, Msg, Val, BATCH_OVERHEAD, CTRL_BYTES, ITEM_OVERHEAD};

use crate::config::{ClusterSpec, OverloadConfig};
use crate::ingest::{Admit, Ingest, Served};
use crate::migration::{Effect, Event, Migrations, Peer};
use crate::plan::{decode_params, JobPlan};
use crate::telemetry::NodeTrace;

/// One reply to a batch: its items, the computed outputs among them, the
/// wire bytes, and when the last of them is ready.
struct Wave {
    ready: SimTime,
    items: Vec<ResponseItem<EKey, Val>>,
    outputs: Vec<(u64, Bytes)>,
    bytes: u64,
}

impl Wave {
    fn new(now: SimTime) -> Self {
        Wave {
            ready: now,
            items: Vec::new(),
            outputs: Vec::new(),
            bytes: BATCH_OVERHEAD,
        }
    }

    /// Add `item`, `bytes` on the wire and ready at `done`.
    fn push(&mut self, item: ResponseItem<EKey, Val>, done: SimTime, bytes: u64) {
        self.ready = self.ready.max(done);
        self.bytes += bytes;
        self.items.push(item);
    }
}

/// Timer tag for the autoscaler heartbeat. `u64::MAX` carries the
/// migration bit below, so it must be matched first.
const HEARTBEAT_TAG: u64 = u64::MAX;
/// Tag bit marking a migration phase timer, either end (`MIG_BIT | mig_id`).
const MIG_BIT: u64 = 1 << 63;

/// The data-node actor state.
pub struct DataNode {
    idx: usize,
    rt: DataRuntime,
    server: RegionServer,
    catalog: Arc<Catalog>,
    udfs: UdfRegistry,
    plan: Arc<JobPlan>,
    spec: ClusterSpec,
    interest: InterestTracker,
    block_cache: BlockCache<EKey>,
    scv_est: ExpSmoothed,
    version_clock: u64,
    udf_execs: u64,
    /// Data-node indices whose regions this node also hosts as failover
    /// replicas (so rerouted requests pass the ownership check).
    replica_sources: Vec<usize>,
    /// Crashes survived (process state wiped, on-disk regions kept).
    crashes: u64,
    /// Every batch from admission to completion, and the bounded ingest
    /// queue they fill.
    ingest: Ingest,
    /// This node's tracing handle (inert on untraced runs).
    trace: NodeTrace,
    /// Admitted-item queue depth over time, tracked locally per sample and
    /// adopted into the metrics registry at snapshot (traced runs only).
    queue_gauge: Option<jl_simkit::stats::TimeWeightedGauge>,

    // ---- membership plane (inert on static runs) ----
    /// Whether the run carries a membership config at all.
    membership_on: bool,
    /// Whether this node is an active member (standbys start `false`).
    mem_active: bool,
    /// Mid-drain: keep serving, stop NACKing, expect regions to leave.
    draining: bool,
    /// Heartbeat period, when the run autoscales.
    heartbeat: Option<SimDuration>,
    /// When the armed heartbeat timer fires. Timers armed before a crash
    /// are dropped only if they fire during the down window; comparing
    /// this against `now` on restart (and on each fire) keeps exactly one
    /// heartbeat chain alive.
    next_hb_at: Option<SimTime>,
    /// Region handoffs, both ends, and the handoff metadata that survives
    /// crashes.
    mig: Migrations,
}

impl DataNode {
    /// Build a data node hosting `server`'s regions.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        idx: usize,
        cfg: jl_core::OptimizerConfig,
        spec: ClusterSpec,
        catalog: Arc<Catalog>,
        udfs: UdfRegistry,
        plan: Arc<JobPlan>,
        server: RegionServer,
        udf_cpu_hint: f64,
        seed: u64,
        overload: Option<OverloadConfig>,
    ) -> Self {
        let alpha = cfg.smoothing_alpha;
        let rt = DataRuntime::new(
            cfg,
            spec.disk_service(64 * 1024).as_secs_f64(),
            udf_cpu_hint,
            spec.node.net_bw_bps,
            seed,
        );
        let block_cache = BlockCache::new(spec.block_cache_bytes);
        DataNode {
            idx,
            rt,
            server,
            catalog,
            udfs,
            plan,
            spec,
            interest: InterestTracker::new(),
            block_cache,
            scv_est: ExpSmoothed::new(alpha),
            version_clock: 1,
            udf_execs: 0,
            replica_sources: Vec::new(),
            crashes: 0,
            ingest: Ingest::new(overload),
            trace: NodeTrace::default(),
            queue_gauge: None,
            membership_on: false,
            mem_active: true,
            draining: false,
            heartbeat: None,
            next_hb_at: None,
            mig: Migrations::new(idx, SimDuration::from_secs(5)),
        }
    }

    /// Arm the membership plane: whether this node starts active, the
    /// heartbeat period (autoscaling runs only), and the per-phase
    /// migration timeout. Call before the simulation starts.
    pub fn set_membership(
        &mut self,
        active: bool,
        heartbeat: Option<SimDuration>,
        mig_timeout: SimDuration,
    ) {
        self.membership_on = true;
        self.mem_active = active;
        self.heartbeat = heartbeat;
        self.mig = Migrations::new(self.idx, mig_timeout);
    }

    /// Live membership state for observability: `None` on static runs,
    /// otherwise `"active"`, `"draining"`, or `"standby"`.
    pub fn membership_state(&self) -> Option<&'static str> {
        if !self.membership_on {
            return None;
        }
        Some(if self.draining {
            "draining"
        } else if self.mem_active {
            "active"
        } else {
            "standby"
        })
    }

    /// Completed outbound region handoffs.
    pub fn handoffs(&self) -> u64 {
        self.mig.handoffs()
    }

    /// Attach a telemetry recorder. `node` is this node's sim id, used as
    /// the trace process id. Call before the simulation starts.
    pub fn set_telemetry(&mut self, tel: TelemetryHandle, node: u32) {
        self.trace.attach(tel, node);
    }

    /// Register that this node hosts a failover replica of data node
    /// `source`'s regions (the runner pairs this with
    /// [`RegionServer::absorb_replica`]).
    pub fn add_replica_source(&mut self, source: usize) {
        self.replica_sources.push(source);
    }

    /// Whether this node may serve requests addressed to data node
    /// `server`: it owns them, or holds a failover replica.
    fn serves_for(&self, server: usize) -> bool {
        server == self.idx || self.replica_sources.contains(&server)
    }

    /// Crashes this node has survived.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// A fault from the kernel. A crash loses every piece of process
    /// state — the block cache, the ingest table (its batches' timers died
    /// with the node), the load counters, and any in-flight migration
    /// handoffs (the surviving peer's phase timeout aborts them) — while
    /// the on-disk regions, the handoff metadata (`moved_to` /
    /// `migrated_in`), and the learned per-record service estimates
    /// (properties of the hardware, not the process) survive the restart.
    pub fn on_fault<C: RuntimeCtx<Msg>>(&mut self, kind: FaultKind, ctx: &mut C) {
        match kind {
            FaultKind::Crash => {
                self.crashes += 1;
                self.block_cache = BlockCache::new(self.spec.block_cache_bytes);
                self.ingest.crash();
                self.tel_queue_depth(ctx);
                self.rt.on_crash();
                self.mig.crash();
            }
            FaultKind::Restart => {
                // Timers armed before the crash are dropped only if they
                // fired during the down window. If the armed heartbeat is
                // already in the past it was lost — start a fresh chain;
                // if it is still pending (>= now) it will fire and the
                // chain continues — re-arming would double it.
                if let Some(at) = self.next_hb_at {
                    if at < ctx.now() {
                        self.arm_heartbeat(ctx);
                    }
                }
            }
        }
    }

    /// Arm the next heartbeat, remembering when it is due so stale timer
    /// fires (pre-crash arms surviving a restart) can be told apart from
    /// the live chain: the simulator fires timers at exactly their armed
    /// instant, so `now == next_hb_at` identifies the live one.
    fn arm_heartbeat<C: RuntimeCtx<Msg>>(&mut self, ctx: &mut C) {
        let Some(hb) = self.heartbeat else { return };
        if !self.mem_active {
            return;
        }
        let at = ctx.now() + hb;
        self.next_hb_at = Some(at);
        ctx.set_timer(at, HEARTBEAT_TAG);
    }

    /// Called by the kernel at simulation start: begin the heartbeat
    /// chain on active autoscaling members.
    pub fn on_start<C: RuntimeCtx<Msg>>(&mut self, ctx: &mut C) {
        if self.membership_on {
            self.arm_heartbeat(ctx);
        }
    }

    /// Data-side optimizer statistics.
    pub fn stats(&self) -> jl_core::DataNodeStats {
        self.rt.stats()
    }

    /// Store-access statistics.
    pub fn server_stats(&self) -> jl_store::ServerStats {
        self.server.stats()
    }

    /// UDF executions performed at this node.
    pub fn udf_execs(&self) -> u64 {
        self.udf_execs
    }

    /// Block-cache hit ratio.
    pub fn block_cache_hit_ratio(&self) -> f64 {
        self.block_cache.hit_ratio()
    }

    /// Block-cache `(hits, misses, evictions)` counters.
    pub fn block_cache_counts(&self) -> (u64, u64, u64) {
        (
            self.block_cache.hits(),
            self.block_cache.misses(),
            self.block_cache.evictions(),
        )
    }

    fn cost_info(&self, v: &StoredValue) -> CostInfo {
        CostInfo {
            value_size: v.size(),
            udf_cpu_secs: v.udf_cpu().as_secs_f64(),
            version: v.version,
            // Disk is reported as *service* time: it is a stable hardware
            // parameter (Table 1's tDisk). CPU is reported *effective*
            // (waiting + service): on a saturated data node this is the
            // real marginal cost of renting, and it is what lets ski-rental
            // start buying hot keys when a node melts down.
            data_t_disk: self.rt.t_disk(),
            data_t_cpu: self.rt.t_cpu_effective(),
            data_t_cpu_service: self.rt.t_cpu(),
        }
    }

    /// Track the admitted-item queue depth as a time-weighted gauge (traced
    /// runs with a bounded queue only: an unbounded one has no depth). The
    /// gauge is node-local state updated in place — no registry lookup, no
    /// recorder lock (only this node writes it, and its callbacks execute
    /// in timestamp order). The runner adopts the finished gauge into the
    /// registry at snapshot.
    fn tel_queue_depth<C: RuntimeCtx<Msg>>(&mut self, ctx: &mut C) {
        if !self.trace.is_on() || !self.ingest.bounded() {
            return;
        }
        let v = self.ingest.depth() as f64;
        self.queue_gauge
            .get_or_insert_with(|| jl_simkit::stats::TimeWeightedGauge::new(SimTime::ZERO, 0.0))
            .set(ctx.now(), v);
    }

    /// The locally-tracked queue-depth gauge, if any sample was taken
    /// (traced runs only). Adopted into the metrics registry at snapshot.
    pub(crate) fn queue_gauge(&self) -> Option<&jl_simkit::stats::TimeWeightedGauge> {
        self.queue_gauge.as_ref()
    }

    /// Backpressure counters: `(nacked batches, pressure-on transitions,
    /// peak ingest-queue depth)`. All zero when the run carries no
    /// overload config.
    pub fn overload_stats(&self) -> (u64, u64, u64) {
        self.ingest.stats()
    }

    /// Live ingest state for mid-run observability: `(current queue
    /// depth, pressured flag)`. Read by the stats snapshot while the run
    /// is in flight; both are plain accounting with no side effects.
    pub fn live_queue(&self) -> (u64, bool) {
        (self.ingest.depth(), self.ingest.pressured())
    }

    fn handle_batch<C: RuntimeCtx<Msg>>(
        &mut self,
        from_compute: usize,
        batch: BatchRequest<EKey, Bytes>,
        ctx: &mut C,
    ) {
        // Items for regions this node handed off are forwarded on the wire.
        let (batch, forwards) = self.mig.split_moved(&self.catalog, from_compute, batch);
        self.perform(forwards, ctx);
        let Some(batch) = batch else {
            return;
        };
        let n_items = batch.items.len() as u64;
        let now = ctx.now();
        match self.ingest.admit(n_items, self.draining) {
            // Refused before any disk or CPU is paid.
            Admit::Refused => {
                let req_ids = batch.items.iter().map(|i| i.req_id).collect();
                self.trace.instant(Track::Fault, "nack", now, || {
                    [
                        ("items", n_items.into()),
                        ("depth", self.ingest.depth().into()),
                    ]
                });
                let nack = Msg::Nack {
                    from_data: self.idx,
                    req_ids,
                };
                let to = self.spec.compute_id(from_compute);
                ctx.send(to, nack, BATCH_OVERHEAD + 8 * n_items);
                return;
            }
            Admit::Admitted { pressure_on } => {
                if pressure_on {
                    self.trace.instant(Track::Fault, "pressure-on", now, || {
                        [("depth", self.ingest.depth().into())]
                    });
                }
                self.tel_queue_depth(ctx);
            }
        }

        // 1. Fetch every requested row from the simulated disk (real bytes
        //    from the region shard, simulated service time per record).
        let mut fetched = Vec::with_capacity(batch.items.len());
        let mut found_bytes = 0u64;
        let mut key_bytes = 0u64;
        let mut params_bytes = 0u64;
        let mut prev_evictions = self.block_cache.evictions();
        for item in &batch.items {
            let (table, row) = &item.key;
            key_bytes += row.len() as u64;
            params_bytes += item.params.len() as u64;
            let (region, server) = self.catalog.locate(*table, row);
            debug_assert!(
                self.serves_for(server) || self.mig.migrated_in(*table, region),
                "request routed to wrong server: {} is neither owner {server}, its replica, \
                 nor the migrated-in owner of region ({table}, {region})",
                self.idx
            );
            let Some(v) = self.server.get(*table, region, row) else {
                fetched.push(None);
                continue;
            };
            // HBase block cache: hot rows are served from RAM.
            let hit = self.block_cache.access(item.key.clone(), v.size());
            let evictions = self.block_cache.evictions();
            if evictions > prev_evictions {
                self.trace
                    .instant(Track::Decision, "cache-evict", ctx.now(), || {
                        [("count", (evictions - prev_evictions).into())]
                    });
                prev_evictions = evictions;
            }
            let done = if hit {
                self.rt.observe_disk(0.0);
                now
            } else {
                let svc = self.spec.disk_service(v.size());
                let grant = ctx.use_resource(ResourceKind::Disk, now, svc);
                self.rt.observe_disk(svc.as_secs_f64());
                self.rt
                    .observe_disk_effective(grant.done.since(now).as_secs_f64());
                grant.done
            };
            found_bytes += v.size();
            fetched.push(Some((v, done)));
        }

        // 2. Build the batch's size profile from what it actually contains.
        let found = fetched.iter().flatten().count() as u64;
        let sizes = SizeProfile {
            key: key_bytes / n_items.max(1),
            params: params_bytes / n_items.max(1),
            value: found_bytes.checked_div(found).unwrap_or(1024),
            computed: self.scv_est.get_or(256.0).max(1.0) as u64,
        };

        // 3. Load-balance: how many compute requests to run here.
        let n_compute = batch.compute_count() as u64;
        let n_data = batch.data_count() as u64;
        let d = self
            .rt
            .accept_batch(n_data, n_compute, &batch.stats, &sizes);

        // 4. Serve every item. Which `d` compute requests run here matters:
        //    bouncing an item ships its stored value, so the data node
        //    executes the *largest-valued* items locally and bounces the
        //    cheapest-to-ship ones (shipping a 28 MB model to save 56 ms of
        //    CPU would be a net loss on every axis).
        let mut here: Vec<(u64, u64)> = batch
            .items
            .iter()
            .zip(&fetched)
            .filter_map(|(item, slot)| match (item.kind, slot) {
                (ReqKind::Compute, Some((v, _))) => Some((item.req_id, v.size())),
                _ => None,
            })
            .collect();
        // Largest first; req_id tie-break keeps runs deterministic.
        here.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        here.truncate(d as usize);
        // Sorted by id for a binary search per item: no allocation-heavy
        // hash set for a membership test used once per item.
        here.sort_unstable();
        // Values, bounces and misses need no CPU here: they go back in one
        // first reply, at disk speed. Computed outputs follow in waves as
        // their CPU work finishes, so cheap fetches never wait behind heavy
        // UDF stragglers queued on this node's CPU.
        let mut first = Wave::new(now);
        let mut computed: Vec<(SimTime, ResponseItem<EKey, Val>, Bytes)> = Vec::new();
        let mut ready = now;
        for (item, slot) in batch.items.into_iter().zip(fetched) {
            // Every served item costs RPC/read-path CPU at this node.
            let rpc_done = ctx
                .use_resource(ResourceKind::Cpu, now, self.spec.rpc_cpu)
                .done;
            let answer = |key, payload, cost| ResponseItem {
                req_id: item.req_id,
                key,
                payload,
                cost,
            };
            let Some((value, disk_done)) = slot else {
                first.push(
                    answer(item.key, ResponsePayload::Missing, None),
                    now,
                    ITEM_OVERHEAD,
                );
                continue;
            };
            let cost = Some(self.cost_info(&value));
            let run_here = here.binary_search_by_key(&item.req_id, |&(id, _)| id);
            if item.kind == ReqKind::Compute && run_here.is_ok() {
                let ready_in = disk_done.max(rpc_done);
                let grant = ctx.use_resource(ResourceKind::Cpu, ready_in, value.udf_cpu());
                self.rt.observe_cpu(value.udf_cpu().as_secs_f64());
                // Effective cost is measured from when the item's data
                // was ready (disk), NOT from after its RPC slot cleared
                // the CPU queue — the queue wait *is* the congestion
                // signal that tells compute nodes this node is melting.
                self.rt
                    .observe_cpu_effective(grant.done.since(disk_done).as_secs_f64());
                let (_, stage) = decode_params(&item.params);
                let udf = self
                    .udfs
                    .get(self.plan.stages[stage as usize].udf)
                    .expect("udf registered")
                    .clone();
                let out = udf.apply(&item.key.1, &item.params, &value);
                self.udf_execs += 1;
                self.scv_est.update(out.len() as f64);
                ready = ready.max(grant.done);
                let output_size = out.len() as u64;
                let payload = ResponsePayload::Computed { output_size };
                computed.push((grant.done, answer(item.key, payload, cost), out));
                continue;
            }
            // Data request, or a bounced compute request: ship the stored
            // value back (its *logical* size on the wire).
            let bounced = item.kind == ReqKind::Compute;
            if !bounced {
                // The compute node will cache this value: register
                // interest for targeted update notification.
                self.interest
                    .record_cached(item.key.0, item.key.1.clone(), from_compute);
            }
            ready = ready.max(disk_done).max(rpc_done);
            let bytes = value.size() + ITEM_OVERHEAD;
            let payload = ResponsePayload::Value {
                value: Val(value),
                bounced,
            };
            first.push(answer(item.key, payload, cost), disk_done, bytes);
        }

        // 5. Reply: the first wave, then the computed outputs in completion
        //    order, eight to a wave.
        let reply_to = self.spec.compute_id(from_compute);
        if !first.items.is_empty() {
            self.reply(reply_to, first, ctx);
        }
        let executed = computed.len() as u64;
        computed.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.req_id.cmp(&b.1.req_id)));
        let mut computed = computed.into_iter().peekable();
        while computed.peek().is_some() {
            let mut wave = Wave::new(now);
            for (done, item, out) in computed.by_ref().take(8) {
                let bytes = out.len() as u64 + ITEM_OVERHEAD;
                wave.outputs.push((item.req_id, out));
                wave.push(item, done, bytes);
            }
            self.reply(reply_to, wave, ctx);
        }

        self.trace.span(Track::Serve, "batch", now, ready, || {
            [
                ("items", ArgVal::U64(n_items)),
                ("executed", executed.into()),
                ("bounced", (n_compute - executed).into()),
                ("data", n_data.into()),
            ]
        });

        // 6. Release the queue and the load counters when the batch completes.
        let served = Served {
            computed: executed,
            bounced: n_compute - executed,
            data: n_data,
        };
        ctx.set_timer(ready, self.ingest.served(served));
    }

    /// Send one reply wave, on the wire once its last item is ready.
    fn reply<C: RuntimeCtx<Msg>>(&self, to: NodeId, wave: Wave, ctx: &mut C) {
        let reply = Msg::Reply {
            from_data: self.idx,
            items: wave.items,
            outputs: wave.outputs,
            // Delay-accept signal: the sender throttles while this is set.
            // Sampled at serve time — the hysteresis state when the batch
            // entered, which is what the sender's window should react to.
            pressured: self.ingest.pressured(),
        };
        ctx.send_ready_at(wave.ready, to, reply, wave.bytes);
    }

    fn handle_put<C: RuntimeCtx<Msg>>(
        &mut self,
        table: jl_store::TableId,
        key: jl_store::RowKey,
        value: StoredValue,
        ctx: &mut C,
    ) {
        let (region, server) = self.catalog.locate(table, &key);
        // A put for a region that left this node is forwarded to its new
        // owner on the wire (stale-epoch writers lose latency, never
        // writes). Mid-handoff, during the freeze window, the put is
        // buffered raw (unstamped) so exactly one node ever applies it —
        // either flushed to the new owner on commit ack, or replayed here
        // if the handoff aborts. During dual-write it applies normally
        // below and also lands in the delta log.
        let (key, mut value) = match self.mig.intercept_put(table, region, key, value) {
            Ok(put) => put,
            Err(forward) => return self.perform(forward, ctx),
        };
        self.version_clock += 1;
        value.version = self.version_clock;
        debug_assert!(
            self.serves_for(server) || self.mig.migrated_in(table, region),
            "put routed to wrong server: {} is neither owner {server}, its replica, \
             nor the migrated-in owner of region ({table}, {region})",
            self.idx
        );
        // Charge a disk write.
        let svc = self.spec.disk_service(value.size());
        ctx.use_resource(ResourceKind::Disk, ctx.now(), svc);
        self.trace.instant(Track::Serve, "put", ctx.now(), || []);
        self.block_cache.invalidate(&(table, key.clone()));
        self.mig.log_if_dual_write(table, region, &key, &value);
        self.server.put(table, region, key.clone(), value);
        // Invalidate cached copies at compute nodes (§4.2.3): either only
        // the registered holders, or a broadcast.
        let recipients: Vec<usize> = match self.spec.notify {
            crate::config::NotifyMode::Targeted => self.interest.take_interested(table, &key),
            crate::config::NotifyMode::Broadcast => (0..self.spec.n_compute).collect(),
        };
        for compute in recipients {
            let to = self.spec.compute_id(compute);
            ctx.send(
                to,
                Msg::Invalidate {
                    key: (table, key.clone()),
                },
                key.len() as u64 + 32,
            );
        }
    }

    /// Live region migration: feed one handoff event to the migration
    /// table ([`crate::migration`]) and perform what it returns.
    fn migrate<C: RuntimeCtx<Msg>>(&mut self, mig_id: u64, event: Event, ctx: &mut C) {
        let effects = self.mig.step(mig_id, event, ctx.now());
        self.perform(effects, ctx);
    }

    /// Perform the IO the migration table returned, in the order listed.
    fn perform<C: RuntimeCtx<Msg>>(&mut self, effects: Vec<Effect>, ctx: &mut C) {
        let now = ctx.now();
        for effect in effects {
            match effect {
                Effect::Disk(bytes) => {
                    ctx.use_resource(ResourceKind::Disk, now, self.spec.disk_service(bytes));
                }
                Effect::Send(peer, msg, bytes) => {
                    let to = match peer {
                        Peer::Data(j) => self.spec.data_id(j),
                        Peer::Controller => self.spec.controller_id(),
                    };
                    ctx.send(to, msg, bytes);
                }
                Effect::Timer(at, mig_id) => ctx.set_timer(at, MIG_BIT | mig_id),
                Effect::Trace(name, args) => self.trace.fault(name, now, &args),
                Effect::Install(table, region, rows) => {
                    self.server.take_region(table, region);
                    self.server.install_region(table, region, rows);
                }
                Effect::Evict(table, region) => {
                    if let Some(rows) = self.server.take_region(table, region) {
                        for (key, _) in rows.scan(None, None) {
                            self.block_cache.invalidate(&(table, key.clone()));
                        }
                    }
                }
                Effect::Replay(table, key, value) => self.handle_put(table, key, value, ctx),
            }
        }
    }

    /// The armed heartbeat fired. Only the live chain's fire matches
    /// `next_hb_at` exactly; a pre-crash arm surviving a restart (the
    /// kernel drops timers only when they fire *during* the down window)
    /// lands at a different instant and is ignored.
    fn on_heartbeat_timer<C: RuntimeCtx<Msg>>(&mut self, ctx: &mut C) {
        if self.next_hb_at != Some(ctx.now()) {
            return;
        }
        if !self.mem_active {
            self.next_hb_at = None;
            return;
        }
        ctx.send(
            self.spec.controller_id(),
            Msg::Heartbeat {
                from_data: self.idx,
                queue_depth: self.ingest.depth(),
                pressured: self.ingest.pressured(),
            },
            CTRL_BYTES,
        );
        self.arm_heartbeat(ctx);
    }

    /// Kernel message dispatch.
    pub fn on_message<C: RuntimeCtx<Msg>>(&mut self, _from: NodeId, msg: Msg, ctx: &mut C) {
        match msg {
            Msg::Request {
                from_compute,
                batch,
            } => self.handle_batch(from_compute, *batch, ctx),
            Msg::Put { table, key, value } => self.handle_put(table, key, *value, ctx),
            Msg::Activate { .. } => {
                self.draining = false;
                if !self.mem_active {
                    self.mem_active = true;
                    // Re-arm only when no chain is pending (a node can be
                    // deactivated and re-activated inside one period).
                    let chain_alive = self.next_hb_at.is_some_and(|at| at >= ctx.now());
                    if !chain_alive {
                        self.arm_heartbeat(ctx);
                    }
                }
                self.trace
                    .instant(Track::Fault, "activate", ctx.now(), || []);
            }
            Msg::Drain { .. } => {
                self.draining = true;
                self.trace.instant(Track::Fault, "drain", ctx.now(), || []);
            }
            Msg::Deactivate { .. } => {
                self.mem_active = false;
                self.draining = false;
                self.trace
                    .instant(Track::Fault, "deactivate", ctx.now(), || []);
            }
            msg => {
                let hosted = |table, region| self.server.region(table, region).cloned();
                if let Some((mig_id, event)) = Event::decode(msg, hosted) {
                    self.migrate(mig_id, event, ctx);
                }
            }
        }
    }

    /// Kernel timer dispatch: heartbeats, migration phase deadlines, and
    /// batch-completion queue drains.
    pub fn on_timer<C: RuntimeCtx<Msg>>(&mut self, tag: u64, ctx: &mut C) {
        // HEARTBEAT_TAG is u64::MAX, which carries MIG_BIT — match first.
        if tag == HEARTBEAT_TAG {
            self.on_heartbeat_timer(ctx);
            return;
        }
        if tag & MIG_BIT != 0 {
            self.migrate(tag & !MIG_BIT, Event::Timeout, ctx);
            return;
        }
        let Some((served, pressure_off)) = self.ingest.done(tag) else {
            return;
        };
        self.rt.on_computed(served.computed);
        self.rt.on_bounced(served.bounced);
        self.rt.on_data_served(served.data);
        self.rt.on_responses_sent(served.items());
        if pressure_off {
            self.trace
                .instant(Track::Fault, "pressure-off", ctx.now(), || {
                    [("depth", self.ingest.depth().into())]
                });
        }
        self.tel_queue_depth(ctx);
    }
}
