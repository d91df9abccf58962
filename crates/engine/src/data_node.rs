//! The data-node actor: a region-server shard plus the data-side
//! optimizer. Serves batched requests — fetching rows from its simulated
//! disk, executing its load-balanced share of the UDFs on its simulated
//! CPU, and bouncing the rest back as raw values.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytes::Bytes;

use jl_core::data::DataRuntime;
use jl_core::types::{BatchRequest, CostInfo, ReqKind, ResponseItem, ResponsePayload};
use jl_costmodel::{ExpSmoothed, SizeProfile};
use jl_runtime::RuntimeCtx;
use jl_simkit::prelude::*;
use jl_simkit::sim::NodeId;
use jl_store::{
    BlockCache, Catalog, InterestTracker, Region, RegionServer, RowKey, StoredValue, TableId,
    UdfRegistry,
};
use jl_telemetry::{TelemetryHandle, TraceEvent, Track};

use crate::cluster::{EKey, Msg, Val, BATCH_OVERHEAD, ITEM_OVERHEAD};

/// One reply wave: ready time, items, computed outputs, wire bytes.
type ReplyWave = (
    SimTime,
    Vec<ResponseItem<EKey, Val>>,
    Vec<(u64, Bytes)>,
    u64,
);
/// A served item pending wave assembly: item, done time, wire bytes, and
/// the computed output (for `Computed` payloads only).
type ServedItem = (ResponseItem<EKey, Val>, SimTime, u64, Option<Bytes>);
use crate::config::{ClusterSpec, OverloadConfig};
use crate::plan::{decode_params, JobPlan};
use crate::telemetry::tel_record;

/// Timer tag for the autoscaler heartbeat. `u64::MAX` carries both
/// migration bits below, so it must be matched first.
const HEARTBEAT_TAG: u64 = u64::MAX;
/// Tag bit marking source-side migration phase timeouts
/// (`SRC_MIG_BIT | mig_id`).
const SRC_MIG_BIT: u64 = 1 << 63;
/// Tag bit marking target-side migration phase timeouts
/// (`TGT_MIG_BIT | mig_id`).
const TGT_MIG_BIT: u64 = 1 << 62;
/// Wire bytes for a small migration control message.
const CTRL_BYTES: u64 = 64;

/// Source-side phase of an outbound region migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutPhase {
    /// Snapshot sent; puts apply locally *and* append to the delta log.
    DualWrite,
    /// Delta sent (commit in flight); puts buffer unapplied so exactly
    /// one node ever applies writes. Gets still serve from the local,
    /// fully-up-to-date copy.
    Frozen,
}

/// An outbound (source-side) region migration. Process state: a crash
/// drops it, and the target's phase timeout aborts the handoff.
struct MigOut {
    table: TableId,
    region: usize,
    target: usize,
    phase: OutPhase,
    /// Rows written here since the snapshot (dual-write log).
    delta: Vec<(RowKey, StoredValue)>,
    /// Puts buffered during the freeze: flushed to the target on commit
    /// ack, or re-applied locally if the handoff aborts.
    frozen: Vec<(RowKey, StoredValue)>,
    /// Current phase deadline. Stale timers from earlier phases fire
    /// before this and are ignored.
    deadline: SimTime,
}

/// An inbound (target-side) region migration. Process state.
struct MigIn {
    table: TableId,
    region: usize,
    source: usize,
    staged: Region,
    /// Snapshot + delta bytes received, reported in `MigDone`.
    bytes: u64,
    /// Phase deadline (waiting for the commit delta).
    deadline: SimTime,
}

/// Queue-counter decrements scheduled for a batch's completion time.
struct PendingDrain {
    computed: u64,
    bounced: u64,
    data_served: u64,
    responses: u64,
    /// Items this batch holds in the bounded ingest queue (0 when the run
    /// carries no overload config).
    admitted: u64,
}

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
    drains: rustc_hash::FxHashMap<u64, PendingDrain>,
    next_drain: u64,
    version_clock: u64,
    udf_execs: u64,
    /// Data-node indices whose regions this node also hosts as failover
    /// replicas (so rerouted requests pass the ownership check).
    replica_sources: Vec<usize>,
    /// Crashes survived (process state wiped, on-disk regions kept).
    crashes: u64,
    /// Overload protection; `None` admits everything (seed behavior).
    overload: Option<OverloadConfig>,
    /// Request items currently admitted and not yet drained.
    queued: u64,
    /// Hysteresis state: queue crossed the high watermark and has not yet
    /// fallen back under the low one. Piggybacked on every reply.
    pressured: bool,
    /// Deepest the ingest queue ever got (tracked only with overload on).
    peak_depth: u64,
    /// Batches refused at the admission check.
    nacks: u64,
    /// Pressure-on transitions (low→high watermark crossings).
    pressure_events: u64,
    /// Shared recorder, when the run is traced.
    tel: Option<TelemetryHandle>,
    /// This node's id in the trace (its sim node id).
    tel_node: u32,
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
    /// Per-phase migration timeout.
    mig_timeout: SimDuration,
    /// Outbound migrations by id (process state; dies with a crash).
    mig_out: BTreeMap<u64, MigOut>,
    /// Inbound migrations by id (process state; dies with a crash).
    mig_in: BTreeMap<u64, MigIn>,
    /// Regions handed off: `(table, region) -> new owner`. On-disk
    /// metadata — survives crashes; stale-epoch traffic that still lands
    /// here is forwarded on the wire, never dropped.
    moved_to: BTreeMap<(TableId, usize), usize>,
    /// Regions migrated in (the static catalog maps them elsewhere); the
    /// ownership check accepts them. On-disk metadata — survives crashes.
    migrated_in: BTreeSet<(TableId, usize)>,
    /// Completed outbound handoffs, for observability.
    handoffs: u64,
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
            drains: rustc_hash::FxHashMap::default(),
            next_drain: 0,
            version_clock: 1,
            udf_execs: 0,
            replica_sources: Vec::new(),
            crashes: 0,
            overload,
            queued: 0,
            pressured: false,
            peak_depth: 0,
            nacks: 0,
            pressure_events: 0,
            tel: None,
            tel_node: 0,
            queue_gauge: None,
            membership_on: false,
            mem_active: true,
            draining: false,
            heartbeat: None,
            next_hb_at: None,
            mig_timeout: SimDuration::from_secs(5),
            mig_out: BTreeMap::new(),
            mig_in: BTreeMap::new(),
            moved_to: BTreeMap::new(),
            migrated_in: BTreeSet::new(),
            handoffs: 0,
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
        self.mig_timeout = mig_timeout;
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
        self.handoffs
    }

    /// Attach a telemetry recorder. `node` is this node's sim id, used as
    /// the trace process id. Call before the simulation starts.
    ///
    /// Data nodes do not publish the clock to the recorder: the published
    /// clock's only reader is the compute-side decision tee, which always
    /// fires after its own node's callback-entry sync. Every event this
    /// node records carries an explicit timestamp.
    pub fn set_telemetry(&mut self, tel: TelemetryHandle, node: u32) {
        self.tel = Some(tel);
        self.tel_node = node;
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
    /// state — the block cache, queued counter drains (their timers died
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
                self.drains.clear();
                self.rt.on_crash();
                // The admitted queue died with the process (its drain timers
                // are gone); the pressure flag resets with it. Peak depth is a
                // run statistic and survives.
                self.queued = 0;
                self.pressured = false;
                // Frozen puts die with the process: the source held them
                // in memory only (no WAL is modeled). Documented loss.
                self.mig_out.clear();
                self.mig_in.clear();
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

    /// Track the admitted-item queue depth as a time-weighted gauge. The
    /// gauge is node-local state updated in place — no registry lookup, no
    /// recorder lock (only this node writes it, and its callbacks execute
    /// in timestamp order). The runner adopts the finished gauge into the
    /// registry at snapshot.
    fn tel_queue_depth<C: RuntimeCtx<Msg>>(&mut self, ctx: &mut C) {
        if self.tel.is_none() {
            return;
        }
        let now = ctx.now();
        let v = self.queued as f64;
        self.queue_gauge
            .get_or_insert_with(|| jl_simkit::stats::TimeWeightedGauge::new(SimTime::ZERO, 0.0))
            .set(now, v);
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
        (self.nacks, self.pressure_events, self.peak_depth)
    }

    /// Live ingest state for mid-run observability: `(current queue
    /// depth, pressured flag)`. Read by the stats snapshot while the run
    /// is in flight; both are plain accounting with no side effects.
    pub fn live_queue(&self) -> (u64, bool) {
        (self.queued, self.pressured)
    }

    /// Admission control (overload runs only): returns `false` — after
    /// NACKing the batch on the wire, *before* any disk or CPU is paid —
    /// when the ingest queue cannot take it; otherwise admits the batch's
    /// items, updating the watermark hysteresis and depth accounting.
    fn admit<C: RuntimeCtx<Msg>>(
        &mut self,
        from_compute: usize,
        batch: &BatchRequest<EKey, Bytes>,
        ctx: &mut C,
    ) -> bool {
        let Some(ov) = self.overload else { return true };
        let n = batch.items.len() as u64;
        // A draining node never NACKs: its job is to empty its queues, and
        // a refusal would bounce work back to a sender that is already
        // steering away (rent-penalized health). Depth/pressure accounting
        // continues so the drain stays observable.
        if !self.draining && self.queued + n > ov.data_queue_cap {
            self.nacks += 1;
            let req_ids: Vec<u64> = batch.items.iter().map(|i| i.req_id).collect();
            let node = self.tel_node;
            let depth = self.queued;
            tel_record(&self.tel, ctx, |now| {
                TraceEvent::instant(node, Track::Fault, "nack", now)
                    .arg("items", n)
                    .arg("depth", depth)
            });
            ctx.send(
                self.spec.compute_id(from_compute),
                Msg::Nack {
                    from_data: self.idx,
                    req_ids,
                },
                BATCH_OVERHEAD + 8 * n,
            );
            return false;
        }
        self.queued += n;
        self.peak_depth = self.peak_depth.max(self.queued);
        if !self.pressured && self.queued >= ov.high_watermark {
            self.pressured = true;
            self.pressure_events += 1;
            let node = self.tel_node;
            let depth = self.queued;
            tel_record(&self.tel, ctx, |now| {
                TraceEvent::instant(node, Track::Fault, "pressure-on", now).arg("depth", depth)
            });
        }
        self.tel_queue_depth(ctx);
        true
    }

    /// Wire-level forwarding for regions this node handed off: items whose
    /// region moved away are re-batched to the new owner (stale-epoch
    /// senders lose latency, never tuples); the rest of the batch returns
    /// for local service. `None` when everything moved.
    fn split_moved<C: RuntimeCtx<Msg>>(
        &mut self,
        from_compute: usize,
        batch: BatchRequest<EKey, Bytes>,
        ctx: &mut C,
    ) -> Option<BatchRequest<EKey, Bytes>> {
        if self.moved_to.is_empty() {
            return Some(batch);
        }
        let BatchRequest { items, stats } = batch;
        let mut local = Vec::with_capacity(items.len());
        // owner -> (items, wire bytes)
        let mut forward: BTreeMap<usize, (Vec<_>, u64)> = BTreeMap::new();
        for item in items {
            let (table, row) = &item.key;
            let (region, _) = self.catalog.locate(*table, row);
            match self.moved_to.get(&(*table, region)) {
                Some(&owner) => {
                    let slot = forward.entry(owner).or_insert((Vec::new(), BATCH_OVERHEAD));
                    slot.1 += row.len() as u64 + item.params.len() as u64 + ITEM_OVERHEAD;
                    slot.0.push(item);
                }
                None => local.push(item),
            }
        }
        for (owner, (fwd_items, bytes)) in forward {
            let n = fwd_items.len() as u64;
            let node = self.tel_node;
            tel_record(&self.tel, ctx, |now| {
                TraceEvent::instant(node, Track::Fault, "mig-forward", now)
                    .arg("items", n)
                    .arg("owner", owner as u64)
            });
            ctx.send(
                self.spec.data_id(owner),
                Msg::Request {
                    from_compute,
                    batch: BatchRequest {
                        items: fwd_items,
                        stats,
                    },
                },
                bytes,
            );
        }
        if local.is_empty() {
            return None;
        }
        Some(BatchRequest {
            items: local,
            stats,
        })
    }

    fn handle_batch<C: RuntimeCtx<Msg>>(
        &mut self,
        from_compute: usize,
        batch: BatchRequest<EKey, Bytes>,
        ctx: &mut C,
    ) {
        let Some(batch) = self.split_moved(from_compute, batch, ctx) else {
            return;
        };
        if !self.admit(from_compute, &batch, ctx) {
            return;
        }
        let now = ctx.now();
        let n_items = batch.items.len();

        // 1. Fetch every requested row from the simulated disk (real bytes
        //    from the region shard, simulated service time per record).
        let mut fetched: Vec<Option<(StoredValue, SimTime)>> = Vec::with_capacity(n_items);
        let mut found_sizes: Vec<u64> = Vec::with_capacity(n_items);
        let mut key_bytes = 0u64;
        let mut params_bytes = 0u64;
        let mut prev_evictions = self.block_cache.evictions();
        for item in &batch.items {
            let (table, row) = &item.key;
            key_bytes += row.len() as u64;
            params_bytes += item.params.len() as u64;
            let (region, server) = self.catalog.locate(*table, row);
            debug_assert!(
                self.serves_for(server) || self.migrated_in.contains(&(*table, region)),
                "request routed to wrong server: {} is neither owner {server}, its replica, \
                 nor the migrated-in owner of region ({table}, {region})",
                self.idx
            );
            match self.server.get(*table, region, row) {
                Some(v) => {
                    // HBase block cache: hot rows are served from RAM.
                    let hit = self.block_cache.access(item.key.clone(), v.size());
                    let evictions = self.block_cache.evictions();
                    if evictions > prev_evictions {
                        let node = self.tel_node;
                        tel_record(&self.tel, ctx, |now| {
                            TraceEvent::instant(node, Track::Decision, "cache-evict", now)
                                .arg("count", evictions - prev_evictions)
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
                    found_sizes.push(v.size());
                    fetched.push(Some((v, done)));
                }
                None => fetched.push(None),
            }
        }

        // 2. Build the batch's size profile from what it actually contains.
        let n = n_items.max(1) as u64;
        let mean_value = if found_sizes.is_empty() {
            1024
        } else {
            found_sizes.iter().sum::<u64>() / found_sizes.len() as u64
        };
        let sizes = SizeProfile {
            key: key_bytes / n,
            params: params_bytes / n,
            value: mean_value,
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
        let mut compute_sizes: Vec<(u64, u64)> = batch
            .items
            .iter()
            .zip(fetched.iter())
            .filter_map(|(item, slot)| match (item.kind, slot) {
                (ReqKind::Compute, Some((v, _))) => Some((item.req_id, v.size())),
                _ => None,
            })
            .collect();
        // Largest first; req_id tie-break keeps runs deterministic.
        compute_sizes.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        // Sorted id list + binary search beats a per-batch hash set: no
        // allocation-heavy table build for a membership test used once per
        // item.
        let mut execute_here: Vec<u64> = compute_sizes
            .iter()
            .take(d as usize)
            .map(|(id, _)| *id)
            .collect();
        execute_here.sort_unstable();
        let mut executed = 0u64;
        let mut item_parts: Vec<ServedItem> = Vec::with_capacity(n_items);
        let mut ready = now;
        for (item, slot) in batch.items.iter().zip(fetched) {
            // Every served item costs RPC/read-path CPU at this node.
            let rpc = ctx.use_resource(ResourceKind::Cpu, now, self.spec.rpc_cpu);
            let rpc_done = rpc.done;
            let Some((value, disk_done)) = slot else {
                item_parts.push((
                    ResponseItem {
                        req_id: item.req_id,
                        key: item.key.clone(),
                        payload: ResponsePayload::Missing,
                        cost: None,
                    },
                    now,
                    ITEM_OVERHEAD,
                    None,
                ));
                continue;
            };
            let cost = Some(self.cost_info(&value));
            match item.kind {
                ReqKind::Compute if execute_here.binary_search(&item.req_id).is_ok() => {
                    executed += 1;
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
                    let bytes = out.len() as u64 + ITEM_OVERHEAD;
                    item_parts.push((
                        ResponseItem {
                            req_id: item.req_id,
                            key: item.key.clone(),
                            payload: ResponsePayload::Computed {
                                output_size: bytes - ITEM_OVERHEAD,
                            },
                            cost,
                        },
                        grant.done,
                        bytes,
                        Some(out),
                    ));
                }
                kind => {
                    // Data request, or a bounced compute request: ship the
                    // stored value back (its *logical* size on the wire).
                    let bounced = kind == ReqKind::Compute;
                    if !bounced {
                        // The compute node will cache this value: register
                        // interest for targeted update notification.
                        self.interest
                            .record_cached(item.key.0, item.key.1.clone(), from_compute);
                    }
                    ready = ready.max(disk_done).max(rpc_done);
                    let bytes = value.size() + ITEM_OVERHEAD;
                    item_parts.push((
                        ResponseItem {
                            req_id: item.req_id,
                            key: item.key.clone(),
                            payload: ResponsePayload::Value {
                                value: Val(value),
                                bounced,
                            },
                            cost,
                        },
                        disk_done,
                        bytes,
                        None,
                    ));
                }
            }
        }

        // 5. Reply in waves rather than one message gated on the slowest
        //    item: values, bounces and misses are ready at disk speed, and
        //    computed outputs return in chunks as their CPU work finishes.
        //    A single all-or-nothing reply would serialize cheap fetches
        //    behind heavy UDF stragglers queued on this node's CPU.
        let reply_to = self.spec.compute_id(from_compute);
        let mut waves: Vec<ReplyWave> = Vec::new();
        {
            // Wave 0: everything that needs no CPU here.
            let mut value_items = Vec::new();
            let mut value_bytes = BATCH_OVERHEAD;
            let mut value_ready = now;
            let mut computed: Vec<ServedItem> = Vec::new();
            for part in item_parts {
                let (item, done_at, bytes, _) = &part;
                match &item.payload {
                    ResponsePayload::Computed { .. } => computed.push(part),
                    _ => {
                        value_ready = value_ready.max(*done_at);
                        value_bytes += bytes;
                        value_items.push(part.0);
                    }
                }
            }
            if !value_items.is_empty() {
                waves.push((value_ready, value_items, Vec::new(), value_bytes));
            }
            // Computed waves: chunks of 8 in completion order. Items and
            // outputs move into their wave — nothing is re-cloned here.
            computed.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.req_id.cmp(&b.0.req_id)));
            let mut chunk_items = Vec::with_capacity(8);
            let mut chunk_outputs = Vec::with_capacity(8);
            let mut chunk_ready = now;
            let mut chunk_bytes = BATCH_OVERHEAD;
            for (item, done_at, bytes, out) in computed {
                chunk_ready = chunk_ready.max(done_at);
                chunk_bytes += bytes;
                chunk_outputs.push((item.req_id, out.expect("computed item has output")));
                chunk_items.push(item);
                if chunk_items.len() == 8 {
                    waves.push((
                        chunk_ready,
                        std::mem::take(&mut chunk_items),
                        std::mem::take(&mut chunk_outputs),
                        chunk_bytes,
                    ));
                    chunk_ready = now;
                    chunk_bytes = BATCH_OVERHEAD;
                }
            }
            if !chunk_items.is_empty() {
                waves.push((chunk_ready, chunk_items, chunk_outputs, chunk_bytes));
            }
        }
        for (wave_ready, items, outputs, bytes) in waves {
            ctx.send_ready_at(
                wave_ready,
                reply_to,
                Msg::Reply {
                    from_data: self.idx,
                    items,
                    outputs,
                    // Delay-accept signal: the sender throttles while this
                    // is set. Sampled at serve time — the hysteresis state
                    // when the batch entered, which is what the sender's
                    // window should react to.
                    pressured: self.pressured,
                },
                bytes,
            );
        }

        let node = self.tel_node;
        tel_record(&self.tel, ctx, |_| {
            TraceEvent::span(node, Track::Serve, "batch", now, ready.since(now))
                .arg("items", n_items as u64)
                .arg("executed", executed)
                .arg("bounced", n_compute - executed)
                .arg("data", n_data)
        });

        // 6. Drain the queue counters when the batch completes.
        let drain = PendingDrain {
            computed: executed,
            bounced: n_compute - executed,
            data_served: n_data,
            responses: n_data + n_compute,
            admitted: if self.overload.is_some() {
                n_items as u64
            } else {
                0
            },
        };
        let tag = self.next_drain;
        self.next_drain += 1;
        self.drains.insert(tag, drain);
        ctx.set_timer(ready, tag);
    }

    fn handle_put<C: RuntimeCtx<Msg>>(
        &mut self,
        table: jl_store::TableId,
        key: jl_store::RowKey,
        mut value: StoredValue,
        ctx: &mut C,
    ) {
        let (region, server) = self.catalog.locate(table, &key);
        // The region left this node: forward the put to its new owner on
        // the wire (stale-epoch writers lose latency, never writes).
        if let Some(&owner) = self.moved_to.get(&(table, region)) {
            let bytes = key.len() as u64 + value.size() + ITEM_OVERHEAD;
            ctx.send(
                self.spec.data_id(owner),
                Msg::Put { table, key, value },
                bytes,
            );
            return;
        }
        // Mid-handoff interception: during the freeze window the put is
        // buffered raw (unstamped) so exactly one node ever applies it —
        // either flushed to the new owner on commit ack, or replayed here
        // if the handoff aborts. During dual-write it applies normally
        // below and also lands in the delta log.
        let mig = self
            .mig_out
            .iter()
            .find(|(_, m)| m.table == table && m.region == region)
            .map(|(&id, m)| (id, m.phase));
        if let Some((id, OutPhase::Frozen)) = mig {
            self.mig_out
                .get_mut(&id)
                .expect("frozen migration present")
                .frozen
                .push((key, value));
            return;
        }
        self.version_clock += 1;
        value.version = self.version_clock;
        debug_assert!(
            self.serves_for(server) || self.migrated_in.contains(&(table, region)),
            "put routed to wrong server: {} is neither owner {server}, its replica, \
             nor the migrated-in owner of region ({table}, {region})",
            self.idx
        );
        // Charge a disk write.
        let svc = self.spec.disk_service(value.size());
        ctx.use_resource(ResourceKind::Disk, ctx.now(), svc);
        let node = self.tel_node;
        tel_record(&self.tel, ctx, |now| {
            TraceEvent::instant(node, Track::Serve, "put", now)
        });
        self.block_cache.invalidate(&(table, key.clone()));
        if let Some((id, OutPhase::DualWrite)) = mig {
            self.mig_out
                .get_mut(&id)
                .expect("dual-write migration present")
                .delta
                .push((key.clone(), value.clone()));
        }
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

    // ---- live region migration: source side ----

    /// Controller ordered this node to hand region `(table, region)` to
    /// `target`: snapshot it (one disk scan), ship the snapshot, and start
    /// dual-writing puts into a delta log.
    fn handle_migrate_start<C: RuntimeCtx<Msg>>(
        &mut self,
        mig_id: u64,
        table: TableId,
        region: usize,
        target: usize,
        ctx: &mut C,
    ) {
        let already = self
            .mig_out
            .values()
            .any(|m| m.table == table && m.region == region);
        if already || !self.server.has_region(table, region) {
            // A crash raced the plan (the region is gone or mid-handoff):
            // refuse rather than ship nothing.
            ctx.send(
                self.spec.controller_id(),
                Msg::MigAbort {
                    mig_id,
                    from_data: self.idx,
                },
                CTRL_BYTES,
            );
            return;
        }
        let rows = self
            .server
            .region(table, region)
            .expect("has_region checked")
            .clone();
        let bytes = rows.bytes();
        let now = ctx.now();
        // The snapshot scan is a real disk read.
        let svc = self.spec.disk_service(bytes.max(1));
        ctx.use_resource(ResourceKind::Disk, now, svc);
        let deadline = now + self.mig_timeout;
        self.mig_out.insert(
            mig_id,
            MigOut {
                table,
                region,
                target,
                phase: OutPhase::DualWrite,
                delta: Vec::new(),
                frozen: Vec::new(),
                deadline,
            },
        );
        ctx.send(
            self.spec.data_id(target),
            Msg::MigSnapshot {
                mig_id,
                table,
                region,
                from_data: self.idx,
                rows,
            },
            bytes + BATCH_OVERHEAD,
        );
        ctx.set_timer(deadline, SRC_MIG_BIT | mig_id);
        let node = self.tel_node;
        tel_record(&self.tel, ctx, |t| {
            TraceEvent::instant(node, Track::Fault, "mig-snapshot-out", t)
                .arg("mig", mig_id)
                .arg("bytes", bytes)
                .arg("target", target as u64)
        });
    }

    /// Target staged the snapshot: send the dual-written delta and freeze
    /// the region — from here until the commit ack, puts buffer unapplied
    /// so exactly one node ever applies writes.
    fn handle_mig_fetched<C: RuntimeCtx<Msg>>(&mut self, mig_id: u64, ctx: &mut C) {
        let now = ctx.now();
        let deadline = now + self.mig_timeout;
        let Some(m) = self.mig_out.get_mut(&mig_id) else {
            return;
        };
        if m.phase != OutPhase::DualWrite {
            return; // duplicate
        }
        m.phase = OutPhase::Frozen;
        m.deadline = deadline;
        let delta = std::mem::take(&mut m.delta);
        let target = m.target;
        let bytes = delta.iter().fold(BATCH_OVERHEAD, |acc, (k, v)| {
            acc + k.len() as u64 + v.size() + ITEM_OVERHEAD
        });
        ctx.send(
            self.spec.data_id(target),
            Msg::MigCommit { mig_id, delta },
            bytes,
        );
        ctx.set_timer(deadline, SRC_MIG_BIT | mig_id);
        let node = self.tel_node;
        tel_record(&self.tel, ctx, |t| {
            TraceEvent::instant(node, Track::Fault, "mig-freeze", t)
                .arg("mig", mig_id)
                .arg("delta_bytes", bytes)
        });
    }

    /// Target owns the region now: cut over — drop the local copy, evict
    /// its keys from the block cache (warmup restarts at the target),
    /// record the forwarding pointer, and flush the frozen puts to the
    /// new owner in arrival order.
    fn handle_mig_commit_ack<C: RuntimeCtx<Msg>>(&mut self, mig_id: u64, ctx: &mut C) {
        let Some(m) = self.mig_out.remove(&mig_id) else {
            return;
        };
        if let Some(region) = self.server.take_region(m.table, m.region) {
            for (key, _) in region.scan(None, None) {
                self.block_cache.invalidate(&(m.table, key.clone()));
            }
        }
        self.moved_to.insert((m.table, m.region), m.target);
        self.migrated_in.remove(&(m.table, m.region));
        self.handoffs += 1;
        let frozen = m.frozen.len() as u64;
        for (key, value) in m.frozen {
            let bytes = key.len() as u64 + value.size() + ITEM_OVERHEAD;
            ctx.send(
                self.spec.data_id(m.target),
                Msg::Put {
                    table: m.table,
                    key,
                    value,
                },
                bytes,
            );
        }
        let node = self.tel_node;
        tel_record(&self.tel, ctx, |t| {
            TraceEvent::instant(node, Track::Fault, "mig-cutover", t)
                .arg("mig", mig_id)
                .arg("frozen_flushed", frozen)
        });
    }

    /// A source-side phase deadline expired (the target crashed or the
    /// wire lost the handoff): abandon the migration and keep the region.
    /// Frozen puts replay through the normal put path — the region never
    /// left, so this node is still the one applier.
    fn src_mig_timeout<C: RuntimeCtx<Msg>>(&mut self, mig_id: u64, ctx: &mut C) {
        let now = ctx.now();
        let Some(m) = self.mig_out.get(&mig_id) else {
            return;
        };
        if now < m.deadline {
            return; // stale timer from an earlier phase
        }
        let m = self.mig_out.remove(&mig_id).expect("checked above");
        let node = self.tel_node;
        let frozen = m.frozen.len() as u64;
        tel_record(&self.tel, ctx, |t| {
            TraceEvent::instant(node, Track::Fault, "mig-abort-src", t)
                .arg("mig", mig_id)
                .arg("frozen_replayed", frozen)
        });
        for (key, value) in m.frozen {
            self.handle_put(m.table, key, value, ctx);
        }
        ctx.send(
            self.spec.controller_id(),
            Msg::MigAbort {
                mig_id,
                from_data: self.idx,
            },
            CTRL_BYTES,
        );
    }

    // ---- live region migration: target side ----

    /// Snapshot arriving from the source: stage it (one disk write) and
    /// ask for the delta.
    fn handle_mig_snapshot<C: RuntimeCtx<Msg>>(
        &mut self,
        mig_id: u64,
        table: TableId,
        region: usize,
        from_data: usize,
        rows: Region,
        ctx: &mut C,
    ) {
        let bytes = rows.bytes();
        let now = ctx.now();
        let svc = self.spec.disk_service(bytes.max(1));
        ctx.use_resource(ResourceKind::Disk, now, svc);
        let deadline = now + self.mig_timeout;
        self.mig_in.insert(
            mig_id,
            MigIn {
                table,
                region,
                source: from_data,
                staged: rows,
                bytes,
                deadline,
            },
        );
        ctx.send(
            self.spec.data_id(from_data),
            Msg::MigFetched { mig_id },
            CTRL_BYTES,
        );
        ctx.set_timer(deadline, TGT_MIG_BIT | mig_id);
        let node = self.tel_node;
        tel_record(&self.tel, ctx, |t| {
            TraceEvent::instant(node, Track::Fault, "mig-snapshot-in", t)
                .arg("mig", mig_id)
                .arg("bytes", bytes)
        });
    }

    /// The delta: apply it to the staged copy, install the region, and
    /// report ownership to the source (cutover) and the controller (epoch
    /// bump).
    fn handle_mig_commit<C: RuntimeCtx<Msg>>(
        &mut self,
        mig_id: u64,
        delta: Vec<(RowKey, StoredValue)>,
        ctx: &mut C,
    ) {
        let Some(mut m) = self.mig_in.remove(&mig_id) else {
            return; // aborted locally (crash or timeout) — source will abort too
        };
        let mut delta_bytes = 0u64;
        for (key, value) in delta {
            delta_bytes += value.size();
            m.staged.put(key, value);
        }
        m.bytes += delta_bytes;
        if delta_bytes > 0 {
            let svc = self.spec.disk_service(delta_bytes);
            ctx.use_resource(ResourceKind::Disk, ctx.now(), svc);
        }
        // A failover replica of this region may already sit here (chaos
        // runs absorb replicas at build time); the migrated copy is the
        // authoritative, freshly dual-written one and replaces it.
        if self.server.has_region(m.table, m.region) {
            self.server.take_region(m.table, m.region);
        }
        self.server.install_region(m.table, m.region, m.staged);
        self.migrated_in.insert((m.table, m.region));
        // The region may be returning to a node that once handed it off:
        // the forwarding pointer is dead now.
        self.moved_to.remove(&(m.table, m.region));
        ctx.send(
            self.spec.data_id(m.source),
            Msg::MigCommitAck { mig_id },
            CTRL_BYTES,
        );
        ctx.send(
            self.spec.controller_id(),
            Msg::MigDone {
                mig_id,
                table: m.table,
                region: m.region,
                target: self.idx,
                bytes: m.bytes,
            },
            CTRL_BYTES,
        );
        let node = self.tel_node;
        let bytes = m.bytes;
        tel_record(&self.tel, ctx, |t| {
            TraceEvent::instant(node, Track::Fault, "mig-install", t)
                .arg("mig", mig_id)
                .arg("bytes", bytes)
        });
    }

    /// A target-side deadline expired waiting for the delta: discard the
    /// staged copy and tell the controller.
    fn tgt_mig_timeout<C: RuntimeCtx<Msg>>(&mut self, mig_id: u64, ctx: &mut C) {
        let now = ctx.now();
        let Some(m) = self.mig_in.get(&mig_id) else {
            return;
        };
        if now < m.deadline {
            return;
        }
        self.mig_in.remove(&mig_id);
        let node = self.tel_node;
        tel_record(&self.tel, ctx, |t| {
            TraceEvent::instant(node, Track::Fault, "mig-abort-tgt", t).arg("mig", mig_id)
        });
        ctx.send(
            self.spec.controller_id(),
            Msg::MigAbort {
                mig_id,
                from_data: self.idx,
            },
            CTRL_BYTES,
        );
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
                queue_depth: self.queued,
                pressured: self.pressured,
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
            } => self.handle_batch(from_compute, batch, ctx),
            Msg::Put { table, key, value } => self.handle_put(table, key, value, ctx),
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
                let node = self.tel_node;
                tel_record(&self.tel, ctx, |t| {
                    TraceEvent::instant(node, Track::Fault, "activate", t)
                });
            }
            Msg::Drain { .. } => {
                self.draining = true;
                let node = self.tel_node;
                tel_record(&self.tel, ctx, |t| {
                    TraceEvent::instant(node, Track::Fault, "drain", t)
                });
            }
            Msg::Deactivate { .. } => {
                self.mem_active = false;
                self.draining = false;
                let node = self.tel_node;
                tel_record(&self.tel, ctx, |t| {
                    TraceEvent::instant(node, Track::Fault, "deactivate", t)
                });
            }
            Msg::MigrateStart {
                mig_id,
                table,
                region,
                target,
            } => self.handle_migrate_start(mig_id, table, region, target, ctx),
            Msg::MigSnapshot {
                mig_id,
                table,
                region,
                from_data,
                rows,
            } => self.handle_mig_snapshot(mig_id, table, region, from_data, rows, ctx),
            Msg::MigFetched { mig_id } => self.handle_mig_fetched(mig_id, ctx),
            Msg::MigCommit { mig_id, delta } => self.handle_mig_commit(mig_id, delta, ctx),
            Msg::MigCommitAck { mig_id } => self.handle_mig_commit_ack(mig_id, ctx),
            _ => {}
        }
    }

    /// Kernel timer dispatch: heartbeats, migration phase deadlines, and
    /// batch-completion queue drains.
    pub fn on_timer<C: RuntimeCtx<Msg>>(&mut self, tag: u64, ctx: &mut C) {
        // HEARTBEAT_TAG is u64::MAX, which carries both bits — match first.
        if tag == HEARTBEAT_TAG {
            self.on_heartbeat_timer(ctx);
            return;
        }
        if tag & SRC_MIG_BIT != 0 {
            self.src_mig_timeout(tag & !SRC_MIG_BIT, ctx);
            return;
        }
        if tag & TGT_MIG_BIT != 0 {
            self.tgt_mig_timeout(tag & !TGT_MIG_BIT, ctx);
            return;
        }
        if let Some(d) = self.drains.remove(&tag) {
            self.rt.on_computed(d.computed);
            self.rt.on_bounced(d.bounced);
            self.rt.on_data_served(d.data_served);
            self.rt.on_responses_sent(d.responses);
            if let Some(ov) = self.overload {
                self.queued = self.queued.saturating_sub(d.admitted);
                if self.pressured && self.queued <= ov.low_watermark {
                    self.pressured = false;
                    let node = self.tel_node;
                    let depth = self.queued;
                    tel_record(&self.tel, ctx, |now| {
                        TraceEvent::instant(node, Track::Fault, "pressure-off", now)
                            .arg("depth", depth)
                    });
                }
                self.tel_queue_depth(ctx);
            }
        }
    }
}
