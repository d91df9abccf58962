//! Building and running a job end-to-end: [`run_job_on`] is the one
//! implementation of a run, parameterised by [`Backend`] — the simulator
//! (the deterministic oracle) or the wall clock — over the same
//! construction, loading and gathering code.

use std::sync::Arc;

use rustc_hash::FxHashMap;

use jl_core::{DecisionSink, OptimizerConfig, PlacementPolicy};
use jl_runtime::{Hosted, RealRuntime};
use jl_simkit::prelude::*;
use jl_store::{Catalog, Partitioning, RegionMap, RowKey, StoreCluster, StoredValue, UdfRegistry};
use jl_telemetry::{MetricsRegistry, RunTelemetry, TelemetryConfig, TelemetryHandle};

use crate::cluster::{ClusterNode, ClusterSim, EKey, Msg};
use crate::compute_node::{ComputeNode, TupleFate};
use crate::config::{ClusterSpec, FeedMode, MembershipConfig, OverloadConfig, RetryConfig};
use crate::controller::Controller;
use crate::data_node::DataNode;
use crate::plan::{JobPlan, JobTuple};
use crate::telemetry::EngineProbe;

/// Factory building one compute node's placement policy. Called once per
/// compute node with the run's optimizer config and that node's derived
/// seed. When absent, each node runs the policy its configured
/// [`Strategy`](jl_core::Strategy) prescribes.
pub type PolicyFactory =
    Arc<dyn Fn(&OptimizerConfig, u64) -> Box<dyn PlacementPolicy<EKey>> + Send + Sync>;

/// Factory building one compute node's decision sink, by node index. When
/// absent, no sink is installed.
pub type SinkFactory = Arc<dyn Fn(usize) -> Box<dyn DecisionSink<EKey>> + Send + Sync>;

/// Factory building one compute node's shed policy, by node index — the
/// overload plane's analogue of [`PolicyFactory`]. Only consulted when
/// [`JobSpec::overload`] is set; when absent, each node runs the policy
/// its [`ShedMode`](jl_core::ShedMode) prescribes.
pub type ShedFactory = Arc<dyn Fn(usize) -> Box<dyn jl_core::ShedPolicy<EKey>> + Send + Sync>;

/// Factory building the controller's autoscale policy — the membership
/// plane's analogue of [`PolicyFactory`]. Only consulted when
/// [`JobSpec::membership`] carries an
/// [`AutoscaleConfig`](crate::config::AutoscaleConfig); when absent, the
/// controller runs the policy that config's
/// [`AutoscaleMode`](jl_core::AutoscaleMode) prescribes.
pub type AutoscaleFactory = Arc<dyn Fn() -> Box<dyn jl_core::AutoscalePolicy> + Send + Sync>;

/// Everything needed to launch one run: six required fields (what
/// [`JobSpec::new`] takes) plus nine optional ones — five *planes*
/// (`faults`, `retry`, `telemetry`, `overload`, `membership`) and four
/// factory overrides (`policy`, `decision_sink`, `shed_policy`,
/// `autoscale_policy`).
///
/// The plane contract, stated once: `None` ⇒ the seed event stream — the
/// plane's code paths reduce to a not-taken branch and the run is
/// byte-identical to one built before the plane existed. Every plane
/// config is validated in [`build_cluster`] (via [`JobSpec::validate`]),
/// the one function every backend and the serve layer pass through.
pub struct JobSpec {
    /// Cluster topology and hardware.
    pub cluster: ClusterSpec,
    /// Optimizer configuration (strategy + tunables).
    pub optimizer: OptimizerConfig,
    /// Batch or streaming feed.
    pub feed: FeedMode,
    /// The join pipeline.
    pub plan: Arc<JobPlan>,
    /// Root seed for the run.
    pub seed: u64,
    /// Initial guess for per-UDF CPU seconds (refined at runtime).
    pub udf_cpu_hint: f64,
    /// Placement-policy override; `None` follows `optimizer.strategy`.
    /// `Strategy` stays the serializable config surface — this is the hook
    /// for ablations and custom policies built in code.
    pub policy: Option<PolicyFactory>,
    /// Per-node decision-stream observers.
    pub decision_sink: Option<SinkFactory>,
    /// Injected faults (crashes, lossy links, stragglers). When crashes
    /// are planned, each crashed data node's regions are pre-replicated
    /// onto a surviving node so rerouted requests stay answerable
    /// (standing in for HBase's WAL replay / region reassignment, which
    /// the master would do online).
    pub faults: Option<FaultPlan>,
    /// Timeout/retry/failover behavior (retry timers).
    pub retry: Option<RetryConfig>,
    /// Telemetry recording. When `None` no recorder is allocated and
    /// [`run_job_on`] returns no [`RunTelemetry`].
    pub telemetry: Option<TelemetryConfig>,
    /// Overload protection: bounded queues, backpressure, deadlines, and
    /// load shedding.
    pub overload: Option<OverloadConfig>,
    /// Shed-policy override; `None` follows `overload.shed`. Ignored
    /// when `overload` is `None`.
    pub shed_policy: Option<ShedFactory>,
    /// Elastic membership: standby nodes, scripted join/decommission
    /// events, live region migration, and (optionally) an autoscaler.
    pub membership: Option<MembershipConfig>,
    /// Autoscale-policy override; `None` follows
    /// `membership.autoscale.mode`. Ignored when `membership` is `None`
    /// or carries no autoscale config.
    pub autoscale_policy: Option<AutoscaleFactory>,
}

impl JobSpec {
    /// A spec with every plane off and every factory override unset.
    /// Arm a plane with struct-update syntax:
    /// `JobSpec { faults: Some(plan), ..JobSpec::new(..) }`.
    pub fn new(
        cluster: ClusterSpec,
        optimizer: OptimizerConfig,
        feed: FeedMode,
        plan: Arc<JobPlan>,
        seed: u64,
        udf_cpu_hint: f64,
    ) -> Self {
        JobSpec {
            cluster,
            optimizer,
            feed,
            plan,
            seed,
            udf_cpu_hint,
            policy: None,
            decision_sink: None,
            faults: None,
            retry: None,
            telemetry: None,
            overload: None,
            shed_policy: None,
            membership: None,
            autoscale_policy: None,
        }
    }

    /// Panic with a descriptive message on an inconsistent plane config.
    /// Called at the top of [`build_cluster`]; a layer taking such values
    /// from outside the program (e.g. `jl-serve`'s flags) must reject
    /// them before they get here.
    pub fn validate(&self) {
        if let Some(ov) = &self.overload {
            ov.validate();
        }
        if let Some(m) = &self.membership {
            m.validate(&self.cluster);
        }
    }
}

/// Aggregate results of a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock (simulated) duration of the job.
    pub duration: SimDuration,
    /// Tuples fully processed.
    pub completed: u64,
    /// XOR fingerprint over every stage output — identical across correct
    /// strategies.
    pub fingerprint: u64,
    /// Sum of compute-side decision statistics.
    pub decisions: jl_core::DecisionStats,
    /// Sum of cache statistics.
    pub cache: jl_cache::CacheStats,
    /// Sum of data-side statistics.
    pub data: jl_core::DataNodeStats,
    /// Bytes moved over the network.
    pub net_bytes: u64,
    /// Messages delivered.
    pub net_messages: u64,
    /// Simulation events processed (deliveries + timers) — the kernel
    /// benchmark's work measure.
    pub sim_events: u64,
    /// Highest per-data-node CPU utilization (skew indicator).
    pub max_data_cpu_util: f64,
    /// Mean per-data-node CPU utilization.
    pub mean_data_cpu_util: f64,
    /// Requests re-issued after a timeout (0 without faults/retry).
    pub retries: u64,
    /// Batches rerouted to a failover replica of a down data node.
    pub failovers: u64,
    /// Requests abandoned after exhausting retries (0 = exactly-once
    /// completion held for every tuple).
    pub gave_up: u64,
    /// Messages lost to injected faults.
    pub dropped_messages: u64,
    /// Messages held back by injected link delays (delivered late).
    pub delayed_messages: u64,
    /// Per-link fault accounting, `(from, to, dropped, delayed)` in sim
    /// node ids, ordered by link. Only links the fault plan actually
    /// touched appear; healthy runs report an empty list.
    pub link_faults: Vec<(usize, usize, u64, u64)>,
    /// 99th-percentile ingest→completion latency across all compute
    /// nodes (the chaos figures' tail-latency measure).
    pub p99_latency: SimDuration,
    /// Tuples dropped by overload protection (never counted completed;
    /// 0 without an [`OverloadConfig`]).
    pub shed: u64,
    /// Data-side backpressure signals: NACKed batches plus high-watermark
    /// pressure onsets, summed over all data nodes.
    pub backpressure_events: u64,
    /// Tuples that completed after their deadline budget expired.
    pub deadline_misses: u64,
    /// Deepest any data-node ingest queue ever got. Bounded by
    /// `data_queue_cap` when overload protection is on; 0 when it is off
    /// (the seed's queues are unbounded *and* unmeasured — use
    /// [`OverloadConfig::permissive`] to measure without bounding).
    pub peak_queue_depth: u64,
    /// Per-tuple `(seq, Shed | GaveUp)` for every tuple that shed or gave
    /// up, sorted by seq: the per-tuple accounting surface
    /// [`Expected::check`](crate::verify::Expected::check) reconciles the
    /// output fingerprint against.
    pub outcomes: Vec<(u64, TupleFate)>,
    /// Live region migrations completed (0 without a
    /// [`MembershipConfig`]).
    pub migrations: u64,
    /// Migrations abandoned after a handoff phase timed out.
    pub migrations_aborted: u64,
    /// Bytes handed over by completed migrations (snapshot + delta).
    pub migrated_bytes: u64,
    /// Data nodes that completed a graceful drain and deactivated.
    pub drained_nodes: u64,
    /// Standby nodes the autoscaler rented (activated).
    pub autoscale_rents: u64,
    /// Active nodes the autoscaler released (decommissioned).
    pub autoscale_releases: u64,
    /// Active-node-seconds integral over the run — the elastic cost
    /// measure `fig_elastic` compares against a static fleet. A static
    /// run charges every data node for the full duration.
    pub node_seconds: f64,
}

impl RunReport {
    /// Tuples per simulated second. An empty run (zero elapsed time, or a
    /// non-finite duration) reports 0.0 — never NaN or ∞.
    pub fn throughput(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 || !secs.is_finite() {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Skew ratio: max over mean data-node CPU utilization (1.0 =
    /// balanced). A run with no data-node activity (zero or non-finite
    /// mean) reports 0.0 — never NaN or ∞.
    pub fn data_cpu_skew(&self) -> f64 {
        if self.mean_data_cpu_util <= 0.0
            || !self.mean_data_cpu_util.is_finite()
            || !self.max_data_cpu_util.is_finite()
        {
            0.0
        } else {
            self.max_data_cpu_util / self.mean_data_cpu_util
        }
    }
}

fn sum_decisions(a: jl_core::DecisionStats, b: jl_core::DecisionStats) -> jl_core::DecisionStats {
    jl_core::DecisionStats {
        mem_hits: a.mem_hits + b.mem_hits,
        disk_hits: a.disk_hits + b.disk_hits,
        compute_requests: a.compute_requests + b.compute_requests,
        data_requests: a.data_requests + b.data_requests,
        bounced_local: a.bounced_local + b.bounced_local,
        offloaded_hits: a.offloaded_hits + b.offloaded_hits,
        missing: a.missing + b.missing,
        completed: a.completed + b.completed,
    }
}

fn sum_cache(a: jl_cache::CacheStats, b: jl_cache::CacheStats) -> jl_cache::CacheStats {
    jl_cache::CacheStats {
        mem_hits: a.mem_hits + b.mem_hits,
        disk_hits: a.disk_hits + b.disk_hits,
        misses: a.misses + b.misses,
        inserts_mem: a.inserts_mem + b.inserts_mem,
        inserts_disk: a.inserts_disk + b.inserts_disk,
        demotions: a.demotions + b.demotions,
        disk_drops: a.disk_drops + b.disk_drops,
        invalidations: a.invalidations + b.invalidations,
        promotions: a.promotions + b.promotions,
    }
}

fn sum_data(a: jl_core::DataNodeStats, b: jl_core::DataNodeStats) -> jl_core::DataNodeStats {
    jl_core::DataNodeStats {
        batches: a.batches + b.batches,
        compute_requests: a.compute_requests + b.compute_requests,
        data_requests: a.data_requests + b.data_requests,
        executed_here: a.executed_here + b.executed_here,
        bounced: a.bounced + b.bounced,
    }
}

/// Build a [`StoreCluster`] for `spec`, loading each `(name, rows)` table
/// hash-partitioned across the data nodes.
pub fn build_store(
    spec: &ClusterSpec,
    tables: Vec<(String, Vec<(RowKey, StoredValue)>)>,
) -> StoreCluster {
    build_store_active(spec, tables, spec.n_data)
}

/// [`build_store`], but placing every region on the first `active` data
/// nodes only — the store layout an elastic run starts from when
/// [`MembershipConfig::initial_active`] is below `n_data`. The region
/// *count* is unchanged (`n_data * regions_per_node`), so later joins
/// rebalance whole regions onto standbys instead of splitting them.
pub fn build_store_active(
    spec: &ClusterSpec,
    tables: Vec<(String, Vec<(RowKey, StoredValue)>)>,
    active: usize,
) -> StoreCluster {
    assert!(
        (1..=spec.n_data).contains(&active),
        "active data nodes {active} outside 1..={}",
        spec.n_data
    );
    let mut store = StoreCluster::new(spec.n_data);
    for (name, rows) in tables {
        let regions = spec.n_data * spec.regions_per_node;
        let table = store.add_table(
            name,
            RegionMap::round_robin(Partitioning::Hash { regions }, active),
        );
        store.bulk_load(table, rows);
    }
    store
}

/// A job that also carries mid-run store updates (for §4.2.3 experiments):
/// `(time, table, key, value)` applied at the owning data node.
pub type UpdateEvent = (SimTime, jl_store::TableId, RowKey, StoredValue);

/// Which clock hosts a run. The construction, policies and
/// fault/overload/membership machinery are identical on both; only the
/// pacing of the one event loop differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The simulation kernel's own loop — the deterministic oracle.
    Sim,
    /// The wall-clock backend: time is real nanoseconds, so durations and
    /// latencies reflect the host machine while join results and tuple
    /// accounting match the simulator (the parity tests pin this). A
    /// trace is stamped in wall-clock time but structurally identical to
    /// a simulated one.
    Real,
}

/// [`run_job_on`] the serial simulator, report only.
pub fn run_job(
    spec: &JobSpec,
    store: StoreCluster,
    udfs: UdfRegistry,
    tuples: Vec<JobTuple>,
    updates: Vec<UpdateEvent>,
) -> RunReport {
    run_job_on(spec, Backend::Sim, store, udfs, tuples, updates).0
}

/// [`run_job_on`] the serial simulator.
pub fn run_job_traced(
    spec: &JobSpec,
    store: StoreCluster,
    udfs: UdfRegistry,
    tuples: Vec<JobTuple>,
    updates: Vec<UpdateEvent>,
) -> (RunReport, Option<RunTelemetry>) {
    run_job_on(spec, Backend::Sim, store, udfs, tuples, updates)
}

/// [`run_job`] under its former parallel-kernel name. That kernel was
/// slower than the serial loop at every measured shape and is gone;
/// `_threads` is ignored and the report is `run_job`'s. Kept so existing
/// callers (the standalone `benchmark/` package) still compile.
pub fn run_job_parallel(
    spec: &JobSpec,
    store: StoreCluster,
    udfs: UdfRegistry,
    tuples: Vec<JobTuple>,
    updates: Vec<UpdateEvent>,
    _threads: usize,
) -> RunReport {
    run_job(spec, store, udfs, tuples, updates)
}

/// A cluster built for either backend: nodes in sim-id order (computes,
/// then data nodes, then the controller) plus the external input that
/// [`load_host`] hands to the kernel as feeds.
pub struct BuiltCluster {
    /// Nodes in id order; add them to a backend in this order.
    pub nodes: Vec<ClusterNode>,
    /// A streaming job's arrivals in input order: tuple `i` goes to
    /// compute node `i % n_compute`. Empty for a batch job, whose input
    /// the compute nodes already hold.
    pub stream: Vec<JobTuple>,
    /// Mid-run store updates, in the caller's order.
    pub updates: Vec<UpdateEvent>,
    /// The shared catalog (e.g. for locating mid-run puts).
    pub catalog: Arc<Catalog>,
}

/// Build every node of a job's cluster, backend-agnostically: failover
/// replica layout, round-robin input split, per-node seeds/policies/sinks
/// and telemetry attachment. Streaming arrivals and store updates stay
/// as they came, for [`load_host`] to feed.
pub fn build_cluster(
    spec: &JobSpec,
    store: StoreCluster,
    udfs: UdfRegistry,
    tuples: Vec<JobTuple>,
    updates: Vec<UpdateEvent>,
    tel: &Option<TelemetryHandle>,
) -> BuiltCluster {
    spec.validate();
    let cluster = &spec.cluster;
    let (catalog, mut servers) = store.into_parts();

    // Failover layout: each data node the fault plan will crash gets a
    // backup — the next surviving data node (ring order) — which absorbs
    // a replica of its regions before the run starts.
    let mut backups: FxHashMap<usize, usize> = FxHashMap::default();
    if let Some(plan) = &spec.faults {
        let data_idx = |node: usize| {
            (node >= cluster.n_compute && node < cluster.n_compute + cluster.n_data)
                .then(|| node - cluster.n_compute)
        };
        let crashed: Vec<usize> = plan
            .crashes()
            .iter()
            .filter_map(|c| data_idx(c.node))
            .collect();
        for &j in &crashed {
            let b = (1..cluster.n_data)
                .map(|k| (j + k) % cluster.n_data)
                .find(|b| !crashed.contains(b))
                .expect("fault plan crashes every data node: no survivor can host replicas");
            backups.insert(j, b);
        }
        for j in 0..cluster.n_data {
            if let Some(&b) = backups.get(&j) {
                let src = servers[j].clone();
                servers[b].absorb_replica(&src);
            }
        }
    }
    let backups = Arc::new(backups);

    // Round-robin the input across compute nodes (§3.1: the framework
    // assumes balanced input distribution): tuple `i` goes to node
    // `i % n_compute`, held by the node (batch) or fed to it (stream).
    let mut per_node: Vec<Vec<JobTuple>> = (0..cluster.n_compute).map(|_| Vec::new()).collect();
    let streaming = matches!(spec.feed, FeedMode::Stream { .. });
    let stream = if streaming {
        tuples
    } else {
        for (i, t) in tuples.into_iter().enumerate() {
            per_node[i % cluster.n_compute].push(t);
        }
        Vec::new()
    };

    let mut nodes: Vec<ClusterNode> = Vec::with_capacity(cluster.n_compute + cluster.n_data + 1);
    for (i, input) in per_node.iter_mut().enumerate() {
        let node_seed = jl_simkit::rng::derive_seed(spec.seed, "compute") ^ i as u64;
        let policy = spec.policy.as_ref().map(|f| f(&spec.optimizer, node_seed));
        let mut sink = spec.decision_sink.as_ref().map(|f| f(i));
        if let Some(t) = &tel {
            // Traced runs observe the decision plane through a tee that
            // records each decision at its own time.
            let node = cluster.compute_id(i) as u32;
            sink = Some(crate::telemetry::decision_tee(t.clone(), node, sink));
        }
        let shed = spec.overload.map(|ov| match &spec.shed_policy {
            Some(f) => f(i),
            None => jl_core::shed_policy_for::<EKey>(ov.shed),
        });
        let mut node = ComputeNode::new(
            i,
            spec.optimizer.clone(),
            cluster.clone(),
            spec.feed,
            Arc::clone(&catalog),
            udfs.clone(),
            Arc::clone(&spec.plan),
            std::mem::take(input),
            spec.udf_cpu_hint,
            node_seed,
            policy,
            sink,
            spec.retry,
            Arc::clone(&backups),
            spec.overload,
            shed,
        );
        if streaming {
            // A pre-counted stream ends: the node reports Done after its
            // last arrival resolves, so the run stops at the busy span
            // even when membership timers would otherwise idle to the
            // horizon. jl-serve passes no tuples here and stays open.
            let n = cluster.n_compute;
            let share = stream.len() / n + usize::from(i < stream.len() % n);
            node.set_stream_expected(share as u64);
        }
        if let Some(t) = &tel {
            node.set_telemetry(t.clone(), cluster.compute_id(i) as u32);
        }
        nodes.push(ClusterNode::Compute(node));
    }
    for (j, server) in servers.into_iter().enumerate() {
        let mut node = DataNode::new(
            j,
            spec.optimizer.clone(),
            cluster.clone(),
            Arc::clone(&catalog),
            udfs.clone(),
            Arc::clone(&spec.plan),
            server,
            spec.udf_cpu_hint,
            jl_simkit::rng::derive_seed(spec.seed, "data") ^ j as u64,
            spec.overload,
        );
        for src in 0..cluster.n_data {
            if backups.get(&src) == Some(&j) {
                node.add_replica_source(src);
            }
        }
        if let Some(m) = &spec.membership {
            node.set_membership(
                j < m.initial_active,
                m.autoscale.as_ref().map(|a| a.heartbeat),
                m.migration_timeout,
            );
        }
        if let Some(t) = &tel {
            node.set_telemetry(t.clone(), cluster.data_id(j) as u32);
        }
        nodes.push(ClusterNode::Data(node));
    }
    let mut controller = Controller::new(cluster.n_compute);
    if let Some(m) = &spec.membership {
        // Seed the controller's ownership map from the catalog the store
        // was built with (the epoch-0 layout every node starts from).
        let mut owners = Vec::new();
        for t in 0..catalog.table_count() {
            let map = &catalog.table(t).region_map;
            for region in 0..map.region_count() {
                owners.push(((t, region), map.server_of_region(region)));
            }
        }
        let policy = m.autoscale.as_ref().map(|a| match &spec.autoscale_policy {
            Some(f) => f(),
            None => jl_core::autoscale_policy_for(a.mode),
        });
        controller.set_membership(cluster.clone(), m.clone(), owners, policy);
    }
    if let Some(t) = &tel {
        controller.set_telemetry(t.clone(), cluster.controller_id() as u32);
    }
    nodes.push(ClusterNode::Controller(controller));

    BuiltCluster {
        nodes,
        stream,
        updates,
        catalog,
    }
}

/// Load a built cluster into a fresh kernel: nodes in id order, fault
/// plan, probe, and the external input as two feeds
/// ([`Sim::feed`](jl_simkit::sim::Sim::feed)), so each message is built
/// and queued only when it is due. Every backend runs what this returns;
/// it is exposed (with [`build_cluster`]) so a serving layer can attach
/// completion hooks and its own probe before handing the kernel to a
/// pacer.
pub fn load_host(spec: &JobSpec, built: BuiltCluster, tel: &Option<TelemetryHandle>) -> ClusterSim {
    let cluster = &spec.cluster;
    let mut sim = Sim::new(spec.seed, cluster.net);
    for node in built.nodes {
        sim.add_node(Hosted(node), cluster.node);
    }
    if let Some(plan) = &spec.faults {
        sim.set_fault_plan(plan.clone());
    }
    if let Some(t) = tel {
        sim.set_probe(Box::new(EngineProbe::new(t.clone())));
    }
    // Streaming arrivals, then store updates: the two feeds reserve their
    // seqs in that order, and each is stably sorted by time, so same-time
    // ties run stream first, then in input order, on every backend.
    let ids = cluster.clone();
    let stream = built.stream;
    let indexed: Box<dyn ExactSizeIterator<Item = (usize, JobTuple)>> =
        if stream.is_sorted_by_key(|t| t.arrival) {
            Box::new(stream.into_iter().enumerate())
        } else {
            let mut indexed: Vec<(usize, JobTuple)> = stream.into_iter().enumerate().collect();
            indexed.sort_by_key(|(_, t)| t.arrival);
            Box::new(indexed.into_iter())
        };
    sim.feed(indexed.map(move |(i, t)| {
        let bytes = t.params_size as u64 + 64;
        let to = ids.compute_id(i % ids.n_compute);
        (t.arrival, to, Msg::Tuple(t), bytes)
    }));
    let (ids, catalog) = (cluster.clone(), built.catalog);
    let mut updates = built.updates;
    updates.sort_by_key(|u| u.0);
    sim.feed(updates.into_iter().map(move |(at, table, key, value)| {
        let (_, server) = catalog.locate(table, &key);
        let bytes = value.size() + 64;
        let value = Box::new(value);
        (
            at,
            ids.data_id(server),
            Msg::Put { table, key, value },
            bytes,
        )
    }));
    sim
}

/// Run a job to completion (batch) or to the horizon (stream) on
/// `backend` — the one implementation of a run. Returns the report plus
/// the run's telemetry when [`JobSpec::telemetry`] is set.
pub fn run_job_on(
    spec: &JobSpec,
    backend: Backend,
    store: StoreCluster,
    udfs: UdfRegistry,
    tuples: Vec<JobTuple>,
    updates: Vec<UpdateEvent>,
) -> (RunReport, Option<RunTelemetry>) {
    let tel: Option<TelemetryHandle> = spec.telemetry.map(jl_telemetry::shared);
    let built = build_cluster(spec, store, udfs, tuples, updates, &tel);
    let (report, end) = drive(spec, backend, built, &tel);
    let run_tel = tel.map(|h| unwrap_telemetry(h, &spec.cluster, end));
    (report, run_tel)
}

/// Load the kernel, run it on `backend`'s loop, and gather the report.
/// The backend is matched once, outside the event loop. The kernel — and
/// with it the nodes' and the probe's clones of the telemetry handle — is
/// dropped on return, so the caller can unwrap the recorder.
fn drive(
    spec: &JobSpec,
    backend: Backend,
    built: BuiltCluster,
    tel: &Option<TelemetryHandle>,
) -> (RunReport, SimTime) {
    let horizon = match spec.feed {
        FeedMode::Batch { .. } => SimTime::MAX,
        FeedMode::Stream { horizon, .. } => SimTime::ZERO + horizon,
    };
    let finish = |sim: &ClusterSim, end: SimTime| {
        let report = gather_report(sim, &spec.cluster, end);
        // Traced runs fold the end-of-run metrics into the recorder.
        if let Some(t) = tel {
            snapshot_metrics(&mut t.borrow_mut().registry, sim, &spec.cluster, end);
        }
        (report, end)
    };
    let mut sim = load_host(spec, built, tel);
    match backend {
        Backend::Sim => {
            let end = sim.run_until(horizon);
            finish(&sim, end)
        }
        Backend::Real => {
            let mut rt = RealRuntime::pace(sim);
            let end = rt.run_until(horizon);
            finish(rt.sim(), end)
        }
    }
}

/// Unwrap the (now uniquely held) recorder into a [`RunTelemetry`].
/// Exposed so a serving layer that builds its runtime by hand can tear
/// telemetry down the same way the runner does (including the flight
/// ring's final contents).
pub fn unwrap_telemetry(h: TelemetryHandle, cluster: &ClusterSpec, end: SimTime) -> RunTelemetry {
    let mut recorder = h.into_inner();
    let flight = recorder
        .drain_flight()
        .map(jl_telemetry::flight::stitch)
        .filter(|log| !log.is_empty());
    let (events, registry) = recorder.finish();
    RunTelemetry {
        end,
        events,
        registry,
        processes: process_names(cluster),
        flight,
    }
}

/// Collect a [`RunReport`] from a finished run on any backend.
pub fn gather_report(host: &ClusterSim, cluster: &ClusterSpec, end: SimTime) -> RunReport {
    let mut decisions = jl_core::DecisionStats::default();
    let mut cache = jl_cache::CacheStats::default();
    let mut data = jl_core::DataNodeStats::default();
    let mut completed = 0u64;
    let mut fingerprint = 0u64;
    let mut retries = 0u64;
    let mut failovers = 0u64;
    let mut gave_up = 0u64;
    let mut shed = 0u64;
    let mut deadline_misses = 0u64;
    let mut backpressure_events = 0u64;
    let mut peak_queue_depth = 0u64;
    let mut outcomes: Vec<(u64, TupleFate)> = Vec::new();
    let mut all_latency = jl_simkit::stats::DurationHistogram::new();
    let mut data_utils: Vec<f64> = Vec::new();
    for i in 0..cluster.n_compute {
        let n = host
            .node(cluster.compute_id(i))
            .as_compute()
            .expect("compute role");
        decisions = sum_decisions(decisions, n.decision_stats());
        cache = sum_cache(cache, n.cache_stats());
        completed += n.report().completed;
        fingerprint ^= n.report().fingerprint;
        retries += n.report().retries;
        failovers += n.report().failovers;
        gave_up += n.report().gave_up;
        shed += n.report().shed;
        deadline_misses += n.report().deadline_misses;
        outcomes.extend_from_slice(n.outcomes());
        all_latency.merge(n.latency());
    }
    for j in 0..cluster.n_data {
        let id = cluster.data_id(j);
        let n = host.node(id).as_data().expect("data role");
        data = sum_data(data, n.stats());
        let (nacks, pressure_events, peak) = n.overload_stats();
        backpressure_events += nacks + pressure_events;
        peak_queue_depth = peak_queue_depth.max(peak);
        data_utils.push(host.resources(id).cpu.utilization(end));
    }
    // Seq assignment is global, so sorting makes the outcome log invariant
    // to gather order (and to the compute-node round-robin).
    outcomes.sort_unstable_by_key(|&(seq, _)| seq);
    // Order-independent reductions: max is commutative already, the mean
    // uses a stable (sorted, compensated) sum so the report is bit-identical
    // however the per-node values are gathered.
    let max_u = data_utils.iter().cloned().fold(0.0f64, f64::max);
    let mean_u = if data_utils.is_empty() {
        0.0
    } else {
        jl_simkit::stats::stable_mean(&data_utils)
    };
    let link_faults: Vec<(usize, usize, u64, u64)> = host
        .link_stats()
        .iter()
        .map(|(&(from, to), ls)| (from, to, ls.dropped, ls.delayed))
        .collect();
    let ctrl = host
        .node(cluster.controller_id())
        .as_controller()
        .expect("controller role");
    let ms = ctrl.membership_stats();
    // A static fleet charges every data node for the whole run; the
    // controller only integrates active-node-seconds when membership is on.
    let node_seconds = ctrl
        .node_seconds(end)
        .unwrap_or_else(|| cluster.n_data as f64 * end.since(SimTime::ZERO).as_secs_f64());
    let totals = host.net_totals();
    RunReport {
        duration: end.since(SimTime::ZERO),
        completed,
        fingerprint,
        decisions,
        cache,
        data,
        net_bytes: totals.bytes,
        net_messages: totals.messages,
        sim_events: host.events_processed(),
        max_data_cpu_util: max_u,
        mean_data_cpu_util: mean_u,
        retries,
        failovers,
        gave_up,
        dropped_messages: totals.dropped,
        delayed_messages: totals.delayed,
        link_faults,
        p99_latency: all_latency.quantile(0.99),
        shed,
        backpressure_events,
        deadline_misses,
        peak_queue_depth,
        outcomes,
        migrations: ms.migrations,
        migrations_aborted: ms.migrations_aborted,
        migrated_bytes: ms.migrated_bytes,
        drained_nodes: ms.drained_nodes,
        autoscale_rents: ms.autoscale_rents,
        autoscale_releases: ms.autoscale_releases,
        node_seconds,
    }
}

/// Trace display names for every sim node of `cluster`.
pub fn process_names(cluster: &ClusterSpec) -> Vec<(u32, String)> {
    let mut names = Vec::with_capacity(cluster.n_compute + cluster.n_data + 1);
    for i in 0..cluster.n_compute {
        names.push((cluster.compute_id(i) as u32, format!("C{i}")));
    }
    for j in 0..cluster.n_data {
        names.push((cluster.data_id(j) as u32, format!("D{j}")));
    }
    names.push((cluster.controller_id() as u32, "ctrl".to_string()));
    names
}

/// Incremental mid-run metrics snapshot: the same fold as the end-of-run
/// snapshot, but into a **fresh** registry, leaving the host and any
/// recorder-owned registry untouched. Every underlying read is
/// observation-only (counters are copied, histograms merged into the new
/// registry, gauges cloned), so calling this any number of times mid-run
/// changes nothing about the final metrics — a pinned test runs a job
/// with and without mid-run snapshots and requires identical metrics JSON.
/// `end` is the read time (closes utilization and time-weighted gauges).
pub fn snapshot_delta(host: &ClusterSim, cluster: &ClusterSpec, end: SimTime) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    snapshot_metrics(&mut reg, host, cluster, end);
    reg
}

/// Fold the run's end state — per-node latency histograms, pipeline and
/// retry counters, decision/cache statistics, store and block-cache
/// counters, resource utilizations and queueing-wait histograms, and
/// cluster-wide network totals — into `reg`.
fn snapshot_metrics(
    reg: &mut MetricsRegistry,
    host: &ClusterSim,
    cluster: &ClusterSpec,
    end: SimTime,
) {
    for i in 0..cluster.n_compute {
        let id = cluster.compute_id(i);
        let node = id as u32;
        let n = host.node(id).as_compute().expect("compute role");
        reg.hist_merge(node, "latency", "tuple", n.latency());
        reg.hist_merge(node, "latency", "remote", n.remote_latency());
        reg.hist_merge(node, "latency", "local", n.local_latency());
        if let Some(g) = n.outstanding_gauge() {
            reg.time_gauge_adopt(node, "pipeline", "outstanding", g.clone());
        }
        let r = n.report();
        reg.counter_add(node, "pipeline", "ingested", r.ingested);
        reg.counter_add(node, "pipeline", "completed", r.completed);
        reg.counter_add(node, "retry", "retries", r.retries);
        reg.counter_add(node, "retry", "failovers", r.failovers);
        reg.counter_add(node, "retry", "gave_up", r.gave_up);
        reg.counter_add(node, "overload", "shed", r.shed);
        reg.counter_add(node, "overload", "deadline_misses", r.deadline_misses);
        reg.counter_add(node, "overload", "nacks_seen", r.nacks);
        reg.counter_add(node, "overload", "peak_ingest_queue", r.peak_ingest_queue);
        let d = n.decision_stats();
        reg.counter_add(node, "decision", "compute_requests", d.compute_requests);
        reg.counter_add(node, "decision", "data_requests", d.data_requests);
        reg.counter_add(node, "decision", "mem_hits", d.mem_hits);
        reg.counter_add(node, "decision", "disk_hits", d.disk_hits);
        reg.counter_add(node, "decision", "bounced_local", d.bounced_local);
        let c = n.cache_stats();
        reg.counter_add(node, "cache", "mem_hits", c.mem_hits);
        reg.counter_add(node, "cache", "disk_hits", c.disk_hits);
        reg.counter_add(node, "cache", "misses", c.misses);
        reg.counter_add(node, "cache", "inserts_mem", c.inserts_mem);
        reg.counter_add(node, "cache", "inserts_disk", c.inserts_disk);
        reg.counter_add(node, "cache", "invalidations", c.invalidations);
        snapshot_resources(reg, node, host.resources(id), end);
    }
    for j in 0..cluster.n_data {
        let id = cluster.data_id(j);
        let node = id as u32;
        let n = host.node(id).as_data().expect("data role");
        let s = n.stats();
        if let Some(g) = n.queue_gauge() {
            reg.time_gauge_adopt(node, "overload", "queue_depth", g.clone());
        }
        reg.counter_add(node, "serve", "batches", s.batches);
        reg.counter_add(node, "serve", "compute_requests", s.compute_requests);
        reg.counter_add(node, "serve", "data_requests", s.data_requests);
        reg.counter_add(node, "serve", "executed_here", s.executed_here);
        reg.counter_add(node, "serve", "bounced", s.bounced);
        reg.counter_add(node, "serve", "udf_execs", n.udf_execs());
        let ss = n.server_stats();
        reg.counter_add(node, "store", "gets", ss.gets);
        reg.counter_add(node, "store", "get_misses", ss.get_misses);
        reg.counter_add(node, "store", "puts", ss.puts);
        let (hits, misses, evictions) = n.block_cache_counts();
        reg.counter_add(node, "blockcache", "hits", hits);
        reg.counter_add(node, "blockcache", "misses", misses);
        reg.counter_add(node, "blockcache", "evictions", evictions);
        reg.gauge_set(node, "blockcache", "hit_ratio", n.block_cache_hit_ratio());
        reg.counter_add(node, "fault", "crashes", n.crashes());
        reg.counter_add(node, "membership", "handoffs", n.handoffs());
        let (nacks, pressure_events, peak) = n.overload_stats();
        reg.counter_add(node, "overload", "nacks_sent", nacks);
        reg.counter_add(node, "overload", "pressure_events", pressure_events);
        reg.counter_add(node, "overload", "peak_queue_depth", peak);
        snapshot_resources(reg, node, host.resources(id), end);
    }
    let ctrl = cluster.controller_id() as u32;
    let ms = host
        .node(cluster.controller_id())
        .as_controller()
        .expect("controller role")
        .membership_stats();
    reg.counter_add(ctrl, "membership", "migrations", ms.migrations);
    reg.counter_add(
        ctrl,
        "membership",
        "migrations_aborted",
        ms.migrations_aborted,
    );
    reg.counter_add(ctrl, "membership", "migrated_bytes", ms.migrated_bytes);
    reg.counter_add(ctrl, "membership", "drained_nodes", ms.drained_nodes);
    reg.counter_add(ctrl, "membership", "autoscale_rents", ms.autoscale_rents);
    reg.counter_add(
        ctrl,
        "membership",
        "autoscale_releases",
        ms.autoscale_releases,
    );
    let totals = host.net_totals();
    reg.counter_add(ctrl, "net", "messages", totals.messages);
    reg.counter_add(ctrl, "net", "bytes", totals.bytes);
    reg.counter_add(ctrl, "net", "dropped", totals.dropped);
    reg.counter_add(ctrl, "net", "delayed", totals.delayed);
    // Per-link counts fold onto the receiving node (metric names are
    // static; the link list itself is surfaced via `RunReport`).
    for (&(_, to), ls) in host.link_stats() {
        reg.counter_add(to as u32, "net", "dropped_in", ls.dropped);
        reg.counter_add(to as u32, "net", "delayed_in", ls.delayed);
    }
}

/// Utilization gauge, job counter, and queueing-wait histogram for each of
/// one node's four resources.
fn snapshot_resources(reg: &mut MetricsRegistry, node: u32, res: &NodeResources, end: SimTime) {
    let all = [
        ("cpu", &res.cpu),
        ("disk", &res.disk),
        ("nic_in", &res.nic_in),
        ("nic_out", &res.nic_out),
    ];
    for (scope, r) in all {
        reg.gauge_set(node, scope, "utilization", r.utilization(end));
        reg.counter_add(node, scope, "jobs", r.jobs());
        reg.hist_merge(node, scope, "wait", r.wait_histogram());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::chaos_retry;
    use crate::verify::Expected;
    use jl_core::Strategy;
    use jl_simkit::time::SimDuration;
    use jl_store::{DigestUdf, RowKey, StoredValue, UdfRegistry};
    use jl_workloads::zipf::KeyStream;
    use jl_workloads::SyntheticSpec;

    fn tiny_spec() -> SyntheticSpec {
        SyntheticSpec {
            name: "tiny",
            n_keys: 500,
            value_size: 4096,
            value_prefix: 32,
            udf_cpu: SimDuration::from_millis(2),
            n_tuples: 2_000,
            params_size: 64,
            output_size: 64,
        }
    }

    /// A small healthy batch job: 2,000 single-key tuples over 500 keys at
    /// skew `z` on a 3+3 cluster.
    pub(crate) fn setup(
        strategy: Strategy,
        z: f64,
    ) -> (JobSpec, StoreCluster, UdfRegistry, Vec<JobTuple>) {
        let spec = tiny_spec();
        let cluster = ClusterSpec {
            n_compute: 3,
            n_data: 3,
            ..ClusterSpec::default()
        };
        let mut optimizer = OptimizerConfig::for_strategy(strategy);
        optimizer.batch_size = 16;
        optimizer.mem_cache_bytes = 64 * 4096; // 64 values
        let store = build_store(&cluster, vec![("t".into(), spec.rows(1).collect())]);
        let mut udfs = UdfRegistry::new();
        udfs.register(0, std::sync::Arc::new(DigestUdf { out_bytes: 64 }));
        let plan = JobPlan::single(0, 0);
        let mut rng = jl_simkit::rng::stream_rng(9, "tiny");
        let mut ks = KeyStream::new(spec.n_keys as usize, z, 9);
        let tuples: Vec<JobTuple> = (0..spec.n_tuples)
            .map(|seq| JobTuple {
                seq,
                keys: vec![RowKey::from_u64(ks.next_key(&mut rng))],
                params_size: spec.params_size,
                arrival: jl_simkit::time::SimTime::ZERO,
            })
            .collect();
        let job = JobSpec::new(
            cluster,
            optimizer,
            FeedMode::Batch { window: 64 },
            plan,
            11,
            spec.udf_cpu.as_secs_f64(),
        );
        (job, store, udfs, tuples)
    }

    fn zero_report() -> RunReport {
        RunReport {
            duration: SimDuration::ZERO,
            completed: 0,
            fingerprint: 0,
            decisions: Default::default(),
            cache: Default::default(),
            data: Default::default(),
            net_bytes: 0,
            net_messages: 0,
            sim_events: 0,
            max_data_cpu_util: 0.0,
            mean_data_cpu_util: 0.0,
            retries: 0,
            failovers: 0,
            gave_up: 0,
            dropped_messages: 0,
            delayed_messages: 0,
            link_faults: Vec::new(),
            p99_latency: SimDuration::ZERO,
            shed: 0,
            backpressure_events: 0,
            deadline_misses: 0,
            peak_queue_depth: 0,
            outcomes: Vec::new(),
            migrations: 0,
            migrations_aborted: 0,
            migrated_bytes: 0,
            drained_nodes: 0,
            autoscale_rents: 0,
            autoscale_releases: 0,
            node_seconds: 0.0,
        }
    }

    #[test]
    fn empty_run_throughput_is_zero_not_nan() {
        let r = zero_report();
        assert_eq!(r.throughput(), 0.0);
        let mut r = zero_report();
        r.completed = 100; // tuples but no elapsed time
        assert_eq!(r.throughput(), 0.0);
        assert!(r.throughput().is_finite());
    }

    #[test]
    fn empty_run_skew_is_zero_not_nan() {
        let r = zero_report();
        assert_eq!(r.data_cpu_skew(), 0.0);
        let mut r = zero_report();
        r.max_data_cpu_util = 0.7; // max without mean cannot divide
        assert_eq!(r.data_cpu_skew(), 0.0);
        let mut r = zero_report();
        r.max_data_cpu_util = f64::NAN;
        r.mean_data_cpu_util = f64::NAN;
        assert_eq!(r.data_cpu_skew(), 0.0);
        let mut r = zero_report();
        r.max_data_cpu_util = 0.9;
        r.mean_data_cpu_util = 0.6;
        assert!((r.data_cpu_skew() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn every_strategy_reproduces_the_reference_join() {
        let (job0, store0, udfs0, tuples) = setup(Strategy::Full, 1.0);
        let expected = Expected::new(&store0, &udfs0, &job0.plan, &tuples);
        for strategy in Strategy::all() {
            let (job, store, udfs, tuples) = setup(strategy, 1.0);
            let report = run_job(&job, store, udfs, tuples, vec![]);
            let label = strategy.label();
            expected.check(&report).expect(label);
            assert!(report.outcomes.is_empty(), "{label}");
            assert!(report.duration > SimDuration::ZERO, "{label}");
        }
    }

    /// Every family the runner's metrics snapshot can produce must be in
    /// the exposition vocabulary ([`jl_telemetry::expo::known_family`]) —
    /// this is the test the expo module docs promise, keeping the schema
    /// and the snapshot from drifting apart silently.
    #[test]
    fn snapshot_families_are_all_in_the_expo_vocabulary() {
        let (mut job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
        job.telemetry = Some(TelemetryConfig::default());
        let (_, tel) = run_job_traced(&job, store, udfs, tuples, vec![]);
        let tel = tel.expect("traced run returns telemetry");
        let mut b = jl_telemetry::ExpoBuilder::new();
        b.add_registry(&tel.registry, &tel.processes, tel.end);
        let text = b.render();
        let check = jl_telemetry::validate_exposition(&text)
            .unwrap_or_else(|e| panic!("snapshot produced unknown family: {e}"));
        assert!(check.families > 20, "families = {}", check.families);
        assert!(check.samples > check.families);
    }

    /// Arming the flight ring without the span buffer still yields a
    /// bounded trace of the run's tail, and metrics are unaffected.
    #[test]
    fn flight_only_run_retains_a_bounded_tail() {
        let (mut job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
        job.telemetry = Some(TelemetryConfig::flight_only(256));
        let (report, tel) = run_job_traced(&job, store, udfs, tuples, vec![]);
        let tel = tel.expect("telemetry");
        assert_eq!(tel.events.len(), 0, "span buffer stays off");
        let flight = tel.flight.as_ref().expect("ring armed");
        assert!(
            !flight.is_empty() && flight.len() <= 512,
            "{}",
            flight.len()
        );
        let json = tel.flight_chrome_json().unwrap();
        let check = jl_telemetry::json::validate_chrome_trace(&json).unwrap();
        assert!(check.instants + check.spans > 0);
        // Metrics flow regardless of which event sink is on.
        assert!(report.completed > 0);
        assert!(!tel.registry.is_empty());
        // The ring alone perturbs nothing either: same report as untraced.
        let (job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
        let untraced = run_job(&job, store, udfs, tuples, vec![]);
        assert_eq!(format!("{report:?}"), format!("{untraced:?}"));

        // And with the full buffer on as well, the ring holds a suffix of
        // the buffered trace (same packed bytes, fewer of them).
        let (mut job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
        job.telemetry = Some(TelemetryConfig::with_flight(256));
        let (_, tel) = run_job_traced(&job, store, udfs, tuples, vec![]);
        let tel = tel.unwrap();
        let flight = tel.flight.as_ref().unwrap();
        assert!(tel.events.len() > flight.len(), "ring is the tail only");
        let tail: Vec<_> = tel
            .events
            .iter()
            .skip(tel.events.len() - flight.len())
            .map(|e| (e.node, e.track, e.name, e.start))
            .collect();
        let ring: Vec<_> = flight
            .iter()
            .map(|e| (e.node, e.track, e.name, e.start))
            .collect();
        assert_eq!(tail, ring);
    }

    /// The incremental-snapshot pin: taking [`snapshot_delta`] mid-run
    /// must not reset, reorder, or otherwise perturb any state — the
    /// final metrics JSON (and report) of a run that was snapshotted
    /// mid-way is byte-identical to one that never was.
    #[test]
    fn mid_run_snapshot_delta_does_not_perturb_the_run() {
        let final_metrics = |snapshotted: bool| -> (RunReport, String) {
            let (job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
            let built = build_cluster(&job, store, udfs, tuples, vec![], &None);
            let mut sim = load_host(&job, built, &None);
            if snapshotted {
                // Pause mid-run and scrape — twice, for good measure.
                let mid = sim.run_until(SimTime::ZERO + SimDuration::from_millis(40));
                for _ in 0..2 {
                    let reg = snapshot_delta(&sim, &job.cluster, mid);
                    assert!(!reg.is_empty());
                }
            }
            let end = sim.run();
            let report = gather_report(&sim, &job.cluster, end);
            let reg = snapshot_delta(&sim, &job.cluster, end);
            (report, reg.to_json(end))
        };
        let (ra, sa) = final_metrics(false);
        let (rb, sb) = final_metrics(true);
        assert_eq!(ra.fingerprint, rb.fingerprint);
        assert_eq!(ra.completed, rb.completed);
        assert_eq!(ra.duration, rb.duration);
        assert_eq!(sa, sb, "mid-run snapshots changed the final metrics");
    }

    #[test]
    fn full_optimizer_beats_no_opt_under_skew() {
        let (job_no, store, udfs, tuples) = setup(Strategy::NoOpt, 1.2);
        let t_no = run_job(&job_no, store, udfs, tuples, vec![]).duration;
        let (job_fo, store, udfs, tuples) = setup(Strategy::Full, 1.2);
        let t_fo = run_job(&job_fo, store, udfs, tuples, vec![]).duration;
        assert!(t_fo < t_no, "FO {t_fo} not faster than NO {t_no}");
    }

    #[test]
    fn runs_are_deterministic() {
        let (job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
        let a = run_job(&job, store, udfs, tuples, vec![]);
        let (job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
        let b = run_job(&job, store, udfs, tuples, vec![]);
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.net_bytes, b.net_bytes);
        // `run_job_parallel` is an alias: the same report at any `threads`.
        let (job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
        let c = run_job_parallel(&job, store, udfs, tuples, vec![], 2);
        assert_eq!(format!("{c:?}"), format!("{a:?}"));
    }

    /// The runner-test chaos scenario: crash + failover, a straggler, and
    /// a lossy link, phased against the healthy run's duration. Returns
    /// the job mutated with faults and retry enabled.
    fn chaos_job(
        healthy: &RunReport,
        strategy: Strategy,
    ) -> (JobSpec, StoreCluster, UdfRegistry, Vec<JobTuple>) {
        use jl_simkit::fault::FaultPlan;
        let (mut job, store, udfs, tuples) = setup(strategy, 1.0);
        let d = healthy.duration.as_secs_f64();
        let at = |f: f64| jl_simkit::time::SimTime::ZERO + SimDuration::from_secs_f64(d * f);
        job.faults = Some(
            FaultPlan::new(7)
                .crash(job.cluster.data_id(0), at(0.2), Some(at(0.6)))
                .straggle(job.cluster.data_id(1), (at(0.1), at(0.7)), 4.0)
                .drop_link(None, Some(job.cluster.data_id(2)), (at(0.3), at(0.5)), 0.05),
        );
        job.retry = Some(chaos_retry(healthy.duration));
        (job, store, udfs, tuples)
    }

    #[test]
    fn chaos_run_completes_every_tuple_exactly_once() {
        let (job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
        let expected = Expected::new(&store, &udfs, &job.plan, &tuples);
        let healthy = run_job(&job, store, udfs, tuples, vec![]);
        let (job, store, udfs, tuples) = chaos_job(&healthy, Strategy::Full);
        let chaos = run_job(&job, store, udfs, tuples, vec![]);
        // Exactly-once: timeouts may duplicate work, never completions,
        // and no request exhausts its retries.
        expected.check(&chaos).unwrap();
        assert!(chaos.outcomes.is_empty(), "{:?}", chaos.outcomes);
        // The machinery actually engaged: requests timed out and were
        // re-issued, batches rerouted to the replica, messages were lost.
        assert!(chaos.retries > 0, "crash produced no re-issues");
        assert!(chaos.failovers > 0, "no batch rerouted to the replica");
        assert!(chaos.dropped_messages > 0, "faults dropped no messages");
        assert!(chaos.duration > healthy.duration, "faults were free");
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let (job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
        let healthy = run_job(&job, store, udfs, tuples, vec![]);
        let (job, store, udfs, tuples) = chaos_job(&healthy, Strategy::Full);
        let a = run_job(&job, store, udfs, tuples, vec![]);
        let (job, store, udfs, tuples) = chaos_job(&healthy, Strategy::Full);
        let b = run_job(&job, store, udfs, tuples, vec![]);
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.net_bytes, b.net_bytes);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.failovers, b.failovers);
        assert_eq!(a.dropped_messages, b.dropped_messages);
    }

    /// The completion hook and the outcome log tell one story. Retries
    /// are armed with no second attempt, data node 0 crashes mid-run, and
    /// a deadline budget sheds what stalls past it: every offered tuple
    /// reaches the hook exactly once, the run reconciles against the
    /// reference join, and the hook's `GaveUp` and `Shed` seqs are exactly
    /// the log's.
    #[test]
    fn completion_hook_and_outcome_log_agree() {
        use jl_simkit::fault::FaultPlan;
        use std::cell::RefCell;
        use std::rc::Rc;
        let (job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
        let healthy = run_job(&job, store, udfs, tuples, vec![]);
        let (mut job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
        let expected = Expected::new(&store, &udfs, &job.plan, &tuples);
        let offered = tuples.len() as u64;
        let d = healthy.duration.as_secs_f64();
        let at = |f: f64| SimTime::ZERO + SimDuration::from_secs_f64(d * f);
        job.faults = Some(FaultPlan::new(5).crash(job.cluster.data_id(0), at(0.2), Some(at(0.6))));
        // Timeouts at half the healthy p99, the budget at three quarters
        // of it: a request stalled on the crash gives up, one stalled past
        // its budget (or merely slow) sheds.
        let p99 = healthy.p99_latency.as_secs_f64();
        let t = p99 / 2.0;
        job.retry = Some(RetryConfig {
            timeout: SimDuration::from_secs_f64(t),
            backoff_cap: SimDuration::from_secs_f64(t),
            max_retries: 0,
            down_cooldown: SimDuration::from_secs_f64(4.0 * t),
        });
        job.overload = Some(OverloadConfig {
            deadline: Some(SimDuration::from_secs_f64(p99 * 0.75)),
            ..OverloadConfig::permissive()
        });
        let seen: Rc<RefCell<Vec<(u64, TupleFate)>>> = Rc::default();
        let mut sim = load_host(
            &job,
            build_cluster(&job, store, udfs, tuples, vec![], &None),
            &None,
        );
        for i in 0..job.cluster.n_compute {
            let seen = seen.clone();
            let node = sim.node_mut(job.cluster.compute_id(i)).as_compute_mut();
            node.expect("compute role")
                .set_completion_hook(Box::new(move |seq, fate, _| {
                    seen.borrow_mut().push((seq, fate))
                }));
        }
        let end = sim.run_until(SimTime::MAX);
        let r = gather_report(&sim, &job.cluster, end);
        let mut seen = seen.take();
        seen.sort_unstable_by_key(|&(seq, _)| seq);
        let seqs: Vec<u64> = seen.iter().map(|&(seq, _)| seq).collect();
        assert_eq!(seqs, (0..offered).collect::<Vec<_>>(), "each seq once");
        expected.check(&r).unwrap();
        assert!(
            r.gave_up > 0 && r.shed > 0,
            "gave_up {} shed {}",
            r.gave_up,
            r.shed
        );
        seen.retain(|&(_, fate)| fate != TupleFate::Done);
        assert_eq!(seen, r.outcomes, "hook fates vs outcome log");
        // No request outlives its tuple: every compute node ends holding
        // nothing in flight, no pending local run and no live tuple.
        for i in 0..job.cluster.n_compute {
            let node = sim.node(job.cluster.compute_id(i)).as_compute();
            let held = node.expect("compute role").held();
            assert_eq!(held, (0, 0, 0), "compute {i}: (in flight, local, live)");
        }
    }

    #[test]
    fn permanent_crash_without_retry_config_still_terminates() {
        // Faults with no retry machinery: requests to the dead node are
        // lost and their tuples never finish, but the run must not hang —
        // the batch job simply ends when the event heap drains.
        use jl_simkit::fault::FaultPlan;
        let (mut job, store, udfs, tuples) = setup(Strategy::NoOpt, 1.0);
        job.faults = Some(FaultPlan::new(3).crash(
            job.cluster.data_id(0),
            jl_simkit::time::SimTime(10_000_000),
            None,
        ));
        let r = run_job(&job, store, udfs, tuples, vec![]);
        assert!(
            r.completed < 2_000,
            "a dead node with no retries must lose work"
        );
        assert!(r.dropped_messages > 0);
        assert_eq!(r.retries, 0);
    }

    /// A crash empties the ingest queue, and the queue-depth gauge says
    /// so: data node 0 dies for good with batches still queued, and its
    /// gauge reads 0 from the crash on instead of the pre-crash depth.
    #[test]
    fn a_crash_zeroes_the_queue_depth_gauge() {
        use jl_simkit::fault::FaultPlan;
        let (job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
        let healthy = run_job(&job, store, udfs, tuples, vec![]);
        let (mut job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
        let d = healthy.duration.as_secs_f64();
        let crash_at = SimTime::ZERO + SimDuration::from_secs_f64(d * 0.3);
        job.faults = Some(FaultPlan::new(3).crash(job.cluster.data_id(0), crash_at, None));
        job.retry = Some(chaos_retry(healthy.duration));
        job.overload = Some(OverloadConfig::permissive());
        job.telemetry = Some(TelemetryConfig::default());
        let tel = job.telemetry.map(jl_telemetry::shared);
        let built = build_cluster(&job, store, udfs, tuples, vec![], &tel);
        let mut sim = load_host(&job, built, &tel);
        let end = sim.run_until(SimTime::MAX);
        let node = sim
            .node(job.cluster.data_id(0))
            .as_data()
            .expect("data role");
        let gauge = node
            .queue_gauge()
            .expect("traced overload run samples depth");
        assert!(gauge.peak() > 0.0, "the queue never filled");
        assert_eq!(node.live_queue(), (0, false));
        assert_eq!(gauge.value(), 0.0, "gauge kept the pre-crash depth");
        // Zero from the crash, 30 % of the healthy run's length in, to the
        // end: the time-weighted mean is at most 30 % of the peak.
        let mean = gauge.average(end);
        assert!(
            mean <= 0.3 * gauge.peak(),
            "mean {mean} peak {}",
            gauge.peak()
        );
    }

    /// Validation lives in `build_cluster`, so a caller that assembles
    /// its runtime by hand (the serve layer: `build_cluster` →
    /// `load_host`) cannot skip it.
    #[test]
    #[should_panic(expected = "deadline budget must be positive")]
    fn build_cluster_rejects_an_invalid_plane_config() {
        let (mut job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
        job.overload = Some(OverloadConfig {
            deadline: Some(SimDuration::ZERO),
            ..OverloadConfig::default()
        });
        build_cluster(&job, store, udfs, tuples, vec![], &None);
    }

    /// Backend × telemetry as rows: the chaos scenario (so a trace carries
    /// fault instants, retry/timeout spans, failovers and decision replays
    /// — every journaled-effect path at once) on every backend, untraced
    /// and traced. Every run reconciles against the reference join with no
    /// tuple shed or given up; the simulated backends also agree on the
    /// full report and, traced, on the Chrome-trace and metrics bytes.
    #[test]
    fn every_backend_agrees_traced_and_untraced() {
        let (job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
        let expected = Expected::new(&store, &udfs, &job.plan, &tuples);
        let healthy = run_job(&job, store, udfs, tuples, vec![]);
        let run = |backend: Backend, traced: bool| {
            let (mut job, store, udfs, tuples) = chaos_job(&healthy, Strategy::Full);
            job.telemetry = traced.then(jl_telemetry::TelemetryConfig::default);
            run_job_on(&job, backend, store, udfs, tuples, vec![])
        };
        let (oracle, none) = run(Backend::Sim, false);
        assert!(none.is_none(), "untraced run returned telemetry");
        let (_, oracle_tel) = run(Backend::Sim, true);
        let oracle_tel = oracle_tel.expect("telemetry requested");
        assert!(
            oracle_tel
                .events
                .iter()
                .any(|e| e.track == jl_telemetry::Track::Decision),
            "no placement decisions traced"
        );
        assert!(
            oracle_tel
                .events
                .iter()
                .any(|e| e.track == jl_telemetry::Track::Cpu && e.dur.is_some()),
            "no CPU service spans traced"
        );
        assert!(!oracle_tel.registry.is_empty(), "metrics registry empty");
        let (oracle_trace, oracle_metrics) =
            (oracle_tel.to_chrome_json(), oracle_tel.metrics_json());

        for backend in [Backend::Sim, Backend::Real] {
            for traced in [false, true] {
                let at = format!("{backend:?} traced={traced}");
                let (report, tel) = run(backend, traced);
                assert_eq!(tel.is_some(), traced, "{at}");
                expected.check(&report).expect(&at);
                assert!(report.outcomes.is_empty(), "{at}");
                if backend == Backend::Sim {
                    // Observation must not perturb the simulation.
                    assert_eq!(format!("{report:?}"), format!("{oracle:?}"), "{at}");
                }
                let Some(tel) = tel else { continue };
                let trace = tel.to_chrome_json();
                let check =
                    jl_telemetry::json::validate_chrome_trace(&trace).expect("trace validates");
                assert!(check.spans > 0 && check.metadata > 0, "{at}");
                if backend == Backend::Sim {
                    assert_eq!(tel.events.len(), oracle_tel.events.len(), "{at}");
                    assert_eq!(trace, oracle_trace, "{at}: trace JSON diverged");
                    assert_eq!(tel.metrics_json(), oracle_metrics, "{at}: metrics diverged");
                }
            }
        }
    }

    /// Plane inertness as a table: against the all-`None` run, arm each
    /// plane's do-nothing value one at a time. Every armed run reconciles
    /// against the reference join, nothing shed or given up; the last
    /// column is what the plane's docs promise about the rest of the
    /// report — `None` makes no promise (retry arms a timer per request),
    /// `Some(f)` promises the exact seed event stream once `f` has cleared
    /// the one field the plane exists to measure.
    #[test]
    fn each_planes_do_nothing_value_is_inert() {
        type Arm = fn(&mut JobSpec);
        type Measures = fn(&mut RunReport);
        let table: [(&str, Arm, Option<Measures>); 5] = [
            (
                "faults",
                |j| j.faults = Some(jl_simkit::fault::FaultPlan::new(7)),
                Some(|_| {}),
            ),
            ("retry", |j| j.retry = Some(RetryConfig::default()), None),
            (
                "telemetry",
                |j| j.telemetry = Some(TelemetryConfig::default()),
                Some(|_| {}),
            ),
            (
                "overload",
                |j| j.overload = Some(OverloadConfig::permissive()),
                Some(|r| r.peak_queue_depth = 0),
            ),
            (
                "membership",
                |j| j.membership = Some(MembershipConfig::static_active(j.cluster.n_data)),
                Some(|_| {}),
            ),
        ];
        let (job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
        let expected = Expected::new(&store, &udfs, &job.plan, &tuples);
        let seed = run_job(&job, store, udfs, tuples, vec![]);
        assert_eq!(seed.peak_queue_depth, 0, "the seed's queues are unmeasured");
        for (plane, arm, promise) in table {
            let (mut job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
            arm(&mut job);
            let mut armed = run_job(&job, store, udfs, tuples, vec![]);
            expected.check(&armed).expect(plane);
            assert!(armed.outcomes.is_empty(), "{plane}");
            if let Some(measures) = promise {
                measures(&mut armed);
                assert_eq!(
                    format!("{armed:?}"),
                    format!("{seed:?}"),
                    "{plane}: the event stream moved"
                );
            }
        }
    }

    #[test]
    fn chaos_run_surfaces_per_link_faults() {
        let (job, store, udfs, tuples) = setup(Strategy::Full, 1.0);
        let healthy = run_job(&job, store, udfs, tuples, vec![]);
        assert!(healthy.link_faults.is_empty());
        assert_eq!(healthy.delayed_messages, 0);
        let (job, store, udfs, tuples) = chaos_job(&healthy, Strategy::Full);
        let chaos = run_job(&job, store, udfs, tuples, vec![]);
        assert!(!chaos.link_faults.is_empty(), "no per-link counts");
        let total_dropped: u64 = chaos.link_faults.iter().map(|l| l.2).sum();
        assert_eq!(total_dropped, chaos.dropped_messages);
        // Drops come from two fault sources only: the lossy link into data
        // node 2, and messages to/from data node 0 lost during its crash
        // window. No other link may report drops.
        let lossy = job.cluster.data_id(2);
        let crashed = job.cluster.data_id(0);
        assert!(
            chaos
                .link_faults
                .iter()
                .all(|&(from, to, d, _)| d == 0 || to == lossy || to == crashed || from == crashed),
            "drops charged to an untargeted link: {:?}",
            chaos.link_faults
        );
    }

    #[test]
    fn streaming_mode_reports_throughput() {
        let (mut job, store, udfs, mut tuples) = setup(Strategy::Full, 1.0);
        // Spread arrivals over 2 simulated seconds.
        let gap = SimDuration::from_micros(1000);
        let mut at = jl_simkit::time::SimTime::ZERO;
        for t in &mut tuples {
            at += gap;
            t.arrival = at;
        }
        job.feed = FeedMode::Stream {
            horizon: SimDuration::from_secs(5),
            window: 64,
        };
        let report = run_job(&job, store, udfs, tuples, vec![]);
        assert_eq!(report.completed, 2_000, "stream did not drain");
        assert!(report.throughput() > 0.0);
        // The stream drained before the horizon; duration is the busy span.
        assert!(report.duration <= SimDuration::from_secs(5));
        assert!(
            report.duration >= SimDuration::from_secs(2),
            "arrivals span 2s"
        );
    }

    /// A stream whose input order is the reverse of its arrival order is
    /// fed in arrival order, each tuple still routed by its input index
    /// (pairs share an instant, so ties keep input order): it reconciles
    /// exactly once, repeats byte for byte, and both backends agree.
    #[test]
    fn a_stream_out_of_index_order_reconciles_on_every_backend() {
        let (mut job, store, udfs, mut tuples) = setup(Strategy::Full, 1.0);
        let n = tuples.len() as u64;
        for (i, t) in tuples.iter_mut().enumerate() {
            let pair = (n - i as u64).div_ceil(2);
            t.arrival = jl_simkit::time::SimTime::ZERO + SimDuration::from_micros(250 * pair);
        }
        assert!(!tuples.is_sorted_by_key(|t| t.arrival));
        job.feed = FeedMode::Stream {
            horizon: SimDuration::from_secs(30),
            window: 64,
        };
        let expected = Expected::new(&store, &udfs, &job.plan, &tuples);
        let run = |backend: Backend| {
            let (_, store, udfs, _) = setup(Strategy::Full, 1.0);
            run_job_on(&job, backend, store, udfs, tuples.clone(), vec![]).0
        };
        let sim = run(Backend::Sim);
        expected.check(&sim).expect("Sim");
        assert!(sim.outcomes.is_empty());
        assert_eq!(format!("{:?}", run(Backend::Sim)), format!("{sim:?}"));
        let real = run(Backend::Real);
        expected.check(&real).expect("Real");
        assert!(real.outcomes.is_empty());
        assert_eq!(
            (real.completed, real.fingerprint),
            (sim.completed, sim.fingerprint)
        );
    }

    #[test]
    fn updates_invalidate_caches_mid_run() {
        let (job, store, udfs, tuples) = setup(Strategy::Full, 1.5);
        // Update the hottest keys mid-stream.
        let spec = tiny_spec();
        let updates: Vec<UpdateEvent> = (0..10u64)
            .map(|k| {
                (
                    jl_simkit::time::SimTime(1_000_000 * (k + 1)),
                    0,
                    RowKey::from_u64(k),
                    StoredValue::new(vec![7u8; 32], 0, spec.udf_cpu),
                )
            })
            .collect();
        let report = run_job(&job, store, udfs, tuples, updates);
        // The run still completes every tuple; fingerprint may differ from
        // the static reference because values legitimately changed.
        assert_eq!(report.completed, 2_000);
    }
}
