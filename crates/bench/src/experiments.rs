//! The experiments behind every figure of the paper's evaluation (§9).
//!
//! Each function reproduces one figure and returns a [`FigTable`] holding
//! the same series the paper plots. Sizes default to a laptop-scale
//! configuration (see DESIGN.md for the scaling argument); `tuple_scale`
//! shrinks or grows the input stream for quick runs vs. full fidelity.

use std::collections::HashMap;
use std::sync::Arc;

use rayon::prelude::*;

use jl_core::{AutoscaleMode, OptimizerConfig, Strategy};
use jl_engine::baselines::{run_reduce_side, ReduceSideKind};
use jl_engine::plan::{JobPlan, JobTuple, StageSpec};
use jl_engine::shuffle::run_shuffle_multijoin;
use jl_engine::{
    build_store, build_store_active, chaos_retry, run_job, run_job_on, AutoscaleConfig, Backend,
    ClusterSpec, Expected, FeedMode, JobSpec, MembershipConfig, MembershipEvent, OverloadConfig,
    RunReport,
};
use jl_simkit::fault::FaultPlan;
use jl_simkit::rng::stream_rng;
use jl_simkit::time::{SimDuration, SimTime};
use jl_store::{
    DigestUdf, Partitioning, RegionMap, RowKey, StoreCluster, StoredValue, UdfRegistry,
};
use jl_telemetry::{RunTelemetry, TelemetryConfig};
use jl_workloads::{AnnotationWorkload, Document, SyntheticSpec, TpcDsLite, TweetStream};

use crate::output::FigTable;

/// The UDF id every experiment registers its classification function under.
const UDF: usize = 0;

/// Concurrency window per compute node for a strategy: NO is the paper's
/// naive blocking implementation — one outstanding request per map slot
/// (core) — while batched/prefetched strategies run a deep prefetch
/// window. The window must stay small relative to the per-node input:
/// decisions made while thousands of requests are still in flight learn
/// nothing (no cost feedback, no cached values yet), so a window larger
/// than a few percent of the input forfeits the runtime optimization the
/// framework exists for.
fn window_for(strategy: Strategy, cluster: &ClusterSpec, input_per_node: usize) -> usize {
    if strategy == Strategy::NoOpt {
        cluster.node.cores
    } else {
        (input_per_node / 50).clamp(128, 4096)
    }
}

/// Fan independent experiment cells across the threads of the pool the
/// caller runs in (`figs --threads N` installs one; outside any pool, every
/// core). Each cell is its own deterministic simulation with per-cell
/// seeded RNGs, and the collected output preserves input order, so every
/// figure series is byte-identical regardless of thread count.
///
/// The pool's budget belongs to the calling thread only, so a cell must
/// not call `run_grid` itself: the inner grid would fan out over every
/// core. None does; [`fig9`] runs its grids one after another.
pub fn run_grid<I, O, F>(cells: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync + Send,
{
    cells.into_par_iter().map(f).collect()
}

/// Skew values of §9.3.
pub const SKEWS: [f64; 4] = [0.0, 0.5, 1.0, 1.5];

/// The cluster used by the §9.3 synthetic experiments. The paper's cost
/// model charges `tDisk` at the data node for *every* request (§5:
/// "Regardless of this choice, disk access cost will be incurred at the
/// data node") — its 200 GB store dwarfed server memory — so the
/// region-server block cache is disabled here to reproduce that regime.
fn synthetic_cluster() -> ClusterSpec {
    ClusterSpec {
        block_cache_bytes: 0,
        ..ClusterSpec::default()
    }
}

/// Model store with its giant head models spread one region per key, as
/// HBase's splitter/balancer would do (§3.1's balanced-placement
/// assumption).
fn build_model_store(cluster: &ClusterSpec, w: &AnnotationWorkload) -> StoreCluster {
    let mut store = StoreCluster::new(cluster.n_data);
    let part = Partitioning::head_spread(
        (cluster.n_data as u64) * 16,
        cluster.n_data * cluster.regions_per_node,
        w.vocab as u64,
    );
    let table = store.add_table("models", RegionMap::round_robin(part, cluster.n_data));
    store.bulk_load(table, w.model_rows());
    store
}

/// The single-UDF registry every synthetic experiment runs against: a
/// [`DigestUdf`] emitting `out_bytes` per call, registered under id 0.
pub fn digest_udfs(out_bytes: usize) -> UdfRegistry {
    let mut u = UdfRegistry::new();
    u.register(UDF, Arc::new(DigestUdf { out_bytes }));
    u
}

fn optimizer_for(strategy: Strategy, mem_cache: u64) -> OptimizerConfig {
    let mut cfg = OptimizerConfig::for_strategy(strategy);
    cfg.mem_cache_bytes = mem_cache;
    cfg.batch_size = 64;
    cfg.batch_max_wait = SimDuration::from_millis(5);
    cfg
}

/// `spec` with its input volume scaled by `tuple_scale` (1.0 = figure
/// scale), floored at 1000 tuples so a tiny scale still exercises every
/// node.
pub fn scaled(mut spec: SyntheticSpec, tuple_scale: f64) -> SyntheticSpec {
    spec.n_tuples = ((spec.n_tuples as f64 * tuple_scale) as u64).max(1000);
    spec
}

/// Space the tuples' arrivals: tuple `i` arrives `gap(i)` after tuple
/// `i - 1` (the first one `gap(0)` after time zero).
pub fn pace(tuples: &mut [JobTuple], gap: impl Fn(usize) -> SimDuration) {
    let mut at = SimTime::ZERO;
    for (i, t) in tuples.iter_mut().enumerate() {
        at += gap(i);
        t.arrival = at;
    }
}

/// Everything a synthetic job's run needs, in [`run_job_on`] order.
pub type JobInputs = (JobSpec, StoreCluster, UdfRegistry, Vec<JobTuple>);

/// One synthetic batch job, described by the knobs the figures move.
/// Every synthetic experiment — figure cells, the kernel benchmark, the
/// chaos/overload/elastic scenarios, the ablations, the chaos fuzzer — is
/// this descriptor plus, at most, a few edits to the [`JobSpec`] it builds.
#[derive(Clone)]
pub struct SyntheticCell {
    /// Store and input-stream shape.
    pub spec: SyntheticSpec,
    /// Placement strategy (also picks the issue window, see `window_for`).
    pub strategy: Strategy,
    /// Zipf skew of the key stream.
    pub z: f64,
    /// How many times the hot set shifts over the run (1 = static).
    pub shift_epochs: u64,
    /// Freeze the cache after this fraction of each compute node's input
    /// (Figure 9's non-adaptive baseline); `None` keeps adapting.
    pub freeze_frac: Option<f64>,
    /// Cluster topology and hardware.
    pub cluster: ClusterSpec,
    /// Compute-side memory cache, bytes.
    pub mem_cache: u64,
    /// Root seed for the input stream and the run.
    pub seed: u64,
    /// Recorder configuration; `None` (what every figure runs) records
    /// nothing. The recorder never perturbs the run (the runner's tests
    /// pin report equality).
    pub telemetry: Option<TelemetryConfig>,
}

impl SyntheticCell {
    /// The figure-standard cell for `spec` at skew `z`: full optimizer,
    /// static hot set, the §9.3 cluster, a 32 MB cache, tracing off.
    pub fn new(spec: SyntheticSpec, z: f64, seed: u64) -> Self {
        SyntheticCell {
            spec,
            strategy: Strategy::Full,
            z,
            shift_epochs: 1,
            freeze_frac: None,
            cluster: synthetic_cluster(),
            mem_cache: 32 << 20,
            seed,
            telemetry: None,
        }
    }

    /// The cell's job and inputs, every data node owning regions.
    pub fn build(&self) -> JobInputs {
        self.build_on(self.cluster.n_data)
    }

    /// [`build`](Self::build) with the store's regions placed on the first
    /// `active` data nodes only (the layout an elastic run starts from).
    pub fn build_on(&self, active: usize) -> JobInputs {
        let (spec, cluster) = (&self.spec, &self.cluster);
        let rows = vec![(spec.name.into(), spec.rows(1).collect())];
        let store = build_store_active(cluster, rows, active);
        let mut rng = stream_rng(self.seed, "tuples");
        // Single-key tuples, all arriving at time zero (streaming
        // experiments re-pace them).
        let tuples: Vec<JobTuple> = spec
            .tuples(self.z, self.shift_epochs, &mut rng, self.seed)
            .into_iter()
            .map(|t| JobTuple {
                seq: t.seq,
                keys: vec![RowKey::from_u64(t.key)],
                params_size: t.params_size,
                arrival: SimTime::ZERO,
            })
            .collect();
        let per_node = tuples.len() / cluster.n_compute;
        let mut optimizer = optimizer_for(self.strategy, self.mem_cache);
        // The freeze counter is per compute node.
        optimizer.freeze_cache_after = self
            .freeze_frac
            .map(|f| (tuples.len() as f64 / cluster.n_compute as f64 * f) as u64);
        let job = JobSpec {
            telemetry: self.telemetry,
            ..JobSpec::new(
                cluster.clone(),
                optimizer,
                FeedMode::Batch {
                    window: window_for(self.strategy, cluster, per_node),
                },
                JobPlan::single(0, UDF),
                self.seed,
                spec.udf_cpu.as_secs_f64(),
            )
        };
        (job, store, digest_udfs(spec.output_size as usize), tuples)
    }

    /// Run the cell on `backend`: the identical job on the simulated
    /// clock or the wall clock — join results match across both (the
    /// parity suites pin it).
    pub fn run(&self, backend: Backend) -> (RunReport, Option<RunTelemetry>) {
        let (job, store, udfs, tuples) = self.build();
        run_job_on(&job, backend, store, udfs, tuples, vec![])
    }

    /// The exactly-once oracle for the cell's job: its reference join,
    /// against which [`Expected::check`] reconciles a drained run.
    pub fn expected(&self) -> Expected {
        let (job, store, udfs, tuples) = self.build();
        Expected::new(&store, &udfs, &job.plan, &tuples)
    }

    /// Simulated seconds the cell takes on the simulation kernel.
    fn sim_secs(&self) -> f64 {
        self.run(Backend::Sim).0.duration.as_secs_f64()
    }
}

/// The named synthetic spec ("DH" / "CH" / "DCH") as a figure-standard
/// cell at z = 1.0 — the pinned cell the chaos / overload figures and the
/// determinism and parity suites run. `tuple_scale` scales the input
/// volume (1.0 = figure scale). Arm `telemetry` and pick a [`Backend`] on
/// the returned cell.
pub fn bench_cell(spec_name: &str, tuple_scale: f64, seed: u64) -> SyntheticCell {
    let spec = match spec_name {
        "DH" => SyntheticSpec::dh(),
        "CH" => SyntheticSpec::ch(),
        "DCH" => SyntheticSpec::dch(),
        other => panic!("unknown bench workload {other:?} (expected DH, CH or DCH)"),
    };
    SyntheticCell::new(scaled(spec, tuple_scale), 1.0, seed)
}

/// The small stream workload of `fuzz_chaos` and the overload suite:
/// cheap enough that a per-tuple reference pass over every tuple stays
/// fast, with value fetches and UDF cost big enough to congest a
/// 4+4-node cluster at load > 1.
pub fn fuzz_spec(n_tuples: u64) -> SyntheticSpec {
    SyntheticSpec {
        name: "DH",
        n_keys: 2000,
        value_size: 16 * 1024,
        value_prefix: 64,
        udf_cpu: SimDuration::from_micros(120),
        n_tuples,
        params_size: 128,
        output_size: 256,
    }
}

/// The job shape the [`ablations`](crate::ablations) share: `cell`'s
/// inputs, but the optimizer at its library defaults (only the cache size
/// set) under a fixed 256-tuple window, so a sweep moves exactly the knob
/// it names.
pub fn ablation_inputs(cell: &SyntheticCell) -> JobInputs {
    let (mut job, store, udfs, tuples) = cell.build();
    job.optimizer = OptimizerConfig::for_strategy(cell.strategy);
    job.optimizer.mem_cache_bytes = cell.mem_cache;
    job.feed = FeedMode::Batch { window: 256 };
    (job, store, udfs, tuples)
}

/// The §9.3 skew grid shared by Figures 8 and 11: `metric` of every
/// `strategies` cell at every skew of [`SKEWS`], normalized by NO at z = 0,
/// one row per skew.
fn skew_grid(
    spec: &SyntheticSpec,
    tuple_scale: f64,
    seed: u64,
    strategies: &[Strategy],
    title: String,
    metric: fn(&SyntheticCell) -> f64,
) -> FigTable {
    let spec = scaled(spec.clone(), tuple_scale);
    let cell = |z: f64, strategy: Strategy| SyntheticCell {
        strategy,
        ..SyntheticCell::new(spec.clone(), z, seed)
    };
    let base = metric(&cell(0.0, Strategy::NoOpt));
    let points: Vec<(f64, Strategy)> = SKEWS
        .iter()
        .flat_map(|&z| strategies.iter().map(move |&s| (z, s)))
        .collect();
    let vals = run_grid(points, |(z, s)| metric(&cell(z, s)) / base);
    FigTable {
        title,
        row_label: "skew z".into(),
        columns: strategies.iter().map(|s| s.label().to_string()).collect(),
        rows: SKEWS
            .iter()
            .zip(vals.chunks(strategies.len()))
            .map(|(z, row)| (format!("{z}"), row.to_vec()))
            .collect(),
    }
}

/// Figure 8 (a: DH, b: CH, c: DCH): Hadoop-mode synthetic workloads,
/// normalized time vs skew for NO/FC/FD/FR/CO/LO/FO.
pub fn fig8(spec: &SyntheticSpec, tuple_scale: f64, seed: u64) -> FigTable {
    let title = format!(
        "Figure 8 ({}) — Hadoop synthetic workload, normalized time (NO @ z=0 = 1)",
        spec.name
    );
    skew_grid(
        spec,
        tuple_scale,
        seed,
        &Strategy::all(),
        title,
        SyntheticCell::sim_secs,
    )
}

/// Figure 9: ratio of non-adaptive to adaptive (FO) time under a shifting
/// key distribution (hot set changes 10× per run).
pub fn fig9(tuple_scale: f64, seed: u64) -> FigTable {
    let mut rows: Vec<(String, Vec<f64>)> =
        SKEWS.iter().map(|z| (format!("{z}"), Vec::new())).collect();
    let specs = [
        SyntheticSpec::dh(),
        SyntheticSpec::dch(),
        SyntheticSpec::ch(),
    ];
    for spec in &specs {
        let spec = scaled(spec.clone(), tuple_scale);
        let ratios = run_grid(SKEWS.to_vec(), |z| {
            let adaptive = SyntheticCell {
                shift_epochs: 10,
                ..SyntheticCell::new(spec.clone(), z, seed)
            };
            let frozen = SyntheticCell {
                freeze_frac: Some(0.1),
                ..adaptive.clone()
            };
            frozen.sim_secs() / adaptive.sim_secs()
        });
        for (zi, r) in ratios.into_iter().enumerate() {
            rows[zi].1.push(r);
        }
    }
    FigTable {
        title: "Figure 9 — non-adaptive / adaptive time ratio, shifting hot keys".into(),
        row_label: "skew z".into(),
        columns: specs.iter().map(|s| s.name.to_string()).collect(),
        rows,
    }
}

/// Streaming strategies shown in Figures 6 and 11.
pub const STREAM_STRATEGIES: [Strategy; 5] = [
    Strategy::NoOpt,
    Strategy::ComputeSide,
    Strategy::DataSide,
    Strategy::Random,
    Strategy::Full,
];

/// Run `cell` as a saturating stream and return its throughput
/// (tuples/s).
fn stream_throughput(cell: &SyntheticCell) -> f64 {
    let (mut job, store, udfs, mut tuples) = cell.build();
    // Offered load: arrivals spread thinly enough to be schedulable but
    // fast enough to keep every strategy saturated (drain throughput).
    pace(&mut tuples, |_| SimDuration::from_micros(20));
    job.feed = FeedMode::Stream {
        horizon: SimDuration::from_secs(100_000),
        window: window_for(cell.strategy, &cell.cluster, 256 * 50),
    };
    run_job(&job, store, udfs, tuples, vec![]).throughput()
}

/// Figure 11 (a: DH, b: CH, c: DCH): Muppet-mode synthetic workloads,
/// normalized throughput vs skew for NO/FC/FD/FR/FO.
pub fn fig11(spec: &SyntheticSpec, tuple_scale: f64, seed: u64) -> FigTable {
    let title = format!(
        "Figure 11 ({}) — Muppet synthetic workload, normalized throughput (NO @ z=0 = 1)",
        spec.name
    );
    skew_grid(
        spec,
        tuple_scale,
        seed,
        &STREAM_STRATEGIES,
        title,
        stream_throughput,
    )
}

/// One tuple per entity spot of each `(arrival, document)`, numbered in
/// order; a spot arrives with its document.
fn spot_tuples(docs: impl IntoIterator<Item = (SimTime, Document)>) -> Vec<JobTuple> {
    docs.into_iter()
        .flat_map(|(arrival, doc)| doc.spots.into_iter().map(move |spot| (arrival, spot)))
        .enumerate()
        .map(|(seq, (arrival, spot))| JobTuple {
            seq: seq as u64,
            keys: vec![RowKey::from_u64(spot.token)],
            params_size: spot.context_size,
            arrival,
        })
        .collect()
}

/// Figure 5: entity annotation on the ClueWeb-shaped corpus — total time
/// (minutes) for Hadoop / CSAW / FlowJoinLB / NO / FC / FD / FR / FO.
pub fn fig5(doc_scale: f64, seed: u64) -> FigTable {
    let mut w = AnnotationWorkload::scaled_default(seed);
    w.docs = ((w.docs as f64 * doc_scale) as u64).max(100);
    let cluster = ClusterSpec::default();
    let tuples = spot_tuples(w.documents().into_iter().map(|doc| (SimTime::ZERO, doc)));
    let udfs = digest_udfs(96);
    let plan = JobPlan::single(0, UDF);
    let rows_map: HashMap<RowKey, StoredValue> = w.model_rows().collect();

    // One grid cell per system: reduce-side baselines and framework
    // strategies fan out together (each builds its own store, so cells are
    // independent).
    enum Cell {
        Reduce(ReduceSideKind),
        Framework(Strategy),
    }
    // Reduce-side systems get the full 20 nodes (as in the paper).
    // CSAW replicates models whose total (frequency × classification) work
    // exceeds the mean per-reducer load; Flow-Join replicates keys above a
    // frequency threshold (2% of the input) regardless of UDF cost. Keys
    // just under the thresholds still hash-collide — the residual reducer
    // skew the paper observed in both systems.
    let cells: Vec<Cell> = [
        ReduceSideKind::Naive,
        ReduceSideKind::Csaw { threshold: 1.0 },
        ReduceSideKind::FlowJoinLb { threshold: 0.02 },
    ]
    .into_iter()
    .map(Cell::Reduce)
    .chain(
        // Framework strategies: 10 compute + 10 data nodes.
        [
            Strategy::NoOpt,
            Strategy::ComputeSide,
            Strategy::DataSide,
            Strategy::Random,
            Strategy::Full,
        ]
        .into_iter()
        .map(Cell::Framework),
    )
    .collect();
    let results = run_grid(cells, |cell| match cell {
        Cell::Reduce(kind) => {
            let r = run_reduce_side(kind, &cluster, &rows_map, &udfs, &plan, &tuples);
            (kind.label().to_string(), r.duration.as_secs_f64() / 60.0)
        }
        Cell::Framework(strategy) => {
            let store = build_model_store(&cluster, &w);
            let job = JobSpec::new(
                cluster.clone(),
                // 10 MB: the paper's 100 MB cache scaled 1:10 with the
                // models, so the biggest models exceed the memory cache as
                // they do in the paper.
                optimizer_for(strategy, 10 << 20),
                FeedMode::Batch {
                    window: window_for(strategy, &cluster, tuples.len() / cluster.n_compute),
                },
                Arc::clone(&plan),
                seed,
                0.002,
            );
            let r = run_job(&job, store, udfs.clone(), tuples.clone(), vec![]);
            (
                strategy.label().to_string(),
                r.duration.as_secs_f64() / 60.0,
            )
        }
    });
    let (columns, vals): (Vec<String>, Vec<f64>) = results.into_iter().unzip();
    FigTable {
        title: "Figure 5 — ClueWeb-shaped entity annotation, total time (minutes)".into(),
        row_label: "".into(),
        columns,
        rows: vec![("time".into(), vals)],
    }
}

/// Figure 6 inputs: the annotation workload, one tuple per tweet spot (at
/// the tweet's arrival time), and the mean spots per annotatable tweet.
fn fig6_inputs(tweet_scale: f64, seed: u64) -> (AnnotationWorkload, Vec<JobTuple>, f64) {
    let mut stream = TweetStream::scaled_default(seed);
    stream.count = ((stream.count as f64 * tweet_scale) as u64).max(10_000);
    stream.rate_per_sec = 50_000.0; // saturating offered load
    let w = AnnotationWorkload::scaled_default(seed);
    let tweets = stream.generate();
    let annotatable_tweets = tweets
        .iter()
        .filter(|(_, doc)| !doc.spots.is_empty())
        .count();
    let tuples = spot_tuples(tweets);
    let spots_per_tweet = tuples.len() as f64 / annotatable_tweets.max(1) as f64;
    (w, tuples, spots_per_tweet)
}

/// Run one fig6-style streaming annotation job for a single strategy.
fn fig6_run(
    w: &AnnotationWorkload,
    tuples: &[JobTuple],
    strategy: Strategy,
    seed: u64,
) -> RunReport {
    let cluster = ClusterSpec::default();
    let store = build_model_store(&cluster, w);
    let job = JobSpec::new(
        cluster.clone(),
        optimizer_for(strategy, 100 << 20),
        FeedMode::Stream {
            horizon: SimDuration::from_secs(100_000),
            window: window_for(strategy, &cluster, 256 * 50),
        },
        JobPlan::single(0, UDF),
        seed,
        0.002,
    );
    run_job(&job, store, digest_udfs(96), tuples.to_vec(), vec![])
}

/// One pinned fig6 streaming cell for the bench harness: the run's
/// [`RunReport`] plus the spots-per-tweet normalizer.
pub fn fig6_stream_report(tweet_scale: f64, seed: u64, strategy: Strategy) -> (RunReport, f64) {
    let (w, tuples, spots_per_tweet) = fig6_inputs(tweet_scale, seed);
    (fig6_run(&w, &tuples, strategy, seed), spots_per_tweet)
}

/// Figure 6: Twitter-stream entity annotation — tweets annotated per second
/// for NO / FC / FD / FR / FO.
pub fn fig6(tweet_scale: f64, seed: u64) -> FigTable {
    let (w, tuples, spots_per_tweet) = fig6_inputs(tweet_scale, seed);
    let results = run_grid(STREAM_STRATEGIES.to_vec(), |strategy| {
        let r = fig6_run(&w, &tuples, strategy, seed);
        (
            strategy.label().to_string(),
            r.throughput() / spots_per_tweet,
        )
    });
    let (columns, vals): (Vec<String>, Vec<f64>) = results.into_iter().unzip();
    FigTable {
        title: "Figure 6 — Twitter entity annotation on the streaming engine, tweets/second".into(),
        row_label: "".into(),
        columns,
        rows: vec![("tweets/s".into(), vals)],
    }
}

/// Strategies compared on the chaos figure: the naive baseline, the
/// compute-side static placement, and the full optimizer. The fixed
/// placements ignore node health, so the gap under faults isolates what
/// the decision plane's health signal buys.
pub const CHAOS_STRATEGIES: [Strategy; 3] =
    [Strategy::NoOpt, Strategy::ComputeSide, Strategy::Full];

/// The chaos scenario, phased against a fault-free baseline duration so
/// the same *relative* timeline stresses fast and slow strategies alike:
///
/// * data node 0 crashes at 20% of the baseline and restarts at 55%
///   (in-flight work on it is lost; its regions fail over to a replica);
/// * data node 1 runs 4× slow between 10% and 70% (a straggler);
/// * every message into data node 2 is dropped with probability 3%
///   between 30% and 50% (a lossy link);
/// * every message into data node 2 arrives 5 ms late between 50% and 70%
///   (a congested link — right after its lossy window, so the same
///   traffic sees both failure modes).
pub fn chaos_fault_plan(cluster: &ClusterSpec, baseline: SimDuration, seed: u64) -> FaultPlan {
    assert!(
        cluster.n_data >= 3,
        "the chaos scenario faults three distinct data nodes"
    );
    let at = |f: f64| SimTime::ZERO + SimDuration::from_secs_f64(baseline.as_secs_f64() * f);
    FaultPlan::new(seed)
        .crash(cluster.data_id(0), at(0.20), Some(at(0.55)))
        .straggle(cluster.data_id(1), (at(0.10), at(0.70)), 4.0)
        .drop_link(None, Some(cluster.data_id(2)), (at(0.30), at(0.50)), 0.03)
        .delay_link(
            None,
            Some(cluster.data_id(2)),
            (at(0.50), at(0.70)),
            SimDuration::from_millis(5),
        )
}

/// Run one synthetic chaos cell: first a fault-free, untraced run of
/// `cell` (its duration calibrates the fault plan's timeline and the
/// retry timeouts), then the same job under injected faults with
/// timeout/retry/failover enabled — recording telemetry if the cell asks
/// for it. Both runs are reconciled against the cell's reference join
/// ([`Expected::check`]); a violation panics, naming the rule.
/// Returns `(healthy, chaos, chaos telemetry)`.
///
/// `churn` layers membership churn over the faults: the fleet starts two
/// nodes short, the two standbys join at 25% and 45% of the fault-free
/// baseline, and a mid-fleet node is gracefully decommissioned at 65% — so
/// live migrations race the crash, the straggler, and the lossy link. The
/// healthy calibration run stays static.
pub fn run_chaos_report(
    cell: &SyntheticCell,
    churn: bool,
) -> (RunReport, RunReport, Option<RunTelemetry>) {
    let untraced = SyntheticCell {
        telemetry: None,
        ..cell.clone()
    };
    let (job, store, udfs, tuples) = untraced.build();
    let expected = Expected::new(&store, &udfs, &job.plan, &tuples);
    let healthy = run_job(&job, store, udfs, tuples, vec![]);
    let n_data = cell.cluster.n_data;
    let active = if churn { n_data - 2 } else { n_data };
    let (mut job, store, udfs, tuples) = cell.build_on(active);
    let retry = chaos_retry(healthy.duration);
    let at = |f: f64| SimDuration::from_secs_f64(healthy.duration.as_secs_f64() * f);
    job.membership = churn.then(|| MembershipConfig {
        migration_timeout: retry.timeout,
        events: vec![
            (at(0.25), MembershipEvent::Join(active)),
            (at(0.45), MembershipEvent::Join(active + 1)),
            // Node 3 is none of the faulted nodes (0 crashes, 1 straggles,
            // 2 sits behind the bad link); its drain lands after node 0 has
            // restarted, so the decommission has somewhere healthy to go.
            (at(0.65), MembershipEvent::Decommission(3)),
        ],
        ..MembershipConfig::static_active(active)
    });
    job.faults = Some(chaos_fault_plan(&cell.cluster, healthy.duration, cell.seed));
    job.retry = Some(retry);
    let (chaos, tel) = run_job_on(&job, Backend::Sim, store, udfs, tuples, vec![]);
    for (run, r) in [("healthy", &healthy), ("chaos", &chaos)] {
        if let Err(e) = expected.check(r) {
            panic!("{} {run} run (churn={churn}): {e}", cell.strategy.label());
        }
    }
    (healthy, chaos, tel)
}

/// The canonical traced run for trace export: the DH workload at z = 1.0
/// under the chaos scenario with the full optimizer, recording with
/// `telemetry`. It exercises every span source at once — per-node
/// resource tracks, request lifecycles, placement decisions, cache
/// activity, and the crash/straggler/lossy-link fault path with its
/// retries and failovers. One single simulation cell, so its trace is
/// byte-identical at any `--threads` count, flight ring armed or not (the
/// determinism suite pins both).
pub fn traced_chaos_run(
    tuple_scale: f64,
    seed: u64,
    telemetry: TelemetryConfig,
) -> (RunReport, RunTelemetry) {
    let cell = SyntheticCell {
        telemetry: Some(telemetry),
        ..bench_cell("DH", tuple_scale, seed)
    };
    let (_healthy, chaos, tel) = run_chaos_report(&cell, false);
    (chaos, tel.expect("telemetry was requested"))
}

/// The chaos figure: the DH workload at z = 1.0 under the
/// crash/straggler/lossy-link scenario, per strategy — healthy vs chaos
/// time, the slowdown ratio, tail latency, and the recovery counters —
/// plus a full-optimizer row with membership churn layered on top of the
/// same faults (live migrations and a graceful drain racing the chaos),
/// whose migration counters populate the last three columns.
pub fn fig_chaos(tuple_scale: f64, seed: u64) -> FigTable {
    let full = bench_cell("DH", tuple_scale, seed);
    let cells: Vec<(Strategy, bool)> = CHAOS_STRATEGIES
        .iter()
        .map(|&strategy| (strategy, false))
        .chain([(Strategy::Full, true)]) // the churn overlay row
        .collect();
    let rows = run_grid(cells, |(strategy, churn)| {
        let cell = SyntheticCell {
            strategy,
            ..full.clone()
        };
        let (healthy, chaos, _) = run_chaos_report(&cell, churn);
        let label = format!("{}{}", strategy.label(), if churn { "+churn" } else { "" });
        let slowdown = if healthy.duration.as_secs_f64() > 0.0 {
            chaos.duration.as_secs_f64() / healthy.duration.as_secs_f64()
        } else {
            0.0
        };
        // The per-link breakdown localizes the damage: under this scenario
        // the worst link is the lossy one into data node 2 (plus whatever
        // was in flight to/from the crashed node 0).
        let worst_link = chaos.link_faults.iter().map(|&(_, _, d, _)| d).max();
        (
            label,
            vec![
                healthy.duration.as_secs_f64(),
                chaos.duration.as_secs_f64(),
                slowdown,
                chaos.p99_latency.as_secs_f64() * 1e3,
                chaos.retries as f64,
                chaos.failovers as f64,
                // Disambiguated outcomes: "gave up" exhausted retries and
                // completed empty; "shed" was dropped by overload
                // protection (always 0 here — chaos runs carry no
                // OverloadConfig — the column keeps the two from being
                // conflated when fig_overload is read side by side).
                chaos.gave_up as f64,
                chaos.shed as f64,
                chaos.dropped_messages as f64,
                chaos.delayed_messages as f64,
                worst_link.unwrap_or(0) as f64,
                // Membership counters: zero on the static strategy rows,
                // live on the churn overlay.
                chaos.migrations as f64,
                chaos.migrations_aborted as f64,
                chaos.drained_nodes as f64,
            ],
        )
    });
    FigTable {
        title: "Chaos — DH @ z=1.0 under crash + straggler + lossy link".into(),
        row_label: "strategy".into(),
        columns: vec![
            "healthy s".into(),
            "chaos s".into(),
            "slowdown".into(),
            "p99 ms".into(),
            "retries".into(),
            "failovers".into(),
            "gave up".into(),
            "shed".into(),
            "dropped".into(),
            "delayed".into(),
            "worst link".into(),
            "migrations".into(),
            "aborted".into(),
            "drained".into(),
        ],
        rows,
    }
}

/// One cell of the overload grid: its table row label, whether it ran the
/// bounded protection or the naive (measure-only) baseline, whether the
/// offered load was nominal or overload, the bounded config's data-queue
/// cap, the full run report and its exactly-once verdict.
pub struct OverloadCell {
    /// Row label, e.g. `z=1.2 2.0x bounded`.
    pub label: String,
    /// `true` = bounded overload protection; `false` = naive baseline
    /// ([`OverloadConfig::permissive`]: byte-identical to the seed's
    /// unbounded queues, but measures their depth).
    pub bounded: bool,
    /// `true` = offered load under capacity (no protection should fire).
    pub nominal: bool,
    /// `data_queue_cap` of the bounded config (also set on the naive cell
    /// for reference; its own cap is effectively unbounded).
    pub cap: u64,
    /// The cell's run report.
    pub report: RunReport,
    /// [`Expected::check`] of the report against the cell's reference join,
    /// or a cut-at-horizon error if the run did not drain before its horizon.
    pub exactly_once: Result<(), String>,
}

/// The bounded overload configuration the figure (and the smoke test)
/// runs: data-queue cap with 1/2 and 1/4 watermarks, a compute-side
/// ingest cap scaled to the per-node input, deadline-aware shedding.
pub fn overload_bounded_config(
    per_node_input: usize,
    deadline: Option<SimDuration>,
) -> OverloadConfig {
    let cap = 256u64;
    OverloadConfig {
        data_queue_cap: cap,
        high_watermark: cap / 2,
        low_watermark: cap / 4,
        compute_queue_cap: (per_node_input / 8).clamp(64, 4096),
        deadline,
        nack_backoff: SimDuration::from_millis(2),
        shed: jl_core::ShedMode::DeadlineAware,
    }
}

/// Run one overload stream cell: `cell`'s workload offered at a fixed
/// inter-arrival `gap`, truncated at `horizon`, with the given overload
/// protection.
pub fn run_overload_stream(
    cell: &SyntheticCell,
    gap: SimDuration,
    horizon: SimDuration,
    overload: Option<OverloadConfig>,
) -> RunReport {
    let (mut job, store, udfs, mut tuples) = cell.build();
    pace(&mut tuples, |_| gap);
    // A small issue window (4 in-flight tuples per core) is the admission
    // throttle: under overload the excess accumulates in the compute
    // node's ingest queue — where deadlines age out and the shed policy
    // picks victims — instead of being strewn across thousands of
    // in-flight requests nothing can revoke.
    let window = cell.cluster.node.cores * 4;
    job.feed = FeedMode::Stream { horizon, window };
    job.overload = overload;
    run_job(&job, store, udfs, tuples, vec![])
}

/// Fewest tuples an overload cell runs (the `--scale 0.05` size). Below
/// ~2,500 the 2.0× bounded cells may never fill the 256-deep data queue
/// or age a tuple past the deadline, so protection never engages and the
/// figure's invariants cannot hold; the generic 1,000-tuple floor of
/// [`scaled`] is too small for this figure.
const OVERLOAD_MIN_TUPLES: u64 = 3_000;

/// The overload figure: offered load (0.5× and 2.0× the measured drain
/// capacity) × skew (z = 0.0 and 1.2), naive unbounded queues (the seed
/// behavior, instrumented via [`OverloadConfig::permissive`]) vs bounded
/// queues + backpressure + deadline-aware shedding. The claim it records:
/// under overload the naive queue grows with the run while the bounded
/// cells keep peak depth ≤ cap and p99 near the deadline budget, shedding
/// the excess instead of stalling everything.
pub fn fig_overload(tuple_scale: f64, seed: u64) -> (FigTable, Vec<OverloadCell>) {
    let cell_at = |z: f64| {
        let mut cell = SyntheticCell {
            z,
            ..bench_cell("DH", tuple_scale, seed)
        };
        cell.spec.n_tuples = cell.spec.n_tuples.max(OVERLOAD_MIN_TUPLES);
        cell
    };
    let uniform = cell_at(0.0);
    let n_tuples = uniform.spec.n_tuples;
    let per_node = n_tuples as usize / uniform.cluster.n_compute;
    let long = SimDuration::from_secs(100_000);

    // Calibration 1 — drain capacity: a firehose stream (1 µs
    // inter-arrival, far past any plausible capacity) measures the
    // cluster's true service rate µ as completed/duration; the grid's
    // load factors are relative to it.
    let firehose = SimDuration::from_micros(1);
    let mu = run_overload_stream(&uniform, firehose, long, None)
        .throughput()
        .max(1.0);
    // Calibration 2 — deadline budget: nominal load (0.5×), no protection;
    // the budget is 2× that run's p99 — comfortably above anything a
    // healthy cell produces, while an overloaded ingest queue (whose wait
    // grows linearly with the run, topping out near span/4 at 2× load)
    // blows through it well before the arrivals end.
    let nominal_gap = SimDuration::from_secs_f64(2.0 / mu);
    let span = |gap: SimDuration| SimDuration(gap.0 * n_tuples);
    let nominal = run_overload_stream(&uniform, nominal_gap, long, None);
    let deadline = SimDuration::from_secs_f64(nominal.p99_latency.as_secs_f64().max(1e-3) * 2.0);
    let bounded_cfg = overload_bounded_config(per_node, Some(deadline));

    let skews = [0.0, 1.2];
    // One oracle per skew: offered load and protection change no output.
    let expected = skews.map(|z| cell_at(z).expected());
    let cells: Vec<(usize, f64, bool)> = (0..skews.len())
        .flat_map(|i| {
            [(0.5, false), (0.5, true), (2.0, false), (2.0, true)]
                .into_iter()
                .map(move |(load, bounded)| (i, load, bounded))
        })
        .collect();
    let results = run_grid(cells, |(i, load, bounded)| {
        let z = skews[i];
        let gap = SimDuration::from_secs_f64(1.0 / (mu * load));
        // The horizon runs to 2.5× the arrival span: a 2× offered load
        // needs ~2× the span to drain, so the naive cell gets to finish
        // its bloated queue — and its p99 swallows the full backlog wait —
        // while the bounded cell sheds the doomed tail instead.
        let horizon = SimDuration((span(gap).0 as f64 * 2.5) as u64);
        let overload = if bounded {
            bounded_cfg
        } else {
            OverloadConfig::permissive()
        };
        let report = run_overload_stream(&cell_at(z), gap, horizon, Some(overload));
        OverloadCell {
            label: format!(
                "z={z} {load:.1}x {}",
                if bounded { "bounded" } else { "naive" }
            ),
            bounded,
            nominal: load < 1.0,
            cap: bounded_cfg.data_queue_cap,
            // A cell cut at its horizon is outside the oracle's scope:
            // its unfinished tuples are neither completed nor shed, so it
            // is named as cut rather than reported as losing them.
            exactly_once: if report.duration < horizon {
                expected[i].check(&report)
            } else {
                Err(format!("cut at its {horizon} horizon before draining"))
            },
            report,
        }
    });

    let rows = results
        .iter()
        .map(|c| {
            let r = &c.report;
            (
                c.label.clone(),
                vec![
                    r.throughput(),
                    r.p99_latency.as_secs_f64() * 1e3,
                    r.completed as f64,
                    r.shed as f64,
                    r.deadline_misses as f64,
                    r.peak_queue_depth as f64,
                    r.backpressure_events as f64,
                ],
            )
        })
        .collect();
    let table = FigTable {
        title: format!(
            "Overload — DH stream, load x skew, naive vs bounded (cap={}, deadline={:.1}ms)",
            bounded_cfg.data_queue_cap,
            deadline.as_secs_f64() * 1e3
        ),
        row_label: "cell".into(),
        columns: vec![
            "goodput/s".into(),
            "p99 ms".into(),
            "completed".into(),
            "shed".into(),
            "misses".into(),
            "peak queue".into(),
            "bp events".into(),
        ],
        rows,
    };
    (table, results)
}

impl OverloadCell {
    /// The grep-friendly `OVERLOAD <cell> ...` line `figs overload` prints
    /// per cell (CI's smoke job reads them).
    pub fn line(&self) -> String {
        let r = &self.report;
        format!(
            "OVERLOAD {} bounded={} nominal={} goodput={:.1} p99_ms={:.3} completed={} shed={} \
             misses={} peak_queue={} cap={} bp_events={}",
            self.label.replace(' ', "_"),
            self.bounded,
            self.nominal,
            r.throughput(),
            r.p99_latency.as_secs_f64() * 1e3,
            r.completed,
            r.shed,
            r.deadline_misses,
            r.peak_queue_depth,
            self.cap,
            r.backpressure_events,
        )
    }
}

/// The protection invariants the overload figure claims — every cell
/// drained before its horizon and exactly once, nonzero shed in the
/// bounded overload cells, zero shed in the nominal ones, peak queue
/// depth within the cap, bounded p99 under naive p99 — asserted with
/// every offending cell listed on failure.
/// `figs overload` prints `OVERLOAD_OK` only past this, so CI can rely on
/// its exit status.
pub fn check_overload_invariants(cells: &[OverloadCell]) {
    let mut failures = Vec::new();
    for c in cells {
        let r = &c.report;
        if let Err(e) = &c.exactly_once {
            failures.push(format!("{}: {e}", c.label));
        }
        if c.bounded && r.peak_queue_depth > c.cap {
            failures.push(format!(
                "{}: peak queue {} exceeds cap {}",
                c.label, r.peak_queue_depth, c.cap
            ));
        }
        if c.bounded && c.nominal && r.shed != 0 {
            failures.push(format!(
                "{}: shed {} tuples at nominal load (protection must be inert)",
                c.label, r.shed
            ));
        }
        if c.bounded && !c.nominal && r.shed == 0 {
            failures.push(format!(
                "{}: shed nothing at 2x load (protection never engaged)",
                c.label
            ));
        }
    }
    // Graceful degradation: in each overload column the bounded cell's
    // tail latency must come in under the naive cell's unbounded-queue
    // tail.
    for c in cells.iter().filter(|c| c.bounded && !c.nominal) {
        let naive_label = c.label.replace("bounded", "naive");
        if let Some(n) = cells.iter().find(|c| c.label == naive_label) {
            if c.report.p99_latency >= n.report.p99_latency {
                failures.push(format!(
                    "{}: bounded p99 {:?} not below naive p99 {:?}",
                    c.label, c.report.p99_latency, n.report.p99_latency
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "overload invariants violated:\n{}",
        failures.join("\n")
    );
}

/// One cell of the elastic figure: a fleet configuration (static small,
/// static large, or autoscaled) run over the same diurnal stream.
pub struct ElasticCell {
    /// Row label, e.g. `static-3` or `elastic`.
    pub label: String,
    /// Data nodes owning regions at build time.
    pub initial_active: usize,
    /// `true` = the queue-watermark autoscaler is armed.
    pub elastic: bool,
    /// The cell's run report.
    pub report: RunReport,
    /// [`Expected::check`] of the report against the stream's reference
    /// join.
    pub exactly_once: Result<(), String>,
}

/// The elastic workload: DH-shaped but with small values, so a region
/// handoff costs milliseconds and the figure measures elasticity, not
/// migration bandwidth. The store stays far bigger than the compute-side
/// cache, keeping the data nodes the bottleneck capacity scales over.
fn elastic_spec(tuple_scale: f64) -> SyntheticSpec {
    SyntheticSpec {
        name: "EL",
        n_keys: 4_000,
        value_size: 2 * 1024,
        value_prefix: 64,
        udf_cpu: SimDuration::from_micros(100),
        // Floored high enough that each diurnal phase lasts hundreds of
        // milliseconds — long against the autoscaler's reaction time, so
        // renting during the peak actually serves most of the peak.
        n_tuples: ((60_000.0 * tuple_scale) as u64).max(24_000),
        params_size: 128,
        output_size: 256,
    }
}

/// The elastic figure's cluster: six data nodes of which the small fleet
/// activates three, so the autoscaler has real headroom to rent into.
fn elastic_cluster() -> ClusterSpec {
    ClusterSpec {
        n_compute: 4,
        n_data: 6,
        block_cache_bytes: 0,
        ..ClusterSpec::default()
    }
}

/// Run one diurnal elastic cell: uniform-key tuples arriving
/// trough/peak/trough (the first and last sixth of the stream at
/// `gap_trough`, the middle two thirds at `gap_peak`), on whatever fleet
/// `membership` describes. Overload protection is measurement-only
/// (permissive) — the queue depths it tracks are the autoscaler's input
/// signal — and the run ends when the stream drains, so `duration` is the
/// busy span and `node_seconds` the fleet-cost integral over it.
pub fn run_elastic_stream(
    cell: &SyntheticCell,
    gap_trough: SimDuration,
    gap_peak: SimDuration,
    membership: MembershipConfig,
) -> RunReport {
    let (mut job, store, udfs, mut tuples) = cell.build_on(membership.initial_active);
    let n = tuples.len();
    pace(&mut tuples, |i| {
        if i < n / 6 || i >= (5 * n) / 6 {
            gap_trough
        } else {
            gap_peak
        }
    });
    // A deep issue window, so overload pressure lands on the data-node
    // ingest queues — the signal the autoscaler's heartbeats carry —
    // instead of pooling invisibly in the compute nodes' own queues.
    job.feed = FeedMode::Stream {
        horizon: SimDuration::from_secs(100_000),
        window: window_for(cell.strategy, &cell.cluster, n / cell.cluster.n_compute),
    };
    job.overload = Some(OverloadConfig::permissive());
    job.membership = Some(membership);
    run_job(&job, store, udfs, tuples, vec![])
}

/// Offered load at the diurnal trough / peak, as multiples of the small
/// fleet's measured service rate: the trough leaves the small fleet
/// mostly idle, the peak overloads it by 60% — inside the large fleet's
/// capacity, so an elastic fleet that rents in time serves it cleanly.
pub const ELASTIC_TROUGH_LOAD: f64 = 0.3;
/// See [`ELASTIC_TROUGH_LOAD`].
pub const ELASTIC_PEAK_LOAD: f64 = 1.6;

/// The elastic-membership figure: the same diurnal stream
/// (trough/peak/trough against the small fleet's measured capacity)
/// served by a static small fleet, a static large fleet, and an elastic
/// fleet that starts small with the queue-watermark autoscaler armed.
/// The claim it records: the elastic fleet matches the static-large p99
/// at peak (both far below static-small, which queues the whole burst)
/// while its node-seconds bill stays near static-small's —
/// capacity follows the load instead of being provisioned for either
/// extreme. [`check_elastic_invariants`] asserts exactly that, plus
/// exactly-once output equality across all three fleets.
pub fn fig_elastic(tuple_scale: f64, seed: u64) -> (FigTable, Vec<ElasticCell>) {
    let cell = SyntheticCell {
        cluster: elastic_cluster(),
        // Small enough that the compute-side cache cannot absorb the
        // store: the data fleet stays the capacity being scaled.
        mem_cache: 64 * 1024,
        ..SyntheticCell::new(elastic_spec(tuple_scale), 0.0, seed)
    };
    let small = cell.cluster.n_data / 2;
    let large = cell.cluster.n_data;

    // Calibration: a firehose stream (1 µs inter-arrival) on the small
    // static fleet measures its true service rate µ; the diurnal loads
    // are multiples of it.
    let firehose = SimDuration::from_micros(1);
    let mu = run_elastic_stream(
        &cell,
        firehose,
        firehose,
        MembershipConfig::static_active(small),
    )
    .throughput()
    .max(1.0);
    let gap_trough = SimDuration::from_secs_f64(1.0 / (mu * ELASTIC_TROUGH_LOAD));
    let gap_peak = SimDuration::from_secs_f64(1.0 / (mu * ELASTIC_PEAK_LOAD));

    // The autoscaler's cadence and watermarks, against the signal the
    // permissive overload config exposes: data-node queue depth. With the
    // issue window at 4 in-flight tuples per compute core, a saturated
    // fleet pins ~window/active items per node (far above `rent_above`)
    // while the trough leaves little more than the requests in service
    // (below `release_below`) — and the cadence is fast relative to the
    // peak phase, so renting happens while the burst still matters.
    let autoscale = AutoscaleConfig {
        interval: SimDuration::from_millis(10),
        heartbeat: SimDuration::from_millis(2),
        mode: AutoscaleMode::QueueWatermark {
            rent_above: 16.0,
            release_below: 4.0,
            cooldown: SimDuration::from_millis(8),
        },
    };
    let mut elastic = MembershipConfig::static_active(small);
    elastic.min_active = small;
    elastic.autoscale = Some(autoscale);

    let cells: Vec<(String, MembershipConfig, bool)> = vec![
        (
            format!("static-{small}"),
            MembershipConfig::static_active(small),
            false,
        ),
        (
            format!("static-{large}"),
            MembershipConfig::static_active(large),
            false,
        ),
        ("elastic".into(), elastic, true),
    ];
    let expected = cell.expected();
    let results = run_grid(cells, |(label, membership, is_elastic)| {
        let initial_active = membership.initial_active;
        let report = run_elastic_stream(&cell, gap_trough, gap_peak, membership);
        ElasticCell {
            label,
            initial_active,
            elastic: is_elastic,
            exactly_once: expected.check(&report),
            report,
        }
    });

    let rows = results
        .iter()
        .map(|c| {
            let r = &c.report;
            (
                c.label.clone(),
                vec![
                    r.duration.as_secs_f64(),
                    r.p99_latency.as_secs_f64() * 1e3,
                    r.completed as f64,
                    r.migrations as f64,
                    r.migrations_aborted as f64,
                    r.migrated_bytes as f64 / 1e6,
                    r.drained_nodes as f64,
                    r.autoscale_rents as f64,
                    r.autoscale_releases as f64,
                    r.node_seconds,
                ],
            )
        })
        .collect();
    let table = FigTable {
        title: format!(
            "Elastic — diurnal stream ({}x/{}x of µ={:.0}/s), static vs autoscaled fleet",
            ELASTIC_TROUGH_LOAD, ELASTIC_PEAK_LOAD, mu
        ),
        row_label: "fleet".into(),
        columns: vec![
            "duration s".into(),
            "p99 ms".into(),
            "completed".into(),
            "migrations".into(),
            "aborted".into(),
            "mig MB".into(),
            "drained".into(),
            "rents".into(),
            "releases".into(),
            "node-s".into(),
        ],
        rows,
    };
    (table, results)
}

impl ElasticCell {
    /// The grep-friendly `ELASTIC <fleet> ...` line `figs elastic` prints
    /// per cell (CI's smoke job reads them).
    pub fn line(&self) -> String {
        let r = &self.report;
        format!(
            "ELASTIC {} active={} completed={} fp={:#018x} p99_ms={:.3} node_s={:.3} \
             migrations={} aborted={} migrated_bytes={} drained={} rents={} releases={}",
            self.label,
            self.initial_active,
            r.completed,
            r.fingerprint,
            r.p99_latency.as_secs_f64() * 1e3,
            r.node_seconds,
            r.migrations,
            r.migrations_aborted,
            r.migrated_bytes,
            r.drained_nodes,
            r.autoscale_rents,
            r.autoscale_releases,
        )
    }
}

/// The invariants the elastic figure claims, asserted with the offending
/// numbers on failure. `figs elastic` prints `ELASTIC_OK` only past this
/// (the CI smoke job greps for that line).
pub fn check_elastic_invariants(cells: &[ElasticCell]) {
    assert!(cells.len() >= 3, "expected small/large/elastic cells");
    let small = &cells[0].report;
    let large = &cells[1].report;
    let elastic = &cells
        .iter()
        .find(|c| c.elastic)
        .expect("missing elastic cell")
        .report;
    // Exactly-once under elasticity: every fleet completes every tuple
    // with the reference join's output, none shed and none given up.
    for c in cells {
        let r = &c.report;
        assert_eq!(c.exactly_once, Ok(()), "{}", c.label);
        assert!(r.outcomes.is_empty(), "{}: {:?}", c.label, r.outcomes);
        if !c.elastic {
            assert_eq!(r.migrations, 0, "{}: static fleet migrated", c.label);
            assert_eq!(r.autoscale_rents, 0, "{}: static fleet rented", c.label);
        }
    }
    // The autoscaler actually acted, in both directions, through live
    // migration.
    assert!(elastic.autoscale_rents >= 1, "the peak never rented a node");
    assert!(
        elastic.autoscale_releases >= 1,
        "the trough never released a node"
    );
    assert!(elastic.migrations >= 1, "no region ever migrated");
    // The headline claims: elastic beats the small fleet's peak p99 and
    // the large fleet's node-seconds bill.
    assert!(
        elastic.p99_latency < small.p99_latency,
        "elastic p99 {:?} not below static-small {:?}",
        elastic.p99_latency,
        small.p99_latency
    );
    assert!(
        elastic.node_seconds < large.node_seconds,
        "elastic node-seconds {:.3} not below static-large {:.3}",
        elastic.node_seconds,
        large.node_seconds
    );
}

/// Figure 7: TPC-DS multi-join queries — shuffle baseline ("Spark SQL") vs
/// our framework, time in minutes.
pub fn fig7(fact_scale: f64, seed: u64) -> FigTable {
    let mut ds = TpcDsLite::scaled_default(seed);
    // The fact table is the workhorse: at SF500 store_sales is ~1.4B rows.
    // The fact count must be large enough that dimension caching reaches
    // its steady state (hits ≫ warm-up rents), as it does at paper scale.
    ds.fact_rows = ((6_000_000.0 * fact_scale) as u64).max(5_000);
    // The paper's testbed (Xeon L5420 era) had spinning disks — what makes
    // shuffle spills expensive.
    let mut cluster = ClusterSpec {
        disk_bw_bps: 90e6,
        ..ClusterSpec::default()
    };
    cluster.node.disk_channels = 1;
    let udfs = digest_udfs(48);
    let sales = ds.sales();
    let rows = run_grid(TpcDsLite::queries(), |q| {
        // Dimension tables in the order this query joins them.
        let dim_maps: Vec<HashMap<RowKey, StoredValue>> = q
            .stages
            .iter()
            .map(|s| ds.dimension_rows(s.dim).collect())
            .collect();
        let plan = Arc::new(JobPlan {
            stages: q
                .stages
                .iter()
                .enumerate()
                .map(|(i, s)| StageSpec {
                    table: i,
                    udf: UDF,
                    selectivity: s.selectivity,
                })
                .collect(),
        });
        let tuples: Vec<JobTuple> = sales
            .iter()
            .map(|s| JobTuple {
                seq: s.seq,
                keys: q
                    .stages
                    .iter()
                    .map(|st| RowKey::from_u64(s.fk(st.dim)))
                    .collect(),
                params_size: 64,
                arrival: SimTime::ZERO,
            })
            .collect();

        // Shuffle baseline on all 20 nodes.
        let dim_refs: Vec<&HashMap<RowKey, StoredValue>> = dim_maps.iter().collect();
        // A serialized store_sales/intermediate row is ~200 B on the wire.
        let spark = run_shuffle_multijoin(&cluster, &dim_refs, &udfs, &plan, &tuples, 200);

        // Our framework: dims in the store, fact streamed from compute nodes.
        let tables: Vec<(String, Vec<(RowKey, StoredValue)>)> = q
            .stages
            .iter()
            .map(|s| (s.dim.name().to_string(), ds.dimension_rows(s.dim).collect()))
            .collect();
        let store = build_store(&cluster, tables);
        let job = JobSpec::new(
            cluster.clone(),
            optimizer_for(Strategy::Full, 100 << 20),
            FeedMode::Batch {
                window: window_for(Strategy::Full, &cluster, tuples.len() / cluster.n_compute),
            },
            plan,
            seed,
            3e-6,
        );
        let ours = run_job(&job, store, udfs.clone(), tuples, vec![]);
        (
            q.name.to_string(),
            vec![
                spark.duration.as_secs_f64() / 60.0,
                ours.duration.as_secs_f64() / 60.0,
            ],
        )
    });
    FigTable {
        title: "Figure 7 — TPC-DS multi-join, time (minutes)".into(),
        row_label: "query".into(),
        columns: vec!["Spark SQL".into(), "Our framework".into()],
        rows,
    }
}
