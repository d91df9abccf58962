//! The ablations behind `figs ablate <name>`: each function sweeps one
//! design choice of the paper and returns the table `figs` prints.
//!
//! `--scale` below 0.2 leaves the DCH cells too small for ski-rental to
//! ever buy, so the policy tables read all zeros there (not a bug).

use std::collections::HashMap;
use std::sync::Arc;

use jl_cache::{BenefitPolicy, Lfu, LfuDa, Lru, SizeMode, TieredCache};
use jl_core::{
    CacheIntent, DataSidePolicy, DecisionCtx, LbSolver, OptimizerConfig, Placement,
    PlacementPolicy, SkiRentalPolicy,
};
use jl_engine::{run_job, ClusterSpec, EKey, PolicyFactory};
use jl_freq::{ExactCounter, FrequencyEstimator, LossyCounter, SpaceSaving};
use jl_simkit::rng::stream_rng;
use jl_simkit::time::SimDuration;
use jl_workloads::{KeyStream, SyntheticSpec, Zipf};

use crate::{ablation_inputs, scaled, BenchArgs, FigTable, SyntheticCell};

/// The DCH cell at z = 1 on the default cluster: what the placement-policy
/// ablations (cache admission, estimator, ski threshold) all run.
fn dch_cell(args: &BenchArgs) -> SyntheticCell {
    SyntheticCell {
        cluster: ClusterSpec::default(),
        ..SyntheticCell::new(scaled(SyntheticSpec::dch(), args.scale), 1.0, args.seed)
    }
}

/// Run `cell` once per `(label, policy)` and tabulate time, buys and cache
/// hits — the three columns every placement-policy ablation reports.
fn policy_table(
    title: &str,
    row_label: &str,
    cell: &SyntheticCell,
    factories: Vec<(String, PolicyFactory)>,
) -> FigTable {
    let mut rows = Vec::new();
    for (label, factory) in factories {
        let (mut job, store, udfs, tuples) = ablation_inputs(cell);
        job.policy = Some(factory);
        let r = run_job(&job, store, udfs, tuples, vec![]);
        rows.push((
            label,
            vec![
                r.duration.as_secs_f64(),
                r.decisions.data_requests as f64,
                r.decisions.mem_hits as f64 + r.decisions.disk_hits as f64,
            ],
        ));
    }
    FigTable {
        title: title.into(),
        row_label: row_label.into(),
        columns: vec!["time (s)".into(), "buys".into(), "cache hits".into()],
        rows,
    }
}

/// Batch size × max-wait sweep (the paper's §7.2 future work on dynamic
/// batch sizing).
pub fn batch(args: &BenchArgs) -> FigTable {
    let cell = SyntheticCell {
        cluster: ClusterSpec::default(),
        ..SyntheticCell::new(scaled(SyntheticSpec::dh(), args.scale), 0.5, args.seed)
    };
    let mut rows = Vec::new();
    for batch in [1usize, 8, 32, 64, 128, 256] {
        let mut vals = Vec::new();
        for wait_ms in [1u64, 5, 50] {
            let (mut job, store, udfs, tuples) = ablation_inputs(&cell);
            job.optimizer.batch_size = batch;
            job.optimizer.batch_max_wait = SimDuration::from_millis(wait_ms);
            let r = run_job(&job, store, udfs, tuples, vec![]);
            vals.push(r.duration.as_secs_f64());
        }
        rows.push((format!("batch {batch}"), vals));
    }
    FigTable {
        title: "Ablation — batch size × max wait (DH, z=0.5), time (s)".into(),
        row_label: "".into(),
        columns: vec!["1 ms".into(), "5 ms".into(), "50 ms".into()],
        rows,
    }
}

fn run_eviction<P: BenefitPolicy<u64>>(policy: P, trace: &[u64]) -> (f64, f64) {
    // 100 slots of memory over a 10k keyspace; disk tier unbounded.
    let mut cache: TieredCache<u64, (), P> =
        TieredCache::new(100 * 64, u64::MAX, policy, SizeMode::Uniform);
    for &k in trace {
        cache.touch(&k, 1.0);
        match cache.lookup(&k) {
            jl_cache::Lookup::MemHit => {}
            jl_cache::Lookup::DiskHit => {
                cache.maybe_promote(&k);
            }
            jl_cache::Lookup::Miss => {
                cache.insert(k, (), 64);
            }
        }
    }
    let s = cache.stats();
    let total = (s.mem_hits + s.disk_hits + s.misses) as f64;
    (s.mem_hits as f64 / total, s.disk_hits as f64 / total)
}

/// Eviction: weighted LFU-DA (the paper's choice) vs LRU vs plain LFU on a
/// hot-set-shifting Zipf trace, driven against the cache directly. The
/// trace is floored at 1000 accesses, like [`scaled`] inputs.
pub fn cache_eviction(args: &BenchArgs) -> FigTable {
    let (scale, seed) = (args.scale, args.seed);
    let n = ((500_000.0 * scale) as usize).max(1000);
    let mut ks = KeyStream::shifting(10_000, 1.0, (n as u64 / 5).max(1), seed);
    let mut rng = stream_rng(seed, "cache");
    let trace: Vec<u64> = (0..n).map(|_| ks.next_key(&mut rng)).collect();
    let mut rows = Vec::new();
    let (m, d) = run_eviction(LfuDa::new(), &trace);
    rows.push(("LFU-DA (paper)".to_string(), vec![m, d, m + d]));
    let (m, d) = run_eviction(Lru::new(), &trace);
    rows.push(("LRU".to_string(), vec![m, d, m + d]));
    let (m, d) = run_eviction(Lfu::new(), &trace);
    rows.push(("LFU (no aging)".to_string(), vec![m, d, m + d]));
    FigTable {
        title: format!("Ablation — eviction policy on a shifting Zipf(1.0) trace of {n} accesses"),
        row_label: "policy".into(),
        columns: vec!["mem hit".into(), "disk hit".into(), "any hit".into()],
        rows,
    }
}

/// Buy every key into the cache as soon as its costs are known — no
/// ski-rental gate. Overbuys cold keys; the comparison shows what the gate
/// is worth. Defined here, not in `jl-core`: extending the decision plane
/// needs no edit there.
struct EagerBuyPolicy;

impl<K> PlacementPolicy<K> for EagerBuyPolicy {
    fn decide(&mut self, _key: &K, ctx: &DecisionCtx) -> Placement {
        if ctx.frozen || !ctx.observed || ctx.fetch_in_flight {
            return Placement::Rent;
        }
        if ctx.would_cache_mem {
            Placement::Buy(CacheIntent::Memory)
        } else {
            Placement::Buy(CacheIntent::Disk)
        }
    }

    fn uses_cache(&self) -> bool {
        true
    }
}

/// Admission: ski-rental-gated buying (the paper) vs an eager always-buy
/// policy vs never buying, each plugged into the runtime as a
/// [`PlacementPolicy`] object via [`JobSpec::policy`](jl_engine::JobSpec::policy).
pub fn cache_admission(args: &BenchArgs) -> FigTable {
    let factories: Vec<(String, PolicyFactory)> = vec![
        (
            "ski-rental (paper)".into(),
            Arc::new(|cfg: &OptimizerConfig, _| Box::new(SkiRentalPolicy::new(cfg))),
        ),
        (
            "eager buy".into(),
            Arc::new(|_: &OptimizerConfig, _| Box::new(EagerBuyPolicy)),
        ),
        (
            "never buy".into(),
            Arc::new(|_: &OptimizerConfig, _| Box::new(DataSidePolicy)),
        ),
    ];
    policy_table(
        "Ablation — cache admission as a placement policy (DCH, z=1)",
        "policy",
        &dch_cell(args),
        factories,
    )
}

/// The two future-work extensions (§10, §5 footnote 4): offloading
/// cache-hit computation under local CPU pressure, and dynamic batch
/// sizing. Run on the compute-heavy workload at the paper's own problem
/// point (z = 1.5, where FO left data nodes underutilized).
pub fn extensions(args: &BenchArgs) -> FigTable {
    fn run(offload: Option<u64>, dyn_batch: Option<usize>, cell: &SyntheticCell) -> (f64, u64) {
        let (mut job, store, udfs, tuples) = ablation_inputs(cell);
        job.optimizer.offload_cached_above = offload;
        if let Some(max) = dyn_batch {
            job.optimizer.batch_size = 8;
            job.optimizer.dynamic_batch_max = Some(max);
        }
        let r = run_job(&job, store, udfs, tuples, vec![]);
        (r.duration.as_secs_f64(), r.decisions.offloaded_hits)
    }
    // The figure-standard cell already runs the §9.3 cluster (block cache
    // off), which is the regime this ablation wants.
    let cell = SyntheticCell::new(scaled(SyntheticSpec::ch(), args.scale), 1.5, args.seed);
    let mut rows = Vec::new();
    let (base, _) = run(None, None, &cell);
    rows.push(("FO (paper)".to_string(), vec![base, 0.0]));
    for thr in [32u64, 64, 128] {
        let (t, off) = run(Some(thr), None, &cell);
        rows.push((format!("FO + offload>{thr}"), vec![t, off as f64]));
    }
    let (t, _) = run(None, Some(256), &cell);
    rows.push(("FO + dynamic batch".to_string(), vec![t, 0.0]));
    FigTable {
        title: "Ablation — future-work extensions (CH, z=1.5)".into(),
        row_label: "variant".into(),
        columns: vec!["time (s)".into(), "offloaded hits".into()],
        rows,
    }
}

fn evaluate<E: FrequencyEstimator<u64>>(
    mut est: E,
    stream: &[u64],
    truth: &HashMap<u64, u64>,
) -> (usize, f64, f64) {
    for &k in stream {
        est.observe(k);
    }
    // Error over the true top-100 keys.
    let mut top: Vec<(&u64, &u64)> = truth.iter().collect();
    top.sort_by(|a, b| b.1.cmp(a.1));
    let mut err = 0.0;
    for (k, &t) in top.iter().take(100) {
        err += (est.estimate(k) as f64 - t as f64).abs() / t as f64;
    }
    // Heavy-hitter recall at 0.5% support.
    let hh: Vec<u64> = est
        .heavy_hitters(0.005)
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    let support = (0.005 * stream.len() as f64) as u64;
    let should: Vec<&u64> = truth
        .iter()
        .filter(|(_, &c)| c >= support)
        .map(|(k, _)| k)
        .collect();
    let recall = if should.is_empty() {
        1.0
    } else {
        should.iter().filter(|k| hh.contains(k)).count() as f64 / should.len() as f64
    };
    (est.tracked(), err / 100.0, recall)
}

/// Frequency estimators offline — Lossy Counting (the paper's choice) vs
/// Space-Saving vs exact counts: accuracy and space on a raw Zipf stream
/// of at least 1000 items.
pub fn freq_accuracy(args: &BenchArgs) -> FigTable {
    let (scale, seed) = (args.scale, args.seed);
    let n = ((1_000_000.0 * scale) as usize).max(1000);
    let zipf = Zipf::new(100_000, 1.1);
    let mut rng = stream_rng(seed, "freq");
    let stream: Vec<u64> = (0..n).map(|_| zipf.sample(&mut rng) as u64).collect();
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for &k in &stream {
        *truth.entry(k).or_insert(0) += 1;
    }
    let mut rows = Vec::new();
    let (space, err, recall) = evaluate(ExactCounter::new(), &stream, &truth);
    rows.push(("exact".to_string(), vec![space as f64, err, recall]));
    for eps in [1e-3, 1e-4] {
        let (space, err, recall) = evaluate(LossyCounter::new(eps), &stream, &truth);
        rows.push((format!("lossy eps={eps}"), vec![space as f64, err, recall]));
    }
    for cap in [1_000, 10_000] {
        let (space, err, recall) = evaluate(SpaceSaving::new(cap), &stream, &truth);
        rows.push((
            format!("spacesaving k={cap}"),
            vec![space as f64, err, recall],
        ));
    }
    FigTable {
        title: format!("Ablation — frequency estimators on a Zipf(1.1) stream of {n} tuples"),
        row_label: "estimator".into(),
        columns: vec![
            "entries".into(),
            "top-100 rel err".into(),
            "HH recall".into(),
        ],
        rows,
    }
}

/// Frequency estimators end to end: each one plugged into the ski-rental
/// placement policy ([`SkiRentalPolicy::with_estimator`] via
/// [`JobSpec::policy`](jl_engine::JobSpec::policy)), so estimation error
/// shows up as runtime, not just as counting error.
pub fn freq_end_to_end(args: &BenchArgs) -> FigTable {
    let factories: Vec<(String, PolicyFactory)> = vec![
        (
            "lossy (paper)".into(),
            Arc::new(|cfg: &OptimizerConfig, _| {
                Box::new(SkiRentalPolicy::with_estimator(
                    LossyCounter::<EKey>::new(cfg.lossy_epsilon),
                    cfg.ski_threshold_scale,
                ))
            }),
        ),
        (
            "spacesaving k=10000".into(),
            Arc::new(|cfg: &OptimizerConfig, _| {
                Box::new(SkiRentalPolicy::with_estimator(
                    SpaceSaving::<EKey>::new(10_000),
                    cfg.ski_threshold_scale,
                ))
            }),
        ),
        (
            "exact".into(),
            Arc::new(|cfg: &OptimizerConfig, _| {
                Box::new(SkiRentalPolicy::with_estimator(
                    ExactCounter::<EKey>::new(),
                    cfg.ski_threshold_scale,
                ))
            }),
        ),
    ];
    policy_table(
        "Ablation — estimator inside ski-rental placement (DCH, z=1)",
        "estimator",
        &dch_cell(args),
        factories,
    )
}

/// Gradient-descent vs exact batch-split solver (DESIGN.md). The paper
/// uses gradient descent as a cheap per-batch heuristic; since the
/// objective is convex piecewise-linear, an exact solver is also cheap.
/// Compares end-to-end job time.
pub fn lb(args: &BenchArgs) -> FigTable {
    fn run(solver: LbSolver, cell: &SyntheticCell) -> f64 {
        let (mut job, store, udfs, tuples) = ablation_inputs(cell);
        job.optimizer.lb_solver = solver;
        run_job(&job, store, udfs, tuples, vec![])
            .duration
            .as_secs_f64()
    }
    let mut rows = Vec::new();
    for spec in [SyntheticSpec::ch(), SyntheticSpec::dch()] {
        let spec = scaled(spec, args.scale);
        for z in [0.0, 1.0] {
            let cell = SyntheticCell {
                cluster: ClusterSpec::default(),
                ..SyntheticCell::new(spec.clone(), z, args.seed)
            };
            let gd = run(LbSolver::GradientDescent, &cell);
            let exact = run(LbSolver::Exact, &cell);
            rows.push((format!("{} z={z}", spec.name), vec![gd, exact, gd / exact]));
        }
    }
    FigTable {
        title: "Ablation — batch-split solver: gradient descent (paper) vs exact".into(),
        row_label: "workload".into(),
        columns: vec!["gd (s)".into(), "exact (s)".into(), "gd/exact".into()],
        rows,
    }
}

/// Sensitivity to the ski-rental buy threshold: scales the paper's
/// `b/(r − br)` threshold by ×0.25…×4; the optimum should sit near ×1
/// (buying too early wastes fetches, too late wastes rents). The sweep
/// parameterizes the policy object directly
/// ([`SkiRentalPolicy::with_scale`] via
/// [`JobSpec::policy`](jl_engine::JobSpec::policy)) instead of
/// round-tripping the scale through a config field.
pub fn ski(args: &BenchArgs) -> FigTable {
    let factories = [0.25, 0.5, 1.0, 2.0, 4.0]
        .into_iter()
        .map(|ski_scale| {
            let factory: PolicyFactory = Arc::new(move |cfg: &OptimizerConfig, _| {
                Box::new(SkiRentalPolicy::with_scale(cfg, ski_scale))
            });
            (format!("x{ski_scale}"), factory)
        })
        .collect();
    policy_table(
        "Ablation — ski-rental threshold scale (DCH, z=1)",
        "scale",
        &dch_cell(args),
        factories,
    )
}
