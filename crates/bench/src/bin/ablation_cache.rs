//! Ablation: caching policies, two layers.
//!
//! Eviction: weighted LFU-DA (the paper's choice) vs LRU vs plain LFU on a
//! hot-set-shifting Zipf trace, driven against the cache directly.
//!
//! Admission: ski-rental-gated buying (the paper) vs an eager always-buy
//! policy vs never buying, each plugged into the runtime as a
//! [`PlacementPolicy`] object via [`JobSpec::policy`](jl_engine::JobSpec::policy). `EagerBuyPolicy` is
//! defined in this binary — extending the decision plane requires no
//! `jl-core` edit.

use jl_bench::output::FigTable;
use jl_bench::{ablation_inputs, parse_args_full, scaled, BenchArgs, SyntheticCell};
use jl_cache::{BenefitPolicy, Lfu, LfuDa, Lru, SizeMode, TieredCache};
use jl_core::{
    CacheIntent, DataSidePolicy, DecisionCtx, OptimizerConfig, Placement, PlacementPolicy,
    SkiRentalPolicy,
};
use jl_engine::{run_job, ClusterSpec, PolicyFactory};
use jl_simkit::rng::stream_rng;
use jl_workloads::{KeyStream, SyntheticSpec};
use std::sync::Arc;

/// Buy every key into the cache as soon as its costs are known — no
/// ski-rental gate. Overbuys cold keys; the comparison shows what the gate
/// is worth.
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

fn run_policy<P: BenefitPolicy<u64>>(policy: P, trace: &[u64]) -> (f64, f64) {
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

fn main() {
    let args = parse_args_full(1.0);
    let (scale, seed) = (args.scale, args.seed);
    let n = (500_000.0 * scale) as usize;
    let mut ks = KeyStream::shifting(10_000, 1.0, (n as u64 / 5).max(1), seed);
    let mut rng = stream_rng(seed, "cache");
    let trace: Vec<u64> = (0..n).map(|_| ks.next_key(&mut rng)).collect();
    let mut rows = Vec::new();
    let (m, d) = run_policy(LfuDa::new(), &trace);
    rows.push(("LFU-DA (paper)".to_string(), vec![m, d, m + d]));
    let (m, d) = run_policy(Lru::new(), &trace);
    rows.push(("LRU".to_string(), vec![m, d, m + d]));
    let (m, d) = run_policy(Lfu::new(), &trace);
    rows.push(("LFU (no aging)".to_string(), vec![m, d, m + d]));
    let t = FigTable {
        title: format!("Ablation — eviction policy on a shifting Zipf(1.0) trace of {n} accesses"),
        row_label: "policy".into(),
        columns: vec!["mem hit".into(), "disk hit".into(), "any hit".into()],
        rows,
    };
    println!("{}", t.render());
    println!();
    admission(&args);
}

/// Run the DCH job once per admission policy object.
fn admission(args: &BenchArgs) {
    let cell = SyntheticCell {
        cluster: ClusterSpec::default(),
        ..SyntheticCell::new(scaled(SyntheticSpec::dch(), args.scale), 1.0, args.seed)
    };
    let factories: Vec<(&str, PolicyFactory)> = vec![
        (
            "ski-rental (paper)",
            Arc::new(|cfg: &OptimizerConfig, _| Box::new(SkiRentalPolicy::new(cfg))),
        ),
        (
            "eager buy",
            Arc::new(|_: &OptimizerConfig, _| Box::new(EagerBuyPolicy)),
        ),
        (
            "never buy",
            Arc::new(|_: &OptimizerConfig, _| Box::new(DataSidePolicy)),
        ),
    ];
    let mut rows = Vec::new();
    for (label, factory) in factories {
        let (mut job, store, udfs, tuples) = ablation_inputs(&cell);
        job.policy = Some(factory);
        let r = run_job(&job, store, udfs, tuples, vec![]);
        rows.push((
            label.to_string(),
            vec![
                r.duration.as_secs_f64(),
                r.decisions.data_requests as f64,
                r.decisions.mem_hits as f64 + r.decisions.disk_hits as f64,
            ],
        ));
    }
    let t = FigTable {
        title: "Ablation — cache admission as a placement policy (DCH, z=1)".into(),
        row_label: "policy".into(),
        columns: vec!["time (s)".into(), "buys".into(), "cache hits".into()],
        rows,
    };
    println!("{}", t.render());
    args.write_trace();
}
