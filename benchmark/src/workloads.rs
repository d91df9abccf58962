//! The five simulated workloads: inputs made from the seed, and nothing
//! else. The engine only ever receives what [`SimInputs`] holds — it never
//! sees a workload name.
//!
//! Sizes are multiples of the `jl_workloads` defaults, chosen so one
//! repetition of `run_job` lasts 1–4 s on this class of host (the old
//! `bench_report` cells lasted 40–300 ms and could not resolve a 10 %
//! change).

use std::sync::Arc;

use jl_core::{OptimizerConfig, Strategy};
use jl_engine::runner::UpdateEvent;
use jl_engine::{build_store, ClusterSpec, FeedMode, JobPlan, JobSpec, JobTuple};
use jl_simkit::rng::{splitmix64, stream_rng};
use jl_simkit::time::{SimDuration, SimTime};
use jl_store::{
    DigestUdf, Partitioning, RegionMap, RowKey, StoreCluster, StoredValue, UdfRegistry,
};
use jl_workloads::{AnnotationWorkload, ShiftingKeyMap, SyntheticSpec, TweetStream, Zipf};
use rand::Rng;

/// The UDF id every workload registers its digest function under.
const UDF: usize = 0;

/// The six workloads, in catalogue order.
pub const WORKLOADS: [&str; 6] = [
    "dh_batch",
    "ch_batch",
    "tweets_stream",
    "dh_updates",
    "dh_batch_par2",
    "serve_open",
];

/// Shrinks every input by this factor; 1 outside `cargo test`.
#[derive(Clone, Copy)]
pub struct Scale(pub f64);

impl Scale {
    pub const FULL: Scale = Scale(1.0);

    fn of(self, n: u64) -> u64 {
        ((n as f64 * self.0) as u64).max(200)
    }
}

/// How the store of a workload is laid out across the data nodes.
#[derive(Clone, Copy)]
enum Layout {
    /// Hash-partitioned, `regions_per_node` regions per data node.
    Hash,
    /// The annotation model table: giant head models one region per key.
    HeadSpread { vocab: u64 },
}

/// Everything one simulated run consumes.
pub struct SimInputs {
    pub job: JobSpec,
    pub udf_out_bytes: usize,
    pub rows: Vec<(RowKey, StoredValue)>,
    pub tuples: Vec<JobTuple>,
    pub updates: Vec<UpdateEvent>,
    /// `Some(n)`: run on `run_job_parallel` with `n` shards.
    pub shards: Option<usize>,
    layout: Layout,
}

impl SimInputs {
    /// A freshly loaded store (the engine consumes one per run).
    pub fn store(&self) -> StoreCluster {
        let cluster = &self.job.cluster;
        match self.layout {
            Layout::Hash => build_store(cluster, vec![("t".into(), self.rows.clone())]),
            Layout::HeadSpread { vocab } => {
                let mut store = StoreCluster::new(cluster.n_data);
                let part = Partitioning::head_spread(
                    (cluster.n_data as u64) * 16,
                    cluster.n_data * cluster.regions_per_node,
                    vocab,
                );
                let table = store.add_table("t", RegionMap::round_robin(part, cluster.n_data));
                store.bulk_load(table, self.rows.clone());
                store
            }
        }
    }

    pub fn udfs(&self) -> UdfRegistry {
        let mut u = UdfRegistry::new();
        u.register(
            UDF,
            Arc::new(DigestUdf {
                out_bytes: self.udf_out_bytes,
            }),
        );
        u
    }
}

/// The §9.3 cluster: 10 compute + 10 data nodes, region-server block
/// cache off (the paper charges `tDisk` on every request).
fn synthetic_cluster() -> ClusterSpec {
    ClusterSpec {
        block_cache_bytes: 0,
        ..ClusterSpec::default()
    }
}

fn job(
    cluster: ClusterSpec,
    mem_cache: u64,
    feed: FeedMode,
    udf_cpu_hint: f64,
    seed: u64,
) -> JobSpec {
    let mut optimizer = OptimizerConfig::for_strategy(Strategy::Full);
    optimizer.mem_cache_bytes = mem_cache;
    optimizer.batch_size = 64;
    optimizer.batch_max_wait = SimDuration::from_millis(5);
    JobSpec {
        cluster,
        optimizer,
        feed,
        plan: JobPlan::single(0, UDF),
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

/// The figure harness's prefetch window for the optimizing strategies.
fn window(input_per_node: usize) -> usize {
    (input_per_node / 50).clamp(128, 4096)
}

/// Stored rows of a synthetic table.
fn synthetic_rows(spec: &SyntheticSpec, version: u64, seed: u64) -> Vec<(RowKey, StoredValue)> {
    (0..spec.n_keys)
        .map(|k| (RowKey::from_u64(k), synthetic_value(spec, k, version, seed)))
        .collect()
}

/// The materialised verification prefix of a stored value. It mixes the
/// seed in, so the store contents follow `--seed` too.
fn prefix(key: u64, version: u64, seed: u64, len: usize) -> Vec<u8> {
    let mut state = key ^ seed.rotate_left(17) ^ version.wrapping_mul(0xA076_1D64_78BD_642F);
    let mut data = Vec::with_capacity(len + 8);
    while data.len() < len {
        data.extend_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    data.truncate(len);
    data
}

fn synthetic_value(spec: &SyntheticSpec, key: u64, version: u64, seed: u64) -> StoredValue {
    let data = prefix(key, version, seed, spec.value_prefix);
    let pad = spec.value_size.saturating_sub(spec.value_prefix as u64);
    StoredValue::with_pad(data, pad, version, spec.udf_cpu)
}

fn synthetic(spec: SyntheticSpec, seed: u64) -> SimInputs {
    let cluster = synthetic_cluster();
    let mut rng = stream_rng(seed, "tuples");
    let tuples: Vec<JobTuple> = spec
        .tuples(1.0, 1, &mut rng, seed)
        .into_iter()
        .map(|t| JobTuple {
            seq: t.seq,
            keys: vec![RowKey::from_u64(t.key)],
            params_size: t.params_size,
            arrival: SimTime::ZERO,
        })
        .collect();
    let feed = FeedMode::Batch {
        window: window(tuples.len() / cluster.n_compute),
    };
    SimInputs {
        job: job(cluster, 32 << 20, feed, spec.udf_cpu.as_secs_f64(), seed),
        udf_out_bytes: spec.output_size as usize,
        rows: synthetic_rows(&spec, 1, seed),
        tuples,
        updates: Vec::new(),
        shards: None,
        layout: Layout::Hash,
    }
}

fn dh(scale: Scale, times: u64) -> SyntheticSpec {
    let mut spec = SyntheticSpec::dh();
    spec.n_tuples = scale.of(spec.n_tuples * times);
    spec
}

/// Simulated seconds over which `dh_updates` spreads its writes: the first
/// 90 % of what `dh_batch` takes (≈ 0.94 s at full scale on every seed
/// tried; the NIC bound makes it nearly seed-independent).
const DH_UPDATE_SPAN_SECS: f64 = 0.85;

fn dh_updates(scale: Scale, seed: u64) -> SimInputs {
    let spec = dh(scale, 4);
    let mut inputs = synthetic(spec.clone(), seed);
    // Same Zipf law as the reads, on an RNG stream of its own.
    let zipf = Zipf::new(spec.n_keys as usize, 1.0);
    let mut rng = stream_rng(seed, "updates");
    let n = spec.n_tuples / 20;
    let span = DH_UPDATE_SPAN_SECS * scale.0;
    let mut updates: Vec<UpdateEvent> = (0..n)
        .map(|i| {
            let key = zipf.sample(&mut rng) as u64;
            let at = SimTime::ZERO + SimDuration::from_secs_f64(rng.gen_range(0.0..span));
            (
                at,
                0,
                RowKey::from_u64(key),
                synthetic_value(&spec, key, 2 + i, seed),
            )
        })
        .collect();
    updates.sort_by_key(|u| u.0);
    inputs.updates = updates;
    inputs
}

/// Seed of everything about the annotation workload that is *dataset*
/// rather than *sample*: the Pareto model-size law and which entities
/// trend in which epoch. `--seed` then draws the tweets. With the model
/// sizes redrawn per seed the simulated throughput of this workload swings
/// ±30 % from seed to seed, which would hide any change under test.
const TWEETS_DATASET_SEED: u64 = 0x7EE7;

fn tweets(scale: Scale, seed: u64) -> SimInputs {
    let mut stream = TweetStream::scaled_default(TWEETS_DATASET_SEED);
    stream.count = scale.of(stream.count * 2);
    stream.rate_per_sec = 50_000.0; // saturating offered load
    let w = AnnotationWorkload::scaled_default(TWEETS_DATASET_SEED);

    // `TweetStream::generate` with the draws (not the trend map) on `seed`.
    let zipf = Zipf::new(stream.vocab, stream.skew);
    let trends = ShiftingKeyMap::banded(
        stream.vocab as u64,
        (stream.count / stream.trend_shifts).max(1),
        TWEETS_DATASET_SEED,
    );
    let mut rng = stream_rng(seed, "tweets");
    let gap = SimDuration::from_secs_f64(1.0 / stream.rate_per_sec);
    let mut at = SimTime::ZERO;
    let mut tuples = Vec::new();
    for id in 0..stream.count {
        at += gap;
        if !rng.gen_bool(stream.annotatable_frac) {
            continue;
        }
        for _ in 0..rng.gen_range(1..=stream.max_spots) {
            tuples.push(JobTuple {
                seq: tuples.len() as u64,
                keys: vec![RowKey::from_u64(
                    trends.key_at(zipf.sample(&mut rng) as u64, id),
                )],
                params_size: stream.context_bytes,
                arrival: at,
            });
        }
    }

    let rows = (0..w.vocab as u64)
        .map(|token| {
            let data = prefix(token, 1, seed, w.model_prefix);
            let pad = w.model_bytes(token).saturating_sub(w.model_prefix as u64);
            (
                RowKey::from_u64(token),
                StoredValue::with_pad(data, pad, 1, w.classify_cpu(token)),
            )
        })
        .collect();
    let cluster = ClusterSpec::default();
    let feed = FeedMode::Stream {
        horizon: SimDuration::from_secs(100_000),
        window: window(256 * 50),
    };
    SimInputs {
        job: job(cluster, 100 << 20, feed, 0.002, seed),
        udf_out_bytes: 96,
        rows,
        tuples,
        updates: Vec::new(),
        shards: None,
        layout: Layout::HeadSpread {
            vocab: w.vocab as u64,
        },
    }
}

/// Inputs of the simulated workload `name`, or `None` for `serve_open`
/// and unknown names.
pub fn sim_inputs(name: &str, seed: u64, scale: Scale) -> Option<SimInputs> {
    Some(match name {
        "dh_batch" => synthetic(dh(scale, 4), seed),
        "ch_batch" => {
            let mut spec = SyntheticSpec::ch();
            spec.n_tuples = scale.of(spec.n_tuples * 25);
            synthetic(spec, seed)
        }
        "tweets_stream" => tweets(scale, seed),
        "dh_updates" => dh_updates(scale, seed),
        "dh_batch_par2" => SimInputs {
            shards: Some(2),
            ..synthetic(dh(scale, 2), seed)
        },
        _ => return None,
    })
}
