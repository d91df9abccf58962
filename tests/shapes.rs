//! Integration: the paper's qualitative results hold at test scale.

use std::sync::Arc;

use jl_core::{OptimizerConfig, Strategy};
use jl_engine::plan::{JobPlan, JobTuple};
use jl_engine::{build_store, run_job, ClusterSpec, FeedMode, JobSpec};
use jl_simkit::rng::stream_rng;
use jl_simkit::time::{SimDuration, SimTime};
use jl_store::{DigestUdf, RowKey, StoredValue, UdfRegistry};
use jl_workloads::KeyStream;

fn cluster() -> ClusterSpec {
    ClusterSpec {
        n_compute: 4,
        n_data: 4,
        ..ClusterSpec::default()
    }
}

fn run(strategy: Strategy, z: f64, udf_ms: u64, value_size: usize, n: u64) -> f64 {
    let c = cluster();
    let rows: Vec<(RowKey, StoredValue)> = (0..2000u64)
        .map(|k| {
            (
                RowKey::from_u64(k),
                StoredValue::with_pad(
                    k.to_le_bytes().to_vec(),
                    value_size as u64 - 8,
                    1,
                    SimDuration::from_millis(udf_ms),
                ),
            )
        })
        .collect();
    let store = build_store(&c, vec![("t".into(), rows)]);
    let mut ks = KeyStream::new(2000, z, 11);
    let mut rng = stream_rng(11, "shape");
    let tuples: Vec<JobTuple> = (0..n)
        .map(|seq| JobTuple {
            seq,
            keys: vec![RowKey::from_u64(ks.next_key(&mut rng))],
            params_size: 64,
            arrival: SimTime::ZERO,
        })
        .collect();
    let mut optimizer = OptimizerConfig::for_strategy(strategy);
    optimizer.batch_size = 32;
    optimizer.mem_cache_bytes = 4 << 20;
    let mut udfs = UdfRegistry::new();
    udfs.register(0, Arc::new(DigestUdf { out_bytes: 64 }));
    let job = JobSpec::new(
        c,
        optimizer,
        FeedMode::Batch { window: 96 },
        JobPlan::single(0, 0),
        11,
        udf_ms as f64 / 1000.0,
    );
    run_job(&job, store, udfs, tuples, vec![])
        .duration
        .as_secs_f64()
}

#[test]
fn full_optimizer_beats_no_opt() {
    let no = run(Strategy::NoOpt, 1.0, 5, 4096, 6000);
    let fo = run(Strategy::Full, 1.0, 5, 4096, 6000);
    assert!(fo < no, "FO {fo} !< NO {no}");
}

#[test]
fn data_side_degrades_under_compute_heavy_skew() {
    // CH-like: FD at high skew piles UDF work on one data node.
    let fd_uniform = run(Strategy::DataSide, 0.0, 20, 1024, 2500);
    let fd_skewed = run(Strategy::DataSide, 1.5, 20, 1024, 2500);
    assert!(
        fd_skewed > fd_uniform * 1.5,
        "FD skew penalty missing: {fd_uniform} -> {fd_skewed}"
    );
    // The full optimizer absorbs the same skew.
    let fo_skewed = run(Strategy::Full, 1.5, 20, 1024, 2500);
    assert!(
        fo_skewed < fd_skewed,
        "FO {fo_skewed} !< FD {fd_skewed} under skew"
    );
}

#[test]
fn caching_pays_off_under_data_heavy_skew() {
    // DH-like: CO should improve as skew concentrates accesses.
    let co_low = run(Strategy::CacheOnly, 0.0, 0, 65_536, 5000);
    let co_high = run(Strategy::CacheOnly, 1.5, 0, 65_536, 5000);
    assert!(
        co_high < co_low * 1.1,
        "caching should not degrade under skew: {co_low} -> {co_high}"
    );
}

#[test]
fn balancing_beats_all_or_nothing_for_compute_heavy() {
    let fc = run(Strategy::ComputeSide, 0.0, 20, 1024, 2500);
    let fd = run(Strategy::DataSide, 0.0, 20, 1024, 2500);
    let lo = run(Strategy::BalanceOnly, 0.0, 20, 1024, 2500);
    assert!(
        lo < fc && lo < fd,
        "LO {lo} should beat FC {fc} and FD {fd}"
    );
}

#[test]
fn elasticity_more_compute_nodes_help_compute_bound_jobs() {
    // §1: compute nodes hold no state beyond caches, so they can be added
    // freely; a CPU-bound job should speed up with compute-node count.
    fn with_nodes(n_compute: usize) -> f64 {
        let c = ClusterSpec {
            n_compute,
            n_data: 4,
            ..ClusterSpec::default()
        };
        let rows: Vec<(RowKey, StoredValue)> = (0..500u64)
            .map(|k| {
                (
                    RowKey::from_u64(k),
                    StoredValue::new(k.to_le_bytes().to_vec(), 1, SimDuration::from_millis(25)),
                )
            })
            .collect();
        let store = build_store(&c, vec![("t".into(), rows)]);
        let mut ks = KeyStream::new(500, 0.5, 13);
        let mut rng = stream_rng(13, "elastic");
        let tuples: Vec<JobTuple> = (0..3000u64)
            .map(|seq| JobTuple {
                seq,
                keys: vec![RowKey::from_u64(ks.next_key(&mut rng))],
                params_size: 64,
                arrival: SimTime::ZERO,
            })
            .collect();
        let mut udfs = UdfRegistry::new();
        udfs.register(0, Arc::new(DigestUdf { out_bytes: 64 }));
        let job = JobSpec::new(
            c,
            OptimizerConfig::for_strategy(Strategy::Full),
            FeedMode::Batch { window: 96 },
            JobPlan::single(0, 0),
            13,
            0.025,
        );
        run_job(&job, store, udfs, tuples, vec![])
            .duration
            .as_secs_f64()
    }
    let two = with_nodes(2);
    let eight = with_nodes(8);
    assert!(
        eight < two * 0.7,
        "8 compute nodes ({eight}s) should beat 2 ({two}s)"
    );
}
