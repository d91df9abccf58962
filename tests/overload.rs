//! End-to-end guarantees of the overload-protection plane: protection is
//! byte-inert when permissive, sheds nothing at nominal load, engages
//! under sustained overload, keeps every data queue under its cap
//! (property-tested across random configurations), and exercises the wire
//! backpressure path under tiny admission caps. Every run reconciles
//! against its reference join exactly once.

use jl_bench::{fuzz_spec, overload_bounded_config, run_overload_stream, SyntheticCell};
use jl_core::ShedMode;
use jl_engine::{ClusterSpec, OverloadConfig, RunReport};
use jl_simkit::time::SimDuration;
use jl_workloads::SyntheticSpec;
use proptest::prelude::*;

/// The full optimizer over `spec` at skew `z` with the figure-standard
/// 32 MB cache, on `cluster`.
fn cell(spec: &SyntheticSpec, z: f64, cluster: &ClusterSpec, seed: u64) -> SyntheticCell {
    SyntheticCell {
        cluster: cluster.clone(),
        ..SyntheticCell::new(spec.clone(), z, seed)
    }
}

/// `cell` offered at `gap` under `overload`, reconciled against its
/// reference join. The horizon lies far past any arrival: the stream
/// always drains, so the check covers every offered tuple.
fn stream(cell: &SyntheticCell, gap: SimDuration, overload: Option<OverloadConfig>) -> RunReport {
    let r = run_overload_stream(cell, gap, SimDuration::from_secs(100_000), overload);
    cell.expected().check(&r).unwrap();
    r
}

/// Inter-arrival gap offering `load`× the cluster's calibrated service
/// rate for this spec.
fn gap_for(spec: &SyntheticSpec, cluster: &ClusterSpec, seed: u64, load: f64) -> SimDuration {
    let firehose = SimDuration::from_micros(1);
    let mu = stream(&cell(spec, 0.0, cluster, seed), firehose, None)
        .throughput()
        .max(1.0);
    SimDuration::from_secs_f64(1.0 / (mu * load))
}

#[test]
fn permissive_config_is_byte_inert() {
    let spec = fuzz_spec(800);
    let cluster = ClusterSpec::default();
    let gap = gap_for(&spec, &cluster, 11, 1.5);
    let mut off = stream(&cell(&spec, 0.8, &cluster, 11), gap, None);
    let mut perm = stream(
        &cell(&spec, 0.8, &cluster, 11),
        gap,
        Some(OverloadConfig::permissive()),
    );
    // The only thing a permissive config may change is the measurement
    // itself: queue depths are tracked instead of ignored.
    assert!(
        perm.peak_queue_depth > 0,
        "permissive config measured nothing"
    );
    off.peak_queue_depth = 0;
    perm.peak_queue_depth = 0;
    assert_eq!(
        format!("{off:?}"),
        format!("{perm:?}"),
        "permissive overload config perturbed the simulation"
    );
}

#[test]
fn bounded_config_is_inert_at_nominal_load() {
    let spec = fuzz_spec(800);
    let cluster = ClusterSpec::default();
    let gap = gap_for(&spec, &cluster, 13, 0.5);
    let off = stream(&cell(&spec, 0.0, &cluster, 13), gap, None);
    let deadline = SimDuration::from_secs_f64(off.p99_latency.as_secs_f64() * 4.0);
    let bounded = stream(
        &cell(&spec, 0.0, &cluster, 13),
        gap,
        Some(overload_bounded_config(
            spec.n_tuples as usize / cluster.n_compute,
            Some(deadline),
        )),
    );
    assert!(bounded.outcomes.is_empty(), "shed or gave up at half load");
}

#[test]
fn protection_engages_with_complete_accounting_at_overload() {
    let spec = fuzz_spec(2400);
    let cluster = ClusterSpec::default();
    let seed = 17;
    let gap = gap_for(&spec, &cluster, seed, 0.5);
    let nominal = stream(&cell(&spec, 0.0, &cluster, seed), gap, None);
    // 3x the calibrated capacity with a deadline of twice the nominal
    // tail: the ingest queue outgrows its cap, queued tuples age past
    // their budget, and the shed policy must drop the difference.
    let hot_gap = SimDuration::from_secs_f64(gap.as_secs_f64() / 6.0);
    let deadline = SimDuration::from_secs_f64(nominal.p99_latency.as_secs_f64() * 2.0);
    let cfg = overload_bounded_config(spec.n_tuples as usize / cluster.n_compute, Some(deadline));
    let cap = cfg.data_queue_cap;
    let r = stream(&cell(&spec, 0.0, &cluster, seed), hot_gap, Some(cfg));
    assert!(r.shed > 0, "protection never engaged at 3x load");
    assert!(
        r.peak_queue_depth <= cap,
        "peak queue {} exceeded cap {}",
        r.peak_queue_depth,
        cap
    );
}

#[test]
fn tiny_admission_cap_exercises_wire_backpressure() {
    let spec = fuzz_spec(800);
    let cluster = ClusterSpec::default();
    let seed = 23;
    let gap = gap_for(&spec, &cluster, seed, 2.0);
    let cfg = OverloadConfig {
        data_queue_cap: 8,
        high_watermark: 4,
        low_watermark: 2,
        compute_queue_cap: 4096,
        deadline: None,
        nack_backoff: SimDuration::from_millis(1),
        shed: ShedMode::OldestFirst,
    };
    let r = stream(&cell(&spec, 0.8, &cluster, seed), gap, Some(cfg));
    assert!(
        r.backpressure_events > 0,
        "an 8-item admission cap at 2x load never NACKed"
    );
    assert!(r.peak_queue_depth <= 8);
    // NACK + re-present is flow control, not loss: with no deadline every
    // tuple still completes.
    assert!(r.outcomes.is_empty(), "backpressure lost tuples");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The hard bound: whatever the configuration, skew, or offered
    /// load, no data node's ingest queue ever exceeds its cap, and the
    /// run reconciles exactly once (`stream` checks it).
    #[test]
    fn queue_depth_never_exceeds_bound(
        cap in 1u64..64,
        compute_cap in 8usize..128,
        load_pct in 50u64..300,
        z_tenths in 0u64..13,
        seed in 0u64..1000,
    ) {
        let spec = fuzz_spec(300);
        let cluster = ClusterSpec { n_compute: 4, n_data: 4, ..ClusterSpec::default() };
        let gap = gap_for(&spec, &cluster, seed, load_pct as f64 / 100.0);
        let cfg = OverloadConfig {
            data_queue_cap: cap,
            high_watermark: (cap / 2).max(1),
            low_watermark: (cap / 4).max(1),
            compute_queue_cap: compute_cap,
            deadline: Some(SimDuration::from_millis(20)),
            nack_backoff: SimDuration::from_millis(1),
            shed: ShedMode::DeadlineAware,
        };
        let z = z_tenths as f64 / 10.0;
        let r = stream(&cell(&spec, z, &cluster, seed), gap, Some(cfg));
        prop_assert!(
            r.peak_queue_depth <= cap,
            "peak {} > cap {}", r.peak_queue_depth, cap
        );
    }
}
