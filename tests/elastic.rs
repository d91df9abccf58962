//! Elastic membership end-to-end: live region migration, graceful drain,
//! and crash-during-handoff recovery must all preserve the exactly-once
//! contract — every tuple completes exactly once and the join fingerprint
//! matches the sequential reference, whatever the topology does mid-run.

use std::sync::Arc;

use jl_core::{OptimizerConfig, Strategy};
use jl_engine::plan::{JobPlan, JobTuple};
use jl_engine::{
    build_store_active, run_job, run_job_on, Backend, ClusterSpec, Expected, FeedMode, JobSpec,
    MembershipConfig, MembershipEvent, RetryConfig, RunReport,
};
use jl_simkit::fault::FaultPlan;
use jl_simkit::rng::stream_rng;
use jl_simkit::time::{SimDuration, SimTime};
use jl_store::{DigestUdf, RowKey, StoreCluster, StoredValue, UdfRegistry};
use jl_workloads::KeyStream;

const N_KEYS: u64 = 1_200;
const N_TUPLES: u64 = 3_000;

fn cluster(n_data: usize) -> ClusterSpec {
    ClusterSpec {
        n_compute: 3,
        n_data,
        ..ClusterSpec::default()
    }
}

fn rows() -> Vec<(RowKey, StoredValue)> {
    (0..N_KEYS)
        .map(|k| {
            (
                RowKey::from_u64(k),
                StoredValue::new(
                    k.to_le_bytes().repeat(129), // ~1 KiB values
                    1,
                    SimDuration::from_millis(1 + k % 3),
                ),
            )
        })
        .collect()
}

fn udfs() -> UdfRegistry {
    let mut u = UdfRegistry::new();
    u.register(0, Arc::new(DigestUdf { out_bytes: 48 }));
    u
}

fn tuples() -> Vec<JobTuple> {
    let mut ks = KeyStream::new(N_KEYS as usize, 0.9, 5);
    let mut rng = stream_rng(5, "elastic");
    (0..N_TUPLES)
        .map(|seq| JobTuple {
            seq,
            keys: vec![RowKey::from_u64(ks.next_key(&mut rng))],
            params_size: 48,
            arrival: SimTime::ZERO,
        })
        .collect()
}

fn store(cluster: &ClusterSpec, active: usize) -> StoreCluster {
    build_store_active(cluster, vec![("t".into(), rows())], active)
}

fn retry() -> RetryConfig {
    RetryConfig {
        timeout: SimDuration::from_millis(50),
        backoff_cap: SimDuration::from_millis(400),
        max_retries: 8,
        down_cooldown: SimDuration::from_millis(200),
    }
}

fn job(cluster: &ClusterSpec, membership: MembershipConfig) -> JobSpec {
    let mut optimizer = OptimizerConfig::for_strategy(Strategy::Full);
    optimizer.batch_size = 16;
    optimizer.mem_cache_bytes = 64 * 1024;
    JobSpec {
        membership: Some(membership),
        ..JobSpec::new(
            cluster.clone(),
            optimizer,
            FeedMode::Batch { window: 48 },
            JobPlan::single(0, 0),
            3,
            0.002,
        )
    }
}

/// Every tuple completes exactly once with the sequential reference's
/// output, none shed and none given up.
fn assert_exactly_once(r: &RunReport) {
    let c = cluster(4);
    let expected = Expected::new(&store(&c, 4), &udfs(), &JobPlan::single(0, 0), &tuples());
    expected.check(r).unwrap();
    assert!(r.outcomes.is_empty(), "{:?}", r.outcomes);
}

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// Scripted joins and a graceful decommission on a healthy cluster: the
/// topology triples mid-run, then sheds a node, and the join output is
/// byte-identical to a static execution.
#[test]
fn nominal_churn_preserves_the_join_exactly_once() {
    let c = cluster(4);
    let mut m = MembershipConfig::static_active(2);
    m.events = vec![
        (ms(10), MembershipEvent::Join(2)),
        (ms(25), MembershipEvent::Join(3)),
        (ms(40), MembershipEvent::Decommission(0)),
    ];
    let r = run_job(&job(&c, m), store(&c, 2), udfs(), tuples(), vec![]);
    assert_exactly_once(&r);
    assert!(r.migrations > 0, "no region ever migrated");
    assert!(r.migrated_bytes > 0);
    assert_eq!(r.migrations_aborted, 0, "healthy handoffs must not abort");
    assert_eq!(r.drained_nodes, 1, "decommissioned node never drained");
    // The elastic fleet must cost less than a static 4-node fleet.
    let static_cost = 4.0 * r.duration.as_secs_f64();
    assert!(
        r.node_seconds < static_cost,
        "elastic node-seconds {} not below static {}",
        r.node_seconds,
        static_cost
    );
}

/// Crash the migration *source* mid-handoff: the stranded migrations
/// abort, the crashed node's regions fail over to its build-time replica,
/// and the run still completes exactly-once.
#[test]
fn source_crash_mid_handoff_falls_back_to_replica() {
    let c = cluster(3);
    let mut m = MembershipConfig::static_active(2);
    m.events = vec![(ms(10), MembershipEvent::Join(2))];
    m.migration_timeout = ms(10);
    let mut j = job(&c, m);
    // Node 0 donates regions to the joiner starting at 10 ms; the crash
    // lands ~500 µs later, between handoff phases (each hop is 200 µs).
    j.faults = Some(FaultPlan::new(9).crash(
        c.data_id(0),
        SimTime::ZERO + SimDuration::from_micros(10_500),
        None,
    ));
    j.retry = Some(retry());
    let r = run_job(&j, store(&c, 2), udfs(), tuples(), vec![]);
    assert_exactly_once(&r);
    assert!(
        r.migrations_aborted >= 1,
        "the stranded handoff never aborted"
    );
    assert!(
        r.failovers > 0,
        "no request ever failed over to the replica"
    );
}

/// Crash the migration *target* mid-handoff: every source times out,
/// replays its frozen writes locally, and keeps its region — ownership
/// never moves, and the run completes exactly-once.
#[test]
fn target_crash_mid_handoff_aborts_cleanly() {
    let c = cluster(3);
    let mut m = MembershipConfig::static_active(2);
    m.events = vec![(ms(10), MembershipEvent::Join(2))];
    m.migration_timeout = ms(10);
    let mut j = job(&c, m);
    j.faults = Some(FaultPlan::new(9).crash(
        c.data_id(2),
        SimTime::ZERO + SimDuration::from_micros(10_500),
        None,
    ));
    j.retry = Some(retry());
    let r = run_job(&j, store(&c, 2), udfs(), tuples(), vec![]);
    assert_exactly_once(&r);
    assert!(r.migrations_aborted >= 1, "no handoff aborted");
    assert_eq!(
        r.migrations, 0,
        "a handoff claimed to complete into a dead target"
    );
    assert_eq!(r.drained_nodes, 0);
}

/// A node decommissioned while its own join is still streaming regions in
/// (the first handoff in flight, the rest pending behind the one-per-target
/// admission rule) must still drain: every region that lands on it after
/// the drain began is planned off again.
#[test]
fn drain_that_starts_mid_join_still_completes() {
    let c = cluster(4);
    let mut m = MembershipConfig::static_active(3);
    m.events = vec![
        (ms(10), MembershipEvent::Join(3)),
        (
            SimDuration::from_micros(10_300),
            MembershipEvent::Decommission(3),
        ),
    ];
    let r = run_job(&job(&c, m), store(&c, 3), udfs(), tuples(), vec![]);
    assert_exactly_once(&r);
    assert_eq!(r.drained_nodes, 1, "the mid-join drain never finished");
}

/// The acceptance churn plan: 3 joins, 3 decommissions, and a crash
/// during an active migration (restarting later), on a 6-node fleet
/// starting at 3 active. Reconciliation is exact.
fn churn_job() -> (JobSpec, StoreCluster) {
    let c = cluster(6);
    let mut m = MembershipConfig::static_active(3);
    m.min_active = 2;
    m.migration_timeout = ms(10);
    m.events = vec![
        (ms(5), MembershipEvent::Join(3)),
        (ms(10), MembershipEvent::Join(4)),
        (ms(15), MembershipEvent::Join(5)),
        (ms(40), MembershipEvent::Decommission(0)),
        (ms(55), MembershipEvent::Decommission(3)),
        (ms(70), MembershipEvent::Decommission(1)),
    ];
    let mut j = job(&c, m);
    // Node 4 is hit while regions are migrating onto it (join at 10 ms,
    // crash 500 µs in), and comes back at 80 ms.
    j.faults = Some(FaultPlan::new(9).crash(
        c.data_id(4),
        SimTime::ZERO + SimDuration::from_micros(10_500),
        Some(SimTime::ZERO + ms(80)),
    ));
    j.retry = Some(retry());
    let s = store(&c, 3);
    (j, s)
}

#[test]
fn seeded_churn_plan_reconciles_exactly_once() {
    let (j, s) = churn_job();
    let r = run_job(&j, s, udfs(), tuples(), vec![]);
    assert_exactly_once(&r);
    assert!(r.migrations >= 4, "got {} migrations", r.migrations);
    assert!(
        r.migrations_aborted >= 1,
        "the crash aborted no in-flight handoff"
    );
    assert_eq!(r.drained_nodes, 3, "every scripted decommission drains");
}

/// The churn plan — crash, migrations, drains, retries and all — must
/// replay bit-identically from its seed (the membership plane's
/// determinism pin).
#[test]
fn churn_replays_bit_identically() {
    let run = || {
        let (j, s) = churn_job();
        format!("{:?}", run_job(&j, s, udfs(), tuples(), vec![]))
    };
    assert_eq!(run(), run(), "membership run differs between replays");
}

/// Backend parity: a join cycle on the wall-clock runtime reconciles
/// against the reference join exactly as the simulator does (durations
/// differ; correctness must not).
#[test]
fn elastic_run_matches_sim_and_real() {
    // A lighter cell so the wall-clock run stays fast: tiny UDF cost,
    // fewer tuples.
    let c = cluster(3);
    let light_rows: Vec<(RowKey, StoredValue)> = (0..N_KEYS)
        .map(|k| {
            (
                RowKey::from_u64(k),
                StoredValue::new(k.to_le_bytes().repeat(17), 1, SimDuration::from_micros(50)),
            )
        })
        .collect();
    let light_tuples: Vec<JobTuple> = tuples().into_iter().take(900).collect();
    let mut m = MembershipConfig::static_active(2);
    m.events = vec![(ms(5), MembershipEvent::Join(2))];
    let j = job(&c, m);
    let build = || build_store_active(&c, vec![("t".into(), light_rows.clone())], 2);
    let expected = Expected::new(&build(), &udfs(), &j.plan, &light_tuples);
    let sim = run_job(&j, build(), udfs(), light_tuples.clone(), vec![]);
    assert!(sim.migrations > 0, "sim run never migrated");
    let real = run_job_on(&j, Backend::Real, build(), udfs(), light_tuples, vec![]).0;
    for (backend, r) in [("sim", &sim), ("real", &real)] {
        expected.check(r).expect(backend);
        assert!(r.outcomes.is_empty(), "{backend}: {:?}", r.outcomes);
    }
}
