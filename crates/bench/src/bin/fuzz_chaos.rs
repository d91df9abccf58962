//! Seeded chaos + overload fuzzer: random fault plans layered over random
//! overload workloads, with per-run invariants reconciled against a
//! direct reference execution of the same job.
//!
//! Usage: `fuzz_chaos [--seed N] [--iters N] [--start K] [--tuples N]
//!                    [--no-faults] [--no-overload] [--no-deadline]
//!                    [--churn] [--no-churn]`
//!
//! Each iteration derives an independent case from `(seed, index)`: a
//! skew/offered-load point, an issue window, an overload configuration
//! (permissive or bounded, with or without a deadline budget, one of the
//! three shed policies), optionally a random fault plan (crash with
//! or without restart, straggler, lossy link, delay) with retries scaled
//! to a fault-free calibration run of the identical job, and optionally
//! a membership-churn plan (start on three of the four data nodes, a
//! seeded join of the fourth early in the run and a seeded decommission
//! of a loaded node later — both free to collide with the fault windows,
//! so crashes land mid-migration and drains retry around dead targets).
//! Invariants checked on every run:
//!
//! 1. **Exactly-once** — both the healthy calibration run and the fuzzed
//!    run reconcile against the reference join through
//!    [`jl_engine::Expected::check`]: every offered tuple completed or
//!    was shed, the outcome log agrees with the counters, and the output
//!    fingerprint is the reference minus exactly the shed and gave-up
//!    tuples' contributions — so a lost or a duplicated output (XOR
//!    cancels pairs) is caught, not masked. The healthy run must also
//!    shed and give up nothing.
//! 2. **Bounds** — the peak data-node ingest queue depth never exceeds
//!    `data_queue_cap`. Skipped under churn: a draining node accepts its
//!    migration handoff past the cap by design.
//! 3. **Churn liveness** — a churn case must at least attempt a
//!    migration (completed or aborted); a silently inert membership
//!    plane would otherwise pass every other check.
//!
//! On a violation the case is minimized — churn off, then faults off,
//! then overload down to permissive, then deadline off, then tuple count
//! halved — and the smallest still-failing case is printed as a repro
//! command.

use jl_bench::experiments::JobInputs;
use jl_bench::{fuzz_spec, pace, SyntheticCell};
use jl_core::ShedMode;
use jl_engine::{
    chaos_retry, run_job, ClusterSpec, Expected, FeedMode, MembershipConfig, MembershipEvent,
    OverloadConfig, RetryConfig, RunReport,
};
use jl_simkit::fault::FaultPlan;
use jl_simkit::rng::{splitmix64, stream_rng};
use jl_simkit::time::{SimDuration, SimTime};
use rand::Rng;

/// One fully-derived fuzz case. Every field the minimizer may flip is
/// explicit here, so a printed case is a complete repro.
#[derive(Clone)]
struct Case {
    /// Per-iteration seed (derived from the root seed and the index).
    seed: u64,
    z: f64,
    /// Offered load as a multiple of the calibrated service rate.
    load: f64,
    n_tuples: u64,
    /// Issue window per compute node, in tuples.
    window: usize,
    faults: bool,
    /// `false` = permissive (measure-only) overload config.
    bounded: bool,
    data_cap: u64,
    compute_cap: usize,
    shed: ShedMode,
    /// Deadline budget as a multiple of the healthy run's p99; `None`
    /// disables deadline propagation.
    deadline_mult: Option<f64>,
    nack_backoff: SimDuration,
    /// Enable retries even without faults (timeouts on healthy traffic
    /// must never duplicate completions).
    retry: bool,
    /// Use hair-trigger retry timeouts (scaled to the healthy p99, few
    /// attempts) instead of the generous chaos defaults. Premature
    /// timeouts duplicate work and exhaust retries against stragglers —
    /// the only realistic route to gave-up tuples, and the sharpest test
    /// that late replies to abandoned requests never double-complete.
    aggressive_retry: bool,
    /// Layer a seeded membership-churn plan (join + decommission) over
    /// whatever faults and overload the case already has.
    churn: bool,
    /// Calibrated fault-free service rate, tuples/sec.
    mu: f64,
}

impl Case {
    fn derive(root: u64, index: u64, mu: f64) -> Self {
        let mut s = root ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let seed = splitmix64(&mut s);
        let mut rng = stream_rng(seed, "case");
        Case {
            seed,
            z: [0.0, 0.8, 1.2][rng.gen_range(0..3usize)],
            load: [0.5, 1.0, 2.0, 3.0][rng.gen_range(0..4usize)],
            n_tuples: rng.gen_range(150..400),
            window: [2usize, 4, 8][rng.gen_range(0..3usize)] * 8,
            faults: rng.gen_bool(0.5),
            bounded: rng.gen_bool(0.75),
            data_cap: [8u64, 32, 256][rng.gen_range(0..3usize)],
            compute_cap: [16, 64, 256][rng.gen_range(0..3usize)],
            shed: [
                ShedMode::OldestFirst,
                ShedMode::DeadlineAware,
                ShedMode::KeyFreq,
            ][rng.gen_range(0..3usize)],
            deadline_mult: rng
                .gen_bool(0.6)
                .then(|| [2.0, 6.0][rng.gen_range(0..2usize)]),
            nack_backoff: SimDuration::from_micros([500u64, 2000][rng.gen_range(0..2usize)]),
            retry: rng.gen_bool(0.3),
            aggressive_retry: rng.gen_bool(0.4),
            // Drawn last so every earlier field keeps the value it had
            // before churn existed: old seeds reproduce their old cases.
            churn: rng.gen_bool(0.4),
            mu,
        }
    }

    fn describe(&self) -> String {
        format!(
            "z={} load={}x n={} window={} faults={} churn={} overload={} deadline={:?} shed={:?} retry={}",
            self.z,
            self.load,
            self.n_tuples,
            self.window,
            self.faults,
            self.churn,
            if self.bounded {
                format!("cap{}/{}", self.data_cap, self.compute_cap)
            } else {
                "permissive".into()
            },
            self.deadline_mult,
            self.shed,
            match (self.retry || self.faults, self.aggressive_retry) {
                (false, _) => "off",
                (true, false) => "chaos",
                (true, true) => "aggressive",
            },
        )
    }
}

fn fuzz_cluster() -> ClusterSpec {
    ClusterSpec {
        n_compute: 4,
        n_data: 4,
        // Fine-grained regions (~0.5 MB at the fuzz value size) keep a
        // single region migration well under the churn plan's capped
        // timeout, so low-load churn cases complete migrations while
        // high-load ones abort — both protocol paths get fuzzed.
        regions_per_node: 16,
        ..ClusterSpec::default()
    }
}

/// The fuzz job, its regions on the first `active` data nodes: `n`
/// tuples of [`fuzz_spec`] at skew `z`, arriving `gap` apart, streamed
/// through an issue window of `window` tuples per compute node.
fn fuzz_job(
    n: u64,
    z: f64,
    seed: u64,
    gap: SimDuration,
    window: usize,
    active: usize,
) -> JobInputs {
    let cell = SyntheticCell {
        cluster: fuzz_cluster(),
        mem_cache: 100 << 20,
        ..SyntheticCell::new(fuzz_spec(n), z, seed)
    };
    let (mut job, store, udfs, mut tuples) = cell.build_on(active);
    pace(&mut tuples, |_| gap);
    job.feed = FeedMode::Stream {
        horizon: SimDuration::from_secs(100_000),
        window,
    };
    (job, store, udfs, tuples)
}

/// Random fault plan over the first three data nodes, with windows as
/// fractions of the fault-free baseline duration. Always yields at least
/// one fault.
fn fault_plan(case: &Case, cluster: &ClusterSpec, baseline: SimDuration) -> FaultPlan {
    let mut rng = stream_rng(case.seed, "faults");
    let d = baseline.as_secs_f64();
    let at = |f: f64| SimTime::ZERO + SimDuration::from_secs_f64(d * f);
    let mut plan = FaultPlan::new(case.seed);
    let mut any = false;
    if rng.gen_bool(0.7) {
        let start = rng.gen_range(0.05..0.6);
        let end = start + rng.gen_range(0.05..0.3);
        let restart = rng.gen_bool(0.7).then(|| at(end));
        let permanent = restart.is_none();
        plan = plan.crash(cluster.data_id(0), at(start), restart);
        // A permanent crash sometimes takes a second node down with it:
        // with both of a region's homes dead, failover has nowhere to
        // go and retries must exhaust — the only path that produces
        // gave-up tuples, which the fingerprint reconciliation must
        // subtract correctly.
        if permanent && rng.gen_bool(0.5) {
            plan = plan.crash(cluster.data_id(3), at(start), None);
        }
        any = true;
    }
    if rng.gen_bool(0.6) {
        let start = rng.gen_range(0.05..0.6);
        let end = start + rng.gen_range(0.05..0.3);
        let factor = rng.gen_range(2.0..6.0);
        plan = plan.straggle(cluster.data_id(1), (at(start), at(end)), factor);
        any = true;
    }
    if rng.gen_bool(0.6) {
        let start = rng.gen_range(0.05..0.6);
        let end = start + rng.gen_range(0.05..0.3);
        let p = rng.gen_range(0.01..0.05);
        plan = plan.drop_link(None, Some(cluster.data_id(2)), (at(start), at(end)), p);
        any = true;
    }
    if rng.gen_bool(0.5) {
        let start = rng.gen_range(0.05..0.6);
        let end = start + rng.gen_range(0.05..0.3);
        let delay = SimDuration::from_millis(rng.gen_range(1u64..8));
        plan = plan.delay_link(None, Some(cluster.data_id(2)), (at(start), at(end)), delay);
        any = true;
    }
    if !any {
        plan = plan.crash(cluster.data_id(0), at(0.2), Some(at(0.5)));
    }
    plan
}

/// Seeded membership churn on the 4+4 fuzz cluster: start on three data
/// nodes, join the fourth early in the run, decommission node 1 or 2
/// later. The victims are deliberate: node 0 may be crash-faulted
/// (sometimes permanently) and node 3 is the joiner — and because the
/// join target itself can be the fault plan's second permanent-crash
/// victim, joins into dead nodes and drains racing live faults are all
/// on the menu. Windows are fractions of the fault-free baseline, like
/// the fault plan's, so churn and faults genuinely overlap.
///
/// The join lands by 12% of the baseline and the migration timeout is
/// capped so the join's first migration provably resolves — completed or
/// aborted — before the last tuple even arrives, the earliest instant
/// the run can end. The run cannot end before the arrival span, which is
/// the baseline compressed by `load` (for load > 1; the baseline itself
/// otherwise), so the cap scales with 1/load: low-load cases get room
/// for whole-region transfers to finish, high-load cases become abort
/// storms — both sides of the protocol get fuzzed, and the
/// churn-liveness invariant stays checkable: zero attempts means the
/// membership plane is inert, not that the run was too short.
fn churn_plan(case: &Case, baseline: SimDuration, timeout: SimDuration) -> MembershipConfig {
    let mut rng = stream_rng(case.seed, "churn");
    let d = baseline.as_secs_f64();
    let at = |f: f64| SimDuration::from_secs_f64(d * f);
    let join = rng.gen_range(0.02..0.12);
    let leave = rng.gen_range(0.35..0.6);
    let victim = rng.gen_range(1..3usize);
    let cap = d * (1.0 / case.load.max(1.0) - 0.12) * 0.9;
    let mut m = MembershipConfig::static_active(3);
    m.min_active = 2;
    m.migration_timeout = timeout.min(SimDuration::from_secs_f64(cap));
    m.events = vec![
        (at(join), MembershipEvent::Join(3)),
        (at(leave), MembershipEvent::Decommission(victim)),
    ];
    m
}

/// The case's overload config.
fn overload_for(case: &Case, healthy_p99: SimDuration) -> OverloadConfig {
    let cfg = if case.bounded {
        OverloadConfig {
            data_queue_cap: case.data_cap,
            high_watermark: (case.data_cap / 2).max(1),
            low_watermark: (case.data_cap / 4).max(1),
            compute_queue_cap: case.compute_cap,
            deadline: case
                .deadline_mult
                .map(|m| SimDuration::from_secs_f64((healthy_p99.as_secs_f64() * m).max(2e-3))),
            nack_backoff: case.nack_backoff,
            shed: case.shed,
        }
    } else {
        OverloadConfig::permissive()
    };
    cfg.validate();
    cfg
}

/// The case's retry knobs: the generous chaos defaults, or hair-trigger
/// timeouts anchored to the healthy run's p99.
fn retry_for(case: &Case, healthy: &RunReport) -> RetryConfig {
    if !case.aggressive_retry {
        return chaos_retry(healthy.duration);
    }
    let mut rng = stream_rng(case.seed, "retry");
    let t = (healthy.p99_latency.as_secs_f64() * rng.gen_range(0.3f64..1.0)).max(2e-3);
    RetryConfig {
        timeout: SimDuration::from_secs_f64(t),
        backoff_cap: SimDuration::from_secs_f64(t * 4.0),
        max_retries: rng.gen_range(0..3),
        down_cooldown: SimDuration::from_secs_f64(t * 2.0),
    }
}

/// Run one case end to end: reference pass, fault-free calibration run,
/// then the fuzzed run, with invariants on both runs.
fn run_case(case: &Case) -> Result<RunReport, String> {
    let gap = SimDuration::from_secs_f64(1.0 / (case.mu * case.load));
    let job = |active| fuzz_job(case.n_tuples, case.z, case.seed, gap, case.window, active);
    let n_data = fuzz_cluster().n_data;

    // Reference: the whole job executed directly against the store, with
    // each tuple's own contribution for outcome reconciliation.
    let (spec, ref_store, udfs, tuples) = job(n_data);
    let expected = Expected::new(&ref_store, &udfs, &spec.plan, &tuples);

    // Fault-free calibration: its duration scales the fault and churn
    // timelines and the retry timeouts, its p99 anchors the deadline
    // budget — and it must itself reproduce the reference exactly.
    let (mut spec, store, udfs, tuples) = job(n_data);
    spec.overload = Some(OverloadConfig::permissive());
    let healthy = run_job(&spec, store, udfs, tuples, vec![]);
    expected
        .check(&healthy)
        .map_err(|e| format!("healthy run: {e}"))?;
    if !healthy.outcomes.is_empty() {
        return Err(format!(
            "healthy run shed or gave up: {:?}",
            healthy.outcomes
        ));
    }

    let overload = overload_for(case, healthy.p99_latency);
    let faults = case
        .faults
        .then(|| fault_plan(case, &spec.cluster, healthy.duration));
    let retry = (case.faults || case.retry).then(|| retry_for(case, &healthy));
    let membership = case.churn.then(|| {
        let timeout = retry
            .as_ref()
            .map(|r| r.timeout)
            .unwrap_or_else(|| chaos_retry(healthy.duration).timeout);
        churn_plan(case, healthy.duration, timeout)
    });
    let (mut spec, store, udfs, tuples) =
        job(membership.as_ref().map_or(n_data, |m| m.initial_active));
    spec.faults = faults;
    spec.retry = retry;
    spec.overload = Some(overload);
    spec.membership = membership;
    let r = run_job(&spec, store, udfs, tuples, vec![]);
    expected.check(&r)?;
    // A draining node accepts its migration handoff past the cap by
    // design, so churn trades the queue bound for a liveness check.
    if !case.churn && r.peak_queue_depth > overload.data_queue_cap {
        return Err(format!(
            "peak data queue depth {} exceeds cap {}",
            r.peak_queue_depth, overload.data_queue_cap
        ));
    }
    if case.churn && r.migrations + r.migrations_aborted == 0 {
        return Err("churn case never attempted a migration".into());
    }
    Ok(r)
}

#[derive(Debug)]
struct Args {
    seed: u64,
    iters: u64,
    start: u64,
    tuples: Option<u64>,
    no_faults: bool,
    no_overload: bool,
    no_deadline: bool,
    /// `Some(true)` forces churn on every case (the CI membership-churn
    /// sweep), `Some(false)` forces it off, `None` leaves it to the dice.
    churn: Option<bool>,
}

const USAGE: &str = "usage: fuzz_chaos [--seed N] [--iters N] [--start K] [--tuples N]
                  [--no-faults] [--no-overload] [--no-deadline] [--churn] [--no-churn]";

/// Parse the command line (without the program name). Every flag must be
/// known and every value an unsigned integer, or the whole parse fails.
fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 7,
        iters: 100,
        start: 0,
        tuples: None,
        no_faults: false,
        no_overload: false,
        no_deadline: false,
        churn: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut num = || -> Result<u64, String> {
            let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            raw.parse()
                .map_err(|_| format!("{flag} {raw:?}: expected an unsigned integer"))
        };
        match flag.as_str() {
            "--seed" => parsed.seed = num()?,
            "--iters" => parsed.iters = num()?,
            "--start" => parsed.start = num()?,
            "--tuples" => parsed.tuples = Some(num()?),
            "--no-faults" => parsed.no_faults = true,
            "--no-overload" => parsed.no_overload = true,
            "--no-deadline" => parsed.no_deadline = true,
            "--churn" => parsed.churn = Some(true),
            "--no-churn" => parsed.churn = Some(false),
            other => return Err(format!("{other:?}: unknown option")),
        }
    }
    Ok(parsed)
}

fn apply_overrides(case: &mut Case, args: &Args) {
    if let Some(n) = args.tuples {
        case.n_tuples = n;
    }
    if args.no_faults {
        case.faults = false;
        case.retry = false;
    }
    if args.no_overload {
        case.bounded = false;
    }
    if args.no_deadline {
        case.deadline_mult = None;
    }
    if let Some(churn) = args.churn {
        case.churn = churn;
    }
}

/// Shrink a failing case: drop churn, drop faults, drop the bounded
/// config, drop the deadline, then halve the tuple count — keeping each
/// simplification only if the case still fails. Returns the minimal case
/// and its error.
fn minimize(mut case: Case, mut err: String) -> (Case, String, Vec<&'static str>) {
    type Step = (&'static str, fn(&mut Case));
    let mut flags = Vec::new();
    let steps: [Step; 4] = [
        ("--no-churn", |c| c.churn = false),
        ("--no-faults", |c| {
            c.faults = false;
            c.retry = false;
        }),
        ("--no-overload", |c| c.bounded = false),
        ("--no-deadline", |c| c.deadline_mult = None),
    ];
    for (flag, apply) in steps {
        let mut candidate = case.clone();
        apply(&mut candidate);
        if let Err(e) = run_case(&candidate) {
            case = candidate;
            err = e;
            flags.push(flag);
        }
    }
    while case.n_tuples >= 64 {
        let mut candidate = case.clone();
        candidate.n_tuples /= 2;
        match run_case(&candidate) {
            Err(e) => {
                case = candidate;
                err = e;
            }
            Ok(_) => break,
        }
    }
    (case, err, flags)
}

/// One firehose calibration pins the service rate (tuples/s); every
/// case's offered load is a multiple of it.
fn calibrate(seed: u64) -> f64 {
    let firehose = SimDuration::from_micros(1);
    let (mut job, store, udfs, tuples) =
        fuzz_job(400, 0.0, seed, firehose, 32, fuzz_cluster().n_data);
    job.overload = Some(OverloadConfig::permissive());
    run_job(&job, store, udfs, tuples, vec![])
        .throughput()
        .max(1.0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&args).unwrap_or_else(|e| {
        eprintln!("fuzz_chaos: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let mu = calibrate(args.seed);
    println!("FUZZ_CAL mu={mu:.0} tuples/s");

    for i in args.start..args.start + args.iters {
        let mut case = Case::derive(args.seed, i, mu);
        apply_overrides(&mut case, &args);
        match run_case(&case) {
            Ok(r) => println!(
                "FUZZ_OK iter={i} {} completed={} shed={} gave_up={} misses={} peak_queue={} \
                 retries={} failovers={} nacks_bp={} migrations={} mig_aborted={} drained={}",
                case.describe(),
                r.completed,
                r.shed,
                r.gave_up,
                r.deadline_misses,
                r.peak_queue_depth,
                r.retries,
                r.failovers,
                r.backpressure_events,
                r.migrations,
                r.migrations_aborted,
                r.drained_nodes,
            ),
            Err(e) => {
                eprintln!("FUZZ_FAIL iter={i} {}: {e}", case.describe());
                let (min_case, min_err, flags) = minimize(case, e);
                eprintln!("FUZZ_MIN {}: {min_err}", min_case.describe());
                let mut repro = format!(
                    "cargo run --release -p jl-bench --bin fuzz_chaos -- --seed {} --start {i} --iters 1",
                    args.seed
                );
                let derived = Case::derive(args.seed, i, mu);
                if min_case.n_tuples != derived.n_tuples {
                    repro.push_str(&format!(" --tuples {}", min_case.n_tuples));
                }
                if min_case.churn && !derived.churn {
                    repro.push_str(" --churn");
                }
                for f in flags {
                    repro.push(' ');
                    repro.push_str(f);
                }
                eprintln!("REPRO: {repro}");
                std::process::exit(1);
            }
        }
    }
    println!("FUZZ_CHAOS_OK iters={}", args.iters);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn parse_strs(args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args)
    }

    /// Force a derived case into a shape.
    type Force = fn(&mut Case);

    /// Run `(seed, index, force)` rows through `run_case`, calibrating each
    /// seed once; every case must reconcile exactly once. Returns the
    /// summed `(retries, gave_up, shed)`.
    fn run_forced(rows: &[(u64, u64, Force)]) -> (u64, u64, u64) {
        let mut mu = HashMap::new();
        let mut sums = (0, 0, 0);
        for &(seed, i, force) in rows {
            let mu = *mu.entry(seed).or_insert_with(|| calibrate(seed));
            let mut case = Case::derive(seed, i, mu);
            force(&mut case);
            match run_case(&case) {
                Ok(r) => sums = (sums.0 + r.retries, sums.1 + r.gave_up, sums.2 + r.shed),
                Err(e) => panic!("seed {seed} iter {i} {}: {e}", case.describe()),
            }
        }
        sums
    }

    /// The membership-churn sweep, bounded for tier-1: forced-churn cases
    /// (a join and a drain over seeded faults and overload) must reconcile
    /// exactly once, as `fuzz_chaos --seed 11 --iters 4 --churn` checks.
    #[test]
    fn forced_churn_cases_reconcile_exactly_once() {
        let churn: Force = |c| c.churn = true;
        run_forced(&[
            (11, 0, churn),
            (11, 1, churn),
            (11, 2, churn),
            (11, 3, churn),
        ]);
    }

    /// The compute-side planes, bounded for tier-1: no churn, but faults,
    /// a bounded queue, a 2x-p99 deadline and hair-trigger retries all
    /// forced on, so NACK re-present, re-issue, give-up and deadline
    /// shedding each run somewhere in the table — and reconcile.
    #[test]
    fn forced_plane_cases_reconcile_exactly_once() {
        let planes: Force = |c| {
            c.churn = false;
            c.faults = true;
            c.bounded = true;
            c.deadline_mult = Some(2.0);
            c.retry = true;
            c.aggressive_retry = true;
        };
        let (retries, gave_up, shed) =
            run_forced(&[(7, 4, planes), (7, 6, planes), (7, 7, planes)]);
        assert!(retries > 0, "no request was re-issued");
        assert!(gave_up > 0, "no request gave up");
        assert!(shed > 0, "nothing was shed");
    }

    #[test]
    fn bad_arguments_are_errors_not_panics() {
        let a = parse_strs(&["--seed", "11", "--iters", "100", "--churn"]).unwrap();
        assert_eq!(
            (a.seed, a.iters, a.start, a.churn),
            (11, 100, 0, Some(true))
        );
        let a = parse_strs(&["--tuples", "64", "--no-churn", "--no-faults"]).unwrap();
        assert_eq!(
            (a.seed, a.tuples, a.churn, a.no_faults),
            (7, Some(64), Some(false), true)
        );
        for (bad, err) in [
            (&["--iters"][..], "--iters needs a value"),
            (
                &["--seed", "x"],
                "--seed \"x\": expected an unsigned integer",
            ),
            (
                &["--start", "-1"],
                "--start \"-1\": expected an unsigned integer",
            ),
            (&["--bogus"], "\"--bogus\": unknown option"),
            (&["7"], "\"7\": unknown option"),
        ] {
            assert_eq!(parse_strs(bad).unwrap_err(), err, "{bad:?}");
        }
    }
}
