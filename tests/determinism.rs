//! Thread-count invariance of the parallel experiment grid.
//!
//! The grid runner (`run_grid`) fans independent seeded simulations across
//! a thread pool; results are collected in input order, so the thread
//! count is purely a resource knob. This test pins that contract: the same
//! figure grid run at 1, 2 and 8 threads must produce byte-identical
//! rendered tables and identical `RunReport` series, down to the digest.
//!
//! Each thread count is a pool installed on the test's own thread (the
//! way `figs --threads N` runs a figure), so tests running beside it keep
//! their own budget; the counts share one `#[test]` only because each is
//! compared against the one-thread run.
//!
//! Beyond invariance, `traced_cells_pin_every_emitter` pins absolute trace
//! bytes: golden digests of traced cells that reach every engine event.

use std::collections::BTreeSet;

use jl_bench::experiments::fig6_stream_report;
use jl_bench::{
    bench_cell, fig8, fig_chaos, fig_elastic, fig_overload, overload_bounded_config, pace,
    run_chaos_report, scaled, traced_chaos_run, SyntheticCell,
};
use jl_core::{AutoscaleMode, Strategy};
use jl_engine::runner::UpdateEvent;
use jl_engine::{
    chaos_retry, run_job_on, AutoscaleConfig, Backend, ClusterSpec, FeedMode, JobPlan, JobSpec,
    JobTuple, MembershipConfig, MembershipEvent, OverloadConfig, RunReport, StageSpec,
};
use jl_simkit::fault::FaultPlan;
use jl_simkit::time::{SimDuration, SimTime};
use jl_store::{RowKey, StoredValue};
use jl_telemetry::{RunTelemetry, TelemetryConfig};
use jl_workloads::SyntheticSpec;

/// FNV-1a over a byte string — the same digest construction the golden
/// decision-trace test uses, applied here to rendered results.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(n).build();
    pool.expect("thread pool").install(f)
}

#[test]
fn grid_results_are_thread_count_invariant() {
    let scale = 0.05;
    let seed = 7;

    // (rendered fig8 table, Debug of a batch report series, Debug of a
    // stream report) per thread count. Debug formatting covers every
    // RunReport field, so any drift — counts, fingerprints, float stats —
    // changes the digest.
    let run_all = || {
        let table = fig8(&SyntheticSpec::dh(), scale, seed).render();
        let batch: Vec<String> = ["DH", "CH", "DCH"]
            .iter()
            .map(|name| format!("{:?}", bench_cell(name, scale, seed).run(Backend::Sim).0))
            .collect();
        let (stream, spots) = fig6_stream_report(0.02, seed, Strategy::Full);
        // The chaos grid exercises the whole fault path — crash/failover,
        // straggler slowdowns, the seeded drop coin, retry timers — whose
        // injected randomness must also be thread-count invariant.
        let chaos = fig_chaos(scale, seed).render();
        // Telemetry is sampled on simulated time only, so the exported
        // trace and metrics JSON must be byte-identical too.
        let (_, tel) = traced_chaos_run(scale, seed, TelemetryConfig::default());
        let trace = tel.to_chrome_json();
        let metrics = tel.metrics_json();
        // The overload grid adds the protection plane — bounded queues,
        // NACK backpressure, deadline sheds, the per-tuple outcome log —
        // whose victim selection must not depend on the thread count.
        let (ov_table, ov_cells) = fig_overload(scale, seed);
        let overload = format!(
            "{}{:?}",
            ov_table.render(),
            ov_cells.iter().map(|c| &c.report).collect::<Vec<_>>()
        );
        // The elastic grid adds the membership plane — scripted joins and
        // decommissions, live region migration, the autoscaler's rent and
        // release decisions — whose epoch walk and migration interleaving
        // must also be thread-count invariant.
        let (el_table, el_cells) = fig_elastic(scale, seed);
        let elastic = format!(
            "{}{:?}",
            el_table.render(),
            el_cells.iter().map(|c| &c.report).collect::<Vec<_>>()
        );
        (
            table,
            batch,
            format!("{stream:?} spots={spots}"),
            chaos,
            trace,
            metrics,
            overload,
            elastic,
        )
    };

    let base = with_threads(1, run_all);
    let base_digest = fnv1a(format!("{base:?}").as_bytes());

    for threads in [2usize, 8] {
        let got = with_threads(threads, run_all);
        assert_eq!(
            got.0, base.0,
            "fig8 table differs between 1 and {threads} threads"
        );
        assert_eq!(
            got.1, base.1,
            "synthetic RunReport series differs between 1 and {threads} threads"
        );
        assert_eq!(
            got.2, base.2,
            "stream RunReport differs between 1 and {threads} threads"
        );
        assert_eq!(
            got.3, base.3,
            "chaos table differs between 1 and {threads} threads"
        );
        assert_eq!(
            got.4, base.4,
            "exported trace JSON differs between 1 and {threads} threads"
        );
        assert_eq!(
            got.5, base.5,
            "exported metrics JSON differs between 1 and {threads} threads"
        );
        assert_eq!(
            got.6, base.6,
            "overload grid differs between 1 and {threads} threads"
        );
        assert_eq!(
            got.7, base.7,
            "elastic grid differs between 1 and {threads} threads"
        );
        assert_eq!(
            fnv1a(format!("{got:?}").as_bytes()),
            base_digest,
            "digest differs between 1 and {threads} threads"
        );
    }
}

/// Flight-recorder invariance: the always-on ring is a pure tee off the
/// recorder's event path, so arming it must change *nothing* about the
/// run — the `RunReport`, the buffered Chrome trace, and the metrics JSON
/// all stay byte-identical to the unarmed run. The ring itself must hold
/// a bounded, non-empty tail that stitches into a valid Chrome trace.
#[test]
fn flight_recorder_is_a_pure_tee() {
    let scale = 0.05;
    let seed = 7;
    let cap = 2_048;

    let (bare_report, bare_tel) = traced_chaos_run(scale, seed, TelemetryConfig::default());
    let bare_report = format!("{bare_report:?}");
    let bare_trace = bare_tel.to_chrome_json();
    let bare_metrics = bare_tel.metrics_json();
    assert!(bare_tel.flight.is_none(), "unarmed run must carry no ring");

    let armed = TelemetryConfig::with_flight(cap);
    let (report, tel) = traced_chaos_run(scale, seed, armed);
    assert_eq!(
        format!("{report:?}"),
        bare_report,
        "arming the flight ring changed the RunReport"
    );
    assert_eq!(
        tel.to_chrome_json(),
        bare_trace,
        "arming the flight ring changed the trace bytes"
    );
    assert_eq!(
        tel.metrics_json(),
        bare_metrics,
        "arming the flight ring changed the metrics bytes"
    );
    let flight = tel
        .flight_chrome_json()
        .expect("armed run must retain a flight tail");
    let check = jl_telemetry::json::validate_chrome_trace(&flight)
        .expect("flight dump must be valid Chrome trace JSON");
    assert!(
        check.spans + check.instants > 0,
        "flight ring retained nothing"
    );
    let retained = tel.flight.as_ref().map(|l| l.len()).unwrap_or(0);
    assert!(
        retained >= cap && retained <= 2 * cap,
        "two-generation ring retains cap..=2*cap events, got {retained}"
    );
}

/// Every trace event name the engine emits, by emitter: the kernel probe,
/// the compute node, the decision tee, the controller, the data node.
const EVENT_NAMES: &str = "\
    service msg-dropped msg-delayed crash restart \
    shed failover nacked timeout gave-up retry tuple dest-pressured request health-update \
    epoch-update \
    rent buy \
    mig-plan member-join decommission-refused member-drain member-drained mig-done mig-aborted \
    autoscale-rent autoscale-release \
    nack pressure-on mig-forward cache-evict batch put mig-snapshot-out mig-freeze mig-cutover \
    mig-abort-src mig-snapshot-in mig-install mig-abort-tgt activate drain deactivate pressure-off";

/// `fnv1a` of each traced cell's Chrome trace and metrics JSON. The
/// elastic cell was re-pinned once, when drains learned to re-plan regions
/// that land after the drain began: before that, one of its two drains
/// never finished (two `member-drain`, one `member-drained` in its trace;
/// two and two since). The multistage cell was pinned while the compute
/// node still kept its own per-request table beside the optimizer's
/// in-flight record, so it checks that folding the two moved no byte.
const GOLDEN: [(&str, u64, u64); 6] = [
    ("chaos", 0x0e8c_c2b8_3455_b546, 0xb34c_53ba_18fb_76d0),
    ("churn", 0x7d80_8e17_7970_489a, 0xdc6b_4513_4264_ed56),
    ("overload", 0xcb1b_a00e_f773_164d, 0xc366_0c7e_b043_53cb),
    ("updates", 0x6442_8707_3b96_2725, 0xf31d_39f3_13d1_c090),
    ("elastic", 0xc0fc_fdcb_6a9d_063b, 0xeae8_42be_c982_44fa),
    ("multistage", 0x34d5_1679_8e86_0bfb, 0x3e9c_839e_d844_68d3),
];

/// Run `cell` traced, its regions on the first `active` data nodes, after
/// `edit` has shaped the job and its input.
fn traced(
    cell: &SyntheticCell,
    active: usize,
    updates: Vec<UpdateEvent>,
    edit: impl FnOnce(&mut JobSpec, &mut [JobTuple]),
) -> (RunReport, RunTelemetry) {
    let (mut job, store, udfs, mut tuples) = cell.build_on(active);
    job.telemetry = Some(TelemetryConfig::default());
    edit(&mut job, &mut tuples);
    let (report, tel) = run_job_on(&job, Backend::Sim, store, udfs, tuples, updates);
    (report, tel.expect("telemetry was requested"))
}

/// Make `cell`'s job a two-stage plan over its one table: each tuple's
/// second key is another tuple's first, so both stages draw from the same
/// skewed key stream, and each stage passes 60% of its tuples on.
fn two_stage(job: &mut JobSpec, tuples: &mut [JobTuple]) {
    let stage = StageSpec {
        table: 0,
        udf: 0,
        selectivity: 0.6,
    };
    job.plan = std::sync::Arc::new(JobPlan {
        stages: vec![stage; 2],
    });
    let firsts: Vec<RowKey> = tuples.iter().map(|t| t.keys[0].clone()).collect();
    for (i, t) in tuples.iter_mut().enumerate() {
        t.keys.push(firsts[(i * 7 + 1) % firsts.len()].clone());
    }
}

/// Turn a batch input into a stream of `window` in-flight tuples per
/// compute node, its arrivals paced by `gap_us` µs (see [`pace`]).
fn stream(
    job: &mut JobSpec,
    tuples: &mut [JobTuple],
    window: usize,
    gap_us: impl Fn(usize) -> u64,
) {
    pace(tuples, |i| SimDuration::from_micros(gap_us(i)));
    job.feed = FeedMode::Stream {
        horizon: SimDuration::from_secs(100_000),
        window,
    };
}

/// Golden trace bytes. Six small traced cells — the chaos run, chaos
/// plus membership churn, a bounded stream at ~2× its drain rate with a
/// deadline, store updates against the block cache, an autoscaled fleet
/// with scripted joins and drains, and a two-stage plan under a crash and
/// a small data-node queue — between them reach every event
/// name the engine emits, and each one's trace and metrics bytes are
/// pinned by digest. A recorder or emitter change that moves one byte of
/// any trace fails here. A name no deterministic cell can reach would be
/// listed here as an exception, with the reason; today there is none.
#[test]
fn traced_cells_pin_every_emitter() {
    let dh = || bench_cell("DH", 0.05, 7);
    let window = dh().cluster.node.cores * 4;
    let churn = SyntheticCell {
        telemetry: Some(TelemetryConfig::default()),
        ..dh()
    };
    let all = dh().cluster.n_data;
    let (_, overload) = traced(&dh(), all, vec![], |job, tuples| {
        // 7 µs gaps offer ~2× the 32k tuples/s this stream drains; the
        // deadline is twice its p99 at half that rate, over 300 tuples per
        // compute node. A small data-node queue makes backpressure fire too.
        stream(job, tuples, window, |_| 7);
        job.overload = Some(OverloadConfig {
            data_queue_cap: 32,
            high_watermark: 16,
            low_watermark: 8,
            ..overload_bounded_config(300, Some(SimDuration::from_millis(20)))
        });
    });
    let cached = SyntheticCell {
        cluster: ClusterSpec {
            block_cache_bytes: 4 << 20,
            ..dh().cluster
        },
        ..dh()
    };
    let updates = (0..40u64)
        .map(|k| {
            let value = StoredValue::new(vec![k as u8; 256], 0, SimDuration::from_millis(1));
            let at = SimTime::ZERO + SimDuration::from_millis(2 * k + 1);
            (at, 0, RowKey::from_u64(k % 8), value)
        })
        .collect();
    // Small values so region handoffs finish inside the run; three of six
    // data nodes active, a join and a drain scripted, the autoscaler armed.
    let fleet = SyntheticCell {
        spec: SyntheticSpec {
            value_size: 2 * 1024,
            udf_cpu: SimDuration::from_micros(100),
            ..scaled(SyntheticSpec::dh(), 0.1)
        },
        cluster: ClusterSpec {
            n_compute: 4,
            n_data: 6,
            ..dh().cluster
        },
        mem_cache: 64 * 1024,
        z: 0.0,
        ..dh()
    };
    let (_, elastic) = traced(&fleet, 3, vec![], |job, tuples| {
        // The three-node fleet drains ~21k tuples/s: the trough offers
        // ~0.3× that, the peak ~1.9×.
        let n = tuples.len();
        stream(job, tuples, 32, |i| {
            if i < n / 6 || i >= 2 * n / 3 {
                157
            } else {
                25
            }
        });
        job.overload = Some(OverloadConfig::permissive());
        let mut m = MembershipConfig::static_active(3);
        m.min_active = 3;
        let ms = SimDuration::from_millis;
        m.events = vec![
            (ms(1), MembershipEvent::Decommission(0)), // refused: the floor is 3
            (ms(5), MembershipEvent::Join(3)),
            (ms(6), MembershipEvent::Decommission(1)),
        ];
        m.autoscale = Some(AutoscaleConfig {
            interval: ms(10),
            heartbeat: ms(2),
            mode: AutoscaleMode::QueueWatermark {
                rent_above: 16.0,
                release_below: 4.0,
                cooldown: ms(8),
            },
        });
        job.membership = Some(m);
    });
    // Two stages, so a retried or NACKed request can belong to either; a
    // crash of data node 0 for a third of the fault-free run times
    // requests out (retried, flipped on the second attempt), and a 16-deep
    // data-node queue NACKs batches that are re-presented after a backoff.
    let small = bench_cell("DH", 0.02, 7);
    let (mut job, store, udfs, mut tuples) = small.build();
    two_stage(&mut job, &mut tuples);
    let healthy = run_job_on(&job, Backend::Sim, store, udfs, tuples, vec![]);
    let baseline = healthy.0.duration;
    let at = |f: f64| SimTime::ZERO + SimDuration::from_secs_f64(baseline.as_secs_f64() * f);
    let (report, multistage) = traced(&small, all, vec![], |job, tuples| {
        two_stage(job, tuples);
        let data0 = job.cluster.data_id(0);
        job.faults = Some(FaultPlan::new(7).crash(data0, at(0.2), Some(at(0.55))));
        job.retry = Some(chaos_retry(baseline));
        job.overload = Some(OverloadConfig {
            data_queue_cap: 16,
            high_watermark: 8,
            low_watermark: 4,
            ..OverloadConfig::permissive()
        });
    });
    assert!(report.retries > 0, "no stage request was retried");
    assert!(report.backpressure_events > 0, "no batch was NACKed");
    let cells = [
        (
            "chaos",
            traced_chaos_run(0.05, 7, TelemetryConfig::default()).1,
        ),
        ("churn", run_chaos_report(&churn, true).2.expect("traced")),
        ("overload", overload),
        ("updates", traced(&cached, all, updates, |_, _| {}).1),
        ("elastic", elastic),
        ("multistage", multistage),
    ];

    let mut seen = BTreeSet::new();
    let mut digests = Vec::new();
    for (cell, tel) in &cells {
        seen.extend(tel.events.iter().map(|ev| ev.name));
        let trace = fnv1a(tel.to_chrome_json().as_bytes());
        digests.push((*cell, trace, fnv1a(tel.metrics_json().as_bytes())));
    }
    assert_eq!(digests, GOLDEN, "trace or metrics bytes moved");
    let names: BTreeSet<&str> = EVENT_NAMES.split_whitespace().collect();
    assert_eq!(names.len(), 44);
    assert_eq!(
        seen, names,
        "the cells must reach exactly the engine's event names"
    );
}
