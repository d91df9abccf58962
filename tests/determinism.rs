//! Thread-count invariance of the parallel experiment grid.
//!
//! The grid runner (`run_grid`) fans independent seeded simulations across
//! a thread pool; results are collected in input order, so the thread
//! count is purely a resource knob. This test pins that contract: the same
//! figure grid run at 1, 2 and 8 threads must produce byte-identical
//! rendered tables and identical `RunReport` series, down to the digest.
//!
//! All thread counts run inside ONE `#[test]` because the knob is the
//! process-global `JL_BENCH_THREADS` environment variable — parallel test
//! binaries would race on it.

use jl_bench::experiments::fig6_stream_report;
use jl_bench::{bench_cell, fig8, fig_chaos, fig_elastic, fig_overload, traced_chaos_run};
use jl_core::Strategy;
use jl_engine::Backend;
use jl_telemetry::TelemetryConfig;
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
    std::env::set_var("JL_BENCH_THREADS", n.to_string());
    let out = f();
    std::env::remove_var("JL_BENCH_THREADS");
    out
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
