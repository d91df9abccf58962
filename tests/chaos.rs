//! End-to-end guarantees of the fault-injection + recovery path at bench
//! scale: exactly-once completion under crash-and-recover, the full
//! optimizer's advantage surviving chaos, and run-to-run reproducibility.

use jl_bench::{bench_cell, run_chaos_report, SyntheticCell, CHAOS_STRATEGIES};
use jl_core::Strategy;
use jl_engine::RunReport;

/// `(healthy, chaos)` reports of the DH cell at 5% scale — the same regime
/// as the synthetic figures: block cache off so every request pays the
/// data node's disk, as in the paper's 200 GB store.
fn chaos(strategy: Strategy) -> (RunReport, RunReport) {
    let cell = SyntheticCell {
        strategy,
        ..bench_cell("DH", 0.05, 42)
    };
    let (healthy, chaos, _) = run_chaos_report(&cell);
    (healthy, chaos)
}

#[test]
fn every_strategy_survives_chaos_exactly_once() {
    for strategy in CHAOS_STRATEGIES {
        let (healthy, chaos) = chaos(strategy);
        assert_eq!(
            chaos.completed,
            healthy.completed,
            "{} lost or duplicated tuples under faults",
            strategy.label()
        );
        assert_eq!(
            chaos.fingerprint,
            healthy.fingerprint,
            "{} changed the join output under faults",
            strategy.label()
        );
        assert_eq!(chaos.gave_up, 0, "{} exhausted retries", strategy.label());
        assert!(chaos.retries > 0, "{} never re-issued", strategy.label());
        assert!(
            chaos.dropped_messages > 0,
            "{} saw no injected loss",
            strategy.label()
        );
    }
}

#[test]
fn full_optimizer_still_wins_under_chaos() {
    let chaos_time = |s: Strategy| chaos(s).1.duration;
    let no = chaos_time(Strategy::NoOpt);
    let fc = chaos_time(Strategy::ComputeSide);
    let fo = chaos_time(Strategy::Full);
    assert!(fo < no, "FO {fo} not faster than NO {no} under chaos");
    assert!(fo < fc, "FO {fo} not faster than FC {fc} under chaos");
}

#[test]
fn chaos_reports_are_reproducible() {
    let (_, a) = chaos(Strategy::Full);
    let (_, b) = chaos(Strategy::Full);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
