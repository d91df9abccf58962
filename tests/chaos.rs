//! End-to-end guarantees of the fault-injection + recovery path at bench
//! scale: exactly-once completion under crash-and-recover, the full
//! optimizer's advantage surviving chaos, and run-to-run reproducibility.

use jl_bench::{bench_cell, run_chaos_report, SyntheticCell, CHAOS_STRATEGIES};
use jl_core::Strategy;
use jl_engine::RunReport;

/// The chaos report of the DH cell at 5% scale — the same regime as the
/// synthetic figures: block cache off so every request pays the data
/// node's disk, as in the paper's 200 GB store.
fn chaos(strategy: Strategy) -> RunReport {
    let cell = SyntheticCell {
        strategy,
        ..bench_cell("DH", 0.05, 42)
    };
    run_chaos_report(&cell, false).1
}

/// `run_chaos_report` reconciles both runs against the reference join;
/// here no request may exhaust its retries, and the faults must bite.
#[test]
fn every_strategy_survives_chaos_exactly_once() {
    for strategy in CHAOS_STRATEGIES {
        let chaos = chaos(strategy);
        let label = strategy.label();
        assert!(chaos.outcomes.is_empty(), "{label}: {:?}", chaos.outcomes);
        assert!(chaos.retries > 0, "{label} never re-issued");
        assert!(chaos.dropped_messages > 0, "{label} saw no injected loss");
    }
}

#[test]
fn full_optimizer_still_wins_under_chaos() {
    let chaos_time = |s: Strategy| chaos(s).duration;
    let no = chaos_time(Strategy::NoOpt);
    let fc = chaos_time(Strategy::ComputeSide);
    let fo = chaos_time(Strategy::Full);
    assert!(fo < no, "FO {fo} not faster than NO {no} under chaos");
    assert!(fo < fc, "FO {fo} not faster than FC {fc} under chaos");
}

#[test]
fn chaos_reports_are_reproducible() {
    let a = chaos(Strategy::Full);
    let b = chaos(Strategy::Full);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
