//! The benchmark's own checks: the catalogue and `BENCHMARK.json` say the
//! same thing, every workload runs and verifies at a tiny size in both
//! modes, and the comparison rule flags what it should.

use std::collections::BTreeSet;

use jl_telemetry::json::{parse, Json};

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::compare::{bounds, judge, Verdict, BENCHMARK_JSON};
use crate::workloads::{Scale, WORKLOADS};
use crate::{result_line, rows, run_workload};

fn listed(json: &Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[test]
fn catalogue_and_benchmark_json_agree() {
    let json = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&json, "end_to_end"), own(END_TO_END));
    assert_eq!(listed(&json, "per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = listed(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);

    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut seen = BTreeSet::new();
    for name in WORKLOADS
        .iter()
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| n))
    {
        assert!(valid_name(name), "bad name {name:?}");
        assert!(seen.insert(*name), "name {name:?} used twice");
    }
    for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        assert!(
            !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok),
            "bad unit {unit:?}"
        );
    }

    let bounds = bounds();
    assert!(!bounds["setup_s"].0, "setup_s is better lower");
    assert!(bounds.values().all(|&(_, b)| b > 0.0 && b <= 0.25));
    for w in json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
    {
        let why = w.get("why").and_then(Json::as_str).expect("why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "why: {why:?}"
        );
    }
}

/// Every workload at 2 % of its size, a fraction of a second, both modes:
/// the checks pass, and exactly the catalogue's names are printed.
#[test]
fn every_workload_runs_verifies_and_prints_the_catalogue() {
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test");
    for name in WORKLOADS {
        for trace in [false, true] {
            let outcome = run_workload(name, 7, 0.6, trace, Scale(0.02), &out);
            assert!(
                outcome.errors.is_empty(),
                "{name} trace={trace}: {:?}",
                outcome.errors
            );
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);

            let rows = rows(&outcome, trace);
            let printed: Vec<&str> = rows.iter().map(|(n, _, _)| *n).collect();
            let catalogue = if trace { PER_LAYER } else { END_TO_END };
            assert_eq!(
                printed,
                catalogue.iter().map(|(n, _)| *n).collect::<Vec<_>>()
            );
            if !trace {
                for (metric, value, _) in &rows {
                    assert!(
                        *value > 0.0,
                        "{name} {metric} = {value}: end-to-end metrics are never 0"
                    );
                }
            }

            let line = parse(&result_line(&outcome, &rows)).expect("result line is JSON");
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(line.get("failed").and_then(Json::as_num), Some(0.0));
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("metrics object");
            };
            assert_eq!(metrics.len(), catalogue.len());
        }
        if name != "serve_open" {
            let trace =
                std::fs::read_to_string(out.join(format!("{name}.trace.json"))).expect("trace");
            let check =
                jl_telemetry::json::validate_chrome_trace(&trace).expect("valid Chrome trace");
            assert!(check.spans > 0, "{name}: empty trace");
        }
        let spans =
            std::fs::read_to_string(out.join(format!("{name}.hostspans.json"))).expect("spans");
        let spans = parse(&spans).expect("host spans are JSON");
        assert!(spans.as_arr().is_some_and(|a| a.len() > 3));
    }
}

/// The same seed gives the same inputs, hence the same simulated results.
#[test]
fn simulated_metrics_repeat_exactly_for_a_seed() {
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test");
    for name in ["dh_batch", "dh_updates"] {
        let exact = |seed| {
            let o = run_workload(name, seed, 0.1, false, Scale(0.02), &out);
            (
                o.metrics.get("sim_tuples_per_s"),
                o.metrics.get("tuple_p99_ms"),
            )
        };
        assert_eq!(exact(11), exact(11), "{name}");
        assert_ne!(
            exact(11),
            exact(12),
            "{name}: the seed does not reach the inputs"
        );
    }
}

#[test]
fn comparison_flags_worse_within_and_unresolved() {
    let tight = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];
    let scaled = |k: f64| tight.map(|v| v * k);
    // Higher is better: −15 % against a 10 % bound is worse; −5 % is within.
    assert_eq!(judge(&tight, &scaled(0.85), true, 0.10).0, Verdict::Worse);
    assert_eq!(judge(&tight, &scaled(0.95), true, 0.10).0, Verdict::Within);
    assert_eq!(judge(&tight, &scaled(1.30), true, 0.10).0, Verdict::Within);
    // Lower is better: the same moves read the other way round.
    assert_eq!(judge(&tight, &scaled(1.15), false, 0.10).0, Verdict::Worse);
    assert_eq!(judge(&tight, &scaled(0.85), false, 0.10).0, Verdict::Within);
    // A set whose own spread exceeds the bound decides nothing.
    let noisy = [
        80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0,
    ];
    assert_eq!(judge(&tight, &noisy, true, 0.10).0, Verdict::Unresolved);
}
