//! The full set of runs (every workload in a child process of its own) and
//! the comparison of two saved sets against the bounds of `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use jl_telemetry::json::{parse, Json};

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::stats::{quartiles, spread};
use crate::workloads::WORKLOADS;

/// `BENCHMARK.json` as written at the root of the repository.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Run one workload in a child process and return its parsed result line.
fn child(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let json = parse(last).map_err(|e| format!("{name}: no result line ({e})"))?;
    if !out.status.success() || json.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{name} seed {seed}: check failed ({})", out.status));
    }
    Ok(json)
}

fn metric_values(result: &Json) -> impl Iterator<Item = (&String, f64)> {
    let metrics = match result.get("metrics") {
        Some(Json::Obj(m)) => Some(m),
        _ => None,
    };
    metrics
        .into_iter()
        .flatten()
        .filter_map(|(name, m)| Some((name, m.get("value")?.as_num()?)))
}

/// Every workload: `runs` untraced runs on seeds `seed`, `seed + 1`, … and
/// one traced run; prints every metric by name with its unit, optionally
/// saves the values. Returns the process exit code.
pub fn suite(seed: u64, seconds: f64, runs: usize, out: Option<&Path>) -> i32 {
    let mut failures = 0;
    let mut saved = String::from("{\n");
    for (w, name) in WORKLOADS.iter().enumerate() {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for run in 0..runs {
            match child(name, seed + run as u64, seconds, false) {
                Ok(result) => {
                    for (metric, value) in metric_values(&result) {
                        values.entry(metric.clone()).or_default().push(value);
                    }
                }
                Err(e) => {
                    eprintln!("FAILED: {e}");
                    failures += 1;
                }
            }
        }
        let layers: BTreeMap<String, f64> = match child(name, seed, seconds, true) {
            Ok(result) => metric_values(&result)
                .map(|(n, v)| (n.clone(), v))
                .collect(),
            Err(e) => {
                eprintln!("FAILED: {e}");
                failures += 1;
                BTreeMap::new()
            }
        };

        println!("== {name}: end to end, {runs} run(s) from seed {seed}, tracing off");
        for (metric, unit) in END_TO_END {
            if let Some(v) = values.get(*metric) {
                let [q1, q2, q3] = quartiles(v);
                println!(
                    "{name} {metric} {q2} {unit} (quartiles {q1} .. {q3}, n={})",
                    v.len()
                );
            }
        }
        println!("== {name}: per layer, one traced run on seed {seed}");
        for (metric, unit) in PER_LAYER {
            if let Some(v) = layers.get(*metric) {
                println!("{name} {metric} {v} {unit}");
            }
        }

        let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(", ");
        let e2e: Vec<String> = values
            .iter()
            .map(|(m, v)| format!("      \"{m}\": [{}]", list(v)))
            .collect();
        let per_layer: Vec<String> = layers
            .iter()
            .map(|(m, v)| format!("      \"{m}\": {v}"))
            .collect();
        saved.push_str(&format!(
            "  \"{name}\": {{\n    \"end_to_end\": {{\n{}\n    }},\n    \"per_layer\": {{\n{}\n    }}\n  }}{}\n",
            e2e.join(",\n"),
            per_layer.join(",\n"),
            if w + 1 == WORKLOADS.len() { "" } else { "," }
        ));
    }
    saved.push_str("}\n");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, saved) {
            eprintln!("cannot write {}: {e}", path.display());
            return 1;
        }
    }
    if failures > 0 {
        eprintln!("{failures} run(s) failed their checks");
        return 1;
    }
    println!("all checks passed");
    0
}

/// Direction and bound of every end-to-end metric, from `BENCHMARK.json`.
pub fn bounds() -> BTreeMap<String, (bool, f64)> {
    let json = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let bound = m.get("bound").and_then(Json::as_num).expect("bound");
            (name.to_string(), (higher, bound))
        })
        .collect()
}

/// How set B stands against set A on one metric of one workload.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A run-to-run spread is wider than the bound: nothing can be said.
    Unresolved,
    Within,
}

/// `(verdict, relative change of the median, larger spread)`; a positive
/// change is a worsening.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64, f64) {
    let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worsening = if higher_is_better { -change } else { change };
    let widest = spread(a).max(spread(b));
    let verdict = if worsening > bound {
        Verdict::Worse
    } else if widest > bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    };
    (verdict, worsening, widest)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn samples(set: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    set.get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .as_arr()?
        .iter()
        .map(Json::as_num)
        .collect()
}

/// Compare two saved sets, workload × end-to-end metric. Exit code 1 on any
/// `worse`, 2 if a file cannot be read.
pub fn compare(a: &Path, b: &Path) -> i32 {
    let (set_a, set_b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let bounds = bounds();
    let (mut worse, mut unresolved) = (0, 0);
    println!("workload metric: median A [q1..q3] -> median B [q1..q3], worsening vs bound, spread: verdict");
    for name in WORKLOADS {
        for (metric, unit) in END_TO_END {
            let (Some(va), Some(vb)) =
                (samples(&set_a, name, metric), samples(&set_b, name, metric))
            else {
                println!("{name} {metric}: missing from a set");
                unresolved += 1;
                continue;
            };
            let (higher, bound) = bounds[*metric];
            let (verdict, worsening, widest) = judge(&va, &vb, higher, bound);
            let [a1, a2, a3] = quartiles(&va);
            let [b1, b2, b3] = quartiles(&vb);
            println!(
                "{name} {metric}: {a2} [{a1}..{a3}] -> {b2} [{b1}..{b3}] {unit}, \
                 {:+.2}% vs {:.0}%, spread {:.2}%: {}",
                worsening * 100.0,
                bound * 100.0,
                widest * 100.0,
                match verdict {
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Within => "within",
                }
            );
            match verdict {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Within => {}
            }
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    i32::from(worse > 0)
}
