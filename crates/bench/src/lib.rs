//! # jl-bench — figure regeneration and ablations
//!
//! One binary, `figs <name>`, regenerates every figure of the paper's
//! evaluation (§9) plus the chaos / overload / elastic figures and the
//! ablations; [`FIGURES`] is its name → function table and a bare `figs`
//! prints the usage. See EXPERIMENTS.md for paper-vs-measured tables. The
//! repo's performance benchmark is the separate `benchmark/` package.
//!
//! Also home of the [`mod@serve`] layer and its `jl-serve` binary: the same
//! engine on the wall-clock backend, answering a live request stream.

#![warn(missing_docs)]

use std::path::{Path, PathBuf};

use jl_telemetry::TelemetryConfig;
use jl_workloads::SyntheticSpec;

pub mod ablations;
pub mod experiments;
pub mod observe;
pub mod output;
pub mod serve;

pub use experiments::{
    ablation_inputs, bench_cell, chaos_fault_plan, check_elastic_invariants,
    check_overload_invariants, digest_udfs, fig11, fig5, fig6, fig7, fig8, fig9, fig_chaos,
    fig_elastic, fig_overload, fuzz_spec, overload_bounded_config, pace, run_chaos_report,
    run_elastic_stream, run_grid, run_overload_stream, scaled, traced_chaos_run, ElasticCell,
    OverloadCell, SyntheticCell, CHAOS_STRATEGIES, ELASTIC_PEAK_LOAD, ELASTIC_TROUGH_LOAD, SKEWS,
};
pub use observe::{ObserveConfig, ServeLive, ServeShared};
pub use output::FigTable;
pub use serve::{serve, serve_observed, ServeConfig, ServeStats};

/// The parsed `figs` command line.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// The [`FIGURES`] name to run.
    pub figure: &'static str,
    /// Workloads a [`Run::PerSpec`] figure runs: the one the `dh|ch|dch`
    /// selector names, all three without it.
    pub specs: Vec<SyntheticSpec>,
    /// Input-volume scale (1.0 = figure scale).
    pub scale: f64,
    /// Base seed for every per-cell RNG stream.
    pub seed: u64,
    /// `--faults`: `all` appends the chaos figure, which is not part of the
    /// paper's evaluation and therefore opt-in.
    pub faults: bool,
    /// Where to write the Chrome trace-event JSON of the canonical traced
    /// run ([`traced_chaos_run`]), from `--trace <path>`. `None` disables
    /// telemetry entirely.
    pub trace: Option<PathBuf>,
    /// `--threads N`: the thread budget `figs` runs the figure in (see
    /// [`run_grid`]); `None` is every core.
    pub threads: Option<usize>,
}

/// How a [`FIGURES`] entry runs.
#[derive(Clone, Copy)]
pub enum Run {
    /// Prints its own tables and result lines.
    Whole(fn(&BenchArgs)),
    /// One table per synthetic workload, `(spec, scale, seed)`; only these
    /// figures take the `dh|ch|dch` selector.
    PerSpec(fn(&SyntheticSpec, f64, u64) -> FigTable),
}

impl Run {
    /// Run the figure, printing its tables to standard output.
    pub fn call(self, a: &BenchArgs) {
        match self {
            Run::Whole(run) => run(a),
            Run::PerSpec(fig) => {
                for spec in &a.specs {
                    show(fig(spec, a.scale, a.seed));
                }
            }
        }
    }
}

fn show(table: FigTable) {
    println!("{}", table.render());
}

/// Every name `figs` accepts, with what it runs (`ablate <name>` is one
/// entry per ablation, the two words joined by a space).
pub const FIGURES: &[(&str, Run)] = &[
    ("fig5", Run::Whole(|a| show(fig5(a.scale, a.seed)))),
    ("fig6", Run::Whole(|a| show(fig6(a.scale, a.seed)))),
    ("fig7", Run::Whole(|a| show(fig7(a.scale, a.seed)))),
    ("fig8", Run::PerSpec(fig8)),
    ("fig9", Run::Whole(|a| show(fig9(a.scale, a.seed)))),
    ("fig11", Run::PerSpec(fig11)),
    ("chaos", Run::Whole(|a| show(fig_chaos(a.scale, a.seed)))),
    ("overload", Run::Whole(overload)),
    ("elastic", Run::Whole(elastic)),
    ("all", Run::Whole(all)),
    ("ablate batch", Run::Whole(|a| show(ablations::batch(a)))),
    (
        "ablate cache",
        Run::Whole(|a| {
            show(ablations::cache_eviction(a));
            println!();
            show(ablations::cache_admission(a));
        }),
    ),
    (
        "ablate extensions",
        Run::Whole(|a| show(ablations::extensions(a))),
    ),
    (
        "ablate freq",
        Run::Whole(|a| {
            show(ablations::freq_accuracy(a));
            println!();
            show(ablations::freq_end_to_end(a));
        }),
    ),
    ("ablate lb", Run::Whole(|a| show(ablations::lb(a)))),
    ("ablate ski", Run::Whole(|a| show(ablations::ski(a)))),
];

/// The overload figure, one `OVERLOAD <cell> ...` line per cell, and
/// `OVERLOAD_OK` once [`check_overload_invariants`] holds.
fn overload(a: &BenchArgs) {
    let (table, cells) = fig_overload(a.scale, a.seed);
    show(table);
    for c in &cells {
        println!("{}", c.line());
    }
    check_overload_invariants(&cells);
    println!("OVERLOAD_OK cells={}", cells.len());
}

/// The elastic figure, one `ELASTIC <fleet> ...` line per cell, and
/// `ELASTIC_OK` once [`check_elastic_invariants`] holds.
fn elastic(a: &BenchArgs) {
    let (table, cells) = fig_elastic(a.scale, a.seed);
    show(table);
    for c in &cells {
        println!("{}", c.line());
    }
    check_elastic_invariants(&cells);
    println!("ELASTIC_OK");
}

/// Every figure of the paper — the `fig*` entries of [`FIGURES`], in table
/// order — in one run, plus the chaos figure under `--faults`.
fn all(a: &BenchArgs) {
    for (_, run) in FIGURES.iter().filter(|(name, _)| name.starts_with("fig")) {
        run.call(a);
    }
    if a.faults {
        show(fig_chaos(a.scale, a.seed));
    }
}

/// Printed, after the error, whenever the command line does not parse.
pub const USAGE: &str = "\
usage: figs <name> [dh|ch|dch] [options]
  <name>     fig5 fig6 fig7 fig8 fig9 fig11 chaos overload elastic all
             ablate <batch|cache|extensions|freq|lb|ski>
  dh|ch|dch  one workload of fig8 / fig11 (default: all three)
  options    --scale F   input volume, 1.0 = figure scale (the default)
             --seed N    base seed (default 42)
             --threads N grid threads (default: all cores)
             --faults    `all` only: append the chaos figure
             --trace PATH       also write the traced chaos run's Chrome trace
                                and PATH's .metrics.json";

/// Parse `raw`, the value given for `flag`, as a `T` that passes `ok`;
/// the error names `flag` and what was `expected`.
fn value<T: std::str::FromStr>(
    flag: &str,
    raw: Option<&String>,
    ok: impl Fn(&T) -> bool,
    expected: &str,
) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value ({expected})"))?;
    raw.parse()
        .ok()
        .filter(ok)
        .ok_or_else(|| format!("{flag} {raw:?}: expected {expected}"))
}

/// Parse the `figs` command line out of `args` (the process arguments
/// without the program name). Flags and positionals may come in any
/// order. Everything must be known and well formed or the whole parse
/// fails — a typo must not run the full-scale figure under the wrong
/// label: the figure name is one of [`FIGURES`], the `dh|ch|dch` selector
/// goes only with a [`Run::PerSpec`] figure and `--faults` only with
/// `all`, `--scale` is a finite number ≥ 0, `--threads` an integer ≥ 1.
/// Returns what to run with its arguments; has no side effects.
pub fn parse_from(args: &[String]) -> Result<(Run, BenchArgs), String> {
    let path = |flag: &str, raw| value(flag, raw, |p: &PathBuf| p != Path::new(""), "a path");

    let mut parsed = BenchArgs {
        figure: "",
        specs: SyntheticSpec::all().to_vec(),
        scale: 1.0,
        seed: 42,
        faults: false,
        trace: None,
        threads: None,
    };
    let mut positionals = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let ok = |s: &f64| s.is_finite() && *s >= 0.0;
                parsed.scale = value(arg, it.next(), ok, "a number >= 0")?;
            }
            "--seed" => parsed.seed = value(arg, it.next(), |_| true, "an unsigned integer")?,
            "--trace" => parsed.trace = Some(path(arg, it.next())?),
            "--threads" => {
                let ok = |&n: &usize| n >= 1;
                parsed.threads = Some(value(arg, it.next(), ok, "an integer >= 1")?);
            }
            "--faults" => parsed.faults = true,
            flag if flag.starts_with("--") => return Err(format!("{flag}: unknown option")),
            _ => positionals.push(arg.as_str()),
        }
    }

    let mut positionals = positionals.into_iter();
    let name = match positionals.next() {
        None => return Err("missing figure name".into()),
        Some("ablate") => format!(
            "ablate {}",
            positionals.next().ok_or("ablate needs an ablation name")?
        ),
        Some(name) => name.to_string(),
    };
    let known = FIGURES.iter().find(|(n, _)| *n == name);
    let &(name, run) = known.ok_or_else(|| format!("{name:?}: unknown figure"))?;
    parsed.figure = name;
    let selector = positionals.next();
    if let Some(extra) = positionals.next() {
        return Err(format!("{extra:?}: unexpected argument"));
    }
    match (run, selector) {
        (_, None) => {}
        (Run::PerSpec(_), Some("dh")) => parsed.specs = vec![SyntheticSpec::dh()],
        (Run::PerSpec(_), Some("ch")) => parsed.specs = vec![SyntheticSpec::ch()],
        (Run::PerSpec(_), Some("dch")) => parsed.specs = vec![SyntheticSpec::dch()],
        (Run::PerSpec(_), Some(other)) => return Err(format!("{other:?}: expected dh, ch or dch")),
        (Run::Whole(_), Some(extra)) => {
            return Err(format!("{extra:?}: {name} takes no workload selector"))
        }
    }
    if parsed.faults && name != "all" {
        return Err(format!("--faults: only `all` takes it, not {name}"));
    }
    Ok((run, parsed))
}

/// [`parse_from`] over the process arguments; on an error prints it plus
/// [`USAGE`] and exits with status 2.
pub fn parse_args() -> (Run, BenchArgs) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_from(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    })
}

impl BenchArgs {
    /// If `--trace` named a path, run the canonical traced
    /// chaos cell and write its Chrome trace-event JSON there and the
    /// metrics snapshot next to it with a `.metrics.json` extension;
    /// otherwise do nothing. Load the trace in Perfetto (ui.perfetto.dev)
    /// or `chrome://tracing`.
    pub fn write_trace(&self) {
        let Some(path) = &self.trace else { return };
        let (report, tel) = traced_chaos_run(self.scale, self.seed, TelemetryConfig::default());
        std::fs::write(path, tel.to_chrome_json())
            .unwrap_or_else(|e| panic!("cannot write trace {}: {e}", path.display()));
        let metrics_path = path.with_extension("metrics.json");
        std::fs::write(&metrics_path, tel.metrics_json())
            .unwrap_or_else(|e| panic!("cannot write metrics {}: {e}", metrics_path.display()));
        eprintln!(
            "trace [serial]: {} events -> {} (metrics -> {}); chaos run: retries={} failovers={} dropped={}",
            tel.events.len(),
            path.display(),
            metrics_path.display(),
            report.retries,
            report.failovers,
            report.dropped_messages,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_from(&args).map(|(_run, args)| args)
    }

    #[test]
    fn good_arguments_parse_wherever_the_selector_stands() {
        let a = parse(&["fig5"]).unwrap();
        assert_eq!(
            (a.figure, a.scale, a.seed, a.faults, a.trace),
            ("fig5", 1.0, 42, false, None)
        );
        let a = parse(&[
            "--scale",
            "0.1",
            "all",
            "--faults",
            "--seed",
            "7",
            "--threads",
            "2",
            "--trace",
            "out.json",
        ])
        .unwrap();
        assert_eq!((a.figure, a.faults), ("all", true));
        assert_eq!((a.scale, a.seed, a.threads), (0.1, 7, Some(2)));
        assert_eq!(a.trace, Some("out.json".into()));

        let names = |a: &BenchArgs| a.specs.iter().map(|s| s.name).collect::<Vec<_>>();
        assert_eq!(names(&parse(&["fig11"]).unwrap()), ["DH", "CH", "DCH"]);
        let first = parse(&["fig8", "dh", "--scale", "0.1"]).unwrap();
        let last = parse(&["fig8", "--scale", "0.1", "dh"]).unwrap();
        assert_eq!((first.figure, names(&first)), ("fig8", vec!["DH"]));
        assert_eq!(format!("{first:?}"), format!("{last:?}"));
        let a = parse(&["--seed", "1", "ablate", "--scale", "0.2", "ski"]).unwrap();
        assert_eq!((a.figure, a.scale, a.seed), ("ablate ski", 0.2, 1));
    }

    #[test]
    fn malformed_and_missing_values_are_errors_not_defaults() {
        for bad in [
            &["--scale", "0,1"][..],
            &["--scale", "-1"],
            &["--scale", "nan"],
            &["--seed", "x"],
            &["--seed", "-3"],
            &["--threads", "0"],
            &["--threads", "two"],
            &["--trace", ""],
            &["--scale"],
            &["--seed"],
            &["--threads"],
            &["--trace"],
            &["fig8", "--sclae", "0.1"],
            // A removed flag is an unknown option, never silently ignored.
            &["chaos", "--trace-shards", "8"],
            &["chaos", "--trace", "t.json", "--trace-shards", "8"],
            &["fig5", "--faults"],
        ] {
            let err = parse(bad).expect_err(&format!("{bad:?} parsed"));
            let flag = bad.iter().rev().find(|t| t.starts_with("--")).unwrap();
            assert!(err.starts_with(flag), "{bad:?}: {err}");
        }
        // Names and selectors: the error quotes the offending token.
        for (bad, token) in [
            (&["nope"][..], "nope"),
            (&["fig8", "dhh"], "dhh"),
            (&["fig5", "dh"], "dh"),
            (&["fig8", "dh", "ch"], "ch"),
            (&["ablate", "nope"], "ablate nope"),
        ] {
            let err = parse(bad).expect_err(&format!("{bad:?} parsed"));
            assert!(err.starts_with(&format!("{token:?}")), "{bad:?}: {err}");
        }
        for bad in [&[][..], &["--scale", "0.1"], &["ablate"]] {
            let err = parse(bad).expect_err(&format!("{bad:?} parsed"));
            assert!(err.contains("name"), "{bad:?}: {err}");
        }
    }

    /// The figures no other test runs — fig6, fig7, fig9, fig11 and the six
    /// ablations — at the smallest scale: each table keeps its shape and
    /// every value is finite. Every figure floors its input, the offline
    /// cache and frequency traces at 1000 items like the simulated cells,
    /// so all of them run at scale 0. To keep this near 15 s unoptimized on
    /// two cores, fig5 (~4 s alone) and fig11's DH and DCH tables (the CH
    /// table runs the same code) are left to `scripts/same-bytes.sh`.
    #[test]
    fn unpinned_figures_run_at_floor_scale() {
        let a = parse(&["ablate", "ski", "--scale", "0", "--seed", "1"]).unwrap();
        let tables = [
            (fig6(0.0, 1), 1, 5),
            (fig7(0.0, 1), 4, 2),
            (fig9(0.0, 1), 4, 3),
            (ablations::batch(&a), 6, 3),
            (ablations::cache_eviction(&a), 3, 3),
            (ablations::cache_admission(&a), 3, 3),
            (ablations::extensions(&a), 5, 2),
            (ablations::freq_accuracy(&a), 5, 3),
            (ablations::freq_end_to_end(&a), 3, 3),
            (ablations::lb(&a), 4, 3),
            (ablations::ski(&a), 5, 3),
            (fig11(&SyntheticSpec::ch(), 0.0, 1), 4, 5),
        ];
        for (table, rows, columns) in tables {
            let shape = (table.rows.len(), table.columns.len());
            assert_eq!(shape, (rows, columns), "{}", table.title);
            for (label, vals) in &table.rows {
                assert_eq!(vals.len(), columns, "{}: {label}", table.title);
                let finite = vals.iter().all(|v| v.is_finite());
                assert!(finite, "{}: {label} {vals:?}", table.title);
            }
        }
    }

    /// The help text and the dispatch table name the same figures, in the
    /// same order, and every one of them parses.
    #[test]
    fn usage_and_figure_table_agree() {
        let listed: Vec<&str> = USAGE
            .lines()
            .skip(1)
            .take(2)
            .flat_map(|line| line.split(|c: char| c.is_whitespace() || "<|>".contains(c)))
            .filter(|word| !["", "name", "ablate"].contains(word))
            .collect();
        let in_table: Vec<&str> = FIGURES
            .iter()
            .map(|&(name, _)| name.strip_prefix("ablate ").unwrap_or(name))
            .collect();
        assert_eq!(listed, in_table);
        for &(name, _) in FIGURES {
            let words: Vec<&str> = name.split(' ').collect();
            assert_eq!(parse(&words).expect(name).figure, name);
        }
    }
}
