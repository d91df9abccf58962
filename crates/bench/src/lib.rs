//! # jl-bench — figure regeneration and ablations
//!
//! One binary per figure of the paper's evaluation (`fig5_clueweb`,
//! `fig6_twitter`, `fig7_tpcds`, `fig8_synthetic`, `fig9_adaptive`,
//! `fig11_muppet`, plus `figs_all`), ablation binaries, and Criterion
//! micro-benchmarks over the core data structures. See EXPERIMENTS.md for
//! paper-vs-measured tables.
//!
//! Also home of the [`serve`] layer and its `jl-serve` binary: the same
//! engine on the wall-clock backend, answering a live request stream.

#![warn(missing_docs)]

use jl_engine::Backend;
use jl_telemetry::TelemetryConfig;

pub mod experiments;
pub mod observe;
pub mod output;
pub mod serve;

pub use experiments::{
    ablation_inputs, bench_cell, bench_threads, chaos_fault_plan, chaos_retry,
    check_elastic_invariants, digest_udfs, fig11, fig5, fig6, fig7, fig8, fig9, fig_chaos,
    fig_elastic, fig_overload, overload_bounded_config, run_chaos_churn_report, run_chaos_report,
    run_elastic_stream, run_grid, run_overload_stream, scaled, synthetic_tuples, traced_chaos_run,
    ElasticCell, OverloadCell, SyntheticCell, CHAOS_STRATEGIES, ELASTIC_PEAK_LOAD,
    ELASTIC_TROUGH_LOAD, SKEWS,
};
pub use observe::{ObserveConfig, ServeLive, ServeShared};
pub use output::FigTable;
pub use serve::{serve, serve_observed, ServeConfig, ServeStats};

/// Arguments shared by the figure binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Input-volume scale (1.0 = figure scale).
    pub scale: f64,
    /// Base seed for every per-cell RNG stream.
    pub seed: u64,
    /// Where to write the Chrome trace-event JSON of the canonical traced
    /// run ([`traced_chaos_run`]), from `--trace <path>` or the `JL_TRACE`
    /// environment variable. `None` disables telemetry entirely.
    pub trace: Option<std::path::PathBuf>,
    /// Worker-shard count for the traced run, from `--trace-shards N` or
    /// `JL_TRACE_SHARDS`. `None` hosts it on the serial kernel; `Some(n)`
    /// on the parallel kernel with `n` shards — the trace bytes are
    /// identical either way.
    pub trace_shards: Option<usize>,
    /// Experiment-grid thread count from `--threads N` (see
    /// [`bench_threads`]); `None` leaves the environment's choice.
    threads: Option<usize>,
}

const USAGE: &str = "shared options: [--scale F] [--seed N] [--threads N] \
                     [--trace PATH] [--trace-shards N]";

/// Parse the shared figure-binary options out of `args` (the process
/// arguments without the program name). Every recognised flag must carry
/// a well-formed value — `--scale` a finite number ≥ 0, `--threads` and
/// `--trace-shards` an integer ≥ 1 — or the whole parse fails: a typo
/// must not run the full-scale figure under the wrong label. Tokens that
/// are not one of these flags (a binary's own selector such as `dh`, or
/// `--faults`) are left for the binary. Reads no environment and has no
/// side effects.
pub fn parse_from(args: &[String], default_scale: f64) -> Result<BenchArgs, String> {
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
    let mut parsed = BenchArgs {
        scale: default_scale,
        seed: 42,
        trace: None,
        trace_shards: None,
        threads: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => {
                let ok = |s: &f64| s.is_finite() && *s >= 0.0;
                parsed.scale = value(flag, it.next(), ok, "a number >= 0")?;
            }
            "--seed" => parsed.seed = value(flag, it.next(), |_| true, "an unsigned integer")?,
            "--trace" => {
                let path: String = value(flag, it.next(), |p: &String| !p.is_empty(), "a path")?;
                parsed.trace = Some(path.into());
            }
            "--trace-shards" => {
                parsed.trace_shards = Some(value(flag, it.next(), |&n| n >= 1, "an integer >= 1")?)
            }
            "--threads" => {
                parsed.threads = Some(value(flag, it.next(), |&n| n >= 1, "an integer >= 1")?)
            }
            _ => {}
        }
    }
    Ok(parsed)
}

/// Parse the process arguments: returns (scale, seed). See
/// [`parse_args_full`].
pub fn parse_args(default_scale: f64) -> (f64, u64) {
    let a = parse_args_full(default_scale);
    (a.scale, a.seed)
}

/// [`parse_from`] over the process arguments; a malformed or missing value
/// prints the error plus usage and exits with status 2.
///
/// Applies `--threads N` by exporting `JL_BENCH_THREADS` (the variable
/// [`bench_threads`] reads). Thread count never changes results — cells
/// are independent seeded simulations collected in input order — so it is
/// purely a resource-control knob. Where `--trace` / `--trace-shards` are
/// absent, the `JL_TRACE` / `JL_TRACE_SHARDS` environment variables stand
/// in. The trace is a Chrome trace-event file; the metrics snapshot lands
/// next to it with a `.metrics.json` extension.
pub fn parse_args_full(default_scale: f64) -> BenchArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut parsed = parse_from(&args, default_scale).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(n) = parsed.threads {
        std::env::set_var("JL_BENCH_THREADS", n.to_string());
    }
    parsed.trace = parsed.trace.or_else(|| {
        std::env::var_os("JL_TRACE")
            .filter(|v| !v.is_empty())
            .map(Into::into)
    });
    parsed.trace_shards = parsed.trace_shards.or_else(|| {
        std::env::var("JL_TRACE_SHARDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n >= 1)
    });
    parsed
}

impl BenchArgs {
    /// If `--trace` / `JL_TRACE` named a path, run the canonical traced
    /// chaos cell and write its Chrome trace-event JSON there and the
    /// metrics snapshot next to it with a `.metrics.json` extension;
    /// otherwise do nothing. `trace_shards` picks the hosting kernel —
    /// the output bytes are identical. Load the trace in Perfetto
    /// (ui.perfetto.dev) or `chrome://tracing`.
    pub fn write_trace(&self) {
        let Some(path) = &self.trace else { return };
        let backend = self.trace_shards.map_or(Backend::Sim, Backend::Par);
        let (report, tel) =
            traced_chaos_run(self.scale, self.seed, TelemetryConfig::default(), backend);
        std::fs::write(path, tel.to_chrome_json())
            .unwrap_or_else(|e| panic!("cannot write trace {}: {e}", path.display()));
        let metrics_path = path.with_extension("metrics.json");
        std::fs::write(&metrics_path, tel.metrics_json())
            .unwrap_or_else(|e| panic!("cannot write metrics {}: {e}", metrics_path.display()));
        let kernel = match self.trace_shards {
            None => "serial".to_string(),
            Some(n) => format!("par{n}"),
        };
        eprintln!(
            "trace [{kernel}]: {} events -> {} (metrics -> {}); chaos run: retries={} failovers={} dropped={}",
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
        parse_from(&args, 1.0)
    }

    #[test]
    fn good_arguments_parse_and_foreign_tokens_pass_through() {
        let a = parse(&[]).unwrap();
        assert_eq!(
            (a.scale, a.seed, a.trace, a.trace_shards),
            (1.0, 42, None, None)
        );
        let a = parse(&[
            "dh",
            "--scale",
            "0.1",
            "--faults",
            "--seed",
            "7",
            "--threads",
            "2",
            "--trace",
            "out.json",
            "--trace-shards",
            "8",
        ])
        .unwrap();
        assert_eq!((a.scale, a.seed, a.threads), (0.1, 7, Some(2)));
        assert_eq!(a.trace, Some("out.json".into()));
        assert_eq!(a.trace_shards, Some(8));
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
            &["--trace-shards", "0"],
            &["--trace", ""],
            &["--scale"],
            &["--seed"],
            &["--threads"],
            &["--trace"],
            &["dh", "--seed", "1", "--trace-shards"],
        ] {
            let err = parse(bad).expect_err(&format!("{bad:?} parsed"));
            let flag = bad.iter().rev().find(|t| t.starts_with("--")).unwrap();
            assert!(err.starts_with(flag), "{bad:?}: {err}");
        }
    }
}
