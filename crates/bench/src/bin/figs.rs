//! Regenerates the paper's figures, the chaos / overload / elastic
//! figures and the ablations: `figs <name> [dh|ch|dch] [options]`; a bare
//! `figs` prints the names and options ([`jl_bench::USAGE`]).
//!
//! The figure and the trace run inside one thread pool of `--threads N`
//! threads (every core by default). After the figure, `--trace <path>`
//! runs the canonical traced chaos cell and writes a Perfetto-loadable
//! Chrome trace plus a `.metrics.json` snapshot next to it; the figure
//! runs themselves stay telemetry-free.

fn main() -> Result<(), rayon::ThreadPoolBuildError> {
    let (run, args) = jl_bench::parse_args();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(args.threads.unwrap_or(0))
        .build()?;
    pool.install(|| {
        run.call(&args);
        args.write_trace();
    });
    Ok(())
}
