//! Regenerates the paper's figures, the chaos / overload / elastic
//! figures and the ablations: `figs <name> [dh|ch|dch] [options]`; a bare
//! `figs` prints the names and options ([`jl_bench::USAGE`]).
//!
//! After the figure, `--trace <path>` (or `JL_TRACE=<path>`) runs the
//! canonical traced chaos cell and writes a Perfetto-loadable Chrome trace
//! plus a `.metrics.json` snapshot next to it; the figure runs themselves
//! stay telemetry-free.

fn main() {
    let (run, args) = jl_bench::parse_args();
    run.call(&args);
    args.write_trace();
}
