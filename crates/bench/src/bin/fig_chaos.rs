//! Regenerates the chaos figure: throughput and tail latency under a
//! crash-and-recover scenario (plus a straggler and a lossy link) for the
//! NO / FC / FO strategies, with timeout/retry/failover enabled.
//!
//! Usage: `fig_chaos [--scale F] [--seed N] [--threads N] [--trace PATH]
//!         [--trace-shards N]`
//!
//! `--trace <path>` (or `JL_TRACE=<path>`) re-runs the full-optimizer cell
//! with telemetry recording and writes a Perfetto-loadable Chrome trace
//! plus a `.metrics.json` snapshot next to it. `--trace-shards N` (or
//! `JL_TRACE_SHARDS=N`) hosts that traced run on the parallel kernel —
//! same trace bytes, N worker shards.

use jl_bench::{fig_chaos, parse_args_full};

fn main() {
    let args = parse_args_full(1.0);
    println!("{}", fig_chaos(args.scale, args.seed).render());
    args.write_trace();
}
