//! Ablation of the two future-work extensions (§10, §5 footnote 4):
//! offloading cache-hit computation under local CPU pressure, and dynamic
//! batch sizing. Run on the compute-heavy workload at the paper's own
//! problem point (z = 1.5, where FO left data nodes underutilized).

use jl_bench::output::FigTable;
use jl_bench::{ablation_inputs, parse_args_full, scaled, SyntheticCell};
use jl_engine::run_job;
use jl_workloads::SyntheticSpec;

fn run(offload: Option<u64>, dyn_batch: Option<usize>, cell: &SyntheticCell) -> (f64, u64) {
    let (mut job, store, udfs, tuples) = ablation_inputs(cell);
    job.optimizer.offload_cached_above = offload;
    if let Some(max) = dyn_batch {
        job.optimizer.batch_size = 8;
        job.optimizer.dynamic_batch_max = Some(max);
    }
    let r = run_job(&job, store, udfs, tuples, vec![]);
    (r.duration.as_secs_f64(), r.decisions.offloaded_hits)
}

fn main() {
    let args = parse_args_full(1.0);
    // The figure-standard cell already runs the §9.3 cluster (block cache
    // off), which is the regime this ablation wants.
    let cell = SyntheticCell::new(scaled(SyntheticSpec::ch(), args.scale), 1.5, args.seed);
    let mut rows = Vec::new();
    let (base, _) = run(None, None, &cell);
    rows.push(("FO (paper)".to_string(), vec![base, 0.0]));
    for thr in [32u64, 64, 128] {
        let (t, off) = run(Some(thr), None, &cell);
        rows.push((format!("FO + offload>{thr}"), vec![t, off as f64]));
    }
    let (t, _) = run(None, Some(256), &cell);
    rows.push(("FO + dynamic batch".to_string(), vec![t, 0.0]));
    let table = FigTable {
        title: "Ablation — future-work extensions (CH, z=1.5)".into(),
        row_label: "variant".into(),
        columns: vec!["time (s)".into(), "offloaded hits".into()],
        rows,
    };
    println!("{}", table.render());
    args.write_trace();
}
