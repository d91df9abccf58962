//! Ablation: gradient-descent vs exact batch-split solver (DESIGN.md).
//!
//! The paper uses gradient descent as a cheap per-batch heuristic; since
//! the objective is convex piecewise-linear, an exact solver is also cheap.
//! This compares end-to-end job time and the objective gap.

use jl_bench::output::FigTable;
use jl_bench::{ablation_inputs, parse_args_full, scaled, SyntheticCell};
use jl_core::LbSolver;
use jl_engine::{run_job, ClusterSpec};
use jl_workloads::SyntheticSpec;

fn run(solver: LbSolver, cell: &SyntheticCell) -> f64 {
    let (mut job, store, udfs, tuples) = ablation_inputs(cell);
    job.optimizer.lb_solver = solver;
    run_job(&job, store, udfs, tuples, vec![])
        .duration
        .as_secs_f64()
}

fn main() {
    let args = parse_args_full(1.0);
    let mut rows = Vec::new();
    for spec in [SyntheticSpec::ch(), SyntheticSpec::dch()] {
        let spec = scaled(spec, args.scale);
        for z in [0.0, 1.0] {
            let cell = SyntheticCell {
                cluster: ClusterSpec::default(),
                ..SyntheticCell::new(spec.clone(), z, args.seed)
            };
            let gd = run(LbSolver::GradientDescent, &cell);
            let exact = run(LbSolver::Exact, &cell);
            rows.push((format!("{} z={z}", spec.name), vec![gd, exact, gd / exact]));
        }
    }
    let t = FigTable {
        title: "Ablation — batch-split solver: gradient descent (paper) vs exact".into(),
        row_label: "workload".into(),
        columns: vec!["gd (s)".into(), "exact (s)".into(), "gd/exact".into()],
        rows,
    };
    println!("{}", t.render());
    args.write_trace();
}
