//! Ablation: sensitivity to the ski-rental buy threshold.
//!
//! Scales the paper's `b/(r − br)` threshold by ×0.25…×4; the optimum
//! should sit near ×1 (buying too early wastes fetches, too late wastes
//! rents). The sweep parameterizes the policy object directly
//! ([`SkiRentalPolicy::with_scale`] via [`JobSpec::policy`]) instead of
//! round-tripping the scale through a config field.
//!
//! [`JobSpec::policy`]: jl_engine::JobSpec::policy

use jl_bench::output::FigTable;
use jl_bench::{ablation_inputs, parse_args_full, scaled, SyntheticCell};
use jl_core::SkiRentalPolicy;
use jl_engine::{run_job, ClusterSpec};
use jl_workloads::SyntheticSpec;
use std::sync::Arc;

fn main() {
    let args = parse_args_full(1.0);
    let cell = SyntheticCell {
        cluster: ClusterSpec::default(),
        ..SyntheticCell::new(scaled(SyntheticSpec::dch(), args.scale), 1.0, args.seed)
    };
    let mut rows = Vec::new();
    for ski_scale in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let (mut job, store, udfs, tuples) = ablation_inputs(&cell);
        job.policy = Some(Arc::new(move |cfg, _seed| {
            Box::new(SkiRentalPolicy::with_scale(cfg, ski_scale))
        }));
        let r = run_job(&job, store, udfs, tuples, vec![]);
        rows.push((
            format!("x{ski_scale}"),
            vec![
                r.duration.as_secs_f64(),
                r.decisions.data_requests as f64,
                r.decisions.mem_hits as f64 + r.decisions.disk_hits as f64,
            ],
        ));
    }
    let t = FigTable {
        title: "Ablation — ski-rental threshold scale (DCH, z=1)".into(),
        row_label: "scale".into(),
        columns: vec!["time (s)".into(), "buys".into(), "cache hits".into()],
        rows,
    };
    println!("{}", t.render());
    args.write_trace();
}
