//! Ablation: batch size × max-wait sweep (the paper's §7.2 future work on
//! dynamic batch sizing).

use jl_bench::output::FigTable;
use jl_bench::{ablation_inputs, parse_args_full, scaled, SyntheticCell};
use jl_engine::{run_job, ClusterSpec};
use jl_simkit::time::SimDuration;
use jl_workloads::SyntheticSpec;

fn main() {
    let args = parse_args_full(1.0);
    let cell = SyntheticCell {
        cluster: ClusterSpec::default(),
        ..SyntheticCell::new(scaled(SyntheticSpec::dh(), args.scale), 0.5, args.seed)
    };
    let mut rows = Vec::new();
    for batch in [1usize, 8, 32, 64, 128, 256] {
        let mut vals = Vec::new();
        for wait_ms in [1u64, 5, 50] {
            let (mut job, store, udfs, tuples) = ablation_inputs(&cell);
            job.optimizer.batch_size = batch;
            job.optimizer.batch_max_wait = SimDuration::from_millis(wait_ms);
            let r = run_job(&job, store, udfs, tuples, vec![]);
            vals.push(r.duration.as_secs_f64());
        }
        rows.push((format!("batch {batch}"), vals));
    }
    let t = FigTable {
        title: "Ablation — batch size × max wait (DH, z=0.5), time (s)".into(),
        row_label: "".into(),
        columns: vec!["1 ms".into(), "5 ms".into(), "50 ms".into()],
        rows,
    };
    println!("{}", t.render());
    args.write_trace();
}
