//! CloudBurst-style genome read alignment (Appendix A): align short reads
//! against a k-mer index of a repetitive reference. Repetitive motifs make
//! some k-mers heavy hitters with expensive candidate lists — the UDO skew
//! that cripples reduce-side MapReduce and that per-key placement absorbs.
//!
//!     cargo run --release -p jl-bench --example genome_alignment

use std::collections::HashMap;
use std::sync::Arc;

use jl_core::{OptimizerConfig, Strategy};
use jl_engine::baselines::{run_reduce_side, ReduceSideKind};
use jl_engine::plan::{JobPlan, JobTuple};
use jl_engine::{build_store, reference_run, run_job, ClusterSpec, FeedMode, JobSpec};
use jl_simkit::time::SimTime;
use jl_store::{RowKey, StoredValue, UdfRegistry};
use jl_workloads::{AlignUdf, GenomeWorkload};

fn main() {
    let cluster = ClusterSpec::default();
    let genome = GenomeWorkload::scaled_default(42);
    let index = genome.index_rows();
    let reads = genome.sample_reads();
    println!(
        "reference: {} bases ({} motif copies); index: {} k-mers; reads: {} × {} seeds",
        genome.reference_len,
        genome.motif_copies,
        index.len(),
        reads.len(),
        genome.seeds_per_read,
    );

    // One tuple per (read, seed).
    let mut tuples = Vec::new();
    let mut seq = 0u64;
    for read in &reads {
        for &kmer in &read.seeds {
            tuples.push(JobTuple {
                seq,
                keys: vec![RowKey::from_u64(kmer)],
                params_size: genome.read_len as u32,
                arrival: SimTime::ZERO,
            });
            seq += 1;
        }
    }

    let mut udfs = UdfRegistry::new();
    udfs.register(
        0,
        Arc::new(AlignUdf {
            context: genome.context,
        }),
    );
    let plan = JobPlan::single(0, 0);

    // Reference execution to verify against.
    let store = build_store(&cluster, vec![("kmers".into(), index.clone())]);
    let reference = reference_run(&store, &udfs, &plan, &tuples);

    // Naive reduce-side MapReduce (CloudBurst's original shape).
    let map: HashMap<RowKey, StoredValue> = index.iter().cloned().collect();
    let mr = run_reduce_side(ReduceSideKind::Naive, &cluster, &map, &udfs, &plan, &tuples);
    assert_eq!(mr.fingerprint, reference.fingerprint);
    println!(
        "reduce-side MapReduce: {:>7.2}s  (reducer CPU skew {:.1}x)",
        mr.duration.as_secs_f64(),
        mr.cpu_skew
    );

    // Our framework.
    let store = build_store(&cluster, vec![("kmers".into(), index)]);
    let job = JobSpec::new(
        cluster.clone(),
        OptimizerConfig::for_strategy(Strategy::Full),
        FeedMode::Batch { window: 256 },
        plan,
        42,
        1e-5,
    );
    let ours = run_job(&job, store, udfs, tuples, vec![]);
    assert_eq!(ours.fingerprint, reference.fingerprint);
    println!(
        "our framework:         {:>7.2}s  ({} alignments; {} hot k-mers cached, skew {:.1}x)",
        ours.duration.as_secs_f64(),
        ours.completed,
        ours.cache.inserts_mem + ours.cache.inserts_disk,
        ours.data_cpu_skew(),
    );
    println!("identical alignments from both executions ✓");
}
