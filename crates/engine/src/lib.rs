//! # jl-engine — simulated execution frameworks
//!
//! Drives the `jl-core` optimizer over the `jl-simkit` cluster with the
//! `jl-store` data store: compute-node and data-node actors, batch and
//! streaming feeds, pipelined multi-join plans (§6), and the paper's
//! reduce-side baselines (naive Hadoop, CSAW, FlowJoinLB) plus a
//! shuffle-hash-join baseline for the Spark comparison.
//!
//! The data plane is real — every strategy must reproduce the reference
//! join fingerprint ([`verify::reference_run`]) — while time is pluggable
//! through the `jl-runtime` seam: [`run_job_on`] takes a [`Backend`] —
//! simulated (the deterministic oracle) or wall-clock (also what the
//! `jl-serve` request/response layer builds on, by pacing the kernel
//! [`runner::load_host`] returns). Both run the same [`ClusterSim`].

#![warn(missing_docs)]

pub mod baselines;
pub mod cluster;
pub mod compute_node;
pub mod config;
pub mod controller;
pub mod data_node;
pub mod plan;
pub mod runner;
pub mod shuffle;
pub mod telemetry;
pub mod verify;

pub use baselines::{run_reduce_side, BaselineReport, ReduceSideKind};
pub use cluster::{ClusterNode, ClusterSim, EKey, Msg, Val};
pub use compute_node::{CompletionHook, TupleFate, TupleOutcome};
pub use config::{
    AutoscaleConfig, ClusterSpec, FeedMode, MembershipConfig, MembershipEvent, NotifyMode,
    OverloadConfig, RetryConfig,
};
pub use plan::{JobPlan, JobTuple, StageSpec};
pub use runner::{
    build_cluster, build_store, build_store_active, gather_report, load_host, process_names,
    run_job, run_job_on, run_job_parallel, run_job_traced, snapshot_delta, unwrap_telemetry,
    AutoscaleFactory, Backend, BuiltCluster, JobSpec, PolicyFactory, RunReport, ShedFactory,
    SinkFactory,
};
pub use shuffle::run_shuffle_multijoin;
pub use telemetry::EngineProbe;
pub use verify::{reference_run, Reference};
