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
//!
//! Three protocols are sans-IO tables that read no clock and perform no
//! IO; the node that owns each makes every runtime and trace call.
//! Live region migration is one transition table (the private
//! `migration` module) that the data node feeds events and whose effects
//! it performs; the [`controller`] plans migrations and drains. The data
//! node's batches live in one ingest table (the private `ingest` module)
//! from admission to completion: the queue cap, the high/low watermark
//! hysteresis and the load counters a batch releases when it completes.
//! The compute node's live tuples are one table too (the private
//! `requests` module): one record per live tuple, holding what the node
//! adds to the tuple's one request, one timer-tag decoder, and one rule
//! for what a NACK or a fired timer does. The request itself is recorded
//! once, in the optimizer's in-flight table, whose params name its tuple.

#![warn(missing_docs)]

pub mod baselines;
pub mod cluster;
pub mod compute_node;
pub mod config;
pub mod controller;
pub mod data_node;
mod ingest;
mod migration;
pub mod plan;
mod requests;
pub mod runner;
pub mod shuffle;
pub mod telemetry;
pub mod verify;

pub use baselines::{run_reduce_side, BaselineReport, ReduceSideKind};
pub use cluster::{ClusterNode, ClusterSim, EKey, Msg, Val};
pub use compute_node::{CompletionHook, TupleFate};
pub use config::{
    chaos_retry, AutoscaleConfig, ClusterSpec, FeedMode, MembershipConfig, MembershipEvent,
    NotifyMode, OverloadConfig, RetryConfig,
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
pub use verify::{reference_run, Expected, Reference};
