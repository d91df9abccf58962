//! The per-compute-node runtime: Algorithm 1 (`skiRentalCaching`) plus
//! batching, prefetch bookkeeping, runtime cost measurement, and the load
//! statistics of Appendix C.
//!
//! The runtime is a passive state machine: the driver (simulation actor or
//! thread pool) feeds it input tuples and responses, and it returns
//! [`Action`](crate::types::Action)s — local UDF executions to run and
//! batches to transmit. It never blocks and holds no engine state, which is
//! what makes compute nodes stateless (beyond the cache) and elastically
//! addable/removable.
//!
//! The module splits into two planes plus shared measurement:
//!
//! - `runtime` (re-exported here) — the *execution plane*: request
//!   lifecycle, batching, in-flight fetch suppression, cache admission,
//!   response absorption.
//! - [`policy`] — the *decision plane*: the [`PlacementPolicy`] trait, one
//!   implementation per paper strategy, and the [`DecisionSink`] observer
//!   hook.
//! - [`costs`] — cost *measurement*: per-key and per-destination estimates
//!   that price each decision.
//!
//! [`PlacementPolicy`]: policy::PlacementPolicy
//! [`DecisionSink`]: policy::DecisionSink

pub mod costs;
pub mod policy;
mod runtime;

pub use runtime::{ComputeRuntime, DecisionStats};
