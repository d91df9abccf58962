//! Optimizer configuration: execution strategies and tunables.

use jl_cache::SizeMode;
use jl_simkit::time::SimDuration;

/// Which of the paper's execution strategies to run (§9.1's option names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// **NO** — naive map-side join: synchronous per-tuple fetches, function
    /// at the compute node, no batching, prefetching or caching.
    NoOpt,
    /// **FC** — function at compute nodes: batched, prefetched data
    /// requests; no caching; no compute requests.
    ComputeSide,
    /// **FD** — function at data nodes: everything is a (batched,
    /// prefetched) compute request; the data node computes all of them.
    DataSide,
    /// **FR** — per-tuple uniform random choice between a data request and
    /// a compute request; batched and prefetched, no caching.
    Random,
    /// **CO** — ski-rental caching only: Algorithm 1 placement, but the data
    /// node always computes the compute requests (no load balancing).
    CacheOnly,
    /// **LO** — load balancing only: everything is a compute request and the
    /// data node picks the split `d`; no caching.
    BalanceOnly,
    /// **FO** — the full optimizer: ski-rental caching + load balancing +
    /// batching + prefetching.
    Full,
}

impl Strategy {
    /// The paper's figure label for this strategy.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::NoOpt => "NO",
            Strategy::ComputeSide => "FC",
            Strategy::DataSide => "FD",
            Strategy::Random => "FR",
            Strategy::CacheOnly => "CO",
            Strategy::BalanceOnly => "LO",
            Strategy::Full => "FO",
        }
    }

    /// Does this strategy cache fetched values?
    pub fn caches(&self) -> bool {
        matches!(self, Strategy::CacheOnly | Strategy::Full)
    }

    /// Does the data node run the load-balancing split on compute batches?
    pub fn balances(&self) -> bool {
        matches!(self, Strategy::BalanceOnly | Strategy::Full)
    }

    /// Does this strategy batch and prefetch requests?
    pub fn batches(&self) -> bool {
        !matches!(self, Strategy::NoOpt)
    }

    /// All seven strategies, in the figures' order.
    pub fn all() -> [Strategy; 7] {
        [
            Strategy::NoOpt,
            Strategy::ComputeSide,
            Strategy::DataSide,
            Strategy::Random,
            Strategy::CacheOnly,
            Strategy::BalanceOnly,
            Strategy::Full,
        ]
    }
}

/// Which solver the data node uses for the batch split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbSolver {
    /// Gradient descent from a random start (the paper's heuristic).
    GradientDescent,
    /// Exact piecewise-linear minimizer (ablation).
    Exact,
}

/// All tunables of the runtime optimizer.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Execution strategy.
    pub strategy: Strategy,
    /// Memory-cache budget per compute node, bytes (paper: 100 MB).
    pub mem_cache_bytes: u64,
    /// Disk-cache budget per compute node, bytes (`u64::MAX` = unbounded).
    pub disk_cache_bytes: u64,
    /// Uniform or variable-size memory admission.
    pub size_mode: SizeMode,
    /// Requests per batch to each data node (§7.2).
    pub batch_size: usize,
    /// Flush a non-full batch after this long (§7.2 latency bound).
    pub batch_max_wait: SimDuration,
    /// Lossy-counting error bound for access counts.
    pub lossy_epsilon: f64,
    /// Exponential-smoothing factor for measured costs (§3.2).
    pub smoothing_alpha: f64,
    /// Multiplier on the ski-rental buy threshold (1.0 = the paper's
    /// `b/(r − br)`; swept by `figs ablate ski`).
    pub ski_threshold_scale: f64,
    /// Batch-split solver.
    pub lb_solver: LbSolver,
    /// `None` = adapt continuously (the paper's default). `Some(n)` =
    /// freeze caching decisions after `n` input tuples (the non-adaptive
    /// baseline of Figure 9).
    pub freeze_cache_after: Option<u64>,
    /// Per-key cost registry capacity.
    pub perkey_capacity: usize,
    /// §10 future work, implemented as an extension: adapt the batch size
    /// within `[batch_size, dynamic_batch_max]` based on the flush pattern.
    pub dynamic_batch_max: Option<usize>,
    /// §5 footnote 4 future work, implemented as an extension: when this
    /// node's pending local executions exceed the threshold and the data
    /// node is not congested, *offload* even cache-hit keys as compute
    /// requests, pulling underutilized data-node CPU into play under very
    /// high skew + high compute cost.
    pub offload_cached_above: Option<u64>,
}

impl OptimizerConfig {
    /// The paper's defaults for a given strategy.
    pub fn for_strategy(strategy: Strategy) -> Self {
        OptimizerConfig {
            strategy,
            mem_cache_bytes: 100 << 20, // 100 MB, §9
            disk_cache_bytes: u64::MAX,
            size_mode: SizeMode::Variable,
            batch_size: 64,
            batch_max_wait: SimDuration::from_millis(50),
            lossy_epsilon: 1e-4,
            smoothing_alpha: 0.3,
            ski_threshold_scale: 1.0,
            lb_solver: LbSolver::GradientDescent,
            freeze_cache_after: None,
            perkey_capacity: 100_000,
            dynamic_batch_max: None,
            offload_cached_above: None,
        }
    }

    /// Full optimizer with defaults.
    pub fn full() -> Self {
        Self::for_strategy(Strategy::Full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_predicates() {
        assert!(Strategy::Full.caches() && Strategy::Full.balances());
        assert!(Strategy::CacheOnly.caches() && !Strategy::CacheOnly.balances());
        assert!(!Strategy::BalanceOnly.caches() && Strategy::BalanceOnly.balances());
        assert!(!Strategy::NoOpt.batches());
        assert!(Strategy::ComputeSide.batches());
        assert_eq!(Strategy::all().len(), 7);
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = Strategy::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["NO", "FC", "FD", "FR", "CO", "LO", "FO"]);
    }

    #[test]
    fn defaults_are_sane() {
        let c = OptimizerConfig::full();
        assert_eq!(c.mem_cache_bytes, 100 << 20);
        assert!(c.batch_size > 0);
        assert!(c.lossy_epsilon > 0.0 && c.lossy_epsilon < 1.0);
    }
}
