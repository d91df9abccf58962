//! Cluster and run configuration.

use jl_simkit::sim::{NetConfig, NodeSpec};
use jl_simkit::time::SimDuration;

/// Hardware and topology of the simulated cluster, defaulting to the
/// paper's testbed: 20 nodes, two quad-core Xeons each, GbE, with 10
/// compute + 10 data nodes for the framework runs (§9).
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Compute nodes.
    pub n_compute: usize,
    /// Data nodes (region servers).
    pub n_data: usize,
    /// Per-node hardware.
    pub node: NodeSpec,
    /// Network latency/bandwidth model.
    pub net: NetConfig,
    /// Disk seek/setup time per record fetch.
    pub disk_seek: SimDuration,
    /// Disk streaming bandwidth, bytes/second (a record fetch costs
    /// `disk_seek + size / disk_bw`). Defaults to SSD-like numbers: the
    /// paper notes its disk-cache reads behave like SSD reads because of
    /// the file-system buffer.
    pub disk_bw_bps: f64,
    /// Regions per data node (HBase default layout granularity).
    pub regions_per_node: usize,
    /// Region-server block cache per data node, bytes. Sized so the ratio
    /// of block cache to per-node stored data resembles the paper's 16 GB
    /// RAM vs ~20 GB/node store.
    pub block_cache_bytes: u64,
    /// Update-notification scheme.
    pub notify: NotifyMode,
    /// Per-item CPU at a region server (read path + per-row share of the
    /// batched RPC/coprocessor dispatch). This is an irreducible cost of
    /// *renting*: a node receiving a heavy hitter's entire request stream
    /// burns cores on it even when the row is block-cached and the UDF is
    /// cheap.
    pub rpc_cpu: SimDuration,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            n_compute: 10,
            n_data: 10,
            node: NodeSpec {
                cores: 8,
                disk_channels: 4,
                net_bw_bps: 125_000_000.0,
            },
            net: NetConfig::default(),
            disk_seek: SimDuration::from_micros(120),
            disk_bw_bps: 500e6,
            regions_per_node: 4,
            block_cache_bytes: 96 << 20,
            notify: NotifyMode::Targeted,
            rpc_cpu: SimDuration::from_micros(50),
        }
    }
}

impl ClusterSpec {
    /// Simulated disk service time for one record of `bytes`.
    pub fn disk_service(&self, bytes: u64) -> SimDuration {
        self.disk_seek + SimDuration::from_secs_f64(bytes as f64 / self.disk_bw_bps)
    }

    /// Sim node id of compute node `i`.
    pub fn compute_id(&self, i: usize) -> usize {
        debug_assert!(i < self.n_compute);
        i
    }

    /// Sim node id of data node `j`.
    pub fn data_id(&self, j: usize) -> usize {
        debug_assert!(j < self.n_data);
        self.n_compute + j
    }

    /// Sim node id of the controller.
    pub fn controller_id(&self) -> usize {
        self.n_compute + self.n_data
    }

    /// Total sim nodes (compute + data + controller).
    pub fn total_nodes(&self) -> usize {
        self.n_compute + self.n_data + 1
    }
}

/// Timeout/retry/failover behavior of compute nodes. `None` in
/// [`JobSpec`](crate::runner::JobSpec) disables the machinery entirely:
/// no retry timers are armed, so fault-free runs replay the exact event
/// stream they had before faults existed.
#[derive(Debug, Clone, Copy)]
pub struct RetryConfig {
    /// How long an individual request may stay unanswered before the
    /// compute node declares it timed out and re-issues it.
    pub timeout: SimDuration,
    /// Exponential backoff: the timeout doubles per attempt, capped here.
    pub backoff_cap: SimDuration,
    /// Re-issue attempts per request before giving up (a gave-up request
    /// completes its tuple with no output, like a missing row — the run
    /// still terminates).
    pub max_retries: u32,
    /// After a timeout marks a destination down, requests avoid it for
    /// this long before probing it again.
    pub down_cooldown: SimDuration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            timeout: SimDuration::from_secs(1),
            backoff_cap: SimDuration::from_secs(8),
            max_retries: 8,
            down_cooldown: SimDuration::from_secs(2),
        }
    }
}

impl RetryConfig {
    /// The timeout armed for a request on its `attempt`-th try (0-based):
    /// capped exponential backoff.
    pub fn timeout_for(&self, attempt: u32) -> SimDuration {
        let scaled = self.timeout.0.saturating_mul(1u64 << attempt.min(32));
        SimDuration::from_nanos(scaled.min(self.backoff_cap.0))
    }
}

/// Retry knobs scaled to a run whose fault-free duration is `baseline`:
/// the per-request timeout is ~1% of it (floored well above healthy
/// round-trip latency so healthy traffic never times out spuriously),
/// backoff caps at 8× that, and a timed-out node is avoided for 4
/// timeouts before being probed. The chaos scenarios share it.
pub fn chaos_retry(baseline: SimDuration) -> RetryConfig {
    let t = (baseline.as_secs_f64() * 0.01).clamp(0.05, 1.0);
    RetryConfig {
        timeout: SimDuration::from_secs_f64(t),
        backoff_cap: SimDuration::from_secs_f64(t * 8.0),
        max_retries: 8,
        down_cooldown: SimDuration::from_secs_f64(t * 4.0),
    }
}

/// Overload protection: bounded queues, wire backpressure, deadline
/// budgets, and load shedding. `None` in
/// [`JobSpec`](crate::runner::JobSpec) disables the machinery entirely —
/// no admission checks, no NACKs, no deadlines — preserving the exact
/// event stream of the seed build (the overload test suite pins
/// byte-identity of a shed-free permissive run against `None`).
///
/// With it set, each data node bounds its in-flight ingest queue at
/// `data_queue_cap` *items*: a batch that would push the queue past the
/// cap is NACKed on the wire without paying any disk or CPU, and the
/// sending compute node re-presents each NACKed request after
/// `nack_backoff` (or sheds it once its deadline is hopeless). Between
/// the watermarks the node *delay-accepts*: it still serves, but flags
/// every reply `pressured`, and compute nodes react by halving their
/// issue window and telling the decision plane the node is
/// [`Degraded`](jl_core::NodeHealth::Degraded) — the paper's
/// runtime-placement lever applied to overload.
#[derive(Debug, Clone, Copy)]
pub struct OverloadConfig {
    /// Hard admission bound on a data node's in-flight ingest queue,
    /// in request items. Batches that would exceed it are NACKed.
    pub data_queue_cap: u64,
    /// Queue depth at which a data node turns its `pressured` flag on
    /// (piggybacked on every reply). Must satisfy
    /// `0 < low_watermark <= high_watermark <= data_queue_cap`.
    pub high_watermark: u64,
    /// Queue depth at which the `pressured` flag clears (hysteresis, so
    /// the signal does not flap batch-by-batch).
    pub low_watermark: u64,
    /// Bound on a compute node's streaming ingest queue, in tuples.
    /// Arrivals past it trigger the shed policy. Batch feeds are
    /// pull-based and never queue, so the cap does not apply to them.
    pub compute_queue_cap: usize,
    /// Per-tuple deadline budget, measured from the tuple's arrival
    /// (streaming) or its ingest (batch). `None` disables deadline
    /// propagation: nothing is shed for lateness. The budget is
    /// authoritative across retries and failover — no retry timer may
    /// extend a tuple's total latency past it.
    pub deadline: Option<SimDuration>,
    /// How long a compute node waits before re-presenting a NACKed
    /// request to its destination.
    pub nack_backoff: SimDuration,
    /// Which queued tuple the shed policy drops under pressure.
    pub shed: jl_core::ShedMode,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            data_queue_cap: 4096,
            high_watermark: 2048,
            low_watermark: 1024,
            compute_queue_cap: 8192,
            deadline: None,
            nack_backoff: SimDuration::from_millis(2),
            shed: jl_core::ShedMode::DeadlineAware,
        }
    }
}

impl OverloadConfig {
    /// A measurement-only configuration: caps and watermarks too high to
    /// ever trigger, no deadline. Behaviorally byte-identical to running
    /// with no overload config at all, but queue depths are tracked — the
    /// `fig_overload` "naive/unbounded" baseline uses this to *measure*
    /// the queue growth the seed build suffers silently.
    pub fn permissive() -> Self {
        OverloadConfig {
            data_queue_cap: u64::MAX / 2,
            high_watermark: u64::MAX / 2,
            low_watermark: u64::MAX / 4,
            compute_queue_cap: usize::MAX / 2,
            ..OverloadConfig::default()
        }
    }

    /// Validate the knobs, panicking on zero or inverted values — the
    /// same construction-time contract `net_bw_bps` and
    /// [`FaultPlan`](jl_simkit::fault::FaultPlan) validation follow.
    /// Called from [`JobSpec::validate`](crate::JobSpec::validate).
    pub fn validate(&self) {
        assert!(self.data_queue_cap >= 1, "data_queue_cap must be >= 1");
        assert!(
            self.compute_queue_cap >= 1,
            "compute_queue_cap must be >= 1"
        );
        assert!(self.low_watermark >= 1, "low_watermark must be >= 1");
        assert!(
            self.low_watermark <= self.high_watermark,
            "inverted watermarks: low {} > high {}",
            self.low_watermark,
            self.high_watermark
        );
        assert!(
            self.high_watermark <= self.data_queue_cap,
            "high_watermark {} exceeds data_queue_cap {}",
            self.high_watermark,
            self.data_queue_cap
        );
        assert!(
            self.nack_backoff > SimDuration::ZERO,
            "nack_backoff must be positive"
        );
        if let Some(d) = self.deadline {
            assert!(d > SimDuration::ZERO, "deadline budget must be positive");
        }
    }
}

/// One scripted membership change, scheduled at an offset into the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEvent {
    /// Activate standby data node `j` and rebalance a share of regions
    /// onto it via live migration.
    Join(usize),
    /// Gracefully drain data node `j`: rent-penalize it, migrate every
    /// region it owns off, then deactivate it once empty.
    Decommission(usize),
}

/// Elastic-membership configuration. `None` in
/// [`JobSpec`](crate::runner::JobSpec) disables the membership plane
/// entirely — no controller ownership map, no epoch broadcasts, no
/// membership timers — preserving the exact event stream of the static
/// build. With it set, the cluster starts with `initial_active` of the
/// spec's `n_data` data nodes owning regions (the rest are standbys),
/// and the controller drives scripted [`MembershipEvent`]s and/or an
/// [`AutoscalePolicy`](jl_core::AutoscalePolicy) through the live
/// migration protocol.
#[derive(Debug, Clone)]
pub struct MembershipConfig {
    /// Data nodes active (owning regions) at build time; the remaining
    /// `n_data - initial_active` are standbys. Must be in
    /// `1..=n_data`.
    pub initial_active: usize,
    /// Floor on the active count: decommissions and autoscale releases
    /// below it are refused.
    pub min_active: usize,
    /// Scripted membership events, `(offset from start, event)`.
    pub events: Vec<(SimDuration, MembershipEvent)>,
    /// Per-phase migration timeout: if a handoff phase (snapshot
    /// delivery, target install, commit ack) stalls past this, the
    /// migration aborts and the source reclaims the region.
    pub migration_timeout: SimDuration,
    /// Autoscaler cadence; `None` runs scripted events only.
    pub autoscale: Option<AutoscaleConfig>,
}

impl MembershipConfig {
    /// A static-membership baseline: `active` nodes own regions, no
    /// scripted events, no autoscaler. The building block `fig_elastic`
    /// cells and tests start from.
    pub fn static_active(active: usize) -> Self {
        MembershipConfig {
            initial_active: active,
            min_active: 1,
            events: Vec::new(),
            migration_timeout: SimDuration::from_secs(5),
            autoscale: None,
        }
    }
}

/// Autoscaler wiring: how often the controller evaluates the policy and
/// how often active data nodes heartbeat their load signals to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Policy evaluation cadence at the controller.
    pub interval: SimDuration,
    /// Data-node heartbeat cadence (queue depth + pressured flag).
    pub heartbeat: SimDuration,
    /// Built-in policy selector, overridden by the engine's
    /// `AutoscaleFactory` hook when one is supplied.
    pub mode: jl_core::AutoscaleMode,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            interval: SimDuration::from_millis(100),
            heartbeat: SimDuration::from_millis(20),
            mode: jl_core::AutoscaleMode::default(),
        }
    }
}

impl MembershipConfig {
    /// Validate against the cluster shape, panicking on impossible
    /// values — the same construction-time contract
    /// [`OverloadConfig::validate`] follows. Called from
    /// [`JobSpec::validate`](crate::JobSpec::validate).
    pub fn validate(&self, cluster: &ClusterSpec) {
        assert!(
            self.initial_active >= 1 && self.initial_active <= cluster.n_data,
            "initial_active {} outside 1..={}",
            self.initial_active,
            cluster.n_data
        );
        assert!(
            self.min_active >= 1 && self.min_active <= self.initial_active,
            "min_active {} outside 1..=initial_active {}",
            self.min_active,
            self.initial_active
        );
        assert!(
            self.migration_timeout > SimDuration::ZERO,
            "migration_timeout must be positive"
        );
        for &(_, ev) in &self.events {
            let j = match ev {
                MembershipEvent::Join(j) | MembershipEvent::Decommission(j) => j,
            };
            assert!(
                j < cluster.n_data,
                "membership event names data node {j}, cluster has {}",
                cluster.n_data
            );
        }
        if let Some(a) = &self.autoscale {
            assert!(
                a.interval > SimDuration::ZERO && a.heartbeat > SimDuration::ZERO,
                "autoscale interval and heartbeat must be positive"
            );
        }
    }
}

/// How data nodes notify compute nodes about row updates (§4.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NotifyMode {
    /// Notify only the compute nodes recorded as having cached the key
    /// (the paper's preferred scheme; stragglers are caught by the
    /// piggybacked last-update timestamp).
    #[default]
    Targeted,
    /// Broadcast every update to every compute node — simple, but "frequent
    /// updates may flood the nodes of the system".
    Broadcast,
}

/// How input is fed to compute nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeedMode {
    /// Batch job: each compute node pulls from its input list, keeping at
    /// most `window` tuples outstanding; the run ends when all complete.
    Batch {
        /// Outstanding-tuple window per compute node.
        window: usize,
    },
    /// Streaming job: tuples arrive at their timestamps regardless of
    /// backlog, but at most `window` tuples are being *processed*
    /// concurrently. Without an [`OverloadConfig`] the ingest queue grows
    /// unboundedly under overload, as in Muppet's MapUpdatePool; with one,
    /// the queue is capped and excess tuples are shed by the run's
    /// [`ShedPolicy`](jl_core::ShedPolicy). The run ends at the horizon
    /// (or when the stream drains) and reports throughput.
    Stream {
        /// When to stop measuring.
        horizon: SimDuration,
        /// Concurrent-processing window per compute node.
        window: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let c = ClusterSpec::default();
        assert_eq!(c.n_compute + c.n_data, 20);
        assert_eq!(c.node.cores, 8);
        assert_eq!(c.total_nodes(), 21);
        assert_eq!(c.compute_id(3), 3);
        assert_eq!(c.data_id(0), 10);
        assert_eq!(c.controller_id(), 20);
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let r = RetryConfig::default();
        assert_eq!(r.timeout_for(0), SimDuration::from_secs(1));
        assert_eq!(r.timeout_for(1), SimDuration::from_secs(2));
        assert_eq!(r.timeout_for(2), SimDuration::from_secs(4));
        assert_eq!(r.timeout_for(3), SimDuration::from_secs(8));
        assert_eq!(r.timeout_for(10), SimDuration::from_secs(8)); // capped
        assert_eq!(r.timeout_for(u32::MAX), SimDuration::from_secs(8)); // no overflow
    }

    #[test]
    fn overload_defaults_validate() {
        OverloadConfig::default().validate();
        OverloadConfig::permissive().validate();
    }

    #[test]
    #[should_panic(expected = "data_queue_cap must be >= 1")]
    fn overload_rejects_zero_cap() {
        OverloadConfig {
            data_queue_cap: 0,
            ..OverloadConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "inverted watermarks")]
    fn overload_rejects_inverted_watermarks() {
        OverloadConfig {
            low_watermark: 2048,
            high_watermark: 512,
            ..OverloadConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "exceeds data_queue_cap")]
    fn overload_rejects_watermark_above_cap() {
        OverloadConfig {
            data_queue_cap: 100,
            high_watermark: 200,
            low_watermark: 50,
            ..OverloadConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "low_watermark must be >= 1")]
    fn overload_rejects_zero_watermark() {
        OverloadConfig {
            low_watermark: 0,
            ..OverloadConfig::default()
        }
        .validate();
    }

    #[test]
    fn membership_validates_against_cluster_shape() {
        let c = ClusterSpec {
            n_compute: 2,
            n_data: 4,
            ..ClusterSpec::default()
        };
        let mut m = MembershipConfig::static_active(2);
        m.events = vec![
            (SimDuration::from_millis(1), MembershipEvent::Join(3)),
            (
                SimDuration::from_millis(2),
                MembershipEvent::Decommission(0),
            ),
        ];
        m.autoscale = Some(AutoscaleConfig::default());
        m.validate(&c);
    }

    #[test]
    #[should_panic(expected = "initial_active")]
    fn membership_rejects_oversized_active_set() {
        MembershipConfig::static_active(5).validate(&ClusterSpec {
            n_compute: 2,
            n_data: 4,
            ..ClusterSpec::default()
        });
    }

    #[test]
    #[should_panic(expected = "membership event names data node")]
    fn membership_rejects_out_of_range_event() {
        let mut m = MembershipConfig::static_active(2);
        m.events = vec![(SimDuration::from_millis(1), MembershipEvent::Join(9))];
        m.validate(&ClusterSpec {
            n_compute: 2,
            n_data: 4,
            ..ClusterSpec::default()
        });
    }

    #[test]
    fn disk_service_scales_with_size() {
        let c = ClusterSpec::default();
        let small = c.disk_service(1_000);
        let big = c.disk_service(1_000_000);
        assert!(big > small);
        assert!(small >= c.disk_seek);
    }
}
