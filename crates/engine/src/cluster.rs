//! The cluster: message type, cacheable value wrapper, and the
//! role-dispatching node enum — written once against the backend-agnostic
//! [`RuntimeNode`]/[`RuntimeCtx`] seam and hosted on the simulation kernel
//! through [`Hosted`]: every backend runs the same [`ClusterSim`], under
//! the kernel's own loops or paced by the wall clock.

use bytes::Bytes;

use jl_core::types::{BatchRequest, CacheValue, ResponseItem};
use jl_runtime::{Hosted, RuntimeCtx, RuntimeNode};
use jl_simkit::prelude::*;
use jl_store::{RowKey, StoredValue, TableId};

use crate::compute_node::ComputeNode;
use crate::controller::Controller;
use crate::data_node::DataNode;
use crate::plan::JobTuple;

/// Composite key: `(table, row key)` — the optimizer's cache and counters
/// must not conflate equal row keys of different tables (multi-join plans).
pub type EKey = (TableId, RowKey);

/// Approximate wire overhead per request/response item (framing, ids).
pub const ITEM_OVERHEAD: u64 = 48;
/// Approximate wire overhead per batch (header + load statistics).
pub const BATCH_OVERHEAD: u64 = 160;
/// Wire bytes of a small control message (membership, migration,
/// heartbeat, completion).
pub(crate) const CTRL_BYTES: u64 = 64;

/// [`StoredValue`] wrapped for the optimizer's cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Val(pub StoredValue);

impl CacheValue for Val {
    fn size(&self) -> u64 {
        self.0.size()
    }
    fn udf_cpu(&self) -> SimDuration {
        self.0.udf_cpu()
    }
    fn version(&self) -> u64 {
        self.0.version
    }
}

/// Messages exchanged in the simulated cluster.
///
/// Every pending event's slab slot in the kernel holds one `Msg`, so the
/// rare large payloads (`Request`, `Put`, `MigSnapshot`) are boxed: the
/// enum is sized by the common small messages, not by them.
#[derive(Debug, Clone)]
pub enum Msg {
    /// A streaming input tuple arriving at a compute node.
    Tuple(JobTuple),
    /// A batched request from a compute node to a data node.
    Request {
        /// Index of the sending compute node.
        from_compute: usize,
        /// The batch.
        batch: Box<BatchRequest<EKey, Bytes>>,
    },
    /// A batched response from a data node.
    Reply {
        /// Index of the responding data node.
        from_data: usize,
        /// Per-item responses (values, bounces, cost info).
        items: Vec<ResponseItem<EKey, Val>>,
        /// Outputs of UDFs the data node executed, by request id.
        outputs: Vec<(u64, Bytes)>,
        /// Piggybacked backpressure bit: the sender's ingest queue is over
        /// its high watermark (always `false` when the run carries no
        /// [`OverloadConfig`](crate::config::OverloadConfig) — the flag
        /// adds no wire bytes and compute nodes then ignore it).
        pressured: bool,
    },
    /// Admission refusal: the data node's ingest queue is at its cap, so
    /// this batch was bounced *before* paying any disk or CPU. The compute
    /// node re-presents each listed request after its NACK backoff, or
    /// sheds it if its deadline is already hopeless.
    Nack {
        /// Index of the refusing data node.
        from_data: usize,
        /// Request ids of the refused batch's items.
        req_ids: Vec<u64>,
    },
    /// Targeted cache-invalidation notice (§4.2.3).
    Invalidate {
        /// The updated key.
        key: EKey,
    },
    /// An external row update applied at a data node.
    Put {
        /// Table.
        table: TableId,
        /// Row key.
        key: RowKey,
        /// New value.
        value: Box<StoredValue>,
    },
    /// A compute node reporting completion to the controller (batch jobs).
    Done,

    // ---- membership plane (only sent when the run carries a
    // `MembershipConfig`; a static run's event stream never contains
    // these) ----
    /// Controller -> data node: become active (join). The node arms its
    /// heartbeat (if autoscaling) and starts accepting migrated regions.
    Activate {
        /// Data-node index being activated.
        node: usize,
    },
    /// Controller -> data node: begin graceful drain — keep serving, stop
    /// NACKing (the queues must empty), expect regions to migrate off.
    Drain {
        /// Data-node index being drained.
        node: usize,
    },
    /// Controller -> data node: drain complete, return to standby. The
    /// node stops heartbeating and reports `standby` in live stats.
    Deactivate {
        /// Data-node index being deactivated.
        node: usize,
    },
    /// External (jl-serve `DRAIN`) request to decommission a data node,
    /// routed to the controller.
    Decommission {
        /// Data-node index to decommission.
        node: usize,
    },
    /// External request to activate a standby data node, routed to the
    /// controller.
    Join {
        /// Data-node index to activate.
        node: usize,
    },
    /// Controller -> compute nodes: a data node's health changed by
    /// membership action (draining starts/stops). Compute nodes pin this
    /// sticky — reply-driven health resets do not clear it.
    HealthUpdate {
        /// Data-node index.
        node: usize,
        /// New health.
        health: jl_core::NodeHealth,
    },
    /// Controller -> compute nodes: region ownership changed. Strictly
    /// newer epochs override older ones; compute nodes route the region's
    /// requests to `owner` from here on.
    EpochUpdate {
        /// Catalog epoch after this change (monotonic).
        epoch: u64,
        /// Table of the reassigned region.
        table: TableId,
        /// Region index within the table.
        region: usize,
        /// Data-node index that now owns it.
        owner: usize,
    },
    /// Data node -> controller: periodic load signal for the autoscaler.
    Heartbeat {
        /// Reporting data-node index.
        from_data: usize,
        /// Ingest queue depth at send time.
        queue_depth: u64,
        /// Whether the node is over its pressure watermark.
        pressured: bool,
    },

    // ---- live region migration (snapshot-then-delta handoff) ----
    /// Controller -> source data node: start migrating one region.
    MigrateStart {
        /// Migration id (unique per run).
        mig_id: u64,
        /// Table of the region to move.
        table: TableId,
        /// Region index within the table.
        region: usize,
        /// Destination data-node index.
        target: usize,
    },
    /// Source -> target: the region snapshot. Puts arriving at the source
    /// after the snapshot are dual-written into a delta log.
    MigSnapshot {
        /// Migration id.
        mig_id: u64,
        /// Table of the region.
        table: TableId,
        /// Region index.
        region: usize,
        /// Source data-node index.
        from_data: usize,
        /// The snapshot rows.
        rows: Box<jl_store::Region>,
    },
    /// Target -> source: snapshot staged; send the delta and freeze.
    MigFetched {
        /// Migration id.
        mig_id: u64,
    },
    /// Source -> target: the dual-written delta. From this send until
    /// `MigCommitAck`, the source freezes puts for the region (buffers
    /// them) so exactly one node applies writes at any time.
    MigCommit {
        /// Migration id.
        mig_id: u64,
        /// Rows written at the source since the snapshot.
        delta: Vec<(RowKey, StoredValue)>,
    },
    /// Target -> source: snapshot + delta installed; the target now owns
    /// the region. The source drops its copy, flushes frozen puts to the
    /// target, and forwards everything else that still arrives.
    MigCommitAck {
        /// Migration id.
        mig_id: u64,
    },
    /// Target -> controller: migration complete; update the ownership map
    /// and broadcast the new epoch.
    MigDone {
        /// Migration id.
        mig_id: u64,
        /// Table of the region.
        table: TableId,
        /// Region index.
        region: usize,
        /// New owner (the reporting target).
        target: usize,
        /// Bytes handed over (snapshot + delta), for the run report.
        bytes: u64,
    },
    /// Source or target -> controller: a handoff phase timed out (peer
    /// crashed mid-migration); the migration is abandoned and the source
    /// keeps (or reclaims) the region.
    MigAbort {
        /// Migration id.
        mig_id: u64,
        /// Data-node index reporting the abort.
        from_data: usize,
    },
}

/// A node of the simulated cluster.
#[allow(clippy::large_enum_variant)]
pub enum ClusterNode {
    /// Runs the application + the compute-side optimizer.
    Compute(ComputeNode),
    /// Hosts a region-server shard + the data-side optimizer.
    Data(DataNode),
    /// Detects job completion and stops the simulation.
    Controller(Controller),
}

impl RuntimeNode for ClusterNode {
    type Msg = Msg;

    fn handle_start<C: RuntimeCtx<Msg>>(&mut self, ctx: &mut C) {
        match self {
            ClusterNode::Compute(n) => n.on_start(ctx),
            ClusterNode::Data(n) => n.on_start(ctx),
            ClusterNode::Controller(n) => n.on_start(ctx),
        }
    }

    fn handle_message<C: RuntimeCtx<Msg>>(&mut self, from: NodeId, msg: Msg, ctx: &mut C) {
        match self {
            ClusterNode::Compute(n) => n.on_message(from, msg, ctx),
            ClusterNode::Data(n) => n.on_message(from, msg, ctx),
            ClusterNode::Controller(n) => n.on_message(from, msg, ctx),
        }
    }

    fn handle_timer<C: RuntimeCtx<Msg>>(&mut self, tag: u64, ctx: &mut C) {
        match self {
            ClusterNode::Compute(n) => n.on_timer(tag, ctx),
            ClusterNode::Data(n) => n.on_timer(tag, ctx),
            ClusterNode::Controller(n) => n.on_timer(tag, ctx),
        }
    }

    fn handle_fault<C: RuntimeCtx<Msg>>(&mut self, kind: FaultKind, ctx: &mut C) {
        match self {
            // Only data nodes model crash recovery: compute nodes and the
            // controller are the job driver's own processes, whose failure
            // would abort the job rather than degrade it.
            ClusterNode::Data(n) => n.on_fault(kind, ctx),
            ClusterNode::Compute(_) | ClusterNode::Controller(_) => {}
        }
    }
}

/// The kernel every backend runs: the cluster's nodes hosted on [`Sim`].
pub type ClusterSim = Sim<Hosted<ClusterNode>>;

impl ClusterNode {
    /// The compute node inside, if any.
    pub fn as_compute(&self) -> Option<&ComputeNode> {
        match self {
            ClusterNode::Compute(n) => Some(n),
            _ => None,
        }
    }

    /// Mutable access to the compute node inside, if any (attaching
    /// completion hooks before a run starts).
    pub fn as_compute_mut(&mut self) -> Option<&mut ComputeNode> {
        match self {
            ClusterNode::Compute(n) => Some(n),
            _ => None,
        }
    }

    /// The data node inside, if any.
    pub fn as_data(&self) -> Option<&DataNode> {
        match self {
            ClusterNode::Data(n) => Some(n),
            _ => None,
        }
    }

    /// The controller inside, if any.
    pub fn as_controller(&self) -> Option<&Controller> {
        match self {
            ClusterNode::Controller(n) => Some(n),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_stays_small() {
        // Every pending event's slab slot carries a `Msg`: box a new large
        // variant instead of growing every slot.
        let size = std::mem::size_of::<Msg>();
        assert!(size <= 64, "Msg is {size} B");
    }
}
