//! The run controller: aggregates per-node completion reports and stops the
//! simulation when every compute node is done (batch jobs) — and, when the
//! run carries a [`MembershipConfig`], orchestrates the elastic-membership
//! plane: scripted join/decommission events, live region migrations
//! (planning, the catalog epoch, abort backstops), graceful drains, and the
//! autoscaler cadence.
//!
//! The controller owns the *runtime* region-ownership map. The static
//! [`Catalog`](jl_store::Catalog) stays immutable and shared; ownership
//! changes are broadcast to compute nodes as `EpochUpdate`s (strictly
//! monotonic epochs), so in-flight requests against a departed owner are
//! re-routed — by the compute node going forward, by wire-level forwarding
//! at the old owner for what is already in flight — and never dropped.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use jl_core::{AutoscaleDecision, AutoscalePolicy, AutoscaleSignals, NodeHealth};
use jl_runtime::RuntimeCtx;
use jl_simkit::prelude::*;
use jl_simkit::sim::NodeId;
use jl_store::TableId;
use jl_telemetry::{ArgVal, TelemetryHandle, Track};

use crate::cluster::{Msg, CTRL_BYTES};
use crate::config::{ClusterSpec, MembershipConfig, MembershipEvent};
use crate::telemetry::NodeTrace;

/// Timer tag for the autoscaler cadence. `u64::MAX` carries both bit
/// markers below, so it must be matched first.
const AUTOSCALE_TAG: u64 = u64::MAX;
/// Tag bit marking per-migration backstop timers (`MIG_TIMEOUT_BIT | id`).
const MIG_TIMEOUT_BIT: u64 = 1 << 63;
/// Tag bit marking scripted membership events (`MEMBER_EVENT_BIT | index`).
const MEMBER_EVENT_BIT: u64 = 1 << 62;

/// One in-flight region migration, as the controller tracks it.
#[derive(Debug, Clone, Copy)]
struct Migration {
    table: TableId,
    region: usize,
    source: usize,
    target: usize,
}

/// Membership/migration counters the controller accumulates for the
/// [`RunReport`](crate::runner::RunReport). All zero on static runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MembershipStats {
    /// Region migrations completed (snapshot installed at the target and
    /// the ownership epoch advanced).
    pub migrations: u64,
    /// Migrations abandoned after a handoff phase timed out (a peer
    /// crashed mid-migration). Aborted migrations are not retried.
    pub migrations_aborted: u64,
    /// Total bytes handed over by completed migrations (snapshot + delta).
    pub migrated_bytes: u64,
    /// Nodes whose graceful drain ran to completion (deactivated empty).
    pub drained_nodes: u64,
    /// Standby nodes activated by the autoscale policy.
    pub autoscale_rents: u64,
    /// Active nodes released (drained) by the autoscale policy.
    pub autoscale_releases: u64,
}

/// Aggregates `Done` messages; orchestrates membership when configured.
pub struct Controller {
    expected: usize,
    reported: usize,

    // ---- membership plane (all unused on static runs) ----
    membership: Option<MembershipConfig>,
    spec: Option<ClusterSpec>,
    /// Data nodes currently active (owning regions; includes draining).
    active: Vec<bool>,
    /// Data nodes mid-drain (still active, being emptied).
    draining: Vec<bool>,
    /// Runtime ownership: `(table, region) -> data node`. A `BTreeMap` so
    /// planning iterates in deterministic order on every backend.
    owner_of: BTreeMap<(TableId, usize), usize>,
    /// Catalog epoch, bumped once per completed migration.
    epoch: u64,
    next_mig_id: u64,
    in_flight: BTreeMap<u64, Migration>,
    /// Planned migrations waiting for their source and target links to
    /// free up. Admission control: at most one in-flight migration per
    /// source and per target node, so concurrent region transfers never
    /// fair-share a NIC into a collective per-phase timeout — a join of
    /// many regions streams them one at a time instead of bursting them
    /// all and losing every one to the deadline.
    pending: VecDeque<Migration>,
    /// Regions currently migrating (in flight or pending), excluded from
    /// new planning.
    migrating: BTreeSet<(TableId, usize)>,
    /// Latest heartbeat per data node: `(queue depth, pressured)`.
    heartbeats: BTreeMap<usize, (u64, bool)>,
    policy: Option<Box<dyn AutoscalePolicy>>,
    stats: MembershipStats,
    /// Active-node-seconds integral: `acc` covers up to `last_change`.
    node_secs_acc: f64,
    last_change: SimTime,

    trace: NodeTrace,
}

impl Controller {
    /// Expect reports from `expected` compute nodes.
    pub fn new(expected: usize) -> Self {
        Controller {
            expected,
            reported: 0,
            membership: None,
            spec: None,
            active: Vec::new(),
            draining: Vec::new(),
            owner_of: BTreeMap::new(),
            epoch: 0,
            next_mig_id: 0,
            in_flight: BTreeMap::new(),
            pending: VecDeque::new(),
            migrating: BTreeSet::new(),
            heartbeats: BTreeMap::new(),
            policy: None,
            stats: MembershipStats::default(),
            node_secs_acc: 0.0,
            last_change: SimTime::ZERO,
            trace: NodeTrace::default(),
        }
    }

    /// Arm the membership plane: the cluster shape, the config, the
    /// build-time ownership map (`(table, region) -> owner`), and the
    /// autoscale policy, if any. Call before the simulation starts.
    pub fn set_membership(
        &mut self,
        spec: ClusterSpec,
        cfg: MembershipConfig,
        owners: Vec<((TableId, usize), usize)>,
        policy: Option<Box<dyn AutoscalePolicy>>,
    ) {
        self.active = (0..spec.n_data).map(|j| j < cfg.initial_active).collect();
        self.draining = vec![false; spec.n_data];
        self.owner_of = owners.into_iter().collect();
        self.policy = policy;
        self.membership = Some(cfg);
        self.spec = Some(spec);
    }

    /// Attach a telemetry recorder. `node` is this node's sim id, used as
    /// the trace process id. Call before the simulation starts.
    pub fn set_telemetry(&mut self, tel: TelemetryHandle, node: u32) {
        self.trace.attach(tel, node);
    }

    /// Membership/migration counters (all zero on static runs).
    pub fn membership_stats(&self) -> MembershipStats {
        self.stats
    }

    /// Active-data-node-seconds consumed up to `end`, or `None` when the
    /// run carries no membership plane (every data node then counts as
    /// active for the whole run; the report synthesizes that case).
    pub fn node_seconds(&self, end: SimTime) -> Option<f64> {
        self.membership.as_ref()?;
        let n = self.active.iter().filter(|&&a| a).count() as f64;
        Some(self.node_secs_acc + n * end.since(self.last_change).as_secs_f64())
    }

    fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Close the node-seconds integral at `now`, before flipping any
    /// active flag.
    fn note_active_change(&mut self, now: SimTime) {
        let n = self.active_count() as f64;
        self.node_secs_acc += n * now.since(self.last_change).as_secs_f64();
        self.last_change = now;
    }

    fn owned_count(&self, j: usize) -> usize {
        self.owner_of.values().filter(|&&o| o == j).count()
    }

    /// Plan a migration: claim the region and queue it behind whatever
    /// is already moving over the same source or target node. The caller
    /// pumps the queue.
    fn plan_migration(&mut self, source: usize, target: usize, table: TableId, region: usize) {
        self.migrating.insert((table, region));
        self.pending.push_back(Migration {
            table,
            region,
            source,
            target,
        });
    }

    /// The one re-plan rule for drains: every region a draining node owns
    /// that is not already migrating is planned round-robin over the
    /// active, non-draining nodes, least-loaded first (owned count, then
    /// index). Run when a drain begins and whenever a migration ends, it
    /// moves the drain's own regions, a draining source's aborted handoff,
    /// and a region that lands on a node after its drain began. Does
    /// nothing while no node is eligible.
    fn plan_drains(&mut self) {
        let stranded: Vec<((TableId, usize), usize)> = self
            .owner_of
            .iter()
            .filter(|&(k, &o)| self.draining[o] && !self.migrating.contains(k))
            .map(|(&k, &o)| (k, o))
            .collect();
        if stranded.is_empty() {
            return;
        }
        let mut eligible: Vec<usize> = (0..self.active.len())
            .filter(|&k| self.active[k] && !self.draining[k])
            .collect();
        if eligible.is_empty() {
            return;
        }
        eligible.sort_by_key(|&k| (self.owned_count(k), k));
        for (i, ((table, region), source)) in stranded.into_iter().enumerate() {
            self.plan_migration(source, eligible[i % eligible.len()], table, region);
        }
    }

    /// Launch every pending migration whose source and target are both
    /// idle — at most one in-flight transfer per node on either end, so
    /// each migration gets the NIC to itself and its per-phase deadline
    /// measures one transfer, not a convoy.
    fn pump_migrations<C: RuntimeCtx<Msg>>(&mut self, ctx: &mut C) {
        let Some(spec) = self.spec.clone() else {
            return;
        };
        let mut busy: BTreeSet<usize> = BTreeSet::new();
        for m in self.in_flight.values() {
            busy.insert(m.source);
            busy.insert(m.target);
        }
        let mut still_pending = VecDeque::with_capacity(self.pending.len());
        while let Some(m) = self.pending.pop_front() {
            if busy.contains(&m.source) || busy.contains(&m.target) {
                still_pending.push_back(m);
                continue;
            }
            busy.insert(m.source);
            busy.insert(m.target);
            let mig_id = self.next_mig_id;
            self.next_mig_id += 1;
            let (table, region, source, target) = (m.table, m.region, m.source, m.target);
            self.in_flight.insert(mig_id, m);
            ctx.send(
                spec.data_id(source),
                Msg::MigrateStart {
                    mig_id,
                    table,
                    region,
                    target,
                },
                CTRL_BYTES,
            );
            // Backstop: well past the per-phase timeouts at the nodes, so
            // a migration whose *both* ends died still gets cleaned up,
            // and a node-side abort always lands first.
            let timeout = self
                .membership
                .as_ref()
                .expect("membership armed")
                .migration_timeout;
            ctx.set_timer_after(
                SimDuration::from_nanos(timeout.0.saturating_mul(4)),
                MIG_TIMEOUT_BIT | mig_id,
            );
            self.trace.instant(Track::Fault, "mig-plan", ctx.now(), || {
                [
                    ("mig", mig_id.into()),
                    ("table", ArgVal::U64(table as u64)),
                    ("region", ArgVal::U64(region as u64)),
                    ("source", ArgVal::U64(source as u64)),
                    ("target", ArgVal::U64(target as u64)),
                ]
            });
        }
        self.pending = still_pending;
    }

    /// Activate standby `j` and rebalance regions onto it: the joiner
    /// receives its fair share, taken one at a time from whichever donor
    /// currently owns the most regions.
    fn do_join<C: RuntimeCtx<Msg>>(&mut self, j: usize, ctx: &mut C) {
        let Some(spec) = self.spec.clone() else {
            return;
        };
        if j >= spec.n_data || self.active[j] {
            return;
        }
        self.note_active_change(ctx.now());
        self.active[j] = true;
        self.draining[j] = false;
        ctx.send(spec.data_id(j), Msg::Activate { node: j }, CTRL_BYTES);
        for c in 0..spec.n_compute {
            ctx.send(
                spec.compute_id(c),
                Msg::HealthUpdate {
                    node: j,
                    health: NodeHealth::Healthy,
                },
                CTRL_BYTES,
            );
        }
        self.trace
            .instant(Track::Fault, "member-join", ctx.now(), || {
                [("node", ArgVal::U64(j as u64))]
            });

        let share = self.owner_of.len() / self.active_count().max(1);
        let mut counts: BTreeMap<usize, usize> = (0..spec.n_data)
            .filter(|&k| k != j && self.active[k] && !self.draining[k])
            .map(|k| (k, self.owned_count(k)))
            .collect();
        let mut j_count = self.owned_count(j);
        let mut moves: Vec<(TableId, usize, usize)> = Vec::new();
        while j_count < share {
            // Most-loaded donor; ties go to the lower index.
            let Some((&donor, &cnt)) = counts
                .iter()
                .max_by_key(|&(&idx, &c)| (c, std::cmp::Reverse(idx)))
            else {
                break;
            };
            if cnt <= share {
                break;
            }
            // The donor's first region (in key order) not already moving.
            let free = self
                .owner_of
                .iter()
                .find(|&(k, &o)| o == donor && !self.migrating.contains(k));
            let Some((&(t, r), _)) = free else {
                counts.remove(&donor);
                continue;
            };
            self.migrating.insert((t, r));
            moves.push((t, r, donor));
            *counts.get_mut(&donor).expect("donor present") -= 1;
            j_count += 1;
        }
        for (t, r, src) in moves {
            self.plan_migration(src, j, t, r);
        }
        self.pump_migrations(ctx);
    }

    /// Gracefully drain `j`: rent-penalize it cluster-wide, migrate every
    /// region it owns off ([`Self::plan_drains`]), and deactivate it once
    /// empty.
    fn do_decommission<C: RuntimeCtx<Msg>>(&mut self, j: usize, ctx: &mut C) {
        let Some(spec) = self.spec.clone() else {
            return;
        };
        let Some(min_active) = self.membership.as_ref().map(|m| m.min_active) else {
            return;
        };
        if j >= spec.n_data || !self.active[j] || self.draining[j] {
            return;
        }
        let eligible = (0..spec.n_data)
            .filter(|&k| k != j && self.active[k] && !self.draining[k])
            .count();
        if eligible < min_active {
            self.trace
                .instant(Track::Fault, "decommission-refused", ctx.now(), || {
                    [("node", ArgVal::U64(j as u64))]
                });
            return;
        }
        self.draining[j] = true;
        ctx.send(spec.data_id(j), Msg::Drain { node: j }, CTRL_BYTES);
        for c in 0..spec.n_compute {
            ctx.send(
                spec.compute_id(c),
                Msg::HealthUpdate {
                    node: j,
                    health: NodeHealth::Draining,
                },
                CTRL_BYTES,
            );
        }
        self.trace
            .instant(Track::Fault, "member-drain", ctx.now(), || {
                [("node", ArgVal::U64(j as u64))]
            });
        self.plan_drains();
        self.pump_migrations(ctx);
        self.check_drained(ctx);
    }

    /// Deactivate any draining node that is empty with no in-flight
    /// migrations touching it. Detected controller-side: the controller
    /// already sees every `MigDone`/`MigAbort`, so the drained node does
    /// not need to know it is done.
    fn check_drained<C: RuntimeCtx<Msg>>(&mut self, ctx: &mut C) {
        let Some(spec) = self.spec.clone() else {
            return;
        };
        for j in 0..spec.n_data {
            if !self.draining[j] {
                continue;
            }
            let busy = self
                .in_flight
                .values()
                .chain(self.pending.iter())
                .any(|m| m.source == j || m.target == j);
            if busy || self.owned_count(j) > 0 {
                continue;
            }
            self.note_active_change(ctx.now());
            self.draining[j] = false;
            self.active[j] = false;
            self.stats.drained_nodes += 1;
            ctx.send(spec.data_id(j), Msg::Deactivate { node: j }, CTRL_BYTES);
            self.trace
                .instant(Track::Fault, "member-drained", ctx.now(), || {
                    [("node", ArgVal::U64(j as u64))]
                });
        }
    }

    fn handle_mig_done<C: RuntimeCtx<Msg>>(
        &mut self,
        mig_id: u64,
        table: TableId,
        region: usize,
        target: usize,
        bytes: u64,
        ctx: &mut C,
    ) {
        // Unknown id: already aborted by the backstop — the target still
        // installed, which is safe (exactly one applier held throughout),
        // but the ownership map no longer changes under an aborted id.
        let Some(_mig) = self.in_flight.remove(&mig_id) else {
            return;
        };
        self.migrating.remove(&(table, region));
        self.stats.migrations += 1;
        self.stats.migrated_bytes += bytes;
        self.owner_of.insert((table, region), target);
        self.epoch += 1;
        let epoch = self.epoch;
        let spec = self.spec.clone().expect("membership armed");
        for c in 0..spec.n_compute {
            ctx.send(
                spec.compute_id(c),
                Msg::EpochUpdate {
                    epoch,
                    table,
                    region,
                    owner: target,
                },
                CTRL_BYTES,
            );
        }
        self.trace.instant(Track::Fault, "mig-done", ctx.now(), || {
            [
                ("mig", mig_id.into()),
                ("epoch", epoch.into()),
                ("bytes", bytes.into()),
            ]
        });
        self.plan_drains();
        self.pump_migrations(ctx);
        self.check_drained(ctx);
    }

    fn handle_mig_abort<C: RuntimeCtx<Msg>>(&mut self, mig_id: u64, ctx: &mut C) {
        let Some(mig) = self.in_flight.remove(&mig_id) else {
            return;
        };
        self.migrating.remove(&(mig.table, mig.region));
        self.stats.migrations_aborted += 1;
        self.trace
            .instant(Track::Fault, "mig-aborted", ctx.now(), || {
                [
                    ("mig", mig_id.into()),
                    ("source", ArgVal::U64(mig.source as u64)),
                ]
            });
        // A drain cannot finish while one of its regions sits still, so a
        // draining source's aborted handoff is planned again (the failed
        // target may have crashed mid-handoff; once it restarts it becomes
        // a valid choice again). Join rebalances are best-effort and are
        // not retried.
        self.plan_drains();
        self.pump_migrations(ctx);
        self.check_drained(ctx);
    }

    /// One autoscaler tick: fold the latest heartbeats into signals, ask
    /// the policy, execute at most one membership change, re-arm.
    fn autoscale_tick<C: RuntimeCtx<Msg>>(&mut self, ctx: &mut C) {
        let Some(m) = &self.membership else { return };
        let Some(a) = &m.autoscale else { return };
        let interval = a.interval;
        let min_active = m.min_active;
        let n_data = self.spec.as_ref().expect("membership armed").n_data;
        let decision = if let Some(pol) = self.policy.as_mut() {
            let actives: Vec<usize> = (0..n_data).filter(|&k| self.active[k]).collect();
            let (mut sum, mut max, mut pressured) = (0u64, 0u64, 0usize);
            for &k in &actives {
                let (q, p) = self.heartbeats.get(&k).copied().unwrap_or((0, false));
                sum += q;
                max = max.max(q);
                pressured += usize::from(p);
            }
            let signals = AutoscaleSignals {
                active: actives.len(),
                standby: n_data - actives.len(),
                min_active,
                mean_queue_depth: sum as f64 / actives.len().max(1) as f64,
                max_queue_depth: max,
                pressured,
            };
            pol.decide(ctx.now(), &signals)
        } else {
            AutoscaleDecision::Hold
        };
        match decision {
            AutoscaleDecision::Hold => {}
            AutoscaleDecision::Rent => {
                // Lowest-numbered standby joins.
                if let Some(j) = (0..n_data).find(|&k| !self.active[k]) {
                    self.stats.autoscale_rents += 1;
                    self.trace
                        .instant(Track::Fault, "autoscale-rent", ctx.now(), || {
                            [("node", ArgVal::U64(j as u64))]
                        });
                    self.do_join(j, ctx);
                }
            }
            AutoscaleDecision::Release => {
                // Highest-numbered active non-draining node drains, if the
                // floor allows.
                let candidates: Vec<usize> = (0..n_data)
                    .filter(|&k| self.active[k] && !self.draining[k])
                    .collect();
                if candidates.len() > min_active {
                    if let Some(&j) = candidates.last() {
                        self.stats.autoscale_releases += 1;
                        self.trace
                            .instant(Track::Fault, "autoscale-release", ctx.now(), || {
                                [("node", ArgVal::U64(j as u64))]
                            });
                        self.do_decommission(j, ctx);
                    }
                }
            }
        }
        ctx.set_timer_after(interval, AUTOSCALE_TAG);
    }

    /// Called by the kernel at simulation start: arm scripted membership
    /// events and the autoscaler cadence.
    pub fn on_start<C: RuntimeCtx<Msg>>(&mut self, ctx: &mut C) {
        let Some(m) = &self.membership else { return };
        for (i, &(at, _)) in m.events.iter().enumerate() {
            ctx.set_timer(SimTime::ZERO + at, MEMBER_EVENT_BIT | i as u64);
        }
        if let Some(a) = &m.autoscale {
            ctx.set_timer_after(a.interval, AUTOSCALE_TAG);
        }
    }

    /// Handle a message.
    pub fn on_message<C: RuntimeCtx<Msg>>(&mut self, _from: NodeId, msg: Msg, ctx: &mut C) {
        match msg {
            Msg::Done => {
                self.reported += 1;
                if self.reported == self.expected {
                    ctx.stop();
                }
            }
            Msg::Heartbeat {
                from_data,
                queue_depth,
                pressured,
            } if self.membership.is_some() => {
                self.heartbeats.insert(from_data, (queue_depth, pressured));
            }
            Msg::Join { node } if self.membership.is_some() => self.do_join(node, ctx),
            Msg::Decommission { node } if self.membership.is_some() => {
                self.do_decommission(node, ctx)
            }
            Msg::MigDone {
                mig_id,
                table,
                region,
                target,
                bytes,
            } => self.handle_mig_done(mig_id, table, region, target, bytes, ctx),
            Msg::MigAbort { mig_id, .. } => self.handle_mig_abort(mig_id, ctx),
            _ => {}
        }
    }

    /// Kernel timer dispatch: autoscaler ticks, migration backstops,
    /// scripted membership events.
    pub fn on_timer<C: RuntimeCtx<Msg>>(&mut self, tag: u64, ctx: &mut C) {
        // AUTOSCALE_TAG is u64::MAX, which carries both bits — match first.
        if tag == AUTOSCALE_TAG {
            self.autoscale_tick(ctx);
            return;
        }
        if tag & MIG_TIMEOUT_BIT != 0 {
            self.handle_mig_abort(tag & !MIG_TIMEOUT_BIT, ctx);
            return;
        }
        if tag & MEMBER_EVENT_BIT != 0 {
            let idx = (tag & !MEMBER_EVENT_BIT) as usize;
            let Some(m) = &self.membership else { return };
            let Some(&(_, ev)) = m.events.get(idx) else {
                return;
            };
            match ev {
                MembershipEvent::Join(j) => self.do_join(j, ctx),
                MembershipEvent::Decommission(j) => self.do_decommission(j, ctx),
            }
        }
    }
}
