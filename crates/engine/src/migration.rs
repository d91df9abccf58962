//! Live region migration as one sans-IO state machine.
//!
//! A handoff moves one region from a source data node to a target in five
//! messages, `MigrateStart → MigSnapshot → MigFetched → MigCommit →
//! MigCommitAck`, with a per-phase timeout on each end. [`Migrations`]
//! holds a node's handoffs (as source and as target — a node is never both
//! ends of one id) and every transition, in the one `match` of
//! [`Migrations::step`]. The data node feeds it events and performs the
//! [`Effect`]s that come back, in the order listed: the kernel numbers
//! what they schedule in that order, so the order is part of the protocol.
//! Nothing here reads a clock but the `now` passed in, and nothing is sent
//! but what is returned.
//!
//! | end    | phase       | entered on | left on                                |
//! |--------|-------------|------------|----------------------------------------|
//! | source | `DualWrite` | start      | fetched → `Frozen`; timeout → abort    |
//! | source | `Frozen`    | fetched    | commit-ack → cut over; timeout → abort |
//! | target | `Staged`    | snapshot   | commit → install; timeout → abort      |
//!
//! A start this node cannot serve (the region is not here, or is already
//! leaving) is refused with the same abort. Every other pair is ignored —
//! it changes nothing and performs nothing: a duplicate, a message for a
//! handoff this node no longer holds (a crash or a timeout ended it), a
//! message meant for the other end, or a phase timer armed by an earlier
//! phase (the one stale-deadline check). Abort is always safe: the target
//! installs nothing before commit, and the source replays what it froze.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use jl_core::types::BatchRequest;
use jl_simkit::time::{SimDuration, SimTime};
use jl_store::{Catalog, Region, RowKey, StoredValue, TableId};
use jl_telemetry::{Arg, ArgVal};

use crate::cluster::{EKey, Msg, BATCH_OVERHEAD, CTRL_BYTES, ITEM_OVERHEAD};

/// One row write carried by a handoff (the delta log, the freeze buffer).
pub(crate) type Put = (RowKey, StoredValue);

/// What a transition performs when it changes nothing.
const IGNORED: Vec<Effect> = Vec::new();

/// Where an [`Effect::Send`] goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Peer {
    /// The data node with this index.
    Data(usize),
    /// The run controller.
    Controller,
}

/// One piece of IO a transition asks the data node to perform.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Charge the node's disk station for this many bytes (snapshot scan,
    /// staging write, applied delta).
    Disk(u64),
    /// Send a message of this many wire bytes.
    Send(Peer, Msg, u64),
    /// Arm the phase timer of handoff `id` (second field) for this instant.
    Timer(SimTime, u64),
    /// Record an instant on the `fault` trace track.
    Trace(&'static str, Vec<Arg>),
    /// Install the region, replacing any failover replica of it already
    /// here: the migrated copy is the authoritative, dual-written one.
    Install(TableId, usize, Region),
    /// Drop the local copy of the region and evict its keys from the block
    /// cache (warmup restarts at the new owner).
    Evict(TableId, usize),
    /// Re-apply a frozen put through the node's normal put path: the
    /// region never left, so this node is still its one applier.
    Replay(TableId, RowKey, StoredValue),
}

/// One handoff event, for one migration id.
#[derive(Debug)]
pub(crate) enum Event {
    /// Controller → source: hand `(table, region)` to the target node
    /// (third field). The last field is this node's copy of the region,
    /// `None` when it hosts none.
    Start(TableId, usize, usize, Option<Region>),
    /// Source → target: the snapshot of `(table, region)` from the source
    /// node (third field).
    Snapshot(TableId, usize, usize, Region),
    /// Target → source: snapshot staged; send the delta and freeze.
    Fetched,
    /// Source → target: the dual-written delta.
    Commit(Vec<Put>),
    /// Target → source: installed; the target owns the region.
    CommitAck,
    /// This handoff's phase timer fired.
    Timeout,
}

impl Event {
    /// The migration id and handoff event a message carries, `None` for
    /// any other message. `hosted` reads this node's copy of a region,
    /// which a start ships.
    pub(crate) fn decode(
        msg: Msg,
        hosted: impl FnOnce(TableId, usize) -> Option<Region>,
    ) -> Option<(u64, Event)> {
        Some(match msg {
            Msg::MigrateStart {
                mig_id,
                table,
                region,
                target,
            } => (
                mig_id,
                Event::Start(table, region, target, hosted(table, region)),
            ),
            Msg::MigSnapshot {
                mig_id,
                table,
                region,
                from_data,
                rows,
            } => (mig_id, Event::Snapshot(table, region, from_data, *rows)),
            Msg::MigFetched { mig_id } => (mig_id, Event::Fetched),
            Msg::MigCommit { mig_id, delta } => (mig_id, Event::Commit(delta)),
            Msg::MigCommitAck { mig_id } => (mig_id, Event::CommitAck),
            _ => return None,
        })
    }
}

/// A handoff's phase, with the state only that phase carries.
#[derive(Debug)]
enum Phase {
    /// Source: snapshot sent. Puts apply locally *and* append to this
    /// delta log.
    DualWrite(Vec<Put>),
    /// Source: delta sent, commit in flight. Puts buffer here unapplied so
    /// exactly one node ever applies writes; gets still serve from the
    /// local, fully up-to-date copy.
    Frozen(Vec<Put>),
    /// Target: the staged snapshot and the bytes received so far, waiting
    /// for the delta.
    Staged(Region, u64),
}

use Phase::{DualWrite, Frozen, Staged};

/// What every phase of a handoff knows: the region, the other end, and
/// the current phase deadline.
#[derive(Debug, Clone, Copy)]
struct Link {
    table: TableId,
    region: usize,
    /// The target on the source, the source on the target.
    peer: usize,
    /// Timers armed by earlier phases fire before this and are ignored.
    deadline: SimTime,
}

/// Which end of a handoff timed out.
#[derive(Debug, Clone, Copy)]
enum End {
    Source,
    Target,
}

/// A data node's migration state: its live handoffs, which are process
/// state, plus the on-disk handoff metadata that outlives them.
#[derive(Debug)]
pub(crate) struct Migrations {
    /// This node's data-node index (the `from_data` / `target` it reports).
    node: usize,
    /// Per-phase timeout.
    timeout: SimDuration,
    /// Live handoffs by migration id, source and target ends alike.
    live: BTreeMap<u64, (Link, Phase)>,
    /// Regions handed off: `(table, region) -> new owner`. On-disk
    /// metadata — survives crashes; stale-epoch traffic that still lands
    /// here is forwarded on the wire, never dropped.
    moved_to: BTreeMap<(TableId, usize), usize>,
    /// Regions migrated in (the static catalog maps them elsewhere); the
    /// ownership check accepts them. On-disk metadata — survives crashes.
    migrated_in: BTreeSet<(TableId, usize)>,
    /// Completed outbound handoffs.
    handoffs: u64,
}

/// Wire bytes of one row write: a forwarded put or a delta-log entry.
fn put_bytes(key: &RowKey, value: &StoredValue) -> u64 {
    key.len() as u64 + value.size() + ITEM_OVERHEAD
}

/// A `fault`-track trace instant whose arguments are counts or ids.
fn trace(name: &'static str, args: &[(&'static str, u64)]) -> Effect {
    Effect::Trace(
        name,
        args.iter().map(|&(k, v)| (k, ArgVal::U64(v))).collect(),
    )
}

impl Migrations {
    /// No handoffs yet, for data node `node`, with a per-phase timeout.
    pub(crate) fn new(node: usize, timeout: SimDuration) -> Self {
        Migrations {
            node,
            timeout,
            live: BTreeMap::new(),
            moved_to: BTreeMap::new(),
            migrated_in: BTreeSet::new(),
            handoffs: 0,
        }
    }

    /// Completed outbound handoffs.
    pub(crate) fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// A crash: every live handoff dies with the process (frozen puts
    /// included — no write-ahead log is modelled; the surviving end's
    /// phase timeout aborts the migration), while `moved_to` and
    /// `migrated_in`, which model on-disk state, survive.
    pub(crate) fn crash(&mut self) {
        self.live.clear();
    }

    /// The new owner of a region this node handed off: the stale-owner
    /// lookup behind wire-level forwarding.
    fn moved_to(&self, table: TableId, region: usize) -> Option<usize> {
        self.moved_to.get(&(table, region)).copied()
    }

    /// Whether the region was migrated in, so this node owns it although
    /// the static catalog maps it elsewhere.
    pub(crate) fn migrated_in(&self, table: TableId, region: usize) -> bool {
        self.migrated_in.contains(&(table, region))
    }

    /// The phase of a region leaving this node, if any. Source handoffs
    /// only: a region arriving here is not intercepted.
    fn leaving(&mut self, table: TableId, region: usize) -> Option<&mut Phase> {
        let here = |l: &Link| l.table == table && l.region == region;
        self.live
            .values_mut()
            .find(|(l, p)| here(l) && !matches!(p, Staged(..)))
            .map(|(_, p)| p)
    }

    /// Put interception, first half. A put for a region handed off goes to
    /// its new owner (`Err` with the send to perform); in a `Frozen` region
    /// it is buffered raw, unstamped (`Err`, nothing to perform); otherwise
    /// it comes back (`Ok`) for the node to apply.
    pub(crate) fn intercept_put(
        &mut self,
        table: TableId,
        region: usize,
        key: RowKey,
        value: StoredValue,
    ) -> Result<Put, Vec<Effect>> {
        if let Some(owner) = self.moved_to(table, region) {
            let bytes = put_bytes(&key, &value);
            let value = Box::new(value);
            let put = Msg::Put { table, key, value };
            return Err(vec![Effect::Send(Peer::Data(owner), put, bytes)]);
        }
        match self.leaving(table, region) {
            Some(Frozen(frozen)) => {
                frozen.push((key, value));
                Err(IGNORED)
            }
            _ => Ok((key, value)),
        }
    }

    /// Put interception, second half: a put applied (stamped) in a
    /// `DualWrite` region also lands in the delta log.
    pub(crate) fn log_if_dual_write(
        &mut self,
        table: TableId,
        region: usize,
        key: &RowKey,
        value: &StoredValue,
    ) {
        if let Some(DualWrite(delta)) = self.leaving(table, region) {
            delta.push((key.clone(), value.clone()));
        }
    }

    /// Wire-level forwarding for regions this node handed off: items whose
    /// region moved away are re-batched to the new owner (stale-epoch
    /// senders lose latency, never tuples) as sends to perform; the rest of
    /// the batch comes back for local service, `None` when everything
    /// moved.
    pub(crate) fn split_moved(
        &self,
        catalog: &Catalog,
        from_compute: usize,
        batch: BatchRequest<EKey, Bytes>,
    ) -> (Option<BatchRequest<EKey, Bytes>>, Vec<Effect>) {
        if self.moved_to.is_empty() {
            return (Some(batch), IGNORED);
        }
        let BatchRequest { items, stats } = batch;
        let mut local = Vec::with_capacity(items.len());
        // owner -> (items, wire bytes)
        let mut forward: BTreeMap<usize, (Vec<_>, u64)> = BTreeMap::new();
        for item in items {
            let (table, row) = &item.key;
            let (region, _) = catalog.locate(*table, row);
            match self.moved_to(*table, region) {
                Some(owner) => {
                    let slot = forward.entry(owner).or_insert((Vec::new(), BATCH_OVERHEAD));
                    slot.1 += row.len() as u64 + item.params.len() as u64 + ITEM_OVERHEAD;
                    slot.0.push(item);
                }
                None => local.push(item),
            }
        }
        let mut effects = Vec::with_capacity(2 * forward.len());
        for (owner, (items, bytes)) in forward {
            let n = items.len() as u64;
            effects.push(trace(
                "mig-forward",
                &[("items", n), ("owner", owner as u64)],
            ));
            let batch = Box::new(BatchRequest { items, stats });
            let request = Msg::Request {
                from_compute,
                batch,
            };
            effects.push(Effect::Send(Peer::Data(owner), request, bytes));
        }
        let local = (!local.is_empty()).then_some(BatchRequest {
            items: local,
            stats,
        });
        (local, effects)
    }

    /// Feed one event for handoff `id` at `now`; returns the IO to perform,
    /// in order. Empty means ignored.
    pub(crate) fn step(&mut self, id: u64, event: Event, now: SimTime) -> Vec<Effect> {
        let deadline = now + self.timeout;
        let (next, effects) = match (self.live.remove(&id), event) {
            // ---- start: controller -> source; snapshot, dual-write ----
            (None, Event::Start(table, region, target, Some(rows)))
                if self.leaving(table, region).is_none() =>
            {
                let bytes = rows.bytes();
                let snapshot = Msg::MigSnapshot {
                    mig_id: id,
                    table,
                    region,
                    from_data: self.node,
                    rows: Box::new(rows),
                };
                let effects = vec![
                    Effect::Disk(bytes.max(1)),
                    Effect::Send(Peer::Data(target), snapshot, bytes + BATCH_OVERHEAD),
                    Effect::Timer(deadline, id),
                    trace(
                        "mig-snapshot-out",
                        &[("mig", id), ("bytes", bytes), ("target", target as u64)],
                    ),
                ];
                let link = Link {
                    table,
                    region,
                    peer: target,
                    deadline,
                };
                (Some((link, DualWrite(Vec::new()))), effects)
            }
            // A crash raced the plan (the region is gone or already
            // leaving): refuse rather than ship nothing.
            (None, Event::Start(table, ..)) => (None, self.abort(id, None, table, Vec::new())),
            (s @ Some((_, DualWrite(_))), Event::Start(..)) => (s, IGNORED), // duplicate
            (s @ Some((_, Frozen(_))), Event::Start(..)) => (s, IGNORED),    // duplicate
            (s @ Some((_, Staged(..))), Event::Start(..)) => (s, IGNORED),   // wrong end

            // ---- snapshot: source -> target; stage, ask for the delta ----
            (None, Event::Snapshot(table, region, peer, rows)) => {
                let bytes = rows.bytes();
                let fetched = Msg::MigFetched { mig_id: id };
                let effects = vec![
                    Effect::Disk(bytes.max(1)),
                    Effect::Send(Peer::Data(peer), fetched, CTRL_BYTES),
                    Effect::Timer(deadline, id),
                    trace("mig-snapshot-in", &[("mig", id), ("bytes", bytes)]),
                ];
                let link = Link {
                    table,
                    region,
                    peer,
                    deadline,
                };
                (Some((link, Staged(rows, bytes))), effects)
            }
            (s @ Some((_, DualWrite(_))), Event::Snapshot(..)) => (s, IGNORED), // wrong end
            (s @ Some((_, Frozen(_))), Event::Snapshot(..)) => (s, IGNORED),    // wrong end
            (s @ Some((_, Staged(..))), Event::Snapshot(..)) => (s, IGNORED),   // duplicate

            // ---- fetched: target -> source; freeze, send the delta ----
            (None, Event::Fetched) => (None, IGNORED), // ended here
            (Some((link, DualWrite(delta))), Event::Fetched) => {
                let bytes = delta
                    .iter()
                    .fold(BATCH_OVERHEAD, |acc, (k, v)| acc + put_bytes(k, v));
                let commit = Msg::MigCommit { mig_id: id, delta };
                let effects = vec![
                    Effect::Send(Peer::Data(link.peer), commit, bytes),
                    Effect::Timer(deadline, id),
                    trace("mig-freeze", &[("mig", id), ("delta_bytes", bytes)]),
                ];
                (
                    Some((Link { deadline, ..link }, Frozen(Vec::new()))),
                    effects,
                )
            }
            (s @ Some((_, Frozen(_))), Event::Fetched) => (s, IGNORED), // duplicate
            (s @ Some((_, Staged(..))), Event::Fetched) => (s, IGNORED), // wrong end

            // ---- commit: source -> target; install, report ownership ----
            (None, Event::Commit(_)) => (None, IGNORED), // ended here; the source aborts too
            (s @ Some((_, DualWrite(_))), Event::Commit(_)) => (s, IGNORED), // wrong end
            (s @ Some((_, Frozen(_))), Event::Commit(_)) => (s, IGNORED), // wrong end
            (Some((link, Staged(mut rows, bytes))), Event::Commit(delta)) => {
                let (table, region) = (link.table, link.region);
                let mut delta_bytes = 0u64;
                for (key, value) in delta {
                    delta_bytes += value.size();
                    rows.put(key, value);
                }
                let bytes = bytes + delta_bytes;
                self.migrated_in.insert((table, region));
                // The region may be returning to a node that once handed
                // it off: the forwarding pointer is dead now.
                self.moved_to.remove(&(table, region));
                let ack = Msg::MigCommitAck { mig_id: id };
                let done = Msg::MigDone {
                    mig_id: id,
                    table,
                    region,
                    target: self.node,
                    bytes,
                };
                let mut effects = Vec::with_capacity(5);
                if delta_bytes > 0 {
                    effects.push(Effect::Disk(delta_bytes));
                }
                effects.extend([
                    Effect::Install(table, region, rows),
                    Effect::Send(Peer::Data(link.peer), ack, CTRL_BYTES),
                    Effect::Send(Peer::Controller, done, CTRL_BYTES),
                    trace("mig-install", &[("mig", id), ("bytes", bytes)]),
                ]);
                (None, effects)
            }

            // ---- commit-ack: target -> source; cut over ----
            (None, Event::CommitAck) => (None, IGNORED), // ended here
            (s @ Some((_, DualWrite(_))), Event::CommitAck) => (s, IGNORED), // no commit was sent
            (Some((link, Frozen(frozen))), Event::CommitAck) => {
                let (table, region, peer) = (link.table, link.region, link.peer);
                self.moved_to.insert((table, region), peer);
                self.migrated_in.remove(&(table, region));
                self.handoffs += 1;
                let flushed = frozen.len() as u64;
                let mut effects = vec![Effect::Evict(table, region)];
                // The frozen puts go to the new owner in arrival order.
                effects.extend(frozen.into_iter().map(|(key, value)| {
                    let bytes = put_bytes(&key, &value);
                    let value = Box::new(value);
                    Effect::Send(Peer::Data(peer), Msg::Put { table, key, value }, bytes)
                }));
                effects.push(trace(
                    "mig-cutover",
                    &[("mig", id), ("frozen_flushed", flushed)],
                ));
                (None, effects)
            }
            (s @ Some((_, Staged(..))), Event::CommitAck) => (s, IGNORED), // wrong end

            // ---- timeout: this handoff's phase timer ----
            (None, Event::Timeout) => (None, IGNORED), // ended here
            (Some((link, phase)), Event::Timeout) if now < link.deadline => {
                (Some((link, phase)), IGNORED) // stale: armed by an earlier phase
            }
            (Some((link, DualWrite(_))), Event::Timeout) => (
                None,
                self.abort(id, Some(End::Source), link.table, Vec::new()),
            ),
            (Some((link, Frozen(frozen))), Event::Timeout) => {
                (None, self.abort(id, Some(End::Source), link.table, frozen))
            }
            (Some((link, Staged(..))), Event::Timeout) => (
                None,
                self.abort(id, Some(End::Target), link.table, Vec::new()),
            ),
        };
        if let Some(state) = next {
            self.live.insert(id, state);
        }
        effects
    }

    /// End handoff `id` without moving its region: trace the end that
    /// timed out (a refused start traces nothing), replay the frozen puts
    /// here, and tell the controller — the one `MigAbort` a node sends.
    fn abort(&self, id: u64, end: Option<End>, table: TableId, frozen: Vec<Put>) -> Vec<Effect> {
        let n = frozen.len() as u64;
        let mut effects = match end {
            None => Vec::new(),
            Some(End::Source) => vec![trace(
                "mig-abort-src",
                &[("mig", id), ("frozen_replayed", n)],
            )],
            Some(End::Target) => vec![trace("mig-abort-tgt", &[("mig", id)])],
        };
        effects.extend(frozen.into_iter().map(|(k, v)| Effect::Replay(table, k, v)));
        let abort = Msg::MigAbort {
            mig_id: id,
            from_data: self.node,
        };
        effects.push(Effect::Send(Peer::Controller, abort, CTRL_BYTES));
        effects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TableId = 0;
    const R: usize = 3;
    /// The node under test.
    const NODE: usize = 1;
    /// The other end of every handoff.
    const PEER: usize = 2;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn put(k: u64) -> Put {
        let value = StoredValue::new(vec![k as u8; 8], 1, SimDuration::ZERO);
        (RowKey::from_u64(k), value)
    }

    fn rows() -> Region {
        let mut region = Region::default();
        for k in 0..4 {
            let (key, value) = put(k);
            region.put(key, value);
        }
        region
    }

    /// A node holding handoff 7 of region `R` in `phase`, entered at 0 ms
    /// with a 10 ms phase timeout.
    fn at(phase: &str) -> Migrations {
        let mut m = Migrations::new(NODE, SimDuration::from_millis(10));
        match phase {
            "none" => {}
            "dual-write" => drop(m.step(7, event("start"), t(0))),
            "frozen" => {
                m.step(7, event("start"), t(0));
                m.step(7, Event::Fetched, t(0));
            }
            "staged" => drop(m.step(7, event("snapshot"), t(0))),
            other => panic!("no phase {other}"),
        }
        m
    }

    fn phase(m: &Migrations) -> &'static str {
        match m.live.get(&7) {
            None => "none",
            Some((_, DualWrite(_))) => "dual-write",
            Some((_, Frozen(_))) => "frozen",
            Some((_, Staged(..))) => "staged",
        }
    }

    fn event(name: &str) -> Event {
        match name {
            "start" => Event::Start(T, R, PEER, Some(rows())),
            "snapshot" => Event::Snapshot(T, R, PEER, rows()),
            "fetched" => Event::Fetched,
            "commit" => Event::Commit(vec![put(9)]),
            "commit-ack" => Event::CommitAck,
            "timeout" => Event::Timeout,
            other => panic!("no event {other}"),
        }
    }

    /// Effects as words: a send is its message's name, a trace its event
    /// name, anything else its kind.
    fn words(effects: &[Effect]) -> String {
        let word = |e: &Effect| match e {
            Effect::Disk(_) => "disk".to_string(),
            Effect::Send(_, msg, _) => format!("{msg:?}").split(' ').next().unwrap().to_string(),
            Effect::Timer(..) => "timer".into(),
            Effect::Trace(name, _) => name.to_string(),
            Effect::Install(..) => "install".into(),
            Effect::Evict(..) => "evict".into(),
            Effect::Replay(..) => "replay".into(),
        };
        effects.iter().map(word).collect::<Vec<_>>().join(" ")
    }

    fn replayed(effects: &[Effect]) -> Vec<RowKey> {
        let key = |e: &Effect| match e {
            Effect::Replay(_, key, _) => Some(key.clone()),
            _ => None,
        };
        effects.iter().filter_map(key).collect()
    }

    #[test]
    fn every_phase_event_pair_has_its_documented_outcome() {
        // (phase, event, what is performed, phase after); an empty effect
        // list with the phase unchanged is "ignored".
        let table = [
            (
                "none",
                "start",
                "disk MigSnapshot timer mig-snapshot-out",
                "dual-write",
            ),
            (
                "none",
                "snapshot",
                "disk MigFetched timer mig-snapshot-in",
                "staged",
            ),
            ("none", "fetched", "", "none"),
            ("none", "commit", "", "none"),
            ("none", "commit-ack", "", "none"),
            ("none", "timeout", "", "none"),
            ("dual-write", "start", "", "dual-write"),
            ("dual-write", "snapshot", "", "dual-write"),
            (
                "dual-write",
                "fetched",
                "MigCommit timer mig-freeze",
                "frozen",
            ),
            ("dual-write", "commit", "", "dual-write"),
            ("dual-write", "commit-ack", "", "dual-write"),
            ("dual-write", "timeout", "mig-abort-src MigAbort", "none"),
            ("frozen", "start", "", "frozen"),
            ("frozen", "snapshot", "", "frozen"),
            ("frozen", "fetched", "", "frozen"),
            ("frozen", "commit", "", "frozen"),
            ("frozen", "commit-ack", "evict mig-cutover", "none"),
            ("frozen", "timeout", "mig-abort-src MigAbort", "none"),
            ("staged", "start", "", "staged"),
            ("staged", "snapshot", "", "staged"),
            ("staged", "fetched", "", "staged"),
            (
                "staged",
                "commit",
                "disk install MigCommitAck MigDone mig-install",
                "none",
            ),
            ("staged", "commit-ack", "", "staged"),
            ("staged", "timeout", "mig-abort-tgt MigAbort", "none"),
        ];
        for (from, name, performed, to) in table {
            let mut m = at(from);
            let now = if name == "timeout" { t(10) } else { t(1) };
            let effects = m.step(7, event(name), now);
            assert_eq!(
                (words(&effects).as_str(), phase(&m)),
                (performed, to),
                "{from} × {name}"
            );
        }
    }

    #[test]
    fn a_start_the_node_cannot_serve_is_refused_with_one_abort() {
        let mut m = at("none");
        let refused = m.step(7, Event::Start(T, R, PEER, None), t(0));
        assert_eq!(words(&refused), "MigAbort", "region not hosted here");
        assert_eq!(phase(&m), "none");
        let mut m = at("dual-write");
        let refused = m.step(8, event("start"), t(1));
        assert_eq!(words(&refused), "MigAbort", "region already leaving");
        assert!(!m.live.contains_key(&8));
        // An inbound handoff of the same region does not block a start.
        let mut m = at("staged");
        let started = m.step(8, event("start"), t(1));
        assert_eq!(words(&started), "disk MigSnapshot timer mig-snapshot-out");
    }

    #[test]
    fn a_timeout_at_or_after_the_deadline_ends_every_phase_with_one_abort() {
        for from in ["dual-write", "frozen", "staged"] {
            for now in [t(10), t(25)] {
                let mut m = at(from);
                let frozen: Vec<RowKey> = if from == "frozen" {
                    (20..23).map(|k| put(k).0).collect()
                } else {
                    Vec::new()
                };
                for k in &frozen {
                    let (key, value) = (k.clone(), put(0).1);
                    let held = m.intercept_put(T, R, key, value).unwrap_err();
                    assert!(held.is_empty(), "a frozen put is buffered, not sent");
                }
                let effects = m.step(7, Event::Timeout, now);
                assert_eq!(phase(&m), "none", "{from} at {now:?}");
                assert!(!effects.iter().any(|e| matches!(e, Effect::Install(..))));
                let abort = |e: &Effect| {
                    matches!(e, Effect::Send(Peer::Controller, msg, CTRL_BYTES)
                        if format!("{msg:?}") == "MigAbort { mig_id: 7, from_data: 1 }")
                };
                assert_eq!(effects.iter().filter(|e| abort(e)).count(), 1);
                assert!(abort(effects.last().unwrap()), "the abort goes out last");
                assert_eq!(replayed(&effects), frozen, "replayed in arrival order");
                assert!(m.step(7, Event::Timeout, now).is_empty(), "ends once");
            }
        }
    }

    #[test]
    fn a_stale_timeout_before_the_deadline_is_ignored() {
        for from in ["dual-write", "frozen", "staged"] {
            let mut m = at(from);
            assert!(m.step(7, Event::Timeout, t(9)).is_empty(), "{from}");
            assert_eq!(phase(&m), from);
        }
        // The dual-write phase's timer fires after the freeze moved the
        // deadline on.
        let mut m = at("dual-write");
        m.step(7, Event::Fetched, t(4));
        assert!(m.step(7, Event::Timeout, t(10)).is_empty());
        assert_eq!(phase(&m), "frozen");
        assert_eq!(
            words(&m.step(7, Event::Timeout, t(14))),
            "mig-abort-src MigAbort"
        );
    }

    #[test]
    fn duplicate_fetched_commit_and_commit_ack_are_ignored() {
        let mut source = at("dual-write");
        assert_eq!(
            words(&source.step(7, Event::Fetched, t(1))),
            "MigCommit timer mig-freeze"
        );
        assert!(source.step(7, Event::Fetched, t(2)).is_empty());
        assert_eq!(phase(&source), "frozen");
        assert!(!source.step(7, Event::CommitAck, t(3)).is_empty());
        assert!(source.step(7, Event::CommitAck, t(4)).is_empty());
        assert_eq!(source.handoffs(), 1);
        let mut target = at("staged");
        assert!(!target.step(7, event("commit"), t(1)).is_empty());
        assert!(target.step(7, event("commit"), t(2)).is_empty());
    }

    #[test]
    fn puts_dual_write_then_freeze_then_flush_in_arrival_order() {
        let mut m = at("dual-write");
        let (key, value) = put(1);
        let (key, value) = m.intercept_put(T, R, key, value).expect("applies here");
        m.log_if_dual_write(T, R, &key, &value);
        let (other, value) = put(2);
        assert!(m
            .intercept_put(T, R + 1, other.clone(), value.clone())
            .is_ok());
        m.log_if_dual_write(T, R + 1, &other, &value);
        let commit = m.step(7, Event::Fetched, t(1));
        let delta = match &commit[0] {
            Effect::Send(Peer::Data(PEER), Msg::MigCommit { delta, .. }, _) => delta,
            other => panic!("expected the commit, got {other:?}"),
        };
        assert_eq!(delta.len(), 1, "only the leaving region's put is logged");
        assert_eq!(delta[0].0, key);
        for k in [3, 4] {
            let (key, value) = put(k);
            assert!(m.intercept_put(T, R, key, value).unwrap_err().is_empty());
        }
        let cutover = m.step(7, Event::CommitAck, t(2));
        assert_eq!(words(&cutover), "evict Put Put mig-cutover");
        let flushed: Vec<RowKey> = cutover
            .iter()
            .filter_map(|e| match e {
                Effect::Send(Peer::Data(PEER), Msg::Put { key, .. }, _) => Some(key.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(flushed, [put(3).0, put(4).0]);
        let (key, value) = put(5);
        let forward = m.intercept_put(T, R, key, value).unwrap_err();
        assert_eq!(words(&forward), "Put", "later puts go to the new owner");
        assert_eq!(m.moved_to(T, R), Some(PEER));
    }

    #[test]
    fn a_crash_drops_handoffs_and_keeps_the_on_disk_metadata() {
        let mut m = at("frozen");
        m.step(7, Event::CommitAck, t(1));
        m.step(8, Event::Snapshot(T, 4, PEER, rows()), t(1));
        m.step(8, Event::Commit(Vec::new()), t(2));
        m.step(9, Event::Start(T, 5, PEER, Some(rows())), t(3));
        m.step(10, Event::Snapshot(T, 6, PEER, rows()), t(3));
        m.crash();
        assert!(m.live.is_empty());
        assert_eq!(m.moved_to(T, R), Some(PEER), "handed off before the crash");
        assert!(m.migrated_in(T, 4), "migrated in before the crash");
        assert!(m.step(9, Event::Fetched, t(4)).is_empty());
        assert!(m.step(10, event("commit"), t(4)).is_empty());
        assert!(
            !m.migrated_in(T, 6),
            "a handoff the crash ended installs nothing"
        );
    }
}
