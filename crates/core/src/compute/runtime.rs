//! The execution plane of the compute runtime: request lifecycle,
//! batching, in-flight fetch suppression, cache admission, response
//! absorption, and the load statistics of Appendix C. Every placement
//! *decision* is delegated to the [`policy`](super::policy) module; every
//! cost *measurement* lives in [`costs`](super::costs).

use rustc_hash::{FxHashMap, FxHashSet};
use std::hash::Hash;

use jl_cache::{LfuDa, Lookup, TieredCache};
use jl_loadbalance::ComputeLoadStats;
use jl_simkit::time::SimTime;

use super::costs::CostTracker;
use super::policy::{
    policy_for, CacheIntent, DecisionCtx, DecisionEvent, DecisionSink, Placement, PlacementPolicy,
};
use crate::batcher::Batcher;
use crate::config::OptimizerConfig;
use crate::types::{
    Action, BatchRequest, CacheValue, NodeHealth, ReqKind, RequestItem, ResponseItem,
    ResponsePayload, ValueSource,
};
use jl_costmodel::NodeCosts;

/// Why the runtime routed a tuple the way it did (statistics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionStats {
    /// Served from the memory cache.
    pub mem_hits: u64,
    /// Served from the disk cache.
    pub disk_hits: u64,
    /// Sent as compute requests (rent).
    pub compute_requests: u64,
    /// Sent as data requests (buy).
    pub data_requests: u64,
    /// Compute requests bounced back by load balancing and run locally.
    pub bounced_local: u64,
    /// Cache-hit tuples deliberately offloaded to data nodes under local
    /// CPU pressure (the §5-footnote-4 extension; 0 unless enabled).
    pub offloaded_hits: u64,
    /// Tuples whose key had no stored row.
    pub missing: u64,
    /// Outputs produced (local + remote).
    pub completed: u64,
}

#[derive(Debug)]
struct InFlight<K, P> {
    key: K,
    params: P,
    kind: ReqKind,
    intent: CacheIntent,
    /// Destination the request was (last) sent to, for counter bookkeeping
    /// on reissue/abandon.
    dest: usize,
}

/// Per-data-node request bookkeeping the compute node maintains.
struct DestState<K, P> {
    batcher: Batcher<RequestItem<K, P>>,
    /// `ndc`/`ncc` components: queued-but-unsent items by kind.
    queued_data: u64,
    queued_compute: u64,
    /// `nrd_ij` — compute requests in flight to this destination.
    inflight_compute: u64,
    /// In-flight data requests to this destination.
    inflight_data: u64,
}

/// The compute-side runtime.
pub struct ComputeRuntime<K, P, V>
where
    K: Hash + Eq + Clone + Ord,
    V: CacheValue,
{
    cfg: OptimizerConfig,
    cache: TieredCache<K, V, LfuDa<K>>,
    policy: Box<dyn PlacementPolicy<K>>,
    sink: Option<Box<dyn DecisionSink<K>>>,
    costs: CostTracker<K>,
    dests: Vec<DestState<K, P>>,
    /// Per-destination availability belief, fed into every decision and
    /// updated by the driver from timeout/reply observations.
    health: Vec<NodeHealth>,
    inflight: FxHashMap<u64, InFlight<K, P>>,
    /// Keys with a data request (purchase) already in flight. Further
    /// accesses rent until the value lands — without this, every access of
    /// a hot key during its (possibly large) fetch issues another full
    /// fetch, and the fetch storm congests the owning data node's NIC,
    /// which delays the fetches, which admits more accesses: a positive
    /// feedback loop that can melt a node over a single key.
    fetching: FxHashSet<K>,
    next_req: u64,
    /// `lcc_i` — local executions issued but not yet completed.
    local_pending: u64,
    tuples_seen: u64,
    stats: DecisionStats,
    frozen: bool,
}

impl<K, P, V> ComputeRuntime<K, P, V>
where
    K: Hash + Eq + Clone + Ord + 'static,
    P: Clone,
    V: CacheValue,
{
    /// Create a runtime for a compute node talking to `n_data_nodes` data
    /// nodes, with the placement policy the configured [`Strategy`]
    /// prescribes. `my` holds this node's initial hardware parameters;
    /// remote parameters start at `remote_default` and are learned from
    /// responses.
    ///
    /// [`Strategy`]: crate::config::Strategy
    pub fn new(
        cfg: OptimizerConfig,
        n_data_nodes: usize,
        my: NodeCosts,
        remote_default: NodeCosts,
        seed: u64,
    ) -> Self {
        let policy = policy_for(&cfg, seed);
        Self::with_policy(cfg, n_data_nodes, my, remote_default, policy)
    }
}

impl<K, P, V> ComputeRuntime<K, P, V>
where
    K: Hash + Eq + Clone + Ord,
    P: Clone,
    V: CacheValue,
{
    /// Create a runtime driven by a caller-supplied placement policy
    /// instead of the configured strategy's. The config still provides
    /// every execution-plane knob (cache sizes, batching, smoothing).
    pub fn with_policy(
        cfg: OptimizerConfig,
        n_data_nodes: usize,
        my: NodeCosts,
        remote_default: NodeCosts,
        policy: Box<dyn PlacementPolicy<K>>,
    ) -> Self {
        assert!(n_data_nodes > 0, "need at least one data node");
        let batch_size = if cfg.strategy.batches() {
            cfg.batch_size
        } else {
            1
        };
        let dyn_max = cfg.dynamic_batch_max.filter(|_| cfg.strategy.batches());
        let dests = (0..n_data_nodes)
            .map(|_| DestState {
                batcher: match dyn_max {
                    Some(max) => Batcher::dynamic(batch_size.min(max), max, cfg.batch_max_wait),
                    None => Batcher::new(batch_size, cfg.batch_max_wait),
                },
                queued_data: 0,
                queued_compute: 0,
                inflight_compute: 0,
                inflight_data: 0,
            })
            .collect();
        let cache = TieredCache::new(
            cfg.mem_cache_bytes,
            cfg.disk_cache_bytes,
            LfuDa::new(),
            cfg.size_mode,
        );
        let costs = CostTracker::new(&cfg, n_data_nodes, my, remote_default);
        ComputeRuntime {
            policy,
            sink: None,
            costs,
            health: vec![NodeHealth::Healthy; n_data_nodes],
            dests,
            // Pre-sized so the steady-state request window never rehashes.
            inflight: FxHashMap::with_capacity_and_hasher(256, Default::default()),
            fetching: FxHashSet::default(),
            next_req: 0,
            local_pending: 0,
            tuples_seen: 0,
            stats: DecisionStats::default(),
            frozen: false,
            cache,
            cfg,
        }
    }

    /// Install an observer for the decision stream (replaces any prior
    /// sink; none is installed by default).
    pub fn set_decision_sink(&mut self, sink: Box<dyn DecisionSink<K>>) {
        self.sink = Some(sink);
    }

    /// The configuration in force.
    pub fn config(&self) -> &OptimizerConfig {
        &self.cfg
    }

    /// Decision statistics so far.
    pub fn stats(&self) -> DecisionStats {
        self.stats
    }

    /// Cache statistics so far.
    pub fn cache_stats(&self) -> jl_cache::CacheStats {
        self.cache.stats()
    }

    /// Input tuples processed.
    pub fn tuples_seen(&self) -> u64 {
        self.tuples_seen
    }

    /// Requests currently in flight (for drain checks).
    pub fn inflight_count(&self) -> usize {
        self.inflight.len()
    }

    /// Local executions issued but not completed.
    pub fn local_pending(&self) -> u64 {
        self.local_pending
    }

    fn fresh_req(&mut self) -> u64 {
        let id = self.next_req;
        self.next_req += 1;
        id
    }

    /// Process one input tuple: decide placement (Algorithm 1) and return
    /// the resulting actions.
    pub fn on_input(
        &mut self,
        now: SimTime,
        key: K,
        params: P,
        key_size: u64,
        params_size: u64,
        dest: usize,
    ) -> Vec<Action<K, P, V>> {
        self.tuples_seen += 1;
        if let Some(limit) = self.cfg.freeze_cache_after {
            if !self.frozen && self.tuples_seen > limit {
                self.frozen = true;
            }
        }
        let caching = self.policy.uses_cache();

        // Cache lookup (Algorithm 1 lines 3–9) — only caching policies.
        if caching {
            if !self.frozen {
                // updateBenefit: weight ≈ per-access saving of having the
                // value local (rent − recurring), floored at a small
                // epsilon, under the realized (bounce-aware) rent.
                let kc = self.costs.key_costs(&key, 1024.0, self.costs.local().t_cpu);
                let dc = self.costs.decision_costs(dest, key_size, params_size, &kc);
                let weight = (dc.rent_eff - dc.rb.rec_mem).max(1e-9);
                self.cache.touch(&key, weight);
            }
            // §5 footnote 4 extension: under extreme local CPU pressure,
            // spill even cache-hit work back to an uncongested data node.
            let offload = self
                .cfg
                .offload_cached_above
                .is_some_and(|thr| self.local_pending > thr && self.costs.dest_idle(dest));
            if !offload {
                match self.cache.lookup(&key) {
                    Lookup::MemHit => {
                        let value = self.cache.get(&key).expect("mem hit").clone();
                        self.stats.mem_hits += 1;
                        if !self.frozen {
                            self.policy.on_cache_hit(&key);
                        }
                        return vec![self.run_local(key, params, value, ValueSource::MemCache)];
                    }
                    Lookup::DiskHit => {
                        let value = self.cache.get(&key).expect("disk hit").clone();
                        self.stats.disk_hits += 1;
                        if !self.frozen {
                            self.policy.on_cache_hit(&key);
                            self.cache.maybe_promote(&key);
                        }
                        return vec![self.run_local(key, params, value, ValueSource::DiskCache)];
                    }
                    Lookup::Miss => {}
                }
            } else {
                self.stats.offloaded_hits += 1;
            }
        }

        // Miss (or non-caching policy): price the key and let the policy
        // choose the request kind.
        let kc = self.costs.key_costs(&key, 0.0, 0.0);
        let dc = self.costs.decision_costs(dest, key_size, params_size, &kc);
        let ctx = DecisionCtx {
            dest,
            frozen: self.frozen,
            observed: kc.observed,
            fetch_in_flight: self.fetching.contains(&key),
            would_cache_mem: self.cache.would_cache_in_memory(&key, dc.sizes.value),
            sizes: dc.sizes,
            rb: dc.rb,
            rent_eff: dc.rent_eff,
            dest_health: self.health[dest],
        };
        let placement = self.policy.decide(&key, &ctx);
        if let Some(sink) = self.sink.as_mut() {
            sink.on_decision(&DecisionEvent {
                at: now,
                key: &key,
                dest,
                placement,
                rent: dc.rb.rent,
                buy: dc.rb.buy,
                rec_mem: dc.rb.rec_mem,
                rent_eff: dc.rent_eff,
                freq_count: self.policy.freq_count(&key),
                frozen: self.frozen,
            });
        }
        let (kind, intent) = match placement {
            Placement::Rent => (ReqKind::Compute, CacheIntent::None),
            Placement::Buy(intent) => (ReqKind::Data, intent),
        };
        match kind {
            ReqKind::Compute => self.stats.compute_requests += 1,
            ReqKind::Data => self.stats.data_requests += 1,
        }
        if kind == ReqKind::Data && intent != CacheIntent::None {
            self.fetching.insert(key.clone());
        }
        let req_id = self.fresh_req();
        // Keep a local copy of the params: load balancing may bounce a
        // compute request back as a raw value, and the response does not
        // re-ship the params (§Appendix C counts only `sv` for uncomputed
        // responses — the compute node correlates by request id).
        self.inflight.insert(
            req_id,
            InFlight {
                key: key.clone(),
                params: params.clone(),
                kind,
                intent,
                dest,
            },
        );
        let item = RequestItem {
            req_id,
            key,
            params,
            kind,
        };
        match kind {
            ReqKind::Data => self.dests[dest].queued_data += 1,
            ReqKind::Compute => self.dests[dest].queued_compute += 1,
        }
        let mut out = Vec::new();
        if let Some(items) = self.dests[dest].batcher.push(now, item) {
            out.push(self.make_send(dest, items));
        }
        out
    }

    /// Flush batches whose oldest item exceeded the wait bound. Drivers call
    /// this when a batch deadline timer fires.
    pub fn poll(&mut self, now: SimTime) -> Vec<Action<K, P, V>> {
        let mut out = Vec::new();
        for dest in 0..self.dests.len() {
            if let Some(items) = self.dests[dest].batcher.poll(now) {
                out.push(self.make_send(dest, items));
            }
        }
        out
    }

    /// Flush every pending batch regardless of age (end of input).
    pub fn flush_all(&mut self) -> Vec<Action<K, P, V>> {
        let mut out = Vec::new();
        for dest in 0..self.dests.len() {
            while let Some(items) = self.dests[dest].batcher.flush() {
                out.push(self.make_send(dest, items));
            }
        }
        out
    }

    /// The earliest batch-flush deadline across destinations, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.dests.iter().filter_map(|d| d.batcher.deadline()).min()
    }

    fn make_send(&mut self, dest: usize, items: Vec<RequestItem<K, P>>) -> Action<K, P, V> {
        for it in &items {
            match it.kind {
                ReqKind::Compute => {
                    self.dests[dest].inflight_compute += 1;
                    self.dests[dest].queued_compute =
                        self.dests[dest].queued_compute.saturating_sub(1);
                }
                ReqKind::Data => {
                    self.dests[dest].inflight_data += 1;
                    self.dests[dest].queued_data = self.dests[dest].queued_data.saturating_sub(1);
                }
            }
        }
        let stats = self.load_stats(dest);
        Action::Send {
            dest,
            batch: BatchRequest { items, stats },
        }
    }

    /// Build the Appendix C compute-side load snapshot for a batch to `dest`.
    fn load_stats(&self, dest: usize) -> ComputeLoadStats {
        let mut ndc = 0u64; // data requests still queued in batchers
        let mut ncc = 0u64; // compute requests still queued in batchers
        for d in &self.dests {
            ndc += d.queued_data;
            ncc += d.queued_compute;
        }
        let mut pending_elsewhere = 0u64;
        let mut computed_elsewhere = 0f64;
        let mut ndrc = 0u64;
        for (j, d) in self.dests.iter().enumerate() {
            ndrc += d.inflight_data;
            if j != dest {
                pending_elsewhere += d.inflight_compute;
                computed_elsewhere += self.costs.computed_frac(j) * d.inflight_compute as f64;
            }
        }
        let at_target = &self.dests[dest];
        let computed_at_target =
            (self.costs.computed_frac(dest) * at_target.inflight_compute as f64) as u64;
        ComputeLoadStats {
            local_pending: self.local_pending,
            data_reqs_outbound: ndc,
            compute_reqs_outbound: ncc,
            data_resps_inbound: ndrc,
            pending_elsewhere,
            computed_elsewhere: (computed_elsewhere as u64).min(pending_elsewhere),
            pending_at_target: at_target.inflight_compute,
            computed_at_target: computed_at_target.min(at_target.inflight_compute),
            cpu_secs: self.costs.effective_local_cpu(),
            net_bw: self.costs.local().net_bw,
        }
    }

    /// Handle a batched response from data node `dest`. Returns follow-up
    /// actions (local executions for returned values). Remotely-computed
    /// outputs are already in the driver's hands; this records their
    /// completion and cost feedback.
    pub fn on_batch_response(
        &mut self,
        dest: usize,
        items: Vec<ResponseItem<K, V>>,
    ) -> Vec<Action<K, P, V>> {
        let mut out = Vec::new();
        let mut computed = 0u64;
        let mut bounced = 0u64;
        for item in items {
            let Some(inflight) = self.inflight.remove(&item.req_id) else {
                continue; // duplicate or cancelled
            };
            // Credit the destination the request was last *sent* to — after
            // a failover reissue that can differ from the replying node.
            self.release(inflight.dest, inflight.kind);
            if let Some(cost) = item.cost {
                self.policy.on_feedback(&item.key, &cost);
                // §4.2.3: if the item's version moved since we last saw
                // it, reset its access count and invalidate any cached
                // copy.
                if self.costs.absorb(&item.key, dest, &cost) {
                    self.policy.on_invalidate(&item.key);
                    self.cache.invalidate(&item.key);
                }
            }
            match item.payload {
                ResponsePayload::Computed { output_size } => {
                    computed += 1;
                    self.costs.observe_output(output_size);
                    self.stats.completed += 1;
                }
                ResponsePayload::Value { value, bounced: b } => {
                    if !b {
                        self.fetching.remove(&item.key);
                    }
                    if b {
                        bounced += 1;
                        self.stats.bounced_local += 1;
                    }
                    let caching = self.policy.uses_cache() && !self.frozen;
                    if caching && !b && inflight.intent != CacheIntent::None {
                        // One clone site: the cache and the local execution
                        // both need ownership, and `V: CacheValue` clones are
                        // refcount bumps (Bytes-backed), not payload copies.
                        let size = value.size();
                        let (k, v) = (item.key.clone(), value.clone());
                        match inflight.intent {
                            CacheIntent::Memory => {
                                self.cache.insert(k, v, size);
                            }
                            CacheIntent::Disk => {
                                self.cache.insert_to_disk(k, v, size);
                            }
                            CacheIntent::None => unreachable!("guarded above"),
                        }
                    }
                    let source = if b {
                        ValueSource::Bounced
                    } else {
                        ValueSource::Fetched
                    };
                    out.push(self.run_local(item.key, inflight.params, value, source));
                }
                ResponsePayload::Missing => {
                    self.fetching.remove(&item.key);
                    self.stats.missing += 1;
                    self.stats.completed += 1;
                }
            }
        }
        // Update the history of how much this destination computes itself.
        let answered = computed + bounced;
        if answered > 0 {
            self.costs
                .update_computed_frac(dest, computed as f64 / answered as f64);
        }
        out
    }

    /// A local UDF execution finished: record its measured CPU seconds.
    pub fn on_local_done(&mut self, _req_id: u64, cpu_secs: f64) {
        self.local_pending = self.local_pending.saturating_sub(1);
        self.costs.observe_local(cpu_secs);
        self.stats.completed += 1;
    }

    /// Targeted update notification from a data node (§4.2.3): invalidate
    /// the cached copy and restart the access count.
    pub fn on_update_notice(&mut self, key: &K) {
        self.cache.invalidate(key);
        self.policy.on_invalidate(key);
        self.costs.forget_key(key);
    }

    /// Update this runtime's belief about data node `dest`'s availability.
    /// Drivers call this from timeout (Down/Degraded) and reply (Healthy)
    /// observations; subsequent decisions see it via
    /// [`DecisionCtx::dest_health`].
    pub fn set_health(&mut self, dest: usize, health: NodeHealth) {
        self.health[dest] = health;
    }

    /// The current availability belief for data node `dest`.
    pub fn dest_health(&self, dest: usize) -> NodeHealth {
        self.health[dest]
    }

    /// The placement policy's frequency estimate for `key` (0 when the
    /// policy keeps no counts). Exposed so shedding decisions
    /// ([`ShedPolicy`](crate::shed::ShedPolicy)) can spare hot cached keys.
    pub fn key_freq(&self, key: &K) -> u64 {
        self.policy.freq_count(key)
    }

    /// The destination and params of an in-flight request, if it is still
    /// unanswered. This record is the one table of a driver's requests: it
    /// finds the work a request serves through the params, and a missing
    /// entry when a timeout fires means the response already arrived (or
    /// the id was re-issued or abandoned) and the timer is stale.
    pub fn inflight_info(&self, req_id: u64) -> Option<(usize, &P)> {
        self.inflight.get(&req_id).map(|f| (f.dest, &f.params))
    }

    /// Re-issue an unanswered request as a fresh single-item batch to
    /// `new_dest`, optionally flipping its kind (compute → data when the
    /// preferred side stopped computing, data → compute when a fetch
    /// stalls). The old request id is forgotten, so a late response to it
    /// is dropped by [`on_batch_response`](Self::on_batch_response)'s
    /// id check — re-issue can duplicate *work*, never *completions*.
    ///
    /// Returns the new request id and the send action, or `None` if the
    /// request already completed.
    pub fn reissue(
        &mut self,
        req_id: u64,
        new_dest: usize,
        flip_kind: bool,
    ) -> Option<(u64, Action<K, P, V>)> {
        let mut inflight = self.inflight.remove(&req_id)?;
        self.release(inflight.dest, inflight.kind);
        if flip_kind {
            match inflight.kind {
                ReqKind::Compute => {
                    // Fall back to fetching the value and running locally.
                    // The fetched value is not cached: this is an emergency
                    // path, not an admission decision.
                    inflight.kind = ReqKind::Data;
                    inflight.intent = CacheIntent::None;
                    self.stats.data_requests += 1;
                }
                ReqKind::Data => {
                    inflight.kind = ReqKind::Compute;
                    inflight.intent = CacheIntent::None;
                    // The fetch this key was waiting on is gone; let the
                    // next access decide afresh instead of renting forever.
                    self.fetching.remove(&inflight.key);
                    self.stats.compute_requests += 1;
                }
            }
        }
        let new_id = self.fresh_req();
        let item = RequestItem {
            req_id: new_id,
            key: inflight.key.clone(),
            params: inflight.params.clone(),
            kind: inflight.kind,
        };
        inflight.dest = new_dest;
        match inflight.kind {
            ReqKind::Compute => self.dests[new_dest].inflight_compute += 1,
            ReqKind::Data => self.dests[new_dest].inflight_data += 1,
        }
        self.inflight.insert(new_id, inflight);
        let stats = self.load_stats(new_dest);
        let action = Action::Send {
            dest: new_dest,
            batch: BatchRequest {
                items: vec![item],
                stats,
            },
        };
        Some((new_id, action))
    }

    /// Give up on an unanswered request after retries are exhausted: drop
    /// its bookkeeping so drains don't wait on it forever. Returns true if
    /// the request was still pending.
    pub fn abandon(&mut self, req_id: u64) -> bool {
        let Some(inflight) = self.inflight.remove(&req_id) else {
            return false;
        };
        self.release(inflight.dest, inflight.kind);
        self.fetching.remove(&inflight.key);
        true
    }

    /// One fewer request of `kind` in flight to `dest`.
    fn release(&mut self, dest: usize, kind: ReqKind) {
        let d = &mut self.dests[dest];
        let n = match kind {
            ReqKind::Compute => &mut d.inflight_compute,
            ReqKind::Data => &mut d.inflight_data,
        };
        *n = n.saturating_sub(1);
    }

    fn run_local(&mut self, key: K, params: P, value: V, source: ValueSource) -> Action<K, P, V> {
        let req_id = self.fresh_req();
        self.local_pending += 1;
        Action::RunLocal {
            req_id,
            key,
            params,
            value,
            source,
        }
    }
}
