//! Layer cells: one workload's own key, size and message stream replayed
//! through each layer's public functions, timed from outside.
//!
//! Every `X_ns` comes with `X_share` = operations the workload performs ×
//! `X_ns` ÷ the wall time of one run, so the cells add up to an
//! attribution of that run. The operation counts come from the run's own
//! [`RunReport`]. What no cell explains is `engine.callback_share`.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use jl_cache::{LfuDa, Lookup, TieredCache};
use jl_core::{
    Action, Batcher, ComputeRuntime, CostInfo, DataRuntime, ReqKind, ResponseItem, ResponsePayload,
};
use jl_costmodel::perkey::PerKeyCosts;
use jl_costmodel::{rent_buy_costs, NodeCosts, SizeProfile};
use jl_engine::plan::encode_params;
use jl_engine::{EKey, FeedMode, RunReport, Val};
use jl_freq::{FrequencyEstimator, LossyCounter};
use jl_loadbalance::{solve_gradient, ComputeLoadStats, DataLoadStats, LoadModel};
use jl_runtime::{RealRuntime, RuntimeCtx, RuntimeNode};
use jl_simkit::prelude::*;
use jl_simkit::queue::CalendarQueue;
use jl_simkit::rng::{splitmix64, stream_rng};
use jl_skirental::RecurringSkiRental;
use jl_store::{RowKey, StoredValue};
use jl_telemetry::{ArgVal, Telemetry, TelemetryConfig, Track};

use crate::catalog::Metrics;
use crate::host::Spans;
use crate::stats::median;
use crate::workloads::SimInputs;

/// Accesses one round of a cell replays, at most.
const ROUND_OPS: usize = 50_000;

/// The rule every cell's rounds follow: at least three, then until the
/// budget is spent, never more than 200.
fn rounds(budget_s: f64) -> impl Iterator<Item = usize> {
    let started = Instant::now();
    (0..200).take_while(move |&round| round < 3 || started.elapsed().as_secs_f64() < budget_s)
}

/// Median of the rounds that performed operations; 0 if none did.
fn median_or_zero(per_op: &[f64]) -> f64 {
    if per_op.is_empty() {
        0.0
    } else {
        median(per_op)
    }
}

/// Median ns per operation over rounds. Each round builds fresh state
/// with `fresh` (untimed), then `timed` runs on it and says how many
/// operations it performed. At least three rounds, then until `budget_s`
/// is spent. A cell whose rounds perform no operations reads 0.
fn cell<S>(
    budget_s: f64,
    mut fresh: impl FnMut() -> S,
    mut timed: impl FnMut(&mut S) -> usize,
) -> f64 {
    let mut per_op = Vec::new();
    for _ in rounds(budget_s) {
        let mut state = fresh();
        let t0 = Instant::now();
        let ops = timed(&mut state);
        let dt = t0.elapsed();
        if ops > 0 {
            per_op.push(dt.as_nanos() as f64 / ops as f64);
        }
    }
    median_or_zero(&per_op)
}

/// What one compute node sees of the workload: every `n_compute`-th tuple
/// (the runner's round-robin split), as the engine's key type, with the
/// stored value each joins to.
struct NodeStream<'a> {
    keys: Vec<EKey>,
    values: Vec<&'a StoredValue>,
    params: Vec<Bytes>,
    /// `(region, data node)` holding each key.
    located: Vec<(usize, usize)>,
}

fn node_stream(inputs: &SimInputs) -> NodeStream<'_> {
    let (catalog, _) = inputs.store().into_parts();
    let mut s = NodeStream {
        keys: Vec::new(),
        values: Vec::new(),
        params: Vec::new(),
        located: Vec::new(),
    };
    for t in inputs
        .tuples
        .iter()
        .step_by(inputs.job.cluster.n_compute)
        .take(ROUND_OPS)
    {
        let row = &t.keys[0];
        // Rows are generated in key order, so the key is the row index.
        let idx = row.as_u64().expect("u64 row key") as usize;
        s.keys.push((0, row.clone()));
        s.values.push(&inputs.rows[idx].1);
        s.params.push(encode_params(t.seq, 0, t.params_size));
        s.located.push(catalog.locate(0, row));
    }
    s
}

/// The hardware parameters a compute node starts from (as the engine's
/// `ComputeNode::new` derives them).
fn node_costs(inputs: &SimInputs) -> NodeCosts {
    let spec = &inputs.job.cluster;
    NodeCosts {
        t_disk: spec.disk_service(64 * 1024).as_secs_f64(),
        t_cpu: inputs.job.udf_cpu_hint,
        net_bw: spec.node.net_bw_bps,
    }
}

fn size_profile(
    inputs: &SimInputs,
    key: &EKey,
    params: &Bytes,
    value: &StoredValue,
) -> SizeProfile {
    SizeProfile {
        key: key.1.len() as u64 + 8,
        params: params.len() as u64,
        value: value.size(),
        computed: inputs.udf_out_bytes as u64,
    }
}

/// `CalendarQueue` hold model (pop the minimum, push a successor) at the
/// workload's pending-event count: everything posted up front plus the
/// in-flight window of every compute node.
fn queue_hold(inputs: &SimInputs, budget_s: f64) -> f64 {
    let cluster = &inputs.job.cluster;
    let pending = inputs.updates.len()
        + match inputs.job.feed {
            FeedMode::Batch { window } => window * cluster.n_compute,
            FeedMode::Stream { .. } => inputs.tuples.len(),
        };
    let mut state = 0x5EED_0BAD_CAFE_F00Du64;
    let deltas: Vec<u64> = (0..4096)
        .map(|_| 1_000 + splitmix64(&mut state) % 100_000)
        .collect();
    cell(
        budget_s,
        || {
            let mut q: CalendarQueue<u32> = CalendarQueue::with_capacity(pending);
            for i in 0..pending {
                q.push(SimTime(deltas[i % deltas.len()]), i as u64, 0);
            }
            (q, pending as u64)
        },
        |(q, seq)| {
            for i in 0..ROUND_OPS {
                let (t, _, v) = q.pop().expect("queue never drains");
                q.push(SimTime(t.0 + deltas[i % deltas.len()]), *seq, v);
                *seq += 1;
            }
            ROUND_OPS
        },
    )
}

/// A node that does nothing but pass messages on: what the kernel itself
/// (queue, dispatch, NIC stations) costs per event.
struct Relay {
    peers: Vec<NodeId>,
    next: usize,
    left: u64,
    bytes: u64,
}

impl Node for Relay {
    type Msg = u64;
    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        if self.left == 0 {
            return;
        }
        self.left -= 1;
        // Compute nodes fan out over the data nodes; data nodes reply.
        let to = if self.peers.is_empty() {
            from
        } else {
            self.next = (self.next + 1) % self.peers.len();
            self.peers[self.next]
        };
        ctx.send(to, msg, self.bytes);
    }
}

/// The workload's cluster shape, message size and in-flight depth with
/// no-op nodes: host ns per simulated event of the kernel alone.
fn dispatch_floor(inputs: &SimInputs, report: &RunReport, budget_s: f64) -> f64 {
    let cluster = &inputs.job.cluster;
    let bytes = report.net_bytes / report.net_messages.max(1);
    let in_flight = match inputs.job.feed {
        FeedMode::Batch { window } | FeedMode::Stream { window, .. } => window.min(256),
    };
    let hops = (ROUND_OPS * 4 / cluster.total_nodes()) as u64;
    cell(
        budget_s,
        || {
            let mut sim: Sim<Relay> = Sim::new(inputs.job.seed, cluster.net);
            let data: Vec<NodeId> = (0..cluster.n_data).map(|j| cluster.data_id(j)).collect();
            for i in 0..cluster.n_compute + cluster.n_data {
                let peers = if i < cluster.n_compute {
                    data.clone()
                } else {
                    Vec::new()
                };
                sim.add_node(
                    Relay {
                        peers,
                        next: i,
                        left: hops,
                        bytes,
                    },
                    cluster.node,
                );
            }
            for i in 0..cluster.n_compute {
                for k in 0..in_flight {
                    sim.post(SimTime::ZERO, cluster.compute_id(i), k as u64, bytes);
                }
            }
            sim
        },
        |sim| {
            sim.run();
            sim.events_processed() as usize
        },
    )
}

/// `Telemetry::record_parts` into a buffer whose pages are already warm:
/// the first recorder of each round faults the allocation in and frees it.
fn telemetry_record(budget_s: f64) -> f64 {
    let record = |tel: &mut Telemetry| {
        for i in 0..ROUND_OPS as u64 {
            tel.record_parts(
                (i % 20) as u32,
                Track::Cpu,
                "grant",
                SimTime(i * 1_000),
                Some(SimDuration::from_nanos(500)),
                &[("bytes", ArgVal::U64(i))],
            );
        }
    };
    cell(
        budget_s,
        || {
            let mut warm = Telemetry::new(TelemetryConfig::default());
            record(&mut warm);
            drop(warm);
            Telemetry::new(TelemetryConfig::default())
        },
        |tel| {
            record(tel);
            ROUND_OPS
        },
    )
}

/// Everything the compute-side replay produces besides its two timings.
struct ComputeReplay {
    on_input_ns: f64,
    on_batch_response_ns: f64,
    /// `(data requests, compute requests, sender load, sizes)` per batch
    /// the node sent — the inputs of the data-side cells.
    batches: Vec<(u64, u64, ComputeLoadStats, SizeProfile)>,
}

/// Drive the sans-IO `ComputeRuntime` over the node's stream the way the
/// engine does: a window of `on_input` calls, then synthetic responses for
/// every batch they sent. The whole per-tuple decision plane — policy,
/// cache, frequency sketch, cost model, batcher — is inside these calls.
fn compute_replay(inputs: &SimInputs, stream: &NodeStream<'_>, budget_s: f64) -> ComputeReplay {
    let cluster = &inputs.job.cluster;
    let my = node_costs(inputs);
    let window = match inputs.job.feed {
        FeedMode::Batch { window } | FeedMode::Stream { window, .. } => window,
    };
    let (mut input_ns, mut response_ns) = (Vec::new(), Vec::new());
    let mut batches = Vec::new();
    for _ in rounds(budget_s) {
        batches.clear();
        let mut rt: ComputeRuntime<EKey, Bytes, Val> = ComputeRuntime::new(
            inputs.job.optimizer.clone(),
            cluster.n_data,
            my,
            my,
            inputs.job.seed,
        );
        let (mut t_input, mut t_response) = (0u128, 0u128);
        let (mut n_input, mut n_response) = (0usize, 0usize);
        let mut i = 0;
        while i < stream.keys.len() {
            let end = (i + window).min(stream.keys.len());
            let now = SimTime(i as u64 * 1_000);
            let mut actions = Vec::new();
            let t0 = Instant::now();
            for j in i..end {
                let key = stream.keys[j].clone();
                let params = stream.params[j].clone();
                let (ks, ps) = (key.1.len() as u64 + 8, params.len() as u64);
                actions.extend(rt.on_input(now, key, params, ks, ps, stream.located[j].1));
            }
            actions.extend(rt.flush_all());
            t_input += t0.elapsed().as_nanos();
            n_input += end - i;
            i = end;

            // Answer every batch (untimed), then feed the answers back.
            let mut responses = Vec::new();
            let mut locals = Vec::new();
            for action in actions {
                match action {
                    Action::RunLocal { req_id, value, .. } => {
                        locals.push((req_id, value.0.udf_cpu().as_secs_f64()));
                    }
                    Action::Send { dest, batch } => {
                        let mut value_bytes = 0;
                        let items: Vec<ResponseItem<EKey, Val>> = batch
                            .items
                            .iter()
                            .map(|item| {
                                let idx = item.key.1.as_u64().expect("u64 row key") as usize;
                                let value = &inputs.rows[idx].1;
                                value_bytes += value.size();
                                respond(item.req_id, &item.key, item.kind, value, &my, inputs)
                            })
                            .collect();
                        let n = batch.items.len() as u64;
                        batches.push((
                            batch.data_count() as u64,
                            batch.compute_count() as u64,
                            batch.stats,
                            SizeProfile {
                                key: 16,
                                params: batch
                                    .items
                                    .iter()
                                    .map(|it| it.params.len() as u64)
                                    .sum::<u64>()
                                    / n,
                                value: value_bytes / n,
                                computed: inputs.udf_out_bytes as u64,
                            },
                        ));
                        responses.push((dest, items));
                    }
                }
            }
            let t0 = Instant::now();
            for (dest, items) in responses {
                n_response += items.len();
                for action in rt.on_batch_response(dest, items) {
                    if let Action::RunLocal { req_id, value, .. } = action {
                        locals.push((req_id, value.0.udf_cpu().as_secs_f64()));
                    }
                }
            }
            t_response += t0.elapsed().as_nanos();
            for (req_id, cpu) in locals {
                rt.on_local_done(req_id, cpu);
            }
        }
        input_ns.push(t_input as f64 / n_input.max(1) as f64);
        if n_response > 0 {
            response_ns.push(t_response as f64 / n_response as f64);
        }
    }
    ComputeReplay {
        on_input_ns: median(&input_ns),
        on_batch_response_ns: median_or_zero(&response_ns),
        batches,
    }
}

/// The response a healthy data node gives one request item.
fn respond(
    req_id: u64,
    key: &EKey,
    kind: ReqKind,
    value: &StoredValue,
    node: &NodeCosts,
    inputs: &SimInputs,
) -> ResponseItem<EKey, Val> {
    let payload = match kind {
        ReqKind::Data => ResponsePayload::Value {
            value: Val(value.clone()),
            bounced: false,
        },
        ReqKind::Compute => ResponsePayload::Computed {
            output_size: inputs.udf_out_bytes as u64,
        },
    };
    ResponseItem {
        req_id,
        key: key.clone(),
        payload,
        cost: Some(CostInfo {
            value_size: value.size(),
            udf_cpu_secs: value.udf_cpu().as_secs_f64(),
            version: value.version,
            data_t_disk: node.t_disk,
            data_t_cpu: node.t_cpu,
            data_t_cpu_service: node.t_cpu,
        }),
    }
}

/// Time a measured block of inserts inside a replay: `Instant` pairs cost
/// about as much as a cheap insert, so their own cost is measured and
/// taken off.
fn clock_overhead_ns() -> f64 {
    let n = 20_000;
    let t0 = Instant::now();
    for _ in 0..n {
        black_box(Instant::now());
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// `TieredCache` at the workload's capacity and size mode over the node's
/// stream: the engine's touch → lookup → insert-on-miss protocol.
/// Returns `(touch+lookup ns, insert ns, invalidate ns)`.
fn cache_cells(inputs: &SimInputs, stream: &NodeStream<'_>, budget_s: f64) -> (f64, f64, f64) {
    let cfg = &inputs.job.optimizer;
    let fresh = || -> TieredCache<EKey, Val, LfuDa<EKey>> {
        TieredCache::new(
            cfg.mem_cache_bytes,
            cfg.disk_cache_bytes,
            LfuDa::new(),
            cfg.size_mode,
        )
    };
    let protocol =
        |cache: &mut TieredCache<EKey, Val, LfuDa<EKey>>, insert_ns: &mut u128| -> usize {
            let mut inserts = 0;
            for (key, value) in stream.keys.iter().zip(&stream.values) {
                cache.touch(key, 1.0);
                if cache.lookup(key) == Lookup::Miss {
                    let v = Val((*value).clone());
                    let t0 = Instant::now();
                    cache.insert(key.clone(), v, value.size());
                    *insert_ns += t0.elapsed().as_nanos();
                    inserts += 1;
                }
            }
            inserts
        };
    let warmed = || {
        let mut cache = fresh();
        protocol(&mut cache, &mut 0);
        cache
    };

    // Insert (eviction and demotion included): the misses of a cold pass.
    let clock = clock_overhead_ns();
    let mut insert_ns = Vec::new();
    for _ in rounds(budget_s / 3.0) {
        let mut spent = 0u128;
        let inserts = protocol(&mut fresh(), &mut spent);
        if inserts > 0 {
            insert_ns.push((spent as f64 / inserts as f64 - clock).max(0.0));
        }
    }
    let insert = median_or_zero(&insert_ns);

    // Touch + lookup on a warm cache, no inserts.
    let touch_lookup = cell(budget_s / 3.0, warmed, |cache| {
        for key in &stream.keys {
            cache.touch(key, 1.0);
            black_box(cache.lookup(key));
        }
        stream.keys.len()
    });

    // Invalidate: the workload's own written keys against a warm cache.
    let written: Vec<EKey> = inputs
        .updates
        .iter()
        .take(ROUND_OPS)
        .map(|u| (u.1, u.2.clone()))
        .collect();
    let invalidate = cell(budget_s / 3.0, warmed, |cache| {
        for key in &written {
            cache.invalidate(key);
        }
        written.len()
    });
    (touch_lookup, insert, invalidate)
}

/// All layer cells of one simulated workload, written into `m`.
pub fn sim_cells(
    inputs: &SimInputs,
    report: &RunReport,
    run_wall_s: f64,
    budget_s: f64,
    spans: &mut Spans,
    m: &mut Metrics,
) {
    // Twelve timed blocks share the budget.
    let each = budget_s / 12.0;
    let stream = node_stream(inputs);
    let done = report.completed as f64;
    let d = &report.decisions;
    let remote = (d.compute_requests + d.data_requests) as f64;
    let events = report.sim_events as f64;
    let my = node_costs(inputs);

    let (ns, _) = spans.time("cell.simkit.queue_hold", |_| queue_hold(inputs, each));
    m.set_cell(
        "simkit.queue_hold_ns",
        "simkit.queue_hold_share",
        ns,
        events,
        run_wall_s,
    );
    let (ns, _) = spans.time("cell.simkit.dispatch_floor", |_| {
        dispatch_floor(inputs, report, each)
    });
    m.set_cell(
        "simkit.dispatch_floor_ns",
        "simkit.dispatch_floor_share",
        ns,
        events,
        run_wall_s,
    );
    let floor_share = m.get("simkit.dispatch_floor_share").unwrap_or(0.0);

    let (ns, _) = spans.time("cell.telemetry.record", |_| telemetry_record(each));
    m.set("telemetry.record_ns", ns);

    // skirental: decide over the running per-key access counts, with the
    // rent/buy/recurring costs the cost model gives this workload's sizes.
    let (ns, _) = spans.time("cell.skirental.decide", |_| {
        let mut seen: rustc_hash::FxHashMap<&EKey, u64> = Default::default();
        let counts: Vec<u64> = stream
            .keys
            .iter()
            .map(|k| {
                let c = seen.entry(k).or_insert(0);
                *c += 1;
                *c
            })
            .collect();
        let sizes = size_profile(inputs, &stream.keys[0], &stream.params[0], stream.values[0]);
        let costs = rent_buy_costs(&sizes, &my, &my);
        let policy = RecurringSkiRental::new(costs.rent, costs.buy, costs.rec_mem);
        cell(
            each,
            || (),
            |_| {
                for &c in &counts {
                    black_box(policy.decide(black_box(c)));
                }
                counts.len()
            },
        )
    });
    m.set_cell(
        "skirental.decide_ns",
        "skirental.decide_share",
        ns,
        remote,
        run_wall_s,
    );

    let (ns, _) = spans.time("cell.freq.observe", |_| {
        let eps = inputs.job.optimizer.lossy_epsilon;
        cell(
            each,
            || LossyCounter::<EKey>::new(eps),
            |lc| {
                for key in &stream.keys {
                    black_box(lc.observe(key.clone()));
                }
                stream.keys.len()
            },
        )
    });
    m.set_cell(
        "freq.observe_ns",
        "freq.observe_share",
        ns,
        done,
        run_wall_s,
    );

    let ((touch_lookup, insert, invalidate), _) =
        spans.time("cell.cache", |_| cache_cells(inputs, &stream, each * 2.0));
    let c = &report.cache;
    m.set_cell(
        "cache.touch_lookup_ns",
        "cache.touch_lookup_share",
        touch_lookup,
        done,
        run_wall_s,
    );
    m.set_cell(
        "cache.insert_ns",
        "cache.insert_share",
        insert,
        (c.inserts_mem + c.inserts_disk) as f64,
        run_wall_s,
    );
    m.set_cell(
        "cache.invalidate_ns",
        "cache.invalidate_share",
        invalidate,
        c.invalidations as f64,
        run_wall_s,
    );

    let (ns, _) = spans.time("cell.costmodel.rent_buy", |_| {
        cell(
            each / 2.0,
            || (),
            |_| {
                for ((key, params), value) in
                    stream.keys.iter().zip(&stream.params).zip(&stream.values)
                {
                    let sizes = size_profile(inputs, key, params, value);
                    black_box(rent_buy_costs(black_box(&sizes), &my, &my));
                }
                stream.keys.len()
            },
        )
    });
    m.set_cell(
        "costmodel.rent_buy_ns",
        "costmodel.rent_buy_share",
        ns,
        remote,
        run_wall_s,
    );
    let (ns, _) = spans.time("cell.costmodel.perkey_record", |_| {
        let cfg = &inputs.job.optimizer;
        cell(
            each / 2.0,
            || PerKeyCosts::<EKey>::new(cfg.perkey_capacity, cfg.smoothing_alpha),
            |costs| {
                for (key, value) in stream.keys.iter().zip(&stream.values) {
                    costs.record(key.clone(), value.size(), value.udf_cpu().as_secs_f64());
                }
                stream.keys.len()
            },
        )
    });
    m.set_cell(
        "costmodel.perkey_record_ns",
        "costmodel.perkey_record_share",
        ns,
        remote,
        run_wall_s,
    );

    // core: the compute-side decision plane, then the data side fed with
    // the batches that replay sent.
    let (replay, _) = spans.time("cell.core.compute", |_| {
        compute_replay(inputs, &stream, each * 2.0)
    });
    m.set_cell(
        "core.on_input_ns",
        "core.on_input_share",
        replay.on_input_ns,
        done,
        run_wall_s,
    );
    m.set_cell(
        "core.on_batch_response_ns",
        "core.on_batch_response_share",
        replay.on_batch_response_ns,
        remote,
        run_wall_s,
    );
    let batches = &replay.batches;
    let n_batches = report.data.batches as f64;
    let (ns, _) = spans.time("cell.core.accept_batch", |_| {
        cell(
            each,
            || {
                DataRuntime::new(
                    inputs.job.optimizer.clone(),
                    my.t_disk,
                    my.t_cpu,
                    my.net_bw,
                    inputs.job.seed,
                )
            },
            |rt| {
                for (n_data, n_compute, sender, sizes) in batches {
                    let here = rt.accept_batch(*n_data, *n_compute, sender, sizes);
                    rt.on_computed(here);
                    rt.on_bounced(n_compute - here);
                    rt.on_data_served(*n_data);
                    rt.on_responses_sent(n_data + n_compute);
                }
                batches.len()
            },
        )
    });
    m.set_cell(
        "core.accept_batch_ns",
        "core.accept_batch_share",
        ns,
        n_batches,
        run_wall_s,
    );

    // loadbalance: the solver alone, on models built from those batches'
    // own load snapshots at b = 64.
    let (ns, _) = spans.time("cell.loadbalance.solve", |_| {
        let data = DataLoadStats {
            cpu_secs: my.t_cpu,
            net_bw: my.net_bw,
            ..Default::default()
        };
        let models: Vec<LoadModel> = batches
            .iter()
            .take(2_000)
            .map(|(_, _, sender, sizes)| LoadModel::new(sender, &data, sizes, 64))
            .collect();
        cell(
            each,
            || stream_rng(inputs.job.seed, "lb-cell"),
            |rng| {
                for model in &models {
                    black_box(solve_gradient(model, rng, 60));
                }
                models.len()
            },
        )
    });
    m.set_cell(
        "loadbalance.solve_ns",
        "loadbalance.solve_share",
        ns,
        n_batches,
        run_wall_s,
    );

    let (ns, _) = spans.time("cell.core.batcher_push", |_| {
        let cfg = &inputs.job.optimizer;
        cell(
            each / 2.0,
            || Batcher::<u64>::new(cfg.batch_size, cfg.batch_max_wait),
            |b| {
                for t in 0..ROUND_OPS as u64 {
                    black_box(b.push(SimTime(t * 1_000), t));
                }
                ROUND_OPS
            },
        )
    });
    m.set_cell(
        "core.batcher_push_ns",
        "core.batcher_push_share",
        ns,
        remote,
        run_wall_s,
    );

    // store: region-server reads and writes on this workload's rows, and
    // the real UDF on its values.
    let located: Vec<(usize, usize, &RowKey)> = stream
        .located
        .iter()
        .zip(&stream.keys)
        .map(|(&(region, server), key)| (region, server, &key.1))
        .collect();
    let (ns, _) = spans.time("cell.store.get", |_| {
        cell(
            each / 2.0,
            || inputs.store().into_parts().1,
            |servers| {
                for &(region, server, key) in &located {
                    black_box(servers[server].get(0, region, key));
                }
                located.len()
            },
        )
    });
    m.set_cell("store.get_ns", "store.get_share", ns, remote, run_wall_s);
    let (ns, _) = spans.time("cell.store.put", |_| {
        cell(
            each / 2.0,
            || {
                let rows: Vec<_> = located
                    .iter()
                    .zip(&stream.values)
                    .map(|(&(region, server, key), value)| {
                        (region, server, key.clone(), (*value).clone())
                    })
                    .collect();
                (inputs.store().into_parts().1, rows)
            },
            |(servers, rows)| {
                let n = rows.len();
                for (region, server, key, value) in rows.drain(..) {
                    servers[server].put(0, region, key, value);
                }
                n
            },
        )
    });
    m.set_cell(
        "store.put_ns",
        "store.put_share",
        ns,
        inputs.updates.len() as f64,
        run_wall_s,
    );
    let (ns, _) = spans.time("cell.store.udf_apply", |_| {
        let udfs = inputs.udfs();
        let udf = udfs.get(0).expect("digest udf");
        cell(
            each / 2.0,
            || (),
            |_| {
                for ((key, params), value) in
                    stream.keys.iter().zip(&stream.params).zip(&stream.values)
                {
                    black_box(udf.apply(&key.1, params, value));
                }
                stream.keys.len()
            },
        )
    });
    m.set_cell(
        "store.udf_apply_ns",
        "store.udf_apply_share",
        ns,
        done,
        run_wall_s,
    );

    // engine: host time in node handlers that no cell above explains. The
    // finer cells (policy, sketch, cache, cost model, solver, batcher) run
    // inside the core calls and are not subtracted twice.
    let explained: f64 = [
        "core.on_input_share",
        "core.on_batch_response_share",
        "core.accept_batch_share",
        "store.get_share",
        "store.put_share",
        "store.udf_apply_share",
    ]
    .iter()
    .filter_map(|name| m.get(name))
    .sum();
    m.set("engine.callback_share", 1.0 - floor_share - explained);
}

/// A node of the wall-clock runtime that only observes when its events
/// reach it.
#[derive(Default)]
struct Probe {
    timers_left: u32,
    due: SimTime,
    timer_lag_us: Vec<f64>,
    inject_us: Vec<f64>,
}

/// 1 ms, in nanoseconds.
const TIMER_PERIOD: SimDuration = SimDuration(1_000_000);

impl RuntimeNode for Probe {
    type Msg = Instant;

    fn handle_start<C: RuntimeCtx<Instant>>(&mut self, ctx: &mut C) {
        if self.timers_left > 0 {
            self.due = ctx.now() + TIMER_PERIOD;
            ctx.set_timer(self.due, 0);
        }
    }

    fn handle_timer<C: RuntimeCtx<Instant>>(&mut self, _tag: u64, ctx: &mut C) {
        self.timer_lag_us
            .push(ctx.now().since(self.due).as_secs_f64() * 1e6);
        self.timers_left -= 1;
        if self.timers_left == 0 {
            ctx.stop();
        } else {
            self.due += TIMER_PERIOD;
            ctx.set_timer(self.due, 0);
        }
    }

    fn handle_message<C: RuntimeCtx<Instant>>(
        &mut self,
        _from: NodeId,
        sent: Instant,
        _ctx: &mut C,
    ) {
        self.inject_us.push(sent.elapsed().as_secs_f64() * 1e6);
    }
}

/// The wall-clock backend by itself: how late its 1 ms timers fire, and how
/// long a message injected through a `RealHandle` takes to reach its node
/// on an otherwise idle loop (no modelled network delay: host cost only).
pub fn runtime_cells(m: &mut Metrics) {
    let net = NetConfig {
        latency: SimDuration::ZERO,
    };

    // 1 100 timers leave eleven samples beyond the 99th percentile.
    let mut rt: RealRuntime<Probe> = RealRuntime::new(1, net);
    rt.add_node(
        Probe {
            timers_left: 1_100,
            ..Probe::default()
        },
        NodeSpec::default(),
    );
    rt.run();
    let mut lag = std::mem::take(&mut rt.node_mut(0).timer_lag_us);
    crate::stats::sort(&mut lag);
    m.set(
        "runtime.real_timer_lag_p50_us",
        crate::stats::percentile(&lag, 50.0).expect("1100 samples"),
    );
    m.set(
        "runtime.real_timer_lag_p99_us",
        crate::stats::percentile(&lag, 99.0).expect("1100 samples"),
    );

    let mut rt: RealRuntime<Probe> = RealRuntime::new(1, net);
    rt.add_node(Probe::default(), NodeSpec::default());
    let handle = rt.handle();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..1_000 {
                handle.send(0, Instant::now(), 0);
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
            handle.stop();
        });
        rt.run();
    });
    m.set("runtime.real_inject_us", median(&rt.node(0).inject_us));
}
