//! The `jl-serve` request/response layer: an in-process cluster on the
//! wall-clock backend, answering a stream of lookup-join requests.
//!
//! This is the runtime seam's end-to-end demonstration: the exact engine
//! the simulator hosts — same [`ComputeNode`](jl_engine::compute_node),
//! same placement policies, same retry/backpressure/shedding machinery —
//! serving live requests in real time. One request per input line, one
//! response per completed tuple.
//!
//! # Wire protocol (newline-delimited text)
//!
//! Request lines:
//!
//! ```text
//! <key> [params_size]
//! ```
//!
//! `key` is a u64 (mapped onto the stored table as `key % rows`, so every
//! request hits); `params_size` is an optional payload size in bytes
//! (default 128, at most [`MAX_PARAMS_BYTES`] — the server materialises
//! that payload). Blank lines and lines starting with `#` are ignored;
//! anything else — unparseable, a `params_size` over the bound, longer
//! than [`MAX_LINE_BYTES`], or not UTF-8 — is counted in
//! [`ServeStats::malformed`] and skipped.
//!
//! Response lines, in completion order (not request order — the engine
//! pipelines):
//!
//! ```text
//! <seq> <ok|gave_up|shed> <latency_us>
//! ```
//!
//! `seq` numbers accepted requests from 0 in input order. Every accepted
//! request gets exactly one response; the stream ends (and the cluster
//! shuts down) once all are answered after input EOF.
//!
//! # Observability commands (when [`ServeConfig::observe`] is set)
//!
//! Three in-band commands ride the request stream; each produces a reply
//! on the response stream (in order with the data responses):
//!
//! * `METRICS` — Prometheus-style text exposition (multi-line, terminated
//!   by `# EOF`): serve counters, windowed latency quantiles, and the
//!   engine's full live metrics snapshot.
//! * `STATS` — one-line JSON snapshot (`jl-serve-stats/v1`): per-outcome
//!   counters, window quantiles, per-node queue depth / pressure flags,
//!   live run-report deltas.
//! * `DUMP` — drain the flight recorder to the configured dump path as a
//!   Chrome trace; replies `dump <path> <events>`.
//!
//! The same surfaces are reachable out-of-band (from another socket or
//! thread) through [`ServeShared`].
//!
//! # Membership commands (always available)
//!
//! * `DRAIN <node>` — gracefully decommission data node `<node>`: the
//!   controller migrates its regions off live (requests keep being
//!   served throughout) and deactivates it once empty. Replies
//!   `drain <node> requested`; progress shows in `STATS` (the node's
//!   `state` walks active → draining → standby, `down` flips true).
//! * `JOIN <node>` — re-activate a standby data node; the controller
//!   rebalances regions onto it. Replies `join <node> requested`.

use std::io::{self, BufRead, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use rustc_hash::FxHashMap;

use jl_core::{OptimizerConfig, Strategy};
use jl_engine::{
    build_cluster, build_store, gather_report, load_host, process_names, snapshot_delta,
    ClusterSim, ClusterSpec, FeedMode, JobPlan, JobSpec, JobTuple, MembershipConfig, Msg,
    OverloadConfig, RetryConfig, RunReport, TupleFate,
};
use jl_runtime::RealRuntime;
use jl_simkit::time::{SimDuration, SimTime};
use jl_store::{DigestUdf, RowKey, UdfRegistry};
use jl_telemetry::{FnClock, TelemetryConfig, TelemetryHandle};
use jl_workloads::SyntheticSpec;

use crate::experiments::overload_bounded_config;
use crate::observe::{
    dump_flight, render_metrics, stats_json, FaultDumpProbe, LiveSample, ObserveConfig, ServeLive,
    ServeShared,
};

/// The UDF id the serve table registers its digest function under.
const UDF: usize = 0;

/// Configuration of the served cluster and workload shape.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Compute nodes.
    pub n_compute: usize,
    /// Data nodes (region servers).
    pub n_data: usize,
    /// Rows in the lookup table (request keys are taken mod this).
    pub rows: u64,
    /// Stored value size, bytes.
    pub value_size: u64,
    /// Modeled CPU per UDF invocation, microseconds.
    pub udf_cpu_us: u64,
    /// Root seed (policies, stores, and RNG streams).
    pub seed: u64,
    /// Timeout/retry/failover machinery on (PR 3). No faults are injected
    /// by `serve`, so this arms the timers without expecting them to fire.
    pub retry: bool,
    /// Overload protection on (PR 5): bounded queues, NACK backpressure,
    /// deadline-aware shedding.
    pub overload: bool,
    /// Per-tuple deadline budget, milliseconds (requires `overload`).
    /// `None` sheds only on queue pressure — the robust default for
    /// machines with unpredictable scheduling hiccups.
    pub deadline_ms: Option<u64>,
    /// Live observability plane (PR 9): flight recorder, windowed
    /// quantiles, `METRICS`/`STATS`/`DUMP` commands, SLO-breach dumps.
    /// `None` serves exactly as before, with zero added overhead.
    pub observe: Option<ObserveConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            n_compute: 2,
            n_data: 2,
            rows: 2_000,
            value_size: 16 * 1024,
            udf_cpu_us: 100,
            seed: 42,
            retry: true,
            overload: true,
            deadline_ms: None,
            observe: None,
        }
    }
}

/// What one `serve` session did.
#[derive(Debug)]
pub struct ServeStats {
    /// Requests accepted (== responses written).
    pub served: u64,
    /// Input lines skipped as unparseable.
    pub malformed: u64,
    /// The cluster's full run report (wall-clock durations/latencies).
    pub report: RunReport,
}

/// Build the [`JobSpec`] a serve session runs: the full optimizer over a
/// single-stage lookup-join plan, streaming feed, retry and overload
/// machinery per `cfg`. Exposed so tests can run the identical job shape
/// on the simulator.
pub fn serve_job(cfg: &ServeConfig, cluster: &ClusterSpec) -> JobSpec {
    let mut optimizer = OptimizerConfig::for_strategy(Strategy::Full);
    optimizer.mem_cache_bytes = 32 << 20;
    optimizer.batch_size = 64;
    // Serving is latency-bound: don't hold a partial batch long.
    optimizer.batch_max_wait = SimDuration::from_millis(2);
    let overload = cfg.overload.then(|| OverloadConfig {
        deadline: cfg.deadline_ms.map(SimDuration::from_millis),
        record_outcomes: true,
        ..overload_bounded_config(1024, None)
    });
    JobSpec {
        retry: cfg.retry.then(RetryConfig::default),
        overload,
        // Armed with every data node active and no scripted events: inert
        // until an in-band `DRAIN`/`JOIN` command asks the controller to
        // act, at which point regions migrate live under the serve load.
        membership: Some(MembershipConfig::static_active(cluster.n_data)),
        ..JobSpec::new(
            cluster.clone(),
            optimizer,
            FeedMode::Stream {
                // The horizon is the batch/stream switch for the engine; the
                // serve loop itself runs until the responder stops it.
                horizon: SimDuration::from_secs(86_400),
                window: cluster.node.cores * 4,
            },
            JobPlan::single(0, UDF),
            cfg.seed,
            cfg.udf_cpu_us as f64 * 1e-6,
        )
    }
}

/// The table a serve session stores: `cfg.rows` deterministic rows of
/// `cfg.value_size` bytes (same generator as the synthetic workloads).
fn serve_table(cfg: &ServeConfig) -> (String, SyntheticSpec) {
    let spec = SyntheticSpec {
        name: "serve",
        n_keys: cfg.rows,
        value_size: cfg.value_size,
        value_prefix: 64,
        udf_cpu: SimDuration::from_micros(cfg.udf_cpu_us),
        n_tuples: 0,
        params_size: 128,
        output_size: 256,
    };
    ("serve".to_string(), spec)
}

/// Parse an in-band membership command: `DRAIN <node>` or `JOIN <node>`
/// (`node` a data-node index). Returns `(join, node)`.
fn parse_member_cmd(line: &str) -> Option<(bool, usize)> {
    let mut it = line.split_whitespace();
    let join = match it.next()? {
        "DRAIN" => false,
        "JOIN" => true,
        _ => return None,
    };
    let node: usize = it.next()?.parse().ok()?;
    it.next().is_none().then_some((join, node))
}

/// Largest `params_size` a request line may ask for: 1 MiB (the workloads
/// use 64 B to a few KB). The engine allocates and fills that many bytes
/// per request and ships them through the modelled NIC, so an unbounded
/// value lets one line hold gigabytes and the loop thread for minutes.
pub const MAX_PARAMS_BYTES: u32 = 1 << 20;

/// Parse one request line. `Ok(None)` = ignorable (blank / comment).
fn parse_request(line: &str) -> Result<Option<(u64, u32)>, ()> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut it = line.split_whitespace();
    let key: u64 = it.next().ok_or(())?.parse().map_err(|_| ())?;
    let params: u32 = match it.next() {
        Some(tok) => tok.parse().map_err(|_| ())?,
        None => 128,
    };
    if it.next().is_some() || params > MAX_PARAMS_BYTES {
        return Err(());
    }
    Ok(Some((key, params)))
}

/// Longest line the request reader (and the `jl-serve` stats socket)
/// buffers, excluding its newline. Every legitimate line is far shorter —
/// `<u64> <u32>`, `JOIN <n>`, `METRICS` — so 4 KiB leaves ample slack while
/// a newline-free flood costs the server no more than this much memory.
pub const MAX_LINE_BYTES: usize = 4096;

/// One line read by [`read_line`].
#[derive(Debug)]
pub enum Line<'a> {
    /// The line, without its newline.
    Text(&'a str),
    /// Longer than [`MAX_LINE_BYTES`] or not UTF-8; already consumed
    /// through its newline.
    Malformed,
    /// End of input.
    Eof,
}

/// Read the next line of `input` into `buf` (reused across calls). At most
/// [`MAX_LINE_BYTES`] + 1 bytes are buffered: the rest of an over-long
/// line is skipped up to its newline without being stored, so no input
/// can make the reader allocate without bound. An I/O error is returned
/// as is; the line it interrupted is lost.
pub fn read_line<'a>(input: &mut impl BufRead, buf: &'a mut Vec<u8>) -> io::Result<Line<'a>> {
    buf.clear();
    let cap = MAX_LINE_BYTES as u64 + 1;
    if (&mut *input).take(cap).read_until(b'\n', buf)? == 0 {
        return Ok(Line::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_LINE_BYTES {
        skip_past_newline(input)?;
        return Ok(Line::Malformed);
    }
    Ok(std::str::from_utf8(buf).map_or(Line::Malformed, Line::Text))
}

/// Consume `input` through the next newline (or to EOF) without keeping it.
fn skip_past_newline(input: &mut impl BufRead) -> io::Result<()> {
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                input.consume(i + 1);
                return Ok(());
            }
            None => {
                let n = chunk.len();
                input.consume(n);
            }
        }
    }
}

/// One item on the single-writer response channel: a tuple completion
/// from a node hook, or pre-rendered text (a command reply) from the
/// reader. Funneling both through one channel keeps response ordering a
/// property of the channel, not of thread timing.
enum Out {
    Done(u64, TupleFate, SimTime),
    Text(String),
}

/// Serve `input` until EOF + all responses written, on an in-process
/// cluster hosted by the wall-clock backend. Three threads cooperate:
/// the caller's runs the event loop, a reader injects each request line
/// as a [`Msg::Tuple`] through an ingress [`RealHandle`]
/// (round-robin across compute nodes, like the runner's feed split), and
/// a responder turns per-tuple completion hooks into response lines and
/// stops the loop when everything is answered.
///
/// [`RealHandle`]: jl_runtime::RealHandle
pub fn serve<R, W>(input: R, output: W, cfg: &ServeConfig) -> std::io::Result<ServeStats>
where
    R: BufRead + Send,
    W: Write + Send,
{
    serve_observed(input, output, cfg, None)
}

/// [`serve`], optionally attaching its live state to a [`ServeShared`]
/// seam so another thread (e.g. a stats listener socket) can scrape
/// `METRICS`/`STATS` and trigger `DUMP` while the session runs.
pub fn serve_observed<R, W>(
    input: R,
    output: W,
    cfg: &ServeConfig,
    shared: Option<&ServeShared>,
) -> std::io::Result<ServeStats>
where
    R: BufRead + Send,
    W: Write + Send,
{
    let cluster = ClusterSpec {
        n_compute: cfg.n_compute,
        n_data: cfg.n_data,
        block_cache_bytes: 0,
        ..ClusterSpec::default()
    };
    let (table_name, spec) = serve_table(cfg);
    let store = build_store(&cluster, vec![(table_name, spec.rows(1).collect())]);
    let mut udfs = UdfRegistry::new();
    udfs.register(UDF, Arc::new(DigestUdf { out_bytes: 256 }));
    let job = serve_job(cfg, &cluster);

    // Observability arms a flight-ring-only recorder: the span buffer
    // stays off (a server cannot buffer its whole trace), the ring tees
    // every event the engine and probe emit.
    let tel: Option<TelemetryHandle> = cfg
        .observe
        .as_ref()
        .map(|o| jl_telemetry::shared(TelemetryConfig::flight_only(o.flight.max(1))));
    let processes = process_names(&cluster);

    let built = build_cluster(&job, store, udfs, vec![], vec![], &tel);
    let mut sim = load_host(&job, built, &tel);

    // Fault-transition dumps: wrap the engine probe so a crash/restart
    // snapshots the ring before evidence rotates out. (No fault plan is
    // installed by `serve` itself, but callers embedding this layer can.)
    if let (Some(t), Some(o)) = (&tel, &cfg.observe) {
        if let Some(path) = &o.dump_path {
            sim.set_probe(Box::new(FaultDumpProbe::new(
                Box::new(jl_engine::EngineProbe::new(t.clone())),
                t.clone(),
                processes.clone(),
                path.clone(),
            )));
        }
    }
    let mut rt = RealRuntime::pace(sim);

    // Completion fan-in: each compute node's hook reports one
    // (seq, fate, at) per tuple to the responder.
    let (done_tx, done_rx) = mpsc::channel::<Out>();
    for i in 0..cluster.n_compute {
        let tx = done_tx.clone();
        rt.node_mut(cluster.compute_id(i))
            .as_compute_mut()
            .expect("compute role")
            .set_completion_hook(Box::new(move |seq, fate, at| {
                let _ = tx.send(Out::Done(seq, fate, at));
            }));
    }

    // Handles must exist before the loop starts (they are the loop's
    // liveness signal); one for ingress, one for shutdown control.
    let ingress = rt.handle();
    let control = rt.handle();

    // The run clock, lent to telemetry (the wall-clock analogue of the
    // simulator's manual clock) and to every out-of-band scrape.
    let clock_handle = rt.handle();
    let clock: Arc<dyn jl_telemetry::TelemetryClock> = {
        let h = clock_handle.clone();
        Arc::new(FnClock::new(move || h.now()))
    };
    if let Some(t) = &tel {
        let h = clock_handle.clone();
        t.borrow_mut()
            .set_clock(Box::new(FnClock::new(move || h.now())));
    }

    let live: Option<Arc<ServeLive>> = cfg.observe.as_ref().map(|o| Arc::new(ServeLive::new(o)));

    // The event-loop sampler: every beat, publish a fresh incremental
    // metrics snapshot plus live per-node queue/pipeline state. Runs on
    // the loop thread, so it reads node state with no synchronization.
    if let (Some(l), Some(o)) = (&live, &cfg.observe) {
        let l = Arc::clone(l);
        let cl = cluster.clone();
        let names = processes.clone();
        let name_of = move |id: u32| -> String {
            names
                .iter()
                .find(|(n, _)| *n == id)
                .map(|(_, s)| s.clone())
                .unwrap_or_else(|| id.to_string())
        };
        rt.set_live_sampler(
            SimDuration::from_millis(o.sample_ms.max(1)),
            move |sim: &ClusterSim| {
                let at = sim.time();
                let registry = snapshot_delta(sim, &cl, at);
                let mut queues = Vec::with_capacity(cl.n_data);
                for j in 0..cl.n_data {
                    let id = cl.data_id(j);
                    let n = sim.node(id).as_data().expect("data role");
                    let (depth, pressured) = n.live_queue();
                    queues.push((
                        id as u32,
                        name_of(id as u32),
                        depth,
                        pressured,
                        n.membership_state(),
                    ));
                }
                let mut pipelines = Vec::with_capacity(cl.n_compute);
                let (mut completed, mut ingested, mut retries) = (0u64, 0u64, 0u64);
                for i in 0..cl.n_compute {
                    let id = cl.compute_id(i);
                    let n = sim.node(id).as_compute().expect("compute role");
                    let (outstanding, pressured) = n.live_pipeline();
                    pipelines.push((id as u32, name_of(id as u32), outstanding, pressured));
                    let r = n.report();
                    completed += r.completed;
                    ingested += r.ingested;
                    retries += r.retries;
                }
                let totals = sim.net_totals();
                l.publish(LiveSample {
                    at,
                    registry,
                    queues,
                    pipelines,
                    completed,
                    ingested,
                    retries,
                    net_messages: totals.messages,
                    net_bytes: totals.bytes,
                });
            },
        );
    }

    if let (Some(sh), Some(l)) = (shared, &live) {
        sh.attach(
            Arc::clone(l),
            tel.clone(),
            processes.clone(),
            cfg.observe.as_ref().and_then(|o| o.dump_path.clone()),
            Arc::clone(&clock),
        );
    }

    // The reader answers in-band commands through the same channel the
    // completion hooks use, so command replies interleave with data
    // responses in channel order (single writer, no output races).
    let cmd_tx = done_tx.clone();
    drop(done_tx);

    let arrivals: Arc<std::sync::Mutex<FxHashMap<u64, SimTime>>> =
        Arc::new(std::sync::Mutex::new(FxHashMap::default()));
    // u64::MAX = "input not yet exhausted"; the reader publishes the true
    // request count at EOF and the responder stops once it catches up.
    let total = Arc::new(AtomicU64::new(u64::MAX));
    let malformed = Arc::new(AtomicU64::new(0));

    let n_compute = cluster.n_compute;
    let n_data = cluster.n_data;
    let controller_id = cluster.controller_id();
    let rows = cfg.rows.max(1);
    let compute_ids: Vec<usize> = (0..n_compute).map(|i| cluster.compute_id(i)).collect();
    let observe = cfg.observe.clone();

    let (served, responded, write_err) = std::thread::scope(|s| {
        let reader = {
            let arrivals = Arc::clone(&arrivals);
            let total = Arc::clone(&total);
            let malformed = Arc::clone(&malformed);
            let compute_ids = compute_ids.clone();
            let live = live.clone();
            let tel = tel.clone();
            let processes = processes.clone();
            let dump_path = observe.as_ref().and_then(|o| o.dump_path.clone());
            s.spawn(move || {
                let mut input = input;
                let mut buf = Vec::new();
                let bad = || {
                    malformed.fetch_add(1, Ordering::Relaxed);
                    if let Some(l) = &live {
                        l.on_malformed();
                    }
                };
                let mut seq = 0u64;
                loop {
                    let line = match read_line(&mut input, &mut buf) {
                        Ok(Line::Text(line)) => line,
                        Ok(Line::Malformed) => {
                            bad();
                            continue;
                        }
                        Ok(Line::Eof) | Err(_) => break,
                    };
                    if let Some((join, node)) = parse_member_cmd(line) {
                        let reply = if node < n_data {
                            let (verb, msg) = if join {
                                ("join", Msg::Join { node })
                            } else {
                                ("drain", Msg::Decommission { node })
                            };
                            ingress.send(controller_id, msg, 64);
                            format!("{verb} {node} requested")
                        } else {
                            format!("error node {node} out of range (n_data {n_data})")
                        };
                        if cmd_tx.send(Out::Text(reply)).is_err() {
                            break;
                        }
                        continue;
                    }
                    if let Some(l) = &live {
                        if let Some(reply) = handle_command(
                            line,
                            l,
                            tel.as_ref(),
                            &processes,
                            dump_path.as_deref(),
                            ingress.now(),
                        ) {
                            if cmd_tx.send(Out::Text(reply)).is_err() {
                                break;
                            }
                            continue;
                        }
                    }
                    match parse_request(line) {
                        Ok(None) => {}
                        Err(()) => bad(),
                        Ok(Some((key, params_size))) => {
                            let arrival = ingress.now();
                            arrivals.lock().expect("arrivals lock").insert(seq, arrival);
                            let tuple = JobTuple {
                                seq,
                                keys: vec![RowKey::from_u64(key % rows)],
                                params_size,
                                arrival,
                            };
                            // Same round-robin and wire sizing as the
                            // runner's stream feed.
                            let to = compute_ids[(seq as usize) % compute_ids.len()];
                            let bytes = u64::from(params_size) + 64;
                            if !ingress.send(to, Msg::Tuple(tuple), bytes) {
                                break;
                            }
                            if let Some(l) = &live {
                                l.on_accept(arrival);
                            }
                            seq += 1;
                        }
                    }
                }
                total.store(seq, Ordering::Release);
                seq
            })
        };

        let responder = {
            let arrivals = Arc::clone(&arrivals);
            let total = Arc::clone(&total);
            let live = live.clone();
            let tel = tel.clone();
            let processes = processes.clone();
            let observe = observe.clone();
            let mut output = output;
            s.spawn(move || {
                let mut responded = 0u64;
                let mut err: Option<std::io::Error> = None;
                // SLO breach tracking: dump once per excursion over the
                // threshold, re-arming when the windowed p99 recovers.
                let mut breached = false;
                let mut slo_dumps = 0u64;
                loop {
                    if total.load(Ordering::Acquire) == responded {
                        break;
                    }
                    match done_rx.recv_timeout(Duration::from_millis(20)) {
                        Ok(Out::Text(text)) => {
                            if let Err(e) = writeln!(output, "{text}") {
                                err = Some(e);
                                break;
                            }
                            let _ = output.flush();
                        }
                        Ok(Out::Done(seq, fate, at)) => {
                            let arrival = arrivals
                                .lock()
                                .expect("arrivals lock")
                                .remove(&seq)
                                .unwrap_or(at);
                            let status = match fate {
                                TupleFate::Done => "ok",
                                TupleFate::GaveUp => "gave_up",
                                TupleFate::Shed => "shed",
                            };
                            let latency = at.since(arrival);
                            let latency_us = (latency.as_secs_f64() * 1e6).round() as u64;
                            if let Err(e) = writeln!(output, "{seq} {status} {latency_us}") {
                                err = Some(e);
                                break;
                            }
                            responded += 1;
                            if let Some(l) = &live {
                                l.on_complete(at, status, latency);
                                if let Some(o) = &observe {
                                    check_slo(
                                        l,
                                        o,
                                        tel.as_ref(),
                                        &processes,
                                        at,
                                        responded,
                                        &mut breached,
                                        &mut slo_dumps,
                                    );
                                }
                            }
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                }
                if err.is_none() {
                    if let Err(e) = output.flush() {
                        err = Some(e);
                    }
                }
                control.stop();
                (responded, err)
            })
        };

        rt.run();
        let served = reader.join().expect("reader thread");
        let (responded, write_err) = responder.join().expect("responder thread");
        (served, responded, write_err)
    });

    if let Some(sh) = shared {
        sh.detach();
    }
    if let Some(e) = write_err {
        return Err(e);
    }
    debug_assert_eq!(served, responded, "every accepted request is answered");
    let end = rt.sim().time();
    let report = gather_report(rt.sim(), &cluster, end);
    Ok(ServeStats {
        served,
        malformed: malformed.load(Ordering::Relaxed),
        report,
    })
}

/// Reply to an in-band observability command, or `None` if `line` is not
/// one. `now` is the run clock at receipt. The `METRICS` reply is
/// multi-line; its final line is the exposition's `# EOF` terminator, so
/// a client reads until that marker.
fn handle_command(
    line: &str,
    live: &ServeLive,
    tel: Option<&TelemetryHandle>,
    processes: &[(u32, String)],
    dump_path: Option<&std::path::Path>,
    now: SimTime,
) -> Option<String> {
    match line.trim() {
        "METRICS" => Some(render_metrics(live, tel, now).trim_end().to_string()),
        "STATS" => Some(stats_json(live, tel, now)),
        "DUMP" => Some(match (tel, dump_path) {
            (Some(t), Some(p)) => match dump_flight(t, processes, p) {
                Ok(n) => format!("dump {} {n}", p.display()),
                Err(e) => format!("error {e}"),
            },
            _ => "error flight recorder not armed".to_string(),
        }),
        _ => None,
    }
}

/// Responder-side SLO check, sampled every 32 completions: on the
/// false→true transition of "windowed p99 over threshold", dump the
/// flight ring to a `.slo<n>`-suffixed sibling of the configured dump
/// path; re-arm once the p99 recovers.
#[allow(clippy::too_many_arguments)]
fn check_slo(
    live: &ServeLive,
    observe: &ObserveConfig,
    tel: Option<&TelemetryHandle>,
    processes: &[(u32, String)],
    now: SimTime,
    responded: u64,
    breached: &mut bool,
    slo_dumps: &mut u64,
) {
    let Some(slo_ms) = observe.slo_p99_ms else {
        return;
    };
    if !responded.is_multiple_of(32) {
        return;
    }
    let (win, _) = live.window(now);
    let over = win.count > 0 && win.p99 >= SimDuration::from_millis(slo_ms);
    if over && !*breached {
        *breached = true;
        if let (Some(t), Some(base)) = (tel, observe.dump_path.as_ref()) {
            let stem = base
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("flight");
            let ext = base.extension().and_then(|s| s.to_str()).unwrap_or("json");
            let path = base.with_file_name(format!("{stem}.slo{slo_dumps}.{ext}"));
            if let Ok(n) = dump_flight(t, processes, &path) {
                eprintln!(
                    "flight dump (SLO breach, window p99 {:.3}ms >= {slo_ms}ms): {n} events -> {}",
                    win.p99.as_secs_f64() * 1e3,
                    path.display()
                );
                *slo_dumps += 1;
            }
        }
    } else if !over {
        *breached = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse() {
        assert_eq!(parse_request("17"), Ok(Some((17, 128))));
        assert_eq!(parse_request("  17 512 "), Ok(Some((17, 512))));
        assert_eq!(parse_request(""), Ok(None));
        assert_eq!(parse_request("# comment"), Ok(None));
        assert_eq!(parse_request("x"), Err(()));
        assert_eq!(parse_request("1 2 3"), Err(()));
        assert_eq!(parse_request("1 -2"), Err(()));
        assert_eq!(parse_request("1 1048576"), Ok(Some((1, MAX_PARAMS_BYTES))));
        assert_eq!(parse_request("1 1048577"), Err(()));
        assert_eq!(parse_request("1 4294967295"), Err(()));
    }

    /// Every line [`read_line`] yields from `input`: `None` for a
    /// malformed one.
    fn lines_of(mut input: &[u8]) -> Vec<Option<String>> {
        let mut buf = Vec::new();
        let mut out = Vec::new();
        loop {
            match read_line(&mut input, &mut buf).expect("in-memory read") {
                Line::Text(line) => out.push(Some(line.to_string())),
                Line::Malformed => out.push(None),
                Line::Eof => return out,
            }
        }
    }

    #[test]
    fn line_reader_bounds_every_line() {
        let max = "7".repeat(MAX_LINE_BYTES);
        let over = "7".repeat(MAX_LINE_BYTES + 1);
        let parts: [&[u8]; 5] = [
            b"1\n",
            max.as_bytes(),
            b"\n",
            over.as_bytes(),
            b"\n2\n\xff\n3",
        ];
        let want = [
            Some("1".to_string()),
            Some(max.clone()), // exactly MAX_LINE_BYTES
            None,              // one byte over; the reader resyncs at its newline
            Some("2".to_string()),
            None, // invalid UTF-8
            Some("3".to_string()),
        ];
        assert_eq!(lines_of(&parts.concat()), want);
    }

    #[test]
    fn member_commands_parse() {
        assert_eq!(parse_member_cmd("DRAIN 1"), Some((false, 1)));
        assert_eq!(parse_member_cmd("  JOIN 0 "), Some((true, 0)));
        assert_eq!(parse_member_cmd("DRAIN"), None);
        assert_eq!(parse_member_cmd("DRAIN x"), None);
        assert_eq!(parse_member_cmd("DRAIN 1 2"), None);
        assert_eq!(parse_member_cmd("drain 1"), None);
        assert_eq!(parse_member_cmd("17 128"), None);
    }

    #[test]
    fn empty_input_serves_cleanly() {
        let mut out = Vec::new();
        let cfg = ServeConfig {
            rows: 64,
            value_size: 1024,
            ..ServeConfig::default()
        };
        let stats = serve(&b""[..], &mut out, &cfg).expect("serve");
        assert_eq!(stats.served, 0);
        assert_eq!(stats.malformed, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn answers_every_request_once() {
        let input = (0..40).map(|k| format!("{k}\n")).collect::<String>();
        let mut out = Vec::new();
        let cfg = ServeConfig {
            rows: 64,
            value_size: 1024,
            ..ServeConfig::default()
        };
        let stats = serve(input.as_bytes(), &mut out, &cfg).expect("serve");
        assert_eq!(stats.served, 40);
        assert_eq!(stats.report.completed, 40);
        assert_eq!(stats.report.shed, 0);
        let text = String::from_utf8(out).expect("utf8");
        let mut seqs: Vec<u64> = Vec::new();
        for line in text.lines() {
            let mut it = line.split_whitespace();
            seqs.push(it.next().expect("seq").parse().expect("seq u64"));
            assert_eq!(it.next(), Some("ok"));
            let _latency: u64 = it.next().expect("latency").parse().expect("latency u64");
            assert_eq!(it.next(), None);
        }
        seqs.sort_unstable();
        assert_eq!(seqs, (0..40).collect::<Vec<u64>>());
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let input = "1\nbogus\n2\n\n# note\n3 99\n";
        let mut out = Vec::new();
        let cfg = ServeConfig {
            rows: 64,
            value_size: 1024,
            ..ServeConfig::default()
        };
        let stats = serve(input.as_bytes(), &mut out, &cfg).expect("serve");
        assert_eq!(stats.served, 3);
        assert_eq!(stats.malformed, 1);
        assert_eq!(String::from_utf8(out).expect("utf8").lines().count(), 3);
    }
}
