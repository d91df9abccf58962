//! `serve_open`: an open-loop load generator against the `jl-serve`
//! request/reply layer, in-process, over loopback TCP — driven exactly as
//! the `jl-serve` binary drives it (`BufReader<TcpStream>` in, `TcpStream`
//! out, `TCP_NODELAY`).
//!
//! Open loop: request `i` is due at `start + i / rate` whatever the server
//! does, and its latency runs from that due time, so a stall — in the
//! server or in the generator — is charged to every request it delays.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use jl_bench::{serve, ObserveConfig, ServeConfig, ServeStats};
use jl_simkit::rng::stream_rng;
use jl_workloads::Zipf;

use crate::catalog::Metrics;
use crate::cells;
use crate::host::{peak_rss_mb, reset_peak_rss, CpuTime, Spans};
use crate::stats::{median, percentile, sort};
use crate::workloads::Scale;
use crate::Outcome;

/// Offered load, requests per second: a quarter of the modelled knee of
/// the 2 + 2 node cluster, so latency above the modelled service time (2 ms
/// batch wait, disk, NIC) is host overhead — and half of what this 2-core
/// host sustains in its slow phases. At 8 000/s a slow phase (120 µs of
/// CPU per request, five threads on two cores) brought the host itself
/// near saturation: the generator ran 3 ms late and p99 swung 5–26 ms
/// between runs; at 4 000/s it stayed within 4–4.5 ms through the same.
const RATE: f64 = 4_000.0;
/// Rows × value size: 320 MB logical store against the 32 MB cache.
const ROWS: u64 = 20_000;
const VALUE_BYTES: u64 = 16 * 1024;
/// Sessions per run (fresh server each), and the untimed lead-in of each.
const SESSIONS: usize = 3;
const WARMUP_S: f64 = 0.5;

/// One request schedule: `keys[i]` is due `i / rate` seconds after start;
/// the first `warmup` requests are sent but not measured.
pub struct Plan {
    pub rate: f64,
    pub warmup: usize,
    pub keys: Vec<u64>,
}

/// A reply line as the collector saw it.
struct Reply {
    seq: u64,
    ok: bool,
    server_us: f64,
    at: Instant,
}

/// What one session measured, over the requests after the warm-up.
#[derive(Default)]
pub struct Session {
    /// Request→reply, from each request's due time, ms (sorted).
    pub latency_ms: Vec<f64>,
    /// The 99th percentile of each whole second of the measured window, by
    /// due time. A host stall lands in one or two of these; the median over
    /// them, unlike one p99 over the window, does not move with it.
    pub slice_p99_ms: Vec<f64>,
    /// The `latency_us` field of the reply lines, ms (sorted).
    pub server_ms: Vec<f64>,
    /// Send time − due time, µs (sorted).
    pub late_us: Vec<f64>,
    pub offered: u64,
    /// Requests not answered `ok` exactly once (all requests, warm-up too):
    /// shed or given up by the overload plane, or `broken`.
    pub failed: u64,
    /// Replies missing, duplicated or for a request never sent: the
    /// protocol's one-reply-per-request promise did not hold.
    pub broken: u64,
    pub answered_ok: u64,
    /// Measured window: first measured request due → last request sent.
    pub window_s: f64,
    pub cpu: Option<CpuTime>,
    /// Reply lines that were not `<seq> <status> <latency_us>`.
    pub texts: Vec<String>,
}

/// Drive `plan` through `tx`/`rx`. `first_seq` is the sequence number the
/// server will give request 0; `trailer` is written after the last request
/// (an in-band command, or nothing), then `finish` ends the stream.
pub fn open_loop<W: Write, R: BufRead + Send>(
    tx: W,
    rx: R,
    plan: &Plan,
    first_seq: u64,
    trailer: &str,
    finish: impl FnOnce(W),
) -> Session {
    let n = plan.keys.len();
    let gap = 1.0 / plan.rate;
    let start = Instant::now();
    let due = |i: usize| Duration::from_secs_f64(i as f64 * gap);

    let (replies, texts, sent) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut replies = Vec::with_capacity(n);
            let mut texts = Vec::new();
            for line in rx.lines() {
                let Ok(line) = line else { break };
                let at = Instant::now();
                let mut it = line.split_whitespace();
                let parsed = (|| {
                    let seq = it.next()?.parse().ok()?;
                    let ok = it.next()? == "ok";
                    let server_us = it.next()?.parse().ok()?;
                    it.next().is_none().then_some(Reply {
                        seq,
                        ok,
                        server_us,
                        at,
                    })
                })();
                match parsed {
                    Some(reply) => replies.push(reply),
                    None => texts.push(line),
                }
            }
            (replies, texts)
        });

        // The generator: send everything that is due, note how late each
        // went out, sleep until the next is due.
        let mut tx = BufWriter::new(tx);
        let mut sent_at = vec![Duration::ZERO; n];
        let mut cpu_at_window = None;
        let mut next = 0;
        while next < n {
            let now = start.elapsed();
            let due_count = (((now.as_secs_f64() / gap) as usize) + 1).min(n);
            if next == due_count {
                std::thread::sleep(due(next).saturating_sub(now));
                continue;
            }
            if next <= plan.warmup && plan.warmup < due_count {
                cpu_at_window = Some(CpuTime::now());
            }
            for key in &plan.keys[next..due_count] {
                writeln!(tx, "{key}").expect("request write");
            }
            tx.flush().expect("request flush");
            let flushed = start.elapsed();
            sent_at[next..due_count].fill(flushed);
            next = due_count;
        }
        let cpu = cpu_at_window.map(|c0| CpuTime::now().since(c0));
        if !trailer.is_empty() {
            writeln!(tx, "{trailer}").expect("trailer write");
        }
        finish(tx.into_inner().ok().expect("final flush"));
        let (replies, texts) = collector.join().expect("collector thread");
        (replies, texts, (sent_at, cpu))
    });
    let (sent_at, cpu) = sent;

    // One reply per request, `ok`: anything else is a failed request.
    let mut seen = vec![0u32; n];
    let mut by_due = Vec::with_capacity(n);
    let mut session = Session {
        texts,
        cpu,
        ..Session::default()
    };
    for r in &replies {
        let Some(i) = r
            .seq
            .checked_sub(first_seq)
            .map(|i| i as usize)
            .filter(|&i| i < n)
        else {
            session.broken += 1;
            continue;
        };
        seen[i] += 1;
        if seen[i] > 1 {
            session.broken += 1;
            continue;
        }
        if !r.ok {
            session.failed += 1;
            continue;
        }
        if i >= plan.warmup {
            session.answered_ok += 1;
            let latency = r.at.duration_since(start).saturating_sub(due(i));
            by_due.push((i, latency.as_secs_f64() * 1e3));
            session.server_ms.push(r.server_us / 1e3);
        }
    }
    session.broken += seen.iter().filter(|&&c| c == 0).count() as u64;
    session.failed += session.broken;
    session.offered = (n - plan.warmup) as u64;
    session.late_us = (plan.warmup..n)
        .map(|i| sent_at[i].saturating_sub(due(i)).as_secs_f64() * 1e6)
        .collect();
    session.window_s = sent_at.last().map_or(0.0, |last| {
        last.saturating_sub(due(plan.warmup)).as_secs_f64()
    });
    by_due.sort_by_key(|&(i, _)| i);
    for second in by_due.chunks(plan.rate as usize) {
        let mut ms: Vec<f64> = second.iter().map(|&(_, ms)| ms).collect();
        sort(&mut ms);
        session.slice_p99_ms.extend(percentile(&ms, 99.0));
    }
    session.latency_ms = by_due.into_iter().map(|(_, ms)| ms).collect();
    sort(&mut session.latency_ms);
    if session.slice_p99_ms.is_empty() {
        // Less than a second measured: one slice, whatever it supports.
        session.slice_p99_ms.push(pct(&session.latency_ms, 99.0));
    }
    sort(&mut session.server_ms);
    sort(&mut session.late_us);
    session
}

/// Zipf z = 1.0 keys over the served table, from the benchmark's seed.
fn plan(seed: u64, session: usize, measure_s: f64, rows: u64) -> Plan {
    let zipf = Zipf::new(rows as usize, 1.0);
    let mut rng = stream_rng(seed, "serve-keys");
    let warmup = (RATE * WARMUP_S) as usize;
    let n = warmup + (RATE * measure_s) as usize;
    // One RNG stream per run; each session continues where the last left.
    let keys: Vec<u64> = (0..n * (session + 1))
        .map(|_| zipf.sample(&mut rng) as u64)
        .skip(n * session)
        .collect();
    Plan {
        rate: RATE,
        warmup,
        keys,
    }
}

/// One session against a fresh server: start it, wait for the first reply
/// (that wait is `setup_s`), run the plan, collect the server's stats.
fn session(
    cfg: &ServeConfig,
    plan: &Plan,
    trailer: &str,
    spans: &mut Spans,
) -> std::io::Result<(Session, ServeStats, f64)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| {
        let (pair, setup_s) = spans.time("setup", |_| -> std::io::Result<_> {
            let server = scope.spawn(move || -> std::io::Result<ServeStats> {
                let (stream, _) = listener.accept()?;
                stream.set_nodelay(true)?;
                let reader = BufReader::new(stream.try_clone()?);
                serve(reader, stream, cfg)
            });
            let mut tx = TcpStream::connect(addr)?;
            tx.set_nodelay(true)?;
            let mut rx = BufReader::new(tx.try_clone()?);
            // The store loads and the cluster starts inside `serve`; the
            // first reply says both are done.
            tx.write_all(b"0\n")?;
            let mut first = String::new();
            rx.read_line(&mut first)?;
            if first.split_whitespace().nth(1) != Some("ok") {
                return Err(std::io::Error::other(format!("probe reply {first:?}")));
            }
            Ok((server, tx, rx))
        });
        let (server, tx, rx) = pair?;
        let (measured, _) = spans.time("open_loop", |_| {
            open_loop(tx, rx, plan, 1, trailer, |tx| {
                let _ = tx.shutdown(Shutdown::Write);
            })
        });
        let stats = server.join().expect("server thread")?;
        Ok((measured, stats, setup_s))
    })
}

fn config(seed: u64, scale: Scale, observe: Option<ObserveConfig>) -> ServeConfig {
    ServeConfig {
        n_compute: 2,
        n_data: 2,
        rows: ((ROWS as f64 * scale.0) as u64).max(64),
        value_size: VALUE_BYTES,
        seed,
        retry: true,
        // Off: its ingest queues hold 2 × 128 requests, 64 ms of this load,
        // and the hypervisor takes this VM's CPUs away for longer than that
        // often enough that one run in five shed requests. A shed request is
        // a failed operation that says nothing about the code under test.
        overload: false,
        observe,
        ..ServeConfig::default()
    }
}

/// A percentile the sample supports, or the largest sample.
fn pct(sorted: &[f64], p: f64) -> f64 {
    percentile(sorted, p).unwrap_or_else(|| sorted.last().copied().unwrap_or(0.0))
}

/// Tally one session into the run's failure count; returns its error.
fn check(s: &Session, stats: &ServeStats, n: usize, errors: &mut Vec<String>) {
    if s.broken > 0 {
        errors.push(format!(
            "{} replies missing, duplicated or unknown",
            s.broken
        ));
    }
    // The probe is request 0 of the server's session.
    if stats.served != n as u64 + 1
        || stats.report.completed + stats.report.shed + stats.report.gave_up != stats.served
    {
        errors.push(format!(
            "server served {} and completed {} of {} requests (shed {}, gave up {}, retries {})",
            stats.served,
            stats.report.completed,
            n + 1,
            stats.report.shed,
            stats.report.gave_up,
            stats.report.retries
        ));
    }
}

/// `--trace 0`: three sessions, observability off.
pub fn run_untraced(seed: u64, seconds: f64, scale: Scale, spans: &mut Spans) -> Outcome {
    let measure_s = (seconds / SESSIONS as f64 - WARMUP_S).max(0.2);
    let cfg = config(seed, scale, None);
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut setup, mut ok_per_s) = (Vec::new(), Vec::new());
    let (mut engine_tps, mut p99, mut rss_mb) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..SESSIONS {
        spans.set_id(format!("serve_open/{i}"));
        reset_peak_rss();
        let plan = plan(seed, i, measure_s, cfg.rows);
        match session(&cfg, &plan, "", spans) {
            Err(e) => {
                errors.push(format!("session {i}: {e}"));
                attempted += plan.keys.len() as u64;
                failed += plan.keys.len() as u64;
            }
            Ok((s, stats, setup_s)) => {
                check(&s, &stats, plan.keys.len(), &mut errors);
                attempted += plan.keys.len() as u64;
                failed += s.failed;
                setup.push(setup_s);
                ok_per_s.push(s.answered_ok as f64 / s.window_s);
                engine_tps.push(stats.report.throughput());
                p99.extend(s.slice_p99_ms);
                rss_mb.push(peak_rss_mb());
            }
        }
    }
    // Setting up takes ~10 ms, too little for a median of three: start and
    // stop the server some more times without load.
    spans.set_id("serve_open/setup_only");
    let idle = Plan {
        rate: RATE,
        warmup: 0,
        keys: Vec::new(),
    };
    while !setup.is_empty() && setup.len() < crate::SETUP_SAMPLES {
        match session(&cfg, &idle, "", spans) {
            Ok((_, _, setup_s)) => setup.push(setup_s),
            Err(e) => {
                errors.push(format!("setup-only session: {e}"));
                break;
            }
        }
    }
    let mut m = Metrics::default();
    if !setup.is_empty() {
        m.set("setup_s", median(&setup));
        m.set("host_tuples_per_s", median(&ok_per_s));
        m.set("sim_tuples_per_s", median(&engine_tps));
        m.set("tuple_p99_ms", median(&p99));
        m.set("peak_rss_mb", median(&rss_mb));
    }
    Outcome {
        attempted,
        failed,
        errors,
        metrics: m,
        samples: setup.len(),
    }
}

/// `--trace 1`: one session as above, one with the flight ring armed and
/// a final in-band `STATS`, then the wall-clock runtime's own cells.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    scale: Scale,
    spans: &mut Spans,
    out_dir: &std::path::Path,
) -> Outcome {
    let measure_s = (seconds / 3.0 - WARMUP_S).max(0.2);
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut m = Metrics::default();

    spans.set_id("serve_open/plain");
    let plain_plan = plan(seed, 0, measure_s, config(seed, scale, None).rows);
    let n = plain_plan.keys.len();
    let mut plain_cpu_us = None;
    match session(&config(seed, scale, None), &plain_plan, "", spans) {
        Err(e) => errors.push(format!("plain session: {e}")),
        Ok((s, stats, _)) => {
            check(&s, &stats, n, &mut errors);
            failed += s.failed;
            let cpu = s.cpu.expect("measured window");
            plain_cpu_us = Some(cpu.total_s() * 1e6 / s.offered as f64);
            m.set("serve.client_p50_ms", pct(&s.latency_ms, 50.0));
            m.set("serve.server_p50_ms", pct(&s.server_ms, 50.0));
            m.set("serve.server_p99_ms", pct(&s.server_ms, 99.0));
            m.set(
                "serve.cpu_us_per_req",
                cpu.total_s() * 1e6 / s.offered as f64,
            );
            m.set(
                "serve.sys_cpu_share",
                cpu.system_s / cpu.total_s().max(1e-9),
            );
            m.set("loadgen.offered_rps", s.offered as f64 / s.window_s);
            m.set("loadgen.late_p99_us", pct(&s.late_us, 99.0));
            m.set(
                "loadgen.late_max_ms",
                s.late_us.last().copied().unwrap_or(0.0) / 1e3,
            );
            m.set(
                "runtime.real_events_per_req",
                stats.report.sim_events as f64 / stats.served as f64,
            );
            m.set(
                "engine.sim_p99_ms",
                stats.report.p99_latency.as_secs_f64() * 1e3,
            );
            m.set("engine.retries", stats.report.retries as f64);
            m.set("engine.shed", stats.report.shed as f64);
            m.set("engine.gave_up", stats.report.gave_up as f64);
        }
    }
    attempted += n as u64;

    spans.set_id("serve_open/observed");
    let observed = config(seed, scale, Some(ObserveConfig::default()));
    let observed_plan = plan(seed, 1, measure_s, observed.rows);
    match session(&observed, &observed_plan, "STATS", spans) {
        Err(e) => errors.push(format!("observed session: {e}")),
        Ok((s, stats, _)) => {
            check(&s, &stats, n, &mut errors);
            failed += s.failed;
            let cpu_us = s.cpu.expect("measured window").total_s() * 1e6 / s.offered as f64;
            if let Some(plain) = plain_cpu_us {
                m.set("telemetry.flight_cpu_ratio", cpu_us / plain);
            }
            match s.texts.iter().find(|t| t.starts_with('{')) {
                None => errors.push("no reply to the in-band STATS".into()),
                Some(stats_line) => {
                    let path = out_dir.join("serve_open.stats.json");
                    if let Err(e) = std::fs::write(&path, stats_line) {
                        errors.push(format!("cannot write {}: {e}", path.display()));
                    }
                }
            }
        }
    }
    attempted += n as u64;

    spans.set_id("serve_open/cells");
    spans.time("cell.runtime", |_| cells::runtime_cells(&mut m));

    Outcome {
        attempted,
        failed,
        errors,
        metrics: m,
        samples: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server that answers every line at once.
    fn echo_server() -> (TcpStream, BufReader<TcpStream>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            let mut out = stream.try_clone().expect("clone");
            for (seq, line) in BufReader::new(stream).lines().enumerate() {
                if line.is_err() || writeln!(out, "{seq} ok 0").is_err() {
                    break;
                }
            }
        });
        let tx = TcpStream::connect(addr).expect("connect");
        tx.set_nodelay(true).expect("nodelay");
        let rx = BufReader::new(tx.try_clone().expect("clone"));
        (tx, rx, server)
    }

    /// A transport that blocks the generator once, for `stall`.
    struct StallOnce<W> {
        inner: W,
        writes: usize,
        stall_at: usize,
        stall: Duration,
    }

    impl<W: Write> Write for StallOnce<W> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            if self.writes == self.stall_at {
                std::thread::sleep(self.stall);
            }
            self.inner.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn requests_are_timed_from_when_they_were_due() {
        let (tx, rx, server) = echo_server();
        let stall = Duration::from_millis(120);
        let plan = Plan {
            rate: 1_000.0,
            warmup: 0,
            keys: (0..400).collect(),
        };
        let stalled = StallOnce {
            inner: tx,
            writes: 0,
            stall_at: 100,
            stall,
        };
        let s = open_loop(stalled, rx, &plan, 0, "", |w| {
            let _ = w.inner.shutdown(Shutdown::Write);
        });
        server.join().expect("server");
        assert_eq!((s.failed, s.answered_ok, s.offered), (0, 400, 400));

        // The echo answers in microseconds, so without the stall nothing
        // takes long. The requests that fell due while the generator was
        // blocked went out late, and are charged for it: about a stall's
        // worth of requests wait at least half the stall.
        let half = stall.as_secs_f64() * 1e3 / 2.0;
        let charged = s.latency_ms.iter().filter(|&&ms| ms >= half).count();
        assert!(
            (40..=200).contains(&charged),
            "{charged} requests charged ≥ {half} ms; max {:?}",
            s.latency_ms.last()
        );
        // The generator's own lateness is reported, not hidden.
        assert!(*s.late_us.last().expect("samples") >= half * 1e3);
        // Most requests, due before or well after the stall, were quick.
        assert!(s.latency_ms[s.latency_ms.len() / 2] < half);
    }

    #[test]
    fn missing_and_duplicate_replies_are_failures() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut out = stream.try_clone().expect("clone");
            for (seq, line) in BufReader::new(stream).lines().enumerate() {
                let reply = match seq {
                    3 => continue,                          // never answered
                    5 => format!("{seq} ok 0\n{seq} ok 0"), // answered twice
                    7 => format!("{seq} shed 0"),           // refused
                    _ => format!("{seq} ok 0"),
                };
                if line.is_err() || writeln!(out, "{reply}").is_err() {
                    break;
                }
            }
        });
        let tx = TcpStream::connect(addr).expect("connect");
        let rx = BufReader::new(tx.try_clone().expect("clone"));
        let plan = Plan {
            rate: 2_000.0,
            warmup: 0,
            keys: (0..20).collect(),
        };
        let s = open_loop(tx, rx, &plan, 0, "", |tx| {
            let _ = tx.shutdown(Shutdown::Write);
        });
        server.join().expect("server");
        assert_eq!((s.failed, s.broken), (3, 2));
        assert_eq!(s.answered_ok, 18); // 5 counts once; 3 and 7 do not
    }
}
