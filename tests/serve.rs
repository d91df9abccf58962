//! Backend parity and `jl-serve` framing tests.
//!
//! The runtime seam's contract: the simulator and the wall-clock backend
//! host the *same* engine, so a fixed workload produces identical join
//! outputs and tuple-outcome accounting on both — only durations and
//! latencies may differ (the real backend reads the host's clock). These
//! tests pin that contract on a DH batch cell and a TPC-DS Q3 multi-join
//! cell, and smoke-test the `jl-serve` line protocol over a loopback
//! socket.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use jl_bench::{digest_udfs, serve, ServeConfig};
use jl_core::{OptimizerConfig, ShedMode, Strategy};
use jl_engine::{
    build_store, run_job, run_job_on, Backend, ClusterSpec, FeedMode, JobPlan, JobSpec, JobTuple,
    OverloadConfig, RetryConfig, RunReport, StageSpec,
};
use jl_simkit::rng::splitmix64;
use jl_simkit::time::{SimDuration, SimTime};
use jl_store::{RowKey, StoreCluster, StoredValue};
use jl_telemetry::TelemetryConfig;
use jl_workloads::{SyntheticSpec, TpcDsLite};

const UDF: usize = 0;

/// Generous retry config: the machinery is armed (timers, failover maps)
/// but a host stall would have to exceed 30 s of wall clock to fire a
/// spurious retry on the real backend.
fn lazy_retry() -> RetryConfig {
    RetryConfig {
        timeout: SimDuration::from_secs(30),
        backoff_cap: SimDuration::from_secs(60),
        max_retries: 8,
        down_cooldown: SimDuration::from_secs(60),
    }
}

/// Overload protection with caps far above what the cell can queue: every
/// bounded-queue/backpressure/shed code path runs on both backends, but
/// none triggers — keeping the accounting timing-independent.
fn headroom_overload() -> OverloadConfig {
    OverloadConfig {
        data_queue_cap: 1 << 16,
        high_watermark: 1 << 15,
        low_watermark: 1 << 14,
        compute_queue_cap: 1 << 16,
        deadline: None,
        nack_backoff: SimDuration::from_millis(2),
        shed: ShedMode::DeadlineAware,
    }
}

/// A small data-heavy batch cell: big-ish values, tiny UDF, skew-free
/// key draw. Sized so the wall-clock run finishes in well under a second.
fn dh_cell() -> (SyntheticSpec, ClusterSpec, Vec<JobTuple>) {
    let spec = SyntheticSpec {
        name: "DH-parity",
        n_keys: 1_500,
        value_size: 8 * 1024,
        value_prefix: 64,
        udf_cpu: SimDuration::from_micros(50),
        n_tuples: 900,
        params_size: 128,
        output_size: 256,
    };
    let cluster = ClusterSpec {
        n_compute: 3,
        n_data: 3,
        block_cache_bytes: 0,
        ..ClusterSpec::default()
    };
    let mut state = 0x5EED_0BAD_CAFE_F00Du64;
    let tuples = (0..spec.n_tuples)
        .map(|seq| JobTuple {
            seq,
            keys: vec![RowKey::from_u64(splitmix64(&mut state) % spec.n_keys)],
            params_size: spec.params_size,
            arrival: SimTime::ZERO,
        })
        .collect();
    (spec, cluster, tuples)
}

fn dh_job(spec: &SyntheticSpec, cluster: &ClusterSpec, telemetry: bool) -> JobSpec {
    let mut optimizer = OptimizerConfig::for_strategy(Strategy::Full);
    optimizer.mem_cache_bytes = 8 << 20;
    optimizer.batch_size = 64;
    optimizer.batch_max_wait = SimDuration::from_millis(2);
    JobSpec {
        retry: Some(lazy_retry()),
        telemetry: telemetry.then(TelemetryConfig::default),
        overload: Some(headroom_overload()),
        ..JobSpec::new(
            cluster.clone(),
            optimizer,
            FeedMode::Batch { window: 32 },
            JobPlan::single(0, UDF),
            7,
            spec.udf_cpu.as_secs_f64(),
        )
    }
}

fn dh_store(spec: &SyntheticSpec, cluster: &ClusterSpec) -> StoreCluster {
    build_store(cluster, vec![(spec.name.into(), spec.rows(1).collect())])
}

/// The parity contract: join outputs and per-tuple outcome accounting are
/// identical; timing-derived fields are not compared.
fn assert_parity(sim: &RunReport, real: &RunReport) {
    assert_eq!(sim.fingerprint, real.fingerprint, "join output fingerprint");
    assert_eq!(sim.completed, real.completed, "tuples completed");
    assert_eq!(sim.gave_up, real.gave_up, "gave-up count");
    assert_eq!(sim.shed, real.shed, "shed count");
    assert_eq!(sim.outcomes, real.outcomes, "per-tuple outcome log");
    assert_eq!(sim.gave_up, 0, "healthy cell gives up nothing");
    assert_eq!(sim.shed, 0, "headroom overload sheds nothing");
    assert_eq!(
        sim.dropped_messages, real.dropped_messages,
        "no faults injected"
    );
}

#[test]
fn dh_batch_cell_matches_sim_and_real() {
    let (spec, cluster, tuples) = dh_cell();
    let job = dh_job(&spec, &cluster, false);
    let sim = run_job(
        &job,
        dh_store(&spec, &cluster),
        digest_udfs(spec.output_size as usize),
        tuples.clone(),
        vec![],
    );
    let (real, _) = run_job_on(
        &job,
        Backend::Real,
        dh_store(&spec, &cluster),
        digest_udfs(spec.output_size as usize),
        tuples,
        vec![],
    );
    assert_eq!(sim.completed, spec.n_tuples, "every tuple completes");
    assert_ne!(sim.fingerprint, 0, "outputs actually produced");
    assert_parity(&sim, &real);
}

/// TPC-DS Q3 (date_dim ⋈ item over store_sales), the multi-join pipeline,
/// on both backends.
#[test]
fn q3_multijoin_cell_matches_sim_and_real() {
    let mut ds = TpcDsLite::scaled_default(11);
    ds.fact_rows = 1_500;
    let q = TpcDsLite::queries()
        .into_iter()
        .find(|q| q.name == "Q3")
        .expect("Q3 defined");
    let cluster = ClusterSpec {
        n_compute: 3,
        n_data: 3,
        block_cache_bytes: 0,
        ..ClusterSpec::default()
    };
    let plan = Arc::new(JobPlan {
        stages: q
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| StageSpec {
                table: i,
                udf: UDF,
                selectivity: s.selectivity,
            })
            .collect(),
    });
    let tuples: Vec<JobTuple> = ds
        .sales()
        .iter()
        .map(|s| JobTuple {
            seq: s.seq,
            keys: q
                .stages
                .iter()
                .map(|st| RowKey::from_u64(s.fk(st.dim)))
                .collect(),
            params_size: 64,
            arrival: SimTime::ZERO,
        })
        .collect();
    let tables: Vec<(String, Vec<(RowKey, StoredValue)>)> = q
        .stages
        .iter()
        .map(|s| (s.dim.name().to_string(), ds.dimension_rows(s.dim).collect()))
        .collect();
    let mut optimizer = OptimizerConfig::for_strategy(Strategy::Full);
    optimizer.mem_cache_bytes = 16 << 20;
    optimizer.batch_size = 64;
    optimizer.batch_max_wait = SimDuration::from_millis(2);
    let job = JobSpec {
        retry: Some(lazy_retry()),
        overload: Some(headroom_overload()),
        ..JobSpec::new(
            cluster.clone(),
            optimizer,
            FeedMode::Batch { window: 32 },
            plan,
            11,
            3e-6,
        )
    };
    let udfs = digest_udfs(48);
    let sim = run_job(
        &job,
        build_store(&cluster, tables.clone()),
        udfs.clone(),
        tuples.clone(),
        vec![],
    );
    let store = build_store(&cluster, tables);
    let (real, _) = run_job_on(&job, Backend::Real, store, udfs, tuples, vec![]);
    assert_eq!(sim.completed, ds.fact_rows, "every fact tuple completes");
    assert_ne!(sim.fingerprint, 0, "outputs actually produced");
    assert_parity(&sim, &real);
}

/// A wall-clock run records a structurally valid Chrome trace (the
/// `trace_check` validator accepts traces from either backend).
#[test]
fn real_backend_trace_validates() {
    let (mut spec, cluster, _) = dh_cell();
    spec.n_tuples = 200;
    let mut state = 0xD1CEu64;
    let tuples: Vec<JobTuple> = (0..spec.n_tuples)
        .map(|seq| JobTuple {
            seq,
            keys: vec![RowKey::from_u64(splitmix64(&mut state) % spec.n_keys)],
            params_size: spec.params_size,
            arrival: SimTime::ZERO,
        })
        .collect();
    let job = dh_job(&spec, &cluster, true);
    let (report, tel) = run_job_on(
        &job,
        Backend::Real,
        dh_store(&spec, &cluster),
        digest_udfs(spec.output_size as usize),
        tuples,
        vec![],
    );
    assert_eq!(report.completed, spec.n_tuples);
    let tel = tel.expect("telemetry requested");
    let check = jl_telemetry::json::validate_chrome_trace(&tel.to_chrome_json())
        .expect("real-backend trace validates");
    assert!(check.spans > 0, "trace carries spans");
}

/// `jl-serve` framing over a real loopback socket: every request line is
/// answered exactly once, in `seq status latency_us` form, and the
/// session ends cleanly at EOF.
#[test]
fn serve_loopback_answers_every_request() {
    let cfg = ServeConfig {
        n_compute: 2,
        n_data: 2,
        rows: 128,
        value_size: 1_024,
        ..ServeConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let (sock, _) = listener.accept().expect("accept");
        let reader = BufReader::new(sock.try_clone().expect("clone socket"));
        serve(reader, sock, &cfg).expect("serve session")
    });

    let n = 25u64;
    let mut sock = TcpStream::connect(addr).expect("connect");
    for k in 0..n {
        writeln!(sock, "{} {}", k * 37, 64 + k).expect("write request");
    }
    sock.shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    let mut seqs = Vec::new();
    for line in BufReader::new(&sock).lines() {
        let line = line.expect("read response");
        let mut it = line.split_whitespace();
        seqs.push(it.next().expect("seq").parse::<u64>().expect("seq u64"));
        assert_eq!(it.next(), Some("ok"), "healthy lookup completes: {line}");
        let _latency: u64 = it.next().expect("latency").parse().expect("latency u64");
        assert_eq!(it.next(), None, "exactly three fields: {line}");
    }
    seqs.sort_unstable();
    assert_eq!(
        seqs,
        (0..n).collect::<Vec<u64>>(),
        "each request answered once"
    );

    let stats = server.join().expect("server thread");
    assert_eq!(stats.served, n);
    assert_eq!(stats.report.completed, n);
    assert_eq!(stats.report.shed, 0);
}

/// A request line asking for a payload over `MAX_PARAMS_BYTES` is
/// refused where it enters — counted malformed like any other bad line,
/// never materialised — so the valid requests around it are answered and
/// the session stays fast (unbounded, this one line held ~2 GB and the
/// loop thread for over a minute).
#[test]
fn serve_refuses_an_oversized_params_line() {
    let cfg = ServeConfig {
        rows: 128,
        value_size: 1_024,
        ..ServeConfig::default()
    };
    let input = "1 128\n2 1000000000\n3 128\n";
    let mut out = Vec::new();
    let t0 = std::time::Instant::now();
    let stats = serve(input.as_bytes(), &mut out, &cfg).expect("serve session");
    let elapsed = t0.elapsed();
    assert_eq!((stats.served, stats.malformed), (2, 1));
    assert_eq!(stats.report.completed, 2);
    let text = String::from_utf8(out).expect("utf8");
    assert_eq!(text.lines().count(), 2, "{text}");
    assert!(text.lines().all(|l| l.contains(" ok ")), "{text}");
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "took {elapsed:?}"
    );
}

/// A line that is not UTF-8, or longer than `MAX_LINE_BYTES`, is one
/// malformed request — not the end of the session, and never buffered
/// whole: the requests after each are still answered, fast.
#[test]
fn serve_survives_bad_bytes_and_an_endless_line() {
    let cfg = ServeConfig {
        rows: 128,
        value_size: 1_024,
        ..ServeConfig::default()
    };
    let long = vec![b'7'; 2 << 20];
    let input = [&b"1\n\xff\n2\n"[..], &long, b"\n3\n"].concat();
    let mut out = Vec::new();
    let t0 = std::time::Instant::now();
    let stats = serve(&input[..], &mut out, &cfg).expect("serve session");
    let elapsed = t0.elapsed();
    assert_eq!((stats.served, stats.malformed), (3, 2));
    let text = String::from_utf8(out).expect("utf8");
    assert_eq!(
        text.lines().filter(|l| l.contains(" ok ")).count(),
        3,
        "{text}"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "took {elapsed:?}"
    );
}

/// In-band `DRAIN <node>` decommissions a data node live: the command is
/// acknowledged on the response stream, every request before/after it is
/// still answered exactly once (the drain migrates regions under load
/// without losing or duplicating a tuple), and the session report counts
/// the drained node and its migrations.
#[test]
fn serve_drain_command_decommissions_live() {
    let cfg = ServeConfig {
        n_compute: 2,
        n_data: 3,
        rows: 96,
        value_size: 1_024,
        // Shedding off: this test is about exactly-once delivery across a
        // live drain, so the burst of requests must not trip queue caps.
        overload: false,
        ..ServeConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let (sock, _) = listener.accept().expect("accept");
        let reader = BufReader::new(sock.try_clone().expect("clone socket"));
        serve(reader, sock, &cfg).expect("serve session")
    });

    let before = 30u64;
    let after = 300u64;
    let mut sock = TcpStream::connect(addr).expect("connect");
    for k in 0..before {
        writeln!(sock, "{}", k * 37).expect("write request");
    }
    writeln!(sock, "DRAIN 1").expect("write drain");
    writeln!(sock, "DRAIN 9").expect("write bad drain");
    for k in before..before + after {
        writeln!(sock, "{}", k * 37).expect("write request");
    }
    sock.shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    let mut seqs = Vec::new();
    let (mut acked, mut rejected) = (false, false);
    for line in BufReader::new(&sock).lines() {
        let line = line.expect("read response");
        if line == "drain 1 requested" {
            acked = true;
            continue;
        }
        if line.starts_with("error node 9 out of range") {
            rejected = true;
            continue;
        }
        let mut it = line.split_whitespace();
        seqs.push(it.next().expect("seq").parse::<u64>().expect("seq u64"));
        assert_eq!(
            it.next(),
            Some("ok"),
            "lookup completes across drain: {line}"
        );
        let _latency: u64 = it.next().expect("latency").parse().expect("latency u64");
        assert_eq!(it.next(), None, "exactly three fields: {line}");
    }
    assert!(acked, "DRAIN 1 acknowledged");
    assert!(rejected, "DRAIN 9 rejected as out of range");
    seqs.sort_unstable();
    assert_eq!(
        seqs,
        (0..before + after).collect::<Vec<u64>>(),
        "each request answered once across the drain"
    );

    let stats = server.join().expect("server thread");
    assert_eq!(stats.served, before + after);
    assert_eq!(stats.report.completed, before + after);
    assert_eq!(stats.report.shed, 0);
    assert_eq!(stats.report.gave_up, 0);
    assert_eq!(stats.report.drained_nodes, 1, "node 1 finished draining");
    assert!(
        stats.report.migrations >= 1,
        "the drain moved at least one region"
    );
}
