//! `jl-serve` — stand up the engine's cluster on the wall-clock backend
//! and answer a stream of lookup-join requests.
//!
//! ```text
//! jl-serve [--port P] [--once] [--compute N] [--data N] [--rows N]
//!          [--value-bytes N] [--seed S] [--deadline-ms D]
//!          [--no-retry] [--no-overload]
//!          [--stats-port P] [--flight EVENTS] [--slo-ms D]
//!          [--dump-path FILE] [--sample-ms MS]
//! ```
//!
//! Without `--port`, requests are read from stdin and responses written
//! to stdout. With `--port P`, the process listens on `127.0.0.1:P` and
//! serves each accepted connection in turn (forever, or a single
//! connection with `--once`). The line protocol is documented on
//! [`mod@jl_bench::serve`]; per-session statistics go to stderr.
//!
//! Any of the observability flags arm the live plane: a flight recorder
//! tees the engine's trace events into a bounded ring, a sampler on the
//! event loop refreshes a metrics snapshot, and the `METRICS`/`STATS`/
//! `DUMP` commands answer in-band on the request stream. `--stats-port`
//! additionally opens a second listener that answers the same commands
//! out-of-band, so a scraper never competes with request traffic.

use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;

use jl_bench::serve::{read_line, Line};
use jl_bench::{serve_observed, ObserveConfig, ServeConfig, ServeShared, ServeStats};

fn help_text() -> &'static str {
    "usage: jl-serve [--port P] [--once] [--compute N] [--data N] [--rows N]\n\
     \x20               [--value-bytes N] [--seed S] [--deadline-ms D]\n\
     \x20               [--no-retry] [--no-overload]\n\
     \x20               [--stats-port P] [--flight EVENTS] [--slo-ms D]\n\
     \x20               [--dump-path FILE] [--sample-ms MS]\n\
     observability: any of the last five flags arm the live plane; with\n\
     --stats-port, scrape mid-run out-of-band, e.g.:\n\
     \x20 printf 'METRICS\\n' | nc 127.0.0.1 9901   # Prometheus exposition (ends with '# EOF')\n\
     \x20 printf 'STATS\\n'   | nc 127.0.0.1 9901   # one-line JSON (jl-serve-stats/v1)\n\
     \x20 printf 'DUMP\\n'    | nc 127.0.0.1 9901   # flight ring -> --dump-path (Chrome trace)"
}

/// Everything the command line selects: the served cluster, the request
/// and stats ports, and `--once`.
type Parsed = (ServeConfig, Option<u16>, Option<u16>, bool);

/// Parse `args` (without the program name). Values come from outside the
/// program, so every inconsistency is an `Err` for `main` to report —
/// none may reach the engine's config assertions.
fn parse_config(args: &[String]) -> Result<Parsed, String> {
    let mut cfg = ServeConfig::default();
    let mut port: Option<u16> = None;
    let mut stats_port: Option<u16> = None;
    let mut once = false;
    let mut it = args.iter();
    fn num<T: std::str::FromStr>(
        flag: &str,
        it: &mut std::slice::Iter<String>,
    ) -> Result<T, String> {
        let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag} {raw:?}: not a valid number"))
    }
    fn obs(cfg: &mut ServeConfig) -> &mut ObserveConfig {
        cfg.observe.get_or_insert_with(ObserveConfig::default)
    }
    while let Some(flag) = it.next() {
        let it = &mut it;
        match flag.as_str() {
            "--help" | "-h" => {
                println!("{}", help_text());
                std::process::exit(0);
            }
            "--port" => port = Some(num(flag, it)?),
            "--once" => once = true,
            "--compute" => cfg.n_compute = num::<usize>(flag, it)?.max(1),
            "--data" => cfg.n_data = num::<usize>(flag, it)?.max(1),
            "--rows" => cfg.rows = num::<u64>(flag, it)?.max(1),
            "--value-bytes" => cfg.value_size = num(flag, it)?,
            "--seed" => cfg.seed = num(flag, it)?,
            "--deadline-ms" => {
                let ms: u64 = num(flag, it)?;
                if ms == 0 {
                    return Err("--deadline-ms 0: the deadline budget must be positive".into());
                }
                cfg.deadline_ms = Some(ms);
            }
            "--no-retry" => cfg.retry = false,
            "--no-overload" => cfg.overload = false,
            "--stats-port" => {
                stats_port = Some(num(flag, it)?);
                obs(&mut cfg);
            }
            "--flight" => obs(&mut cfg).flight = num::<usize>(flag, it)?.max(1),
            "--slo-ms" => obs(&mut cfg).slo_p99_ms = Some(num(flag, it)?),
            "--sample-ms" => obs(&mut cfg).sample_ms = num::<u64>(flag, it)?.max(1),
            "--dump-path" => {
                let p = it.next().ok_or("--dump-path needs a value")?;
                obs(&mut cfg).dump_path = Some(PathBuf::from(p));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cfg.deadline_ms.is_some() && !cfg.overload {
        return Err("--deadline-ms requires overload protection; drop --no-overload".into());
    }
    Ok((cfg, port, stats_port, once))
}

fn summarize(stats: &ServeStats) {
    let r = &stats.report;
    eprintln!(
        "jl-serve: served={} malformed={} completed={} shed={} gave_up={} retries={} \
         failovers={} net_bytes={} p99_latency_ms={:.3} wall_s={:.3}",
        stats.served,
        stats.malformed,
        r.completed,
        r.shed,
        r.gave_up,
        r.retries,
        r.failovers,
        r.net_bytes,
        r.p99_latency.as_secs_f64() * 1e3,
        r.duration.as_secs_f64(),
    );
}

/// Answer `METRICS`/`STATS`/`DUMP` lines on each accepted connection,
/// against whatever serve session is currently attached to `shared`.
fn stats_listener(listener: TcpListener, shared: Arc<ServeShared>) {
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        let mut reader = BufReader::new(read_half);
        let mut buf = Vec::new();
        loop {
            let reply = match read_line(&mut reader, &mut buf) {
                Ok(Line::Eof) | Err(_) => break,
                Ok(Line::Malformed) => "error malformed line".to_string(),
                Ok(Line::Text(line)) => match line.trim() {
                    "" => continue,
                    "METRICS" => shared.metrics(),
                    "STATS" => shared.stats(),
                    "DUMP" => shared.dump(),
                    other => format!("error unknown command {other}"),
                },
            };
            if writeln!(stream, "{}", reply.trim_end()).is_err() {
                break;
            }
            let _ = stream.flush();
        }
    }
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, port, stats_port, once) = parse_config(&args).unwrap_or_else(|e| {
        eprintln!("jl-serve: {e}\n{}", help_text());
        std::process::exit(2);
    });
    let shared = Arc::new(ServeShared::new());
    if let Some(sp) = stats_port {
        let listener = TcpListener::bind(("127.0.0.1", sp))?;
        eprintln!("jl-serve: stats listener on {}", listener.local_addr()?);
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || stats_listener(listener, shared));
    }
    match port {
        None => {
            let stdin = BufReader::new(std::io::stdin());
            let stats = serve_observed(stdin, std::io::stdout(), &cfg, Some(&shared))?;
            summarize(&stats);
        }
        Some(port) => {
            let listener = TcpListener::bind(("127.0.0.1", port))?;
            eprintln!(
                "jl-serve: listening on {} ({} compute, {} data, {} rows)",
                listener.local_addr()?,
                cfg.n_compute,
                cfg.n_data,
                cfg.rows
            );
            for stream in listener.incoming() {
                let stream = stream?;
                stream.set_nodelay(true)?;
                let reader = BufReader::new(stream.try_clone()?);
                match serve_observed(reader, stream, &cfg, Some(&shared)) {
                    Ok(stats) => summarize(&stats),
                    // A dropped connection only ends that session.
                    Err(e) => eprintln!("jl-serve: session error: {e}"),
                }
                if once {
                    break;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Parsed, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_config(&args)
    }

    #[test]
    fn deadline_flags_the_engine_would_assert_on_are_parse_errors() {
        let (cfg, ..) = parse(&["--deadline-ms", "50", "--port", "0"]).unwrap();
        assert_eq!(cfg.deadline_ms, Some(50));
        assert!(parse(&["--deadline-ms", "0"])
            .unwrap_err()
            .contains("positive"));
        // Either order: the budget would be silently dropped without the
        // overload plane that enforces it.
        for args in [
            ["--no-overload", "--deadline-ms", "50"],
            ["--deadline-ms", "50", "--no-overload"],
        ] {
            assert!(parse(&args).unwrap_err().contains("--no-overload"));
        }
        assert!(parse(&["--deadline-ms"]).is_err());
        assert!(parse(&["--port", "70000"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
