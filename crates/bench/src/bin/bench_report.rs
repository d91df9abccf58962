//! Tracked kernel benchmark: times a pinned workload set and emits
//! `BENCH_kernel.json` at the repo root.
//!
//! The pinned set is the three §9.3 synthetic workloads (DH / CH / DCH) at
//! z = 1.0 under the full optimizer, plus the Figure 6 Twitter-stream
//! annotation workload — all on the simulator — plus the DH cell once more
//! on the wall-clock backend (schema v2: each entry carries a `backend`
//! tag, and the real-backend fingerprint is asserted equal to the
//! simulated one). For each it records real wall-clock seconds, simulated
//! events processed, and simulated-events/sec; the file also carries peak
//! RSS and the thread count so CI runs are comparable over time.
//!
//! Schema v3 adds a `"par"` backend cell — the DH workload on the
//! node-sharded parallel kernel (`Sim::run_parallel`, 8 worker shards),
//! fingerprint asserted equal to the serial run — and the `--check` gate.
//! Schema v4 adds the `"par8-traced"` cell: the traced DH workload on the
//! parallel kernel, its Chrome trace asserted byte-identical to the
//! serial traced run's.
//! Schema v5 adds the flight-recorder cell to the `telemetry` block: the
//! DH workload with the bounded ring armed and the span buffer off (the
//! always-on serving shape), its marginal cost gated by the same
//! [`OVERHEAD_CEILING`] as full tracing.
//!
//! Usage: `bench_report [--quick] [--threads N] [--seed N] [--out PATH]
//!         [--check] [--baseline PATH]`
//!
//! `--quick` shrinks every workload (CI smoke run); results are labelled
//! with the scale so quick and full runs are never compared directly.
//!
//! `--check` compares the fresh run against a committed baseline file
//! (`--baseline`, default `BENCH_kernel.json`) and exits non-zero if
//! `total_events_per_sec` regressed more than 25% below it, or — full
//! mode only — if the telemetry overhead ratio exceeds
//! [`OVERHEAD_CEILING`]. Baselines of a different mode (quick vs full)
//! are skipped with a note, never compared.

use std::time::Instant;

use jl_bench::experiments::fig6_stream_report;
use jl_bench::{bench_cell, bench_threads, SyntheticCell};
use jl_core::Strategy;
use jl_engine::{Backend, RunReport};
use jl_telemetry::{RunTelemetry, TelemetryConfig};

/// Telemetry-overhead gate for `--check` in full mode: the traced DH cell
/// must cost no more than this multiple of the untraced one. The shaved
/// recorder measures ~1.05-1.10x on CI-class hosts; 1.15 leaves noise
/// headroom while still catching a regression to pthread-mutex-era cost.
const OVERHEAD_CEILING: f64 = 1.15;

/// The pinned DH cell with the recorder armed, on `backend`.
fn dh_traced(
    scale: f64,
    seed: u64,
    telemetry: TelemetryConfig,
    backend: Backend,
) -> (RunReport, RunTelemetry) {
    let cell = SyntheticCell {
        telemetry: Some(telemetry),
        ..bench_cell("DH", scale, seed)
    };
    let (report, tel) = cell.run(backend);
    (report, tel.expect("telemetry was requested"))
}

/// One timed workload.
struct Timing {
    name: &'static str,
    /// Which runtime backend hosted the cell: `"sim"` (virtual time — wall
    /// seconds measure kernel+engine processing speed) or `"real"` (the
    /// wall-clock backend — wall seconds include event pacing).
    backend: &'static str,
    wall_secs: f64,
    report: RunReport,
}

impl Timing {
    fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.report.sim_events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Peak resident set size in bytes (Linux `VmHWM`); `None` elsewhere or if
/// `/proc` is unreadable.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serialize a float the way JSON requires: finite, with enough digits to
/// round-trip. Non-finite values (impossible here, but cheap to guard)
/// become 0.
fn jf(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "0.0".into()
    }
}

/// Pull a top-level `"field": <number>` out of a baseline JSON file the
/// same shape this binary writes. Purpose-built line scanning — the repo
/// deliberately has no JSON-parsing dependency.
fn baseline_number(json: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    for line in json.lines() {
        if let Some(pos) = line.find(&needle) {
            let rest = line[pos + needle.len()..].trim().trim_end_matches(',');
            if let Ok(v) = rest.parse::<f64>() {
                return Some(v);
            }
        }
    }
    None
}

/// Pull a top-level `"field": "<string>"` out of a baseline JSON file.
fn baseline_string(json: &str, field: &str) -> Option<String> {
    let needle = format!("\"{field}\":");
    for line in json.lines() {
        if let Some(pos) = line.find(&needle) {
            let rest = line[pos + needle.len()..].trim().trim_end_matches(',');
            return Some(rest.trim_matches('"').to_string());
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut quick = false;
    let mut seed = 42u64;
    let mut out_path = "BENCH_kernel.json".to_string();
    let mut check = false;
    let mut baseline_path = "BENCH_kernel.json".to_string();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--check" => {
                check = true;
                i += 1;
            }
            "--baseline" if i + 1 < args.len() => {
                baseline_path = args[i + 1].clone();
                i += 2;
            }
            "--seed" if i + 1 < args.len() => {
                seed = args[i + 1].parse().unwrap_or(42);
                i += 2;
            }
            "--out" if i + 1 < args.len() => {
                out_path = args[i + 1].clone();
                i += 2;
            }
            "--threads" if i + 1 < args.len() => {
                if let Ok(n) = args[i + 1].parse::<usize>() {
                    if n >= 1 {
                        std::env::set_var("JL_BENCH_THREADS", n.to_string());
                    }
                }
                i += 2;
            }
            other => {
                eprintln!("bench_report: ignoring unknown argument {other:?}");
                i += 1;
            }
        }
    }

    // The pinned workloads run sequentially (each is one simulation; the
    // parallel grid is for figure fan-out), so wall-clock per workload is
    // a clean single-core kernel measurement.
    let (synth_scale, tweet_scale): (f64, f64) = if quick { (0.05, 0.02) } else { (0.5, 0.2) };

    // Warm-up (untimed): fault the binary in, size the allocator, and let
    // the CPU governor settle before anything is measured.
    let _ = bench_cell("DH", (synth_scale * 0.1).max(0.01), seed).run(Backend::Sim);

    let mut timings: Vec<Timing> = Vec::new();
    for name in ["DH", "CH", "DCH"] {
        let t0 = Instant::now();
        let report = bench_cell(name, synth_scale, seed).run(Backend::Sim).0;
        let wall = t0.elapsed().as_secs_f64();
        eprintln!(
            "bench_report: {name:4} wall={wall:.3}s sim_events={} ({:.0} ev/s)",
            report.sim_events,
            report.sim_events as f64 / wall.max(1e-9)
        );
        timings.push(Timing {
            name,
            backend: "sim",
            wall_secs: wall,
            report,
        });
    }
    {
        let t0 = Instant::now();
        let (report, _spots) = fig6_stream_report(tweet_scale, seed, Strategy::Full);
        let wall = t0.elapsed().as_secs_f64();
        eprintln!(
            "bench_report: fig6 wall={wall:.3}s sim_events={} ({:.0} ev/s)",
            report.sim_events,
            report.sim_events as f64 / wall.max(1e-9)
        );
        timings.push(Timing {
            name: "fig6_stream",
            backend: "sim",
            wall_secs: wall,
            report,
        });
    }
    {
        // The DH cell again, hosted on the wall-clock backend: wall time
        // includes real event pacing, and the join result must be the
        // simulated one exactly (the runtime seam's parity contract).
        let t0 = Instant::now();
        let report = bench_cell("DH", synth_scale, seed).run(Backend::Real).0;
        let wall = t0.elapsed().as_secs_f64();
        eprintln!(
            "bench_report: DH@real wall={wall:.3}s sim_events={} ({:.0} ev/s)",
            report.sim_events,
            report.sim_events as f64 / wall.max(1e-9)
        );
        assert_eq!(
            report.fingerprint, timings[0].report.fingerprint,
            "wall-clock backend changed the DH join result"
        );
        timings.push(Timing {
            name: "DH",
            backend: "real",
            wall_secs: wall,
            report,
        });
    }
    {
        // The DH cell on the parallel kernel: 8 worker shards of
        // node-sharded conservative PDES. The report must be bit-identical
        // to the serial cell — same fingerprint, same event count — so the
        // only thing this row adds is the wall-clock column.
        let t0 = Instant::now();
        let report = bench_cell("DH", synth_scale, seed).run(Backend::Par(8)).0;
        let wall = t0.elapsed().as_secs_f64();
        eprintln!(
            "bench_report: DH@par8 wall={wall:.3}s sim_events={} ({:.0} ev/s)",
            report.sim_events,
            report.sim_events as f64 / wall.max(1e-9)
        );
        assert_eq!(
            report.fingerprint, timings[0].report.fingerprint,
            "parallel kernel changed the DH join result"
        );
        assert_eq!(
            report.sim_events, timings[0].report.sim_events,
            "parallel kernel changed the DH event count"
        );
        timings.push(Timing {
            name: "DH",
            backend: "par8",
            wall_secs: wall,
            report,
        });
    }

    // Telemetry overhead: the DH workload with the recorder off vs on,
    // measured back-to-back (adjacent, best-of-five after an untimed warm-up) so the ratio tracks
    // the marginal cost of span recording + the metrics snapshot rather
    // than allocator or frequency drift across the report. The traced run
    // must not perturb the simulation, so its fingerprint is checked
    // against the untraced one.
    let mut telemetry_off_wall = f64::INFINITY;
    let mut telemetry_on_wall = f64::INFINITY;
    // Untimed warm-up pair: fault in the binary's pages and warm the
    // allocator so the first timed rep isn't charged for either.
    bench_cell("DH", synth_scale, seed).run(Backend::Sim);
    let mut last_tel = dh_traced(synth_scale, seed, TelemetryConfig::default(), Backend::Sim).1;
    for _ in 0..5 {
        let t0 = Instant::now();
        let off_report = bench_cell("DH", synth_scale, seed).run(Backend::Sim).0;
        let off = t0.elapsed().as_secs_f64();
        telemetry_off_wall = telemetry_off_wall.min(off);
        // Drop the previous traced run's buffers *before* timing the next
        // one, so every rep reuses the warmed allocation instead of
        // faulting megabytes of fresh pages (which is both slow and the
        // run-to-run noise floor).
        drop(last_tel);
        let t0 = Instant::now();
        let (traced_report, tel) =
            dh_traced(synth_scale, seed, TelemetryConfig::default(), Backend::Sim);
        let on = t0.elapsed().as_secs_f64();
        telemetry_on_wall = telemetry_on_wall.min(on);
        assert_eq!(
            traced_report.fingerprint, off_report.fingerprint,
            "telemetry recording perturbed the DH simulation"
        );
        last_tel = tel;
    }
    // Exported once, after the loop: rendering the ~20 MB trace JSON per
    // rep would churn the allocator mid-measurement.
    let tel_events = last_tel.events.len();
    let serial_trace = last_tel.to_chrome_json();
    let overhead = if telemetry_off_wall > 0.0 {
        telemetry_on_wall / telemetry_off_wall
    } else {
        0.0
    };
    eprintln!(
        "bench_report: DH telemetry off={telemetry_off_wall:.3}s on={telemetry_on_wall:.3}s \
         (x{overhead:.2}, {tel_events} trace events)"
    );

    // Flight-recorder overhead: the same DH workload with the bounded ring
    // armed and the span buffer OFF — the always-on serving shape. Timed
    // the same way (best-of-five against the already-measured untraced
    // floor); the ring must not perturb the simulation, and its marginal
    // cost is gated by the same ceiling as full tracing.
    let ring = TelemetryConfig::flight_only(jl_telemetry::DEFAULT_FLIGHT_CAPACITY);
    let mut ring_wall = f64::INFINITY;
    let mut last_ring = dh_traced(synth_scale, seed, ring, Backend::Sim).1;
    for _ in 0..5 {
        drop(last_ring);
        let t0 = Instant::now();
        let (ring_report, tel) = dh_traced(synth_scale, seed, ring, Backend::Sim);
        let on = t0.elapsed().as_secs_f64();
        ring_wall = ring_wall.min(on);
        assert_eq!(
            ring_report.fingerprint, timings[0].report.fingerprint,
            "flight recorder perturbed the DH simulation"
        );
        last_ring = tel;
    }
    assert_eq!(
        last_ring.events.len(),
        0,
        "ring-only config must not buffer spans"
    );
    let ring_retained = last_ring.flight.as_ref().map(|l| l.len()).unwrap_or(0);
    assert!(ring_retained > 0, "flight ring retained no events");
    let ring_overhead = if telemetry_off_wall > 0.0 {
        ring_wall / telemetry_off_wall
    } else {
        0.0
    };
    eprintln!(
        "bench_report: DH flight ring={ring_wall:.3}s (x{ring_overhead:.2}, \
         {ring_retained} events retained)"
    );

    // The traced DH cell once more on the parallel kernel: trace events
    // journal through the commit walk, so the Chrome trace JSON must be
    // byte-identical to the serial traced run — asserted here on every
    // report, not just in the determinism suite.
    {
        let t0 = Instant::now();
        let (report, tel) = dh_traced(
            synth_scale,
            seed,
            TelemetryConfig::default(),
            Backend::Par(8),
        );
        let wall = t0.elapsed().as_secs_f64();
        eprintln!(
            "bench_report: DH@par8+trace wall={wall:.3}s sim_events={} ({} trace events)",
            report.sim_events,
            tel.events.len()
        );
        assert_eq!(
            report.fingerprint, timings[0].report.fingerprint,
            "traced parallel kernel changed the DH join result"
        );
        assert_eq!(
            tel.to_chrome_json(),
            serial_trace,
            "parallel kernel's trace diverged from the serial trace"
        );
        timings.push(Timing {
            name: "DH",
            backend: "par8-traced",
            wall_secs: wall,
            report,
        });
    }

    let total_wall: f64 = timings.iter().map(|t| t.wall_secs).sum();
    let total_events: u64 = timings.iter().map(|t| t.report.sim_events).sum();
    let total_eps = if total_wall > 0.0 {
        total_events as f64 / total_wall
    } else {
        0.0
    };

    // Snapshot the committed baseline before (possibly) overwriting it.
    let baseline = if check {
        std::fs::read_to_string(&baseline_path).ok()
    } else {
        None
    };

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"jl-bench-kernel/v5\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"threads\": {},\n", bench_threads()));
    out.push_str(&format!(
        "  \"synthetic_tuple_scale\": {},\n",
        jf(synth_scale)
    ));
    out.push_str(&format!("  \"tweet_scale\": {},\n", jf(tweet_scale)));
    out.push_str(&format!("  \"total_wall_secs\": {},\n", jf(total_wall)));
    out.push_str(&format!("  \"total_sim_events\": {total_events},\n"));
    out.push_str(&format!("  \"total_events_per_sec\": {},\n", jf(total_eps)));
    match peak_rss_bytes() {
        Some(b) => out.push_str(&format!("  \"peak_rss_bytes\": {b},\n")),
        None => out.push_str("  \"peak_rss_bytes\": null,\n"),
    }
    out.push_str("  \"telemetry\": {\n");
    out.push_str("    \"workload\": \"DH\",\n");
    out.push_str(&format!(
        "    \"off_wall_secs\": {},\n",
        jf(telemetry_off_wall)
    ));
    out.push_str(&format!(
        "    \"on_wall_secs\": {},\n",
        jf(telemetry_on_wall)
    ));
    out.push_str(&format!("    \"overhead_ratio\": {},\n", jf(overhead)));
    out.push_str(&format!("    \"trace_events\": {tel_events},\n"));
    out.push_str("    \"flight\": {\n");
    out.push_str(&format!("      \"ring_wall_secs\": {},\n", jf(ring_wall)));
    out.push_str(&format!(
        "      \"ring_overhead_ratio\": {},\n",
        jf(ring_overhead)
    ));
    out.push_str(&format!("      \"ring_retained\": {ring_retained}\n"));
    out.push_str("    }\n");
    out.push_str("  },\n");
    out.push_str("  \"workloads\": [\n");
    for (idx, t) in timings.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", json_escape(t.name)));
        out.push_str(&format!("      \"backend\": \"{}\",\n", t.backend));
        out.push_str(&format!("      \"wall_secs\": {},\n", jf(t.wall_secs)));
        out.push_str(&format!("      \"sim_events\": {},\n", t.report.sim_events));
        out.push_str(&format!(
            "      \"events_per_sec\": {},\n",
            jf(t.events_per_sec())
        ));
        out.push_str(&format!("      \"completed\": {},\n", t.report.completed));
        out.push_str(&format!(
            "      \"net_messages\": {},\n",
            t.report.net_messages
        ));
        out.push_str(&format!("      \"net_bytes\": {},\n", t.report.net_bytes));
        out.push_str(&format!(
            "      \"sim_duration_secs\": {},\n",
            jf(t.report.duration.as_secs_f64())
        ));
        out.push_str(&format!(
            "      \"fingerprint\": \"{:016x}\"\n",
            t.report.fingerprint
        ));
        out.push_str(if idx + 1 == timings.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");

    std::fs::write(&out_path, &out)
        .unwrap_or_else(|e| panic!("bench_report: cannot write {out_path}: {e}"));
    eprintln!(
        "bench_report: wrote {out_path} ({} workloads, {total_events} events, {:.2}s total)",
        timings.len(),
        total_wall
    );

    if check {
        let Some(base) = baseline else {
            eprintln!("bench_report: --check: no baseline at {baseline_path}; skipping gate");
            return;
        };
        let base_mode = baseline_string(&base, "mode").unwrap_or_default();
        let this_mode = if quick { "quick" } else { "full" };
        if base_mode != this_mode {
            eprintln!(
                "bench_report: --check: baseline mode {base_mode:?} != run mode \
                 {this_mode:?}; skipping gate (quick and full are never compared)"
            );
            return;
        }
        let Some(base_eps) = baseline_number(&base, "total_events_per_sec") else {
            eprintln!(
                "bench_report: --check: {baseline_path} has no total_events_per_sec; \
                 skipping gate"
            );
            return;
        };
        let floor = base_eps * 0.75;
        if total_eps < floor {
            eprintln!(
                "bench_report: --check FAILED: {total_eps:.0} events/sec is more than 25% \
                 below the committed baseline {base_eps:.0} (floor {floor:.0})"
            );
            std::process::exit(1);
        }
        eprintln!(
            "bench_report: --check ok: {total_eps:.0} events/sec vs baseline {base_eps:.0} \
             (floor {floor:.0})"
        );
        // Telemetry-overhead gate, full mode only: quick-mode cells are too
        // short (tens of milliseconds) for the on/off ratio to be stable.
        if !quick {
            if overhead > OVERHEAD_CEILING {
                eprintln!(
                    "bench_report: --check FAILED: telemetry overhead x{overhead:.2} exceeds \
                     the x{OVERHEAD_CEILING:.2} ceiling (off={telemetry_off_wall:.3}s \
                     on={telemetry_on_wall:.3}s)"
                );
                std::process::exit(1);
            }
            eprintln!(
                "bench_report: --check ok: telemetry overhead x{overhead:.2} within the \
                 x{OVERHEAD_CEILING:.2} ceiling"
            );
            if ring_overhead > OVERHEAD_CEILING {
                eprintln!(
                    "bench_report: --check FAILED: flight-ring overhead x{ring_overhead:.2} \
                     exceeds the x{OVERHEAD_CEILING:.2} ceiling (off={telemetry_off_wall:.3}s \
                     ring={ring_wall:.3}s)"
                );
                std::process::exit(1);
            }
            eprintln!(
                "bench_report: --check ok: flight-ring overhead x{ring_overhead:.2} within \
                 the x{OVERHEAD_CEILING:.2} ceiling"
            );
        }
    }
}
