//! # jl-telemetry
//!
//! Deterministic observability for the join-location simulator: structured
//! span tracing, a metrics registry, and exporters (Chrome trace-event JSON
//! for Perfetto, metrics JSON, Prometheus exposition).
//!
//! ## Design rules
//!
//! * **Sim-time only.** Every timestamp is a [`jl_simkit::time::SimTime`].
//!   Wall-clock never leaks into a trace, so output is a pure function of
//!   the simulation inputs and byte-identical across `--threads` counts.
//! * **Cell-local.** A [`Telemetry`] recorder is shared by the actors of one
//!   simulation cell via [`TelemetryHandle`] (an `Arc` over a one-flag
//!   exclusive cell). Within a cell the event loop's thread does all the
//!   recording; `jl-serve`'s reader and stats threads only read or drain it
//!   (`METRICS`, `DUMP`) while the loop runs. The bench harness
//!   parallelizes across cells, each with its own recorder.
//! * **One recording path.** Every event enters through
//!   [`Telemetry::record_parts`] as parts — node, track, name, start,
//!   optional duration, argument slice — and lands in a packed
//!   [`EventLog`] (plus the flight ring, when armed).
//! * **Zero-cost off.** When a run carries no recorder the instrumented code
//!   paths reduce to a `None` check; determinism digests and throughput are
//!   unchanged.

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod expo;
pub mod flight;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod window;

pub use chrome::chrome_trace_json;
pub use event::{Arg, ArgVal, EventLog, EventView, Track};
pub use expo::{validate_exposition, ExpoBuilder, ExpoCheck};
pub use flight::{FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use recorder::{shared, Telemetry, TelemetryConfig, TelemetryHandle};
pub use registry::{Metric, MetricsRegistry};
pub use window::{WindowSnapshot, WindowedCounter, WindowedHistogram};

use jl_simkit::time::SimTime;

/// Everything one traced run produced, ready for export.
#[derive(Debug)]
pub struct RunTelemetry {
    /// Simulated end time of the run (closes time-weighted gauges).
    pub end: SimTime,
    /// Trace events in emission order, packed (see [`EventLog`]).
    pub events: EventLog,
    /// Final metrics registry.
    pub registry: MetricsRegistry,
    /// Display names for the simulated nodes: `(node id, name)`.
    pub processes: Vec<(u32, String)>,
    /// Final flight-recorder contents, when the run armed a ring
    /// (stitched oldest-first; `None` when the ring was off).
    pub flight: Option<EventLog>,
}

impl RunTelemetry {
    /// Chrome trace-event JSON (Perfetto-loadable).
    pub fn to_chrome_json(&self) -> String {
        chrome_trace_json(&self.events, &self.processes)
    }

    /// Metrics snapshot JSON (`jl-telemetry-metrics/v1`).
    pub fn metrics_json(&self) -> String {
        self.registry.to_json(self.end)
    }

    /// Chrome trace-event JSON of the flight ring's final contents, or
    /// `None` when the run recorded without a ring.
    pub fn flight_chrome_json(&self) -> Option<String> {
        self.flight
            .as_ref()
            .map(|log| chrome_trace_json(log, &self.processes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jl_simkit::time::SimDuration;

    #[test]
    fn run_telemetry_exports_all_three_formats() {
        let mut tel = Telemetry::new(TelemetryConfig::default());
        tel.record_parts(
            0,
            Track::Cpu,
            "service",
            SimTime(1_000),
            Some(SimDuration::from_micros(2)),
            &[("jobs", ArgVal::U64(1))],
        );
        tel.registry.counter_add(0, "cache", "hits", 5);
        let (events, registry) = tel.finish();
        let run = RunTelemetry {
            end: SimTime(10_000),
            events,
            registry,
            processes: vec![(0, "C0".to_string())],
            flight: None,
        };
        let trace = run.to_chrome_json();
        let check = json::validate_chrome_trace(&trace).unwrap();
        assert_eq!(check.spans, 1);
        let metrics = run.metrics_json();
        assert!(json::parse(&metrics).is_ok());
        assert!(metrics.contains("\"hits\""));
        let mut expo = ExpoBuilder::new();
        expo.add_registry(&run.registry, &run.processes, run.end);
        assert!(expo.render().contains("jl_cache_hits_total{node=\"C0\"} 5"));
    }
}
