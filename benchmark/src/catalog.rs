//! Every metric the benchmark prints, by name and unit. `BENCHMARK.json`
//! carries the same list (plus direction and bound); a test holds the two
//! together.

use std::collections::BTreeMap;

/// `(name, unit)` of the end-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_tuples_per_s", "1/s"),
    ("sim_tuples_per_s", "1/s"),
    ("tuple_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of the per-layer metrics, printed with `--trace 1`. A
/// metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // simkit: the event kernel.
    ("simkit.events_per_tuple", "count"),
    ("simkit.host_ns_per_event", "ns"),
    ("simkit.queue_hold_ns", "ns"),
    ("simkit.queue_hold_share", "ratio"),
    ("simkit.dispatch_floor_ns", "ns"),
    ("simkit.dispatch_floor_share", "ratio"),
    ("simkit.net_bytes_per_tuple", "count"),
    ("simkit.net_msgs_per_tuple", "count"),
    ("simkit.data_cpu_util_max", "ratio"),
    ("simkit.data_nic_util_max", "ratio"),
    ("simkit.data_disk_util_max", "ratio"),
    ("simkit.par2_speedup", "ratio"),
    // runtime: the wall-clock backend.
    ("runtime.real_timer_lag_p50_us", "us"),
    ("runtime.real_timer_lag_p99_us", "us"),
    ("runtime.real_inject_us", "us"),
    ("runtime.real_events_per_req", "count"),
    // telemetry: the recorder.
    ("telemetry.overhead_ratio", "ratio"),
    ("telemetry.trace_events", "count"),
    ("telemetry.record_ns", "ns"),
    ("telemetry.flight_cpu_ratio", "ratio"),
    // skirental / freq / cache / costmodel / loadbalance: the paper's layers.
    ("skirental.decide_ns", "ns"),
    ("skirental.decide_share", "ratio"),
    ("skirental.buy_share", "ratio"),
    ("freq.observe_ns", "ns"),
    ("freq.observe_share", "ratio"),
    ("cache.touch_lookup_ns", "ns"),
    ("cache.touch_lookup_share", "ratio"),
    ("cache.insert_ns", "ns"),
    ("cache.insert_share", "ratio"),
    ("cache.invalidate_ns", "ns"),
    ("cache.invalidate_share", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.inserts_per_tuple", "count"),
    ("cache.demotions_per_tuple", "count"),
    ("cache.invalidations", "count"),
    ("costmodel.rent_buy_ns", "ns"),
    ("costmodel.rent_buy_share", "ratio"),
    ("costmodel.perkey_record_ns", "ns"),
    ("costmodel.perkey_record_share", "ratio"),
    ("loadbalance.solve_ns", "ns"),
    ("loadbalance.solve_share", "ratio"),
    ("loadbalance.solves_per_tuple", "count"),
    ("loadbalance.bounced_share", "ratio"),
    // store: region servers and the UDF.
    ("store.get_ns", "ns"),
    ("store.get_share", "ratio"),
    ("store.put_ns", "ns"),
    ("store.put_share", "ratio"),
    ("store.udf_apply_ns", "ns"),
    ("store.udf_apply_share", "ratio"),
    ("store.bulk_load_s", "s"),
    ("store.gets_per_tuple", "count"),
    ("store.puts", "count"),
    // core: the sans-IO decision plane.
    ("core.on_input_ns", "ns"),
    ("core.on_input_share", "ratio"),
    ("core.on_batch_response_ns", "ns"),
    ("core.on_batch_response_share", "ratio"),
    ("core.accept_batch_ns", "ns"),
    ("core.accept_batch_share", "ratio"),
    ("core.batcher_push_ns", "ns"),
    ("core.batcher_push_share", "ratio"),
    ("core.batch_fill", "ratio"),
    // engine: what is left, and the modelled run.
    ("engine.callback_share", "ratio"),
    ("engine.data_cpu_skew", "ratio"),
    ("engine.sim_p50_ms", "ms"),
    ("engine.sim_p99_ms", "ms"),
    ("engine.retries", "count"),
    ("engine.shed", "count"),
    ("engine.gave_up", "count"),
    // serve: the request/reply path, and the load generator's own health.
    ("serve.client_p50_ms", "ms"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.cpu_us_per_req", "us"),
    ("serve.sys_cpu_share", "ratio"),
    ("loadgen.offered_rps", "1/s"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.late_max_ms", "ms"),
];

/// The metric values of one run, keyed by catalogue name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under `name`.
    ///
    /// # Panics
    /// Panics if `name` is in neither catalogue: a metric nobody declared
    /// must not be printed.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Record a layer cell: `X_ns` and `X_share` = `ops` × ns ÷ run wall.
    pub fn set_cell(
        &mut self,
        ns_name: &'static str,
        share_name: &'static str,
        ns_per_op: f64,
        ops: f64,
        run_wall_s: f64,
    ) {
        self.set(ns_name, ns_per_op);
        self.set(share_name, ops * ns_per_op * 1e-9 / run_wall_s);
    }

    /// `(name, value, unit)` for every metric of `catalogue`, in catalogue
    /// order. A metric that was not measured does not apply to this
    /// workload and reads 0 (no end-to-end metric ever does: a test holds
    /// every one of them above 0 on every workload).
    pub fn rows(&self, catalogue: &'static [(&'static str, &'static str)]) -> Vec<Row> {
        catalogue
            .iter()
            .map(|&(name, unit)| (name, self.get(name).unwrap_or(0.0), unit))
            .collect()
    }
}

pub type Row = (&'static str, f64, &'static str);
