//! The benchmark's metric names, units, directions and bounds — the single
//! table `BENCHMARK.json` mirrors (pinned by the test below) and every
//! printed number is looked up in.

use serde_json::Value;

use crate::stats::Better;

/// A metric a user of the simulator sees, with the share of the parent's
/// median by which it may worsen before `--compare` calls it a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    // Host seconds for one `scenarios::try_run`, tracing off: testnet build,
    // event loop, analysis and teardown. Median of the timed reps, each
    // scaled to the reference host speed (see `calibrate`).
    EndToEnd {
        name: "run_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // Spec generation plus one untimed warm-up run; median of three set-ups,
    // scaled like `run_wall_s`.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // `VmHWM` of the workload's process after the timed reps.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.03,
    },
    // Simulated transfers per simulated second (see `Workload::sim_tfps`).
    // Exact: a host-only optimisation must leave it bit-identical, so any
    // move at all is a model change. The bound is the smallest the driver's
    // spread rule is known to accept, not a tolerance.
    EndToEnd {
        name: "sim_tfps",
        unit: "tx/s",
        better: Better::Higher,
        bound: 0.01,
    },
];

/// Every per-layer metric with its unit, grouped by source: (a) exact counts
/// read off one untraced run's `RunOutput`, (b) host time from the traced
/// run's spans, (c) layer drives timed on the finished run's data. The
/// prefix names the crate (`framework` is `crates/core`).
pub const PER_LAYER: [(&str, &str); 60] = [
    // (a) exact counts
    ("sim.events_popped", "count"),
    ("tendermint.blocks_committed", "count"),
    ("tendermint.txs_committed", "count"),
    ("tendermint.max_block_txs", "count"),
    ("chain.txs_encoded", "count"),
    ("chain.txs_decoded", "count"),
    ("chain.bytes_serialized", "bytes"),
    ("chain.decodes_per_committed_tx", "ratio"),
    ("ibc.packets_sent", "count"),
    ("ibc.packets_unacked_final", "count"),
    ("rpc.calls_total", "count"),
    ("rpc.calls.broadcast_tx_sync", "count"),
    ("rpc.calls.packet_data_pull", "count"),
    ("rpc.calls.account_query", "count"),
    ("rpc.calls.unconfirmed_account_query", "count"),
    ("rpc.calls.unreceived_query", "count"),
    ("rpc.calls.client_update_data", "count"),
    ("rpc.lane_busy_sim_s", "s"),
    ("rpc.lane_wait_sim_s", "s"),
    ("rpc.lane_max_backlog_sim_s", "s"),
    ("relayer.wakes", "count"),
    ("relayer.recv_txs", "count"),
    ("relayer.ack_txs", "count"),
    ("relayer.broadcast_failures", "count"),
    ("relayer.event_collection_failures", "count"),
    ("relayer.packets_cleared", "count"),
    ("relayer.clear_scan_visits", "count"),
    ("relayer.clear_visits_per_cleared_packet", "ratio"),
    ("relayer.telemetry_records", "count"),
    ("relayer.telemetry_records_per_transfer", "ratio"),
    ("framework.sim_completion_latency_s", "s"),
    // (b) traced run
    ("framework.testnet_build_s", "s"),
    ("framework.workload_submit_s", "s"),
    ("chain.produce_block_src_s", "s"),
    ("chain.produce_block_dst_s", "s"),
    ("chain.produce_block_max_ms", "ms"),
    ("relayer.wake_s", "s"),
    ("relayer.wake_max_ms", "ms"),
    ("framework.drain_check_s", "s"),
    ("sim.scheduler_s", "s"),
    ("framework.collect_s", "s"),
    ("framework.analysis_s", "s"),
    ("framework.teardown_s", "s"),
    ("trace.total_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.coverage_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.reps", "count"),
    ("trace.spans_per_rep", "count"),
    // (c) layer drives
    ("chain.codec_decode_us_per_tx", "us"),
    ("chain.codec_encode_us_per_tx", "us"),
    ("rpc.pull_packet_data_host_us_per_packet", "us"),
    ("rpc.unreceived_query_host_us_per_call", "us"),
    ("ibc.commitment_set_root_us", "us"),
    ("ibc.commitment_prove_us", "us"),
    ("tendermint.merkle_build_us_per_leaf", "us"),
    ("tendermint.merkle_prove_us", "us"),
    ("sim.scheduler_ns_per_event", "ns"),
    ("relayer.telemetry_record_ns", "ns"),
    ("relayer.telemetry_merge_s", "s"),
];

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Records a per-layer metric under its declared unit.
    ///
    /// # Panics
    ///
    /// Panics on a name [`PER_LAYER`] does not declare or on a repeat: both
    /// are harness bugs that would make the output disagree with
    /// `BENCHMARK.json`.
    pub fn put_layer(&mut self, name: &str, value: f64) {
        let &(name, unit) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric `{name}`"));
        self.put(name, value, unit);
    }

    /// Records an end-to-end metric under its declared unit.
    pub fn put_end_to_end(&mut self, name: &str, value: f64) {
        let metric = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("undeclared end-to-end metric `{name}`"));
        self.put(metric.name, value, metric.unit);
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            self.rows.iter().all(|(n, _, _)| *n != name),
            "metric `{name}` recorded twice"
        );
        self.rows.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn rows(&self) -> &[(&'static str, f64, &'static str)] {
        &self.rows
    }

    /// Whether exactly the declared per-layer set was recorded.
    pub fn covers_every_layer_metric(&self) -> bool {
        self.rows.len() == PER_LAYER.len() && PER_LAYER.iter().all(|(n, _)| self.get(n).is_some())
    }

    /// The `metrics` object of the result line.
    pub fn to_value(&self) -> Value {
        Value::Map(
            self.rows
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.to_string(),
                        Value::Map(vec![
                            ("value".to_string(), Value::F64(*value)),
                            ("unit".to_string(), Value::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Reads field `key` of a JSON object.
pub fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_map()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Reads a JSON number as `f64`.
pub fn number(value: &Value) -> Option<f64> {
    match value {
        Value::F64(x) => Some(*x),
        Value::U128(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn text(value: &Value, key: &str) -> String {
        match field(value, key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("`{key}` is not a string: {other:?}"),
        }
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let body = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        serde_json::from_str(&body).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_mirrors_the_metric_tables() {
        let json = benchmark_json();
        let end_to_end = field(&json, "end_to_end").and_then(Value::as_seq).unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, metric) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(text(entry, "name"), metric.name);
            assert_eq!(text(entry, "unit"), metric.unit);
            let better = match metric.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(text(entry, "better"), better);
            let bound = field(entry, "bound").and_then(number).unwrap();
            assert_eq!(bound, metric.bound, "{}", metric.name);
        }
        let per_layer = field(&json, "per_layer").and_then(Value::as_seq).unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, (name, unit)) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(text(entry, "name"), *name);
            assert_eq!(text(entry, "unit"), *unit);
        }
    }

    #[test]
    fn benchmark_json_mirrors_the_workloads() {
        let json = benchmark_json();
        let run_seconds = field(&json, "run_seconds").and_then(number);
        assert_eq!(run_seconds, Some(crate::DEFAULT_SECONDS as f64));
        let workloads = field(&json, "workloads").and_then(Value::as_seq).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, workload) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(entry, "name"), workload.name);
            assert_eq!(text(entry, "why"), workload.why);
        }
    }

    #[test]
    fn setup_time_is_declared_as_the_contract_requires() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn recording_rejects_unknown_and_repeated_names() {
        let mut metrics = Metrics::default();
        metrics.put_layer("relayer.wakes", 3.0);
        assert_eq!(metrics.get("relayer.wakes"), Some(3.0));
        assert!(!metrics.covers_every_layer_metric());
        let repeat = std::panic::catch_unwind(move || metrics.put_layer("relayer.wakes", 4.0));
        assert!(repeat.is_err());
        let unknown = std::panic::catch_unwind(|| Metrics::default().put_layer("nope", 1.0));
        assert!(unknown.is_err());
    }
}
