//! The metric tables: names, units and bounds, exactly as `BENCHMARK.json`
//! lists them (a unit test keeps the two in step), and the result a run
//! prints as its last line.

use std::fmt::Write as _;

/// The four workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 4] = [
    "batch-solver",
    "batch-compile",
    "serve-tcp",
    "serve-recover",
];

/// An end-to-end metric: name, unit, whether higher is better, and the
/// share of the parent's median by which it may worsen.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Regression bound, as a share of the median.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// Every end-to-end metric; every workload reports all of them.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("jobs_per_s", "1/s", true, 0.15),
    e2e("latency_p50_ms", "ms", false, 0.25),
    e2e("latency_p99_ms", "ms", false, 0.25),
    e2e("cpu_ms_per_job", "ms", false, 0.15),
    e2e("peak_rss_mb", "MB", false, 0.25),
    e2e("slo_met_pct", "%", true, 0.05),
    e2e("goodput_mh", "machine-h", true, 0.10),
];

/// Every per-layer metric `(name, unit, higher_is_better)`, in report
/// order. A traced run reports all of them; a layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: [(&str, &str, bool); 54] = [
    ("workload.generate_s", "s", false),
    ("workload.jobs", "count", true),
    ("predict.pretrain_s", "s", false),
    ("predict.observe_us", "us", false),
    ("predict.predict_us", "us", false),
    ("predict.tracked_values", "count", false),
    ("core.schedule_s", "s", false),
    ("core.callbacks_s", "s", false),
    ("core.cycles", "count", false),
    ("core.busy_cycles", "count", false),
    ("core.generate_s", "s", false),
    ("core.compile_s", "s", false),
    ("core.extract_s", "s", false),
    ("core.unattributed_s", "s", false),
    ("core.options_enumerated", "count", false),
    ("core.options_pruned", "count", true),
    ("core.options_placed", "count", true),
    ("core.option_yield", "ratio", true),
    ("core.cache_hit_ratio", "ratio", true),
    ("core.milp_vars_mean", "count", false),
    ("core.milp_rows_mean", "count", false),
    ("core.dist.survival_ns", "ns", false),
    ("milp.solve_s", "s", false),
    ("milp.nodes", "count", false),
    ("milp.pivots", "count", false),
    ("milp.incremental_reuse_ratio", "ratio", true),
    ("milp.timeouts", "count", false),
    ("milp.fixture_solve_ms", "ms", false),
    ("cluster.engine_self_s", "s", false),
    ("cluster.engine_cycles", "count", false),
    ("cluster.preemptions", "count", false),
    ("cluster.serve.session_s", "s", false),
    ("cluster.serve.admit_us", "us", false),
    ("cluster.serve.pump_us", "us", false),
    ("cluster.serve.submit_us", "us", false),
    ("cluster.wal.append_us", "us", false),
    ("cluster.wal.fsync_us", "us", false),
    ("cluster.wal.bytes_per_record", "B", false),
    ("cluster.wal.decode_s", "s", false),
    ("cluster.wal.recover_s", "s", false),
    ("cluster.wal.replay_s", "s", false),
    ("cli.serve.file_s", "s", false),
    ("cli.serve.parse_us", "us", false),
    ("cli.serve.spawn_s", "s", false),
    ("cli.serve.tcp_us", "us", false),
    ("cli.serve.ack_depth1_ms", "ms", false),
    ("cli.serve.recover_s", "s", false),
    ("obs.recorder_overhead_pct", "%", false),
    ("bench.iterations", "count", true),
    ("bench.iteration_wall_s", "s", false),
    ("bench.parts_sum_pct", "%", true),
    ("bench.stages_sum_pct", "%", true),
    ("bench.trace_overhead_pct", "%", false),
    ("bench.traced_wall_s", "s", false),
];

/// Named values a run measured, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Sets `name`, replacing an earlier value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`; 0 when the workload did not measure it.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// What one `--workload` run found.
#[derive(Debug, Default, Clone)]
pub struct RunResult {
    /// Output checks that failed (empty = correct).
    pub violations: Vec<String>,
    /// Operations attempted (jobs simulated, lines sent, recoveries).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The measured metrics.
    pub values: Values,
}

impl RunResult {
    /// Records a failed output check.
    pub fn violation(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// The one-line JSON result: every end-to-end metric for an untraced
    /// run, every per-layer metric for a traced one.
    pub fn to_json(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.violations.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        let names: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for (i, (name, unit)) in names.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = self.values.get(name);
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn spec() -> Value {
        let path = crate::proc::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key).unwrap_or_else(|| panic!("missing `{key}`"))
    }

    #[test]
    fn tables_match_benchmark_json() {
        let spec = spec();
        let names = |key: &str| -> Vec<String> {
            field(&spec, key)
                .as_array()
                .unwrap()
                .iter()
                .map(|m| field(m, "name").as_str().unwrap().to_owned())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(
            field(&spec, "run_seconds").as_f64(),
            Some(crate::suite::RUN_SECONDS)
        );
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (m, json) in END_TO_END
            .iter()
            .zip(field(&spec, "end_to_end").as_array().unwrap())
        {
            assert_eq!(field(json, "unit").as_str(), Some(m.unit), "{}", m.name);
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(field(json, "better").as_str(), Some(better), "{}", m.name);
            assert_eq!(field(json, "bound").as_f64(), Some(m.bound), "{}", m.name);
            assert!(m.bound <= 0.25);
        }
        for (m, json) in PER_LAYER
            .iter()
            .zip(field(&spec, "per_layer").as_array().unwrap())
        {
            assert_eq!(field(json, "unit").as_str(), Some(m.1), "{}", m.0);
            let better = if m.2 { "higher" } else { "lower" };
            assert_eq!(field(json, "better").as_str(), Some(better), "{}", m.0);
        }
    }

    #[test]
    fn result_line_lists_every_metric_of_its_kind() {
        let mut r = RunResult {
            attempted: 10,
            ..RunResult::default()
        };
        r.values.set("jobs_per_s", 12.5);
        r.values.set("core.compile_s", 1.25);
        let line: Value = serde_json::from_str(&r.to_json(false)).unwrap();
        assert_eq!(field(&line, "correct"), &Value::Bool(true));
        let metrics = field(&line, "metrics").as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            field(field(&line, "metrics"), "jobs_per_s")
                .get("value")
                .unwrap()
                .as_f64(),
            Some(12.5)
        );
        let traced: Value = serde_json::from_str(&r.to_json(true)).unwrap();
        assert_eq!(
            field(&traced, "metrics").as_object().unwrap().len(),
            PER_LAYER.len()
        );
        r.violation("digest differs");
        assert!(r.to_json(false).starts_with("{\"correct\": false"));
    }
}
