//! Metric names and units, summary statistics, and the result line.
//!
//! The two tables below define what the benchmark prints: `BENCHMARK.json`
//! lists the same names and units (a test checks that they agree), and
//! every run prints every name of the table its mode selects.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every run with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("cpu_ms_per_run", "ms"),
    ("peak_rss_mb", "MB"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics, printed by every run with `--trace 1`. A layer
/// that a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("verilogeval.suite_s", "s"),
    ("bench.library_s", "s"),
    ("verilog.lex_s", "s"),
    ("verilog.parse_s", "s"),
    ("verilog.elab_s", "s"),
    ("verilog.bytes", "bytes"),
    ("verilog.tokens", "count"),
    ("verilog.lex_mb_per_s", "MB/s"),
    ("vhdl.lex_s", "s"),
    ("vhdl.parse_s", "s"),
    ("vhdl.elab_s", "s"),
    ("vhdl.bytes", "bytes"),
    ("vhdl.tokens", "count"),
    ("vhdl.lex_mb_per_s", "MB/s"),
    ("sim.lower_s", "s"),
    ("sim.run_s", "s"),
    ("sim.instructions", "count"),
    ("sim.eval_allocs", "count"),
    ("sim.minstrs_per_s", "Minstr/s"),
    ("eda.analyze_s", "s"),
    ("eda.compile_s", "s"),
    ("eda.simulate_s", "s"),
    ("eda.calls", "count"),
    ("eda.self_s", "s"),
    ("eda.cache_hit_ratio", "ratio"),
    ("eda.parse_memo_hit_ratio", "ratio"),
    ("eda.elab_memo_hit_ratio", "ratio"),
    ("eda.cache_entries", "count"),
    ("bench.checkpoint_bytes", "bytes"),
    ("llm.chat_s", "s"),
    ("llm.chat_calls", "count"),
    ("llm.completion_tokens", "count"),
    ("core.flow_self_s", "s"),
    ("core.syntax_iters_per_run", "count"),
    ("core.functional_iters_per_run", "count"),
    ("bench.score_s", "s"),
    ("serve.admit_ms_p50", "ms"),
    ("serve.execute_ms_p50", "ms"),
    ("serve.execute_ms_p99", "ms"),
    ("serve.stream_ms_p50", "ms"),
    ("serve.frames_per_job", "count"),
    ("serve.bytes_per_job", "bytes"),
    ("serve.cpu_ms_per_job", "ms"),
    ("serve.journal_bytes", "bytes"),
    ("serve.generator_lag_ms_p99", "ms"),
    ("serve.rejects_queue_full", "count"),
    ("serve.rejects_server_full", "count"),
    ("serve.rejects_tenant_limit", "count"),
    ("serve.rejects_breaker_open", "count"),
    ("serve.rejects_shutting_down", "count"),
    ("trace.span_coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

/// The `reason` values of a serve `reject` frame, in the order of the
/// `serve.rejects_*` metrics.
pub const REJECT_REASONS: &[&str] = &[
    "queue_full",
    "server_full",
    "tenant_limit",
    "breaker_open",
    "shutting_down",
];

/// Values measured by one run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Records 0 for every per-layer metric under `prefix`: a layer
    /// that the workload does not exercise.
    pub fn zero_layer(&mut self, prefix: &str) {
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with(prefix)) {
            self.set(name, 0.0);
        }
    }

    /// Renders the `metrics` object for every name of `table`, in table
    /// order.
    ///
    /// # Panics
    ///
    /// Panics when a name of `table` was never recorded or holds a
    /// non-finite value: either is a bug in the workload that measured
    /// it.
    pub fn render(&self, table: &[(&str, &str)]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// The `q`-th percentile (0..=100) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `num / den`, or 0 when nothing was attempted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn render_lists_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.set("a", 1.5);
        m.set("b", 2.0);
        assert_eq!(
            m.render(&[("a", "s"), ("b", "count")]),
            "{\"a\":{\"value\":1.5,\"unit\":\"s\"},\"b\":{\"value\":2,\"unit\":\"count\"}}"
        );
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics the tables above print, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = aivril_obs::json::parse(text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(aivril_obs::json::Value::arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|v| v.str()).unwrap().to_string(),
                        m.get("unit").and_then(|v| v.str()).unwrap().to_string(),
                    )
                })
                .collect();
            let coded: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(declared, coded, "{key}");
        }
    }
}
