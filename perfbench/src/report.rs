//! Metric tables and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; the
//! benchmark's own test checks the two lists agree.

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_uops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// leaves idle reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.capture_ns_per_uop", "ns"),
    ("workloads.decode_ns_per_uop", "ns"),
    ("workloads.generate_ns_per_uop", "ns"),
    ("workloads.warm_ns_per_uop", "ns"),
    ("workloads.buffer_bytes_per_uop", "B"),
    ("workloads.registry_hit_ratio", "ratio"),
    ("pipeline.engine_ns_per_uop", "ns"),
    ("pipeline.engine_ns_per_cycle", "ns"),
    ("pipeline.useful_uop_ratio", "ratio"),
    ("pipeline.cpi.mcf_bdw", "cycles/uop"),
    ("pipeline.cpi.imagick_knl", "cycles/uop"),
    ("pipeline.cpi.exchange2_skx", "cycles/uop"),
    ("pipeline.cpi.lbm_bdw", "cycles/uop"),
    ("core.accounting_ns_per_uop", "ns"),
    ("core.sampled_window_ns_per_uop", "ns"),
    ("core.detail_fraction", "ratio"),
    ("core.corun_shared_ns_per_uop", "ns"),
    ("core.interference_cycles", "count"),
    ("core.jsonfmt_us", "us"),
    ("core.cachekey_us", "us"),
    ("cpi_err_pct", "%"),
    ("mem.l1d_mpki", "1/kuop"),
    ("mem.l2_mpki", "1/kuop"),
    ("mem.l3_mpki", "1/kuop"),
    ("mem.l2_mshr_wait_cycles", "count"),
    ("mem.dram_queue_cycles", "count"),
    ("mem.shared_l3_miss_ratio", "ratio"),
    ("frontend.branch_mpki", "1/kuop"),
    ("frontend.wrong_path_fetch_ratio", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.miss_sim_ms", "ms"),
    ("serve.gen_late_p99_ms", "ms"),
    ("serve.requests", "count"),
    ("selftime.workloads_ms", "ms"),
    ("selftime.pipeline_ms", "ms"),
    ("selftime.core_ms", "ms"),
    ("selftime.bench_ms", "ms"),
    ("closure.e2e_ms", "ms"),
    ("closure.unattributed_ms", "ms"),
    ("closure.gap_pct", "%"),
    ("trace.overhead_pct", "%"),
];

use crate::stats;

/// Closure tolerance: the layer self times must sum to the end-to-end
/// time within this share, or the gap is reported as unattributed.
pub const CLOSURE_TOLERANCE: f64 = 0.10;

/// Everything one run produces: operation counts, metrics and the
/// human-readable lines printed ahead of the result line.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    pub lines: Vec<String>,
}

impl Outcome {
    /// Counts one failed operation with its reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Reports the timed operations: count, median and each wall time.
    pub fn operations(&mut self, times: &[f64]) {
        let each: Vec<String> = times.iter().map(|t| format!("{:.1}", t * 1e3)).collect();
        self.line(format!(
            "operations: {} timed, median {:.1} ms, p99 {:.1} ms from their spread (slowest {:.1} ms); each (ms): {}",
            times.len(),
            stats::median(times) * 1e3,
            stats::p99_from_spread(times) * 1e3,
            stats::percentile(times, 1.0) * 1e3,
            each.join(" ")
        ));
    }

    /// Adds the closure metrics: `layers` are the per-operation layer
    /// self times in seconds (workloads, pipeline, core, bench), `e2e`
    /// the untraced operation time and `traced` the traced one.
    pub fn closure(&mut self, layers: [f64; 4], e2e: f64, traced: f64) {
        let names = [
            "selftime.workloads_ms",
            "selftime.pipeline_ms",
            "selftime.core_ms",
            "selftime.bench_ms",
        ];
        for (n, v) in names.into_iter().zip(layers) {
            self.set(n, v * 1e3);
        }
        let sum: f64 = layers.iter().sum();
        let gap = e2e - sum;
        self.set("closure.e2e_ms", e2e * 1e3);
        self.set("closure.unattributed_ms", gap * 1e3);
        self.set("closure.gap_pct", gap / e2e * 100.0);
        self.set("trace.overhead_pct", (traced - e2e) / e2e * 100.0);
        let verdict = if (gap / e2e).abs() <= CLOSURE_TOLERANCE {
            format!("closes within ±{:.0}%", CLOSURE_TOLERANCE * 100.0)
        } else {
            format!(
                "does not close within ±{:.0}%: {:.3} ms unattributed",
                CLOSURE_TOLERANCE * 100.0,
                gap * 1e3
            )
        };
        self.line(format!(
            "closure: layers {:.3} ms (workloads {:.3}, pipeline {:.3}, core {:.3}, bench {:.3}) vs end-to-end {:.3} ms, gap {:+.2}% — {verdict}; tracing overhead {:+.2}%",
            sum * 1e3,
            layers[0] * 1e3,
            layers[1] * 1e3,
            layers[2] * 1e3,
            layers[3] * 1e3,
            e2e * 1e3,
            gap / e2e * 100.0,
            (traced - e2e) / e2e * 100.0,
        ));
    }

    /// The result line: exactly the metrics of `table`, each with its
    /// unit. Metrics missing from a traced run are idle layers (0); a
    /// missing or non-finite end-to-end metric is a failure.
    pub fn result_line(&mut self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1);
            let value = match value {
                Some(v) if v.is_finite() => v,
                Some(_) => {
                    self.fail(format!("metric {name} is not finite"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    self.fail(format!("metric {name} was not measured"));
                    0.0
                }
            };
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            parts.join(", ")
        )
    }
}

/// A finite f64 as a JSON number with every significant digit.
fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_line_lists_every_end_to_end_metric_and_flags_gaps() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for &(n, _) in END_TO_END.iter().skip(1) {
            o.set(n, 1.25);
        }
        let line = o.result_line(false);
        assert!(line.contains("\"correct\": false"), "{line}");
        assert!(line.contains("\"failed\": 1"), "{line}");
        for &(n, u) in END_TO_END {
            assert!(line.contains(&format!("\"{n}\": {{\"value\": ")), "{n}");
            assert!(line.contains(&format!("\"unit\": \"{u}\"")), "{u}");
        }
    }

    #[test]
    fn traced_line_reports_idle_layers_as_zero() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        let line = o.result_line(true);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"serve.requests\": {\"value\": 0.0, \"unit\": \"count\"}"));
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(n), "{n} repeats");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        for &(_, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(u.len() <= 16);
        }
    }
}
