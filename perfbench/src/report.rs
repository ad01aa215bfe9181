//! The metric catalogue (the names `BENCHMARK.json` declares) and the
//! result line every run ends with.

use std::collections::BTreeMap;

use crate::stats::{valid_metric_name, valid_unit, Failures};

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("eval_s", "s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Pipelines of the `pandas` workload (Figure 4e–h).
pub const PANDAS_PIPELINES: &[&str] = &[
    "data_cleaning",
    "crime_index",
    "birth_analysis",
    "movielens",
];

/// Per-pipeline metrics of the traced run: `(suffix, unit)`, reported as
/// `pipeline.<p>.<suffix>`.
pub const PIPELINE_METRICS: &[(&str, &str)] = &[
    ("eval_s", "s"),
    ("speedup_vs_base", "x"),
    ("fused_vs_base", "x"),
    ("merge_s", "s"),
    ("merged_mb", "MB"),
    ("unaccounted_s", "s"),
];

/// Per-layer metrics of the traced run other than the per-pipeline
/// ones: `(name, unit)`.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("run.nproc", "count"),
    ("run.workers", "count"),
    ("run.seed", "count"),
    ("run.llc_mb", "MB"),
    ("run.samples", "count"),
    ("setup.context_s", "s"),
    ("setup.first_eval_s", "s"),
    ("setup.service_s", "s"),
    ("context.client_s", "s"),
    ("context.calls", "count"),
    ("context.retained_mb", "MB"),
    ("planner.plan_s", "s"),
    ("planner.stages", "count"),
    ("verify.plans_verified", "count"),
    ("executor.split_s", "s"),
    ("executor.task_s", "s"),
    ("executor.merge_s", "s"),
    ("executor.unprotect_s", "s"),
    ("executor.batches", "count"),
    ("executor.bytes_split_mb", "MB"),
    ("executor.bytes_merged_mb", "MB"),
    ("executor.merge_amplification", "x"),
    ("executor.split_form_handoffs", "count"),
    ("buffer.placement_writes", "count"),
    ("engine.wall_s", "s"),
    ("engine.cpu_s", "s"),
    ("engine.unaccounted_s", "s"),
    ("pool.jobs", "count"),
    ("pool.batches_stolen", "count"),
    ("pool.parks", "count"),
    ("pool.worker_imbalance", "x"),
    ("pool.scaling", "x"),
    ("lib.base_s", "s"),
    ("lib.fused_s", "s"),
    ("lib.fused_not_upper_bound", "count"),
    ("protocol.parse_us", "us"),
    ("service.call_p50_ms", "ms"),
    ("service.call_p99_ms", "ms"),
    ("service.plan_hit_rate", "ratio"),
    ("service.coalesced_share", "ratio"),
    ("service.retries", "count"),
    ("service.rejected", "count"),
    ("tcpfront.wire_ms", "ms"),
    ("metrics.admission_wait_p50_us", "us"),
    ("metrics.admission_wait_p99_us", "us"),
    ("metrics.planner_p50_us", "us"),
    ("metrics.planner_p99_us", "us"),
    ("metrics.split_p50_us", "us"),
    ("metrics.split_p99_us", "us"),
    ("metrics.task_p50_us", "us"),
    ("metrics.task_p99_us", "us"),
    ("metrics.merge_p50_us", "us"),
    ("metrics.merge_p99_us", "us"),
    ("trace.overhead", "x"),
];

/// Every per-layer metric in declaration order: the layer metrics, then
/// the per-pipeline ones of the `pandas` pipelines.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for p in PANDAS_PIPELINES {
        for &(suffix, unit) in PIPELINE_METRICS {
            out.push((format!("pipeline.{p}.{suffix}"), unit));
        }
    }
    out
}

/// A run's outcome: measured metric values and failure counts.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Operations attempted and failed over the whole run.
    pub failures: Failures,
}

impl Report {
    /// Record a metric's value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Record every metric of `other` that this report lacks, and its
    /// failure counts. A traced run fills the layers its own workload
    /// does not exercise from a shorter pass of the other workload.
    pub fn fill_missing(&mut self, other: Report) {
        for (name, value) in other.values {
            self.values.entry(name).or_insert(value);
        }
        self.failures.absorb(other.failures);
    }

    /// The result line for the mode's catalogue (`traced` selects the
    /// per-layer metrics). Every catalogued metric must have been
    /// measured: a missing one is never stood in by a number. A missing
    /// metric, a value that is not finite, or a value under a name
    /// outside the catalogue is a bug of the benchmark (or a layer that
    /// stopped running) and yields `Err`.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let catalogue: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut fields = Vec::with_capacity(catalogue.len());
        for (name, unit) in &catalogue {
            if !valid_metric_name(name) || !valid_unit(unit) {
                return Err(format!("invalid metric name or unit: {name} [{unit}]"));
            }
            let value = match self.values.get(name).copied() {
                Some(v) if v.is_finite() => v,
                Some(v) => return Err(format!("metric {name} is not finite: {v}")),
                None => return Err(format!("metric {name} was not measured")),
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        if let Some(stray) = self
            .values
            .keys()
            .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {stray} is not in this run's catalogue"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.failed == 0 && self.failures.attempted > 0,
            self.failures.attempted,
            self.failures.failed,
            fields.join(", ")
        ))
    }
}

/// A finite `f64` as a JSON number with all its digits (Rust's shortest
/// round-trip form, which never uses an exponent).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names `BENCHMARK.json` lists under `section` (a shallow scan
    /// of its `"name": "..."` entries between the section key and the
    /// next top-level key).
    fn declared(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let rest = &json[start..];
        let end = rest.find(']').expect("section is an array");
        rest[..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap_or("")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layer: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(declared("per_layer"), layer);
        assert!(layer.len() <= 128);
        let mut uniq = layer.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), layer.len(), "names are used once");
    }

    #[test]
    fn result_line_carries_every_catalogued_metric() {
        let mut r = Report::default();
        for (n, _) in END_TO_END {
            r.set(*n, 1.5);
        }
        r.failures.record(true);
        let line = r.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn unmeasured_metrics_fail_the_line() {
        let mut r = Report::default();
        r.failures.record(true);
        for (n, _) in per_layer() {
            r.set(n, 0.5);
        }
        assert!(r.result_line(true).is_ok());
        r.values.remove("pool.parks");
        assert!(
            r.result_line(true).is_err(),
            "no stand-in for a missing value"
        );
        r.set("pool.parks", 1.0);
        r.set("pool.typo", 1.0);
        assert!(r.result_line(true).is_err(), "names outside the catalogue");
    }

    #[test]
    fn fill_missing_keeps_own_values() {
        let mut own = Report::default();
        own.set("pool.jobs", 3.0);
        own.failures.record(true);
        let mut other = Report::default();
        other.set("pool.jobs", 9.0);
        other.set("pool.parks", 2.0);
        other.failures.record(false);
        own.fill_missing(other);
        assert_eq!(own.values["pool.jobs"], 3.0);
        assert_eq!(own.values["pool.parks"], 2.0);
        assert_eq!((own.failures.attempted, own.failures.failed), (2, 1));
    }

    #[test]
    fn result_line_rejects_missing_or_non_finite_values() {
        let mut r = Report::default();
        r.failures.record(true);
        assert!(r.result_line(false).is_err(), "end-to-end metrics missing");
        for (n, _) in END_TO_END {
            r.set(*n, 1.0);
        }
        r.set("eval_s", f64::NAN);
        assert!(r.result_line(false).is_err());
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut r = Report::default();
        for (n, _) in END_TO_END {
            r.set(*n, 2.0);
        }
        r.failures.record(true);
        r.failures.record(false);
        let line = r.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(0.123456789012345), "0.123456789012345");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1e-7), "0.0000001");
    }
}
