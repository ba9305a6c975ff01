//! Metric names, the per-run outcome, and the result line.

use std::collections::BTreeMap;

use mw_obs::Snapshot;

use crate::stats;

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// Names and units match `BENCHMARK.json`.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_rps", "readings/s"),
    ("batch_p50_ms", "ms"),
    ("trigger_p50_us", "us"),
    ("query_p50_us", "us"),
    ("rss_peak_mb", "MiB"),
];

/// End-to-end tails, printed in the report only: on a small shared host
/// they move with the host's load more than a bound can allow (see
/// `README.md`).
pub const E2E_REPORT_ONLY: &[(&str, &str)] = &[
    ("batch_p95_ms", "ms"),
    ("trigger_p95_us", "us"),
    ("query_p95_us", "us"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`.
/// Names and units match `BENCHMARK.json`.
pub const LAYERS: &[(&str, &str)] = &[
    ("sim.gen_ns_per_reading", "ns"),
    ("sim.late_p99_us", "us"),
    ("sensors.admit_ns", "ns"),
    ("sensors.rejected_frac", "ratio"),
    ("db.insert_ns", "ns"),
    ("db.revoked_per_reading", "ratio"),
    ("fusion.fuse_ns", "ns"),
    ("fusion.lattice_regions", "count"),
    ("fusion.fuses_per_reading", "ratio"),
    ("fusion.cache_hit_frac", "ratio"),
    ("core.ingest_ns_per_reading", "ns"),
    ("core.self_ns_per_reading", "ns"),
    ("rules.candidates_per_reading", "count"),
    ("rules.eval_skip_frac", "ratio"),
    ("core.notifications_per_reading", "count"),
    ("core.query_ns", "ns"),
    ("core.shard_contention_per_query", "ratio"),
    ("reasoning.relation_ns", "ns"),
    ("bus.deliver_us", "us"),
    ("bus.frames_per_notification", "ratio"),
    ("bus.frames_lost", "count"),
    ("cluster.route_ingest_us", "us"),
    ("cluster.route_query_us", "us"),
    ("cluster.node_ingest_us", "us"),
    ("cluster.deltas_per_ingest", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// Per-layer metrics printed in the report only: a workload that never
/// exercises them would read the same zero time on every run.
pub const LAYERS_REPORT_ONLY: &[(&str, &str)] = &[("db.revoke_ns", "ns")];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (readings ingested plus queries issued).
    pub attempted: u64,
    /// Failed operations, by kind.
    pub failures: BTreeMap<&'static str, u64>,
    /// Of those, outputs the oracles found wrong (as opposed to
    /// operations the system refused or errored on).
    pub mismatches: u64,
    /// Whether the generator kept to its schedule.
    pub valid: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Report lines for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds `n` failures of `kind` (zero counts are kept, to state the
    /// checks that ran).
    pub fn fail(&mut self, kind: &'static str, n: u64) {
        *self.failures.entry(kind).or_default() += n;
    }

    /// Adds `n` outputs of `kind` that an oracle found wrong: failed
    /// operations that also make the run incorrect.
    pub fn mismatch(&mut self, kind: &'static str, n: u64) {
        self.fail(kind, n);
        self.mismatches += n;
    }

    /// Total failed operations.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result line for `wanted` metrics, or the names that are
    /// missing or not finite.
    ///
    /// # Errors
    ///
    /// Lists every wanted metric without a finite value.
    pub fn result_line(&self, wanted: &[(&str, &str)]) -> Result<String, Vec<String>> {
        let mut bad = Vec::new();
        let mut parts = Vec::new();
        for (name, unit) in wanted {
            match self.metrics.get(name) {
                Some(v) if v.is_finite() => {
                    parts.push(format!(
                        "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                    ));
                }
                _ => bad.push((*name).to_string()),
            }
        }
        if !bad.is_empty() {
            return Err(bad);
        }
        let failed = self.failed();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches == 0 && self.valid && self.attempted > 0,
            self.attempted.max(1),
            failed,
            parts.join(", ")
        ))
    }
}

/// Latency and throughput samples that every workload collects.
#[derive(Debug, Default)]
pub struct E2eSamples {
    /// Set-up durations, seconds.
    pub setup_s: Vec<f64>,
    /// Readings completed by ingest calls.
    pub readings: u64,
    /// Time inside ingest calls, seconds.
    pub ingest_busy_s: f64,
    /// Per ingest call, milliseconds.
    pub batch_ms: Vec<f64>,
    /// Due time to subscriber receipt, microseconds, with the number of
    /// notifications that waited that long.
    pub trigger_us: Vec<(f64, u64)>,
    /// Per query, microseconds.
    pub query_us: Vec<f64>,
    /// Time inside query calls, seconds.
    pub query_busy_s: f64,
}

impl E2eSamples {
    /// Fills every end-to-end metric into `out`.
    pub fn finish(self, out: &mut Outcome) {
        out.set("setup_s", stats::median(&self.setup_s));
        out.note(format!(
            "set-ups (s, in order): {}",
            self.setup_s
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        out.set(
            "ingest_rps",
            ratio(self.readings as f64, self.ingest_busy_s),
        );
        out.note(format!(
            "queries: {:.0} per second spent in query calls",
            ratio(self.query_us.len() as f64, self.query_busy_s)
        ));
        out.set("rss_peak_mb", peak_rss_mib());
        // Tails are reported at p95: on a small shared host, p99 moves
        // with stalls outside the program (see README.md). The highest
        // supported percentile is still printed in the report.
        let unweighted = |v: Vec<f64>| v.into_iter().map(|x| (x, 1)).collect::<Vec<_>>();
        let series = [
            (
                "batch_p50_ms",
                "batch_p95_ms",
                "ms",
                unweighted(self.batch_ms),
            ),
            ("trigger_p50_us", "trigger_p95_us", "us", self.trigger_us),
            (
                "query_p50_us",
                "query_p95_us",
                "us",
                unweighted(self.query_us),
            ),
        ];
        for (p50, tail_name, unit, samples) in series {
            let n: u64 = samples.iter().map(|s| s.1).sum();
            out.set(p50, stats::weighted_tail(&samples, 0.5).1);
            let (got, value) = stats::weighted_tail(&samples, 0.95);
            out.set(tail_name, value);
            let (top, top_value) = stats::weighted_tail(&samples, 0.99);
            out.note(format!(
                "{tail_name}: {} of {n} samples{}; {} {top_value:.3} {unit}",
                stats::label(got),
                if got == 0.95 {
                    ""
                } else {
                    " (p95 unsupported: too few samples)"
                },
                stats::label(top)
            ));
        }
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (VmHWM), MiB; 0 where unavailable.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Difference of two registry snapshots.
#[derive(Debug)]
pub struct Delta<'a> {
    /// Earlier snapshot.
    pub before: &'a Snapshot,
    /// Later snapshot.
    pub after: &'a Snapshot,
}

impl Delta<'_> {
    /// Counter increase.
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        let get = |s: &Snapshot| s.counter(name).unwrap_or(0);
        get(self.after).saturating_sub(get(self.before)) as f64
    }

    /// Mean of the observations a histogram gained.
    #[must_use]
    pub fn hist_mean(&self, name: &str) -> f64 {
        let get = |s: &Snapshot| s.histogram(name).map_or((0, 0), |h| (h.sum, h.count));
        let (s0, c0) = get(self.before);
        let (s1, c1) = get(self.after);
        ratio(s1.saturating_sub(s0) as f64, c1.saturating_sub(c0) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units here are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_the_benchmark_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{section}\"")).expect("section");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("list end")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|rest| {
                    let name = rest[..rest.find('"').unwrap()].to_string();
                    let u = rest.find("\"unit\": \"").unwrap() + 9;
                    let unit = rest[u..u + rest[u..].find('"').unwrap()].to_string();
                    (name, unit)
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(E2E));
        assert_eq!(declared("per_layer"), ours(LAYERS));
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut out = Outcome {
            attempted: 10,
            valid: true,
            ..Outcome::default()
        };
        out.set("a", 1.5);
        assert_eq!(
            out.result_line(&[("a", "s"), ("b", "ms")]),
            Err(vec!["b".to_string()])
        );
        out.set("b", f64::NAN);
        assert!(out.result_line(&[("a", "s"), ("b", "ms")]).is_err());
        out.set("b", 2.0);
        let line = out.result_line(&[("a", "s"), ("b", "ms")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn mismatches_or_an_invalid_generator_make_a_run_incorrect() {
        let mut out = Outcome {
            attempted: 10,
            valid: true,
            ..Outcome::default()
        };
        out.set("a", 1.0);
        out.mismatch("missing", 0);
        assert!(out
            .result_line(&[("a", "s")])
            .unwrap()
            .contains("\"correct\": true"));
        // A refused operation fails without making the outputs wrong.
        out.fail("query_error", 1);
        let line = out.result_line(&[("a", "s")]).unwrap();
        assert!(line.contains("\"failed\": 1") && line.contains("\"correct\": true"));
        out.mismatch("missing", 1);
        let line = out.result_line(&[("a", "s")]).unwrap();
        assert!(line.contains("\"failed\": 2") && line.contains("\"correct\": false"));
        out.failures.clear();
        out.mismatches = 0;
        out.valid = false;
        assert!(out
            .result_line(&[("a", "s")])
            .unwrap()
            .contains("\"correct\": false"));
    }
}
