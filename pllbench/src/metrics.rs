//! The metric sheet: every end-to-end and per-layer metric the benchmark
//! reports, with its unit, and the result line a run ends with.

use std::collections::BTreeMap;

use crate::stats::{chunked_tail, median};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.post_ms_p50", "ms"),
    ("server.poll_ms_p50", "ms"),
    ("server.polls_per_job", "count"),
    ("server.results_ms_p50", "ms"),
    ("service.parse_us", "us"),
    ("service.exec_ms_p50", "ms"),
    ("service.outside_exec_share", "share"),
    ("service.journal_appends_per_job", "count"),
    ("service.bytes_per_job", "bytes"),
    ("service.attempts_per_job", "count"),
    ("service.rescan_ms", "ms"),
    ("service.overhead_ratio", "ratio"),
    ("scenario.direct_ms_p50", "ms"),
    ("scenario.settle_ms_p50", "ms"),
    ("campaign.record_us_p50", "us"),
    ("campaign.open_ms_p50", "ms"),
    ("campaign.skipped_share", "share"),
    ("sidecar.hit_ratio", "share"),
    ("sidecar.load_us", "us"),
    ("sidecar.store_us", "us"),
    ("engine.steps_per_tone", "count"),
    ("engine.fb_edges_per_tone", "count"),
    ("engine.step_rejections_per_tone", "count"),
    ("engine.ns_per_step", "ns"),
    ("engine.sim_s_per_host_s", "ratio"),
    ("monitor.nominal_share", "share"),
    ("monitor.settle_share", "share"),
    ("monitor.capture_share", "share"),
    ("monitor.count_share", "share"),
    ("monitor.mfreq_strobes_per_tone", "count"),
    ("monitor.counter_gates_per_tone", "count"),
    ("estimate.fn_err_pct", "%"),
    ("estimate.zeta_err_pct", "%"),
    ("parallel.utilization", "share"),
    ("supervisor.retries", "count"),
    ("supervisor.quarantined", "count"),
    ("host.fsync_ms", "ms"),
    ("host.cpu_calib_ms", "ms"),
    ("host.steal_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: jobs submitted or recovered, device sweeps.
    pub attempted: u64,
    /// Operations that failed, were refused, or produced wrong output.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Context printed ahead of the result line.
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

impl Outcome {
    /// Records metric `name`.
    ///
    /// # Panics
    ///
    /// On a name missing from the sheet: a typo in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric {name}");
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Sets `job_p50_ms` and `job_tail_ms` from per-job times in ms, in
    /// the order the jobs were run. Too few samples for any tail is a failed check, and
    /// the slowest job stands in for the tail.
    pub fn set_job_times(&mut self, ms: &[f64], what: &str) {
        self.set("job_p50_ms", median(ms));
        match chunked_tail(ms) {
            Some((t, chunks)) => {
                self.set("job_tail_ms", t.value);
                self.note(format!(
                    "{what}: p50 of {} samples; tail = median over {chunks} chunks of {} of each chunk's p{}",
                    ms.len(),
                    t.samples,
                    t.pct
                ));
            }
            None => {
                self.set("job_tail_ms", ms.iter().copied().fold(0.0, f64::max));
                self.fail(format!(
                    "{what}: {} samples are too few for a tail",
                    ms.len()
                ));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result line: the end-to-end metrics of an untraced run or the
    /// per-layer metrics of a traced one.
    ///
    /// # Panics
    ///
    /// When an end-to-end metric was never set: a bug in a workload.
    pub fn result_line(&self, traced: bool) -> String {
        let sheet = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = sheet
            .iter()
            .map(|(name, unit)| {
                let value = match self.get(name) {
                    Some(v) => v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_the_sheet_in_order() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            o.set(name, 1.5 + i as f64);
        }
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        // Per-layer metrics of unexercised layers read 0.
        assert!(o
            .result_line(true)
            .contains("\"trace.overhead_pct\":{\"value\":0.0,\"unit\":\"%\"}"));
        o.fail("bad".into());
        assert!(o.result_line(false).contains("\"correct\":false"));
    }

    #[test]
    fn benchmark_json_lists_exactly_this_sheet() {
        let text = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        let declared = text.matches("\"name\":").count();
        let workloads = text.matches("\"why\":").count();
        assert_eq!(declared - workloads, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
