//! The result schema, the machine fingerprint and the printed table.

use crate::harness::{Opts, Reduced, RepOutcome};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::Workload;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported number and what it came from.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    /// The median over the repetitions of each repetition's own value.
    pub value: f64,
    pub unit: String,
    /// Samples behind one repetition's value (calls timed, epochs stepped).
    pub samples: u64,
    /// The value of each repetition, in run order.
    pub runs: Vec<f64>,
}

impl MetricValue {
    pub fn single(value: f64, unit: &str, samples: u64) -> MetricValue {
        MetricValue {
            value,
            unit: unit.into(),
            samples,
            runs: vec![value],
        }
    }

    pub fn min(&self) -> f64 {
        self.runs.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.runs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Distance between the first and third quartile of the repetitions as a
    /// share of the value; 0 for a single repetition, which cannot tell.
    pub fn spread(&self) -> f64 {
        match quartiles(&mut self.runs.clone()) {
            Some((q1, q3)) if self.value != 0.0 => (q3 - q1) / self.value.abs(),
            _ => 0.0,
        }
    }
}

/// A line of the phase-share table of the traced run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShareRow {
    /// What is being split: `epoch`, `submit` or `snapshot`.
    pub of: String,
    pub layer: String,
    /// Probe time × calls per operation, microseconds.
    pub us_per_op: f64,
    pub share: f64,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub smoke: bool,
    pub workers: usize,
    /// The CPU the workload's threads were confined to (`socket_faults`
    /// only, and only where that worked).
    pub cpu: Option<usize>,
    pub reps: usize,
    /// True when the process also ran a traced repetition: its end-to-end
    /// values are then not to be used (memory and caches were perturbed).
    pub traced: bool,
    pub end_to_end: BTreeMap<String, MetricValue>,
    pub per_layer: BTreeMap<String, MetricValue>,
    pub phase_share: Vec<ShareRow>,
    /// Host numbers printed beside a ratio as its base.
    pub bases: BTreeMap<String, f64>,
    pub sim_digest: String,
    pub counts: BTreeMap<String, f64>,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub failures: Vec<String>,
}

impl WorkloadResult {
    pub fn from_outcomes(
        workload: Workload,
        opts: &Opts,
        (workers, cpu): (usize, Option<usize>),
        outcomes: &[RepOutcome],
    ) -> WorkloadResult {
        let first = &outcomes[0];
        let mut failures: Vec<String> = outcomes.iter().flat_map(|o| o.failures.clone()).collect();
        // Output check 1: every repetition of a seed prints the same digest
        // and the same counts.
        for (i, other) in outcomes.iter().enumerate().skip(1) {
            if other.sim_digest != first.sim_digest {
                failures.push(format!(
                    "repetition {i} digest {} != {}",
                    other.sim_digest, first.sim_digest
                ));
            }
            if other.counts != first.counts {
                failures.push(format!("repetition {i} counts differ from repetition 0"));
            }
        }
        // A repetition reduces to its own values; the run's value is their median.
        let alone: Vec<Reduced> = outcomes.iter().map(|o| o.series.reduce()).collect();
        let mut end_to_end = BTreeMap::new();
        for metric in END_TO_END.iter().filter(|m| m.bound_on(workload).is_some()) {
            let runs: Vec<f64> = alone.iter().filter_map(|r| r.value(metric.name)).collect();
            if runs.len() != alone.len() {
                if metric.name != "peak_rss_mb" {
                    failures.push(format!("{} was not measured", metric.name));
                }
                continue;
            }
            end_to_end.insert(
                metric.name.to_string(),
                MetricValue {
                    value: median(&mut runs.clone()),
                    unit: metric.unit.into(),
                    samples: alone[0].metrics[metric.name].1,
                    runs,
                },
            );
        }
        let bases = alone[0]
            .bases
            .keys()
            .map(|name| {
                let mut runs: Vec<f64> = alone
                    .iter()
                    .filter_map(|r| r.bases.get(name).copied())
                    .collect();
                (name.clone(), median(&mut runs))
            })
            .collect();
        WorkloadResult {
            workload: workload.name().into(),
            seed: opts.seed,
            smoke: opts.smoke,
            workers,
            cpu,
            reps: outcomes.len(),
            traced: opts.trace,
            end_to_end,
            per_layer: BTreeMap::new(),
            phase_share: Vec::new(),
            bases,
            sim_digest: first.sim_digest.clone(),
            counts: first.counts.clone(),
            ops_attempted: outcomes.iter().map(|o| o.ops_attempted).sum(),
            ops_failed: failures.len() as u64,
            failures,
        }
    }

    pub fn set_peak_rss(&mut self, mib: f64) {
        self.end_to_end
            .insert("peak_rss_mb".into(), MetricValue::single(mib, "MiB", 1));
    }

    pub fn add_failure(&mut self, what: String) {
        self.failures.push(what);
        self.ops_failed = self.failures.len() as u64;
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// `workload name value unit` lines: every metric by name, with its
    /// repetitions' range and its sample count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let w = &self.workload;
        for metric in END_TO_END {
            if let Some(v) = self.end_to_end.get(metric.name) {
                let note = if self.traced {
                    " (traced process: not an end-to-end value)"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "{w} {} {:.4} {} [median of {} reps, min {:.4} max {:.4}; {} samples per rep]{note}",
                    metric.name,
                    v.value,
                    v.unit,
                    v.runs.len(),
                    v.min(),
                    v.max(),
                    v.samples
                );
            }
        }
        for (name, value) in &self.bases {
            let _ = writeln!(out, "{w} base:{name} {value:.4}");
        }
        for metric in PER_LAYER {
            if let Some(v) = self.per_layer.get(metric.name) {
                let _ = writeln!(
                    out,
                    "{w} {} {:.4} {} [{} samples]",
                    metric.name, v.value, v.unit, v.samples
                );
            }
        }
        for row in &self.phase_share {
            let _ = writeln!(
                out,
                "{w} share:{}:{} {:.2} % [{:.1} us per {}]",
                row.of,
                row.layer,
                row.share * 100.0,
                row.us_per_op,
                row.of
            );
        }
        for (name, value) in &self.counts {
            let _ = writeln!(out, "{w} sim:{name} {value}");
        }
        let _ = writeln!(out, "{w} sim_digest {}", self.sim_digest);
        let _ = writeln!(
            out,
            "{w} workers {} reps {} deps {DEPS}",
            self.workers, self.reps
        );
        let _ = writeln!(
            out,
            "{w} ops_attempted {} ops_failed {}",
            self.ops_attempted, self.ops_failed
        );
        for failure in &self.failures {
            let _ = writeln!(out, "{w} FAILED {failure}");
        }
        out
    }
}

/// Where and on what a result was measured.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub git_rev: String,
    pub workers: usize,
    pub seed: u64,
    /// Address family the control-plane sockets use.
    pub sockets: String,
    /// What serde, serde_json, rand and rand_chacha were at build time:
    /// `crates.io`, or `standins` (this crate's `standins/`, where no
    /// registry can be reached). The codec and the RNG are part of what is
    /// timed, so sets that differ here are not comparable.
    pub deps: String,
}

/// Set by `overlay.py` for the build; a plain `cargo build` resolves the
/// published crates or does not build at all.
pub const DEPS: &str = match option_env!("OVNES_E2E_DEPS") {
    Some(deps) => deps,
    None => "crates.io",
};

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

impl Fingerprint {
    pub fn capture(seed: u64) -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                let line = info.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split(':').nth(1)?.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            rustc: command_line("rustc", &["-V"]),
            git_rev: command_line("git", &["rev-parse", "HEAD"]),
            workers: crate::harness::pinned_workers(),
            seed,
            sockets: "loopback TCP 127.0.0.1, ephemeral ports".into(),
            deps: DEPS.into(),
        }
    }
}

/// One set: every workload, with the fingerprint of the machine.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    pub fingerprint: Fingerprint,
    pub workloads: Vec<WorkloadResult>,
}

/// The driver's contract: `correct`, `attempted`, `failed` and `metrics`,
/// with every end-to-end metric of `BENCHMARK.json` for an untraced run and
/// every per-layer metric for a traced one.
pub fn driver_line(result: &WorkloadResult, traced: bool) -> String {
    #[derive(Serialize)]
    struct Value<'a> {
        value: f64,
        unit: &'a str,
    }
    #[derive(Serialize)]
    struct Line<'a> {
        correct: bool,
        attempted: u64,
        failed: u64,
        metrics: BTreeMap<&'a str, Value<'a>>,
    }
    let wanted: Vec<(&str, &str, Option<&MetricValue>)> = if traced {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, result.per_layer.get(m.name)))
            .collect()
    } else {
        crate::metrics::universal()
            .map(|(m, _)| (m.name, m.unit, result.end_to_end.get(m.name)))
            .collect()
    };
    let metrics: BTreeMap<&str, Value<'_>> = wanted
        .iter()
        .filter_map(|&(name, unit, found)| {
            let value = found?.value;
            Some((name, Value { value, unit }))
        })
        .collect();
    let missing = (wanted.len() - metrics.len()) as u64;
    let line = Line {
        correct: result.correct() && missing == 0,
        attempted: result.ops_attempted.max(1),
        failed: result.ops_failed + missing,
        metrics,
    };
    serde_json::to_string(&line).expect("plain numbers and strings serialize")
}
