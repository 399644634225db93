//! `ovnes-e2e compare`: two sets of runs, row by row.
//!
//! One row per workload and end-to-end metric: both values, the relative
//! difference with its base, the bound, and a verdict. `worse` means set B's
//! value is worse than set A's by more than the bound. Where the spread of
//! either set's repetitions (first to third quartile) is wider than the bound
//! the medians cannot tell, and the row is `unresolved` — unless every
//! repetition of one set reads better than every one of the other, which
//! still makes it `ok` or, beyond the bound, `worse`. Digests and counts must
//! match between the sets, and both must have been built against the same
//! dependencies with the same number of workers; other differences of the
//! machine are noted.

use crate::metrics::{Better, END_TO_END};
use crate::report::{MetricValue, RunResult};
use crate::Workload;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative: better).
    pub worsening: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

pub struct Comparison {
    pub rows: Vec<Row>,
    /// Digest, count, failure, coverage and build mismatches.
    pub mismatches: Vec<String>,
    /// Fingerprint fields that differ without making the sets incomparable.
    pub notes: Vec<String>,
}

pub fn judge(better: Better, bound: f64, a: &MetricValue, b: &MetricValue) -> (f64, f64, Verdict) {
    let worsening = better.worsening(a.value, b.value);
    let spread = a.spread().max(b.spread());
    // Does every repetition of `x` read better than every one of `y`?
    let wins_every_run = |x: &MetricValue, y: &MetricValue| match better {
        Better::Lower => x.max() < y.min(),
        Better::Higher => x.min() > y.max(),
    };
    let verdict = if spread <= bound {
        if worsening > bound {
            Verdict::Worse
        } else {
            Verdict::Ok
        }
    } else if wins_every_run(b, a) {
        Verdict::Ok
    } else if worsening > bound && wins_every_run(a, b) {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    };
    (worsening, spread, verdict)
}

pub fn compare(a: &RunResult, b: &RunResult) -> Comparison {
    let mut rows = Vec::new();
    let mut mismatches = Vec::new();
    let mut notes = Vec::new();
    let (fa, fb) = (&a.fingerprint, &b.fingerprint);
    // Stand-in and published dependencies are different programs (codec,
    // RNG), and the worker count changes what an epoch waits for.
    if fa.deps != fb.deps {
        mismatches.push(format!("built against {} and {}", fa.deps, fb.deps));
    }
    if fa.workers != fb.workers {
        mismatches.push(format!("{} and {} workers", fa.workers, fb.workers));
    }
    for (field, va, vb) in [
        ("cpu_model", &fa.cpu_model, &fb.cpu_model),
        ("nproc", &fa.nproc.to_string(), &fb.nproc.to_string()),
        ("kernel", &fa.kernel, &fb.kernel),
        ("rustc", &fa.rustc, &fb.rustc),
        ("seed", &fa.seed.to_string(), &fb.seed.to_string()),
    ] {
        if va != vb {
            notes.push(format!("{field}: {va} != {vb}"));
        }
    }
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.workload == wa.workload) else {
            mismatches.push(format!("{}: missing from set B", wa.workload));
            continue;
        };
        for (set, w) in [("A", wa), ("B", wb)] {
            if w.ops_failed > 0 {
                mismatches.push(format!(
                    "{}: set {set} has {} failed operation(s)",
                    w.workload, w.ops_failed
                ));
            }
        }
        if wa.sim_digest != wb.sim_digest {
            mismatches.push(format!(
                "{}: sim_digest {} != {}",
                wa.workload, wa.sim_digest, wb.sim_digest
            ));
        }
        for (name, value) in &wa.counts {
            if wb.counts.get(name) != Some(value) {
                mismatches.push(format!(
                    "{}: count {name} {value} != {:?}",
                    wa.workload,
                    wb.counts.get(name)
                ));
            }
        }
        for metric in END_TO_END {
            match (
                wa.end_to_end.get(metric.name),
                wb.end_to_end.get(metric.name),
            ) {
                (Some(va), Some(vb)) => {
                    let Some(bound) = Workload::from_name(&wa.workload)
                        .and_then(|workload| metric.bound_on(workload))
                    else {
                        mismatches.push(format!(
                            "{}: {} is not a metric of this workload",
                            wa.workload, metric.name
                        ));
                        continue;
                    };
                    let (worsening, spread, verdict) = judge(metric.better, bound, va, vb);
                    rows.push(Row {
                        workload: wa.workload.clone(),
                        metric: metric.name,
                        unit: metric.unit,
                        a: va.value,
                        b: vb.value,
                        worsening,
                        spread,
                        bound,
                        verdict,
                    });
                }
                (None, None) => {}
                _ => mismatches.push(format!(
                    "{}: {} is in one set only",
                    wa.workload, metric.name
                )),
            }
        }
    }
    for wb in &b.workloads {
        if !a.workloads.iter().any(|w| w.workload == wb.workload) {
            mismatches.push(format!("{}: missing from set A", wb.workload));
        }
    }
    Comparison {
        rows,
        mismatches,
        notes,
    }
}

impl Comparison {
    /// No row is `worse` and nothing mismatches. `unresolved` rows do not
    /// fail the comparison; they are reported as what they are.
    pub fn acceptable(&self) -> bool {
        self.mismatches.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Worse)
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<15} {:<22} {:>12} {:>12} {:<6} {:>22} {:>8} {:>7}  verdict",
            "workload",
            "metric",
            "value A",
            "value B",
            "unit",
            "B worse than A by",
            "spread",
            "bound"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<15} {:<22} {:>12.4} {:>12.4} {:<6} {:>+9.2} % of {:<8.4} {:>6.2} % {:>5.0} %  {}",
                row.workload,
                row.metric,
                row.a,
                row.b,
                row.unit,
                row.worsening * 100.0,
                row.a,
                row.spread * 100.0,
                row.bound * 100.0,
                row.verdict.as_str()
            );
        }
        for mismatch in &self.mismatches {
            let _ = writeln!(out, "MISMATCH {mismatch}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "NOTE {note}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(value: f64, runs: &[f64]) -> MetricValue {
        MetricValue {
            value,
            unit: "ms".into(),
            samples: 1,
            runs: runs.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = value(10.0, &[10.0, 10.1, 9.9, 10.0, 10.05]);
        let same = value(10.2, &[10.2, 10.0, 10.3, 10.25, 10.1]);
        assert_eq!(judge(Better::Lower, 0.10, &a, &same).2, Verdict::Ok);
        let slower = value(11.5, &[11.5, 11.6, 11.4, 11.5, 11.45]);
        let (worsening, _, verdict) = judge(Better::Lower, 0.10, &a, &slower);
        assert!((worsening - 0.15).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Worse);
        // The quartiles of B's repetitions are further apart than the bound.
        let noisy = value(10.0, &[9.0, 10.0, 11.0, 9.2, 10.8]);
        let (_, spread, verdict) = judge(Better::Lower, 0.10, &a, &noisy);
        assert!(spread > 0.10);
        assert_eq!(verdict, Verdict::Unresolved);
        // Wide spread, but every repetition of B beats every one of A.
        let faster = value(6.0, &[5.0, 6.0, 7.0, 5.5, 6.5]);
        assert_eq!(judge(Better::Lower, 0.10, &a, &faster).2, Verdict::Ok);
        // Wide spread and a median beyond the bound: `worse` only when every
        // repetition of B loses to every one of A, `unresolved` otherwise.
        let lost = value(14.0, &[12.0, 14.0, 16.0, 13.0, 15.0]);
        assert_eq!(judge(Better::Lower, 0.10, &a, &lost).2, Verdict::Worse);
        let overlapping = value(11.5, &[9.5, 11.5, 13.5, 10.5, 12.5]);
        let (worsening, _, verdict) = judge(Better::Lower, 0.10, &a, &overlapping);
        assert!(worsening > 0.10);
        assert_eq!(verdict, Verdict::Unresolved);
        // A single repetition has no spread.
        let (before, after) = (value(100.0, &[100.0]), value(85.0, &[85.0]));
        assert_eq!(
            judge(Better::Higher, 0.10, &before, &after).2,
            Verdict::Worse
        );
    }

    #[test]
    fn sets_built_against_different_dependencies_do_not_compare() {
        let set = |deps: &str, kernel: &str| RunResult {
            fingerprint: crate::Fingerprint {
                nproc: 2,
                cpu_model: "cpu".into(),
                kernel: kernel.into(),
                rustc: "rustc".into(),
                git_rev: "rev".into(),
                workers: 2,
                seed: 11,
                sockets: "loopback".into(),
                deps: deps.into(),
            },
            workloads: Vec::new(),
        };
        let same = compare(&set("standins", "6.1"), &set("standins", "6.2"));
        assert!(same.acceptable());
        assert_eq!(same.notes, ["kernel: 6.1 != 6.2"]);
        let mixed = compare(&set("standins", "6.1"), &set("crates.io", "6.1"));
        assert!(!mixed.acceptable());
        assert_eq!(mixed.mismatches, ["built against standins and crates.io"]);
    }
}
