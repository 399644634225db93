//! What every workload shares: the recorder of one repetition (timed calls,
//! spans, failures, the digest), and the loop that runs a fixed number of
//! repetitions, whose medians the report takes.

use crate::probes::Probes;
use crate::stats::{drift_ratio, median, summarize};
use crate::trace::Tracer;
use crate::{Workload, WorkloadResult};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// How a run is sized and seeded.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Seed of the harness's generators; the program sees only what they make.
    pub seed: u64,
    /// Every workload at 1/50 of its length.
    pub smoke: bool,
    /// Timed epochs of a repetition in place of the workload's frozen count:
    /// for looking at a long horizon by hand, never for a result to compare.
    pub epochs: Option<u64>,
    /// Run one untraced repetition, then a traced one with layer probes.
    pub trace: bool,
    /// Untraced repetitions to run when not tracing.
    pub reps: usize,
    /// Start no repetition that, at the length of the one before it, would
    /// end after this many seconds. A cap only: [`REPS`] repetitions fit a
    /// driver's run with room to spare, and the value of a run is a median
    /// over its repetitions, which does not lean either way when there are
    /// fewer of them.
    pub cap_s: Option<f64>,
    /// Where checkpoints and traces are written.
    pub out_dir: PathBuf,
}

/// Repetitions of a run, frozen: every run of every commit does the same
/// work. One repetition takes about two seconds on the 2-core reference box
/// (the epoch counts in `workloads/` are calibrated to that), so ten of them
/// fit the 30 s of `BENCHMARK.json` (README, "How the sizes were chosen").
pub const REPS: usize = 10;

impl Opts {
    /// Timed epochs of one repetition of a workload whose frozen count is `full`.
    pub fn timed_epochs(&self, full: u64) -> u64 {
        match self.epochs {
            Some(epochs) => epochs,
            None if self.smoke => (full / 50).max(2),
            None => full,
        }
    }

    /// Where this process keeps checkpoint stores while it runs. Nothing in
    /// it is deleted before the last repetition has been timed: the disk is
    /// mounted with online discard, and freeing a store's blocks slows the
    /// file operations of whoever checkpoints next, by half after a few
    /// repetitions. [`run_workload`] removes the directory when it is done.
    pub fn scratch_dir(&self) -> PathBuf {
        self.out_dir.join(format!("tmp-{}", std::process::id()))
    }
}

/// A kind of harness→program call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Submit,
    Epoch,
    Render,
    Snapshot,
    Restore,
}

impl Op {
    fn span_name(self) -> &'static str {
        match self {
            Op::Submit => "submit",
            Op::Epoch => "epoch",
            Op::Render => "render",
            Op::Snapshot => "snapshot",
            Op::Restore => "restore",
        }
    }
}

/// Wall-clock of every timed call of one repetition, in nanoseconds and in
/// call order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Series {
    /// Repetition start → first timed call, seconds.
    pub setup_s: f64,
    /// Iterations of the timed loop; their sum is the loop's wall-clock.
    pub step: Vec<f64>,
    pub epoch: Vec<f64>,
    pub submit: Vec<f64>,
    pub snapshot: Vec<f64>,
    pub restore: Vec<f64>,
    /// `socket_faults` only: the epochs of phase A, the base of its ratio.
    pub bus_epoch: Vec<f64>,
}

impl Series {
    /// Epochs the timed loop stepped (replays included).
    pub fn epochs(&self) -> u64 {
        self.epoch.len() as u64
    }

    pub fn loop_s(&self) -> f64 {
        self.step.iter().sum::<f64>() / 1e9
    }

    pub fn epochs_per_s(&self) -> f64 {
        self.epochs() as f64 / self.loop_s()
    }

    pub fn epoch_ms(&self) -> Vec<f64> {
        self.epoch.iter().map(|ns| ns / 1e6).collect()
    }

    /// Every end-to-end metric this series has samples for, with its sample
    /// count, and the host numbers printed beside them as bases.
    pub fn reduce(&self) -> Reduced {
        let mut reduced = Reduced::default();
        reduced.put("setup_s", self.setup_s, 1);
        reduced.put("epochs_per_s", self.epochs_per_s(), self.epochs());
        let mut epoch_ms = self.epoch_ms();
        let (p50, tail) = summarize(&mut epoch_ms);
        reduced.put("epoch_ms_p50", p50, self.epochs());
        // The highest percentile with ten samples beyond it, beside the median.
        if let Some((p, value)) = tail {
            reduced.bases.insert(format!("epoch_ms_p{p}"), value);
        }
        // Above 1 the epochs got slower as the repetition aged; with the
        // frozen counts there is little history to age (see `--epochs`).
        if let Some(drift) = drift_ratio(&self.epoch) {
            reduced.bases.insert("epoch_drift_ratio".into(), drift);
        }
        for (name, ns, scale) in [
            ("submit_us_p50", &self.submit, 1e3),
            ("snapshot_ms_p50", &self.snapshot, 1e6),
            ("restore_ms_p50", &self.restore, 1e6),
        ] {
            if !ns.is_empty() {
                let mut scaled: Vec<f64> = ns.iter().map(|v| v / scale).collect();
                reduced.put(name, median(&mut scaled), ns.len() as u64);
            }
        }
        if !self.bus_epoch.is_empty() {
            let bus_p50 = median(&mut self.bus_epoch.iter().map(|ns| ns / 1e6).collect::<Vec<_>>());
            reduced.put("socket_over_bus_ratio", p50 / bus_p50, self.epochs());
            reduced.bases.insert("bus_epoch_ms_p50".into(), bus_p50);
            reduced.bases.insert("socket_epoch_ms_p50".into(), p50);
        }
        reduced
    }
}

/// The host numbers of one [`Series`].
#[derive(Clone, Debug, Default)]
pub struct Reduced {
    /// End-to-end metric name → (value, samples behind it).
    pub metrics: BTreeMap<&'static str, (f64, u64)>,
    pub bases: BTreeMap<String, f64>,
}

impl Reduced {
    fn put(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.insert(name, (value, samples));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|(value, _)| *value)
    }
}

/// The recorder of one repetition.
pub struct Rep<'t> {
    pub tracer: Option<&'t mut Tracer>,
    pub probes: Option<&'t mut Probes>,
    started: Instant,
    pub series: Series,
    /// True from the first timed loop iteration on.
    timing: bool,
    pub ops_attempted: u64,
    pub failures: Vec<String>,
    digest: [u8; 32],
    op_id: u64,
}

impl<'t> Rep<'t> {
    pub fn new(tracer: Option<&'t mut Tracer>, probes: Option<&'t mut Probes>) -> Self {
        Rep {
            tracer,
            probes,
            started: Instant::now(),
            series: Series::default(),
            timing: false,
            ops_attempted: 0,
            failures: Vec::new(),
            digest: [0; 32],
            op_id: 0,
        }
    }

    /// Start the set-up clock again (a repetition whose first phase is not
    /// the one it reports).
    pub fn restart_clock(&mut self) {
        self.started = Instant::now();
        self.timing = false;
    }

    /// Size the sample vectors before the timed loop, so recording a sample
    /// never reallocates inside it.
    pub fn reserve(&mut self, epochs: usize, submits: usize) {
        self.series.step.reserve(epochs);
        self.series.epoch.reserve(epochs);
        self.series.submit.reserve(submits);
    }

    /// One iteration of the timed loop. The loop's wall-clock is the sum of
    /// its iterations, so what the harness does between them (digesting
    /// outputs, probing layers) is not charged to the program.
    pub fn step<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.timing {
            self.timing = true;
            self.series.setup_s = self.started.elapsed().as_secs_f64();
        }
        self.op_id += 1;
        let op_id = self.op_id;
        let span = self.tracer.as_mut().map(|t| t.enter("step", op_id));
        let start = Instant::now();
        let out = f(self);
        self.series.step.push(start.elapsed().as_nanos() as f64);
        if let (Some(t), Some(span)) = (self.tracer.as_mut(), span) {
            t.exit(span);
        }
        out
    }

    /// Time one call into the program. Submits are sampled wherever they
    /// happen; the other kinds only inside [`Rep::step`], so warm-up epochs
    /// leave no samples.
    pub fn timed<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R {
        let op_id = self.op_id;
        let span = self.tracer.as_mut().map(|t| t.enter(op.span_name(), op_id));
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as f64;
        if let (Some(t), Some(span)) = (self.tracer.as_mut(), span) {
            t.exit(span);
        }
        if op == Op::Submit || self.timing {
            self.ops_attempted += 1;
            match op {
                Op::Submit => self.series.submit.push(ns),
                Op::Epoch => self.series.epoch.push(ns),
                // A render is part of its loop iteration; it has no metric
                // of its own (`dashboard.capture_render_us_p50` is a probe).
                Op::Render => {}
                Op::Snapshot => self.series.snapshot.push(ns),
                Op::Restore => self.series.restore.push(ns),
            }
        }
        out
    }

    /// Record a failed operation or a broken output check.
    pub fn fail(&mut self, what: impl Into<String>) {
        let what = what.into();
        if self.failures.len() < 20 {
            self.failures.push(what);
        } else if self.failures.len() == 20 {
            self.failures.push("… more failures".into());
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Fold program output into the repetition's digest (a SHA-256 chain).
    pub fn digest(&mut self, bytes: &[u8]) {
        let mut input = Vec::with_capacity(32 + bytes.len());
        input.extend_from_slice(&self.digest);
        input.extend_from_slice(bytes);
        self.digest = ovnes_api::snapshot::sha256(&input);
    }

    pub fn digest_json<T: Serialize>(&mut self, value: &T) {
        match serde_json::to_vec(value) {
            Ok(bytes) => self.digest(&bytes),
            Err(e) => self.fail(format!("output does not serialize: {e}")),
        }
    }

    pub fn digest_hex(&self) -> String {
        self.digest.iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// What one repetition produced.
#[derive(Clone, Debug)]
pub struct RepOutcome {
    pub series: Series,
    pub sim_digest: String,
    /// Sim-side counts; they repeat exactly for a seed.
    pub counts: BTreeMap<String, f64>,
    pub ops_attempted: u64,
    pub failures: Vec<String>,
}

/// Close a repetition whose timed loop has ended.
pub fn finish(rep: Rep<'_>, counts: BTreeMap<String, f64>) -> RepOutcome {
    let sim_digest = rep.digest_hex();
    let mut series = rep.series;
    if !rep.timing {
        series.setup_s = rep.started.elapsed().as_secs_f64();
    }
    RepOutcome {
        series,
        sim_digest,
        counts,
        ops_attempted: rep.ops_attempted,
        failures: rep.failures,
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Workers pinned for every workload: two, or one on a single-core box.
pub fn pinned_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Confine the calling thread, and every thread it spawns from here on, to
/// the CPU it is running on, and return that CPU (see [`Workload::one_cpu`]).
#[cfg(target_os = "linux")]
pub fn confine_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no argument and only reads.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = vec![0u64; cpu / 64 + 1];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is live for the call and `cpusetsize` is its length in
    // bytes, a multiple of the kernel's word; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, mask.len() * 8, mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn confine_to_current_cpu() -> Option<usize> {
    None
}

/// Run `workload`: `opts.reps` untraced repetitions, then, if asked, one
/// traced repetition with layer probes.
pub fn run_workload(workload: Workload, opts: &Opts) -> WorkloadResult {
    // Asked before any confinement, so it is the machine's count that
    // decides and `par_map` keeps its spawn-and-join path.
    let workers = pinned_workers();
    ovnes_sim::par::set_thread_override(Some(workers));
    let cpu = workload.one_cpu().then(confine_to_current_cpu).flatten();
    let started = Instant::now();
    let mut outcomes: Vec<RepOutcome> = Vec::new();
    // Read after the first repetition: the high-water mark of one pass over
    // the workload, however many repetitions follow.
    let mut peak_rss = f64::NAN;
    let reps = if opts.trace { 1 } else { opts.reps.max(1) };
    while outcomes.len() < reps {
        let rep_started = Instant::now();
        outcomes.push(workload.run_rep(opts, Rep::new(None, None)));
        if outcomes.len() == 1 {
            peak_rss = peak_rss_mb();
        }
        // Another repetition of the same length would overrun the cap.
        let next_ends = started.elapsed().as_secs_f64() + rep_started.elapsed().as_secs_f64();
        if opts.cap_s.is_some_and(|cap| next_ends > cap) {
            break;
        }
    }
    let mut result = WorkloadResult::from_outcomes(workload, opts, (workers, cpu), &outcomes);
    result.set_peak_rss(peak_rss);
    if opts.trace {
        crate::probes::traced_repetition(workload, opts, &outcomes, &mut result);
    }
    let _ = std::fs::remove_dir_all(opts.scratch_dir());
    result
}
