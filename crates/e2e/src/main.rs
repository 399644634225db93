//! `ovnes-e2e`: run the benchmark, one workload of it, or compare two sets.

use ovnes_e2e::harness::{Opts, REPS};
use ovnes_e2e::report::{driver_line, Fingerprint, RunResult};
use ovnes_e2e::{compare, metrics, run_workload, Workload, WorkloadResult};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage:
  ovnes-e2e run [--seed N] [--reps N] [--smoke] [--trace] [--workload NAME]... [--out-dir DIR]
      every workload, one child process per workload run; writes DIR/result.json
  ovnes-e2e one --workload NAME [--seed N] [--reps N] [--seconds S] [--smoke] [--epochs N]
                [--trace] [--out-dir DIR] [--json FILE]
      one workload in this process; the last line of output is the driver's JSON object.
      --seconds is a cap: no repetition starts that would end after it. --epochs replaces
      the frozen number of timed epochs, to look at a long horizon by hand.
  ovnes-e2e compare SET_A.json SET_B.json
      one row per workload and end-to-end metric; exits 1 on `worse` or a digest mismatch
  ovnes-e2e manifest
      BENCHMARK.json, printed from the metric tables
defaults: --seed 11, --reps 10, --out-dir $CARGO_TARGET_DIR/e2e or target/e2e";

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn values(&self, name: &str) -> Vec<&str> {
        self.0
            .windows(2)
            .filter(|pair| pair[0] == name)
            .map(|pair| pair[1].as_str())
            .collect()
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.values(name).last() {
            None => Ok(None),
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("{name} {text}: not a valid value")),
        }
    }
}

fn default_out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("e2e")
}

fn opts(args: &Args) -> Result<Opts, String> {
    Ok(Opts {
        seed: args.parsed("--seed")?.unwrap_or(11),
        smoke: args.flag("--smoke"),
        epochs: args.parsed("--epochs")?,
        trace: args.flag("--trace"),
        reps: args.parsed("--reps")?.unwrap_or(REPS),
        cap_s: args.parsed("--seconds")?,
        out_dir: args
            .values("--out-dir")
            .last()
            .map_or_else(default_out_dir, PathBuf::from),
    })
}

fn workloads(args: &Args) -> Result<Vec<Workload>, String> {
    let named = args.values("--workload");
    if named.is_empty() {
        return Ok(Workload::ALL.to_vec());
    }
    named
        .into_iter()
        .map(|name| Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}")))
        .collect()
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let mut text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn one(args: &Args) -> Result<bool, String> {
    let opts = opts(args)?;
    let workload = match workloads(args)?.as_slice() {
        [one] => *one,
        _ => return Err("`one` takes exactly one --workload".into()),
    };
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let result = run_workload(workload, &opts);
    if let Some(path) = args.values("--json").last() {
        write_json(Path::new(path), &result)?;
    }
    print!("{}", result.render());
    println!("{}", driver_line(&result, opts.trace));
    Ok(result.correct())
}

/// Run `one` in a child process, so `peak_rss_mb` is the workload's own.
fn child(workload: Workload, opts: &Opts, traced: bool) -> Result<WorkloadResult, String> {
    let suffix = if traced { "-traced" } else { "" };
    let json = opts
        .out_dir
        .join(format!("one-{}{suffix}.json", workload.name()));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["one", "--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--reps", &opts.reps.to_string()])
        .arg("--out-dir")
        .arg(&opts.out_dir)
        .arg("--json")
        .arg(&json)
        .stdout(std::process::Stdio::null());
    if opts.smoke {
        command.arg("--smoke");
    }
    if traced {
        command.arg("--trace");
    }
    let status = command
        .status()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let text = std::fs::read_to_string(&json).map_err(|e| {
        format!(
            "{} {suffix} left no result ({status}): {e}",
            workload.name()
        )
    })?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", json.display()))
}

fn run(args: &Args) -> Result<bool, String> {
    let opts = opts(args)?;
    if opts.cap_s.is_some() || opts.epochs.is_some() {
        return Err("`run` takes neither --seconds nor --epochs: a set is whole repetitions of the frozen sizes".into());
    }
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let mut set = RunResult {
        fingerprint: Fingerprint::capture(opts.seed),
        workloads: Vec::new(),
    };
    for workload in workloads(args)? {
        let mut result = child(workload, &opts, false)?;
        if opts.trace {
            // End-to-end values stay those of the untraced process.
            let traced = child(workload, &opts, true)?;
            result.per_layer = traced.per_layer;
            result.phase_share = traced.phase_share;
            for failure in traced.failures {
                result.add_failure(failure);
            }
        }
        print!("{}", result.render());
        set.workloads.push(result);
    }
    let path = opts.out_dir.join("result.json");
    write_json(&path, &set)?;
    println!("wrote {}", path.display());
    Ok(set.workloads.iter().all(WorkloadResult::correct))
}

fn compare_sets(args: &Args) -> Result<bool, String> {
    let [a, b] = args.0.get(1..).unwrap_or_default() else {
        return Err("`compare` takes two result files".into());
    };
    let load = |path: &String| -> Result<RunResult, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let report = compare::compare(&load(a)?, &load(b)?);
    print!("{}", report.render());
    Ok(report.acceptable())
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let done = match args.0.first().map(String::as_str) {
        Some("run") => run(&args),
        Some("one") => one(&args),
        Some("compare") => compare_sets(&args),
        Some("manifest") => {
            println!("{}", metrics::manifest());
            Ok(true)
        }
        _ => Err(USAGE.into()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
