//! Every workload at 1/50 length, through the library the binary wraps:
//! the result parses, names are well formed, each workload carries exactly
//! its end-to-end metrics, nothing fails, and digests follow the seed.

use ovnes_e2e::harness::Opts;
use ovnes_e2e::metrics::{END_TO_END, PER_LAYER};
use ovnes_e2e::{report, run_workload, Workload, WorkloadResult};
use std::path::PathBuf;

fn smoke(workload: Workload, seed: u64, trace: bool, tag: &str) -> WorkloadResult {
    let out_dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{tag}", workload.name()));
    std::fs::create_dir_all(&out_dir).unwrap();
    let opts = Opts {
        seed,
        smoke: true,
        epochs: None,
        trace,
        reps: 2,
        cap_s: None,
        out_dir,
    };
    run_workload(workload, &opts)
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn check_workload(workload: Workload) {
    let first = smoke(workload, 11, false, "a");
    assert_eq!(first.failures, Vec::<String>::new());
    assert_eq!(first.ops_failed, 0);
    assert!(first.ops_attempted > 0);

    // The result survives its own JSON.
    let text = serde_json::to_string_pretty(&first).unwrap();
    let parsed: WorkloadResult = serde_json::from_str(&text).unwrap();
    assert_eq!(parsed, first);

    // Exactly the end-to-end metrics listed for the workload, all finite.
    let expected: Vec<&str> = END_TO_END
        .iter()
        .filter(|m| m.bound_on(workload).is_some())
        .map(|m| m.name)
        .collect();
    let mut reported: Vec<&str> = first.end_to_end.keys().map(String::as_str).collect();
    let mut wanted = expected.clone();
    wanted.sort_unstable();
    reported.sort_unstable();
    assert_eq!(reported, wanted);
    for (name, value) in &first.end_to_end {
        assert!(well_formed(name), "{name}");
        assert!(
            value.value.is_finite() && value.value > 0.0,
            "{name} = {}",
            value.value
        );
    }
    for name in first.counts.keys() {
        assert!(well_formed(name), "{name}");
    }

    // The driver's line carries the metrics every workload reports.
    let line: serde_json::Value =
        serde_json::from_str(&report::driver_line(&first, false)).unwrap();
    assert_eq!(line["correct"], true);
    assert_eq!(line["failed"], 0u64);
    for metric in ["setup_s", "epochs_per_s", "epoch_ms_p50", "peak_rss_mb"] {
        assert!(
            line["metrics"][metric]["value"].as_f64().unwrap() > 0.0,
            "{metric}"
        );
    }

    // Same seed, same digest and counts; another seed, another digest.
    let again = smoke(workload, 11, false, "b");
    assert_eq!(again.sim_digest, first.sim_digest);
    assert_eq!(again.counts, first.counts);
    let other = smoke(workload, 12, false, "c");
    assert_eq!(other.failures, Vec::<String>::new());
    assert_ne!(other.sim_digest, first.sim_digest);
}

#[test]
fn ue_dense_smoke() {
    check_workload(Workload::UeDense);
}

#[test]
fn admit_churn_smoke() {
    check_workload(Workload::AdmitChurn);
}

#[test]
fn socket_faults_smoke() {
    check_workload(Workload::SocketFaults);
}

#[test]
fn fed_checkpoint_smoke() {
    check_workload(Workload::FedCheckpoint);
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let traced = smoke(Workload::SocketFaults, 11, true, "traced");
    assert_eq!(traced.failures, Vec::<String>::new());
    for metric in PER_LAYER {
        assert!(well_formed(metric.name), "{}", metric.name);
        let value = traced
            .per_layer
            .get(metric.name)
            .unwrap_or_else(|| panic!("{} missing", metric.name));
        assert!(value.value.is_finite(), "{} = {}", metric.name, value.value);
    }
    let line: serde_json::Value =
        serde_json::from_str(&report::driver_line(&traced, true)).unwrap();
    assert_eq!(line["metrics"].as_object().unwrap().len(), PER_LAYER.len());
    // The phase-share table splits an epoch, a submit, and accounts for all of each.
    for of in ["epoch", "submit"] {
        let total: f64 = traced
            .phase_share
            .iter()
            .filter(|row| row.of == of)
            .map(|row| row.share)
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "{of} shares sum to {total}");
    }
}

#[test]
fn manifest_lists_every_table_entry_once() {
    let manifest: serde_json::Value =
        serde_json::from_str(&ovnes_e2e::metrics::manifest()).unwrap();
    assert_eq!(
        manifest["workloads"].as_array().unwrap().len(),
        Workload::ALL.len()
    );
    assert_eq!(
        manifest["per_layer"].as_array().unwrap().len(),
        PER_LAYER.len()
    );
    let mut names: Vec<&str> = ["workloads", "end_to_end", "per_layer"]
        .iter()
        .flat_map(|key| manifest[*key].as_array().unwrap())
        .map(|entry| entry["name"].as_str().unwrap())
        .collect();
    assert!(names.iter().all(|name| well_formed(name)));
    let listed = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), listed, "a name is used twice");
    assert!(manifest["end_to_end"]
        .as_array()
        .unwrap()
        .iter()
        .any(|m| m["name"] == "setup_s" && m["unit"] == "s" && m["better"] == "lower"));
}
