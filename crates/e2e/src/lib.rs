//! `ovnes-e2e`: the repository's benchmark.
//!
//! Four workloads drive the orchestrator through its public functions only
//! and time those calls from outside; see `README.md` for the metric
//! glossary, the interaction table and how the sizes were chosen.

pub mod compare;
pub mod harness;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod worlds;

pub use harness::{run_workload, Opts};
pub use report::{Fingerprint, MetricValue, RunResult, WorkloadResult};

/// The four workloads. Their names are fixed: later issues cite them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Workload {
    UeDense,
    AdmitChurn,
    SocketFaults,
    FedCheckpoint,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::UeDense,
        Workload::AdmitChurn,
        Workload::SocketFaults,
        Workload::FedCheckpoint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UeDense => "ue_dense",
            Workload::AdmitChurn => "admit_churn",
            Workload::SocketFaults => "socket_faults",
            Workload::FedCheckpoint => "fed_checkpoint",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (`BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::UeDense => {
                "96 slices x 1000 UEs on 16 cells, no arrivals: the UE plane (mobility, CQI, PF grants, par_map) does the work, the decision plane idles"
            }
            Workload::AdmitChurn => {
                "6 submits per epoch of 10-min slices over a 2000-switch mesh: admission, CSPF routing, placement and teardown do the work, 4 UEs per slice"
            }
            Workload::SocketFaults => {
                "Fig. 2 testbed under weather and substrate faults, control plane on loopback TCP: codec, sockets, reroute and redeploy do the work"
            }
            Workload::FedCheckpoint => {
                "4-region federation with spill admission, a checkpoint every 10 epochs and periodic restores: serde, SHA-256 and the store do the work"
            }
        }
    }

    /// Whether the workload's process confines itself to one CPU. Only
    /// `socket_faults` does: its epochs are so small that, with the three
    /// domain servers on another core, an epoch is a chain of cross-core
    /// wake-ups, and on a shared 2-vCPU box each of those waits for the host
    /// to schedule the other vCPU. That wait, not the program, then sets the
    /// epoch time (0.8–3 ms from one minute to the next, against 0.4 ms that
    /// repeat on one CPU; README, "Load shape"). The other workloads keep both
    /// cores, so what `par_map` spreads over the workers runs in parallel.
    pub fn one_cpu(self) -> bool {
        self == Workload::SocketFaults
    }

    /// Run one repetition into `rep`.
    pub fn run_rep(self, opts: &Opts, rep: harness::Rep<'_>) -> harness::RepOutcome {
        match self {
            Workload::UeDense => workloads::ue_dense::run(opts, rep),
            Workload::AdmitChurn => workloads::admit_churn::run(opts, rep),
            Workload::SocketFaults => workloads::socket_faults::run(opts, rep),
            Workload::FedCheckpoint => workloads::fed_checkpoint::run(opts, rep),
        }
    }
}
