//! Integration: the identity matrix. Every "run two configurations, compare
//! summary / dashboard / monitoring / telemetry bytes" oracle of the repo is
//! one row of `ROWS`, run through `ovnes_bench::identity::observe` — which pins the
//! worker count of each run under a process-wide lock and asserts it every
//! epoch — and compared artefact by artefact.
//!
//! The axes and what covers them (row names; `-N` = at N workers, every
//! reference runs at 1). Empty cells are combinations nothing runs:
//!
//! ```text
//! driver control process     cut | Calm               | Control            | Substrate            | Combined
//! ------ ------- ----------- --- + ------------------ + ------------------ + -------------------- + -------------------------
//! demo   bus     -           -   | fresh-calm-{123,   | fresh-control      | fresh-substrate      | acceptance-combined
//!                                |  99,5}, workers-   | acceptance-control | acceptance-substrate |
//!                                |  {2,8}, cache-off  |                    | substrate-workers-   |
//!                                |                    |                    |  {2,8}, -cache-off   |
//! demo   bus     -           cut | cut-workers-{1,2,8}|                    | cut-substrate        | cut-combined
//! demo   socket  -           -   | socket-workers-    |                    |                      | socket-combined
//!                                |  {1,2,8}           |                    |                      |
//! demo   socket  -           cut |                    |                    |                      | socket-cut-combined (new)
//! demo   socket  crash storm -   | storm-workers-     |                    |                      | storm-combined (new)
//!                                |  {1,2,8}           |                    |                      |
//! demo   socket  hang        -   | hang               |                    |                      |
//! fed N  bus     -           -   | fed-workers-{2,8}  |                    |                      | fed-chaos-workers-{2,8}
//! fed N  bus     -           cut | fed-cut-2-to-8     |                    |                      |
//! fed 1  bus     -           -   |                    |                    |                      | one-region-is-demo (vs demo)
//! fed *  socket  *           *   |                    |                    |                      |
//! ```
//!
//! Every cell above runs `OrchestratorConfig::default()`: weather off,
//! per-UE fairness off. The `dynamic` axis turns both on (the weather
//! reroute phase, the PF split, `PfState`/`WeatherProcess`/`weather_rng` in
//! the snapshot); its rows witness a weather reroute and a non-empty
//! fairness series in the reference:
//!
//! ```text
//! driver control cut | Calm, dynamic          | Combined, dynamic
//! ------ ------- --- + ---------------------- + ---------------------------------
//! demo   bus     -   | dynamic-workers-{2,8}  |
//! demo   bus     cut | dynamic-cut            |
//! demo   socket  -   | dynamic-socket         |
//! demo   socket  cut |                        | dynamic-combined (cut at 2 → 8 workers)
//! fed *  *       *   |                        |
//! ```

use ovnes_bench::identity::{
    observe, Cell, Control, Cut, Observed, Perturbation, Plans, ProcessFaults, Regions, Witness,
};

/// One oracle: `variant` must show byte for byte what `reference` shows,
/// and `witness(reference, variant)` must hold for the comparison to mean
/// what the row says.
struct Row {
    name: &'static str,
    /// The test(s) this row replaced.
    was: &'static str,
    reference: Cell,
    variant: Cell,
    witness: fn(&Witness, &Witness) -> bool,
}

/// The cells the rows are built from: each suite's base shape, then the
/// axis moves. (Tabular, so kept one to a line.)
#[rustfmt::skip]
mod cells {
    use super::*;
    use {Perturbation as P, Plans::*};

    pub const fn demo(seed: u64) -> Cell { Cell { seed, ..Cell::CALM } }
    /// `tests/failover.rs`'s shape: two hours.
    pub const fn short(seed: u64) -> Cell { Cell { horizon_mins: 120, ..demo(seed) } }
    /// `tests/chaos_e2e.rs`'s shape: hour-long slices under the acceptance plans.
    pub const fn acceptance(seed: u64, perturbation: Perturbation, plans: Plans) -> Cell {
        Cell { mean_duration_mins: 60, perturbation, plans, ..demo(seed) }
    }
    /// `tests/federation.rs`'s shape: heavy enough that home regions reject
    /// and the broker spills.
    pub const fn fed(seed: u64, regions: usize) -> Cell {
        let regions = Regions::Federated(regions);
        Cell { regions, arrivals_per_hour: 40.0, mean_duration_mins: 45, ..short(seed) }
    }
    pub const fn under(perturbation: Perturbation, plans: Plans, cell: Cell) -> Cell {
        Cell { perturbation, plans, ..cell }
    }
    pub const fn at(workers: usize, cell: Cell) -> Cell { Cell { workers, ..cell } }
    pub const fn uncached(cell: Cell) -> Cell { Cell { route_cache: false, ..cell } }
    /// Weather and per-UE fairness on: the phases `OrchestratorConfig::default()` skips.
    pub const fn dynamic(cell: Cell) -> Cell { Cell { dynamic: true, ..cell } }
    pub const fn socket(workers: usize, cell: Cell) -> Cell {
        Cell { control: Control::Socket, workers, ..cell }
    }
    pub const fn storm(workers: usize, cell: Cell) -> Cell {
        Cell { process: ProcessFaults::CrashStorm(2), ..socket(workers, cell) }
    }
    pub const fn hang(cell: Cell) -> Cell { Cell { process: ProcessFaults::Hang, ..socket(1, cell) } }
    /// Snapshot at `at` under 2 workers, resume under `workers`.
    pub const fn cut(at: Cut, workers: usize, cell: Cell) -> Cell {
        Cell { cut: Some(at), cut_workers: 2, workers, ..cell }
    }

    pub const CONTROL_321: Cell = under(P::Control, Stormy(17), demo(321));
    pub const SUBSTRATE_606: Cell = under(P::Substrate, Stormy(17), demo(606));
    pub const SUBSTRATE_909: Cell = under(P::Substrate, Stormy(23), demo(909));
    pub const COMBINED_321: Cell = under(P::Combined, Stormy(17), demo(321));
    pub const COMBINED_404: Cell = under(P::Combined, Stormy(17), short(404));
    pub const FED_CHAOS: Cell = under(P::Combined, Regional, fed(1902, 2));
    pub const LINK_ZERO: Cell = under(P::Combined, LinkZero, fed(1905, 1));
    pub const DYNAMIC: Cell = dynamic(demo(2024));
    pub const DYNAMIC_COMBINED: Cell = dynamic(COMBINED_321);
    pub const ACCEPTANCE_CONTROL: Cell = acceptance(33, P::Control, Acceptance(33 ^ 0xFA11, 0));
    pub const ACCEPTANCE_SUBSTRATE: Cell = acceptance(42, P::Substrate, Acceptance(0, 4242));
    pub const ACCEPTANCE_COMBINED: Cell = acceptance(44, P::Combined, Acceptance(44, 44));
}
use cells::*;

fn any(_: &Witness, _: &Witness) -> bool {
    true
}
fn retried(r: &Witness, v: &Witness) -> bool {
    r.control_retries > 0 && v.control_retries == r.control_retries
}
fn failed(r: &Witness, v: &Witness) -> bool {
    r.element_failures > 0 && v.element_failures == r.element_failures
}
fn both_bit(r: &Witness, v: &Witness) -> bool {
    retried(r, v) && failed(r, v)
}
/// The sky faded and moved at least one slice, and the PF split ran.
fn weathered(r: &Witness, v: &Witness) -> bool {
    r.weather_reroutes > 0
        && r.fairness_samples > 0
        && (v.weather_reroutes, v.fairness_samples) == (r.weather_reroutes, r.fairness_samples)
}
fn cache_stayed_cold(r: &Witness, v: &Witness) -> bool {
    r.route_cache_queries > 0 && v.route_cache_queries == 0
}
fn crossed_sockets(r: &Witness, v: &Witness) -> bool {
    r.socket_requests == 0 && v.socket_requests > 0
}
/// Every dropped probe tore down the RAN server's connection and the client
/// reconnected: each reset consumes one established connection and at most
/// one (the last) is still live at the horizon.
fn drops_were_physical(r: &Witness, v: &Witness) -> bool {
    both_bit(r, v)
        && v.ran_chaos_resets > 0
        && v.ran_connections > 1
        && v.ran_connections >= v.ran_chaos_resets
        && v.ran_connections <= v.ran_chaos_resets + 1
}
/// Six kill-and-restart cycles, one with a provably generated-and-rejected
/// zombie response, every server its third incarnation, and the heartbeat
/// health machine never noticed.
fn stormed(r: &Witness, v: &Witness) -> bool {
    r.crashes == 0
        && v.crashes == 6
        && v.mid_request_crashes == 1
        && v.stale_provoked >= 1
        && v.stale_rejections >= 1
        && v.terms == [3, 3, 3]
        && v.health_incidents == r.health_incidents
}
fn hung(_: &Witness, v: &Witness) -> bool {
    v.hangs == 3 && v.crashes == 0 && v.terms == [1, 1, 1]
}
fn spilled(r: &Witness, v: &Witness) -> bool {
    r.spilled > 0 && v.spilled == r.spilled
}

macro_rules! row {
    ($name:literal, $was:literal, $reference:expr, $variant:expr, $witness:expr) => {
        Row {
            name: $name,
            was: $was,
            reference: $reference,
            variant: $variant,
            witness: $witness,
        }
    };
}

#[rustfmt::skip]
const ROWS: &[Row] = &[
    // ---- tests/determinism.rs ----------------------------------------------
    row!("fresh-calm-123", "determinism::same_seed_identical_summary", demo(123), demo(123), any),
    row!("fresh-calm-99", "determinism::same_seed_identical_dashboard", demo(99), demo(99), any),
    row!("fresh-calm-5", "determinism::monitoring_reports_are_reproducible_across_the_wire", demo(5), demo(5), any),
    row!("fresh-control", "determinism::same_seed_identical_under_active_fault_plan", CONTROL_321, CONTROL_321, retried),
    row!("fresh-substrate", "determinism::substrate_panel_identical_across_fresh_runs", SUBSTRATE_606, SUBSTRATE_606, failed),
    row!("substrate-workers-2", "determinism::substrate_runs_identical_across_thread_counts_and_cache", SUBSTRATE_909, at(2, SUBSTRATE_909), failed),
    row!("substrate-workers-8", "determinism::substrate_runs_identical_across_thread_counts_and_cache", SUBSTRATE_909, at(8, SUBSTRATE_909), failed),
    row!("substrate-cache-off", "determinism::substrate_runs_identical_across_thread_counts_and_cache", SUBSTRATE_909, uncached(SUBSTRATE_909), failed),
    row!("workers-2", "determinism::same_seed_identical_across_thread_counts", demo(2024), at(2, demo(2024)), any),
    row!("workers-8", "determinism::same_seed_identical_across_thread_counts", demo(2024), at(8, demo(2024)), any),
    row!("cache-off", "determinism::route_cache_is_invisible_in_results", demo(777), uncached(demo(777)), cache_stayed_cold),
    row!("cut-combined", "determinism::restored_world_matches_uninterrupted_under_combined_chaos", COMBINED_321, cut(Cut::Seeded(0xE16), 1, COMBINED_321), both_bit),
    row!("cut-substrate", "determinism::restored_substrate_run_matches_final_substrate_summary", SUBSTRATE_606, cut(Cut::At(33), 1, SUBSTRATE_606), failed),
    row!("cut-workers-1", "determinism::restored_world_is_worker_count_invariant", demo(2024), cut(Cut::At(19), 1, demo(2024)), any),
    row!("cut-workers-2", "determinism::restored_world_is_worker_count_invariant", demo(2024), cut(Cut::At(19), 2, demo(2024)), any),
    row!("cut-workers-8", "determinism::restored_world_is_worker_count_invariant", demo(2024), cut(Cut::At(19), 8, demo(2024)), any),
    // ---- tests/rpc_plane.rs ------------------------------------------------
    row!("socket-workers-1", "rpc_plane::socket_control_matches_in_process_at_every_worker_count", demo(2024), socket(1, demo(2024)), crossed_sockets),
    row!("socket-workers-2", "rpc_plane::socket_control_matches_in_process_at_every_worker_count", demo(2024), socket(2, demo(2024)), crossed_sockets),
    row!("socket-workers-8", "rpc_plane::socket_control_matches_in_process_at_every_worker_count", demo(2024), socket(8, demo(2024)), crossed_sockets),
    row!("socket-combined", "rpc_plane::socket_chaos_run_matches_in_process_and_the_faults_are_physical", COMBINED_321, socket(1, COMBINED_321), drops_were_physical),
    // ---- tests/failover.rs -------------------------------------------------
    row!("storm-workers-1", "failover::crash_storm_is_byte_invisible_at_every_worker_count", short(404), storm(1, short(404)), stormed),
    row!("storm-workers-2", "failover::crash_storm_is_byte_invisible_at_every_worker_count", short(404), storm(2, short(404)), stormed),
    row!("storm-workers-8", "failover::crash_storm_is_byte_invisible_at_every_worker_count", short(404), storm(8, short(404)), stormed),
    row!("hang", "failover::hung_servers_stay_invisible_within_the_read_deadline", short(505), hang(short(505)), hung),
    // ---- tests/federation.rs -----------------------------------------------
    row!("fed-workers-2", "federation::federated_run_is_byte_identical_at_1_2_and_8_workers_per_shard", fed(1901, 3), at(2, fed(1901, 3)), spilled),
    row!("fed-workers-8", "federation::federated_run_is_byte_identical_at_1_2_and_8_workers_per_shard", fed(1901, 3), at(8, fed(1901, 3)), spilled),
    row!("fed-chaos-workers-2", "federation::chaotic_federation_stays_byte_identical_across_worker_counts", FED_CHAOS, at(2, FED_CHAOS), retried),
    row!("fed-chaos-workers-8", "federation::chaotic_federation_stays_byte_identical_across_worker_counts", FED_CHAOS, at(8, FED_CHAOS), retried),
    row!("one-region-is-demo", "federation::one_region_federation_is_the_demo_scenario_bitwise_under_combined_chaos", Cell { regions: Regions::Demo, ..LINK_ZERO }, LINK_ZERO, |r, v| both_bit(r, v) && v.spill_admitted == 0),
    row!("fed-cut-2-to-8", "federation::snapshot_cut_under_one_worker_count_resumes_under_another", fed(1903, 2), cut(Cut::At(25), 8, fed(1903, 2)), any),
    // ---- tests/chaos_e2e.rs ------------------------------------------------
    row!("acceptance-control", "chaos_e2e::chaos_runs_are_bit_for_bit_reproducible", ACCEPTANCE_CONTROL, ACCEPTANCE_CONTROL, retried),
    row!("acceptance-substrate", "chaos_e2e::substrate_runs_are_bit_for_bit_reproducible", ACCEPTANCE_SUBSTRATE, ACCEPTANCE_SUBSTRATE, failed),
    row!("acceptance-combined", "chaos_e2e::combined_control_and_substrate_chaos_is_survivable_and_reproducible", ACCEPTANCE_COMBINED, ACCEPTANCE_COMBINED, |r, v| retried(r, v) && r.admitted > 0),
    // ---- cells no suite ran --------------------------------------------------
    row!("socket-cut-combined", "(new) control.rs: a restored world that installs a socket again resumes seamlessly", COMBINED_321, cut(Cut::Seeded(0xE16), 1, socket(1, COMBINED_321)), |r, v| both_bit(r, v) && crossed_sockets(r, v)),
    row!("storm-combined", "(new) the crash storm over a world that is itself under control + substrate chaos", COMBINED_404, storm(1, COMBINED_404), |r, v| stormed(r, v) && both_bit(r, v)),
    // ---- weather + per-UE fairness on (no default-config cell runs these phases) ----
    row!("dynamic-workers-2", "(new) core::orchestrator::tests::epoch_reports_identical_at_any_thread_count, as a full run", DYNAMIC, at(2, DYNAMIC), weathered),
    row!("dynamic-workers-8", "(new) core::orchestrator::tests::epoch_reports_identical_at_any_thread_count, as a full run", DYNAMIC, at(8, DYNAMIC), weathered),
    row!("dynamic-cut", "(new) PfState, WeatherProcess and weather_rng resume from a snapshot", DYNAMIC, cut(Cut::Seeded(0xE16), 1, DYNAMIC), weathered),
    row!("dynamic-socket", "(new) weather and fairness over the socket control plane", DYNAMIC, socket(1, DYNAMIC), |r, v| weathered(r, v) && crossed_sockets(r, v)),
    row!("dynamic-combined", "(new) every epoch phase at once: stormy plans, sockets, a seeded cut, 2 then 8 workers", DYNAMIC_COMBINED, cut(Cut::Seeded(0xE16), 8, socket(1, DYNAMIC_COMBINED)), |r, v| weathered(r, v) && both_bit(r, v) && crossed_sockets(r, v)),
];

#[test]
fn identity_matrix() {
    // Rows share references; each distinct reference cell runs once. The
    // variant always runs fresh, so a row whose two cells are equal still
    // compares two runs.
    let mut references: Vec<(Cell, Observed, Witness)> = Vec::new();
    for row in ROWS {
        eprintln!("row {:<22} {}", row.name, row.was);
        if !references.iter().any(|(cell, ..)| *cell == row.reference) {
            let (observed, witness) = observe(&row.reference);
            references.push((row.reference, observed, witness));
        }
        let (_, reference, reference_witness) = references
            .iter()
            .find(|(cell, ..)| *cell == row.reference)
            .expect("just inserted");
        let (variant, variant_witness) = observe(&row.variant);
        if let Some(difference) = reference.first_difference(&variant) {
            panic!("row {} ({}): {difference}", row.name, row.was);
        }
        assert!(
            (row.witness)(reference_witness, &variant_witness),
            "row {} ({}): the witness check failed\nreference {reference_witness:?}\nvariant {variant_witness:?}",
            row.name,
            row.was,
        );
    }
}
