//! The RAN domain controller.
//!
//! One of the three hierarchical controllers of the demo (§2): it owns the
//! eNBs, executes the orchestrator's PLMN install/resize/release commands,
//! runs the per-epoch PRB scheduler, and publishes utilization telemetry
//! upstream through its [`MetricRegistry`].

use crate::cell::{Enb, PlmnReservation, RanError};
use crate::scheduler::{schedule_epoch_into, SliceLoad, SliceScheduleOutcome, SliceScratch};
use ovnes_model::{EnbId, PlmnId, Prbs, RateMbps, SliceId};
use ovnes_sim::{MetricRegistry, SimTime, SERIES_WINDOW};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Offered traffic of one slice this epoch, as the orchestrator reports it.
#[derive(Clone, Debug, PartialEq)]
pub struct OfferedLoad {
    /// The slice.
    pub slice: SliceId,
    /// Offered traffic.
    pub offered: RateMbps,
    /// Effective per-PRB rate for this slice's UEs this epoch.
    pub prb_rate: RateMbps,
}

/// Telemetry snapshot of the whole RAN domain.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RanSnapshot {
    /// Per-eNB rows.
    pub enbs: Vec<EnbRow>,
}

/// One eNB's row in a [`RanSnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EnbRow {
    /// The eNB.
    pub enb: EnbId,
    /// Grid size.
    pub total: Prbs,
    /// PRBs reserved across installed PLMNs.
    pub reserved: Prbs,
    /// Sum of nominal (SLA-peak) PRB needs.
    pub nominal: Prbs,
    /// Installed PLMN count.
    pub plmns: usize,
    /// nominal / total — above 1.0 the cell is overbooked.
    pub overbooking_factor: f64,
    /// False while the cell is failed (substrate outage).
    pub up: bool,
}

/// Persistent per-cell working state of the epoch pipeline: the cell's
/// collected loads, its scheduling scratch, and its outcomes, reused every
/// epoch so the pipeline allocates nothing in steady state. One batch per
/// managed eNB, kept sorted by id (the collect phase binary-searches, the
/// schedule loop iterates in ascending-id order).
struct CellBatch {
    enb: EnbId,
    /// The cell's grid size (immutable per eNB).
    total: Prbs,
    /// Cached telemetry key: `format!` per epoch is an allocation.
    metric_name: String,
    loads: Vec<SliceLoad>,
    outs: Vec<SliceScheduleOutcome>,
    sched: SliceScratch,
}

/// The RAN domain controller. See module docs.
pub struct RanController {
    enbs: BTreeMap<EnbId, Enb>,
    /// Which eNB each slice is installed on.
    placements: BTreeMap<SliceId, EnbId>,
    /// Cells currently failed: they schedule nothing and accept no new
    /// PLMNs, but keep their reservations so recovery can re-attach or
    /// restore them.
    down_cells: BTreeSet<EnbId>,
    metrics: MetricRegistry,
    /// Epoch-pipeline scratch, one entry per eNB in ascending-id order.
    batches: Vec<CellBatch>,
}

impl RanController {
    /// A controller managing `enbs`.
    ///
    /// # Panics
    /// Panics if two eNBs share an id.
    pub fn new(enbs: Vec<Enb>) -> RanController {
        let mut map = BTreeMap::new();
        for enb in enbs {
            let prev = map.insert(enb.id(), enb);
            assert!(prev.is_none(), "duplicate eNB id");
        }
        let mut metrics = MetricRegistry::new();
        let batches = map
            .values()
            .map(|enb| {
                let metric_name = format!("ran.{}.prb_utilization", enb.id());
                // Pre-create the series with its whole window (plus one:
                // `record` pushes before it evicts) so the epoch's record
                // path is a pure lookup that never reallocates.
                metrics.series(&metric_name).reserve(SERIES_WINDOW + 1);
                CellBatch {
                    enb: enb.id(),
                    total: enb.total_prbs(),
                    metric_name,
                    loads: Vec::new(),
                    outs: Vec::new(),
                    sched: SliceScratch::new(),
                }
            })
            .collect();
        RanController {
            enbs: map,
            placements: BTreeMap::new(),
            down_cells: BTreeSet::new(),
            metrics,
            batches,
        }
    }

    /// Ids of all managed eNBs.
    pub fn enb_ids(&self) -> Vec<EnbId> {
        self.enbs.keys().copied().collect()
    }

    /// The eNB serving `slice`, if installed.
    pub fn placement(&self, slice: SliceId) -> Option<EnbId> {
        self.placements.get(&slice).copied()
    }

    /// The reservation of `slice`, if installed.
    pub fn reservation(&self, slice: SliceId) -> Option<&PlmnReservation> {
        let enb = self.placements.get(&slice)?;
        self.enbs[enb].reservation(slice)
    }

    /// The eNB with the most available PRBs that can still broadcast another
    /// PLMN and fit `prbs`, or `None` if the RAN cannot host the slice.
    /// Failed cells are never candidates.
    pub fn best_fit(&self, prbs: Prbs) -> Option<EnbId> {
        self.enbs
            .values()
            .filter(|e| {
                !self.down_cells.contains(&e.id())
                    && e.available_prbs() >= prbs
                    && e.plmn_count() < e.config().max_plmns
            })
            .max_by_key(|e| (e.available_prbs(), std::cmp::Reverse(e.id())))
            .map(|e| e.id())
    }

    /// True unless `enb` is currently failed. Unknown cells are reported
    /// as down.
    pub fn cell_is_up(&self, enb: EnbId) -> bool {
        self.enbs.contains_key(&enb) && !self.down_cells.contains(&enb)
    }

    /// Currently failed cells, ascending.
    pub fn down_cells(&self) -> Vec<EnbId> {
        self.down_cells.iter().copied().collect()
    }

    /// Slices installed on `enb`, ascending.
    pub fn slices_on_cell(&self, enb: EnbId) -> Vec<SliceId> {
        self.placements
            .iter()
            .filter(|(_, &e)| e == enb)
            .map(|(&s, _)| s)
            .collect()
    }

    /// Take `enb` out of service and return the slices attached to it,
    /// ascending. Reservations stay installed (the grid state survives the
    /// outage); the scheduler simply stops serving the cell. Failing an
    /// already-down or unknown cell is a no-op returning no slices.
    pub fn fail_cell(&mut self, enb: EnbId) -> Vec<SliceId> {
        if !self.enbs.contains_key(&enb) || !self.down_cells.insert(enb) {
            return Vec::new();
        }
        self.metrics.counter("ran.cell_failures").inc();
        self.slices_on_cell(enb)
    }

    /// Return `enb` to service. True if it was down.
    pub fn revive_cell(&mut self, enb: EnbId) -> bool {
        if !self.down_cells.remove(&enb) {
            return false;
        }
        self.metrics.counter("ran.cell_recoveries").inc();
        true
    }

    /// Move `slice` to the best-fitting live cell, releasing its current
    /// PLMN first (the recovery pipeline's cell re-attach step). If no live
    /// cell fits, the original installation is restored untouched and an
    /// error is returned.
    pub fn reattach(&mut self, slice: SliceId) -> Result<EnbId, RanError> {
        let old = *self
            .placements
            .get(&slice)
            .ok_or(RanError::NotInstalled(slice))?;
        let res = self
            .enbs
            .get_mut(&old)
            .expect("placement points at a managed eNB")
            .release_plmn(slice)?;
        self.placements.remove(&slice);
        match self.best_fit(res.reserved) {
            Some(target) => {
                self.enbs
                    .get_mut(&target)
                    .expect("best_fit returns a managed eNB")
                    .install_plmn(slice, res.plmn, res.reserved, res.nominal)
                    .expect("best_fit guarantees the slot");
                self.placements.insert(slice, target);
                self.metrics.counter("ran.reattaches").inc();
                Ok(target)
            }
            None => {
                self.enbs
                    .get_mut(&old)
                    .expect("placement pointed at a managed eNB")
                    .install_plmn(slice, res.plmn, res.reserved, res.nominal)
                    .expect("the slot was just freed");
                self.placements.insert(slice, old);
                Err(RanError::InsufficientPrbs {
                    requested: res.reserved,
                    available: Prbs::ZERO,
                })
            }
        }
    }

    /// Install `slice` as `plmn` on `enb` with the given reservation.
    pub fn install(
        &mut self,
        enb: EnbId,
        slice: SliceId,
        plmn: PlmnId,
        reserved: Prbs,
        nominal: Prbs,
    ) -> Result<(), RanError> {
        let cell = self
            .enbs
            .get_mut(&enb)
            .ok_or(RanError::NotInstalled(slice))?;
        cell.install_plmn(slice, plmn, reserved, nominal)?;
        self.placements.insert(slice, enb);
        self.metrics.counter("ran.installs").inc();
        Ok(())
    }

    /// Resize `slice`'s reservation (overbooking reconfiguration).
    pub fn resize(&mut self, slice: SliceId, reserved: Prbs) -> Result<(), RanError> {
        let enb = *self
            .placements
            .get(&slice)
            .ok_or(RanError::NotInstalled(slice))?;
        self.enbs
            .get_mut(&enb)
            .expect("placement points at a managed eNB")
            .resize_reservation(slice, reserved)?;
        self.metrics.counter("ran.resizes").inc();
        Ok(())
    }

    /// Release `slice`'s PLMN and reservation.
    pub fn release(&mut self, slice: SliceId) -> Result<PlmnReservation, RanError> {
        let enb = self
            .placements
            .remove(&slice)
            .ok_or(RanError::NotInstalled(slice))?;
        let res = self
            .enbs
            .get_mut(&enb)
            .expect("placement points at a managed eNB")
            .release_plmn(slice)?;
        self.metrics.counter("ran.releases").inc();
        Ok(res)
    }

    /// Run one scheduling epoch at `now`: split `offered` by serving eNB,
    /// schedule each cell, record telemetry, and return all outcomes.
    ///
    /// Cells are independent PRB grids, scheduled one after the other in
    /// ascending eNB id on the calling thread: a whole domain's scheduling
    /// costs less than one thread spawn.
    ///
    /// Loads for slices not installed anywhere are ignored (the slice is
    /// mid-teardown); callers detect this by the missing outcome. Failed
    /// cells schedule nothing: their loads are dropped the same way and the
    /// cell reports zero utilization until revived.
    pub fn run_epoch(&mut self, now: SimTime, offered: &[OfferedLoad]) -> Vec<SliceScheduleOutcome> {
        let mut out = Vec::new();
        self.run_epoch_into(now, offered, &mut out);
        out
    }

    /// [`run_epoch`](Self::run_epoch) into a caller-owned buffer (cleared
    /// first). With a reused buffer, a steady-state epoch allocates
    /// nothing: loads are collected into persistent per-cell batches,
    /// each cell schedules through its own retained scratch, and telemetry
    /// records into pre-created series under cached names.
    pub fn run_epoch_into(
        &mut self,
        now: SimTime,
        offered: &[OfferedLoad],
        out: &mut Vec<SliceScheduleOutcome>,
    ) {
        // Collect: group loads per eNB batch (sorted by id), preserving
        // input order within each cell.
        for b in &mut self.batches {
            b.loads.clear();
        }
        for load in offered {
            let Some(&enb) = self.placements.get(&load.slice) else {
                continue;
            };
            if self.down_cells.contains(&enb) {
                continue;
            }
            let reserved = self.enbs[&enb]
                .reservation(load.slice)
                .expect("placement implies reservation")
                .reserved;
            let bi = self
                .batches
                .binary_search_by_key(&enb, |b| b.enb)
                .expect("one batch per managed eNB");
            self.batches[bi].loads.push(SliceLoad {
                slice: load.slice,
                reserved,
                offered: load.offered,
                prb_rate: load.prb_rate,
            });
        }

        // Schedule and apply, one cell after the other in ascending id:
        // outcome order and per-series values follow the batch order. Idle
        // (and down) cells have no loads, schedule trivially, and report
        // zero utilization.
        out.clear();
        for b in &mut self.batches {
            schedule_epoch_into(b.total, &b.loads, &mut b.sched, &mut b.outs);
            let used: u32 = b.outs.iter().map(|o| o.allocated.value()).sum();
            let util = used as f64 / b.total.value() as f64;
            match self.metrics.series_mut(&b.metric_name) {
                Some(series) => series.record(now, util),
                // Unreachable today (series are pre-created in `new`), but
                // degrade to the allocating path rather than panic.
                None => self.metrics.series(&b.metric_name).record(now, util),
            }
            out.extend_from_slice(&b.outs);
        }
    }

    /// Current domain snapshot for the orchestrator/dashboard.
    pub fn snapshot(&self) -> RanSnapshot {
        RanSnapshot {
            enbs: self
                .enbs
                .values()
                .map(|e| EnbRow {
                    enb: e.id(),
                    total: e.total_prbs(),
                    reserved: e.reserved_prbs(),
                    nominal: e.nominal_prbs(),
                    plmns: e.plmn_count(),
                    overbooking_factor: e.overbooking_factor(),
                    up: !self.down_cells.contains(&e.id()),
                })
                .collect(),
        }
    }

    /// Serializable copy of the domain's complete durable state, for
    /// checkpointing. Cell batches (the epoch pipeline's per-cell scratch)
    /// are deliberately absent: they carry no information between epochs
    /// and [`RanController::from_state`] rebuilds them from the eNB set.
    pub fn export_state(&self) -> RanControllerState {
        RanControllerState {
            enbs: self.enbs.values().cloned().collect(),
            placements: self.placements.clone(),
            down_cells: self.down_cells.clone(),
            metrics: self.metrics.clone(),
        }
    }

    /// Rebuild a controller from an exported state. The restored controller
    /// is observationally identical to the one exported: same reservations,
    /// same placements, same failed cells, same telemetry history.
    pub fn from_state(state: RanControllerState) -> RanController {
        let mut restored = RanController::new(state.enbs);
        restored.placements = state.placements;
        restored.down_cells = state.down_cells;
        // The restored registry already holds every utilization series;
        // overwriting the fresh one keeps history and series preallocation.
        restored.metrics = state.metrics;
        restored
    }

    /// Telemetry registry of the domain.
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }
}

/// Serializable checkpoint of a [`RanController`]
/// (see [`RanController::export_state`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RanControllerState {
    /// Every managed eNB with its reservations, ascending by id.
    pub enbs: Vec<Enb>,
    /// Which eNB each slice is installed on.
    pub placements: BTreeMap<SliceId, EnbId>,
    /// Cells currently failed.
    pub down_cells: BTreeSet<EnbId>,
    /// The domain's telemetry history.
    pub metrics: MetricRegistry,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellConfig;

    fn controller() -> RanController {
        RanController::new(vec![
            Enb::new(EnbId::new(0), CellConfig::default_20mhz()),
            Enb::new(EnbId::new(1), CellConfig::default_20mhz()),
        ])
    }

    fn plmn(n: u64) -> PlmnId {
        PlmnId::test_slice_plmn(n)
    }

    #[test]
    fn install_places_and_tracks() {
        let mut c = controller();
        c.install(EnbId::new(0), SliceId::new(1), plmn(0), Prbs::new(30), Prbs::new(30))
            .unwrap();
        assert_eq!(c.placement(SliceId::new(1)), Some(EnbId::new(0)));
        assert_eq!(c.reservation(SliceId::new(1)).unwrap().reserved, Prbs::new(30));
        assert_eq!(c.metrics().counter_value("ran.installs"), Some(1));
    }

    #[test]
    fn best_fit_prefers_emptier_cell() {
        let mut c = controller();
        c.install(EnbId::new(0), SliceId::new(1), plmn(0), Prbs::new(60), Prbs::new(60))
            .unwrap();
        assert_eq!(c.best_fit(Prbs::new(50)), Some(EnbId::new(1)));
        // Nothing fits 150 PRBs.
        assert_eq!(c.best_fit(Prbs::new(150)), None);
    }

    #[test]
    fn best_fit_respects_plmn_budget() {
        let mut c = RanController::new(vec![Enb::new(
            EnbId::new(0),
            CellConfig { max_plmns: 1, ..CellConfig::default_20mhz() },
        )]);
        c.install(EnbId::new(0), SliceId::new(1), plmn(0), Prbs::new(10), Prbs::new(10))
            .unwrap();
        assert_eq!(c.best_fit(Prbs::new(10)), None, "PLMN budget exhausted");
    }

    #[test]
    fn release_frees_resources() {
        let mut c = controller();
        c.install(EnbId::new(0), SliceId::new(1), plmn(0), Prbs::new(30), Prbs::new(30))
            .unwrap();
        c.release(SliceId::new(1)).unwrap();
        assert_eq!(c.placement(SliceId::new(1)), None);
        assert_eq!(c.best_fit(Prbs::new(100)), Some(EnbId::new(0)).or(Some(EnbId::new(1))));
        assert!(c.release(SliceId::new(1)).is_err(), "double release");
    }

    #[test]
    fn resize_changes_reservation() {
        let mut c = controller();
        c.install(EnbId::new(0), SliceId::new(1), plmn(0), Prbs::new(30), Prbs::new(50))
            .unwrap();
        c.resize(SliceId::new(1), Prbs::new(45)).unwrap();
        assert_eq!(c.reservation(SliceId::new(1)).unwrap().reserved, Prbs::new(45));
        assert!(c.resize(SliceId::new(9), Prbs::new(1)).is_err());
    }

    #[test]
    fn run_epoch_schedules_per_cell_and_records_utilization() {
        let mut c = controller();
        c.install(EnbId::new(0), SliceId::new(1), plmn(0), Prbs::new(50), Prbs::new(50))
            .unwrap();
        c.install(EnbId::new(1), SliceId::new(2), plmn(1), Prbs::new(50), Prbs::new(50))
            .unwrap();
        let outs = c.run_epoch(
            SimTime::from_secs(1),
            &[
                OfferedLoad { slice: SliceId::new(1), offered: RateMbps::new(10.0), prb_rate: RateMbps::new(0.5) },
                OfferedLoad { slice: SliceId::new(2), offered: RateMbps::new(20.0), prb_rate: RateMbps::new(0.5) },
            ],
        );
        assert_eq!(outs.len(), 2);
        let util0 = c
            .metrics()
            .series_ref("ran.enb-0.prb_utilization")
            .unwrap()
            .last()
            .unwrap()
            .1;
        assert!((util0 - 0.20).abs() < 1e-9, "20 of 100 PRBs, got {util0}");
    }

    #[test]
    fn run_epoch_ignores_uninstalled_slices() {
        let mut c = controller();
        let outs = c.run_epoch(
            SimTime::ZERO,
            &[OfferedLoad {
                slice: SliceId::new(9),
                offered: RateMbps::new(5.0),
                prb_rate: RateMbps::new(0.5),
            }],
        );
        assert!(outs.is_empty());
    }

    #[test]
    fn idle_cells_report_zero_utilization() {
        let mut c = controller();
        c.run_epoch(SimTime::ZERO, &[]);
        for enb in [0u64, 1] {
            let util = c
                .metrics()
                .series_ref(&format!("ran.enb-{enb}.prb_utilization"))
                .unwrap()
                .last()
                .unwrap()
                .1;
            assert_eq!(util, 0.0);
        }
    }

    #[test]
    fn snapshot_reflects_overbooking() {
        let mut c = controller();
        c.install(EnbId::new(0), SliceId::new(1), plmn(0), Prbs::new(40), Prbs::new(90))
            .unwrap();
        c.install(EnbId::new(0), SliceId::new(2), plmn(1), Prbs::new(40), Prbs::new(60))
            .unwrap();
        let snap = c.snapshot();
        let row0 = snap.enbs.iter().find(|r| r.enb == EnbId::new(0)).unwrap();
        assert_eq!(row0.reserved, Prbs::new(80));
        assert_eq!(row0.nominal, Prbs::new(150));
        assert!((row0.overbooking_factor - 1.5).abs() < 1e-12);
        assert_eq!(row0.plmns, 2);
        let row1 = snap.enbs.iter().find(|r| r.enb == EnbId::new(1)).unwrap();
        assert_eq!(row1.overbooking_factor, 0.0);
    }

    #[test]
    fn run_epoch_into_reuses_buffers_without_changing_outcomes() {
        // The same controller state stepped with a reused outcome buffer
        // must match a twin stepped through the allocating wrapper, epoch
        // by epoch, including under load churn and a mid-run cell failure.
        let build = || {
            let mut c = controller();
            c.install(EnbId::new(0), SliceId::new(1), plmn(0), Prbs::new(50), Prbs::new(50))
                .unwrap();
            c.install(EnbId::new(1), SliceId::new(2), plmn(1), Prbs::new(40), Prbs::new(60))
                .unwrap();
            c
        };
        let mut reused = build();
        let mut fresh = build();
        let mut out = Vec::new();
        for epoch in 0..6u64 {
            if epoch == 3 {
                reused.fail_cell(EnbId::new(1));
                fresh.fail_cell(EnbId::new(1));
            }
            let loads = vec![
                OfferedLoad {
                    slice: SliceId::new(1),
                    offered: RateMbps::new(5.0 + epoch as f64 * 7.0),
                    prb_rate: RateMbps::new(0.5),
                },
                OfferedLoad {
                    slice: SliceId::new(2),
                    offered: RateMbps::new(30.0),
                    prb_rate: RateMbps::new(0.4),
                },
            ];
            let now = SimTime::from_secs(60 * (epoch + 1));
            reused.run_epoch_into(now, &loads, &mut out);
            assert_eq!(out, fresh.run_epoch(now, &loads), "epoch {epoch}");
        }
        for enb in [0u64, 1] {
            let name = format!("ran.enb-{enb}.prb_utilization");
            assert_eq!(
                reused.metrics().series_ref(&name),
                fresh.metrics().series_ref(&name),
                "telemetry diverged on {name}"
            );
        }
    }

    #[test]
    fn fail_cell_lists_occupants_and_blocks_best_fit() {
        let mut c = controller();
        c.install(EnbId::new(0), SliceId::new(3), plmn(0), Prbs::new(20), Prbs::new(20))
            .unwrap();
        c.install(EnbId::new(0), SliceId::new(1), plmn(1), Prbs::new(20), Prbs::new(20))
            .unwrap();
        let affected = c.fail_cell(EnbId::new(0));
        assert_eq!(affected, vec![SliceId::new(1), SliceId::new(3)], "ascending");
        assert!(!c.cell_is_up(EnbId::new(0)));
        assert_eq!(c.down_cells(), vec![EnbId::new(0)]);
        // Second failure of the same cell is a no-op.
        assert!(c.fail_cell(EnbId::new(0)).is_empty());
        assert_eq!(c.metrics().counter_value("ran.cell_failures"), Some(1));
        // Only the surviving cell is a placement candidate now.
        assert_eq!(c.best_fit(Prbs::new(10)), Some(EnbId::new(1)));
        assert!(c.revive_cell(EnbId::new(0)));
        assert!(!c.revive_cell(EnbId::new(0)), "already up");
        assert!(c.cell_is_up(EnbId::new(0)));
        // Reservations survived the outage untouched.
        assert_eq!(c.reservation(SliceId::new(1)).unwrap().reserved, Prbs::new(20));
    }

    #[test]
    fn unknown_cells_report_down_and_fail_quietly() {
        let mut c = controller();
        assert!(!c.cell_is_up(EnbId::new(9)));
        assert!(c.fail_cell(EnbId::new(9)).is_empty());
        assert!(!c.revive_cell(EnbId::new(9)));
    }

    #[test]
    fn reattach_moves_slice_off_a_dead_cell() {
        let mut c = controller();
        c.install(EnbId::new(0), SliceId::new(1), plmn(0), Prbs::new(30), Prbs::new(45))
            .unwrap();
        c.fail_cell(EnbId::new(0));
        let target = c.reattach(SliceId::new(1)).unwrap();
        assert_eq!(target, EnbId::new(1));
        assert_eq!(c.placement(SliceId::new(1)), Some(EnbId::new(1)));
        let res = c.reservation(SliceId::new(1)).unwrap();
        assert_eq!(res.reserved, Prbs::new(30), "reservation carried over");
        assert_eq!(res.nominal, Prbs::new(45), "nominal carried over");
        assert_eq!(c.metrics().counter_value("ran.reattaches"), Some(1));
        // The dead cell no longer holds the PLMN.
        let snap = c.snapshot();
        let row0 = snap.enbs.iter().find(|r| r.enb == EnbId::new(0)).unwrap();
        assert_eq!(row0.plmns, 0);
        assert!(!row0.up);
    }

    #[test]
    fn reattach_restores_original_when_nothing_fits() {
        let mut c = controller();
        c.install(EnbId::new(0), SliceId::new(1), plmn(0), Prbs::new(60), Prbs::new(60))
            .unwrap();
        // The only other cell is too full to take 60 PRBs.
        c.install(EnbId::new(1), SliceId::new(2), plmn(1), Prbs::new(50), Prbs::new(50))
            .unwrap();
        c.fail_cell(EnbId::new(0));
        assert!(matches!(
            c.reattach(SliceId::new(1)),
            Err(RanError::InsufficientPrbs { .. })
        ));
        // State rolled back: still installed on the dead cell.
        assert_eq!(c.placement(SliceId::new(1)), Some(EnbId::new(0)));
        assert_eq!(c.reservation(SliceId::new(1)).unwrap().reserved, Prbs::new(60));
        assert!(c.reattach(SliceId::new(9)).is_err(), "unknown slice");
    }

    #[test]
    fn down_cells_schedule_nothing() {
        let mut c = controller();
        c.install(EnbId::new(0), SliceId::new(1), plmn(0), Prbs::new(50), Prbs::new(50))
            .unwrap();
        c.fail_cell(EnbId::new(0));
        let outs = c.run_epoch(
            SimTime::from_secs(60),
            &[OfferedLoad {
                slice: SliceId::new(1),
                offered: RateMbps::new(10.0),
                prb_rate: RateMbps::new(0.5),
            }],
        );
        assert!(outs.is_empty(), "dead cell serves no traffic");
        let util = c
            .metrics()
            .series_ref("ran.enb-0.prb_utilization")
            .unwrap()
            .last()
            .unwrap()
            .1;
        assert_eq!(util, 0.0, "dead cell reports zero utilization");
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_enb_ids_rejected() {
        RanController::new(vec![
            Enb::new(EnbId::new(0), CellConfig::default_20mhz()),
            Enb::new(EnbId::new(0), CellConfig::default_20mhz()),
        ]);
    }
}
