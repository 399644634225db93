//! # ovnes-ran — the radio access domain of the testbed
//!
//! Simulated counterpart of the demo's two commercial LTE eNodeBs (NEC
//! MB4420) with MOCN RAN sharing: since no commercial slicing equipment
//! exists, *network slices are mapped onto dedicated PLMNs dynamically
//! installed in the network* (§2 of the paper) with radio resources (PRBs)
//! reserved per PLMN.
//!
//! * [`cqi`] — 3GPP link adaptation: SNR → CQI → spectral efficiency →
//!   per-PRB rate.
//! * [`cell`] — eNB/cell model: bandwidth → PRB grid, MOCN multi-PLMN
//!   broadcast, per-PLMN PRB reservations.
//! * [`ue`] — user equipment with a log-distance pathloss + shadowing
//!   channel, mobility, attach/detach lifecycle.
//! * [`scheduler`] — per-epoch PRB allocation among slices: reservations are
//!   guaranteed, idle reserved PRBs are lent to saturated slices
//!   (the statistical multiplexing of ref \[1\]).
//! * [`ue_scheduler`] — proportional-fair division of a slice's PRBs among
//!   its UEs: a heap-based O(PRBs log UEs) grant loop over dense per-slice
//!   UE slabs, bit-identical to the retained per-PRB reference oracle.
//! * [`controller`] — the RAN domain controller the E2E orchestrator talks
//!   to: PLMN install/release, capacity queries, utilization telemetry.
//!
//! ## Example: install two overbooked slices and schedule one epoch
//!
//! ```
//! use ovnes_model::{EnbId, PlmnId, Prbs, RateMbps, SliceId};
//! use ovnes_ran::controller::OfferedLoad;
//! use ovnes_ran::{CellConfig, Enb, RanController};
//! use ovnes_sim::SimTime;
//!
//! let cell = CellConfig::default_20mhz(); // 100 PRBs, 2x2 MIMO
//! let mut ran = RanController::new(vec![Enb::new(EnbId::new(0), cell)]);
//!
//! // Two slices whose SLA peaks (nominal) sum to 140 PRBs — 1.4x the grid —
//! // but whose overbooked reservations (50 + 40) fit: the MOCN trick.
//! ran.install(EnbId::new(0), SliceId::new(1), PlmnId::test_slice_plmn(0),
//!             Prbs::new(50), Prbs::new(80)).unwrap();
//! ran.install(EnbId::new(0), SliceId::new(2), PlmnId::test_slice_plmn(1),
//!             Prbs::new(40), Prbs::new(60)).unwrap();
//! let snapshot = ran.snapshot();
//! assert!((snapshot.enbs[0].overbooking_factor - 1.4).abs() < 1e-9);
//!
//! // Slice 1 is idle this epoch; the scheduler lends its PRBs to slice 2.
//! let outcomes = ran.run_epoch(SimTime::ZERO, &[
//!     OfferedLoad { slice: SliceId::new(1), offered: RateMbps::new(0.0),
//!                   prb_rate: RateMbps::new(0.5) },
//!     OfferedLoad { slice: SliceId::new(2), offered: RateMbps::new(30.0),
//!                   prb_rate: RateMbps::new(0.5) },
//! ]);
//! assert_eq!(outcomes[1].borrowed, Prbs::new(20)); // 60 needed, 40 reserved
//! assert_eq!(outcomes[1].delivered, RateMbps::new(30.0));
//! ```

pub mod cell;
pub mod controller;
pub mod cqi;
pub mod scheduler;
pub mod ue;
pub mod ue_scheduler;

pub use cell::{CellConfig, Enb, PlmnReservation, PrbRateTable, RanError};
pub use controller::{RanController, RanControllerState, RanSnapshot};
pub use cqi::{prb_rate_mbps, snr_to_cqi, Cqi, CQI_TABLE};
pub use scheduler::{
    schedule_epoch, schedule_epoch_into, SliceLoad, SliceScheduleOutcome, SliceScratch,
};
pub use ue::{slice_average_cqi, ChannelModel, MobilityModel, Ue, UePopulation};
pub use ue_scheduler::{jain_index, PfScratch, PfState, UeChannel, UeShare};
