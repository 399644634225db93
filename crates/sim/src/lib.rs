//! # ovnes-sim — virtual time, seeded forkable RNG, metrics, event log, fork/join
//!
//! The original demo ran on a physical LTE testbed in wall-clock time. This
//! crate replaces wall-clock time with *virtual time*: a microsecond-resolution
//! [`SimTime`] that the scenario drivers advance one epoch at a time, a
//! seeded, forkable [`SimRng`], a telemetry layer ([`metrics`]) that the
//! domain controllers use to report utilization to the end-to-end
//! orchestrator — mirroring the monitoring feeds of the demo — a bounded
//! [`EventLog`], and an ordered fork/join ([`par`]).
//!
//! Nothing blocks, nothing races; every run is a pure function of its seed.
//!
//! ## Quick tour
//!
//! ```
//! use ovnes_sim::{SimTime, SimDuration, SimRng};
//!
//! // Virtual time.
//! let t0 = SimTime::ZERO;
//! let t1 = t0 + SimDuration::from_secs(2);
//! assert_eq!((t1 - t0).as_millis_f64(), 2000.0);
//!
//! // Seeded randomness: same seed, same stream.
//! let mut r1 = SimRng::seed_from(42);
//! let mut r2 = SimRng::seed_from(42);
//! assert_eq!(r1.next_u64(), r2.next_u64());
//! ```

pub mod eventlog;
pub mod metrics;
pub mod par;
pub mod rng;
pub mod time;

pub use eventlog::{EventLog, LogEntry};
pub use metrics::{Counter, Gauge, MetricRegistry, TimeSeries, SERIES_WINDOW};
pub use rng::{RngState, SimRng};
pub use time::{SimDuration, SimTime};
