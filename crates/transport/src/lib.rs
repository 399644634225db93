//! # ovnes-transport — the transport domain of the testbed
//!
//! Simulated counterpart of the demo's transport network: *mmWave and µwave
//! wireless links as well as an OpenFlow programmable switch (NEC
//! ProgrammableFlow PF5240) that enables different transport network topology
//! configurations with predefined capacity and delay characteristics* (§2).
//!
//! * [`topology`] — capacitated multigraph of radio sites, switches and data
//!   centers; link kinds (wired / µwave / mmWave) with per-kind capacity and
//!   delay profiles; the Fig. 2 testbed builder.
//! * [`switch`] — OpenFlow-style flow tables: priority-matched rules with a
//!   bounded table, the unit the controller programs per slice path.
//! * [`routing`] — Dijkstra (min delay) and CSPF (capacity-pruned,
//!   delay-bounded) over residual capacities.
//! * [`reservation`] — per-link bandwidth accounting with a load-dependent
//!   delay model; path reservations as first-class objects.
//! * [`cache`] — generation-stamped memoization of CSPF answers, so
//!   steady-state allocations and reroute storms stop re-running Dijkstra.
//! * [`controller`] — the transport domain controller: allocate/release
//!   slice paths, install flow rules, degrade/restore links (mmWave rain
//!   fade), reroute affected slices, publish telemetry.

//! ## Example: allocate a constrained slice path on the Fig. 2 testbed
//!
//! ```
//! use ovnes_model::{DcId, EnbId, Latency, RateMbps, SliceId};
//! use ovnes_transport::{Topology, TransportController};
//!
//! let mut transport = TransportController::new(Topology::testbed(), 1024);
//! let src = transport.topology().radio_site(EnbId::new(0)).unwrap();
//! let dst = transport.topology().dc_node(DcId::new(0)).unwrap(); // edge DC
//!
//! // "a dedicated path guaranteeing the required delay and capacity" (§3)
//! let alloc = transport
//!     .allocate(SliceId::new(1), src, dst, RateMbps::new(100.0), Latency::new(3.0))
//!     .expect("mmWave uplink has room");
//! assert_eq!(alloc.reservation.path.hops(), 2); // mmWave + fiber
//! assert!(alloc.delay_at_allocation.value() <= 3.0);
//!
//! // Rain fades the mmWave hop; the slice reroutes over µwave.
//! let mm = alloc.reservation.path.links[0];
//! let affected = transport.degrade_link(mm, 0.05);
//! assert_eq!(affected, vec![SliceId::new(1)]);
//! assert_eq!(transport.reroute(SliceId::new(1)), Ok(true));
//! ```

pub mod cache;
pub mod controller;
pub mod generators;
pub mod reservation;
pub mod routing;
pub mod switch;
pub mod topology;
pub mod weather;

pub use cache::{RouteCache, RouteCacheState, RouteCacheStats, RouteKey};
pub use controller::{
    PathAllocation, TransportController, TransportControllerState, TransportError,
    TransportSnapshot,
};
pub use generators::{line, random_mesh, ring, star};
pub use reservation::{effective_delay, LinkUsage, PathReservation};
pub use routing::{cspf_with, dijkstra, dijkstra_with, Path, RoutingScratch};
pub use switch::{FlowAction, FlowMatch, FlowRule, FlowTable, SwitchError};
pub use topology::{Link, LinkKind, Node, NodeKind, Topology, TopologyBuilder};
pub use weather::{Sky, WeatherProcess};
