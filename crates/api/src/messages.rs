//! The typed payload spoken over the bus: the monitoring report each
//! domain pushes upstream to the orchestrator.
//!
//! This is the schema of the demo's REST monitoring feed. Resource commands
//! have no schema here: they are in-process method calls on the controllers
//! the orchestrator owns (see [`crate::domain`]).

use ovnes_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The periodic monitoring payload each controller pushes upstream: a flat
/// map of scalar metrics, exactly what the demo's dashboard consumes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MonitoringReport {
    /// Reporting domain (`"ran"`, `"transport"`, `"cloud"`).
    pub domain: String,
    /// When the snapshot was taken.
    pub at: SimTime,
    /// Metric name → value.
    pub scalars: BTreeMap<String, f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode};

    #[test]
    fn monitoring_report_round_trips() {
        let mut scalars = BTreeMap::new();
        scalars.insert("ran.enb-0.prb_utilization".to_string(), 0.63);
        scalars.insert("ran.installs".to_string(), 5.0);
        let report = MonitoringReport {
            domain: "ran".into(),
            at: SimTime::from_secs(300),
            scalars,
        };
        let bytes = encode(&report).unwrap();
        let back: MonitoringReport = decode(&bytes).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.scalars["ran.installs"], 5.0);
    }
}
