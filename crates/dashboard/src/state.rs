//! The dashboard view-model: the panels the demo's control dashboard shows,
//! assembled from a live orchestrator.

use crate::spark::sparkline_points;
use crate::table::{Align, Table};
use ovnes_orchestrator::{Orchestrator, SliceState, DOMAINS};
use std::fmt::Write as _;

/// A renderable snapshot of the whole dashboard.
pub struct DashboardView {
    sections: Vec<(String, String)>,
}

impl DashboardView {
    /// Assemble the dashboard from the orchestrator's current state.
    pub fn capture(orchestrator: &Orchestrator) -> DashboardView {
        let sections = vec![
            ("SLICES".to_string(), Self::slices_panel(orchestrator)),
            ("RADIO ACCESS".to_string(), Self::ran_panel(orchestrator)),
            ("TRANSPORT".to_string(), Self::transport_panel(orchestrator)),
            ("CLOUD".to_string(), Self::cloud_panel(orchestrator)),
            (
                "OVERBOOKING — GAIN vs PENALTY".to_string(),
                Self::gain_panel(orchestrator),
            ),
            (
                "CONTROL PLANE".to_string(),
                Self::control_panel(orchestrator),
            ),
            (
                "SUBSTRATE".to_string(),
                Self::substrate_panel(orchestrator),
            ),
            (
                "SUPERVISION".to_string(),
                Self::supervision_panel(orchestrator),
            ),
            ("EVENTS".to_string(), Self::events_panel(orchestrator)),
        ];
        DashboardView { sections }
    }

    fn slices_panel(o: &Orchestrator) -> String {
        let mut t = Table::new(&[
            "slice", "tenant", "class", "state", "plmn", "throughput", "latency", "price",
            "violations",
        ])
        .with_aligns(&[
            Align::Left,
            Align::Left,
            Align::Left,
            Align::Left,
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
        for r in o.records() {
            if matches!(r.state, SliceState::Rejected) {
                continue; // rejected requests live in the counters, not here
            }
            t.row(&[
                r.id.to_string(),
                r.request.tenant.to_string(),
                r.request.class.to_string(),
                r.state.to_string(),
                r.plmn.map_or("-".into(), |p| p.to_string()),
                r.request.sla.throughput.to_string(),
                r.request.sla.max_latency.to_string(),
                r.request.price.to_string(),
                format!("{}/{}", r.epochs_violated, r.epochs_active),
            ]);
        }
        let mut s = t.to_string();
        let m = o.metrics();
        let _ = writeln!(
            s,
            "submitted {}  admitted {}  rejected {} (policy {} / resources {})",
            m.counter_value("orchestrator.submitted").unwrap_or(0),
            m.counter_value("orchestrator.admitted").unwrap_or(0),
            m.counter_value("orchestrator.rejected_policy").unwrap_or(0)
                + m.counter_value("orchestrator.rejected_resources").unwrap_or(0),
            m.counter_value("orchestrator.rejected_policy").unwrap_or(0),
            m.counter_value("orchestrator.rejected_resources").unwrap_or(0),
        );
        s
    }

    fn ran_panel(o: &Orchestrator) -> String {
        let snap = o.ran().snapshot();
        let mut t = Table::new(&["enb", "plmns", "reserved", "nominal", "grid", "overbooking"])
            .with_aligns(&[
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
            ]);
        for row in &snap.enbs {
            t.row(&[
                row.enb.to_string(),
                row.plmns.to_string(),
                row.reserved.to_string(),
                row.nominal.to_string(),
                row.total.to_string(),
                format!("{:.2}x", row.overbooking_factor),
            ]);
        }
        let mut s = t.to_string();
        for row in &snap.enbs {
            if let Some(series) = o
                .ran()
                .metrics()
                .series_ref(&format!("ran.{}.prb_utilization", row.enb))
            {
                let _ = writeln!(
                    s,
                    "{} PRB utilization {}",
                    row.enb,
                    sparkline_points(series.tail(40))
                );
            }
        }
        s
    }

    fn transport_panel(o: &Orchestrator) -> String {
        let snap = o.transport().snapshot();
        let mut t = Table::new(&["link", "capacity", "reserved", "util", "health"]).with_aligns(&[
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
        for row in &snap.links {
            t.row(&[
                row.link.to_string(),
                row.effective_capacity.to_string(),
                row.reserved.to_string(),
                format!("{:.0}%", row.utilization.min(9.99) * 100.0),
                format!("{:.0}%", row.degradation * 100.0),
            ]);
        }
        format!("{t}paths installed: {}\n", snap.paths)
    }

    fn cloud_panel(o: &Orchestrator) -> String {
        let snap = o.cloud().snapshot();
        let mut t = Table::new(&["dc", "kind", "vms", "utilization"]).with_aligns(&[
            Align::Left,
            Align::Left,
            Align::Right,
            Align::Right,
        ]);
        for row in &snap.dcs {
            t.row(&[
                row.dc.to_string(),
                format!("{:?}", row.kind).to_lowercase(),
                row.vms.to_string(),
                format!("{:.0}%", row.utilization * 100.0),
            ]);
        }
        format!("{t}stacks deployed: {}\n", snap.stacks)
    }

    fn gain_panel(o: &Orchestrator) -> String {
        let ledger = o.ledger();
        let mut s = String::new();
        let _ = writeln!(
            s,
            "income {}   penalties {}   NET {}",
            ledger.gross_income(),
            ledger.total_penalties(),
            ledger.net()
        );
        if let Some(series) = o.metrics().series_ref("orchestrator.savings_fraction") {
            let _ = writeln!(
                s,
                "capacity released by overbooking {}  (now {:.0}%)",
                sparkline_points(series.tail(40)),
                series.last().map_or(0.0, |(_, v)| v * 100.0)
            );
        }
        if let Some(series) = o.metrics().series_ref("orchestrator.overbooking_factor") {
            let _ = writeln!(
                s,
                "overbooking factor               {}  (now {:.2}x)",
                sparkline_points(series.tail(40)),
                series.last().map_or(0.0, |(_, v)| v)
            );
        }
        s
    }

    /// A per-slice detail view: demand vs delivery vs latency sparklines —
    /// what clicking a slice row on the demo dashboard would show.
    pub fn slice_detail(o: &Orchestrator, slice: ovnes_model::SliceId) -> Option<String> {
        let record = o.record(slice)?;
        let timeline = o.timeline(slice)?;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{slice} ({}, {})  committed {}  bound {}",
            record.request.class, record.state, record.request.sla.throughput,
            record.request.sla.max_latency,
        );
        let _ = writeln!(
            s,
            "offered   {}  (mean {:.1} Mbps)",
            sparkline_points(timeline.offered.tail(48)),
            timeline.offered.mean().unwrap_or(0.0)
        );
        let _ = writeln!(
            s,
            "delivered {}  (mean {:.1} Mbps)",
            sparkline_points(timeline.delivered.tail(48)),
            timeline.delivered.mean().unwrap_or(0.0)
        );
        let _ = writeln!(
            s,
            "latency   {}  (max {:.1} ms)",
            sparkline_points(timeline.latency.tail(48)),
            timeline.latency.max().unwrap_or(0.0)
        );
        let _ = writeln!(
            s,
            "violations {}/{} epochs  availability {:.2}%",
            record.epochs_violated,
            record.epochs_active,
            record.availability() * 100.0
        );
        Some(s)
    }

    fn control_panel(o: &Orchestrator) -> String {
        let m = o.metrics();
        let mut s = String::new();
        let _ = writeln!(
            s,
            "calls {}   retries {}   failures {}   domains unreachable now {}",
            m.counter_value("control.calls").unwrap_or(0),
            m.counter_value("control.retries").unwrap_or(0),
            m.counter_value("control.failures").unwrap_or(0),
            m.gauge_value("control.unreachable_domains").unwrap_or(0.0) as u64,
        );
        let control = o.control();
        let mut t = Table::new(&["endpoint", "served", "faults injected"]).with_aligns(&[
            Align::Left,
            Align::Right,
            Align::Right,
        ]);
        for domain in DOMAINS {
            for kind in ["health", "monitoring"] {
                let endpoint = format!("{domain}/{kind}");
                let injected = control
                    .fault_stats()
                    .and_then(|stats| stats.get(&endpoint))
                    .map_or(0, |st| st.injected());
                t.row(&[
                    endpoint.clone(),
                    control.served(&endpoint).to_string(),
                    injected.to_string(),
                ]);
            }
        }
        s.push_str(&t.to_string());
        match control.fault_plan() {
            Some(plan) => {
                let _ = writeln!(
                    s,
                    "fault plan: seed {}, {} endpoint(s) configured",
                    plan.seed(),
                    plan.endpoints().count()
                );
            }
            None => {
                let _ = writeln!(s, "no fault plan installed");
            }
        }
        s
    }

    fn substrate_panel(o: &Orchestrator) -> String {
        let m = o.metrics();
        let mut s = String::new();
        let links = o.transport().snapshot().links;
        let links_up = links.iter().filter(|l| l.up).count();
        let enbs = o.ran().snapshot().enbs;
        let cells_up = enbs.iter().filter(|e| e.up).count();
        let (hosts_alive, hosts_total) =
            o.cloud()
                .snapshot()
                .dcs
                .iter()
                .fold((0usize, 0usize), |(alive, total), row| {
                    let dc = o.cloud().dc(row.dc);
                    (
                        alive + dc.map_or(0, |d| d.alive_hosts()),
                        total + dc.map_or(0, |d| d.hosts().len()),
                    )
                });
        let _ = writeln!(
            s,
            "links up {links_up}/{}   cells up {cells_up}/{}   hosts alive {hosts_alive}/{hosts_total}   elements down now {}",
            links.len(),
            enbs.len(),
            m.gauge_value("substrate.elements_down").unwrap_or(0.0) as u64,
        );
        let c = |name: &str| m.counter_value(name).unwrap_or(0);
        let _ = writeln!(
            s,
            "failures {}   recoveries {}   reroutes {}   re-attaches {}   re-placements {}",
            c("substrate.element_failures"),
            c("substrate.element_recoveries"),
            c("substrate.reroutes"),
            c("substrate.reattaches"),
            c("substrate.replacements"),
        );
        let _ = writeln!(
            s,
            "degraded {}   repaired {}   restored {}",
            c("substrate.degraded"),
            c("substrate.repaired"),
            c("substrate.restored"),
        );
        let degraded = o.substrate_degraded();
        if !degraded.is_empty() {
            let ids: Vec<String> = degraded.iter().map(|id| id.to_string()).collect();
            let _ = writeln!(s, "degraded now: {}", ids.join(", "));
        }
        match o.substrate_plan() {
            Some(plan) => {
                let _ = writeln!(
                    s,
                    "substrate plan: seed {}, {} element(s) scheduled",
                    plan.seed(),
                    plan.elements().count()
                );
            }
            None => {
                let _ = writeln!(s, "no substrate plan installed");
            }
        }
        s
    }

    fn supervision_panel(o: &Orchestrator) -> String {
        let m = o.metrics();
        let mut t = Table::new(&[
            "domain",
            "health",
            "failed probes",
            "incidents",
            "repairs",
        ])
        .with_aligns(&[
            Align::Left,
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
        for domain in DOMAINS {
            if let Some(h) = o.supervision().get(domain) {
                t.row(&[
                    domain.to_string(),
                    h.state.to_string(),
                    h.failed_probes.to_string(),
                    h.incidents.to_string(),
                    h.repairs.to_string(),
                ]);
            }
        }
        let mut s = t.to_string();
        // Wire-level diagnostics (stale-rejection counts, incarnation
        // terms) are deliberately absent: a supervised run's dashboard
        // must stay byte-identical to an undisturbed one.
        let c = |name: &str| m.counter_value(name).unwrap_or(0);
        let _ = writeln!(
            s,
            "suspects {}   downs {}   repairs {}",
            c("supervise.suspects"),
            c("supervise.downs"),
            c("supervise.repairs"),
        );
        match m.series_ref("supervise.time_to_repair") {
            Some(series) if !series.is_empty() => {
                let _ = writeln!(
                    s,
                    "time to repair: mean {:.0} s over {} incident(s)",
                    series.mean().unwrap_or(0.0),
                    series.len(),
                );
            }
            _ => {
                let _ = writeln!(s, "no repairs booked");
            }
        }
        s
    }

    fn events_panel(o: &Orchestrator) -> String {
        let mut s = String::new();
        let events = o.events();
        if events.is_empty() {
            s.push_str("(no events yet)\n");
            return s;
        }
        for e in events.tail(12) {
            let _ = writeln!(s, "{e}");
        }
        let _ = writeln!(s, "({} events total)", events.total_logged());
        s
    }

    /// Render the full dashboard.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (title, body) in &self.sections {
            let _ = writeln!(out, "══ {title} {}", "═".repeat(60usize.saturating_sub(title.len())));
            out.push_str(body);
            out.push('\n');
        }
        out
    }

    /// The individual panels, for selective display.
    pub fn sections(&self) -> &[(String, String)] {
        &self.sections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovnes_orchestrator::{DemoScenario, ScenarioConfig};
    use ovnes_sim::SimDuration;

    fn scenario() -> DemoScenario {
        DemoScenario::build(ScenarioConfig {
            horizon: SimDuration::from_hours(1),
            arrivals_per_hour: 20.0,
            ..ScenarioConfig::default()
        })
    }

    #[test]
    fn captures_all_panels() {
        let mut s = scenario();
        s.run();
        let view = DashboardView::capture(s.orchestrator());
        assert_eq!(view.sections().len(), 9);
        let rendered = view.render();
        for header in [
            "SLICES",
            "RADIO ACCESS",
            "TRANSPORT",
            "CLOUD",
            "GAIN vs PENALTY",
            "CONTROL PLANE",
            "SUBSTRATE",
            "SUPERVISION",
            "EVENTS",
        ] {
            assert!(rendered.contains(header), "missing {header}");
        }
        assert!(rendered.contains("enb-0"));
        assert!(rendered.contains("dc-0"));
        assert!(rendered.contains("NET"));
        // With no fault plan the control panel still reports call volume.
        assert!(rendered.contains("no fault plan installed"));
        assert!(rendered.contains("ran/health"));
        // Without a substrate plan every element is up and the panel says so.
        assert!(rendered.contains("no substrate plan installed"));
        assert!(rendered.contains("links up 7/7"), "{rendered}");
        assert!(rendered.contains("cells up 2/2"), "{rendered}");
        assert!(rendered.contains("hosts alive 20/20"), "{rendered}");
        // A faultless run's supervision panel is all-Up with no repairs.
        assert!(
            rendered.contains("suspects 0   downs 0   repairs 0"),
            "{rendered}"
        );
        assert!(rendered.contains("no repairs booked"), "{rendered}");
    }

    #[test]
    fn supervision_panel_tracks_outages() {
        use ovnes_api::{EndpointFaults, FaultPlan};
        use ovnes_sim::SimTime;
        let mut s = scenario();
        // RAN controller dark for minutes [10, 14): Suspect at 10, Down at
        // 11, repaired at 14.
        s.orchestrator_mut().set_fault_plan(
            FaultPlan::new(41).with_endpoint(
                "ran/health",
                EndpointFaults::none().with_outage(
                    SimTime::ZERO + SimDuration::from_mins(10),
                    SimTime::ZERO + SimDuration::from_mins(14),
                ),
            ),
        );
        s.run();
        let rendered = DashboardView::capture(s.orchestrator()).render();
        assert!(
            rendered.contains("suspects 1   downs 1   repairs 1"),
            "{rendered}"
        );
        assert!(
            rendered.contains("time to repair: mean 240 s over 1 incident(s)"),
            "{rendered}"
        );
        // The ran table row: back up, 4 failed probes, 1 incident, 1 repair.
        let line = rendered
            .lines()
            .find(|l| l.trim_start().starts_with("ran") && !l.contains('/'))
            .expect("ran health row");
        assert!(line.contains("up"), "{line}");
        assert!(line.contains('4'), "{line}");
    }

    #[test]
    fn shows_admission_counters() {
        let mut s = scenario();
        s.run();
        let rendered = DashboardView::capture(s.orchestrator()).render();
        assert!(rendered.contains("submitted"));
        assert!(rendered.contains("admitted"));
    }

    #[test]
    fn empty_orchestrator_renders_without_panic() {
        // A freshly built scenario that never ran still renders.
        let s = scenario();
        let rendered = DashboardView::capture(s.orchestrator()).render();
        assert!(rendered.contains("SLICES"));
        assert!(rendered.contains("paths installed: 0"));
    }

    #[test]
    fn slice_detail_renders_timeline() {
        let mut s = scenario();
        s.run();
        // Find any slice that served epochs.
        let id = s
            .orchestrator()
            .records()
            .find(|r| r.epochs_active > 0)
            .map(|r| r.id)
            .expect("scenario served slices");
        let detail = DashboardView::slice_detail(s.orchestrator(), id).unwrap();
        assert!(detail.contains("offered"));
        assert!(detail.contains("delivered"));
        assert!(detail.contains("availability"));
        // Unknown slices yield None.
        assert!(DashboardView::slice_detail(s.orchestrator(), ovnes_model::SliceId::new(9999)).is_none());
    }

    #[test]
    fn control_panel_surfaces_injected_faults() {
        use ovnes_api::{EndpointFaults, FaultPlan};
        let mut s = scenario();
        s.orchestrator_mut().set_fault_plan(
            FaultPlan::new(21)
                .with_endpoint("ran/health", EndpointFaults::none().with_drop(0.4)),
        );
        s.run();
        let rendered = DashboardView::capture(s.orchestrator()).render();
        assert!(rendered.contains("fault plan: seed 21, 1 endpoint(s) configured"));
        assert!(rendered.contains("retries"), "{rendered}");
        // The perturbed endpoint's injected-fault column is nonzero.
        let line = rendered
            .lines()
            .find(|l| l.contains("ran/health"))
            .expect("endpoint row");
        let injected: u64 = line
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .expect("numeric faults column");
        assert!(injected > 0, "{line}");
    }

    #[test]
    fn substrate_panel_surfaces_injected_faults() {
        use ovnes_api::{SubstrateElement, SubstrateFaultPlan};
        use ovnes_model::LinkId;
        use ovnes_sim::SimTime;
        let mut s = scenario();
        s.orchestrator_mut().set_substrate_plan(
            SubstrateFaultPlan::new(31).with_outage(
                SubstrateElement::Link(LinkId::new(0)),
                SimTime::ZERO + SimDuration::from_mins(10),
                SimTime::ZERO + SimDuration::from_mins(20),
            ),
        );
        s.run();
        let rendered = DashboardView::capture(s.orchestrator()).render();
        assert!(
            rendered.contains("substrate plan: seed 31, 1 element(s) scheduled"),
            "{rendered}"
        );
        // The outage window closed before the horizon: one failure, one
        // recovery, everything back up.
        assert!(rendered.contains("failures 1   recoveries 1"), "{rendered}");
        assert!(rendered.contains("links up 7/7"), "{rendered}");
    }

    #[test]
    fn events_panel_shows_lifecycle() {
        let mut s = scenario();
        s.run();
        let rendered = DashboardView::capture(s.orchestrator()).render();
        assert!(rendered.contains("admitted as"), "{rendered}");
        assert!(rendered.contains("events total"));
    }

    #[test]
    fn active_slices_appear_with_plmn() {
        let mut s = scenario();
        s.run();
        let rendered = DashboardView::capture(s.orchestrator()).render();
        // At least one row carries a test PLMN (001-xx).
        assert!(rendered.contains("001-"), "{rendered}");
    }
}
