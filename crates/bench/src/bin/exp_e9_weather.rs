//! E9 — why the testbed's wireless transport is *dual*: mmWave + µwave.
//!
//! The paper's transport combines rain-fade-prone mmWave with robust µwave
//! hops behind the programmable switch (§2). This harness runs the same
//! slice workload three ways:
//!
//! * clear-sky control (weather off),
//! * weather on, the orchestrator reroutes affected slices onto µwave,
//! * the same fades injected with the reroute reaction disabled — the
//!   counterfactual a single-technology transport would suffer.

use ovnes_bench::{report_header, testbed_orchestrator};
use ovnes_model::{Money, RateMbps, SliceClass, SliceRequest, TenantId};
use ovnes_orchestrator::OrchestratorConfig;
use ovnes_sim::{SimDuration, SimRng, SimTime};
use ovnes_transport::{Sky, WeatherProcess};

const EPOCHS: u64 = 12 * 60; // 12 hours of minute epochs

fn request(tenant: u64) -> SliceRequest {
    SliceRequest::builder(TenantId::new(tenant), SliceClass::Embb)
        .throughput(RateMbps::new(25.0))
        .duration(SimDuration::from_hours(14))
        .price(Money::from_units(100))
        .penalty(Money::from_units(1))
        .build()
        .expect("positive parameters")
}

struct Outcome {
    slice_epochs: u64,
    violations: u64,
    reroutes: u64,
    rainy_epochs: u64,
}

/// Run 12 h with the built-in weather+reroute loop (or clear sky).
fn run_managed(weather: bool, seed: u64) -> Outcome {
    // Peak (non-overbooked) reservations keep the transport picture clean:
    // this experiment isolates the fade/reroute mechanics.
    let config = OrchestratorConfig {
        weather_enabled: weather,
        overbooking_enabled: false,
        policy: ovnes_orchestrator::PolicyKind::Fcfs,
        ..OrchestratorConfig::default()
    };
    let mut o = testbed_orchestrator(config, seed);
    for t in 1..=4 {
        o.submit(SimTime::ZERO, request(t)).expect("fits");
    }
    let epoch = o.config().epoch;
    let mut out = Outcome {
        slice_epochs: 0,
        violations: 0,
        reroutes: 0,
        rainy_epochs: 0,
    };
    for e in 1..=EPOCHS {
        let report = o.run_epoch(SimTime::ZERO + epoch * e);
        out.slice_epochs += report.verdicts.len() as u64;
        out.violations += report.verdicts.iter().filter(|v| !v.met).count() as u64;
        if matches!(report.sky, Some(s) if s != Sky::Clear) {
            out.rainy_epochs += 1;
        }
    }
    out.reroutes = o
        .metrics()
        .counter_value("orchestrator.weather_reroutes")
        .unwrap_or(0);
    out
}

/// Run 12 h with the *same* weather trajectory injected from outside and
/// the reroute reaction withheld: the single-technology counterfactual.
fn run_unmanaged(seed: u64) -> Outcome {
    let config = OrchestratorConfig {
        overbooking_enabled: false,
        policy: ovnes_orchestrator::PolicyKind::Fcfs,
        ..OrchestratorConfig::default()
    };
    let mut o = testbed_orchestrator(config, seed);
    for t in 1..=4 {
        o.submit(SimTime::ZERO, request(t)).expect("fits");
    }
    let epoch = o.config().epoch;
    let mut weather = WeatherProcess::temperate();
    let mut wrng = SimRng::seed_from(seed ^ 0x5eed);
    let links = WeatherProcess::sensitive_links(o.transport().topology());
    let mut out = Outcome {
        slice_epochs: 0,
        violations: 0,
        reroutes: 0,
        rainy_epochs: 0,
    };
    let mut last = Sky::Clear;
    for e in 1..=EPOCHS {
        let sky = weather.step(&mut wrng);
        if sky != last {
            last = sky;
            for &l in &links {
                let _ = o.transport_mut().degrade_link(l, sky.mmwave_factor());
            }
        }
        if sky != Sky::Clear {
            out.rainy_epochs += 1;
        }
        let report = o.run_epoch(SimTime::ZERO + epoch * e);
        out.slice_epochs += report.verdicts.len() as u64;
        out.violations += report.verdicts.iter().filter(|v| !v.met).count() as u64;
    }
    out
}

fn main() {
    report_header(
        "E9",
        "§2 wireless transport resilience",
        "12 h, four 25 Mbps slices (two per mmWave uplink), temperate weather",
    );
    println!(
        "{:<28} {:>12} {:>12} {:>9} {:>10} {:>9}",
        "configuration", "slice-epochs", "violations", "rate", "reroutes", "rainy"
    );
    let seeds = [4u64, 18, 33];
    let agg = |label: &str, runs: Vec<Outcome>| {
        let n: u64 = runs.iter().map(|r| r.slice_epochs).sum();
        let v: u64 = runs.iter().map(|r| r.violations).sum();
        let rr: u64 = runs.iter().map(|r| r.reroutes).sum();
        let rain: u64 = runs.iter().map(|r| r.rainy_epochs).sum();
        println!(
            "{label:<28} {n:>12} {v:>12} {:>8.1}% {rr:>10} {:>8.0}%",
            v as f64 / n as f64 * 100.0,
            rain as f64 / (seeds.len() as u64 * EPOCHS) as f64 * 100.0,
        );
        v as f64 / n as f64
    };
    let clear = agg(
        "clear-sky control",
        seeds.iter().map(|&s| run_managed(false, s)).collect(),
    );
    let managed = agg(
        "weather + µwave reroute",
        seeds.iter().map(|&s| run_managed(true, s)).collect(),
    );
    let unmanaged = agg(
        "weather, reroute disabled",
        seeds.iter().map(|&s| run_unmanaged(s)).collect(),
    );

    println!();
    println!("violation rate: clear {:.1}% ≈ rerouted {:.1}%  <<  unmanaged {:.1}%", clear * 100.0, managed * 100.0, unmanaged * 100.0);
    println!("the µwave fallback absorbs the fades — the reason the testbed pairs");
    println!("both technologies behind the programmable switch (§2).");
}
