//! Properties of the core data structures and cross-crate invariants, as
//! seeded loops: the case index seeds the draw, and a failing case prints
//! it. The properties that pin a fast path against its reference twin (heap
//! PF, CSR Dijkstra, streaming quantile, route cache) live beside the twin
//! in the owning crate's unit tests, in the same shape.

use ovnes_api::{
    ControlTransport, FaultInjector, FaultPlan, MessageBus, Response, RetryPolicy,
    SubstrateElement, SubstrateFaultPlan,
};
use ovnes_model::{DcId, EnbId, Latency, LinkId, Money, Prbs, RateMbps, SliceId, SwitchId};
use ovnes_orchestrator::admission::knapsack_select;
use ovnes_orchestrator::{
    region_scenario_config, DemoScenario, FederationBroker, FederationConfig,
};
use ovnes_ran::{schedule_epoch, SliceLoad};
use ovnes_sim::{SimDuration, SimRng, SimTime};
use ovnes_transport::{Topology, TransportController};

const CASES: u64 = 256;

/// `n` draws of `draw`, `n` uniform in `[min, max)`.
fn vec_of<T>(
    rng: &mut SimRng,
    min: usize,
    max: usize,
    mut draw: impl FnMut(&mut SimRng) -> T,
) -> Vec<T> {
    (0..rng.uniform_usize(min, max)).map(|_| draw(rng)).collect()
}

/// Uniform integer in `[lo, hi)`.
fn int(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    rng.uniform_usize(lo as usize, hi as usize) as u64
}

// ---- sim: rng determinism ----------------------------------------------------

#[test]
fn rng_streams_reproducible() {
    for case in 0..CASES {
        let seed = SimRng::seed_from(case).next_u64();
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64(), "case {case}: seed {seed}");
        }
    }
}

// ---- model: money ------------------------------------------------------------

#[test]
fn money_sum_is_associative() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let cents = vec_of(&mut rng, 0, 50, |r| int(r, 0, 2_000_000) as i64 - 1_000_000);
        let forward: Money = cents.iter().map(|&c| Money::from_cents(c)).sum();
        let backward: Money = cents.iter().rev().map(|&c| Money::from_cents(c)).sum();
        assert_eq!(forward, backward, "case {case}");
        assert_eq!(forward.cents(), cents.iter().sum::<i64>(), "case {case}");
    }
}

// ---- ran: PRB scheduler ------------------------------------------------------

#[test]
fn scheduler_never_oversubscribes_and_guarantees_reservations() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let grid = int(&mut rng, 10, 200) as u32;
        let specs = vec_of(&mut rng, 1, 8, |r| {
            (int(r, 0, 80) as u32, r.uniform_range(0.0, 60.0), r.uniform_range(0.1, 0.8))
        });
        // Scale reservations so they fit the grid.
        let total_reserved: u32 = specs.iter().map(|&(r, _, _)| r).sum();
        let scale = if total_reserved > grid {
            grid as f64 / total_reserved as f64
        } else {
            1.0
        };
        let loads: Vec<SliceLoad> = specs
            .iter()
            .enumerate()
            .map(|(i, &(r, offered, rate))| SliceLoad {
                slice: SliceId::new(i as u64),
                reserved: Prbs::new((r as f64 * scale) as u32),
                offered: RateMbps::new(offered),
                prb_rate: RateMbps::new(rate),
            })
            .collect();
        let outs = schedule_epoch(Prbs::new(grid), &loads);
        let total: u32 = outs.iter().map(|o| o.allocated.value()).sum();
        assert!(total <= grid, "case {case}: allocated {total} > grid {grid}");
        for (load, out) in loads.iter().zip(&outs) {
            // Guarantee: each slice gets at least min(needed, reserved),
            // where "needed" uses the scheduler's epsilon-tolerant rounding.
            let needed = Prbs::for_rate(load.offered, load.prb_rate).value();
            let guaranteed = needed.min(load.reserved.value());
            assert!(
                out.allocated.value() >= guaranteed,
                "case {case}: slice {} got {} < guaranteed {guaranteed}",
                load.slice,
                out.allocated
            );
            // Delivered never exceeds offered.
            assert!(out.delivered.value() <= load.offered.value() + 1e-9, "case {case}");
            // lent + allocated >= reserved accounting.
            assert_eq!(
                out.lent.value(),
                load.reserved.value().saturating_sub(out.allocated.value()),
                "case {case}"
            );
        }
    }
}

// ---- orchestrator: knapsack --------------------------------------------------

#[test]
fn knapsack_fits_capacity_and_beats_fcfs() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let cap = int(&mut rng, 1, 150) as u32;
        let reqs: Vec<(Prbs, Money)> = vec_of(&mut rng, 0, 12, |r| {
            (Prbs::new(int(r, 1, 50) as u32), Money::from_units(int(r, 1, 500) as i64))
        });
        let selected = knapsack_select(&reqs, Prbs::new(cap));
        let used: u32 = selected.iter().map(|&i| reqs[i].0.value()).sum();
        assert!(used <= cap, "case {case}: {used} PRBs selected into {cap}");
        // No duplicates.
        let mut sorted = selected.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), selected.len(), "case {case}: {selected:?}");
        // Knapsack revenue >= FCFS revenue.
        let knap_rev: i64 = selected.iter().map(|&i| reqs[i].1.cents()).sum();
        let mut used = 0u32;
        let mut fcfs_rev = 0i64;
        for &(p, m) in &reqs {
            if used + p.value() <= cap {
                used += p.value();
                fcfs_rev += m.cents();
            }
        }
        assert!(knap_rev >= fcfs_rev, "case {case}: knapsack {knap_rev} < FCFS {fcfs_rev}");
    }
}

// ---- api: substrate fault plan -----------------------------------------------

// `down_at` must agree with naive half-open window arithmetic for any
// set of windows, and the plan must survive a JSON round-trip intact.
#[test]
fn substrate_down_at_matches_window_arithmetic() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let windows = vec_of(&mut rng, 0, 20, |r| (int(r, 0, 10_000), int(r, 0, 10_000)));
        // Random instants plus every window edge: the half-open boundary
        // is where an off-by-one would hide.
        let mut probes = vec_of(&mut rng, 1, 50, |r| int(r, 0, 12_000));
        probes.extend(windows.iter().flat_map(|&(from, until)| [from, until]));
        let element = SubstrateElement::Link(LinkId::new(3));
        let mut plan = SubstrateFaultPlan::new(7);
        for &(from, until) in &windows {
            plan = plan.with_outage(element, SimTime::from_secs(from), SimTime::from_secs(until));
        }
        for &p in &probes {
            let now = SimTime::from_secs(p);
            let expected = windows.iter().any(|&(from, until)| from <= p && p < until);
            assert_eq!(plan.down_at(element, now), expected, "case {case}: at {p}s");
            // Unmentioned elements are always up.
            assert!(!plan.down_at(SubstrateElement::Link(LinkId::new(99)), now), "case {case}");
        }
        // Quietness is exactly "no window with until > from".
        assert_eq!(plan.is_quiet(), windows.iter().all(|&(f, u)| u <= f), "case {case}");
        // Serde round-trip preserves the plan bit-for-bit.
        let json = serde_json::to_string(&plan).unwrap();
        let back: SubstrateFaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan, "case {case}");
    }
}

// Random outage generation is a pure function of (seed, element set):
// same inputs, same schedule; and every generated window is well-formed
// and starts inside the horizon.
#[test]
fn substrate_random_outages_are_deterministic_and_well_formed() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let seed = rng.next_u64();
        let rate = rng.uniform_range(0.01, 5.0);
        let elements: Vec<SubstrateElement> = (0..int(&mut rng, 1, 8))
            .map(|l| SubstrateElement::Link(LinkId::new(l)))
            .collect();
        let horizon = SimDuration::from_hours(6);
        let make = || {
            SubstrateFaultPlan::new(seed).with_random_outages(
                &elements,
                rate,
                SimDuration::from_mins(10),
                horizon,
            )
        };
        let a = make();
        assert_eq!(a, make(), "case {case}");
        for schedule in a.elements() {
            for &(from, until) in &schedule.outages {
                assert!(until > from, "case {case}: degenerate window");
                assert!(from < SimTime::ZERO + horizon, "case {case}: outage born past the horizon");
            }
        }
        // down_elements_at never reports an element the plan doesn't know.
        let probe = SimTime::ZERO + SimDuration::from_hours(3);
        for e in a.down_elements_at(probe) {
            assert!(a.down_at(e, probe), "case {case}");
        }
    }
}

// ---- transport: link fail/revive interleavings -------------------------------

// Reason-stacked link health against a trivial counter model: any
// interleaving of fail_link / revive_link / fail_switch / revive_switch
// leaves `link_is_up` exactly where the model says, and reservations
// are never dropped by health flapping alone.
#[test]
fn link_fail_revive_interleavings_match_counter_model() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let ops = vec_of(&mut rng, 1, 80, |r| (int(r, 0, 4), r.uniform_usize(0, 16)));
        let mut t = TransportController::new(Topology::testbed(), 1024);
        let (src, dst, link_count) = {
            let topo = t.topology();
            (
                topo.radio_site(EnbId::new(0)).unwrap(),
                topo.dc_node(DcId::new(1)).unwrap(),
                topo.link_count(),
            )
        };
        let slice = SliceId::new(0);
        t.allocate(slice, src, dst, RateMbps::new(50.0), Latency::new(20.0)).unwrap();
        let switches = [SwitchId::new(0), SwitchId::new(1)];
        // Model: per-link down-reason counters, mirroring fail/revive.
        let mut reasons = vec![0u32; link_count];
        let incident: Vec<Vec<usize>> = vec![vec![0, 1, 2, 3, 4, 5], vec![5, 6]];
        for &(op, a) in &ops {
            match op {
                0 => {
                    let l = a % link_count;
                    t.fail_link(LinkId::new(l as u64));
                    reasons[l] += 1;
                }
                1 => {
                    let l = a % link_count;
                    t.revive_link(LinkId::new(l as u64));
                    reasons[l] = reasons[l].saturating_sub(1);
                }
                2 => {
                    let s = a % 2;
                    t.fail_switch(switches[s]);
                    for &l in &incident[s] {
                        reasons[l] += 1;
                    }
                }
                _ => {
                    let s = a % 2;
                    t.revive_switch(switches[s]);
                    for &l in &incident[s] {
                        reasons[l] = reasons[l].saturating_sub(1);
                    }
                }
            }
            for (l, &r) in reasons.iter().enumerate() {
                assert_eq!(
                    t.link_is_up(LinkId::new(l as u64)),
                    r == 0,
                    "case {case}: link {l} health diverged from model ({r} reasons)"
                );
            }
        }
        // Health flapping alone never drops a reservation.
        assert!(t.reservation(slice).is_some(), "case {case}");
        // Full recovery: clear every remaining reason; all links come back.
        for (l, r) in reasons.iter().enumerate() {
            for _ in 0..*r {
                t.revive_link(LinkId::new(l as u64));
            }
        }
        assert!(t.down_links().is_empty(), "case {case}");
    }
}

// ---- api: retry policy -------------------------------------------------------

#[test]
fn retry_backoff_is_monotone_and_capped() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let jitter = rng.uniform_range(0.0, 1.0);
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: SimDuration::from_millis(int(&mut rng, 1, 2_000)),
            multiplier: rng.uniform_range(0.5, 4.0),
            max_backoff: SimDuration::from_millis(int(&mut rng, 1, 10_000)),
            jitter,
            ..RetryPolicy::default()
        };
        let mut prev = SimDuration::ZERO;
        for attempt in 1..10u32 {
            let b = policy.backoff(attempt);
            assert!(b >= prev, "case {case}: backoff shrank at attempt {attempt}");
            assert!(b <= policy.max_backoff, "case {case}: {b} over the cap at attempt {attempt}");
            // Jitter only stretches, within the advertised band.
            let j = policy.jittered_backoff(attempt, &mut rng);
            assert!(j >= b, "case {case}");
            let band = b.as_secs_f64() * (1.0 + jitter) + 1e-6;
            assert!(j.as_secs_f64() <= band, "case {case}: {j} outside [{b}, {band}]");
            prev = b;
        }
    }
}

#[test]
fn retry_schedule_bounds_attempts_and_deadline() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let max_attempts = int(&mut rng, 1, 12) as u32;
        let policy = RetryPolicy {
            max_attempts,
            base_backoff: SimDuration::from_millis(int(&mut rng, 1, 1_000)),
            multiplier: rng.uniform_range(0.5, 3.0),
            max_backoff: SimDuration::from_millis(int(&mut rng, 1, 4_000)),
            deadline: SimDuration::from_millis(int(&mut rng, 0, 8_000)),
            jitter: 0.0,
        };
        let schedule = policy.nominal_schedule();
        // At most one wait per retry (attempts beyond the first).
        assert!(schedule.len() < max_attempts as usize || max_attempts == 1, "case {case}");
        // The cumulative nominal wait respects the per-call deadline.
        let mut elapsed = SimDuration::ZERO;
        for &w in &schedule {
            elapsed += w;
        }
        assert!(elapsed <= policy.deadline, "case {case}");
        // Waits themselves are monotone non-decreasing.
        for w in schedule.windows(2) {
            assert!(w[0] <= w[1], "case {case}: {schedule:?}");
        }
    }
}

// ---- api: fault injection ----------------------------------------------------

#[test]
fn quiet_fault_plan_is_an_exact_noop() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let seed = rng.next_u64();
        let bodies = vec_of(&mut rng, 1, 20, |r| vec_of(r, 0, 64, |r| r.next_u64() as u8));
        // An installed-but-empty plan must be indistinguishable from calling
        // the bus directly: same responses, same served counters, no
        // latency, no recorded faults.
        let echo_bus = || {
            let mut bus = MessageBus::new();
            bus.register("echo", |req| Response::ok(req.id, req.body.0));
            ControlTransport::InProcess(bus)
        };
        let mut plain = echo_bus();
        let mut wrapped = echo_bus();
        let mut inj = FaultInjector::new(FaultPlan::new(seed));
        for (i, body) in bodies.iter().enumerate() {
            let a = plain.call("echo", body.clone()).unwrap();
            let (b, latency) = inj
                .call(&mut wrapped, SimTime::from_secs(i as u64), "echo", body.clone())
                .unwrap();
            assert_eq!(a, b, "case {case}");
            assert_eq!(latency, SimDuration::ZERO, "case {case}");
        }
        assert_eq!(plain.served("echo"), wrapped.served("echo"), "case {case}");
        assert!(inj.stats().is_empty(), "case {case}");
    }
}

// ---- orchestrator: federation ------------------------------------------------

// Full federated runs are expensive; a handful of cases per property
// still sweeps seeds, load levels, and shard counts every run.
const FEDERATION_CASES: u64 = 4;

// A 1-region federation IS the demo scenario: the broker adds no
// observable behaviour of its own — region 0's RNG streams and fold
// arithmetic reproduce the single-world oracle bit-for-bit, and with
// no sibling there is never anywhere to spill.
#[test]
fn single_region_federation_is_the_demo_scenario() {
    for case in 0..FEDERATION_CASES {
        let mut rng = SimRng::seed_from(case);
        let cfg = FederationConfig {
            seed: int(&mut rng, 0, 10_000),
            regions: 1,
            arrivals_per_hour: rng.uniform_range(5.0, 35.0),
            horizon: SimDuration::from_hours(1),
            ..FederationConfig::default()
        };
        let fed = FederationBroker::build(cfg.clone()).run();
        assert_eq!(fed.spilled, 0, "case {case}: one region has nowhere to spill");
        let demo = DemoScenario::build(region_scenario_config(&cfg)).run();
        assert_eq!(fed.admitted, demo.admitted, "case {case}");
        assert_eq!(fed.regions[0], demo, "case {case}");
    }
}

// Shard-epoch interleaving is invisible: federated admission (spills
// included) under 1 worker equals the same run under 2 and 5 workers,
// for arbitrary seeds, shard counts, and load.
#[test]
fn federated_admission_is_invariant_to_shard_interleaving() {
    for case in 0..FEDERATION_CASES {
        let mut rng = SimRng::seed_from(case);
        let cfg = FederationConfig {
            seed: int(&mut rng, 0, 10_000),
            regions: rng.uniform_usize(1, 4),
            arrivals_per_hour: rng.uniform_range(10.0, 50.0),
            horizon: SimDuration::from_hours(1),
            ..FederationConfig::default()
        };
        let run_at = |threads: usize| {
            let _pin = ovnes_sim::par::pin_threads(threads);
            FederationBroker::build(cfg.clone()).run()
        };
        let one = run_at(1);
        assert_eq!(one, run_at(2), "case {case}");
        assert_eq!(one, run_at(5), "case {case}");
    }
}
