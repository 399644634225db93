//! Property-based tests (proptest) on the core data structures and
//! cross-crate invariants. The properties that pin a fast path against its
//! reference twin (heap PF, CSR Dijkstra, streaming quantile, route cache)
//! live beside the twin in the owning crate's unit tests, as seeded loops.

use ovnes_api::{
    ControlTransport, FaultInjector, FaultPlan, MessageBus, Response, RetryPolicy,
    SubstrateElement, SubstrateFaultPlan,
};
use ovnes_model::{DcId, EnbId, Latency, LinkId, Money, Prbs, RateMbps, SliceId};
use ovnes_orchestrator::admission::knapsack_select;
use ovnes_ran::{schedule_epoch, SliceLoad};
use ovnes_sim::{EventQueue, Histogram, ScheduledId, SimDuration, SimRng, SimTime};
use ovnes_orchestrator::{
    region_scenario_config, DemoScenario, FederationBroker, FederationConfig,
};
use ovnes_transport::{
    dijkstra, k_shortest_paths, LinkKind, NodeKind, Topology, TransportController,
};
use proptest::prelude::*;

proptest! {
    // ---- sim: event queue ------------------------------------------------

    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some(e) = q.pop() {
            prop_assert!(e.at >= last);
            last = e.at;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    #[test]
    fn event_queue_tie_break_is_fifo(n in 1usize..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_secs(1), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    // The queue's O(1) `len` is `heap size − cancelled size` with lazy
    // cancellation; this invariant must survive any interleaving of
    // schedule/cancel/pop/peek_time against a trivial model counter.
    #[test]
    fn event_queue_len_consistent_under_arbitrary_interleavings(
        ops in prop::collection::vec((0u8..4, 0u64..120), 1..300)
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model_len: usize = 0;
        let mut live: Vec<ScheduledId> = Vec::new();
        for (i, &(op, arg)) in ops.iter().enumerate() {
            match op {
                0 => {
                    // Schedule at/after the watermark (earlier would panic).
                    let at = q.watermark() + SimDuration::from_secs(arg);
                    live.push(q.schedule(at, i as u64));
                    model_len += 1;
                }
                1 => {
                    // Cancel a previously issued handle (possibly stale).
                    if !live.is_empty() {
                        let id = live.remove(arg as usize % live.len());
                        if q.cancel(id) {
                            model_len -= 1;
                        }
                    }
                }
                2 => {
                    if q.pop().is_some() {
                        model_len -= 1;
                    } else {
                        prop_assert_eq!(model_len, 0, "pop returned None on non-empty queue");
                    }
                }
                _ => {
                    // peek_time must not change the observable count.
                    let before = q.len();
                    let _ = q.peek_time();
                    prop_assert_eq!(q.len(), before);
                }
            }
            prop_assert_eq!(q.len(), model_len, "after op {} ({}, {})", i, op, arg);
            prop_assert_eq!(q.is_empty(), model_len == 0);
        }
        // Drain: exactly model_len events remain.
        let mut drained = 0;
        while q.pop().is_some() {
            drained += 1;
        }
        prop_assert_eq!(drained, model_len);
        prop_assert!(q.is_empty());
    }

    // ---- sim: histogram ----------------------------------------------------

    #[test]
    fn histogram_count_and_bounds(values in prop::collection::vec(0.0f64..100.0, 1..500)) {
        let mut h = Histogram::linear(0.0, 100.0, 10);
        for &v in &values {
            h.observe(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        let (buckets, overflow) = h.buckets();
        let total: u64 = buckets.iter().map(|&(_, c)| c).sum::<u64>() + overflow;
        prop_assert_eq!(total, values.len() as u64);
        // Quantiles are monotone and within [min, max].
        let q1 = h.quantile(0.25).unwrap();
        let q2 = h.quantile(0.5).unwrap();
        let q3 = h.quantile(0.75).unwrap();
        prop_assert!(q1 <= q2 && q2 <= q3);
        prop_assert!(q1 >= h.min().unwrap() - 1e-9);
        prop_assert!(q3 <= h.max().unwrap() + 1e-9);
    }

    // ---- sim: rng determinism ----------------------------------------------

    #[test]
    fn rng_streams_reproducible(seed in any::<u64>()) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    // ---- model: money ------------------------------------------------------

    #[test]
    fn money_sum_is_associative(cents in prop::collection::vec(-1_000_000i64..1_000_000, 0..50)) {
        let forward: Money = cents.iter().map(|&c| Money::from_cents(c)).sum();
        let backward: Money = cents.iter().rev().map(|&c| Money::from_cents(c)).sum();
        prop_assert_eq!(forward, backward);
        prop_assert_eq!(forward.cents(), cents.iter().sum::<i64>());
    }

    // ---- ran: PRB scheduler --------------------------------------------------

    #[test]
    fn scheduler_never_oversubscribes_and_guarantees_reservations(
        grid in 10u32..200,
        specs in prop::collection::vec((0u32..80, 0.0f64..60.0, 0.1f64..0.8), 1..8)
    ) {
        // Scale reservations so they fit the grid.
        let total_reserved: u32 = specs.iter().map(|&(r, _, _)| r).sum();
        let scale = if total_reserved > grid && total_reserved > 0 {
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
        prop_assert!(total <= grid, "allocated {} > grid {}", total, grid);
        for (load, out) in loads.iter().zip(&outs) {
            // Guarantee: each slice gets at least min(needed, reserved),
            // where "needed" uses the scheduler's epsilon-tolerant rounding.
            let needed = if load.prb_rate.is_zero() {
                0
            } else {
                Prbs::for_rate(load.offered, load.prb_rate).value()
            };
            prop_assert!(
                out.allocated.value() >= needed.min(load.reserved.value()),
                "slice {} got {} < guaranteed {}",
                load.slice, out.allocated, needed.min(load.reserved.value())
            );
            // Delivered never exceeds offered.
            prop_assert!(out.delivered.value() <= load.offered.value() + 1e-9);
            // lent + allocated >= reserved accounting.
            prop_assert_eq!(
                out.lent.value(),
                load.reserved.value().saturating_sub(out.allocated.value())
            );
        }
    }

    // ---- orchestrator: knapsack ----------------------------------------------

    #[test]
    fn knapsack_fits_capacity_and_beats_fcfs(
        cap in 1u32..150,
        items in prop::collection::vec((1u32..50, 1i64..500), 0..12)
    ) {
        let reqs: Vec<(Prbs, Money)> = items
            .iter()
            .map(|&(p, m)| (Prbs::new(p), Money::from_units(m)))
            .collect();
        let selected = knapsack_select(&reqs, Prbs::new(cap));
        let used: u32 = selected.iter().map(|&i| reqs[i].0.value()).sum();
        prop_assert!(used <= cap);
        // No duplicates.
        let mut sorted = selected.clone();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), selected.len());
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
        prop_assert!(knap_rev >= fcfs_rev);
    }

    // ---- transport: routing ------------------------------------------------

    #[test]
    fn dijkstra_is_optimal_among_yens_paths(seed in any::<u64>()) {
        // Random ladder topology.
        let mut rng = SimRng::seed_from(seed);
        let mut b = Topology::builder();
        let nodes: Vec<_> = (0..6)
            .map(|i| b.add_node(NodeKind::Switch(ovnes_model::SwitchId::new(i)), "s"))
            .collect();
        for i in 0..5 {
            b.add_link(
                nodes[i],
                nodes[i + 1],
                LinkKind::Wired,
                RateMbps::new(1000.0),
                ovnes_model::Latency::new(rng.uniform_range(0.1, 5.0)),
            );
        }
        // A few random chords.
        for _ in 0..4 {
            let a_i = rng.uniform_usize(0, 6);
            let b_i = rng.uniform_usize(0, 6);
            if a_i != b_i {
                b.add_link(
                    nodes[a_i],
                    nodes[b_i],
                    LinkKind::Wired,
                    RateMbps::new(1000.0),
                    ovnes_model::Latency::new(rng.uniform_range(0.1, 5.0)),
                );
            }
        }
        let topo = b.build();
        let delay = |l: ovnes_model::LinkId| topo.link(l).delay;
        let best = dijkstra(&topo, nodes[0], nodes[5], |_| true, delay).unwrap();
        let paths = k_shortest_paths(&topo, nodes[0], nodes[5], 5, |_| true, delay);
        prop_assert_eq!(&paths[0], &best);
        // Yen's list is sorted by delay. The algorithms compare integer
        // microseconds (exact arithmetic), so two paths within a microsecond
        // per hop may order either way in raw f64 terms: the tolerance is
        // the quantization bound (0.5 us per link, <= 6 links).
        let delays: Vec<f64> = paths.iter().map(|p| p.total_delay(delay).value()).collect();
        for w in delays.windows(2) {
            prop_assert!(w[0] <= w[1] + 0.003, "{:?}", delays);
        }
        // All loop-free.
        for p in &paths {
            let mut ns = p.nodes.clone();
            ns.sort();
            ns.dedup();
            prop_assert_eq!(ns.len(), p.nodes.len());
        }
    }

    // ---- api: substrate fault plan --------------------------------------------

    // `down_at` must agree with naive half-open window arithmetic for any
    // set of windows, and the plan must survive a JSON round-trip intact.
    #[test]
    fn substrate_down_at_matches_window_arithmetic(
        windows in prop::collection::vec((0u64..10_000, 0u64..10_000), 0..20),
        probes in prop::collection::vec(0u64..12_000, 1..50),
    ) {
        let element = SubstrateElement::Link(LinkId::new(3));
        let mut plan = SubstrateFaultPlan::new(7);
        for &(from, until) in &windows {
            plan = plan.with_outage(
                element,
                SimTime::from_secs(from),
                SimTime::from_secs(until),
            );
        }
        for &p in &probes {
            let now = SimTime::from_secs(p);
            let expected = windows.iter().any(|&(from, until)| from <= p && p < until);
            prop_assert_eq!(plan.down_at(element, now), expected, "at {}s", p);
            // Unmentioned elements are always up.
            prop_assert!(!plan.down_at(SubstrateElement::Link(LinkId::new(99)), now));
        }
        // Quietness is exactly "no window with until > from".
        prop_assert_eq!(plan.is_quiet(), windows.iter().all(|&(f, u)| u <= f));
        // Serde round-trip preserves the plan bit-for-bit.
        let json = serde_json::to_string(&plan).unwrap();
        let back: SubstrateFaultPlan = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, plan);
    }

    // Random outage generation is a pure function of (seed, element set):
    // same inputs, same schedule; and every generated window is well-formed
    // and starts inside the horizon.
    #[test]
    fn substrate_random_outages_are_deterministic_and_well_formed(
        seed in any::<u64>(),
        rate in 0.01f64..5.0,
        n_links in 1u64..8,
    ) {
        let elements: Vec<SubstrateElement> =
            (0..n_links).map(|l| SubstrateElement::Link(LinkId::new(l))).collect();
        let horizon = SimDuration::from_hours(6);
        let make = || SubstrateFaultPlan::new(seed).with_random_outages(
            &elements,
            rate,
            SimDuration::from_mins(10),
            horizon,
        );
        let a = make();
        prop_assert_eq!(&a, &make());
        for schedule in a.elements() {
            for &(from, until) in &schedule.outages {
                prop_assert!(until > from, "degenerate window");
                prop_assert!(from < SimTime::ZERO + horizon, "outage born past the horizon");
            }
        }
        // down_elements_at never reports an element the plan doesn't know.
        let probe = SimTime::ZERO + SimDuration::from_hours(3);
        for e in a.down_elements_at(probe) {
            prop_assert!(a.down_at(e, probe));
        }
    }

    // ---- transport: link fail/revive interleavings ----------------------------

    // Reason-stacked link health against a trivial counter model: any
    // interleaving of fail_link / revive_link / fail_switch / revive_switch
    // leaves `link_is_up` exactly where the model says, and reservations
    // are never dropped by health flapping alone.
    #[test]
    fn link_fail_revive_interleavings_match_counter_model(
        ops in prop::collection::vec((0u8..4, 0u8..16), 1..80)
    ) {
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
        let switches = [ovnes_model::SwitchId::new(0), ovnes_model::SwitchId::new(1)];
        // Model: per-link down-reason counters, mirroring fail/revive.
        let mut reasons = vec![0u32; link_count];
        let incident: Vec<Vec<usize>> = vec![vec![0, 1, 2, 3, 4, 5], vec![5, 6]];
        for &(op, a) in &ops {
            match op {
                0 => {
                    let l = a as usize % link_count;
                    t.fail_link(LinkId::new(l as u64));
                    reasons[l] += 1;
                }
                1 => {
                    let l = a as usize % link_count;
                    t.revive_link(LinkId::new(l as u64));
                    reasons[l] = reasons[l].saturating_sub(1);
                }
                2 => {
                    let s = a as usize % 2;
                    t.fail_switch(switches[s]);
                    for &l in &incident[s] {
                        reasons[l] += 1;
                    }
                }
                _ => {
                    let s = a as usize % 2;
                    t.revive_switch(switches[s]);
                    for &l in &incident[s] {
                        reasons[l] = reasons[l].saturating_sub(1);
                    }
                }
            }
            for (l, &r) in reasons.iter().enumerate() {
                prop_assert_eq!(
                    t.link_is_up(LinkId::new(l as u64)),
                    r == 0,
                    "link {} health diverged from model ({} reasons)", l, r
                );
            }
        }
        // Health flapping alone never drops a reservation.
        prop_assert!(t.reservation(slice).is_some());
        // Full recovery: clear every remaining reason; all links come back.
        for (l, r) in reasons.iter().enumerate() {
            for _ in 0..*r {
                t.revive_link(LinkId::new(l as u64));
            }
        }
        prop_assert!(t.down_links().is_empty());
    }

    // ---- api: retry policy ---------------------------------------------------

    #[test]
    fn retry_backoff_is_monotone_and_capped(
        base_ms in 1u64..2_000,
        multiplier in 0.5f64..4.0,
        cap_ms in 1u64..10_000,
        jitter in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: SimDuration::from_millis(base_ms),
            multiplier,
            max_backoff: SimDuration::from_millis(cap_ms),
            jitter,
            ..RetryPolicy::default()
        };
        let mut rng = SimRng::seed_from(seed);
        let mut prev = SimDuration::ZERO;
        for attempt in 1..10u32 {
            let b = policy.backoff(attempt);
            prop_assert!(b >= prev, "backoff shrank at attempt {}", attempt);
            prop_assert!(b <= policy.max_backoff);
            // Jitter only stretches, within the advertised band.
            let j = policy.jittered_backoff(attempt, &mut rng);
            prop_assert!(j >= b);
            let band = b.as_secs_f64() * (1.0 + jitter) + 1e-6;
            prop_assert!(j.as_secs_f64() <= band, "{j} outside [{b}, {band}]");
            prev = b;
        }
    }

    #[test]
    fn retry_schedule_bounds_attempts_and_deadline(
        base_ms in 1u64..1_000,
        multiplier in 0.5f64..3.0,
        cap_ms in 1u64..4_000,
        deadline_ms in 0u64..8_000,
        max_attempts in 1u32..12,
    ) {
        let policy = RetryPolicy {
            max_attempts,
            base_backoff: SimDuration::from_millis(base_ms),
            multiplier,
            max_backoff: SimDuration::from_millis(cap_ms),
            deadline: SimDuration::from_millis(deadline_ms),
            jitter: 0.0,
        };
        let schedule = policy.nominal_schedule();
        // At most one wait per retry (attempts beyond the first).
        prop_assert!(schedule.len() < max_attempts as usize || max_attempts == 1);
        // The cumulative nominal wait respects the per-call deadline.
        let mut elapsed = SimDuration::ZERO;
        for &w in &schedule {
            elapsed += w;
        }
        prop_assert!(elapsed <= policy.deadline);
        // Waits themselves are monotone non-decreasing.
        for w in schedule.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    // ---- api: fault injection -------------------------------------------------

    #[test]
    fn quiet_fault_plan_is_an_exact_noop(
        seed in any::<u64>(),
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..20),
    ) {
        // An installed-but-empty plan must be indistinguishable from calling
        // the bus directly: same responses, same served counters, no
        // latency, no recorded faults.
        let echo_bus = || {
            let mut bus = MessageBus::new();
            bus.register("echo", |req| Response::ok(req.id, req.body));
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
            prop_assert_eq!(a, b);
            prop_assert_eq!(latency, SimDuration::ZERO);
        }
        prop_assert_eq!(plain.served("echo"), wrapped.served("echo"));
        prop_assert!(inj.stats().is_empty());
    }
}

// ---- orchestrator: federation ----------------------------------------------

proptest! {
    // Full federated runs are expensive; a handful of cases per property
    // still sweeps seeds, load levels, and shard counts every run.
    #![proptest_config(ProptestConfig::with_cases(4))]

    // A 1-region federation IS the demo scenario: the broker adds no
    // observable behaviour of its own — region 0's RNG streams and fold
    // arithmetic reproduce the single-world oracle bit-for-bit, and with
    // no sibling there is never anywhere to spill.
    #[test]
    fn single_region_federation_is_the_demo_scenario(
        seed in 0u64..10_000,
        arrivals in 5.0f64..35.0,
    ) {
        let cfg = FederationConfig {
            seed,
            regions: 1,
            arrivals_per_hour: arrivals,
            horizon: SimDuration::from_hours(1),
            ..FederationConfig::default()
        };
        let fed = FederationBroker::build(cfg.clone()).run();
        prop_assert_eq!(fed.spilled, 0, "one region has nowhere to spill");
        let demo = DemoScenario::build(region_scenario_config(&cfg)).run();
        prop_assert_eq!(fed.admitted, demo.admitted);
        prop_assert_eq!(&fed.regions[0], &demo);
    }

    // Shard-epoch interleaving is invisible: federated admission (spills
    // included) under 1 worker equals the same run under 2 and 5 workers,
    // for arbitrary seeds, shard counts, and load.
    #[test]
    fn federated_admission_is_invariant_to_shard_interleaving(
        seed in 0u64..10_000,
        regions in 1usize..4,
        arrivals in 10.0f64..50.0,
    ) {
        let run_at = |threads: usize| {
            let _pin = ovnes_sim::par::pin_threads(threads);
            FederationBroker::build(FederationConfig {
                seed,
                regions,
                arrivals_per_hour: arrivals,
                horizon: SimDuration::from_hours(1),
                ..FederationConfig::default()
            })
            .run()
        };
        let one = run_at(1);
        prop_assert_eq!(&one, &run_at(2));
        prop_assert_eq!(&one, &run_at(5));
    }
}
