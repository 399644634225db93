//! Intra-slice scheduling: dividing a slice's allocated PRBs among its UEs.
//!
//! [`schedule_epoch`](crate::scheduler::schedule_epoch) decides how many
//! PRBs each *slice* gets; this module decides how each slice spends them
//! on its *UEs* with the classic proportional-fair (PF) rule: each PRB
//! round goes to the UE maximizing `instantaneous_rate / average_rate`, so
//! cell-edge UEs are not starved (as max-rate would) while good channels
//! are still favored (unlike round-robin).
//!
//! PF state (the throughput average) persists across epochs in
//! [`PfState`]; the demo's per-slice QoS is the aggregate, but per-UE
//! fairness determines whether *every* device in a vertical's fleet works.
//!
//! ## Scale
//!
//! State lives in a dense struct-of-arrays slab (`ids`/`avg`, sorted by UE
//! id) instead of a `BTreeMap<UeId, f64>`, and the grant loop is a max-heap
//! keyed by the PF metric — O(PRBs·log UEs) instead of the per-PRB linear
//! argmax's O(PRBs·UEs). The per-PRB reference survives in this module's
//! tests (`schedule_reference`), and the heap path is bit-identical to it
//! by construction: the heap's comparator is the argmax's comparator
//! (metric, ties to the lower UE id), only the granted UE's metric ever
//! changes between grants, and that entry is re-keyed in place before the
//! next pop — so both loops pick the same unique maximum every round.
//!
//! With a caller-held [`PfScratch`] and output buffer
//! ([`PfState::schedule_into`]), a steady-state epoch allocates nothing:
//! the slab, heap and grant counters are all reused.
//!
//! UEs that leave the slice are evicted automatically: `channels` is the
//! slice's *full* current roster (UEs in outage included, with `cqi:
//! None`), so state for any UE absent from it is dropped — the map no
//! longer grows monotonically as devices churn through a fleet.

use crate::cqi::Cqi;
use ovnes_model::{Prbs, RateMbps, UeId};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One UE's channel state this epoch, as input to PF.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UeChannel {
    /// The UE.
    pub ue: UeId,
    /// Its achievable CQI this epoch (`None` = outage: unschedulable).
    pub cqi: Option<Cqi>,
    /// Rate one PRB carries at that CQI (cell profile applied).
    pub prb_rate: RateMbps,
}

/// One UE's share of the slice's PRBs this epoch.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UeShare {
    /// The UE.
    pub ue: UeId,
    /// PRBs granted.
    pub prbs: Prbs,
    /// Rate achieved with them.
    pub rate: RateMbps,
}

/// A heap entry of the PF grant loop: one schedulable UE, keyed by its
/// current PF metric. Ordering replicates the reference argmax comparator
/// exactly: higher metric wins, metric ties go to the lower UE id. UE ids
/// are unique within an epoch, so the maximum is always unique and the
/// heap pops the same UE the linear scan would have found.
#[derive(Debug)]
struct PfEntry {
    /// Current PF metric: `prb_rate / (average + ε)`. Finite by
    /// construction (rates are finite, the denominator is ≥ ε).
    metric: f64,
    ue: UeId,
    /// Position in this epoch's `channels` slice.
    ci: usize,
}

impl PartialEq for PfEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for PfEntry {}
impl PartialOrd for PfEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PfEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.metric
            .partial_cmp(&other.metric)
            .expect("PF metrics are finite")
            // Ties: prefer the lower UE id.
            .then_with(|| other.ue.cmp(&self.ue))
    }
}

/// Reusable working memory for [`PfState::schedule_into`]. A caller threads
/// one scratch through every epoch so the PF hot path allocates nothing in
/// steady state; buffers grow lazily to the roster size on first use.
#[derive(Debug, Default)]
pub struct PfScratch {
    /// Dense slab slot of each channel this epoch (parallel to `channels`).
    slot: Vec<usize>,
    /// PRBs granted per channel this epoch (parallel to `channels`).
    granted: Vec<u32>,
    /// Eviction marks, parallel to the slab (used only on roster shrink).
    touched: Vec<bool>,
    /// The grant loop's heap buffer, recycled across epochs.
    entries: Vec<PfEntry>,
}

impl PfScratch {
    /// Empty scratch; buffers grow lazily on first use.
    pub fn new() -> PfScratch {
        Self::default()
    }
}

/// Persistent proportional-fair state: exponentially averaged per-UE
/// throughput, stored as a dense slab (`ids` ascending, `avg` parallel).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PfState {
    /// Tracked UEs, ascending.
    ids: Vec<UeId>,
    /// Averaged throughput per UE (Mbps), parallel to `ids`.
    avg: Vec<f64>,
}

impl PfState {
    /// Fresh state (all averages start at zero → first epoch is rate-blind
    /// and therefore fair by construction).
    pub fn new() -> PfState {
        Self::default()
    }

    /// The current throughput average of `ue` (0 if never scheduled).
    pub fn average(&self, ue: UeId) -> f64 {
        match self.ids.binary_search(&ue) {
            Ok(i) => self.avg[i],
            Err(_) => 0.0,
        }
    }

    /// Number of UEs currently tracked.
    pub fn tracked(&self) -> usize {
        self.ids.len()
    }

    /// Drop state for UEs that left the slice.
    pub fn retain(&mut self, keep: impl Fn(UeId) -> bool) {
        let mut w = 0;
        for r in 0..self.ids.len() {
            if keep(self.ids[r]) {
                self.ids[w] = self.ids[r];
                self.avg[w] = self.avg[r];
                w += 1;
            }
        }
        self.ids.truncate(w);
        self.avg.truncate(w);
    }

    /// Evict one UE (detach). True if it was tracked.
    pub fn evict(&mut self, ue: UeId) -> bool {
        match self.ids.binary_search(&ue) {
            Ok(i) => {
                self.ids.remove(i);
                self.avg.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Distribute `prbs` among `channels` by iterated PF and update the
    /// averages with smoothing factor `alpha` (e.g. 0.1).
    ///
    /// Deterministic: metric ties break toward the lower UE id. PRBs are
    /// granted in blocks of one; UEs in outage receive nothing and their
    /// average decays. `channels` must name each UE at most once and is
    /// taken as the slice's full roster: state for UEs not listed is
    /// evicted (they have departed — see the module docs).
    ///
    /// Convenience wrapper over [`schedule_into`](Self::schedule_into) with
    /// one-shot buffers; epoch hot paths should hold a [`PfScratch`] and
    /// call `schedule_into` instead.
    pub fn schedule(&mut self, prbs: Prbs, channels: &[UeChannel], alpha: f64) -> Vec<UeShare> {
        let mut out = Vec::new();
        self.schedule_into(prbs, channels, alpha, &mut PfScratch::new(), &mut out);
        out
    }

    /// [`schedule`](Self::schedule) into caller-owned buffers: `scratch`
    /// holds the grant loop's working memory and `out` receives the shares
    /// (cleared first). Steady-state epochs allocate nothing.
    pub fn schedule_into(
        &mut self,
        prbs: Prbs,
        channels: &[UeChannel],
        alpha: f64,
        scratch: &mut PfScratch,
        out: &mut Vec<UeShare>,
    ) {
        self.begin_epoch(channels, scratch);

        // Build the heap over schedulable UEs, keyed by the current PF
        // metric. Heapify over the recycled buffer is O(UEs).
        let mut entries = std::mem::take(&mut scratch.entries);
        entries.clear();
        for (ci, c) in channels.iter().enumerate() {
            if c.cqi.is_some() && !c.prb_rate.is_zero() {
                entries.push(PfEntry {
                    metric: c.prb_rate.value() / (self.avg[scratch.slot[ci]] + 1e-6),
                    ue: c.ue,
                    ci,
                });
            }
        }
        let mut heap = BinaryHeap::from(entries);

        if !heap.is_empty() {
            // Track the rate each UE would accumulate this epoch; PF metric
            // uses the long-term average plus a small epsilon. Granting
            // raises the *tentative* average so the next PRB can go
            // elsewhere — the standard per-TTI PF loop. Only the winner's
            // metric changes, so re-keying it in place (PeekMut sifts on
            // drop) keeps every other heap key current.
            for _ in 0..prbs.value() {
                let mut top = heap.peek_mut().expect("heap is non-empty");
                let ci = top.ci;
                let c = &channels[ci];
                scratch.granted[ci] += 1;
                let slot = scratch.slot[ci];
                self.avg[slot] += c.prb_rate.value() * alpha;
                top.metric = c.prb_rate.value() / (self.avg[slot] + 1e-6);
            }
        }

        scratch.entries = heap.into_vec();
        self.finish_epoch(channels, alpha, scratch, out);
    }

    /// Shared epoch prologue: register every channel's UE in the slab,
    /// evict UEs that departed the roster, and resolve each channel's slab
    /// slot into `scratch.slot`. In steady state (same roster as last
    /// epoch) this is 2·UEs binary searches and no allocation.
    fn begin_epoch(&mut self, channels: &[UeChannel], scratch: &mut PfScratch) {
        for c in channels {
            if let Err(pos) = self.ids.binary_search(&c.ue) {
                self.ids.insert(pos, c.ue);
                self.avg.insert(pos, 0.0);
            }
        }
        if self.ids.len() != channels.len() {
            // Roster shrank (or grew past UEs that left the same epoch):
            // drop state for everyone not in this epoch's channel list.
            scratch.touched.clear();
            scratch.touched.resize(self.ids.len(), false);
            for c in channels {
                if let Ok(i) = self.ids.binary_search(&c.ue) {
                    scratch.touched[i] = true;
                }
            }
            let mut w = 0;
            for r in 0..self.ids.len() {
                if scratch.touched[r] {
                    self.ids[w] = self.ids[r];
                    self.avg[w] = self.avg[r];
                    w += 1;
                }
            }
            self.ids.truncate(w);
            self.avg.truncate(w);
        }
        scratch.slot.clear();
        scratch.granted.clear();
        scratch.granted.resize(channels.len(), 0);
        for c in channels {
            let slot = self
                .ids
                .binary_search(&c.ue)
                .expect("registered just above");
            scratch.slot.push(slot);
        }
    }

    /// Shared epoch epilogue: final smoothing update (decay everyone toward
    /// their epoch rate) and share emission in channel order.
    fn finish_epoch(
        &mut self,
        channels: &[UeChannel],
        alpha: f64,
        scratch: &PfScratch,
        out: &mut Vec<UeShare>,
    ) {
        out.clear();
        out.reserve(channels.len());
        for (ci, c) in channels.iter().enumerate() {
            let prbs_granted = scratch.granted[ci];
            let rate = RateMbps::new(prbs_granted as f64 * c.prb_rate.value());
            let avg = &mut self.avg[scratch.slot[ci]];
            *avg = (1.0 - alpha) * *avg + alpha * rate.value();
            out.push(UeShare {
                ue: c.ue,
                prbs: Prbs::new(prbs_granted),
                rate,
            });
        }
    }
}

/// Jain's fairness index of a set of rates: 1 = perfectly fair, 1/n =
/// maximally unfair.
pub fn jain_index(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        return 1.0;
    }
    let sum: f64 = rates.iter().sum();
    let sq_sum: f64 = rates.iter().map(|r| r * r).sum();
    if sq_sum == 0.0 {
        return 1.0;
    }
    sum * sum / (rates.len() as f64 * sq_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cqi::prb_rate_mbps;
    use ovnes_sim::SimRng;

    fn ch(ue: u64, cqi: u8) -> UeChannel {
        let c = Cqi::new(cqi);
        UeChannel {
            ue: UeId::new(ue),
            cqi: c,
            prb_rate: RateMbps::new(c.map_or(0.0, prb_rate_mbps)),
        }
    }

    fn outage(ue: u64) -> UeChannel {
        UeChannel {
            ue: UeId::new(ue),
            cqi: None,
            prb_rate: RateMbps::ZERO,
        }
    }

    #[test]
    fn all_prbs_are_granted() {
        let mut pf = PfState::new();
        let channels = [ch(1, 10), ch(2, 10), ch(3, 10)];
        let shares = pf.schedule(Prbs::new(30), &channels, 0.1);
        let total: u32 = shares.iter().map(|s| s.prbs.value()).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn equal_channels_split_equally() {
        let mut pf = PfState::new();
        let channels = [ch(1, 9), ch(2, 9), ch(3, 9)];
        for _ in 0..20 {
            pf.schedule(Prbs::new(30), &channels, 0.1);
        }
        let shares = pf.schedule(Prbs::new(30), &channels, 0.1);
        for s in &shares {
            assert_eq!(s.prbs, Prbs::new(10), "{s:?}");
        }
    }

    #[test]
    fn outage_ue_gets_nothing_but_others_share() {
        let mut pf = PfState::new();
        let channels = [ch(1, 12), outage(2), ch(3, 12)];
        let shares = pf.schedule(Prbs::new(10), &channels, 0.1);
        assert_eq!(shares[1].prbs, Prbs::ZERO);
        assert_eq!(shares[1].rate, RateMbps::ZERO);
        let total: u32 = shares.iter().map(|s| s.prbs.value()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn all_outage_grants_nothing() {
        let mut pf = PfState::new();
        let shares = pf.schedule(Prbs::new(10), &[outage(1), outage(2)], 0.1);
        assert!(shares.iter().all(|s| s.prbs.is_zero()));
    }

    #[test]
    fn pf_is_fairer_than_max_rate_under_asymmetry() {
        // One near UE (CQI 14) and one edge UE (CQI 3). Max-rate would give
        // everything to CQI 14 forever; PF must keep the edge UE alive.
        let channels = [ch(1, 14), ch(2, 3)];
        let mut pf = PfState::new();
        let mut rates = [0.0f64; 2];
        let epochs = 100;
        for _ in 0..epochs {
            let shares = pf.schedule(Prbs::new(20), &channels, 0.1);
            for (i, s) in shares.iter().enumerate() {
                rates[i] += s.rate.value();
            }
        }
        assert!(rates[1] > 0.0, "edge UE starved");
        // PF equalizes *time share*, not rate: with a ~13x channel gap the
        // rate-domain Jain settles near 0.57 — still strictly above the 0.5
        // a max-rate scheduler would produce (edge UE fully starved).
        let fairness = jain_index(&rates);
        assert!(fairness > 0.55, "Jain {fairness}");
        // And PF still favors the better channel in *rate* terms.
        assert!(rates[0] > rates[1]);
    }

    #[test]
    fn pf_time_share_tilts_toward_edge_ue() {
        // PF equalizes *relative* throughput, which means the edge UE gets
        // at least as many PRBs as the strong one.
        let channels = [ch(1, 14), ch(2, 3)];
        let mut pf = PfState::new();
        let mut prbs = [0u32; 2];
        for _ in 0..100 {
            let shares = pf.schedule(Prbs::new(20), &channels, 0.1);
            for (i, s) in shares.iter().enumerate() {
                prbs[i] += s.prbs.value();
            }
        }
        assert!(prbs[1] >= prbs[0], "edge {} vs near {}", prbs[1], prbs[0]);
    }

    #[test]
    fn retain_drops_departed_ues() {
        let mut pf = PfState::new();
        pf.schedule(Prbs::new(10), &[ch(1, 9), ch(2, 9)], 0.1);
        assert!(pf.average(UeId::new(2)) > 0.0);
        pf.retain(|ue| ue == UeId::new(1));
        assert_eq!(pf.average(UeId::new(2)), 0.0);
        assert!(pf.average(UeId::new(1)) > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut pf = PfState::new();
            let channels = [ch(1, 11), ch(2, 7), ch(3, 4)];
            (0..50)
                .map(|_| pf.schedule(Prbs::new(17), &channels, 0.1))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn jain_index_properties() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
        let skewed = jain_index(&[10.0, 1.0, 1.0]);
        assert!(skewed > 1.0 / 3.0 && skewed < 1.0);
    }

    // ---- heap vs. per-PRB reference -----------------------------------

    impl PfState {
        /// The retained per-PRB reference implementation: a linear argmax over
        /// the schedulable UEs for every PRB — O(PRBs·UEs). Kept as the test
        /// oracle; [`schedule_into`](Self::schedule_into) must match
        /// it bit for bit.
        fn schedule_reference(
            &mut self,
            prbs: Prbs,
            channels: &[UeChannel],
            alpha: f64,
        ) -> Vec<UeShare> {
            let mut out = Vec::new();
            self.schedule_reference_into(prbs, channels, alpha, &mut PfScratch::new(), &mut out);
            out
        }

        /// [`schedule_reference`](Self::schedule_reference) into caller-owned
        /// buffers (same contract as [`schedule_into`](Self::schedule_into)).
        fn schedule_reference_into(
            &mut self,
            prbs: Prbs,
            channels: &[UeChannel],
            alpha: f64,
            scratch: &mut PfScratch,
            out: &mut Vec<UeShare>,
        ) {
            self.begin_epoch(channels, scratch);

            let any_schedulable = channels
                .iter()
                .any(|c| c.cqi.is_some() && !c.prb_rate.is_zero());
            if any_schedulable {
                for _ in 0..prbs.value() {
                    let mut best: Option<usize> = None;
                    for (ci, c) in channels.iter().enumerate() {
                        if c.cqi.is_none() || c.prb_rate.is_zero() {
                            continue;
                        }
                        let metric = |ci: usize| {
                            channels[ci].prb_rate.value() / (self.avg[scratch.slot[ci]] + 1e-6)
                        };
                        let better = match best {
                            None => true,
                            Some(b) => metric(ci)
                                .partial_cmp(&metric(b))
                                .expect("rates are finite")
                                // Ties: prefer the lower UE id.
                                .then_with(|| channels[b].ue.cmp(&c.ue))
                                .is_gt(),
                        };
                        if better {
                            best = Some(ci);
                        }
                    }
                    let ci = best.expect("a schedulable UE exists");
                    scratch.granted[ci] += 1;
                    self.avg[scratch.slot[ci]] += channels[ci].prb_rate.value() * alpha;
                }
            }

            self.finish_epoch(channels, alpha, scratch, out);
        }
    }

    fn assert_bitwise_eq(a: &[UeShare], b: &[UeShare]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.ue, y.ue);
            assert_eq!(x.prbs, y.prbs);
            assert_eq!(
                x.rate.value().to_bits(),
                y.rate.value().to_bits(),
                "rates diverged for {}",
                x.ue
            );
        }
    }

    #[test]
    fn heap_matches_reference_bit_for_bit() {
        // Mixed channel qualities, outages, and a deliberate metric tie
        // (UEs 4 and 5 share a CQI): 60 epochs of both paths on twin
        // states must never diverge by a single bit.
        let channels = [ch(1, 14), ch(2, 7), outage(3), ch(4, 9), ch(5, 9), ch(6, 1)];
        let mut heap = PfState::new();
        let mut oracle = PfState::new();
        let mut scratch = PfScratch::new();
        let mut shares = Vec::new();
        for epoch in 0..60 {
            heap.schedule_into(Prbs::new(23), &channels, 0.1, &mut scratch, &mut shares);
            let expect = oracle.schedule_reference(Prbs::new(23), &channels, 0.1);
            assert_bitwise_eq(&shares, &expect);
            for &ch in &channels {
                assert_eq!(
                    heap.average(ch.ue).to_bits(),
                    oracle.average(ch.ue).to_bits(),
                    "averages diverged at epoch {epoch}"
                );
            }
        }
    }

    #[test]
    fn heap_matches_reference_under_ties_from_cold_state() {
        // All averages zero and all rates equal: every PRB is a pure
        // tie-break. Both paths must walk the ids in the same order.
        let channels: Vec<UeChannel> = (0..7).map(|u| ch(u, 9)).collect();
        let mut heap = PfState::new();
        let mut oracle = PfState::new();
        let a = heap.schedule(Prbs::new(10), &channels, 0.1);
        let b = oracle.schedule_reference(Prbs::new(10), &channels, 0.1);
        assert_bitwise_eq(&a, &b);
        // 10 PRBs over 7 equal UEs: the 3 leftovers land on the lowest ids.
        assert_eq!(a[0].prbs, Prbs::new(2));
        assert_eq!(a[6].prbs, Prbs::new(1));
    }

    #[test]
    fn heap_pf_is_bitwise_identical_to_reference() {
        // The heap grant loop against the per-PRB argmax across seeded
        // rosters — outages (cqi 0), unschedulable UEs (rate class 0), few
        // rate classes so metric ties are common — with a UE departing at
        // `epoch % 7 == 3` and returning at `4`, and a truncated roster on
        // the last epoch, so slab eviction stays aligned too.
        for case in 0..256u64 {
            let mut rng = SimRng::seed_from(case);
            let prbs = Prbs::new(rng.uniform_usize(0, 60) as u32);
            let alpha = rng.uniform_range(0.01, 0.9);
            let mut channels: Vec<UeChannel> = (0..rng.uniform_usize(0, 40))
                .map(|i| UeChannel {
                    ue: UeId::new(i as u64),
                    cqi: Cqi::new(rng.uniform_usize(0, 16) as u8),
                    prb_rate: RateMbps::new(rng.uniform_usize(0, 5) as f64 * 0.35),
                })
                .collect();
            let epochs = rng.uniform_usize(1, 13);
            let shrink = rng.uniform_usize(0, 10);
            let mut heap = PfState::new();
            let mut oracle = PfState::new();
            let (mut scratch, mut oracle_scratch) = (PfScratch::new(), PfScratch::new());
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut stash = None;
            for epoch in 0..epochs {
                match epoch % 7 {
                    3 => stash = channels.pop(),
                    4 => channels.extend(stash.take()),
                    _ => {}
                }
                if epoch + 1 == epochs {
                    channels.truncate(channels.len().saturating_sub(shrink));
                }
                heap.schedule_into(prbs, &channels, alpha, &mut scratch, &mut got);
                oracle.schedule_reference_into(
                    prbs,
                    &channels,
                    alpha,
                    &mut oracle_scratch,
                    &mut want,
                );
                let at = format!("case {case}, epoch {epoch}: {channels:?}");
                assert_eq!(got.len(), want.len(), "{at}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!((g.ue, g.prbs), (w.ue, w.prbs), "{at}");
                    assert_eq!(g.rate.value().to_bits(), w.rate.value().to_bits(), "{at}");
                }
                assert_eq!(heap.tracked(), oracle.tracked(), "{at}");
                for c in &channels {
                    assert_eq!(
                        heap.average(c.ue).to_bits(),
                        oracle.average(c.ue).to_bits(),
                        "average of {} diverged, {at}",
                        c.ue
                    );
                }
                // Every PRB is granted iff anyone can take it.
                let any = channels
                    .iter()
                    .any(|c| c.cqi.is_some() && !c.prb_rate.is_zero());
                let total: u32 = got.iter().map(|s| s.prbs.value()).sum();
                assert_eq!(total, if any { prbs.value() } else { 0 }, "{at}");
            }
        }
    }

    #[test]
    fn departed_ues_are_evicted_from_the_slab() {
        // Regression for the PfState leak: the map used to grow
        // monotonically because departed UEs were never evicted.
        let mut pf = PfState::new();
        pf.schedule(Prbs::new(10), &[ch(1, 9), ch(2, 9), ch(3, 9)], 0.1);
        assert_eq!(pf.tracked(), 3);
        // UE 2 departs: the next epoch's roster no longer lists it.
        pf.schedule(Prbs::new(10), &[ch(1, 9), ch(3, 9)], 0.1);
        assert_eq!(pf.tracked(), 2);
        assert_eq!(pf.average(UeId::new(2)), 0.0, "state dropped");
        assert!(pf.average(UeId::new(1)) > 0.0);
        // Churn does not accumulate state: cycle fresh ids through.
        for round in 0..50u64 {
            let roster = [ch(100 + round, 9), ch(200 + round, 9)];
            pf.schedule(Prbs::new(10), &roster, 0.1);
            assert_eq!(pf.tracked(), 2, "round {round}");
        }
    }

    #[test]
    fn evict_and_tracked() {
        let mut pf = PfState::new();
        pf.schedule(Prbs::new(6), &[ch(1, 9), ch(2, 9)], 0.1);
        assert_eq!(pf.tracked(), 2);
        assert!(pf.evict(UeId::new(1)));
        assert!(!pf.evict(UeId::new(1)), "already gone");
        assert_eq!(pf.tracked(), 1);
        assert_eq!(pf.average(UeId::new(1)), 0.0);
    }

    #[test]
    fn outage_ue_average_still_decays() {
        // A UE in outage stays on the roster: its average decays toward
        // zero but its state is not evicted.
        let mut pf = PfState::new();
        pf.schedule(Prbs::new(10), &[ch(1, 9), ch(2, 9)], 0.1);
        let before = pf.average(UeId::new(2));
        assert!(before > 0.0);
        pf.schedule(Prbs::new(10), &[ch(1, 9), outage(2)], 0.1);
        let after = pf.average(UeId::new(2));
        assert!(after > 0.0 && after < before, "decayed, not evicted");
        assert_eq!(pf.tracked(), 2);
    }

    #[test]
    fn scratch_reuse_is_invisible() {
        // One scratch threaded through interleaved epochs of two slices
        // with different roster sizes must not change any outcome.
        let a_channels = [ch(1, 12), ch(2, 5)];
        let b_channels = [ch(10, 9), ch(11, 9), ch(12, 3), outage(13)];
        let mut shared_a = PfState::new();
        let mut shared_b = PfState::new();
        let mut scratch = PfScratch::new();
        let mut out = Vec::new();
        let mut fresh_a = PfState::new();
        let mut fresh_b = PfState::new();
        for _ in 0..20 {
            shared_a.schedule_into(Prbs::new(9), &a_channels, 0.1, &mut scratch, &mut out);
            let expect = fresh_a.schedule(Prbs::new(9), &a_channels, 0.1);
            assert_bitwise_eq(&out, &expect);
            shared_b.schedule_into(Prbs::new(31), &b_channels, 0.1, &mut scratch, &mut out);
            let expect = fresh_b.schedule(Prbs::new(31), &b_channels, 0.1);
            assert_bitwise_eq(&out, &expect);
        }
    }

    #[test]
    fn zero_prbs_still_updates_averages() {
        let mut pf = PfState::new();
        pf.schedule(Prbs::new(10), &[ch(1, 9)], 0.1);
        let before = pf.average(UeId::new(1));
        let shares = pf.schedule(Prbs::ZERO, &[ch(1, 9)], 0.1);
        assert_eq!(shares[0].prbs, Prbs::ZERO);
        assert!(pf.average(UeId::new(1)) < before, "decays with no grant");
    }

    #[test]
    fn empty_roster_clears_state() {
        let mut pf = PfState::new();
        pf.schedule(Prbs::new(10), &[ch(1, 9)], 0.1);
        assert_eq!(pf.tracked(), 1);
        let shares = pf.schedule(Prbs::new(10), &[], 0.1);
        assert!(shares.is_empty());
        assert_eq!(pf.tracked(), 0, "no UEs left, no state kept");
    }
}
