//! Seeded, forkable randomness for reproducible simulations.
//!
//! [`SimRng`] wraps a ChaCha12 stream (specified algorithm, stable across
//! platform and crate versions, unlike `StdRng`) and adds:
//!
//! * **Forking** — [`SimRng::fork`] derives an independent child stream from
//!   a label, so each domain (RAN, transport, cloud, traffic) gets its own
//!   stream and adding draws in one domain never perturbs another. This is
//!   what keeps experiments comparable across code changes.
//! * The handful of distributions the testbed models need (uniform, normal,
//!   lognormal, exponential, Poisson, Bernoulli) implemented directly so we
//!   control their exact sampling algorithm.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Deterministic random stream. See module docs.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha12Rng,
}

/// The complete, serializable position of a [`SimRng`]: restoring from it
/// resumes the stream at exactly the next draw the original would have made.
///
/// ChaCha's 128-bit word position is carried as two `u64` halves so the
/// state survives JSON (serde_json cannot represent `u128` keys/values in
/// every reader).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RngState {
    /// The 256-bit ChaCha seed.
    pub seed: [u8; 32],
    /// High 64 bits of the stream's word position.
    pub word_pos_hi: u64,
    /// Low 64 bits of the stream's word position.
    pub word_pos_lo: u64,
    /// ChaCha stream id (always 0 for seed/fork-derived streams, but
    /// captured anyway so the state is complete by construction).
    pub stream: u64,
}

impl SimRng {
    /// Create a stream from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: ChaCha12Rng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream from a string label.
    ///
    /// The child is a pure function of (parent seed position, label), so the
    /// same label always yields the same child for the same parent state.
    /// Forking advances the parent by exactly one `u64` draw.
    pub fn fork(&mut self, label: &str) -> SimRng {
        // FNV-1a over the label, mixed with one draw from the parent.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        let salt = self.inner.next_u64();
        SimRng::seed_from(hash ^ salt.rotate_left(17))
    }

    /// Derive an independent child stream from a label **without advancing
    /// the parent**.
    ///
    /// Unlike [`SimRng::fork`], this is a pure function of (current parent
    /// state, label): calling it repeatedly with the same label yields the
    /// same child, and deriving streams for many entities in *any order*
    /// yields the same set of children. This is the primitive behind the
    /// parallel epoch pipeline's per-entity RNG rule — a shard's stream is
    /// keyed by the entity's stable id, never by iteration or thread order.
    pub fn stream(&self, label: &str) -> SimRng {
        self.clone().fork(label)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform float in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (self.inner.gen::<u64>() % (hi - lo) as u64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard normal via Box–Muller.
    pub fn std_normal(&mut self) -> f64 {
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        debug_assert!(std_dev >= 0.0);
        mean + std_dev * self.std_normal()
    }

    /// Lognormal: `exp(N(mu, sigma))`. Used for radio shadowing.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Exponential with the given rate (mean `1/rate`). Used for Poisson
    /// arrival inter-times of slice requests.
    ///
    /// # Panics
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be > 0, got {rate}");
        let u = 1.0 - self.uniform(); // in (0, 1]
        -u.ln() / rate
    }

    /// Poisson-distributed count with the given mean (Knuth for small means,
    /// normal approximation above 30 to stay O(1)).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        assert!(mean >= 0.0, "poisson mean must be >= 0, got {mean}");
        if mean == 0.0 {
            return 0;
        }
        if mean > 30.0 {
            return self.normal(mean, mean.sqrt()).max(0.0).round() as u64;
        }
        let limit = (-mean).exp();
        let mut product = self.uniform();
        let mut count = 0u64;
        while product > limit {
            count += 1;
            product *= self.uniform();
        }
        count
    }

    /// Sample an index according to non-negative `weights`.
    ///
    /// # Panics
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "weighted_index needs a non-empty, positive-sum weight vector"
        );
        let mut target = self.uniform() * total;
        for (i, w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1 // numerical edge: fall into the last bucket
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform_usize(0, i + 1);
            items.swap(i, j);
        }
    }

    /// Capture the stream's exact position for checkpointing.
    pub fn state(&self) -> RngState {
        let word_pos = self.inner.get_word_pos();
        RngState {
            seed: self.inner.get_seed(),
            word_pos_hi: (word_pos >> 64) as u64,
            word_pos_lo: word_pos as u64,
            stream: self.inner.get_stream(),
        }
    }

    /// Rebuild a stream at the exact position captured by [`SimRng::state`].
    pub fn from_state(state: &RngState) -> SimRng {
        let mut inner = ChaCha12Rng::from_seed(state.seed);
        inner.set_stream(state.stream);
        inner.set_word_pos(((state.word_pos_hi as u128) << 64) | state.word_pos_lo as u128);
        SimRng { inner }
    }
}

impl PartialEq for SimRng {
    fn eq(&self, other: &Self) -> bool {
        self.state() == other.state()
    }
}

impl Serialize for SimRng {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.state().serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for SimRng {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(SimRng::from_state(&RngState::deserialize(deserializer)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn forks_are_independent_and_reproducible() {
        let mut parent1 = SimRng::seed_from(99);
        let mut parent2 = SimRng::seed_from(99);
        let mut ran1 = parent1.fork("ran");
        let mut ran2 = parent2.fork("ran");
        assert_eq!(ran1.next_u64(), ran2.next_u64());

        // Different labels from the same parent state give different streams.
        let mut p3 = SimRng::seed_from(99);
        let mut p4 = SimRng::seed_from(99);
        let mut x = p3.fork("ran");
        let mut y = p4.fork("cloud");
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn streams_are_order_independent_and_leave_parent_untouched() {
        // Deriving per-entity streams must not depend on derivation order —
        // the property the parallel epoch pipeline rests on.
        let parent = SimRng::seed_from(1234);
        let mut ab = (parent.stream("slice-1"), parent.stream("slice-2"));
        let mut ba = (parent.stream("slice-2"), parent.stream("slice-1"));
        assert_eq!(ab.0.next_u64(), ba.1.next_u64());
        assert_eq!(ab.1.next_u64(), ba.0.next_u64());

        // Same label twice: same stream. Different labels: different streams.
        let mut again = parent.stream("slice-1");
        let mut first = parent.stream("slice-1");
        assert_eq!(again.next_u64(), first.next_u64());
        assert_ne!(
            parent.stream("slice-1").next_u64(),
            parent.stream("slice-3").next_u64()
        );

        // The parent stream itself is unperturbed by derivation.
        let mut a = SimRng::seed_from(55);
        let mut b = SimRng::seed_from(55);
        let _ = a.stream("x");
        let _ = a.stream("y");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_range_respects_bounds() {
        let mut r = SimRng::seed_from(4);
        for _ in 0..1_000 {
            let v = r.uniform_range(-5.0, 5.0);
            assert!((-5.0..5.0).contains(&v));
        }
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = SimRng::seed_from(5);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = SimRng::seed_from(6);
        let n = 50_000;
        let mean = (0..n).map(|_| r.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_mean_matches_small_and_large() {
        let mut r = SimRng::seed_from(7);
        for &lam in &[0.5, 4.0, 100.0] {
            let n = 20_000;
            let mean = (0..n).map(|_| r.poisson(lam) as f64).sum::<f64>() / n as f64;
            assert!((mean - lam).abs() / lam.max(1.0) < 0.05, "lambda {lam} mean {mean}");
        }
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(8);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0), "clamped above 1");
    }

    #[test]
    fn weighted_index_distribution() {
        let mut r = SimRng::seed_from(9);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[r.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn weighted_index_rejects_zero_sum() {
        SimRng::seed_from(1).weighted_index(&[0.0, 0.0]);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed_from(10);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "astronomically unlikely to be identity");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut r = SimRng::seed_from(11);
        for _ in 0..1_000 {
            assert!(r.lognormal(0.0, 1.5) > 0.0);
        }
    }

    #[test]
    fn state_round_trips_mid_stream() {
        // Capture after a mix of draw widths (u64s and f64s consume different
        // numbers of ChaCha words), restore, and the clone must emit the
        // exact tail the original does.
        let mut r = SimRng::seed_from(42);
        for _ in 0..17 {
            r.next_u64();
            r.uniform();
        }
        let mut resumed = SimRng::from_state(&r.state());
        assert_eq!(resumed.state(), r.state());
        for _ in 0..100 {
            assert_eq!(resumed.next_u64(), r.next_u64());
        }
        // And equality tracks position: one extra draw breaks it.
        resumed.next_u64();
        assert_ne!(resumed, r);
    }

    #[test]
    fn serde_round_trip_is_exact() {
        let mut r = SimRng::seed_from(7);
        r.std_normal();
        let json = serde_json::to_string(&r).unwrap();
        let mut back: SimRng = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.next_u64(), r.next_u64());
    }

    #[test]
    fn fork_order_is_stable() {
        // `fork` consumes one parent draw per call, so the (label, order)
        // pair fully determines every child: the same fork sequence from the
        // same seed must land every stream at the same state — this is the
        // invariant that lets a snapshot capture stream *positions* instead
        // of replaying fork history.
        let states_for = |seed: u64| {
            let mut parent = SimRng::seed_from(seed);
            let a = parent.fork("requests");
            let b = parent.fork("orchestrator");
            let c = parent.fork("weather");
            [a.state(), b.state(), c.state(), parent.state()]
        };
        assert_eq!(states_for(99), states_for(99));

        // Order matters for `fork` (each consumes a parent draw), which is
        // exactly why a snapshot records positions, not labels-to-replay.
        let mut p1 = SimRng::seed_from(99);
        let mut p2 = SimRng::seed_from(99);
        let ab = (p1.fork("a").state(), p1.fork("b").state());
        let ba = (p2.fork("b").state(), p2.fork("a").state());
        assert_ne!(ab.0, ba.1, "fork order must perturb children");

        // `stream` is the order-independent variant and must stay that way.
        let parent = SimRng::seed_from(99);
        assert_eq!(parent.stream("x").state(), parent.stream("x").state());
    }
}
