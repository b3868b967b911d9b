//! Discrete Gaussian value selection (§3, Algorithm 1 lines 7–9).
//!
//! "We use a discrete approximation of a Gaussian probability distribution
//! to choose a new value for the test attribute to be mutated. This
//! distribution is centered at oldValue and has standard deviation σ [...]
//! proportional to the number of values the αi attribute can take [...]
//! for the evaluation in this paper, we chose σ = |Ai|/5."
//!
//! The Gaussian "favors φ's closest neighbors without completely
//! dismissing points that are further away".
//!
//! A draw reads its weights from a per-axis table instead of calling
//! `exp` for every value of the axis. The weight depends only on
//! `|v − center|`, and `(-d * d)` gives the same bits for `d` and `−d`,
//! so `w[|v − center|]` is bit-identical to [`DiscreteGaussian::weight`].
//! The total is the same left fold in `v` order, and the walk makes the
//! same subtractions, so every draw and every RNG call stay exactly
//! those of the two-`exp`-pass formula.

use rand::Rng;
use std::sync::OnceLock;

/// A discrete Gaussian over the indices `0..n`, centered at a mutable
/// point, with σ proportional to `n`.
#[derive(Debug, Clone)]
pub struct DiscreteGaussian {
    n: usize,
    sigma: f64,
    /// Built on the first draw, not in `new`: a table costs one `exp` per
    /// axis value, and building an explorer should not pay that.
    table: OnceLock<Table>,
}

/// The weights one axis's draws read.
#[derive(Debug, Clone)]
struct Table {
    /// `w[k] = weight(0, k)`: the weight of every value at distance `k`
    /// from the center.
    w: Box<[f64]>,
    /// Each center's total weight, summed on the first draw at that
    /// center. Summing every center up front is O(n²).
    totals: Box<[OnceLock<f64>]>,
}

impl Table {
    /// The weights of `0..n` in `v` order around `center`.
    fn row(&self, center: usize) -> impl Iterator<Item = f64> + '_ {
        let n = self.w.len();
        self.w[1..=center]
            .iter()
            .rev()
            .chain(&self.w[..n - center])
            .copied()
    }
}

const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<DiscreteGaussian>();
};

impl DiscreteGaussian {
    /// The paper's σ factor: `σ = |Ai| / 5`.
    pub const PAPER_SIGMA_FACTOR: f64 = 0.2;

    /// Creates a distribution over `0..n` with `σ = factor × n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `factor` is not positive and finite.
    pub fn new(n: usize, factor: f64) -> Self {
        assert!(n > 0, "axis must have at least one value");
        assert!(
            factor > 0.0 && factor.is_finite(),
            "sigma factor must be positive and finite"
        );
        DiscreteGaussian {
            n,
            sigma: (factor * n as f64).max(0.5),
            table: OnceLock::new(),
        }
    }

    /// Creates the paper's σ = |Ai|/5 distribution.
    pub fn paper(n: usize) -> Self {
        DiscreteGaussian::new(n, Self::PAPER_SIGMA_FACTOR)
    }

    /// The axis cardinality.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The effective standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Unnormalized weight of value `v` when centered at `center`.
    pub fn weight(&self, center: usize, v: usize) -> f64 {
        let d = v as f64 - center as f64;
        (-d * d / (2.0 * self.sigma * self.sigma)).exp()
    }

    /// Samples a value from `0..n` with probability proportional to the
    /// Gaussian weight around `center`. The center itself can be drawn
    /// (the caller's History check discards such no-op mutations).
    ///
    /// The first draw builds the axis's weight table (one `exp` per
    /// value), and the first draw at each center sums its total (O(n));
    /// later draws only walk the table.
    ///
    /// # Panics
    ///
    /// Panics if `center >= n`.
    pub fn sample<R: Rng + ?Sized>(&self, center: usize, rng: &mut R) -> usize {
        assert!(center < self.n, "center out of range");
        let table = self.table.get_or_init(|| Table {
            w: (0..self.n).map(|k| self.weight(0, k)).collect(),
            totals: (0..self.n).map(|_| OnceLock::new()).collect(),
        });
        let total = *table.totals[center].get_or_init(|| table.row(center).sum());
        let mut ticket = rng.gen_range(0.0..total);
        for (v, w) in table.row(center).enumerate() {
            if ticket < w {
                return v;
            }
            ticket -= w;
        }
        self.n - 1 // Floating-point residue: fall back to the last value.
    }

    /// Samples a value different from `center`, retrying a bounded number
    /// of times and falling back to a uniform non-center draw.
    pub fn sample_distinct<R: Rng + ?Sized>(&self, center: usize, rng: &mut R) -> usize {
        if self.n == 1 {
            return center;
        }
        for _ in 0..32 {
            let v = self.sample(center, rng);
            if v != center {
                return v;
            }
        }
        // Degenerate σ or bad luck: uniform over the other values.
        let v = rng.gen_range(0..self.n - 1);
        if v >= center {
            v + 1
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The two-`exp`-pass formula sampler the table replaced: the
    /// reference every tabled draw must match, value and RNG use alike.
    fn reference_sample(g: &DiscreteGaussian, center: usize, rng: &mut StdRng) -> usize {
        let mut ticket = rng.gen_range(0.0..reference_total(g, center));
        for v in 0..g.n {
            let w = g.weight(center, v);
            if ticket < w {
                return v;
            }
            ticket -= w;
        }
        g.n - 1
    }

    fn reference_total(g: &DiscreteGaussian, center: usize) -> f64 {
        (0..g.n).map(|v| g.weight(center, v)).sum()
    }

    fn reference_sample_distinct(g: &DiscreteGaussian, center: usize, rng: &mut StdRng) -> usize {
        if g.n == 1 {
            return center;
        }
        for _ in 0..32 {
            let v = reference_sample(g, center, rng);
            if v != center {
                return v;
            }
        }
        let v = rng.gen_range(0..g.n - 1);
        if v >= center {
            v + 1
        } else {
            v
        }
    }

    /// Draws at `center` through the table and through the reference
    /// from equal RNG states; both must return the same value and leave
    /// the RNGs in the same state.
    fn assert_draws_match(g: &DiscreteGaussian, center: usize, seed: u64) {
        let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let case = format!(
            "n = {}, sigma = {}, center = {center}, seed = {seed}",
            g.n, g.sigma
        );
        assert_eq!(
            g.sample(center, &mut a),
            reference_sample(g, center, &mut b),
            "{case}"
        );
        assert_eq!(a.next_u64(), b.next_u64(), "sample RNG use: {case}");
        // A draw rarely lands within an ulp of a boundary, so check the
        // cached total itself: the same fold gives the same bits.
        let cached = g.table.get().and_then(|t| t.totals[center].get());
        assert_eq!(
            cached.map(|t| t.to_bits()),
            Some(reference_total(g, center).to_bits()),
            "total: {case}"
        );
        assert_eq!(
            g.sample_distinct(center, &mut a),
            reference_sample_distinct(g, center, &mut b),
            "{case}"
        );
        assert_eq!(
            a.next_u64(),
            b.next_u64(),
            "sample_distinct RNG use: {case}"
        );
    }

    #[test]
    fn tabled_draws_match_the_formula_sampler() {
        let mut cases = StdRng::seed_from_u64(0x5eed);
        let mut axes = vec![
            DiscreteGaussian::paper(1),
            DiscreteGaussian::paper(2),
            DiscreteGaussian::new(2, 0.2), // σ = 0.4, floored to 0.5
            DiscreteGaussian::new(9, 0.01),
            DiscreteGaussian::paper(1147), // minidb's testID axis
        ];
        for _ in 0..300 {
            let n = if cases.gen_bool(0.5) {
                cases.gen_range(1..=12)
            } else {
                cases.gen_range(1..=2000)
            };
            let factor =
                [0.01, 0.05, DiscreteGaussian::PAPER_SIGMA_FACTOR, 1.0][cases.gen_range(0..4usize)];
            axes.push(DiscreteGaussian::new(n, factor));
        }
        for g in &axes {
            // Both edges, then random centers; every center is drawn
            // twice, so the second draw reads a cached total.
            let mut centers = vec![0, g.n - 1];
            centers.extend((0..3).map(|_| cases.gen_range(0..g.n)));
            for center in centers {
                for _ in 0..2 {
                    assert_draws_match(g, center, cases.next_u64());
                }
            }
        }
    }

    #[test]
    fn favors_near_neighbors() {
        let g = DiscreteGaussian::paper(100);
        let mut rng = StdRng::seed_from_u64(1);
        let mut near = 0;
        const N: usize = 10_000;
        for _ in 0..N {
            let v = g.sample(50, &mut rng);
            if (v as i64 - 50).abs() <= 20 {
                near += 1;
            }
        }
        // With σ = 20, |d| ≤ σ covers ≈68%; ≤ 20 here is exactly 1σ.
        let frac = near as f64 / N as f64;
        assert!(frac > 0.6, "frac = {frac}");
    }

    #[test]
    fn does_not_dismiss_far_points() {
        let g = DiscreteGaussian::paper(100);
        let mut rng = StdRng::seed_from_u64(2);
        let far = (0..20_000)
            .filter(|_| (g.sample(50, &mut rng) as i64 - 50).abs() > 40)
            .count();
        assert!(far > 0, "far points must keep non-zero probability");
    }

    #[test]
    fn sample_is_always_in_range() {
        let g = DiscreteGaussian::paper(7);
        let mut rng = StdRng::seed_from_u64(3);
        for c in 0..7 {
            for _ in 0..200 {
                assert!(g.sample(c, &mut rng) < 7);
            }
        }
    }

    #[test]
    fn edge_centers_clip_correctly() {
        let g = DiscreteGaussian::paper(10);
        let mut rng = StdRng::seed_from_u64(4);
        let mean: f64 = (0..5000).map(|_| g.sample(0, &mut rng) as f64).sum::<f64>() / 5000.0;
        // Centered at 0, mass concentrates near 0.
        assert!(mean < 2.5, "mean = {mean}");
    }

    #[test]
    fn sample_distinct_never_returns_center_when_possible() {
        let g = DiscreteGaussian::paper(5);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            assert_ne!(g.sample_distinct(2, &mut rng), 2);
        }
    }

    #[test]
    fn single_value_axis_returns_center() {
        let g = DiscreteGaussian::paper(1);
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(g.sample_distinct(0, &mut rng), 0);
    }

    #[test]
    fn sigma_matches_paper_factor() {
        let g = DiscreteGaussian::paper(100);
        assert!((g.sigma() - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "center out of range")]
    fn center_bounds_checked() {
        let g = DiscreteGaussian::paper(3);
        let mut rng = StdRng::seed_from_u64(7);
        let _ = g.sample(3, &mut rng);
    }

    #[test]
    fn weights_are_symmetric() {
        // The table rests on this: a weight depends on |v − center|
        // alone, bit for bit.
        let g = DiscreteGaussian::paper(1147);
        for center in 0..g.n {
            for v in 0..g.n {
                assert_eq!(
                    g.weight(center, v).to_bits(),
                    g.weight(0, v.abs_diff(center)).to_bits(),
                    "center = {center}, v = {v}"
                );
            }
        }
        assert!(g.weight(25, 25) > g.weight(25, 24));
    }
}
