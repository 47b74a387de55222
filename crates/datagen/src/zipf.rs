//! Zipfian sampling for skewed data generation.
//!
//! The paper's skewed TPC-H variant uses Chaudhuri & Narasayya's TPC-D
//! skew generator "with a Zipfian factor of 1" (§3.2.1). `rand` ships no
//! Zipf distribution, so we implement one: ranks `1..=n` are drawn with
//! probability proportional to `1 / rank^theta`, via an inverse-CDF table
//! and binary search — O(n) setup, O(log n) per sample, exact.

use rand::Rng;

/// A Zipf(θ) distribution over ranks `1..=n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Distribution over `1..=n` with exponent `theta >= 0`.
    ///
    /// `theta = 0` degenerates to uniform; `theta = 1` is the paper's
    /// skew factor.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta < 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty domain");
        assert!(theta >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank in `1..=n` (rank 1 is the most frequent).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        // First index whose cdf >= u.
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(self.cdf.len()),
        }
    }

    /// Theoretical probability of a rank.
    pub fn probability(&self, rank: usize) -> f64 {
        assert!((1..=self.cdf.len()).contains(&rank));
        let prev = if rank == 1 { 0.0 } else { self.cdf[rank - 2] };
        self.cdf[rank - 1] - prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let s = z.sample(&mut rng);
            assert!((1..=100).contains(&s));
        }
    }

    #[test]
    fn theta_one_is_heavily_skewed() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut head = 0u32;
        const N: u32 = 100_000;
        for _ in 0..N {
            if z.sample(&mut rng) == 1 {
                head += 1;
            }
        }
        let p1 = z.probability(1);
        // Harmonic(1000) ~ 7.49, so p1 ~ 13%.
        assert!((0.10..0.17).contains(&p1), "p1={p1}");
        let observed = head as f64 / N as f64;
        assert!((observed - p1).abs() < 0.01, "observed={observed} p1={p1}");
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for r in 1..=10 {
            assert!((z.probability(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let z = Zipf::new(37, 0.7);
        let total: f64 = (1..=37).map(|r| z.probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_domain_panics() {
        Zipf::new(0, 1.0);
    }
}
