//! The benchmark's own load generator: a seeded SplitMix64 stream and a
//! Zipf sampler over it. Nothing here comes from the library crates, so a
//! change to `mrom-fleet` or the `rand` stand-in cannot change the calls a
//! workload makes for a given seed.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

/// Salts that split one seed into independent streams (ops, churn, ...).
pub const OPS_STREAM: u64 = 0;
pub const CHURN_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

impl Rng {
    /// A stream for `seed`, decorrelated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut rng = Rng(seed ^ salt);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by the multiply-shift reduction.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `percent / 100`.
    pub fn percent(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// Zipf over ranks `0..n` (rank `r` weighted `1/(r+1)^s`), sampled by a
/// binary search of the cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 1..=n {
            total += 1.0 / (r as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_salts() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, OPS_STREAM).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, OPS_STREAM).next_u64(), Rng::new(7, CHURN_STREAM).next_u64());
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(1000, 1.1);
        let mut rng = Rng::new(1, OPS_STREAM);
        let draws: Vec<usize> = (0..10_000).map(|_| zipf.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&d| d < 1000));
        let top = draws.iter().filter(|&&d| d == 0).count();
        let mid = draws.iter().filter(|&&d| d == 500).count();
        assert!(top > 50 * mid.max(1), "rank 0 drawn {top}x vs rank 500 {mid}x");
    }
}
