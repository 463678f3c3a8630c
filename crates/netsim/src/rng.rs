//! Deterministic random numbers for simulation.
//!
//! The simulator needs random draws that are (a) fast, (b) identical across
//! platforms and library versions, and (c) cheap to fork into independent
//! streams — Remy's design procedure depends on *common random numbers*:
//! every candidate action must be evaluated on exactly the same specimen
//! networks with exactly the same arrival randomness (§4.3 of the paper).
//!
//! We implement xoshiro256++ seeded through splitmix64, which is the
//! textbook combination; no external crate behaviour can change under us.
//! The randomized property tests draw from the same generator, through
//! [`cases`].

/// A deterministic xoshiro256++ PRNG.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed. Two generators with the same
    /// seed produce identical streams forever.
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Fork an independent stream. The child is seeded from the parent's
    /// output mixed with `stream`, so `fork(0)` and `fork(1)` are unrelated
    /// sequences, and the parent advances by one draw.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::new(base ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Derive an independent 64-bit seed for stream `stream` of base seed
    /// `base`, through the same fork/split mechanism simulations use.
    ///
    /// Experiment harnesses derive per-run scenario seeds with this
    /// instead of `base + k`: additive derivation made adjacent
    /// experiments with nearby base seeds share traffic randomness
    /// (`base = 4001` run 1 equals `base = 4002` run 0), and could
    /// overflow. Here `base` passes through splitmix64 before mixing, so
    /// nearby bases yield unrelated streams and no arithmetic can wrap.
    pub fn split_seed(base: u64, stream: u64) -> u64 {
        let mut parent = SimRng::new(base);
        parent.fork(stream).next_u64()
    }

    /// Next raw 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in the half-open interval `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in the half-open interval `(0, 1]` — safe to take `ln` of.
    #[inline]
    pub fn f64_open(&mut self) -> f64 {
        1.0 - self.f64()
    }

    /// Uniform draw in `[lo, hi)`. Requires `lo <= hi`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Requires `lo <= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let span = hi - lo + 1;
        // Multiply-shift rejection-free mapping; bias is < 2^-64 * span,
        // negligible for simulation purposes.
        lo + ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Uniform usize in `[lo, hi]` (inclusive).
    #[inline]
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Exponentially distributed draw with the given mean (inverse-CDF).
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean >= 0.0);
        -mean * self.f64_open().ln()
    }

    /// Pareto-distributed draw with scale `xm` and shape `alpha`
    /// (inverse-CDF: `xm * u^(-1/alpha)`).
    ///
    /// The paper's empirical flow-length distribution (Fig. 3) is
    /// Pareto(Xm = 147, alpha = 0.5), which has infinite mean — callers are
    /// expected to cap samples if they need bounded work.
    #[inline]
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        debug_assert!(xm > 0.0 && alpha > 0.0);
        xm * self.f64_open().powf(-1.0 / alpha)
    }

    /// Bernoulli draw with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard-normal draw (Box–Muller). Used by the synthetic cellular
    /// trace generator's rate random walk.
    #[inline]
    pub fn normal(&mut self) -> f64 {
        let u1 = self.f64_open();
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Bounded-Pareto draw on `[xm, cap)` (inverse-CDF). Heavy-tailed like
    /// [`SimRng::pareto`] but hard-truncated at `cap`, so churn workloads
    /// get finite-mean flow sizes without per-sample rejection or clamping
    /// mass piling up at the cap.
    #[inline]
    pub fn bounded_pareto(&mut self, xm: f64, alpha: f64, cap: f64) -> f64 {
        debug_assert!(xm > 0.0 && alpha > 0.0 && cap > xm);
        let ratio = (xm / cap).powf(alpha);
        xm / (1.0 - self.f64() * (1.0 - ratio)).powf(1.0 / alpha)
    }
}

/// Cases [`cases`] runs per property.
pub const CASES: u32 = 64;

/// The randomized-test driver: run `body` on [`CASES`] cases, each with
/// its own generator. Case `k` of the test called `name` is seeded with
/// `split_seed(fnv1a(name), k)`, so every property sees a stable,
/// test-specific stream on every machine, and a failing case prints the
/// seed that replays it alone (`body(&mut SimRng::new(seed))`). There is
/// no shrinking.
pub fn cases(name: &str, mut body: impl FnMut(&mut SimRng)) {
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    for case in 0..CASES {
        let seed = SimRng::split_seed(base, u64::from(case));
        let _report = FailedCase { name, case, seed };
        body(&mut SimRng::new(seed));
    }
}

/// Names the case and seed of a [`cases`] body while its panic unwinds.
struct FailedCase<'a> {
    name: &'a str,
    case: u32,
    seed: u64,
}

impl Drop for FailedCase<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "{}: case {} failed; replay it with SimRng::new({:#x})",
                self.name, self.case, self.seed
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_of_each_other() {
        let mut parent = SimRng::new(7);
        let mut c0 = parent.clone().fork(0);
        let mut c1 = parent.fork(1);
        let same = (0..64).filter(|_| c0.next_u64() == c1.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_reproduce_with_same_seed() {
        // Common random numbers: the same parent seed and stream id must
        // yield bit-identical child sequences on independent parents.
        let mut pa = SimRng::new(2013);
        let mut pb = SimRng::new(2013);
        let mut ca = pa.fork(3);
        let mut cb = pb.fork(3);
        for _ in 0..1000 {
            assert_eq!(ca.next_u64(), cb.next_u64());
        }
        // And the parents stayed in lockstep too (fork consumes exactly
        // one parent draw each).
        for _ in 0..100 {
            assert_eq!(pa.next_u64(), pb.next_u64());
        }
    }

    #[test]
    fn sibling_forks_from_one_parent_differ() {
        // Sequentially forked children (how the simulator seeds per-flow
        // traffic) must be pairwise unrelated streams.
        let mut parent = SimRng::new(42);
        let mut children: Vec<SimRng> = (0..8).map(|i| parent.fork(i as u64 + 1)).collect();
        let draws: Vec<Vec<u64>> = children
            .iter_mut()
            .map(|c| (0..64).map(|_| c.next_u64()).collect())
            .collect();
        for i in 0..draws.len() {
            for j in (i + 1)..draws.len() {
                let same = draws[i]
                    .iter()
                    .zip(&draws[j])
                    .filter(|(a, b)| a == b)
                    .count();
                assert_eq!(same, 0, "children {i} and {j} collide");
            }
        }
    }

    #[test]
    fn fork_advances_parent_deterministically() {
        let mut a = SimRng::new(5);
        let mut b = SimRng::new(5);
        let _ = a.fork(0);
        let _ = b.fork(99); // stream id must not affect the parent's state
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_seed_is_deterministic_and_stream_separated() {
        assert_eq!(SimRng::split_seed(7, 3), SimRng::split_seed(7, 3));
        let seeds: Vec<u64> = (0..64).map(|k| SimRng::split_seed(7, k)).collect();
        for i in 0..seeds.len() {
            for j in (i + 1)..seeds.len() {
                assert_ne!(seeds[i], seeds[j], "streams {i} and {j} collide");
            }
        }
    }

    #[test]
    fn split_seed_unrelates_nearby_bases() {
        // The failure mode of `seed + k`: experiment A at base 4001, run 1
        // must not reuse experiment B at base 4002, run 0 — nor any other
        // nearby (base, run) pair.
        for base in [1u64, 4001, 4002, u64::MAX - 1, u64::MAX] {
            for other in [base.wrapping_add(1), base.wrapping_add(2)] {
                for k in 0..16u64 {
                    for j in 0..16u64 {
                        assert_ne!(
                            SimRng::split_seed(base, k),
                            SimRng::split_seed(other, j),
                            "base {base} run {k} collides with base {other} run {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn range_u64_bounds_inclusive() {
        let mut rng = SimRng::new(9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let x = rng.range_u64(3, 6);
            assert!((3..=6).contains(&x));
            seen_lo |= x == 3;
            seen_hi |= x == 6;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = SimRng::new(11);
        let n = 200_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let est = sum / n as f64;
        assert!(
            (est - mean).abs() < 0.1,
            "sample mean {est} too far from {mean}"
        );
    }

    #[test]
    fn pareto_obeys_scale_floor() {
        let mut rng = SimRng::new(13);
        for _ in 0..10_000 {
            assert!(rng.pareto(147.0, 0.5) >= 147.0);
        }
    }

    #[test]
    fn pareto_median_matches_closed_form() {
        // Median of Pareto(xm, alpha) is xm * 2^(1/alpha); for alpha = 0.5
        // that is 147 * 4 = 588.
        let mut rng = SimRng::new(17);
        let mut samples: Vec<f64> = (0..100_001).map(|_| rng.pareto(147.0, 0.5)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!(
            (median - 588.0).abs() / 588.0 < 0.05,
            "median {median} should be near 588"
        );
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(23);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn golden_bounded_pareto_sequence_is_pinned() {
        // Bit-exact (to_bits) so even a last-ulp reordering of the
        // arithmetic is caught.
        let mut rng = SimRng::new(2013);
        let got: Vec<u64> = (0..8)
            .map(|_| rng.bounded_pareto(4500.0, 1.2, 1_500_000.0).to_bits())
            .collect();
        assert_eq!(
            got,
            vec![
                4663075734545062712,
                4662108998785531930,
                4669823096803161369,
                4667403658916744987,
                4663579354317236037,
                4664364161710099148,
                4664576641482345108,
                4667865902534004907,
            ]
        );
    }

    #[test]
    fn golden_exponential_sequence_is_pinned() {
        // Poisson *arrivals* are scheduled via exponential inter-arrival
        // gaps; pin that sequence too (mean 0.0005 s = 2000 flows/s).
        let mut rng = SimRng::new(2013);
        let got: Vec<u64> = (0..4).map(|_| rng.exponential(0.0005).to_bits()).collect();
        assert_eq!(
            got,
            vec![
                4549674260933105591,
                4542662281040816230,
                4560047817983094961,
                4558212661579810341,
            ]
        );
    }

    #[test]
    fn bounded_pareto_respects_both_bounds() {
        let mut rng = SimRng::new(37);
        let (xm, alpha, cap) = (147.0, 0.5, 10_000.0);
        let mut saw_tail = false;
        for _ in 0..100_000 {
            let x = rng.bounded_pareto(xm, alpha, cap);
            assert!(x >= xm && x < cap, "sample {x} out of [{xm}, {cap})");
            saw_tail |= x > cap / 2.0;
        }
        assert!(saw_tail, "truncated tail mass should still be reachable");
    }

    #[test]
    fn bounded_pareto_median_matches_closed_form() {
        // Median solves F(x) = 1/2 for the truncated CDF:
        // x = xm / (1 - 0.5 (1 - (xm/cap)^a))^(1/a).
        let (xm, alpha, cap) = (4500.0, 1.2, 1_500_000.0_f64);
        let ratio = (xm / cap).powf(alpha);
        let expect = xm / (1.0 - 0.5 * (1.0 - ratio)).powf(1.0 / alpha);
        let mut rng = SimRng::new(41);
        let mut samples: Vec<f64> = (0..100_001)
            .map(|_| rng.bounded_pareto(xm, alpha, cap))
            .collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        assert!(
            (median - expect).abs() / expect < 0.02,
            "median {median} should be near {expect}"
        );
    }

    #[test]
    fn cases_are_seeded_from_the_test_name() {
        let firsts = |name: &str| {
            let mut out = Vec::new();
            cases(name, |rng| out.push(rng.next_u64()));
            out
        };
        let a = firsts("a_property");
        assert_eq!(a.len(), CASES as usize);
        assert_eq!(a, firsts("a_property"), "same name, same cases");
        for i in 0..a.len() {
            for j in (i + 1)..a.len() {
                assert_ne!(a[i], a[j], "cases {i} and {j} share a stream");
            }
        }
        let b = firsts("another_property");
        assert!(a.iter().all(|x| !b.contains(x)), "names share a stream");
    }

    #[test]
    fn chance_is_calibrated() {
        let mut rng = SimRng::new(19);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01);
    }
}
