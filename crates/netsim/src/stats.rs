//! Small summary-statistics helpers used by experiment harnesses.
//!
//! The paper reports medians (its headline tables), 1-σ ellipses of
//! throughput/delay clouds (Figs. 4–9), and standard errors (Fig. 10);
//! these helpers compute all of those from raw per-run samples.

/// Arithmetic mean (0.0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation (0.0 for fewer than two samples).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Standard error of the mean.
pub fn std_err(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    std_dev(xs) / (xs.len() as f64).sqrt()
}

/// Quantile via linear interpolation of the sorted samples; `q` in [0, 1].
///
/// Non-finite samples (NaN, ±∞) are filtered out before sorting,
/// consistent with `Objective::score_flow`'s sanitization — a single
/// degenerate flow summary must not abort a whole experiment. (This used
/// to `expect("no NaN in samples")` inside the sort comparator, which
/// panicked on the first NaN.) Returns 0.0 when no finite samples remain.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Median.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The 2-D Gaussian summary behind the paper's throughput–delay ellipses:
/// means, standard deviations, and the correlation of the two coordinates.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ellipse {
    /// Mean of x (queueing delay in the paper's plots).
    pub mean_x: f64,
    /// Mean of y (throughput).
    pub mean_y: f64,
    /// Standard deviation of x.
    pub sd_x: f64,
    /// Standard deviation of y.
    pub sd_y: f64,
    /// Pearson correlation between x and y.
    pub corr: f64,
}

/// Fit the maximum-likelihood 2-D Gaussian to paired samples.
///
/// Pairs with a non-finite coordinate are dropped (both coordinates go:
/// the fit is over *pairs*), mirroring [`quantile`]'s sanitization, so a
/// NaN in one run's summary cannot poison a whole ellipse.
pub fn ellipse(xs: &[f64], ys: &[f64]) -> Ellipse {
    assert_eq!(xs.len(), ys.len(), "paired samples required");
    let (xs, ys): (Vec<f64>, Vec<f64>) = xs
        .iter()
        .zip(ys)
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(x, y)| (*x, *y))
        .unzip();
    let (xs, ys) = (&xs[..], &ys[..]);
    if xs.is_empty() {
        return Ellipse::default();
    }
    let mx = mean(xs);
    let my = mean(ys);
    let sx = std_dev(xs);
    let sy = std_dev(ys);
    let cov = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum::<f64>()
        / xs.len() as f64;
    let corr = if sx > 0.0 && sy > 0.0 {
        cov / (sx * sy)
    } else {
        0.0
    };
    Ellipse {
        mean_x: mx,
        mean_y: my,
        sd_x: sx,
        sd_y: sy,
        corr,
    }
}

/// Fixed-capacity uniform reservoir sample (Vitter's algorithm R), driven
/// by an explicit [`crate::rng::SimRng`] so results are deterministic and
/// independent of every other random stream in a simulation.
///
/// It keeps an unbiased subsample of an unbounded population's raw values
/// in fixed memory — for post-hoc quantiles and distribution plots.
#[derive(Clone, Debug)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    samples: Vec<f64>,
}

impl Reservoir {
    /// Reservoir keeping at most `cap` samples.
    pub fn new(cap: usize) -> Reservoir {
        assert!(cap > 0, "reservoir capacity must be positive");
        Reservoir {
            cap,
            seen: 0,
            samples: Vec::new(),
        }
    }

    /// Offer one observation; `rng` decides replacement once full.
    pub fn observe(&mut self, x: f64, rng: &mut crate::rng::SimRng) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(x);
            return;
        }
        // Replace a random slot with probability cap/seen: algorithm R.
        let j = rng.range_u64(0, self.seen - 1) as usize;
        if j < self.cap {
            self.samples[j] = x;
        }
    }

    /// Total observations offered (not just those retained).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The retained subsample, in retention order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Quantile of the retained subsample (see [`quantile`]).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.samples, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
        assert!((std_err(&xs) - 2.0 / 8f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&xs, 0.0), 10.0);
        assert_eq!(quantile(&xs, 1.0), 50.0);
        assert_eq!(quantile(&xs, 0.25), 20.0);
        assert!((quantile(&xs, 0.1) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn ellipse_of_correlated_cloud() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let e = ellipse(&xs, &ys);
        assert!((e.corr - 1.0).abs() < 1e-9, "perfect correlation");
        assert!((e.mean_x - 49.5).abs() < 1e-9);
        assert!((e.mean_y - 100.0).abs() < 1e-9);
    }

    #[test]
    fn nan_samples_are_filtered_not_fatal() {
        // Regression: one non-finite flow summary used to abort the whole
        // experiment via `partial_cmp().expect("no NaN in samples")`.
        let with_nan = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(median(&with_nan), 2.0, "median over the finite samples");
        assert_eq!(quantile(&with_nan, 0.0), 1.0);
        assert_eq!(quantile(&with_nan, 1.0), 3.0);
        let with_inf = [f64::INFINITY, 5.0, f64::NEG_INFINITY];
        assert_eq!(median(&with_inf), 5.0, "infinities are filtered too");
        assert_eq!(median(&[f64::NAN]), 0.0, "nothing finite left: 0.0");
    }

    #[test]
    fn ellipse_drops_non_finite_pairs() {
        // The NaN pair must vanish entirely — including its finite
        // coordinate — leaving the fit over the remaining pairs.
        let xs = [1.0, f64::NAN, 3.0, 5.0];
        let ys = [2.0, 100.0, 6.0, f64::INFINITY];
        let e = ellipse(&xs, &ys);
        let clean = ellipse(&[1.0, 3.0], &[2.0, 6.0]);
        assert_eq!(e.mean_x.to_bits(), clean.mean_x.to_bits());
        assert_eq!(e.mean_y.to_bits(), clean.mean_y.to_bits());
        assert_eq!(e.corr.to_bits(), clean.corr.to_bits());
        // All pairs non-finite: the default (zero) ellipse, not a panic.
        let d = ellipse(&[f64::NAN], &[1.0]);
        assert_eq!(d.mean_x, 0.0);
    }

    #[test]
    fn ellipse_of_constant_data_has_zero_corr() {
        let xs = [5.0; 10];
        let ys = [3.0; 10];
        let e = ellipse(&xs, &ys);
        assert_eq!(e.corr, 0.0);
        assert_eq!(e.sd_x, 0.0);
    }

    #[test]
    fn reservoir_keeps_everything_under_capacity() {
        let mut rng = SimRng::new(1);
        let mut r = Reservoir::new(100);
        for i in 0..50 {
            r.observe(i as f64, &mut rng);
        }
        assert_eq!(r.seen(), 50);
        assert_eq!(r.samples().len(), 50);
        assert_eq!(r.quantile(0.0), 0.0);
        assert_eq!(r.quantile(1.0), 49.0);
    }

    #[test]
    fn reservoir_subsample_is_unbiased_and_deterministic() {
        let run = |seed| {
            let mut rng = SimRng::new(seed);
            let mut r = Reservoir::new(500);
            for i in 0..100_000 {
                r.observe(i as f64, &mut rng);
            }
            r
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.samples(), b.samples(), "same rng seed, same reservoir");
        assert_eq!(a.samples().len(), 500);
        // Uniform over [0, 100k): the subsample median sits near 50k.
        let med = a.quantile(0.5);
        assert!(
            (med - 50_000.0).abs() < 5_000.0,
            "median {med} should be near 50000"
        );
        // A different rng stream retains a different subsample.
        assert_ne!(a.samples(), run(8).samples());
    }
}
