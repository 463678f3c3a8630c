//! The objective function (§3.3, Eq. 1).
//!
//! Each flow with average throughput `x` and average round-trip delay `y`
//! scores `U_α(x) − δ·U_β(y)` with the alpha-fairness utility
//! `U_a(v) = v^(1−a)/(1−a)` (and `U_1 = ln`). The evaluation uses
//! `α = β = 1` with δ ∈ {0.1, 1, 10} (proportional throughput and delay
//! fairness) and `α = 2, δ = 0` (minimum potential delay, the datacenter
//! table).

use netsim::metrics::{FlowSummary, SimResults};

/// Floor applied to throughput (Mbps) and delay (ms) before the utility,
/// so a silent flow scores very badly instead of producing −∞/NaN.
pub const UTILITY_FLOOR: f64 = 1e-4;

/// Ceiling applied to the same inputs: no physical specimen reaches it,
/// but it keeps a degenerate summary (infinite throughput from a
/// zero-length interval, say) from injecting ±∞ into a score sum, where a
/// later −∞ would turn the total into NaN and poison candidate selection.
pub const UTILITY_CEIL: f64 = 1e12;

/// Clamp a utility input into `[UTILITY_FLOOR, UTILITY_CEIL]`, mapping
/// NaN and −∞ to the floor and +∞ to the ceiling.
fn sanitize(v: f64) -> f64 {
    if v.is_nan() {
        UTILITY_FLOOR
    } else {
        v.clamp(UTILITY_FLOOR, UTILITY_CEIL)
    }
}

/// The alpha-fairness utility `U_a`. The input is sanitized (floored,
/// capped, NaN-proofed) so the result is always finite for the α range
/// the paper uses.
pub fn alpha_fair(alpha: f64, v: f64) -> f64 {
    let v = sanitize(v);
    if (alpha - 1.0).abs() < 1e-9 {
        v.ln()
    } else {
        v.powf(1.0 - alpha) / (1.0 - alpha)
    }
}

/// A complete objective configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Objective {
    /// Throughput fairness exponent α.
    pub alpha: f64,
    /// Delay fairness exponent β.
    pub beta: f64,
    /// Relative weight of delay vs. throughput δ.
    pub delta: f64,
}

impl Objective {
    /// `α = β = 1` with the given δ: `log(throughput) − δ·log(delay)`.
    pub const fn proportional(delta: f64) -> Objective {
        Objective {
            alpha: 1.0,
            beta: 1.0,
            delta,
        }
    }

    /// `α = 2, δ = 0`: maximize `−1/throughput` (minimum potential delay),
    /// the datacenter objective.
    pub const fn min_potential_delay() -> Objective {
        Objective {
            alpha: 2.0,
            beta: 1.0,
            delta: 0.0,
        }
    }

    /// Score one flow from its summary: throughput in Mbps, delay =
    /// average RTT in milliseconds (the paper's `y` is the flow's average
    /// round-trip delay). Inputs are clamped into
    /// `[UTILITY_FLOOR, UTILITY_CEIL]` first, so a degenerate flow (never
    /// on, zero delay, NaN mean) yields a terrible-but-finite score
    /// rather than a ±∞ that could NaN-poison a specimen sum.
    pub fn score_flow(&self, f: &FlowSummary) -> f64 {
        // The clamp itself lives in alpha_fair, which sanitizes its input.
        let tput = alpha_fair(self.alpha, f.throughput_mbps);
        if self.delta == 0.0 {
            return tput;
        }
        tput - self.delta * alpha_fair(self.beta, f.mean_rtt_ms)
    }

    /// Total score of a simulation: the sum over senders that were ever
    /// active ("the objective function for each sender … is totaled to
    /// produce an overall figure of merit", §4.3).
    pub fn score_results(&self, r: &SimResults) -> f64 {
        r.active_flows().map(|f| self.score_flow(f)).sum()
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        if self.alpha == 2.0 && self.delta == 0.0 {
            "alpha=2 (min potential delay)".to_string()
        } else {
            format!(
                "alpha={} beta={} delta={}",
                self.alpha, self.beta, self.delta
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::metrics::FlowSummary;

    fn flow(tput_mbps: f64, rtt_ms: f64) -> FlowSummary {
        FlowSummary {
            throughput_mbps: tput_mbps,
            mean_rtt_ms: rtt_ms,
            on_secs: 10.0,
            bytes: 1,
            ..FlowSummary::default()
        }
    }

    #[test]
    fn log_utility_at_alpha_one() {
        assert!((alpha_fair(1.0, std::f64::consts::E) - 1.0).abs() < 1e-12);
        assert_eq!(alpha_fair(1.0, 1.0), 0.0);
    }

    #[test]
    fn alpha_two_is_negative_inverse() {
        assert!((alpha_fair(2.0, 4.0) - (-0.25)).abs() < 1e-12);
    }

    #[test]
    fn alpha_zero_is_identity() {
        assert!((alpha_fair(0.0, 7.0) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn utilities_are_monotone_increasing() {
        for alpha in [0.0, 0.5, 1.0, 2.0, 5.0] {
            let mut prev = f64::NEG_INFINITY;
            for v in [0.01, 0.1, 1.0, 10.0, 100.0] {
                let u = alpha_fair(alpha, v);
                assert!(u > prev, "U_{alpha}({v}) not increasing");
                prev = u;
            }
        }
    }

    #[test]
    fn utilities_are_concave() {
        // Midpoint utility exceeds mean of endpoint utilities for α > 0.
        for alpha in [0.5, 1.0, 2.0] {
            let (a, b) = (1.0, 9.0);
            let mid = alpha_fair(alpha, (a + b) / 2.0);
            let avg = 0.5 * (alpha_fair(alpha, a) + alpha_fair(alpha, b));
            assert!(mid > avg, "U_{alpha} not concave");
        }
    }

    #[test]
    fn silent_flow_scores_floor_not_nan() {
        let u = alpha_fair(1.0, 0.0);
        assert!(u.is_finite());
        assert_eq!(u, UTILITY_FLOOR.ln());
    }

    #[test]
    fn degenerate_flow_summaries_score_finite() {
        // A never-on sender (or a summary corrupted to NaN/∞) must yield a
        // finite score under every objective in use, so candidate
        // selection never sees NaN.
        let cases = [
            flow(0.0, 0.0),           // never delivered, no RTT sample
            flow(f64::NAN, f64::NAN), // poisoned summary
            flow(f64::INFINITY, 0.0), // degenerate interval
            flow(0.0, f64::INFINITY),
            flow(-1.0, -5.0), // nonsense negatives
        ];
        for obj in [
            Objective::proportional(0.1),
            Objective::proportional(1.0),
            Objective::proportional(10.0),
            Objective::min_potential_delay(),
        ] {
            for f in &cases {
                let s = obj.score_flow(f);
                assert!(
                    s.is_finite(),
                    "{} scored {s} for tput={} rtt={}",
                    obj.label(),
                    f.throughput_mbps,
                    f.mean_rtt_ms
                );
            }
        }
    }

    #[test]
    fn delta_trades_throughput_for_delay() {
        let fast_bloated = flow(10.0, 1000.0);
        let slow_snappy = flow(2.0, 160.0);
        let tput_lover = Objective::proportional(0.1);
        let delay_lover = Objective::proportional(10.0);
        assert!(
            tput_lover.score_flow(&fast_bloated) > tput_lover.score_flow(&slow_snappy),
            "delta=0.1 prefers throughput"
        );
        assert!(
            delay_lover.score_flow(&slow_snappy) > delay_lover.score_flow(&fast_bloated),
            "delta=10 prefers low delay"
        );
    }

    #[test]
    fn fairness_prefers_equal_split() {
        // log utility: (5,5) beats (9,1) at equal total.
        let obj = Objective::proportional(0.0);
        let even = obj.score_flow(&flow(5.0, 100.0)) + obj.score_flow(&flow(5.0, 100.0));
        let skew = obj.score_flow(&flow(9.0, 100.0)) + obj.score_flow(&flow(1.0, 100.0));
        assert!(even > skew);
    }

    #[test]
    fn min_potential_delay_ignores_rtt() {
        let obj = Objective::min_potential_delay();
        assert_eq!(
            obj.score_flow(&flow(4.0, 100.0)),
            obj.score_flow(&flow(4.0, 5000.0))
        );
        assert!((obj.score_flow(&flow(4.0, 1.0)) - (-0.25)).abs() < 1e-12);
    }

    #[test]
    fn results_total_skips_inactive_senders() {
        let obj = Objective::proportional(1.0);
        let idle = FlowSummary {
            on_secs: 0.0,
            ..FlowSummary::default()
        };
        let r = SimResults {
            flows: vec![flow(5.0, 100.0), idle],
            duration: netsim::time::Ns::from_secs(10),
            ..SimResults::default()
        };
        let expected = obj.score_flow(&flow(5.0, 100.0));
        assert!((obj.score_results(&r) - expected).abs() < 1e-12);
    }
}
