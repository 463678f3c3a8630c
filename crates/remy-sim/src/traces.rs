//! Synthetic LTE downlink delivery traces.
//!
//! The paper's cellular experiments (§5.3) replay saturator measurements
//! of the Verizon and AT&T LTE downlinks: a recording of the instants at
//! which the network released packets to the receiver, fed into ns-2 as a
//! trace-driven link. Those recordings are not redistributable, so this
//! module synthesizes delivery schedules with the same load-bearing
//! properties the evaluation depends on:
//!
//! * rates that wander over roughly 0–50 Mbps (Verizon) with strong
//!   temporal correlation — a mean-reverting random walk in log-rate;
//! * multi-second congestion/outage dips during which little or nothing
//!   is delivered (the "while mobile" artifacts);
//! * throughput and RTT dynamics far outside a general-purpose RemyCC's
//!   design range (10–20 Mbps, smooth), which is the point of the
//!   experiment: probing "model mismatch".
//!
//! Both presets are deterministic functions of a seed, so every harness
//! regenerates byte-identical schedules. A spec names them by
//! [`crate::spec::LinkRef::NamedTrace`]: `verizon-like`
//! ([`verizon_schedule`], Figs. 7–8) and `att-like` ([`att_schedule`],
//! Fig. 9).

use netsim::link::DeliverySchedule;
use netsim::packet::MSS;
use netsim::rng::SimRng;
use netsim::time::Ns;

/// Parameters of the Markov-modulated rate process.
#[derive(Clone, Debug)]
pub struct LteModel {
    /// Long-run geometric-mean rate, Mbps.
    pub mean_mbps: f64,
    /// Hard ceiling on the instantaneous rate, Mbps.
    pub max_mbps: f64,
    /// Std-dev of the log-rate random walk per √second (volatility).
    pub volatility: f64,
    /// Mean-reversion strength per second (larger = shorter excursions).
    pub reversion: f64,
    /// Expected outages per second.
    pub outage_rate: f64,
    /// Mean outage duration, seconds.
    pub outage_mean_s: f64,
    /// Rate multiplier during an outage (near zero, not exactly zero, so
    /// queues drain eventually).
    pub outage_factor: f64,
    /// Rate-update step, seconds.
    pub dt: f64,
}

impl LteModel {
    /// A Verizon-like downlink: ~12 Mbps typical, excursions toward
    /// 50 Mbps, noticeable outages. (Matches the §5.3 description of
    /// 0–50 Mbps variation while mobile.)
    pub fn verizon_like() -> LteModel {
        LteModel {
            mean_mbps: 12.0,
            max_mbps: 50.0,
            volatility: 0.9,
            reversion: 0.35,
            outage_rate: 0.05,
            outage_mean_s: 1.5,
            outage_factor: 0.02,
            dt: 0.02,
        }
    }

    /// An AT&T-like downlink: slower (≈6 Mbps typical), somewhat steadier,
    /// with longer dips — matching the lower throughputs and higher delays
    /// of the paper's Fig. 9 relative to Fig. 7.
    pub fn att_like() -> LteModel {
        LteModel {
            mean_mbps: 6.0,
            max_mbps: 25.0,
            volatility: 0.7,
            reversion: 0.3,
            outage_rate: 0.04,
            outage_mean_s: 2.5,
            outage_factor: 0.02,
            dt: 0.02,
        }
    }

    /// Generate a delivery schedule of the given duration.
    ///
    /// The rate follows an Ornstein–Uhlenbeck process in log-space,
    /// resampled every `dt`; deliveries are laid down by integrating the
    /// rate (one delivery per accumulated packet of credit). An
    /// independent Poisson outage process multiplies the rate by
    /// `outage_factor` while active.
    pub fn generate(&self, seed: u64, duration: Ns) -> DeliverySchedule {
        // Frozen trace-stream constant; changing the derivation regenerates
        // every published cellular schedule.
        let mut rng = SimRng::new(seed ^ 0x17E_CE11);
        let dur_s = duration.as_secs_f64();
        // The schedule is expressed in MSS-sized packets.
        let mean_pps = self.mean_mbps * 1e6 / 8.0 / f64::from(MSS);
        let max_pps = self.max_mbps * 1e6 / 8.0 / f64::from(MSS);
        let mu = mean_pps.ln();

        let mut log_rate = mu + self.volatility * rng.normal() * 0.5;
        let mut outage_until = -1.0f64;
        let mut credit = 0.0f64;
        let mut instants: Vec<Ns> = Vec::new();
        let mut t = 0.0f64;
        let sqrt_dt = self.dt.sqrt();

        while t < dur_s {
            // Rate update (OU step in log space).
            log_rate += self.reversion * (mu - log_rate) * self.dt
                + self.volatility * sqrt_dt * rng.normal();
            let mut rate = log_rate.exp().min(max_pps);
            // Outage process.
            if t >= outage_until && rng.chance(self.outage_rate * self.dt) {
                outage_until = t + rng.exponential(self.outage_mean_s);
            }
            if t < outage_until {
                rate *= self.outage_factor;
            }
            // Lay down deliveries for this step: credit accumulates at
            // `rate` packets/second; each unit is one delivery, spaced
            // uniformly within the step.
            credit += rate * self.dt;
            while credit >= 1.0 {
                credit -= 1.0;
                // Position within the step proportional to remaining credit.
                let frac = 1.0 - credit / (rate * self.dt).max(1e-12);
                let at = t + frac.clamp(0.0, 1.0) * self.dt;
                let at_ns = Ns::from_secs_f64(at.min(dur_s - 1e-9));
                // Strictly increasing: nudge collisions forward 1 ns.
                let at_ns = match instants.last() {
                    Some(&prev) if at_ns <= prev => Ns(prev.0 + 1),
                    _ => at_ns,
                };
                instants.push(at_ns);
            }
            t += self.dt;
        }
        assert!(
            !instants.is_empty(),
            "degenerate trace: no deliveries over {dur_s} s"
        );
        let mean_gap = Ns::from_secs_f64(dur_s / instants.len() as f64);
        DeliverySchedule::new(instants, mean_gap.max(Ns(1)))
    }
}

/// Standard trace length used by the experiment harnesses.
pub const TRACE_SECONDS: u64 = 120;

/// The Verizon-like schedule used across the cellular experiments
/// (Figs. 7, 8 and the §1 cellular table). Deterministic.
pub fn verizon_schedule() -> DeliverySchedule {
    LteModel::verizon_like().generate(2013, Ns::from_secs(TRACE_SECONDS))
}

/// The AT&T-like schedule (Fig. 9). Deterministic.
pub fn att_schedule() -> DeliverySchedule {
    LteModel::att_like().generate(4013, Ns::from_secs(TRACE_SECONDS))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::link::TraceWalk;

    #[test]
    fn deterministic_generation() {
        let a = LteModel::verizon_like().generate(9, Ns::from_secs(20));
        let b = LteModel::verizon_like().generate(9, Ns::from_secs(20));
        assert_eq!(a.len(), b.len());
        let first = |s: &DeliverySchedule| s.step(&mut TraceWalk::default());
        assert_eq!(first(&a), first(&b));
        assert_eq!(a.period(), b.period());
    }

    #[test]
    fn different_seeds_differ() {
        let a = LteModel::verizon_like().generate(1, Ns::from_secs(20));
        let b = LteModel::verizon_like().generate(2, Ns::from_secs(20));
        assert_ne!(a.len(), b.len());
    }

    #[test]
    fn verizon_mean_rate_in_ballpark() {
        let s = LteModel::verizon_like().generate(7, Ns::from_secs(60));
        let mbps = s.len() as f64 * f64::from(MSS) * 8.0 / 60.0 / 1e6;
        assert!(
            (6.0..25.0).contains(&mbps),
            "verizon-like long-run rate {mbps} Mbps"
        );
    }

    #[test]
    fn att_is_slower_than_verizon() {
        let v = LteModel::verizon_like().generate(7, Ns::from_secs(60));
        let a = LteModel::att_like().generate(7, Ns::from_secs(60));
        assert!(a.len() < v.len(), "AT&T {} vs Verizon {}", a.len(), v.len());
    }

    #[test]
    fn rate_is_time_varying() {
        // Split into 1-second bins; the delivery counts must vary a lot
        // (coefficient of variation well above a constant-rate link's 0).
        let s = LteModel::verizon_like().generate(11, Ns::from_secs(60));
        let mut walk = TraceWalk::default();
        let mut bins = vec![0f64; 60];
        for _ in 0..s.len() {
            let t = s.step(&mut walk);
            if t >= Ns::from_secs(60) {
                break;
            }
            bins[t.as_secs_f64() as usize] += 1.0;
        }
        let mean = netsim::stats::mean(&bins);
        let sd = netsim::stats::std_dev(&bins);
        assert!(
            sd / mean > 0.3,
            "rate should vary strongly: mean {mean}, sd {sd}"
        );
    }

    #[test]
    fn has_deep_dips() {
        // Outages: some 1-second bins should see under a quarter of the
        // mean delivery count.
        let s = LteModel::verizon_like().generate(13, Ns::from_secs(120));
        let mut walk = TraceWalk::default();
        let mut bins = vec![0f64; 120];
        loop {
            let t = s.step(&mut walk);
            if t >= Ns::from_secs(120) {
                break;
            }
            bins[t.as_secs_f64() as usize] += 1.0;
        }
        let mean = netsim::stats::mean(&bins);
        let deep = bins.iter().filter(|&&b| b < 0.25 * mean).count();
        assert!(deep >= 2, "expected outage dips, found {deep} deep bins");
    }

    #[test]
    fn schedule_instants_strictly_increase() {
        // DeliverySchedule::new asserts this internally; regenerate a few
        // models to exercise the nudge path.
        for seed in 0..5 {
            let _ = LteModel::verizon_like().generate(seed, Ns::from_secs(10));
            let _ = LteModel::att_like().generate(seed, Ns::from_secs(10));
        }
    }

    #[test]
    fn standard_schedules_are_stable() {
        let v = verizon_schedule();
        let a = att_schedule();
        // Pin the lengths so accidental generator changes are caught; if a
        // deliberate model change alters these, update the constants and
        // re-record EXPERIMENTS.md.
        assert!(v.len() > 50_000, "verizon schedule has {} slots", v.len());
        assert!(a.len() > 25_000, "att schedule has {} slots", a.len());
    }
}
