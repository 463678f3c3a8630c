//! Design-range network models (§3.1, §5.1).
//!
//! Remy's input is a stochastic model of the networks the protocol should
//! handle: ranges for the bottleneck rate, propagation RTT, and the degree
//! of multiplexing, plus the on/off traffic process. [`NetworkModel::general`]
//! is the paper's general-purpose design table; the prior of each shipped
//! RemyCC is stated on its [`crate::designs`] entry.

use netsim::link::LinkSpec;
use netsim::packet::MSS;
use netsim::queue::QueueSpec;
use netsim::rng::SimRng;
use netsim::scenario::{Scenario, SenderConfig};
use netsim::time::Ns;
use netsim::traffic::{OnSpec, TrafficSpec};

/// A stochastic generative model of networks (the "prior assumptions").
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkModel {
    /// Degree of multiplexing: `n` drawn uniformly in this inclusive range.
    pub n_senders: (usize, usize),
    /// Bottleneck link speed, Mbps, drawn uniformly in this range (equal
    /// endpoints = known exactly).
    pub link_mbps: (f64, f64),
    /// Propagation RTT, milliseconds, drawn uniformly.
    pub rtt_ms: (f64, f64),
    /// The senders' offered-load process.
    pub traffic: TrafficSpec,
    /// Queue at design time (the paper uses "unlimited").
    pub queue: QueueSpec,
}

impl NetworkModel {
    /// The general-purpose design range (§5.1): n ∈ [1, 16], link
    /// 10–20 Mbps, RTT 100–200 ms, on/off by time with 5 s means,
    /// unlimited queue — "a 64-fold range of bandwidth-delay product
    /// per user".
    pub const fn general() -> NetworkModel {
        NetworkModel {
            n_senders: (1, 16),
            link_mbps: (10.0, 20.0),
            rtt_ms: (100.0, 200.0),
            traffic: TrafficSpec {
                on: OnSpec::ByTime {
                    mean: Ns::from_secs(5),
                },
                off_mean: Ns::from_secs(5),
                start_on: false,
            },
            queue: QueueSpec::Unlimited,
        }
    }

    /// Draw one specimen network. The scenario's seed is derived from the
    /// draw so traffic randomness is specimen-specific but reproducible.
    pub fn sample(&self, rng: &mut SimRng, duration: Ns) -> Scenario {
        let n = rng.range_usize(self.n_senders.0, self.n_senders.1);
        let link = rng.range_f64(self.link_mbps.0, self.link_mbps.1);
        let rtt = rng.range_f64(self.rtt_ms.0, self.rtt_ms.1);
        let seed = rng.next_u64();
        Scenario {
            link: LinkSpec::constant(link.max(0.01)),
            queue: self.queue.clone(),
            senders: (0..n)
                .map(|_| SenderConfig {
                    rtt: Ns::from_millis_f64(rtt),
                    traffic: self.traffic.clone(),
                })
                .collect(),
            mss: MSS,
            duration,
            seed,
            record_deliveries: false,
            topology: None,
            churn: None,
        }
    }

    /// Human-readable summary for provenance strings.
    pub fn describe(&self) -> String {
        format!(
            "n={}..{}, link={}..{} Mbps, rtt={}..{} ms, traffic={:?}",
            self.n_senders.0,
            self.n_senders.1,
            self.link_mbps.0,
            self.link_mbps.1,
            self.rtt_ms.0,
            self.rtt_ms.1,
            self.traffic.on,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn general_model_matches_design_table() {
        let m = NetworkModel::general();
        assert_eq!(m.n_senders, (1, 16));
        assert_eq!(m.link_mbps, (10.0, 20.0));
        assert_eq!(m.rtt_ms, (100.0, 200.0));
        assert_eq!(m.queue, QueueSpec::Unlimited);
        assert_eq!(m.traffic.off_mean, Ns::from_secs(5));
    }

    #[test]
    fn samples_stay_in_range() {
        let m = NetworkModel::general();
        let mut rng = SimRng::new(1);
        for _ in 0..200 {
            let s = m.sample(&mut rng, Ns::from_secs(10));
            assert!((1..=16).contains(&s.n()));
            let LinkSpec::Constant { rate_mbps } = s.link else {
                panic!("constant link expected");
            };
            assert!((10.0..=20.0).contains(&rate_mbps));
            let rtt = s.senders[0].rtt.as_millis_f64();
            assert!((100.0..=200.0).contains(&rtt));
        }
    }

    #[test]
    fn samples_are_diverse() {
        let m = NetworkModel::general();
        let mut rng = SimRng::new(2);
        let ns: std::collections::HashSet<usize> = (0..100)
            .map(|_| m.sample(&mut rng, Ns::SECOND).n())
            .collect();
        assert!(ns.len() > 8, "n should vary across specimens: {ns:?}");
    }

    #[test]
    fn exact_model_is_degenerate() {
        // Equal endpoints mean "known exactly": every specimen of the 1×
        // design is the same network (only its traffic seed varies).
        let m = &crate::designs::by_name("onex").expect("registered").model;
        let mut rng = SimRng::new(3);
        let s = m.sample(&mut rng, Ns::SECOND);
        assert_eq!(s.n(), 2);
        let LinkSpec::Constant { rate_mbps } = s.link else {
            panic!();
        };
        assert_eq!(rate_mbps, 15.0);
        assert_eq!(s.senders[0].rtt, Ns::from_millis(150));
    }

    #[test]
    fn sampling_is_deterministic_per_rng_stream() {
        let m = NetworkModel::general();
        let a = m.sample(&mut SimRng::new(9), Ns::SECOND);
        let b = m.sample(&mut SimRng::new(9), Ns::SECOND);
        assert_eq!(a.n(), b.n());
        assert_eq!(a.seed, b.seed);
    }
}
