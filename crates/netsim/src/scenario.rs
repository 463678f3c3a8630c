//! Declarative simulation scenarios.
//!
//! A [`Scenario`] is plain data describing one dumbbell network (Fig. 2 of
//! the paper): the bottleneck link and queue, per-sender round-trip times
//! and traffic processes, a duration, and a seed. Experiment harnesses
//! construct scenarios, attach congestion-control factories, and run them
//! through [`crate::sim::Simulator`].
//!
//! A scenario is a resolved value with no wire format of its own: the one
//! serialized description of a run is the experiment spec
//! (`remy_sim::spec`), which embeds the leaf types here ([`SenderConfig`],
//! [`ChurnSpec`]) verbatim.

use crate::link::LinkSpec;
use crate::packet::MSS;
use crate::queue::QueueSpec;
use crate::time::Ns;
use crate::topology::Topology;
use crate::traffic::{OnSpec, TrafficSpec};

/// Configuration of one sender/receiver pair.
#[derive(Clone, Debug, PartialEq)]
pub struct SenderConfig {
    /// Two-way propagation delay to this sender's receiver (no queueing).
    pub rtt: Ns,
    /// The sender's offered-load process.
    pub traffic: TrafficSpec,
}

crate::record! { SenderConfig { rtt: "rtt_ns", traffic: "traffic" } }

/// A dynamic flow-churn process: flows arrive by a Poisson process, each
/// transfers one sampled flow length through the bottleneck, and departs.
///
/// Churn rides alongside the scenario's persistent `senders` — the paper's
/// Fig. 2 world plus a population of short web-style transfers contending
/// for the same queue. Requires the dumbbell (no `topology`): an arrival
/// carries no path description.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnSpec {
    /// Poisson arrival rate, flows per second (λ).
    pub arrivals_per_sec: f64,
    /// Flow-length distribution; must be byte-based
    /// ([`OnSpec::is_byte_based`]) — an arriving flow is one transfer.
    pub size: OnSpec,
    /// Two-way propagation delay of every churn flow.
    pub rtt: Ns,
}

crate::record! {
    ChurnSpec { arrivals_per_sec: "arrivals_per_sec", size: "size", rtt: "rtt_ns" }
    check ChurnSpec::validate
}

impl ChurnSpec {
    /// Check the spec is runnable: positive arrival rate and RTT, and a
    /// byte-based flow-length distribution.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.arrivals_per_sec > 0.0 && self.arrivals_per_sec.is_finite()) {
            return Err(format!(
                "churn arrival rate must be positive and finite, got {}",
                self.arrivals_per_sec
            ));
        }
        if !self.size.is_byte_based() {
            return Err(
                "churn flow sizes must be byte-based (an arriving flow is one transfer)"
                    .to_string(),
            );
        }
        if self.rtt.is_zero() {
            return Err("churn flows need a nonzero RTT".to_string());
        }
        Ok(())
    }
}

/// One complete dumbbell experiment configuration.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Bottleneck link model.
    pub link: LinkSpec,
    /// Bottleneck queue discipline.
    pub queue: QueueSpec,
    /// Per-sender configuration; the number of entries is the degree of
    /// multiplexing `n`.
    pub senders: Vec<SenderConfig>,
    /// Segment size in bytes (the paper's ns-2 setup uses ~1500 B MTUs).
    pub mss: u32,
    /// Simulated duration (the paper uses 100 s per run).
    pub duration: Ns,
    /// Root seed. Every stochastic element (traffic draws per sender)
    /// derives a deterministic stream from this.
    pub seed: u64,
    /// Record every delivery (sequence plots, Fig. 6). Off by default —
    /// the log grows with every packet.
    pub record_deliveries: bool,
    /// Multi-hop topology (parking-lot chains, incast fan-in, congested
    /// ACK paths). `None` — the default, and the paper's world — is the
    /// dumbbell, which the engine builds as the 1-hop topology over `link`
    /// and `queue`; when `Some`, `link`/`queue` mirror hop 0 and every flow
    /// follows its [`crate::topology::FlowPath`].
    pub topology: Option<Topology>,
    /// Dynamic flow churn riding alongside the persistent senders. `None`
    /// — the default, and the paper's world — runs only the configured
    /// senders; `Some` adds Poisson arrivals of one-shot transfers.
    pub churn: Option<ChurnSpec>,
}

impl Scenario {
    /// A dumbbell with `n` identical senders.
    pub fn dumbbell(
        link: LinkSpec,
        queue: QueueSpec,
        n: usize,
        rtt: Ns,
        traffic: TrafficSpec,
        duration: Ns,
        seed: u64,
    ) -> Scenario {
        Scenario {
            link,
            queue,
            senders: (0..n)
                .map(|_| SenderConfig {
                    rtt,
                    traffic: traffic.clone(),
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

    /// Number of senders.
    pub fn n(&self) -> usize {
        self.senders.len()
    }

    /// Builder-style: change the seed (harnesses re-run scenarios across
    /// many seeds to build distributions).
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Builder-style: enable the delivery log.
    pub fn with_delivery_log(mut self) -> Scenario {
        self.record_deliveries = true;
        self
    }

    /// Builder-style: route flows through a multi-hop topology. `link` and
    /// `queue` are reset to mirror hop 0 so single-hop inspection code
    /// keeps working. Panics on a topology that does not validate against
    /// this scenario's sender count.
    pub fn with_topology(mut self, topology: Topology) -> Scenario {
        topology
            .validate(self.senders.len())
            // lint:allow(p1-sim-unwrap): construction-time validation — a
            // malformed scenario must abort setup before any event runs.
            .expect("topology matches scenario");
        self.link = topology.hops[0].link.clone();
        self.queue = topology.hops[0].queue.clone();
        self.topology = Some(topology);
        self
    }

    /// Builder-style: add dynamic flow churn. Panics on an invalid spec or
    /// if a topology is attached (churn runs on the dumbbell only).
    pub fn with_churn(mut self, churn: ChurnSpec) -> Scenario {
        // lint:allow(p1-sim-unwrap): construction-time validation — a
        // malformed churn spec must abort setup before any event runs.
        churn.validate().expect("valid churn spec");
        assert!(
            self.topology.is_none(),
            "churn is not supported on a topology scenario"
        );
        self.churn = Some(churn);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Wire;

    #[test]
    fn dumbbell_builder() {
        let s = Scenario::dumbbell(
            LinkSpec::constant(15.0),
            QueueSpec::DropTail { capacity: 1000 },
            8,
            Ns::from_millis(150),
            TrafficSpec::fig4(),
            Ns::from_secs(100),
            7,
        );
        assert_eq!(s.n(), 8);
        assert_eq!(s.mss, 1500);
        assert_eq!(s.senders[3].rtt, Ns::from_millis(150));
        let s2 = s.with_seed(9).with_delivery_log();
        assert_eq!(s2.seed, 9);
        assert!(s2.record_deliveries);
    }

    fn every_traffic_spec() -> Vec<TrafficSpec> {
        vec![
            TrafficSpec {
                on: OnSpec::ByTime {
                    mean: Ns::from_secs(5),
                },
                off_mean: Ns::from_secs(5),
                start_on: false,
            },
            TrafficSpec::fig4(),
            TrafficSpec::saturating(),
            TrafficSpec {
                on: OnSpec::ByTimeFixed {
                    duration: Ns::from_secs(3),
                },
                off_mean: Ns::from_millis(200),
                start_on: true,
            },
            TrafficSpec {
                on: OnSpec::empirical(),
                off_mean: Ns::from_millis(10),
                start_on: false,
            },
        ]
    }

    #[test]
    fn every_traffic_spec_round_trips() {
        for t in every_traffic_spec() {
            let v = t.to_json_value();
            let back =
                TrafficSpec::from_json_value(&crate::json::parse(&v.pretty()).unwrap()).unwrap();
            assert_eq!(t, back, "{t:?}");
        }
    }

    fn two_sender_base() -> Scenario {
        Scenario::dumbbell(
            LinkSpec::constant(15.0),
            QueueSpec::DropTail { capacity: 1000 },
            2,
            Ns::from_millis(100),
            TrafficSpec::saturating(),
            Ns::from_secs(10),
            5,
        )
    }

    #[test]
    fn with_topology_mirrors_hop_zero_and_checks_the_path_count() {
        use crate::topology::{FlowPath, HopSpec, Topology};
        let hop = |mbps| {
            HopSpec::new(
                LinkSpec::constant(mbps),
                QueueSpec::DropTail { capacity: 500 },
            )
        };
        let topo = Topology::from_flow_hops(
            vec![hop(10.0), hop(20.0)],
            vec![
                FlowPath::through(vec![0, 1]),
                FlowPath::through(vec![1]).with_ack_path(vec![0]),
            ],
        );
        let s = two_sender_base().with_topology(topo.clone());
        // link/queue mirror hop 0.
        assert!(matches!(s.link, LinkSpec::Constant { rate_mbps } if rate_mbps == 10.0));
        assert_eq!(s.queue, QueueSpec::DropTail { capacity: 500 });
        assert_eq!(s.topology.as_ref().unwrap().paths, topo.paths);
        // A path set sized for the wrong sender count is rejected.
        let wrong = Topology::single_bottleneck(LinkSpec::constant(1.0), QueueSpec::Unlimited, 3);
        assert!(wrong.validate(s.n()).unwrap_err().contains("3 paths"));
    }

    fn web_churn() -> ChurnSpec {
        ChurnSpec {
            arrivals_per_sec: 2000.0,
            size: OnSpec::BoundedPareto {
                xm: 4500.0,
                alpha: 1.2,
                cap_bytes: 1_500_000.0,
            },
            rtt: Ns::from_millis(20),
        }
    }

    #[test]
    fn churn_specs_round_trip_and_validate() {
        let churn = web_churn();
        let s = two_sender_base().with_churn(churn.clone());
        assert_eq!(s.churn, Some(churn.clone()));
        let text = churn.to_json_value().pretty();
        assert_eq!(
            ChurnSpec::from_json_value(&crate::json::parse(&text).unwrap()).unwrap(),
            churn
        );
        // Time-based churn sizes are rejected: an arriving flow is one
        // transfer, not a timed on-period.
        let bad = ChurnSpec {
            size: OnSpec::ByTime { mean: Ns::SECOND },
            ..churn.clone()
        };
        assert!(bad.validate().is_err());
        assert!(ChurnSpec {
            arrivals_per_sec: 0.0,
            ..churn.clone()
        }
        .validate()
        .is_err());
        assert!(ChurnSpec {
            rtt: Ns::ZERO,
            ..churn
        }
        .validate()
        .is_err());
    }

    #[test]
    #[should_panic(expected = "churn is not supported on a topology scenario")]
    fn with_churn_rejects_a_topology_scenario() {
        let topo = Topology::single_bottleneck(
            LinkSpec::constant(15.0),
            QueueSpec::DropTail { capacity: 1000 },
            2,
        );
        let _ = two_sender_base()
            .with_topology(topo)
            .with_churn(web_churn());
    }

    #[test]
    #[should_panic(expected = "byte-based")]
    fn with_churn_rejects_time_based_sizes() {
        let _ = two_sender_base().with_churn(ChurnSpec {
            arrivals_per_sec: 10.0,
            size: OnSpec::ByTimeFixed {
                duration: Ns::SECOND,
            },
            rtt: Ns::from_millis(20),
        });
    }
}
