//! # congestion — the human-designed baselines of *TCP ex Machina*
//!
//! Clean-room Rust implementations of every scheme the paper compares
//! RemyCCs against (§2, §5.1):
//!
//! | Scheme | Kind | Module |
//! |--------|------|--------|
//! | NewReno | end-to-end, loss-based | [`newreno`] |
//! | Vegas | end-to-end, delay-based | [`vegas`] |
//! | Cubic | end-to-end, loss-based, RTT-independent growth | [`cubic`] |
//! | Compound | end-to-end, loss + delay hybrid | [`compound`] |
//! | DCTCP | ECN-based (datacenter) | [`dctcp`] |
//! | XCP | explicit router feedback | [`xcp`] |
//!
//! Cubic-over-sfqCoDel — the remaining baseline — is a deployment
//! combination: [`cubic::Cubic`] endpoints over
//! `netsim::queue::SfqCodel`; [`Scheme::CubicSfqCodel`] wires it up.
//!
//! Each module documents the published algorithm it implements and the
//! equations used. All schemes run on `netsim`'s shared reliable transport,
//! so loss detection and retransmission behaviour is identical across
//! schemes — differences in results come from the window/pacing policies
//! alone, as in the paper's ns-2 setup.

#![warn(missing_docs)]

pub mod compound;
pub mod cubic;
pub mod dctcp;
pub mod newreno;
pub mod vegas;
pub mod xcp;

pub use compound::Compound;
pub use cubic::Cubic;
pub use dctcp::Dctcp;
pub use newreno::NewReno;
pub use vegas::Vegas;
pub use xcp::{Xcp, XcpRouter};

use netsim::cc::CongestionControl;
use netsim::link::LinkSpec;
use netsim::queue::QueueSpec;
use netsim::router::RouterHook;

/// The complete set of baseline configurations used in the paper's
/// evaluation, as self-describing experiment ingredients: a scheme knows
/// which queue discipline and router hook it runs with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// TCP NewReno over DropTail.
    NewReno,
    /// TCP Vegas over DropTail.
    Vegas,
    /// TCP Cubic over DropTail.
    Cubic,
    /// Compound TCP over DropTail.
    Compound,
    /// TCP Cubic over stochastic fair queueing + CoDel.
    CubicSfqCodel,
    /// XCP endpoints with the XCP router at the bottleneck.
    Xcp,
    /// DCTCP over a single-threshold ECN gateway.
    Dctcp {
        /// Marking threshold K, packets.
        mark_threshold: usize,
    },
}

impl Scheme {
    /// All end-to-end + router-assisted schemes of Figs. 4–9.
    pub fn standard_suite() -> Vec<Scheme> {
        vec![
            Scheme::NewReno,
            Scheme::Vegas,
            Scheme::Cubic,
            Scheme::Compound,
            Scheme::CubicSfqCodel,
            Scheme::Xcp,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::NewReno => "NewReno",
            Scheme::Vegas => "Vegas",
            Scheme::Cubic => "Cubic",
            Scheme::Compound => "Compound",
            Scheme::CubicSfqCodel => "Cubic/sfqCoDel",
            Scheme::Xcp => "XCP",
            Scheme::Dctcp { .. } => "DCTCP",
        }
    }

    /// Build one congestion-control instance.
    pub fn build_cc(&self) -> Box<dyn CongestionControl> {
        match self {
            Scheme::NewReno => Box::new(NewReno::new()),
            Scheme::Vegas => Box::new(Vegas::new()),
            Scheme::Cubic | Scheme::CubicSfqCodel => Box::new(Cubic::new()),
            Scheme::Compound => Box::new(Compound::new()),
            Scheme::Xcp => Box::new(Xcp::new()),
            Scheme::Dctcp { .. } => Box::new(Dctcp::new()),
        }
    }

    /// The queue discipline this scheme runs over, given the experiment's
    /// base capacity in packets.
    pub fn queue_spec(&self, capacity: usize) -> QueueSpec {
        match self {
            Scheme::CubicSfqCodel => QueueSpec::SfqCodel {
                capacity,
                buckets: 64,
            },
            Scheme::Dctcp { mark_threshold } => QueueSpec::Ecn {
                capacity,
                mark_threshold: *mark_threshold,
            },
            _ => QueueSpec::DropTail { capacity },
        }
    }

    /// The router hook, if the scheme needs one (XCP's controller, which
    /// must know the link's average rate).
    pub fn router(&self, link: &LinkSpec, mss: u32) -> Option<Box<dyn RouterHook>> {
        match self {
            Scheme::Xcp => Some(Box::new(XcpRouter::new(link.average_rate_mbps(mss), mss))),
            _ => None,
        }
    }
}

#[cfg(test)]
mod closed_loop_tests {
    //! End-to-end behaviour of each baseline inside the simulator. These
    //! are the "does the whole machine move" checks; quantitative
    //! comparisons live in the bench harnesses.

    use super::*;
    use netsim::prelude::*;

    fn run_scheme(scheme: Scheme, n: usize, secs: u64, seed: u64) -> SimResults {
        let link = LinkSpec::constant(15.0);
        let scenario = Scenario {
            link: link.clone(),
            queue: scheme.queue_spec(1000),
            senders: (0..n)
                .map(|_| SenderConfig {
                    rtt: Ns::from_millis(150),
                    traffic: TrafficSpec::saturating(),
                })
                .collect(),
            mss: 1500,
            duration: Ns::from_secs(secs),
            seed,
            record_deliveries: false,
            topology: None,
            churn: None,
        };
        let ccs = (0..n).map(|_| scheme.build_cc()).collect();
        let router = scheme.router(&link, 1500);
        Simulator::new(&scenario, ccs, router).run()
    }

    /// Utilization of `run_scheme`'s 15 Mbps link.
    fn util(r: &SimResults) -> f64 {
        r.utilization(&LinkSpec::constant(15.0), 1500)
    }

    #[test]
    fn newreno_fills_a_15mbps_link() {
        let r = run_scheme(Scheme::NewReno, 1, 60, 1);
        assert!(util(&r) > 0.85, "NewReno utilization {}", util(&r));
    }

    #[test]
    fn cubic_fills_the_link_and_bloats_the_queue() {
        let r = run_scheme(Scheme::Cubic, 1, 60, 1);
        assert!(util(&r) > 0.9, "util {}", util(&r));
        // Cubic over a 1000-packet DropTail runs the buffer high.
        assert!(
            r.flows[0].mean_queue_delay_ms > 50.0,
            "Cubic should bloat: {} ms",
            r.flows[0].mean_queue_delay_ms
        );
    }

    #[test]
    fn vegas_keeps_delay_low() {
        let r = run_scheme(Scheme::Vegas, 1, 60, 1);
        assert!(util(&r) > 0.7, "util {}", util(&r));
        assert!(
            r.flows[0].mean_queue_delay_ms < 20.0,
            "Vegas queueing delay {} ms should stay near the α/β band",
            r.flows[0].mean_queue_delay_ms
        );
    }

    #[test]
    fn vegas_delay_below_cubic_delay() {
        let v = run_scheme(Scheme::Vegas, 2, 60, 3);
        let c = run_scheme(Scheme::Cubic, 2, 60, 3);
        let vd = netsim::stats::mean(
            &v.flows
                .iter()
                .map(|f| f.mean_queue_delay_ms)
                .collect::<Vec<_>>(),
        );
        let cd = netsim::stats::mean(
            &c.flows
                .iter()
                .map(|f| f.mean_queue_delay_ms)
                .collect::<Vec<_>>(),
        );
        assert!(
            vd < cd / 2.0,
            "Vegas ({vd} ms) must be far less bloated than Cubic ({cd} ms)"
        );
    }

    #[test]
    fn compound_fills_the_link() {
        let r = run_scheme(Scheme::Compound, 1, 60, 1);
        assert!(util(&r) > 0.85, "util {}", util(&r));
    }

    #[test]
    fn dctcp_fills_link_with_shallow_queue() {
        let r = run_scheme(Scheme::Dctcp { mark_threshold: 20 }, 2, 60, 1);
        assert!(util(&r) > 0.8, "util {}", util(&r));
        let d = netsim::stats::mean(
            &r.flows
                .iter()
                .map(|f| f.mean_queue_delay_ms)
                .collect::<Vec<_>>(),
        );
        assert!(d < 60.0, "ECN keeps the queue shallow, got {d} ms");
    }

    #[test]
    fn xcp_reaches_high_utilization_with_modest_queue() {
        let r = run_scheme(Scheme::Xcp, 2, 60, 1);
        assert!(util(&r) > 0.75, "XCP utilization {}", util(&r));
        let d = netsim::stats::mean(
            &r.flows
                .iter()
                .map(|f| f.mean_queue_delay_ms)
                .collect::<Vec<_>>(),
        );
        assert!(d < 100.0, "XCP queue delay {d} ms");
    }

    #[test]
    fn cubic_sfqcodel_cuts_cubics_delay() {
        let plain = run_scheme(Scheme::Cubic, 2, 60, 5);
        let aqm = run_scheme(Scheme::CubicSfqCodel, 2, 60, 5);
        let pd = netsim::stats::mean(
            &plain
                .flows
                .iter()
                .map(|f| f.mean_queue_delay_ms)
                .collect::<Vec<_>>(),
        );
        let ad = netsim::stats::mean(
            &aqm.flows
                .iter()
                .map(|f| f.mean_queue_delay_ms)
                .collect::<Vec<_>>(),
        );
        assert!(
            ad < pd / 2.0,
            "CoDel must tame Cubic's queue: {ad} ms vs {pd} ms"
        );
    }

    #[test]
    fn two_newreno_flows_share_fairly() {
        let r = run_scheme(Scheme::NewReno, 2, 120, 7);
        let t0 = r.flows[0].throughput_mbps;
        let t1 = r.flows[1].throughput_mbps;
        let jain = (t0 + t1).powi(2) / (2.0 * (t0 * t0 + t1 * t1));
        assert!(jain > 0.8, "Jain fairness {jain} ({t0} vs {t1})");
    }

    #[test]
    fn scheme_suite_is_complete() {
        let suite = Scheme::standard_suite();
        assert_eq!(suite.len(), 6);
        for s in &suite {
            assert!(!s.label().is_empty());
            let _ = s.build_cc();
        }
    }
}
