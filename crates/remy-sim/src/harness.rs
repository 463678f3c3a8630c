//! The contender/outcome substrate shared by every experiment.
//!
//! The paper's evaluation methodology (§5.1): run each scenario for 100
//! simulated seconds, at least 128 times with different random draws,
//! measure each sender's throughput (`Σsi/Σti`) and average queueing
//! delay, and report per-scheme medians plus 1-σ ellipses. A
//! [`Contender`] runs one scenario ([`Contender::simulate`]) and an
//! [`Outcome`] pools the per-sender samples; experiment *descriptions*
//! live one layer up, in [`crate::spec::ExperimentSpec`], and
//! [`crate::experiment::Experiment`] is the one loop that fans their
//! runs through the parallel engine.

use congestion::Scheme;
use netsim::cc::CongestionControl;
use netsim::link::LinkSpec;
use netsim::metrics::SimResults;
use netsim::queue::QueueSpec;
use netsim::scenario::Scenario;
use netsim::sim::Simulator;
use netsim::stats::{ellipse, median, Ellipse};
use remy::remycc::RemyCc;
use remy::whisker::WhiskerTree;
use std::sync::Arc;

/// One congestion-control configuration under test: either a baseline
/// scheme (which brings its own queue discipline and, for XCP, a router)
/// or a RemyCC rule table (always end-to-end over DropTail).
#[derive(Clone, Debug)]
pub enum Contender {
    /// A human-designed baseline.
    Baseline(Scheme),
    /// A RemyCC executing the given rule table.
    Remy {
        /// Display label, e.g. "RemyCC δ=0.1".
        label: String,
        /// The rule table.
        table: Arc<WhiskerTree>,
        /// Ablation hook: `[ack_ewma, send_ewma, rtt_ratio]`, `false`
        /// blinds the controller to that signal. All-true normally.
        signal_mask: [bool; 3],
    },
}

impl Contender {
    /// Wrap a baseline scheme.
    pub fn baseline(s: Scheme) -> Contender {
        Contender::Baseline(s)
    }

    /// Wrap a RemyCC rule table.
    pub fn remy(label: impl Into<String>, table: Arc<WhiskerTree>) -> Contender {
        Contender::remy_masked(label, table, [true; 3])
    }

    /// Wrap a RemyCC blinded to the masked-off congestion signals
    /// (ablation studies; see `RemyCc::with_signal_mask`).
    pub fn remy_masked(
        label: impl Into<String>,
        table: Arc<WhiskerTree>,
        signal_mask: [bool; 3],
    ) -> Contender {
        Contender::Remy {
            label: label.into(),
            table,
            signal_mask,
        }
    }

    /// Display label.
    pub fn label(&self) -> String {
        match self {
            Contender::Baseline(s) => s.label().to_string(),
            Contender::Remy { label, .. } => label.clone(),
        }
    }

    /// The bottleneck queue this contender runs over.
    pub fn queue_spec(&self, capacity: usize) -> QueueSpec {
        match self {
            Contender::Baseline(s) => s.queue_spec(capacity),
            Contender::Remy { .. } => QueueSpec::DropTail { capacity },
        }
    }

    /// Build one congestion-control instance.
    pub fn build_cc(&self) -> Box<dyn CongestionControl> {
        match self {
            Contender::Baseline(s) => s.build_cc(),
            Contender::Remy {
                label,
                table,
                signal_mask,
            } => Box::new(
                RemyCc::new(Arc::clone(table))
                    .with_name(label.clone())
                    .with_signal_mask(*signal_mask),
            ),
        }
    }

    /// Router hook, if the scheme needs one.
    pub fn router(&self, link: &LinkSpec, mss: u32) -> Option<Box<dyn netsim::router::RouterHook>> {
        match self {
            Contender::Baseline(s) => s.router(link, mss),
            Contender::Remy { .. } => None,
        }
    }

    /// Simulate one scenario with every sender — and, on a churn
    /// workload, every arriving flow — under this contender.
    pub fn simulate(&self, sc: &Scenario) -> SimResults {
        let ccs = (0..sc.n()).map(|_| self.build_cc()).collect();
        let mut sim = Simulator::new(sc, ccs, self.router(&sc.link, sc.mss));
        if sc.churn.is_some() {
            let contender = self.clone();
            sim = sim.with_churn_cc(Box::new(move |_| contender.build_cc()));
        }
        sim.run()
    }
}

/// Pooled per-sender results of one contender across all runs.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Contender label.
    pub label: String,
    /// One entry per active sender per run: throughput, Mbps.
    pub throughput_samples: Vec<f64>,
    /// Matching queueing-delay samples, ms.
    pub delay_samples: Vec<f64>,
    /// Matching mean-RTT samples, ms.
    pub rtt_samples: Vec<f64>,
    /// Median per-sender throughput, Mbps.
    pub median_throughput_mbps: f64,
    /// Median per-sender queueing delay, ms.
    pub median_queue_delay_ms: f64,
    /// Median per-sender mean RTT, ms.
    pub median_rtt_ms: f64,
    /// The paper's 1-σ throughput-delay ellipse (x = delay, y = tput).
    pub ellipse: Ellipse,
}

impl Outcome {
    /// Pool aligned per-sender sample vectors (throughput Mbps, queueing
    /// delay ms, mean RTT ms) into medians plus the 1-σ ellipse.
    pub fn from_samples(label: String, tput: Vec<f64>, delay: Vec<f64>, rtt: Vec<f64>) -> Outcome {
        let e = ellipse(&delay, &tput);
        Outcome {
            label,
            median_throughput_mbps: median(&tput),
            median_queue_delay_ms: median(&delay),
            median_rtt_ms: median(&rtt),
            throughput_samples: tput,
            delay_samples: delay,
            rtt_samples: rtt,
            ellipse: e,
        }
    }

    /// A one-line report row matching the paper's tables.
    pub fn row(&self) -> String {
        format!(
            "{:<16} tput {:>7.3} Mbps   qdelay {:>8.2} ms   rtt {:>8.2} ms   (n={})",
            self.label,
            self.median_throughput_mbps,
            self.median_queue_delay_ms,
            self.median_rtt_ms,
            self.throughput_samples.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::spec::{Budget, ContenderSpec, ExperimentSpec, LinkRef, WorkloadSpec};
    use netsim::time::Ns;
    use netsim::traffic::TrafficSpec;

    /// One contender on a small dumbbell through the one run path.
    fn outcome_of(contender: ContenderSpec) -> Outcome {
        let spec = ExperimentSpec::new(
            "small",
            "small dumbbell",
            WorkloadSpec::uniform(
                LinkRef::constant(15.0),
                1000,
                2,
                Ns::from_millis(150),
                TrafficSpec::fig4(),
            ),
            vec![contender],
            Budget {
                runs: 2,
                sim_secs: 10,
            },
            11,
        );
        let mut results = Experiment::new(spec).run().expect("runs");
        results.cells.remove(0).outcome
    }

    #[test]
    fn baseline_outcome_has_samples() {
        let out = outcome_of(ContenderSpec::new("newreno"));
        assert_eq!(out.label, "NewReno");
        assert!(!out.throughput_samples.is_empty());
        assert_eq!(out.throughput_samples.len(), out.delay_samples.len());
        assert!(out.median_throughput_mbps > 0.0);
        assert!(out.row().contains("NewReno"));
    }

    #[test]
    fn remy_contender_runs_end_to_end() {
        let out = outcome_of(ContenderSpec::labeled("remy:delta1", "RemyCC test"));
        assert_eq!(out.label, "RemyCC test");
        assert!(out.median_throughput_mbps > 0.0);
    }

    #[test]
    fn a_run_path_remycc_records_no_usage() {
        let mut cc = Contender::remy("r", Arc::new(WhiskerTree::single_rule())).build_cc();
        cc.on_flow_start(Ns::ZERO);
        for k in 1..=3 {
            cc.on_ack(&netsim::cc::AckInfo {
                now: Ns::from_millis(100 + k),
                rtt_sample: Ns::from_millis(100),
                min_rtt: Ns::from_millis(100),
                srtt: Ns::from_millis(100),
                echo_ts: Ns::from_millis(k),
                seq: k,
                newly_acked: 1,
                in_flight: 1,
                in_recovery: false,
                ecn_echo: false,
                xcp_feedback: None,
            });
        }
        assert!(cc.cwnd() > 2.0, "the ACKs were acted on");
        let usage = remy::remycc::recorded_usage(vec![cc], 1);
        assert_eq!(usage.total(), 0, "only the evaluator records");
    }

    #[test]
    fn xcp_contender_gets_its_router() {
        let c = Contender::baseline(Scheme::Xcp);
        assert!(c.router(&LinkSpec::constant(15.0), 1500).is_some());
        let c2 = Contender::baseline(Scheme::Cubic);
        assert!(c2.router(&LinkSpec::constant(15.0), 1500).is_none());
    }

    #[test]
    fn queue_spec_follows_scheme() {
        let sfq = Contender::baseline(Scheme::CubicSfqCodel).queue_spec(1000);
        assert!(matches!(sfq, QueueSpec::SfqCodel { .. }));
        let remy = Contender::remy("r", Arc::new(WhiskerTree::single_rule()));
        assert!(matches!(
            remy.queue_spec(5),
            QueueSpec::DropTail { capacity: 5 }
        ));
    }

    #[test]
    fn masked_contender_builds_blinded_cc() {
        let c = Contender::remy_masked(
            "blind",
            Arc::new(WhiskerTree::single_rule()),
            [false, false, false],
        );
        assert_eq!(c.label(), "blind");
        let out = outcome_of(ContenderSpec::labeled("remy:delta1:mask=000", "blind"));
        assert_eq!(out.label, "blind");
        assert!(out.median_throughput_mbps > 0.0, "blind RemyCC still runs");
    }

    #[test]
    fn deterministic_across_calls() {
        let a = outcome_of(ContenderSpec::new("vegas"));
        let b = outcome_of(ContenderSpec::new("vegas"));
        assert_eq!(a.median_throughput_mbps, b.median_throughput_mbps);
        assert_eq!(a.delay_samples, b.delay_samples);
    }
}
