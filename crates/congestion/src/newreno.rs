//! TCP NewReno (RFC 5681 / RFC 6582 congestion control).
//!
//! The paper's description (§2): "slow start at the beginning, on a
//! timeout, or after an idle period…, additive increase every RTT when
//! there is no congestion, and a one-half reduction in the window on
//! receiving three duplicate ACKs." The transport supplies loss detection
//! and NewReno's partial-ACK retransmission; this module supplies the
//! window arithmetic.

use netsim::cc::{AckInfo, CongestionControl, LossEvent};
use netsim::time::Ns;

/// Initial congestion window, packets (ns-2 era default).
pub const INITIAL_WINDOW: f64 = 2.0;
/// Floor for ssthresh and the post-fast-retransmit window.
pub const MIN_SSTHRESH: f64 = 2.0;

/// NewReno congestion control.
#[derive(Clone, Debug)]
pub struct NewReno {
    pub(crate) cwnd: f64,
    pub(crate) ssthresh: f64,
    /// The window slow start begins from (and a flow restart returns to).
    initial_window: f64,
}

impl NewReno {
    /// Fresh instance in slow start.
    pub fn new() -> NewReno {
        NewReno::starting_at(INITIAL_WINDOW)
    }

    /// Fresh instance in slow start from `initial_window` packets.
    pub(crate) fn starting_at(initial_window: f64) -> NewReno {
        NewReno {
            cwnd: initial_window,
            ssthresh: f64::INFINITY,
            initial_window,
        }
    }

    /// Current slow-start threshold (tests).
    pub fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    /// True while in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }
}

impl Default for NewReno {
    fn default() -> Self {
        NewReno::new()
    }
}

impl CongestionControl for NewReno {
    fn on_flow_start(&mut self, _now: Ns) {
        self.cwnd = self.initial_window;
        self.ssthresh = f64::INFINITY;
    }

    fn on_ack(&mut self, info: &AckInfo) {
        if info.newly_acked == 0 || info.in_recovery {
            // Duplicate ACKs and recovery-time ACKs don't grow the window;
            // the transport's inflation keeps the ACK clock running.
            return;
        }
        if self.in_slow_start() {
            // Exponential growth: +1 per newly acknowledged packet.
            self.cwnd += info.newly_acked as f64;
            if self.cwnd > self.ssthresh {
                self.cwnd = self.ssthresh;
            }
        } else {
            // Congestion avoidance: +1/cwnd per acknowledged packet,
            // i.e. roughly +1 per RTT.
            self.cwnd += info.newly_acked as f64 / self.cwnd;
        }
    }

    fn on_loss(&mut self, _now: Ns, event: LossEvent) {
        match event {
            LossEvent::FastRetransmit => {
                self.ssthresh = (self.cwnd / 2.0).max(MIN_SSTHRESH);
                self.cwnd = self.ssthresh;
            }
            LossEvent::Timeout => {
                self.ssthresh = (self.cwnd / 2.0).max(MIN_SSTHRESH);
                self.cwnd = 1.0;
            }
        }
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn name(&self) -> &str {
        "NewReno"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(newly: u64) -> AckInfo {
        AckInfo {
            now: Ns::from_millis(100),
            rtt_sample: Ns::from_millis(100),
            min_rtt: Ns::from_millis(100),
            srtt: Ns::from_millis(100),
            echo_ts: Ns::ZERO,
            seq: 0,
            newly_acked: newly,
            in_flight: 10,
            in_recovery: false,
            ecn_echo: false,
            xcp_feedback: None,
        }
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = NewReno::new();
        // Acking a full window of 2 grows it to 4; acking 4 grows to 8.
        cc.on_ack(&ack(2));
        assert_eq!(cc.cwnd(), 4.0);
        cc.on_ack(&ack(4));
        assert_eq!(cc.cwnd(), 8.0);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut cc = NewReno::new();
        cc.on_loss(Ns::ZERO, LossEvent::FastRetransmit); // exits slow start
        let w0 = cc.cwnd();
        // One full window of ACKs ≈ +1 packet.
        let per_ack = w0.ceil() as u64;
        for _ in 0..per_ack {
            cc.on_ack(&ack(1));
        }
        assert!(
            (cc.cwnd() - (w0 + 1.0)).abs() < 0.3,
            "expected ~+1/RTT, got {} from {w0}",
            cc.cwnd()
        );
    }

    #[test]
    fn fast_retransmit_halves() {
        let mut cc = NewReno::new();
        for _ in 0..5 {
            cc.on_ack(&ack(4));
        }
        let before = cc.cwnd();
        cc.on_loss(Ns::ZERO, LossEvent::FastRetransmit);
        assert!((cc.cwnd() - before / 2.0).abs() < 1e-9);
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn timeout_collapses_to_one() {
        let mut cc = NewReno::new();
        for _ in 0..5 {
            cc.on_ack(&ack(4));
        }
        let before = cc.cwnd();
        cc.on_loss(Ns::ZERO, LossEvent::Timeout);
        assert_eq!(cc.cwnd(), 1.0);
        assert!((cc.ssthresh() - before / 2.0).abs() < 1e-9);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn flow_restart_resets_to_initial_window() {
        let mut cc = NewReno::new();
        for _ in 0..10 {
            cc.on_ack(&ack(4));
        }
        cc.on_flow_start(Ns::from_secs(10));
        assert_eq!(cc.cwnd(), INITIAL_WINDOW);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn recovery_acks_do_not_grow_window() {
        let mut cc = NewReno::new();
        cc.on_loss(Ns::ZERO, LossEvent::FastRetransmit);
        let w = cc.cwnd();
        let mut info = ack(1);
        info.in_recovery = true;
        cc.on_ack(&info);
        assert_eq!(cc.cwnd(), w);
    }

    #[test]
    fn ssthresh_never_below_floor() {
        let mut cc = NewReno::new();
        cc.on_loss(Ns::ZERO, LossEvent::Timeout);
        cc.on_loss(Ns::ZERO, LossEvent::Timeout);
        cc.on_loss(Ns::ZERO, LossEvent::Timeout);
        assert_eq!(cc.ssthresh(), MIN_SSTHRESH);
    }
}
