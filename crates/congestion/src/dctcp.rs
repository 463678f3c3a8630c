//! DCTCP — Data Center TCP (Alizadeh et al., SIGCOMM 2010).
//!
//! DCTCP is the paper's datacenter baseline (§5.5). The switch marks
//! packets with ECN CE whenever the instantaneous queue exceeds a
//! threshold `K`; the receiver echoes marks; the sender maintains an
//! estimate `α` of the *fraction* of marked packets per RTT
//! (`α ← (1−g)·α + g·F`) and, in any window that saw a mark, reduces
//! `cwnd ← cwnd·(1 − α/2)` — a reduction proportional to the *extent* of
//! congestion, rather than Reno's fixed one-half.
//!
//! Everything else is Reno's: a [`Dctcp`] is a [`NewReno`] started from a
//! 4-packet window plus the α law above, so slow start, congestion
//! avoidance and both loss responses are NewReno's own code.

use crate::newreno::{NewReno, MIN_SSTHRESH};
use netsim::cc::{AckInfo, CongestionControl, LossEvent};
use netsim::time::Ns;

/// EWMA gain `g` for the marking-fraction estimator.
pub const G: f64 = 1.0 / 16.0;
/// Initial window, packets.
pub const INITIAL_WINDOW: f64 = 4.0;

/// DCTCP sender.
#[derive(Clone, Debug)]
pub struct Dctcp {
    /// The window law: NewReno from [`INITIAL_WINDOW`].
    reno: NewReno,
    /// Smoothed fraction of marked packets.
    alpha: f64,
    /// Observation window (≈ one RTT) accounting.
    window_end: Ns,
    acked_in_window: u64,
    marked_in_window: u64,
}

impl Dctcp {
    /// Fresh instance.
    pub fn new() -> Dctcp {
        Dctcp {
            reno: NewReno::starting_at(INITIAL_WINDOW),
            alpha: 0.0,
            window_end: Ns::ZERO,
            acked_in_window: 0,
            marked_in_window: 0,
        }
    }

    /// The current marking-fraction estimate (tests).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Default for Dctcp {
    fn default() -> Self {
        Dctcp::new()
    }
}

impl CongestionControl for Dctcp {
    fn on_flow_start(&mut self, _now: Ns) {
        *self = Dctcp::new();
    }

    fn on_ack(&mut self, info: &AckInfo) {
        if info.newly_acked > 0 {
            self.acked_in_window += info.newly_acked;
            if info.ecn_echo {
                self.marked_in_window += info.newly_acked;
            }
        }
        // End of an observation window: fold the marking fraction into α
        // and react once.
        if info.now >= self.window_end && self.acked_in_window > 0 {
            let f = self.marked_in_window as f64 / self.acked_in_window as f64;
            self.alpha = (1.0 - G) * self.alpha + G * f;
            if self.marked_in_window > 0 {
                let reno = &mut self.reno;
                reno.cwnd = (reno.cwnd * (1.0 - self.alpha / 2.0)).max(MIN_SSTHRESH);
                reno.ssthresh = reno.cwnd;
            }
            self.acked_in_window = 0;
            self.marked_in_window = 0;
            self.window_end = info.now + info.srtt;
        }
        // Growth between marks is Reno's.
        self.reno.on_ack(info);
    }

    fn on_loss(&mut self, now: Ns, event: LossEvent) {
        self.reno.on_loss(now, event);
    }

    fn cwnd(&self) -> f64 {
        self.reno.cwnd
    }

    fn ecn_capable(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "DCTCP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack_at(now_ms: u64, newly: u64, marked: bool) -> AckInfo {
        AckInfo {
            now: Ns::from_millis(now_ms),
            rtt_sample: Ns::from_millis(4),
            min_rtt: Ns::from_millis(4),
            srtt: Ns::from_millis(4),
            echo_ts: Ns::ZERO,
            seq: 0,
            newly_acked: newly,
            in_flight: 10,
            in_recovery: false,
            ecn_echo: marked,
            xcp_feedback: None,
        }
    }

    #[test]
    fn declares_ecn_capability() {
        assert!(Dctcp::new().ecn_capable());
    }

    #[test]
    fn alpha_converges_to_full_marking() {
        let mut cc = Dctcp::new();
        cc.reno.ssthresh = 2.0; // skip slow start
                                // Every window fully marked → α → 1.
        for w in 0..200 {
            cc.on_ack(&ack_at(w * 10, 4, true));
        }
        assert!(cc.alpha() > 0.9, "alpha {} should approach 1", cc.alpha());
    }

    #[test]
    fn alpha_decays_without_marks() {
        let mut cc = Dctcp::new();
        cc.alpha = 0.8;
        cc.reno.ssthresh = 2.0;
        for w in 0..100 {
            cc.on_ack(&ack_at(w * 10, 4, false));
        }
        assert!(cc.alpha() < 0.01, "alpha {} should decay", cc.alpha());
    }

    #[test]
    fn light_marking_gives_gentle_reduction() {
        // One marked window with small α: cwnd shrinks by α/2, not 1/2.
        let mut cc = Dctcp::new();
        cc.reno.ssthresh = 2.0;
        cc.reno.cwnd = 100.0;
        cc.alpha = 0.1;
        // First ack in a fresh window carries a mark; window closes at
        // once because window_end == 0.
        cc.on_ack(&ack_at(0, 1, true));
        // α ← 0.9375·0.1 + 0.0625·1 = 0.15625; cwnd ← 100·(1−α/2) =
        // 92.1875 = ssthresh, then the same ACK's Reno growth, +1/cwnd:
        // a reduction of ≈ 7.8 packets.
        let cut = 100.0 * (1.0 - 0.15625 / 2.0);
        assert_eq!(cc.cwnd(), cut + 1.0 / cut, "gentle reduction, then growth");
    }

    #[test]
    fn heavy_marking_approaches_halving() {
        let mut cc = Dctcp::new();
        cc.reno.ssthresh = 2.0;
        cc.alpha = 1.0;
        cc.reno.cwnd = 100.0;
        cc.on_ack(&ack_at(0, 1, true));
        assert!(cc.cwnd() < 55.0, "alpha=1 should halve, got {}", cc.cwnd());
    }

    #[test]
    fn reacts_at_most_once_per_window() {
        let mut cc = Dctcp::new();
        cc.reno.ssthresh = 2.0;
        cc.reno.cwnd = 100.0;
        cc.alpha = 1.0;
        cc.on_ack(&ack_at(0, 1, true)); // reduction; next window at 4 ms
        let w = cc.cwnd();
        cc.on_ack(&ack_at(1, 1, true)); // same window: only growth
        assert!(cc.cwnd() >= w, "no second reduction within a window");
    }

    #[test]
    fn without_marks_it_is_newreno_from_four_packets() {
        // A seeded ACK/loss sequence with no ECN echo: every window DCTCP
        // reports is the one NewReno from a 4-packet start reports.
        netsim::rng::cases("dctcp_without_marks_is_newreno", |rng| {
            let (mut cc, mut reno) = (Dctcp::new(), NewReno::starting_at(4.0));
            let mut now_ms = 0;
            for _ in 0..300 {
                now_ms += rng.range_u64(0, 3);
                if rng.chance(0.03) {
                    let event = if rng.chance(0.5) {
                        LossEvent::FastRetransmit
                    } else {
                        LossEvent::Timeout
                    };
                    cc.on_loss(Ns::from_millis(now_ms), event);
                    reno.on_loss(Ns::from_millis(now_ms), event);
                } else {
                    let mut info = ack_at(now_ms, rng.range_u64(0, 4), false);
                    info.in_recovery = rng.chance(0.1);
                    cc.on_ack(&info);
                    reno.on_ack(&info);
                }
                assert_eq!(cc.cwnd().to_bits(), reno.cwnd().to_bits());
            }
        });
    }

    #[test]
    fn loss_still_halves_like_reno() {
        let mut cc = Dctcp::new();
        cc.reno.cwnd = 64.0;
        cc.on_loss(Ns::ZERO, LossEvent::FastRetransmit);
        assert_eq!(cc.cwnd(), 32.0);
        cc.on_loss(Ns::ZERO, LossEvent::Timeout);
        assert_eq!(cc.cwnd(), 1.0);
    }
}
