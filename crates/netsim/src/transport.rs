//! A reliable transport with pluggable congestion control.
//!
//! This is the "existing TCP sender implementation" of §4.1: it numbers
//! segments, tracks the cumulative-ACK frontier, detects losses via three
//! duplicate ACKs and via a retransmission timeout, estimates RTT/RTO per
//! RFC 6298, and asks its [`CongestionControl`] object for the window and
//! pacing that gate transmission. Every scheme in the repository — NewReno,
//! Vegas, Cubic, Compound, DCTCP, XCP, and RemyCC — runs on top of this
//! same recovery machinery, exactly as the paper runs RemyCCs inside an
//! unmodified TCP sender.
//!
//! ## SACK-equivalent recovery
//!
//! The paper's baselines are the Linux implementations ported to ns-2,
//! which recover with SACK. We get equivalent information without
//! modelling SACK blocks: every ACK in the simulator identifies the
//! specific packet that triggered it (`ack.seq`), so the sender maintains
//! a *scoreboard* of delivered-above-frontier sequences. During fast
//! recovery it retransmits every hole while the RFC 6675-style pipe
//! estimate (`outstanding − sacked + retransmitted`) is below the window —
//! recovering a whole loss burst in about one RTT instead of one hole per
//! RTT. A retransmission timeout falls back to go-back-N, skipping
//! sequences the scoreboard knows were delivered.

use crate::cc::{AckInfo, CongestionControl, LossEvent};
use crate::packet::Ack;
use crate::time::Ns;
use std::collections::BTreeSet;

/// Minimum retransmission timeout (RFC 6298 recommends 1 s; modern stacks
/// and simulators use 200 ms, which suits the paper's 100–200 ms RTTs).
pub const MIN_RTO: Ns = Ns(200_000_000);
/// Maximum retransmission timeout.
pub const MAX_RTO: Ns = Ns(60_000_000_000);
/// Duplicate-ACK threshold for fast retransmit.
pub const DUPACK_THRESHOLD: u32 = 3;

/// What the transport wants to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendPoll {
    /// Transmit this sequence number now.
    Send {
        /// Sequence number to transmit.
        seq: u64,
        /// True when the receiver may already have seen this sequence.
        retransmit: bool,
    },
    /// Could transmit, but the pacer forbids it until the given time.
    Paced {
        /// Earliest allowed transmission time.
        until: Ns,
    },
    /// Nothing to send (window full, or no data available).
    Idle,
}

/// Summary of one processed ACK.
#[derive(Clone, Copy, Debug, Default)]
pub struct AckOutcome {
    /// Packets newly acknowledged (0 for a duplicate ACK).
    pub newly_acked: u64,
    /// A fast retransmit was triggered by this ACK.
    pub fast_retransmit: bool,
    /// The RTT sample extracted from the ACK.
    pub rtt_sample: Ns,
}

/// Reliable sender state for one flow.
pub struct Transport {
    cc: Box<dyn CongestionControl>,

    // --- sequence space ---
    /// Next new sequence number to inject.
    next_seq: u64,
    /// Lowest unacknowledged sequence number.
    snd_una: u64,
    /// Sequences above `snd_una` the receiver is known to have (the
    /// SACK-equivalent scoreboard).
    scoreboard: BTreeSet<u64>,
    /// Holes retransmitted in the current recovery episode and not yet
    /// known delivered.
    rtx_sent: BTreeSet<u64>,
    /// After an RTO the pipe is rewound to `snd_una`; sequences below this
    /// watermark were already injected once, so resending them is
    /// retransmission work that needs no fresh traffic budget.
    rewound_through: u64,

    // --- loss detection ---
    dup_acks: u32,
    in_recovery: bool,
    /// Recovery ends when `snd_una` passes this (NewReno "recover").
    recover: u64,
    /// Monotone cursor for hole scanning within [snd_una, recover).
    hole_cursor: u64,
    /// Proportional-rate-reduction-style send quota: transmissions during
    /// fast recovery are clocked by returning ACKs (one credit per ACK)
    /// instead of bursting the whole window's worth of holes at once.
    recovery_quota: f64,

    // --- RTT estimation / RTO (RFC 6298) ---
    srtt: Option<Ns>,
    rttvar: Ns,
    rto: Ns,
    min_rtt: Ns,
    /// Armed RTO deadline; `None` when nothing is outstanding.
    rto_deadline: Option<Ns>,

    // --- pacing ---
    last_send: Option<Ns>,

    // --- counters (reports/tests) ---
    /// Lifetime send/ack/loss counters.
    pub stats: TransportStats,
}

/// Lifetime counters for one transport.
#[derive(Clone, Copy, Debug, Default)]
pub struct TransportStats {
    /// Data packets handed to the network (including retransmits).
    pub sent: u64,
    /// Retransmitted packets.
    pub retransmits: u64,
    /// Fast-retransmit episodes.
    pub fast_retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// ACKs processed.
    pub acks: u64,
}

impl Transport {
    /// Wrap a congestion-control instance.
    pub fn new(cc: Box<dyn CongestionControl>) -> Transport {
        Transport {
            cc,
            next_seq: 0,
            snd_una: 0,
            scoreboard: BTreeSet::new(),
            rtx_sent: BTreeSet::new(),
            rewound_through: 0,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            hole_cursor: 0,
            recovery_quota: 0.0,
            srtt: None,
            rttvar: Ns::ZERO,
            rto: Ns::SECOND,
            min_rtt: Ns::MAX,
            rto_deadline: None,
            last_send: None,
            stats: TransportStats::default(),
        }
    }

    /// Begin a fresh connection (a new "on" period). Sequence numbering
    /// continues — the receiver's cumulative state stays valid — but RTT
    /// estimators, recovery state, and the congestion controller restart,
    /// mimicking TCP's per-connection slow start (§4.1).
    pub fn start_connection(&mut self, now: Ns) {
        self.dup_acks = 0;
        self.in_recovery = false;
        self.rtx_sent.clear();
        self.srtt = None;
        self.rttvar = Ns::ZERO;
        self.rto = Ns::SECOND;
        self.min_rtt = Ns::MAX;
        self.last_send = None;
        self.cc.on_flow_start(now);
    }

    /// Access the congestion controller (reports, tests).
    pub fn cc(&self) -> &dyn CongestionControl {
        &*self.cc
    }

    /// Consume the transport, returning the congestion controller (Remy's
    /// evaluator drains a recording RemyCC's whisker usage from it).
    pub fn into_cc(self) -> Box<dyn CongestionControl> {
        self.cc
    }

    /// RFC 6675-style pipe estimate: outstanding, minus packets the
    /// scoreboard knows were delivered, plus outstanding retransmissions.
    pub fn in_flight(&self) -> u64 {
        let base = self.next_seq - self.snd_una;
        let sacked = self.scoreboard.len() as u64;
        base.saturating_sub(sacked) + self.rtx_sent.len() as u64
    }

    /// Lowest unacknowledged sequence.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Next new sequence number.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// True when every injected packet has been cumulatively acknowledged.
    pub fn all_acked(&self) -> bool {
        self.snd_una == self.next_seq
    }

    /// Current minimum RTT estimate ([`Ns::MAX`] before the first sample).
    pub fn min_rtt(&self) -> Ns {
        self.min_rtt
    }

    /// The armed RTO deadline, for the event loop.
    pub fn rto_deadline(&self) -> Option<Ns> {
        self.rto_deadline
    }

    fn arm_rto(&mut self, now: Ns) {
        self.rto_deadline = Some(now + self.rto);
    }

    /// The next hole to retransmit during fast recovery, if any.
    fn next_hole(&mut self) -> Option<u64> {
        if !self.in_recovery {
            return None;
        }
        let mut s = self.hole_cursor.max(self.snd_una);
        while s < self.recover && s < self.next_seq {
            if !self.scoreboard.contains(&s) && !self.rtx_sent.contains(&s) {
                self.hole_cursor = s;
                return Some(s);
            }
            s += 1;
        }
        self.hole_cursor = s;
        None
    }

    /// Decide what to transmit at `now`. `may_inject_new` is the traffic
    /// model's permission to create brand-new data.
    pub fn poll_send(&mut self, now: Ns, may_inject_new: bool) -> SendPoll {
        let window = self.cc.cwnd();
        let pipe = self.in_flight() as f64;
        // During fast recovery every transmission additionally needs an
        // ACK-clock credit, which prevents hole-retransmission bursts from
        // re-overflowing the bottleneck queue.
        let window_open = pipe < window && (!self.in_recovery || self.recovery_quota >= 1.0);

        // Fast-recovery retransmissions take priority over new data.
        let hole = if window_open { self.next_hole() } else { None };

        // Post-timeout go-back-N resends: skip sequences the receiver is
        // known to have, then resend the rest without fresh traffic budget.
        if hole.is_none() {
            while self.next_seq < self.rewound_through && self.scoreboard.contains(&self.next_seq) {
                self.next_seq += 1;
            }
        }
        let rewind_pending = self.next_seq < self.rewound_through;

        let work = match hole {
            Some(h) => Some((h, true)),
            None if window_open && (rewind_pending || may_inject_new) => {
                Some((self.next_seq, rewind_pending))
            }
            None => None,
        };
        let Some((seq, retransmit)) = work else {
            return SendPoll::Idle;
        };
        // Pacing applies to every transmission, retransmits included (the
        // RemyCC action's `r` is "a lower bound on the time between
        // successive sends", §4.2).
        let gap = self.cc.pacing();
        if let Some(last) = self.last_send {
            if !gap.is_zero() && now < last + gap {
                return SendPoll::Paced { until: last + gap };
            }
        }
        SendPoll::Send { seq, retransmit }
    }

    /// Record that the packet returned by [`Transport::poll_send`] was
    /// handed to the network.
    pub fn on_sent(&mut self, now: Ns, seq: u64, retransmit: bool) {
        self.stats.sent += 1;
        if retransmit {
            self.stats.retransmits += 1;
        }
        if seq == self.next_seq {
            // New data or a go-back-N resend.
            self.next_seq += 1;
        } else {
            // A fast-recovery hole retransmission.
            debug_assert!(seq >= self.snd_una && seq < self.next_seq);
            self.rtx_sent.insert(seq);
        }
        if self.in_recovery {
            self.recovery_quota = (self.recovery_quota - 1.0).max(0.0);
        }
        self.last_send = Some(now);
        if self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
    }

    fn update_rtt(&mut self, sample: Ns) {
        self.min_rtt = self.min_rtt.min(sample);
        let srtt = match self.srtt {
            None => {
                self.rttvar = Ns(sample.0 / 2);
                sample
            }
            Some(srtt) => {
                let err = if srtt >= sample {
                    srtt - sample
                } else {
                    sample - srtt
                };
                self.rttvar = Ns((3 * self.rttvar.0 + err.0) / 4);
                Ns((7 * srtt.0 + sample.0) / 8)
            }
        };
        self.srtt = Some(srtt);
        self.rto = (srtt + Ns(4 * self.rttvar.0)).max(MIN_RTO).min(MAX_RTO);
    }

    fn prune_below_frontier(&mut self) {
        // On the in-order path both sets are empty; `split_off` would still
        // build and drop a fresh set each.
        let una = self.snd_una;
        if !self.scoreboard.is_empty() {
            self.scoreboard = self.scoreboard.split_off(&una);
        }
        if !self.rtx_sent.is_empty() {
            self.rtx_sent = self.rtx_sent.split_off(&una);
        }
    }

    /// Process an acknowledgment.
    pub fn on_ack(&mut self, now: Ns, ack: &Ack) -> AckOutcome {
        self.stats.acks += 1;
        let rtt_sample = now.saturating_sub(ack.echo_ts);
        self.update_rtt(rtt_sample);

        let mut out = AckOutcome {
            rtt_sample,
            ..AckOutcome::default()
        };

        // Scoreboard: this specific packet reached the receiver.
        if ack.seq >= self.snd_una && ack.seq >= ack.cum_ack {
            self.scoreboard.insert(ack.seq);
            self.rtx_sent.remove(&ack.seq);
        }
        if self.in_recovery {
            self.recovery_quota += 1.0;
        }

        if ack.cum_ack > self.snd_una {
            // Forward progress.
            out.newly_acked = ack.cum_ack - self.snd_una;
            self.snd_una = ack.cum_ack;
            // A go-back-N rewind (after an RTO) may leave next_seq behind
            // the frontier if old in-flight packets completed the window.
            if self.next_seq < self.snd_una {
                self.next_seq = self.snd_una;
            }
            self.dup_acks = 0;
            self.prune_below_frontier();
            if self.in_recovery && self.snd_una >= self.recover {
                // Full ACK: recovery complete. (Partial ACKs need no
                // special retransmission step — the hole scan covers every
                // gap — and recovery is progressing, so the RTO re-arms.)
                self.in_recovery = false;
                self.rtx_sent.clear();
            }
            if self.all_acked() {
                self.rto_deadline = None;
            } else {
                self.arm_rto(now);
            }
        } else {
            // Duplicate ACK.
            self.dup_acks += 1;
            if !self.in_recovery && self.dup_acks == DUPACK_THRESHOLD && !self.all_acked() {
                self.in_recovery = true;
                self.recover = self.next_seq;
                self.hole_cursor = self.snd_una;
                self.recovery_quota = DUPACK_THRESHOLD as f64;
                self.rtx_sent.clear();
                self.stats.fast_retransmits += 1;
                out.fast_retransmit = true;
                self.cc.on_loss(now, LossEvent::FastRetransmit);
            }
        }

        let info = AckInfo {
            now,
            rtt_sample,
            min_rtt: self.min_rtt,
            srtt: self.srtt.unwrap_or(rtt_sample),
            echo_ts: ack.echo_ts,
            seq: ack.seq,
            newly_acked: out.newly_acked,
            in_flight: self.in_flight(),
            in_recovery: self.in_recovery,
            ecn_echo: ack.ecn_echo,
            xcp_feedback: ack.xcp_feedback,
        };
        self.cc.on_ack(&info);
        out
    }

    /// An RTO timer fired at `now`. Returns `true` if a timeout was
    /// actually taken (a disarmed transport, or a timer ahead of the live
    /// deadline, returns `false`).
    pub fn on_rto_fire(&mut self, now: Ns) -> bool {
        let Some(deadline) = self.rto_deadline else {
            return false;
        };
        if now < deadline {
            return false; // the deadline moved out since this timer was set
        }
        if self.all_acked() {
            self.rto_deadline = None;
            return false;
        }
        // Timeout: collapse to go-back-N. Rewinding next_seq to the
        // frontier makes the pipe estimate zero so retransmission can
        // proceed under the post-timeout window; the scoreboard lets the
        // resend pass skip delivered sequences.
        self.stats.timeouts += 1;
        self.in_recovery = false;
        self.dup_acks = 0;
        self.rtx_sent.clear();
        self.rewound_through = self.rewound_through.max(self.next_seq);
        self.next_seq = self.snd_una;
        self.rto = self.rto.mul_f64(2.0).min(MAX_RTO);
        self.arm_rto(now);
        self.cc.on_loss(now, LossEvent::Timeout);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::FixedWindow;
    use crate::packet::{Ack, FlowId};

    fn ack(cum: u64, seq: u64, echo: Ns) -> Ack {
        Ack {
            flow: FlowId::first(0),
            cum_ack: cum,
            seq,
            echo_ts: echo,
            received_at: Ns::ZERO,
            ecn_echo: false,
            xcp_feedback: None,
            new_data: true,
        }
    }

    fn transport(window: f64) -> Transport {
        let mut t = Transport::new(Box::new(FixedWindow::new(window)));
        t.start_connection(Ns::ZERO);
        t
    }

    #[test]
    fn sends_up_to_window_then_idles() {
        let mut t = transport(3.0);
        for i in 0..3 {
            match t.poll_send(Ns(i), true) {
                SendPoll::Send { seq, retransmit } => {
                    assert_eq!(seq, i);
                    assert!(!retransmit);
                    t.on_sent(Ns(i), seq, false);
                }
                other => panic!("expected send, got {other:?}"),
            }
        }
        assert_eq!(t.in_flight(), 3);
        assert_eq!(t.poll_send(Ns(10), true), SendPoll::Idle);
    }

    #[test]
    fn idle_when_no_data() {
        let mut t = transport(10.0);
        assert_eq!(t.poll_send(Ns::ZERO, false), SendPoll::Idle);
    }

    #[test]
    fn cumulative_ack_advances_frontier() {
        let mut t = transport(10.0);
        for i in 0..5 {
            t.on_sent(Ns(i), i, false);
        }
        let out = t.on_ack(Ns::from_millis(100), &ack(3, 2, Ns(2)));
        assert_eq!(out.newly_acked, 3);
        assert_eq!(t.snd_una(), 3);
        assert_eq!(t.in_flight(), 2);
        assert!(!t.all_acked());
        let out = t.on_ack(Ns::from_millis(101), &ack(5, 4, Ns(4)));
        assert_eq!(out.newly_acked, 2);
        assert!(t.all_acked());
        assert!(t.rto_deadline().is_none(), "RTO disarmed when idle");
    }

    #[test]
    fn scoreboard_deflates_pipe() {
        let mut t = transport(10.0);
        for i in 0..6 {
            t.on_sent(Ns(i), i, false);
        }
        assert_eq!(t.in_flight(), 6);
        // Packet 0 lost; dup ACKs for 1 and 2 shrink the pipe.
        t.on_ack(Ns::from_millis(100), &ack(0, 1, Ns(1)));
        t.on_ack(Ns::from_millis(101), &ack(0, 2, Ns(2)));
        assert_eq!(t.in_flight(), 4);
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit_once() {
        let mut t = transport(10.0);
        for i in 0..6 {
            t.on_sent(Ns(i), i, false);
        }
        // Packet 0 lost; packets 1..4 arrive producing dup ACKs (cum 0).
        let mut fired = 0;
        for k in 1..=4 {
            let out = t.on_ack(Ns::from_millis(100 + k), &ack(0, k, Ns(k)));
            if out.fast_retransmit {
                fired += 1;
            }
        }
        assert_eq!(fired, 1, "exactly one fast retransmit per episode");
        assert_eq!(t.stats.fast_retransmits, 1);
        // The retransmission of seq 0 must be offered.
        match t.poll_send(Ns::from_millis(110), false) {
            SendPoll::Send {
                seq: 0,
                retransmit: true,
            } => {}
            other => panic!("expected rtx of 0, got {other:?}"),
        }
    }

    #[test]
    fn recovery_retransmits_all_holes_in_one_window() {
        // Packets 0, 2, 4 lost out of 0..8: after recovery starts, the
        // hole scan must offer 0, then 2, then 4 back to back.
        let mut t = transport(20.0);
        for i in 0..8 {
            t.on_sent(Ns(i), i, false);
        }
        for (k, seq) in [1u64, 3, 5, 6, 7].iter().enumerate() {
            t.on_ack(Ns::from_millis(100 + k as u64), &ack(0, *seq, Ns(*seq)));
        }
        let mut holes = Vec::new();
        for k in 0..3 {
            match t.poll_send(Ns::from_millis(110 + k), false) {
                SendPoll::Send {
                    seq,
                    retransmit: true,
                } => {
                    holes.push(seq);
                    t.on_sent(Ns::from_millis(110 + k), seq, true);
                }
                other => panic!("expected hole rtx, got {other:?}"),
            }
        }
        assert_eq!(holes, vec![0, 2, 4]);
        assert_eq!(t.poll_send(Ns::from_millis(120), false), SendPoll::Idle);
    }

    #[test]
    fn recovery_exits_on_full_ack() {
        let mut t = transport(10.0);
        for i in 0..6 {
            t.on_sent(Ns(i), i, false);
        }
        for k in 1..=5 {
            t.on_ack(Ns::from_millis(100 + k), &ack(0, k, Ns(k)));
        }
        if let SendPoll::Send {
            seq: 0,
            retransmit: true,
        } = t.poll_send(Ns::from_millis(110), false)
        {
            t.on_sent(Ns::from_millis(110), 0, true);
        } else {
            panic!("expected rtx");
        }
        // Full ACK through 6 ends recovery.
        t.on_ack(Ns::from_millis(200), &ack(6, 0, Ns::from_millis(110)));
        assert!(t.all_acked());
        assert_eq!(t.poll_send(Ns::from_millis(210), false), SendPoll::Idle);
    }

    #[test]
    fn partial_ack_advances_hole_scan() {
        let mut t = transport(20.0);
        for i in 0..8 {
            t.on_sent(Ns(i), i, false);
        }
        // Packets 0 and 3 lost. Dup ACKs from 1, 2, 4.
        for seq in [1u64, 2, 4] {
            t.on_ack(Ns::from_millis(100 + seq), &ack(0, seq, Ns(seq)));
        }
        // Retransmit hole 0; hole 3 is next.
        if let SendPoll::Send {
            seq: 0,
            retransmit: true,
        } = t.poll_send(Ns::from_millis(110), false)
        {
            t.on_sent(Ns::from_millis(110), 0, true);
        } else {
            panic!("expected rtx of 0");
        }
        match t.poll_send(Ns::from_millis(111), false) {
            SendPoll::Send {
                seq: 3,
                retransmit: true,
            } => {
                t.on_sent(Ns::from_millis(111), 3, true);
            }
            other => panic!("expected rtx of 3, got {other:?}"),
        }
        // Partial ACK for the first hole: recovery continues.
        t.on_ack(Ns::from_millis(200), &ack(3, 0, Ns::from_millis(110)));
        assert_eq!(t.snd_una(), 3);
        // Full ACK after the second hole arrives.
        t.on_ack(Ns::from_millis(201), &ack(8, 3, Ns::from_millis(111)));
        assert!(t.all_acked());
    }

    #[test]
    fn timeout_rewinds_and_backs_off() {
        let mut t = transport(4.0);
        for i in 0..4 {
            t.on_sent(Ns(i), i, false);
        }
        let deadline = t.rto_deadline().expect("armed");
        let fired = t.on_rto_fire(deadline);
        assert!(fired);
        assert_eq!(t.stats.timeouts, 1);
        assert_eq!(t.in_flight(), 0, "pipe collapsed for go-back-N");
        match t.poll_send(deadline + Ns(1), true) {
            SendPoll::Send { seq: 0, .. } => {}
            other => panic!("expected resend of 0, got {other:?}"),
        }
    }

    #[test]
    fn rewind_skips_sequences_the_receiver_has() {
        let mut t = transport(8.0);
        for i in 0..5 {
            t.on_sent(Ns(i), i, false);
        }
        // Receiver got 1 and 3 (dup ACKs); 0, 2, 4 lost; RTO fires.
        t.on_ack(Ns::from_millis(10), &ack(0, 1, Ns(1)));
        t.on_ack(Ns::from_millis(11), &ack(0, 3, Ns(3)));
        let deadline = t.rto_deadline().unwrap();
        assert!(t.on_rto_fire(deadline + Ns::SECOND));
        let mut resent = Vec::new();
        while let SendPoll::Send { seq, retransmit } =
            t.poll_send(deadline + Ns::SECOND + Ns(resent.len() as u64 + 1), false)
        {
            assert!(retransmit);
            resent.push(seq);
            t.on_sent(Ns(deadline.0 + 1_000_000 + resent.len() as u64), seq, true);
        }
        assert_eq!(resent, vec![0, 2, 4], "delivered sequences skipped");
    }

    #[test]
    fn rewind_resends_without_fresh_traffic_budget() {
        let mut t = transport(8.0);
        for i in 0..5 {
            t.on_sent(Ns(i), i, false);
        }
        let deadline = t.rto_deadline().unwrap();
        assert!(t.on_rto_fire(deadline));
        let mut resent = Vec::new();
        for k in 0..5 {
            match t.poll_send(deadline + Ns(k + 1), false) {
                SendPoll::Send { seq, retransmit } => {
                    assert!(retransmit, "rewind resends are retransmissions");
                    resent.push(seq);
                    t.on_sent(deadline + Ns(k + 1), seq, retransmit);
                }
                other => panic!("expected resend #{k}, got {other:?}"),
            }
        }
        assert_eq!(resent, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.poll_send(deadline + Ns(100), false), SendPoll::Idle);
    }

    #[test]
    fn consecutive_timeouts_back_off_exponentially_to_the_cap() {
        // Audit of the RTO backoff law: each timeout doubles the RTO
        // (deadline gaps 2 s, 4 s, 8 s from the 1 s initial value), the
        // doubling caps at MAX_RTO, and a fresh RTT sample resets the
        // timer to the RFC 6298 estimate.
        let mut t = transport(4.0);
        t.on_sent(Ns::ZERO, 0, false);
        let d0 = t.rto_deadline().expect("armed on first send");
        assert_eq!(d0, Ns::SECOND, "initial RTO is 1 s before any sample");

        // Each episode: the timer fires, the engine's try_send resends the
        // rewound packet (which is then lost again), and the next deadline
        // must sit one doubled RTO after the fire.
        let fire_and_resend = |t: &mut Transport, deadline: Ns| -> Ns {
            assert!(t.on_rto_fire(deadline), "timeout taken");
            match t.poll_send(deadline + Ns(1), false) {
                SendPoll::Send {
                    seq: 0,
                    retransmit: true,
                } => t.on_sent(deadline + Ns(1), 0, true),
                other => panic!("expected go-back-N resend, got {other:?}"),
            }
            t.rto_deadline().expect("re-armed")
        };

        // Three consecutive timeouts: deadlines at +2 s, +4 s, +8 s.
        let d1 = fire_and_resend(&mut t, d0);
        assert_eq!(d1 - d0, Ns::from_secs(2), "first backoff doubles to 2 s");
        let d2 = fire_and_resend(&mut t, d1);
        assert_eq!(d2 - d1, Ns::from_secs(4), "second backoff doubles to 4 s");
        let d3 = fire_and_resend(&mut t, d2);
        assert_eq!(d3 - d2, Ns::from_secs(8), "third backoff doubles to 8 s");
        assert_eq!(t.stats.timeouts, 3);

        // Keep timing out: the armed gap saturates at MAX_RTO, never past.
        let mut prev = d3;
        for _ in 0..6 {
            let d = fire_and_resend(&mut t, prev);
            assert!(d - prev <= MAX_RTO, "RTO capped at MAX_RTO");
            prev = d;
        }
        let before_cap = prev;
        let d = fire_and_resend(&mut t, prev);
        assert_eq!(d - before_cap, MAX_RTO, "backoff pinned at the cap");

        // Recovery: the last resend (sent at before_cap + 1 ns) finally
        // gets through and is ACKed with a 100 ms RTT sample; the next
        // armed deadline must use the sample-driven RTO
        // (srtt + 4·rttvar = 300 ms), not the backed-off 60 s.
        let resend_at = before_cap + Ns(1);
        let ack_at = resend_at + Ns::from_millis(100);
        t.on_ack(ack_at, &ack(1, 0, resend_at));
        t.on_sent(ack_at + Ns(1), 1, false);
        let d_new = t.rto_deadline().expect("armed for new data");
        assert_eq!(
            d_new - (ack_at + Ns(1)),
            Ns::from_millis(300),
            "a new RTT sample resets the backed-off RTO"
        );
    }

    #[test]
    fn a_timer_before_the_live_deadline_is_refused() {
        let mut t = transport(4.0);
        t.on_sent(Ns::ZERO, 0, false);
        let deadline = t.rto_deadline().expect("armed");
        assert!(!t.on_rto_fire(deadline - Ns(1)));
        assert_eq!(t.stats.timeouts, 0);
        assert!(t.on_rto_fire(deadline), "the live deadline takes it");
        assert_eq!(t.stats.timeouts, 1);
    }

    #[test]
    fn rtt_estimation_tracks_samples() {
        let mut t = transport(10.0);
        t.on_sent(Ns::ZERO, 0, false);
        t.on_ack(Ns::from_millis(100), &ack(1, 0, Ns::ZERO));
        assert_eq!(t.min_rtt(), Ns::from_millis(100));
        t.on_sent(Ns::from_millis(100), 1, false);
        t.on_ack(Ns::from_millis(180), &ack(2, 1, Ns::from_millis(100)));
        assert_eq!(t.min_rtt(), Ns::from_millis(80));
    }

    #[test]
    fn pacing_defers_transmission() {
        let cc = FixedWindow::new(10.0).with_pacing(Ns::from_millis(5));
        let mut t = Transport::new(Box::new(cc));
        t.start_connection(Ns::ZERO);
        if let SendPoll::Send { seq, .. } = t.poll_send(Ns::ZERO, true) {
            t.on_sent(Ns::ZERO, seq, false);
        } else {
            panic!("first send must pass");
        }
        match t.poll_send(Ns::from_millis(1), true) {
            SendPoll::Paced { until } => assert_eq!(until, Ns::from_millis(5)),
            other => panic!("expected paced, got {other:?}"),
        }
        assert!(matches!(
            t.poll_send(Ns::from_millis(5), true),
            SendPoll::Send { .. }
        ));
    }

    #[test]
    fn start_connection_resets_estimators_but_not_seqs() {
        let mut t = transport(10.0);
        t.on_sent(Ns::ZERO, 0, false);
        t.on_ack(Ns::from_millis(100), &ack(1, 0, Ns::ZERO));
        assert_eq!(t.min_rtt(), Ns::from_millis(100));
        t.start_connection(Ns::from_secs(2));
        assert_eq!(t.min_rtt(), Ns::MAX, "estimators reset");
        assert_eq!(t.next_seq(), 1, "sequence space continues");
    }

    #[test]
    fn new_data_flows_during_recovery_as_pipe_deflates() {
        let mut t = transport(4.0);
        for i in 0..4 {
            t.on_sent(Ns(i), i, false);
        }
        // Window full (pipe 4 = cwnd 4). Dup ACKs deflate the pipe.
        for k in 1..=3 {
            t.on_ack(Ns::from_millis(k), &ack(0, k, Ns(k)));
        }
        // pipe = 4 − 3 sacked = 1 < 4: hole 0 goes first…
        if let SendPoll::Send {
            seq: 0,
            retransmit: true,
        } = t.poll_send(Ns::from_millis(10), true)
        {
            t.on_sent(Ns::from_millis(10), 0, true);
        } else {
            panic!();
        }
        // …then pipe = 2 < 4 admits new data.
        match t.poll_send(Ns::from_millis(12), true) {
            SendPoll::Send {
                seq: 4,
                retransmit: false,
            } => {}
            other => panic!("expected new data during recovery, got {other:?}"),
        }
    }
}
