//! The congestion-control interface.
//!
//! Every scheme in this repository — the human-designed baselines in the
//! `congestion` crate and the machine-designed RemyCC in the `remy` crate —
//! implements [`CongestionControl`]. The reliable transport
//! ([`crate::transport::Transport`]) owns one instance per flow, feeds it
//! ACK and loss events, and reads back a congestion window plus an optional
//! pacing gap.
//!
//! The split mirrors the paper's architecture: a RemyCC "runs as part of an
//! existing TCP sender implementation" and "inherits the loss-recovery
//! behavior of whatever TCP sender [it is] added to" (§4.1). Loss detection,
//! retransmission, and RTO management are the transport's job; the
//! congestion-control object only decides *how much* and *how fast* to send.

use crate::packet::XcpHeader;
use crate::time::Ns;
use std::any::Any;

// ---------------------------------------------------------------------------
// Table-driven-scheme signal state
// ---------------------------------------------------------------------------

/// Upper bound of every memory axis: "any values of the three state
/// variables (between 0 and 16,384)" (§4.3 of the paper).
pub const MEMORY_MAX: f64 = 16_384.0;

/// A point in the three-dimensional congestion-signal space a table-driven
/// scheme (the RemyCC) tracks: ACK-interarrival EWMA, echoed-send-spacing
/// EWMA, and the RTT over the connection minimum (§4.1 of the paper).
///
/// Only the `remy` crate uses it (`remy::memory` re-exports it beside the
/// `MemoryTracker` that produces it). It stays here because the benchmark
/// harness, built outside the workspace, still names it at this path;
/// ROADMAP item 12 moves it to `remy` together with that harness.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Memory {
    /// EWMA of ACK interarrival times, milliseconds.
    pub ack_ewma_ms: f64,
    /// EWMA of echoed send-timestamp spacings, milliseconds.
    pub send_ewma_ms: f64,
    /// Latest RTT divided by the connection's minimum RTT (≥ 1 once
    /// samples exist; 0 in the initial state).
    pub rtt_ratio: f64,
}

crate::record! {
    Memory { ack_ewma_ms: "ack_ewma_ms", send_ewma_ms: "send_ewma_ms", rtt_ratio: "rtt_ratio" }
}

impl Memory {
    /// The well-known all-zeroes initial state every flow starts in.
    pub const INITIAL: Memory = Memory {
        ack_ewma_ms: 0.0,
        send_ewma_ms: 0.0,
        rtt_ratio: 0.0,
    };

    /// Component access by axis index (0 = ack_ewma, 1 = send_ewma,
    /// 2 = rtt_ratio); the whisker tree treats memory as a 3-vector.
    #[inline]
    pub fn axis(&self, i: usize) -> f64 {
        match i {
            0 => self.ack_ewma_ms,
            1 => self.send_ewma_ms,
            2 => self.rtt_ratio,
            // lint:allow(p2-sim-panic): axis indices come from the
            // whisker tree's fixed 3-axis geometry; any other value is a
            // compile-time logic error, not a runtime condition.
            _ => panic!("memory has 3 axes, asked for {i}"),
        }
    }

    /// Mutable component access by axis index.
    #[inline]
    pub fn axis_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.ack_ewma_ms,
            1 => &mut self.send_ewma_ms,
            2 => &mut self.rtt_ratio,
            // lint:allow(p2-sim-panic): same fixed 3-axis invariant as
            // `axis`; an out-of-range index is a caller bug.
            _ => panic!("memory has 3 axes, asked for {i}"),
        }
    }

    /// Clamp every axis into the valid domain `[0, MEMORY_MAX]`. Runs
    /// twice per RemyCC ACK (tracker and lookup), from another crate.
    #[inline]
    pub fn clamped(self) -> Memory {
        Memory {
            ack_ewma_ms: self.ack_ewma_ms.clamp(0.0, MEMORY_MAX),
            send_ewma_ms: self.send_ewma_ms.clamp(0.0, MEMORY_MAX),
            rtt_ratio: self.rtt_ratio.clamp(0.0, MEMORY_MAX),
        }
    }
}

/// Everything a congestion-control module may consult when an ACK arrives.
#[derive(Clone, Copy, Debug)]
pub struct AckInfo {
    /// Sender clock at ACK arrival.
    pub now: Ns,
    /// RTT sample for the acknowledged packet (arrival − echoed send time).
    pub rtt_sample: Ns,
    /// Minimum RTT observed on this connection so far (includes this sample).
    pub min_rtt: Ns,
    /// Smoothed RTT maintained by the transport (RFC 6298 style).
    pub srtt: Ns,
    /// The echoed sender timestamp of the packet that triggered this ACK.
    pub echo_ts: Ns,
    /// Sequence of the packet that triggered this ACK.
    pub seq: u64,
    /// How many previously-unacknowledged packets this ACK newly covers
    /// (0 for a duplicate ACK).
    pub newly_acked: u64,
    /// Packets currently in flight, after accounting for this ACK.
    pub in_flight: u64,
    /// True if the transport is in fast-recovery.
    pub in_recovery: bool,
    /// True if the delivered packet carried an ECN CE mark (DCTCP).
    pub ecn_echo: bool,
    /// XCP per-packet feedback echoed by the receiver, in packets.
    pub xcp_feedback: Option<f64>,
}

/// Why the transport believes a packet was lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossEvent {
    /// Three duplicate ACKs — fast retransmit. The network is still
    /// delivering packets; a moderate reduction is appropriate.
    FastRetransmit,
    /// Retransmission timeout — the ACK clock stalled entirely.
    Timeout,
}

/// A congestion-control algorithm driven by per-ACK events.
///
/// Implementations must be deterministic functions of the event stream they
/// observe; the simulator relies on this for reproducibility and Remy's
/// design procedure relies on it for common-random-number comparisons.
/// Through the `Any` supertrait, whoever built a sender can take its
/// concrete type back after [`crate::sim::Simulator::run_returning_ccs`]
/// (Remy's evaluator reads its recording RemyCCs' rule usage that way).
pub trait CongestionControl: Any + Send {
    /// A new "on" period (connection) is starting. Reset any per-connection
    /// state. RemyCCs reset their memory to the all-zeroes initial state
    /// here (§4.1); TCP schemes return to slow start.
    fn on_flow_start(&mut self, now: Ns);

    /// An acknowledgment arrived.
    fn on_ack(&mut self, info: &AckInfo);

    /// The transport inferred a loss.
    fn on_loss(&mut self, now: Ns, event: LossEvent);

    /// Current congestion window, in packets. May be fractional; the
    /// transport sends while `in_flight < floor-or-probe(cwnd)`.
    fn cwnd(&self) -> f64;

    /// Minimum spacing between consecutive transmissions (a rate pacer).
    /// `Ns::ZERO` disables pacing. RemyCC actions set this via their `r`
    /// component; most TCP baselines leave it at zero.
    fn pacing(&self) -> Ns {
        Ns::ZERO
    }

    /// For XCP senders: the congestion header to stamp on an outgoing
    /// packet. `None` for every other scheme.
    fn xcp_header(&self) -> Option<XcpHeader> {
        None
    }

    /// Whether outgoing packets should advertise ECN capability.
    fn ecn_capable(&self) -> bool {
        false
    }

    /// Human-readable scheme name for reports.
    fn name(&self) -> &str;
}

/// A trivial fixed-window scheme, useful for tests and for measuring the
/// raw capacity of a simulated path (it behaves like a window-clamped
/// greedy sender with no congestion response).
#[derive(Clone, Debug)]
pub struct FixedWindow {
    window: f64,
    pacing: Ns,
}

impl FixedWindow {
    /// A sender that keeps exactly `window` packets in flight.
    pub fn new(window: f64) -> FixedWindow {
        FixedWindow {
            window,
            pacing: Ns::ZERO,
        }
    }

    /// Add a fixed pacing gap between transmissions.
    pub fn with_pacing(mut self, gap: Ns) -> FixedWindow {
        self.pacing = gap;
        self
    }
}

impl CongestionControl for FixedWindow {
    fn on_flow_start(&mut self, _now: Ns) {}
    fn on_ack(&mut self, _info: &AckInfo) {}
    fn on_loss(&mut self, _now: Ns, _event: LossEvent) {}

    fn cwnd(&self) -> f64 {
        self.window
    }

    fn pacing(&self) -> Ns {
        self.pacing
    }

    fn name(&self) -> &str {
        "FixedWindow"
    }
}

/// Factory for congestion-control instances: one simulation needs one
/// instance per flow, and experiment harnesses need to construct many
/// simulations, so schemes are passed around as factories.
pub type CcFactory = Box<dyn Fn(usize) -> Box<dyn CongestionControl> + Send + Sync>;

/// Convenience: build a [`CcFactory`] from a closure returning a concrete
/// scheme.
pub fn factory<C, F>(f: F) -> CcFactory
where
    C: CongestionControl + 'static,
    F: Fn(usize) -> C + Send + Sync + 'static,
{
    Box::new(move |id| Box::new(f(id)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_window_is_inert() {
        let mut cc = FixedWindow::new(10.0).with_pacing(Ns::from_millis(2));
        cc.on_flow_start(Ns::ZERO);
        cc.on_loss(Ns::ZERO, LossEvent::Timeout);
        assert_eq!(cc.cwnd(), 10.0);
        assert_eq!(cc.pacing(), Ns::from_millis(2));
        assert!(cc.xcp_header().is_none());
        assert!(!cc.ecn_capable());
    }

    #[test]
    fn memory_clamps_into_domain() {
        let m = Memory {
            ack_ewma_ms: -1.0,
            send_ewma_ms: 1e9,
            rtt_ratio: 2.0,
        }
        .clamped();
        assert_eq!(m.ack_ewma_ms, 0.0);
        assert_eq!(m.send_ewma_ms, MEMORY_MAX);
        assert_eq!(m.rtt_ratio, 2.0);
    }

    #[test]
    fn factory_builds_boxed_instances() {
        let f = factory(|_id| FixedWindow::new(4.0));
        let cc = f(0);
        assert_eq!(cc.cwnd(), 4.0);
        assert_eq!(cc.name(), "FixedWindow");
    }
}
