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

// ---------------------------------------------------------------------------
// Table-driven-scheme signal state and usage statistics
// ---------------------------------------------------------------------------

/// Upper bound of every memory axis: "any values of the three state
/// variables (between 0 and 16,384)" (§4.3 of the paper).
pub const MEMORY_MAX: f64 = 16_384.0;

/// A point in the three-dimensional congestion-signal space a table-driven
/// scheme (the RemyCC) tracks: ACK-interarrival EWMA, echoed-send-spacing
/// EWMA, and the RTT over the connection minimum (§4.1 of the paper).
///
/// It lives here, next to [`CongestionControl`], because the trait's
/// [`CongestionControl::take_usage`] hook reports per-rule statistics in
/// terms of these points; the tracking logic that *produces* them stays in
/// the `remy` crate (`remy::memory::MemoryTracker`).
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

/// Maximum memory samples retained per rule for median estimation.
pub const MAX_SAMPLES: usize = 128;

/// Per-rule usage: hit counts (most-used selection) and memory samples
/// (median split points). A scheme built to record it hands it over
/// through [`CongestionControl::take_usage`].
#[derive(Clone, Debug, Default)]
pub struct Usage {
    counts: Vec<u64>,
    samples: Vec<Vec<Memory>>,
}

impl Usage {
    /// Table sized for rule ids `0..id_bound`.
    pub fn new(id_bound: usize) -> Usage {
        Usage {
            counts: vec![0; id_bound],
            samples: vec![Vec::new(); id_bound],
        }
    }

    /// Record one rule hit at the given memory point.
    pub fn record(&mut self, id: usize, m: Memory) {
        if id >= self.counts.len() {
            self.counts.resize(id + 1, 0);
            self.samples.resize(id + 1, Vec::new());
        }
        self.counts[id] += 1;
        let s = &mut self.samples[id];
        if s.len() < MAX_SAMPLES {
            s.push(m);
        } else {
            // Past the cap, every 7th hit overwrites slot `count % 128`.
            // 7 and 128 are coprime, so each slot is rewritten once per
            // 896 hits: the samples kept are the 1-in-7 hits among the
            // last ~896, not a spread over the whole run. ROADMAP item 13
            // ("split where §4.3 says") replaces this law with a uniform
            // reservoir.
            let k = (self.counts[id] as usize) % MAX_SAMPLES;
            if self.counts[id].is_multiple_of(7) {
                s[k] = m;
            }
        }
    }

    /// Hits for a rule.
    pub fn count(&self, id: usize) -> u64 {
        self.counts.get(id).copied().unwrap_or(0)
    }

    /// Fold another usage table into this one.
    pub fn merge(&mut self, other: &Usage) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
            self.samples.resize(other.counts.len(), Vec::new());
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
            let room = MAX_SAMPLES.saturating_sub(self.samples[i].len());
            self.samples[i].extend(other.samples[i].iter().take(room).copied());
        }
    }

    /// Component-wise median of the memory values that hit rule `id`
    /// (the split point of §4.3 step 5). `None` if the rule was never hit.
    pub fn median_memory(&self, id: usize) -> Option<Memory> {
        let s = self.samples.get(id)?;
        if s.is_empty() {
            return None;
        }
        let mut m = Memory::INITIAL;
        for i in 0..3 {
            let mut axis: Vec<f64> = s.iter().map(|x| x.axis(i)).collect();
            axis.sort_by(f64::total_cmp);
            let mid = axis.len() / 2;
            *m.axis_mut(i) = axis[mid];
        }
        Some(m)
    }

    /// Total hits across all rules.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
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
pub trait CongestionControl: Send {
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

    /// Drain the per-rule usage statistics accumulated during the run, if
    /// this instance was built to record any (only Remy's evaluator builds
    /// such RemyCCs, for the one pass that reads the result). Everything
    /// else keeps the default `None`.
    fn take_usage(&mut self) -> Option<Usage> {
        None
    }
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
    fn default_take_usage_is_none() {
        let mut cc = FixedWindow::new(10.0);
        assert!(
            cc.take_usage().is_none(),
            "non-table schemes report no usage"
        );
    }

    #[test]
    fn usage_records_merges_and_medians() {
        let mut a = Usage::new(2);
        a.record(
            0,
            Memory {
                ack_ewma_ms: 1.0,
                send_ewma_ms: 2.0,
                rtt_ratio: 1.5,
            },
        );
        a.record(
            0,
            Memory {
                ack_ewma_ms: 3.0,
                send_ewma_ms: 4.0,
                rtt_ratio: 2.5,
            },
        );
        let mut b = Usage::new(2);
        b.record(1, Memory::INITIAL);
        a.merge(&b);
        assert_eq!(a.count(0), 2);
        assert_eq!(a.count(1), 1);
        assert_eq!(a.total(), 3);
        let m = a.median_memory(0).expect("rule 0 was hit");
        assert_eq!(m.ack_ewma_ms, 3.0, "upper median of two samples");
        assert!(a.median_memory(5).is_none());
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
