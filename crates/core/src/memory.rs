//! The RemyCC memory: the three congestion signals of §4.1.
//!
//! A RemyCC tracks exactly three state variables, updated on each ACK:
//!
//! 1. `ack_ewma` — an EWMA of the interarrival time between new ACKs;
//! 2. `send_ewma` — an EWMA of the spacing between the *sender timestamps*
//!    echoed in those ACKs (the spacing at which the acknowledged packets
//!    were transmitted);
//! 3. `rtt_ratio` — the most recent RTT over the connection's minimum RTT.
//!
//! Both EWMAs give weight 1/8 to the new sample. Deliberately absent are
//! packet loss and the raw RTT: loss-freeness lets RemyCCs ride out
//! stochastic loss, and using the RTT *ratio* prevents the optimizer from
//! learning RTT-specific behaviours (§4.1).

use netsim::time::Ns;

// The `Memory` point type itself still lives in `netsim::cc` (see its doc
// for why); the tracking logic below is what makes it a RemyCC.
pub use netsim::cc::{Memory, MEMORY_MAX};

/// EWMA gain for new samples.
pub const EWMA_GAIN: f64 = 1.0 / 8.0;

/// Tracks the raw signals and folds ACKs into a [`Memory`].
#[derive(Clone, Debug, Default)]
pub struct MemoryTracker {
    mem: Memory,
    last_ack_arrival: Option<Ns>,
    last_echo: Option<Ns>,
    /// The minimum RTT the last ratio was taken against, and
    /// `min_rtt.as_secs_f64()`: the minimum changes on few ACKs, so the
    /// conversion is redone only when it does.
    min_rtt: Ns,
    min_rtt_secs: f64,
}

impl MemoryTracker {
    /// Fresh tracker in the initial state.
    pub fn new() -> MemoryTracker {
        MemoryTracker {
            mem: Memory::INITIAL,
            last_ack_arrival: None,
            last_echo: None,
            min_rtt: Ns::ZERO,
            min_rtt_secs: 0.0,
        }
    }

    /// Reset to the all-zeroes state (a new "on" period: RemyCCs "do not
    /// keep state from one on period to the next", §4.1).
    pub fn reset(&mut self) {
        *self = MemoryTracker::new();
    }

    /// Fold one acknowledgment into the memory.
    ///
    /// `now` is the ACK's arrival time, `echo_ts` the echoed sender
    /// timestamp, `rtt_sample`/`min_rtt` the transport's RTT tracking.
    pub fn on_ack(&mut self, now: Ns, echo_ts: Ns, rtt_sample: Ns, min_rtt: Ns) -> Memory {
        if let Some(last) = self.last_ack_arrival {
            let gap = now.saturating_sub(last).as_millis_f64();
            self.mem.ack_ewma_ms += EWMA_GAIN * (gap - self.mem.ack_ewma_ms);
        }
        self.last_ack_arrival = Some(now);

        if let Some(last) = self.last_echo {
            let gap = echo_ts.saturating_sub(last).as_millis_f64();
            self.mem.send_ewma_ms += EWMA_GAIN * (gap - self.mem.send_ewma_ms);
        }
        self.last_echo = Some(echo_ts);

        if !min_rtt.is_zero() && min_rtt != Ns::MAX {
            if min_rtt != self.min_rtt {
                self.min_rtt = min_rtt;
                self.min_rtt_secs = min_rtt.as_secs_f64();
            }
            self.mem.rtt_ratio = rtt_sample.as_secs_f64() / self.min_rtt_secs;
        }
        self.mem = self.mem.clamped();
        self.mem
    }

    /// Current memory value.
    pub fn memory(&self) -> Memory {
        self.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_zero() {
        let t = MemoryTracker::new();
        assert_eq!(t.memory(), Memory::INITIAL);
    }

    #[test]
    fn first_ack_sets_only_rtt_ratio() {
        let mut t = MemoryTracker::new();
        let m = t.on_ack(
            Ns::from_millis(150),
            Ns::ZERO,
            Ns::from_millis(150),
            Ns::from_millis(150),
        );
        assert_eq!(m.ack_ewma_ms, 0.0, "no interarrival yet");
        assert_eq!(m.send_ewma_ms, 0.0);
        assert!((m.rtt_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_converges_to_steady_gap() {
        let mut t = MemoryTracker::new();
        // ACKs every 10 ms, echoes every 10 ms.
        let mut m = Memory::INITIAL;
        for k in 0..200u64 {
            m = t.on_ack(
                Ns::from_millis(100 + 10 * k),
                Ns::from_millis(10 * k),
                Ns::from_millis(100),
                Ns::from_millis(100),
            );
        }
        assert!(
            (m.ack_ewma_ms - 10.0).abs() < 0.01,
            "ack_ewma {}",
            m.ack_ewma_ms
        );
        assert!((m.send_ewma_ms - 10.0).abs() < 0.01);
    }

    #[test]
    fn ewma_weight_is_one_eighth() {
        let mut t = MemoryTracker::new();
        t.on_ack(
            Ns::from_millis(0),
            Ns::ZERO,
            Ns::from_millis(100),
            Ns::from_millis(100),
        );
        // Second ack 8 ms later: ewma = 0 + (8 − 0)/8 = 1.0.
        let m = t.on_ack(
            Ns::from_millis(8),
            Ns::from_millis(1),
            Ns::from_millis(100),
            Ns::from_millis(100),
        );
        assert!((m.ack_ewma_ms - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rtt_ratio_tracks_queue_growth() {
        let mut t = MemoryTracker::new();
        let m = t.on_ack(
            Ns::from_millis(100),
            Ns::ZERO,
            Ns::from_millis(300),
            Ns::from_millis(100),
        );
        assert!((m.rtt_ratio - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reset_forgets_everything() {
        let mut t = MemoryTracker::new();
        t.on_ack(
            Ns::from_millis(100),
            Ns::ZERO,
            Ns::from_millis(100),
            Ns::from_millis(100),
        );
        t.on_ack(
            Ns::from_millis(120),
            Ns::from_millis(10),
            Ns::from_millis(110),
            Ns::from_millis(100),
        );
        t.reset();
        assert_eq!(t.memory(), Memory::INITIAL);
    }

    #[test]
    fn memory_clamps_to_domain() {
        let m = Memory {
            ack_ewma_ms: 1e9,
            send_ewma_ms: -5.0,
            rtt_ratio: 20_000.0,
        }
        .clamped();
        assert_eq!(m.ack_ewma_ms, MEMORY_MAX);
        assert_eq!(m.send_ewma_ms, 0.0);
        assert_eq!(m.rtt_ratio, MEMORY_MAX);
    }

    #[test]
    fn axis_accessors_roundtrip() {
        let mut m = Memory::INITIAL;
        *m.axis_mut(0) = 1.0;
        *m.axis_mut(1) = 2.0;
        *m.axis_mut(2) = 3.0;
        assert_eq!((m.axis(0), m.axis(1), m.axis(2)), (1.0, 2.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "3 axes")]
    fn axis_out_of_range_panics() {
        let _ = Memory::INITIAL.axis(3);
    }
}
