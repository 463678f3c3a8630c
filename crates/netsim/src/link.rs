//! Bottleneck link models.
//!
//! Two service models cover every experiment in the paper:
//!
//! * [`LinkSpec::Constant`] — a fixed-rate link: each packet occupies the
//!   link for `size * 8 / rate` seconds (the dumbbell and datacenter
//!   experiments).
//! * [`LinkSpec::Trace`] — a trace-driven link: the link may release one
//!   packet at each instant recorded in a delivery schedule, exactly the
//!   paper's cellular methodology ("queueing packets until they are
//!   released to the receiver at the same time they were released in the
//!   trace", §5.1). The schedule loops when the simulation outlasts it.

use crate::time::Ns;
use std::sync::Arc;

/// Declarative link configuration.
#[derive(Clone, Debug)]
pub enum LinkSpec {
    /// Fixed-rate link.
    Constant {
        /// Rate in megabits per second.
        rate_mbps: f64,
    },
    /// Trace-driven link: one delivery opportunity per instant in
    /// `schedule` (strictly increasing). When the simulation runs past the
    /// end, the schedule repeats with period `schedule.last() + tail_gap`.
    Trace {
        /// The delivery-opportunity schedule.
        schedule: Arc<DeliverySchedule>,
        /// Descriptive name for reports (e.g. "verizon-lte-down").
        name: String,
    },
}

impl LinkSpec {
    /// A fixed-rate link.
    pub fn constant(rate_mbps: f64) -> LinkSpec {
        assert!(rate_mbps > 0.0, "link rate must be positive");
        LinkSpec::Constant { rate_mbps }
    }

    /// A trace-driven link from a delivery schedule.
    pub fn trace(name: impl Into<String>, schedule: DeliverySchedule) -> LinkSpec {
        LinkSpec::Trace {
            schedule: Arc::new(schedule),
            name: name.into(),
        }
    }

    /// The long-term average rate in Mbps, assuming `mss`-byte packets.
    /// For constant links this is exact; for traces it is the mean delivery
    /// rate over one full period. XCP is configured with this value (the
    /// paper supplies XCP "the long-term average link speed" on traces).
    pub fn average_rate_mbps(&self, mss: u32) -> f64 {
        match self {
            LinkSpec::Constant { rate_mbps } => *rate_mbps,
            LinkSpec::Trace { schedule, .. } => {
                let n = schedule.instants.len() as f64;
                let period = schedule.period().as_secs_f64();
                if period <= 0.0 {
                    0.0
                } else {
                    n * mss as f64 * 8.0 / period / 1e6
                }
            }
        }
    }

    /// Capacity this link actually offers over `(0, window]`, in bits,
    /// assuming `mss`-byte packets. For a constant link this is
    /// `rate × window`; for a trace it is the number of delivery
    /// opportunities the schedule presents in that window times the packet
    /// size — the correct utilization denominator for trace-driven links,
    /// whose instantaneous rate bears little relation to the long-term
    /// average.
    pub fn delivered_capacity_bits(&self, mss: u32, window: Ns) -> f64 {
        match self {
            LinkSpec::Constant { rate_mbps } => rate_mbps * 1e6 * window.as_secs_f64(),
            LinkSpec::Trace { schedule, .. } => {
                schedule.opportunities_through(window) as f64 * mss as f64 * 8.0
            }
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            LinkSpec::Constant { rate_mbps } => format!("{rate_mbps} Mbps"),
            LinkSpec::Trace { name, .. } => name.clone(),
        }
    }
}

/// A strictly-increasing list of packet-delivery instants.
#[derive(Clone, Debug, Default)]
pub struct DeliverySchedule {
    instants: Vec<Ns>,
    /// Gap appended after the final instant before the schedule repeats.
    tail_gap: Ns,
}

impl DeliverySchedule {
    /// Build a schedule from delivery instants. The list must be
    /// non-empty and strictly increasing. `tail_gap` is the idle time
    /// between the last instant and the start of the next repetition; a
    /// reasonable choice is the mean inter-delivery gap.
    pub fn new(instants: Vec<Ns>, tail_gap: Ns) -> DeliverySchedule {
        assert!(!instants.is_empty(), "empty delivery schedule");
        // A t=0 instant would be unreachable (the engine takes the first
        // slot strictly after time 0) and would break the opportunity
        // count and the cached cursor's periodic unrolling.
        assert!(
            instants[0] > Ns::ZERO,
            "delivery instants must be strictly positive"
        );
        for w in instants.windows(2) {
            assert!(w[0] < w[1], "delivery instants must strictly increase");
        }
        DeliverySchedule { instants, tail_gap }
    }

    /// The repetition period.
    pub fn period(&self) -> Ns {
        // lint:allow(p1-sim-unwrap): the constructor asserts a non-empty
        // instants list, and the schedule is immutable after that.
        *self.instants.last().expect("non-empty") + self.tail_gap
    }

    /// Number of delivery opportunities per period.
    pub fn len(&self) -> usize {
        self.instants.len()
    }

    /// True if the schedule holds no instants (never constructed this way).
    pub fn is_empty(&self) -> bool {
        self.instants.is_empty()
    }

    /// Number of delivery opportunities in `(0, window]`, unrolling the
    /// schedule periodically — exactly the opportunities a simulation of
    /// duration `window` presents to the queue (the engine processes trace
    /// slots up to and including the horizon). This is the denominator of
    /// trace-link utilization: the capacity the schedule actually
    /// delivered over the measured window, as opposed to a nominal
    /// constant rate.
    pub fn opportunities_through(&self, window: Ns) -> u64 {
        let period = self.period().0;
        debug_assert!(period > 0);
        let full_cycles = window.0 / period;
        let rem = Ns(window.0 % period);
        // Instants are strictly positive within a cycle, so a full cycle
        // contributes every instant; the partial tail contributes those
        // at or before the remainder offset.
        let in_tail = self.instants.partition_point(|t| *t <= rem) as u64;
        full_cycles * self.instants.len() as u64 + in_tail
    }

    /// The first delivery opportunity strictly after `now`, unrolling the
    /// schedule periodically.
    pub fn next_after(&self, now: Ns) -> Ns {
        let (cycle, idx) = self.locate_after(now);
        self.at(cycle, idx)
    }

    /// Like [`DeliverySchedule::next_after`], but O(1) when the queries
    /// are sequential — the common case in the simulator, where each trace
    /// slot asks for the opportunity after itself. The cursor caches the
    /// last answer; any non-sequential query falls back to the binary
    /// search and re-syncs, so results are identical by construction.
    pub fn next_after_cached(&self, cursor: &mut TraceCursor, now: Ns) -> Ns {
        if cursor.valid && cursor.last == now {
            let (cycle, idx) = if cursor.idx + 1 < self.instants.len() {
                (cursor.cycle, cursor.idx + 1)
            } else {
                (cursor.cycle + 1, 0)
            };
            let at = self.at(cycle, idx);
            *cursor = TraceCursor {
                last: at,
                cycle,
                idx,
                valid: true,
            };
            return at;
        }
        let (cycle, idx) = self.locate_after(now);
        let at = self.at(cycle, idx);
        *cursor = TraceCursor {
            last: at,
            cycle,
            idx,
            valid: true,
        };
        at
    }

    /// Absolute time of instant `idx` in repetition `cycle`.
    #[inline]
    fn at(&self, cycle: u64, idx: usize) -> Ns {
        Ns(cycle * self.period().0 + self.instants[idx].0)
    }

    /// (cycle, index) of the first opportunity strictly after `now`.
    fn locate_after(&self, now: Ns) -> (u64, usize) {
        let period = self.period();
        debug_assert!(period.0 > 0);
        let cycle = now.0 / period.0;
        let offset = Ns(now.0 % period.0);
        // Find the first instant strictly greater than `offset`.
        match self.instants.binary_search_by(|t| {
            if *t <= offset {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        }) {
            // lint:allow(p2-sim-panic): the comparator above returns only
            // Less or Greater, so binary_search can never yield Ok.
            Ok(_) => unreachable!("comparator never returns Equal"),
            Err(idx) => {
                if idx < self.instants.len() {
                    (cycle, idx)
                } else {
                    // Wrap into the next cycle.
                    (cycle + 1, 0)
                }
            }
        }
    }
}

/// Sequential-query cache for [`DeliverySchedule::next_after_cached`]:
/// remembers the (cycle, index) of the last answer so the chained
/// slot-after-slot queries of the event loop cost O(1) instead of a
/// binary search over the whole trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceCursor {
    last: Ns,
    cycle: u64,
    idx: usize,
    valid: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_link_average_rate() {
        let l = LinkSpec::constant(15.0);
        assert_eq!(l.average_rate_mbps(1500), 15.0);
        assert_eq!(l.label(), "15 Mbps");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn constant_link_rejects_zero_rate() {
        let _ = LinkSpec::constant(0.0);
    }

    #[test]
    fn schedule_next_after_basic() {
        let s = DeliverySchedule::new(
            vec![Ns(10), Ns(20), Ns(35)],
            Ns(5), // period = 40
        );
        assert_eq!(s.period(), Ns(40));
        assert_eq!(s.next_after(Ns(0)), Ns(10));
        assert_eq!(s.next_after(Ns(10)), Ns(20)); // strictly after
        assert_eq!(s.next_after(Ns(21)), Ns(35));
        // Wraps to next cycle: 40 + 10.
        assert_eq!(s.next_after(Ns(35)), Ns(50));
        assert_eq!(s.next_after(Ns(36)), Ns(50));
    }

    #[test]
    fn schedule_unrolls_many_cycles() {
        let s = DeliverySchedule::new(vec![Ns(1), Ns(3)], Ns(1)); // period 4
                                                                  // Cycle k delivers at 4k+1, 4k+3.
        assert_eq!(s.next_after(Ns(100)), Ns(101));
        assert_eq!(s.next_after(Ns(101)), Ns(103));
        assert_eq!(s.next_after(Ns(103)), Ns(105));
    }

    #[test]
    fn schedule_is_strictly_monotonic_generator() {
        let s = DeliverySchedule::new(vec![Ns(5), Ns(9), Ns(14)], Ns(2));
        let mut t = Ns::ZERO;
        let mut prev = Ns::ZERO;
        for _ in 0..100 {
            t = s.next_after(t);
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn schedule_rejects_unsorted() {
        let _ = DeliverySchedule::new(vec![Ns(5), Ns(5)], Ns(1));
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn schedule_rejects_a_zero_first_instant() {
        // A t=0 slot is unreachable (next_after is strictly-after) and
        // would make opportunities_through over-count by one per cycle.
        let _ = DeliverySchedule::new(vec![Ns(0), Ns(10)], Ns(5));
    }

    #[test]
    fn opportunities_count_unrolls_periodically() {
        let s = DeliverySchedule::new(vec![Ns(10), Ns(20), Ns(35)], Ns(5)); // period 40
        assert_eq!(s.opportunities_through(Ns(0)), 0);
        assert_eq!(s.opportunities_through(Ns(9)), 0);
        assert_eq!(s.opportunities_through(Ns(10)), 1, "boundary inclusive");
        assert_eq!(s.opportunities_through(Ns(35)), 3);
        assert_eq!(s.opportunities_through(Ns(39)), 3);
        assert_eq!(
            s.opportunities_through(Ns(40)),
            3,
            "tail gap holds no slots"
        );
        assert_eq!(s.opportunities_through(Ns(50)), 4);
        assert_eq!(s.opportunities_through(Ns(400)), 30, "10 full periods");
    }

    #[test]
    fn delivered_capacity_constant_vs_trace() {
        let c = LinkSpec::constant(12.0);
        // 12 Mbps × 1 s = 12 Mbit.
        assert!((c.delivered_capacity_bits(1500, Ns::SECOND) - 12e6).abs() < 1.0);
        // 3 opportunities per 40 ns period → over 400 ns: 30 × 1500 B.
        let t = LinkSpec::trace(
            "t",
            DeliverySchedule::new(vec![Ns(10), Ns(20), Ns(35)], Ns(5)),
        );
        assert_eq!(
            t.delivered_capacity_bits(1500, Ns(400)),
            30.0 * 1500.0 * 8.0
        );
    }

    #[test]
    fn cached_next_after_matches_binary_search() {
        let s = DeliverySchedule::new(vec![Ns(7), Ns(19), Ns(23)], Ns(4)); // period 27
        let mut cursor = TraceCursor::default();
        // Sequential chain (the simulator's access pattern).
        let mut t = Ns::ZERO;
        for _ in 0..200 {
            let expect = s.next_after(t);
            assert_eq!(s.next_after_cached(&mut cursor, t), expect);
            t = expect;
        }
        // Non-sequential queries resync through the slow path.
        for probe in [Ns(0), Ns(100), Ns(26), Ns(1_000_003), Ns(12)] {
            assert_eq!(s.next_after_cached(&mut cursor, probe), s.next_after(probe));
        }
    }

    #[test]
    fn trace_average_rate() {
        // 4 deliveries of 1500 B over a 2 ms period = 4*12000 bits / 2 ms
        // = 24 Mbps.
        let s = DeliverySchedule::new(
            vec![
                Ns::from_micros(400),
                Ns::from_micros(900),
                Ns::from_micros(1400),
                Ns::from_micros(1900),
            ],
            Ns::from_micros(100),
        );
        let l = LinkSpec::trace("test", s);
        assert!((l.average_rate_mbps(1500) - 24.0).abs() < 1e-9);
    }
}
