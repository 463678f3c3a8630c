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
        // A t=0 instant would make a fresh `TraceWalk` fire a slot at
        // t = 0, which `opportunities_through` — counting `(0, window]` —
        // leaves out of the utilization denominator.
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

    /// The opportunity `walk` stands on; `walk` moves on to the one
    /// after it, in O(1). A fresh walk stands on the first instant of the
    /// first period, so stepping it from the start yields every delivery
    /// opportunity in time order, unrolling the schedule periodically —
    /// the order in which a trace link's slots fire. The k-th step
    /// returns the first instant `t` with `opportunities_through(t) == k`.
    pub fn step(&self, walk: &mut TraceWalk) -> Ns {
        let at = Ns(walk.cycle * self.period().0 + self.instants[walk.idx].0);
        walk.idx += 1;
        if walk.idx == self.instants.len() {
            walk.cycle += 1;
            walk.idx = 0;
        }
        at
    }
}

/// A position in a [`DeliverySchedule`] unrolled over time, moved forward
/// by [`DeliverySchedule::step`] — the one way a schedule is walked; the
/// default stands on the first opportunity.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceWalk {
    cycle: u64,
    idx: usize,
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

    /// The first `n` instants a fresh walk yields.
    fn walk(s: &DeliverySchedule, n: usize) -> Vec<Ns> {
        let mut w = TraceWalk::default();
        (0..n).map(|_| s.step(&mut w)).collect()
    }

    #[test]
    fn schedule_walk_basic() {
        let s = DeliverySchedule::new(
            vec![Ns(10), Ns(20), Ns(35)],
            Ns(5), // period = 40
        );
        assert_eq!(s.period(), Ns(40));
        // Wraps to the next cycle after 35: 40 + 10.
        assert_eq!(walk(&s, 5), [10, 20, 35, 50, 60].map(Ns));
    }

    #[test]
    fn schedule_unrolls_many_cycles() {
        let s = DeliverySchedule::new(vec![Ns(1), Ns(3)], Ns(1)); // period 4
                                                                  // Cycle k delivers at 4k+1, 4k+3.
        assert_eq!(walk(&s, 53)[50..], [101, 103, 105].map(Ns));
    }

    #[test]
    fn schedule_is_strictly_monotonic_generator() {
        let s = DeliverySchedule::new(vec![Ns(5), Ns(9), Ns(14)], Ns(2));
        let at = walk(&s, 100);
        assert!(at[0] > Ns::ZERO);
        assert!(at.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn schedule_rejects_unsorted() {
        let _ = DeliverySchedule::new(vec![Ns(5), Ns(5)], Ns(1));
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn schedule_rejects_a_zero_first_instant() {
        // A t=0 slot would fire at t = 0, outside the `(0, window]`
        // that opportunities_through counts.
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
    fn walk_matches_the_opportunity_count() {
        // The k-th instant of a fresh walk is where the closed-form count
        // reaches k: it counts the instant itself, and not one nanosecond
        // earlier — across the wrap into each of several periods.
        let s = DeliverySchedule::new(vec![Ns(7), Ns(19), Ns(23)], Ns(4)); // period 27
        let at = walk(&s, 3 * 5);
        for (k, t) in (1..).zip(&at) {
            assert_eq!(s.opportunities_through(*t), k, "at {t:?}");
            assert_eq!(s.opportunities_through(Ns(t.0 - 1)), k - 1, "before {t:?}");
        }
        assert_eq!(at[14], Ns(4 * 27 + 23), "five periods walked");
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
