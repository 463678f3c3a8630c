//! Per-flow measurement, following the paper's definitions (§5.1).
//!
//! Throughput of a sender that is active during on-intervals `t1, t2, …`
//! receiving `s1, s2, …` bytes is `Σ si / Σ ti`. Queueing delay is the
//! average per-packet delay in excess of the minimum (time spent waiting
//! in the bottleneck queue). We also track the average RTT, which the
//! objective function's delay term uses. Every measure is a running sum:
//! a flow keeps no per-period or per-packet record. Link utilization
//! ([`SimResults::utilization`]) is delivered bits over the capacity the
//! link offered during the run — one formula for constant-rate and
//! trace-driven links.

use crate::link::LinkSpec;
use crate::time::Ns;

/// Running measurements for a single flow.
///
/// The paper's throughput needs only two sums over a sender's on-periods,
/// so those are all that is kept: closed on-time and delivered bytes, plus
/// the start of the open period, if any.
#[derive(Clone, Debug, Default)]
pub struct FlowMetrics {
    /// Start of the open on-period.
    on_since: Option<Ns>,
    /// Summed length of the closed on-periods, nanoseconds.
    closed_on_ns: u64,
    /// On-periods started.
    n_intervals: usize,
    /// New bytes delivered, over every on-period.
    bytes: u64,
    /// Packets delivered to the receiver (new data only).
    pub packets_delivered: u64,
    /// Duplicate deliveries (spurious retransmissions observed).
    pub duplicate_deliveries: u64,
    queue_delay_sum_s: f64,
    queue_delay_count: u64,
    rtt_sum_s: f64,
    rtt_count: u64,
}

impl FlowMetrics {
    /// A new on-interval began.
    pub fn start_interval(&mut self, now: Ns) {
        debug_assert!(self.on_since.is_none());
        self.on_since = Some(now);
        self.n_intervals += 1;
    }

    /// The current on-interval ended.
    pub fn end_interval(&mut self, now: Ns) {
        if let Some(start) = self.on_since.take() {
            self.closed_on_ns += now.saturating_sub(start).0;
        }
    }

    /// Credit delivered bytes: to the open interval if one exists,
    /// otherwise to the most recent one (late deliveries while draining).
    ///
    /// The sender only transmits while on, so at least one interval must
    /// exist by the time anything is delivered; crediting into the void
    /// would be a bookkeeping bug.
    pub fn credit_bytes(&mut self, bytes: u64) {
        debug_assert!(
            self.n_intervals > 0,
            "bytes delivered before the first on-interval"
        );
        self.bytes += bytes;
    }

    /// Reset for a new flow lifetime in the same slot (churn respawn).
    pub fn reset(&mut self) {
        *self = FlowMetrics::default();
    }

    /// Record one packet's bottleneck queueing delay.
    pub fn record_queue_delay(&mut self, d: Ns) {
        self.queue_delay_sum_s += d.as_secs_f64();
        self.queue_delay_count += 1;
    }

    /// Record one RTT sample observed at the sender.
    pub fn record_rtt(&mut self, rtt: Ns) {
        self.rtt_sum_s += rtt.as_secs_f64();
        self.rtt_count += 1;
    }

    /// Total on-time, capping the open interval at the simulation end.
    pub fn on_time(&self, sim_end: Ns) -> Ns {
        let open = self
            .on_since
            .map_or(0, |start| sim_end.saturating_sub(start).0);
        Ns(self.closed_on_ns + open)
    }

    /// Total new bytes delivered.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Summarize at simulation end.
    pub fn summarize(&self, sim_end: Ns) -> FlowSummary {
        let on = self.on_time(sim_end).as_secs_f64();
        let bytes = self.bytes;
        FlowSummary {
            throughput_mbps: if on > 0.0 {
                bytes as f64 * 8.0 / on / 1e6
            } else {
                0.0
            },
            on_secs: on,
            bytes,
            packets_delivered: self.packets_delivered,
            duplicate_deliveries: self.duplicate_deliveries,
            mean_queue_delay_ms: if self.queue_delay_count > 0 {
                self.queue_delay_sum_s / self.queue_delay_count as f64 * 1e3
            } else {
                0.0
            },
            mean_rtt_ms: if self.rtt_count > 0 {
                self.rtt_sum_s / self.rtt_count as f64 * 1e3
            } else {
                0.0
            },
            rtt_samples: self.rtt_count,
            n_intervals: self.n_intervals,
        }
    }
}

/// Final per-flow results of one simulation run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowSummary {
    /// `Σ si / Σ ti`, in Mbps.
    pub throughput_mbps: f64,
    /// Total on-time in seconds.
    pub on_secs: f64,
    /// Total new bytes delivered.
    pub bytes: u64,
    /// New packets delivered.
    pub packets_delivered: u64,
    /// Duplicate deliveries seen at the receiver.
    pub duplicate_deliveries: u64,
    /// Mean per-packet queueing delay, milliseconds: each data packet's
    /// waits are summed over every queue on its forward path (the single
    /// bottleneck queue on the dumbbell) and recorded once, at its
    /// final hop. ACK queueing on a congested return path is not included
    /// here — it shows up in `mean_rtt_ms`.
    pub mean_queue_delay_ms: f64,
    /// Mean sender-observed RTT, milliseconds.
    pub mean_rtt_ms: f64,
    /// Number of RTT samples behind `mean_rtt_ms`. Lets harnesses
    /// difference two runs' RTT sums (e.g. a failure-time prefix run
    /// against the full run) to isolate a post-event window.
    pub rtt_samples: u64,
    /// Number of on-intervals (flows) this sender ran.
    pub n_intervals: usize,
}

impl FlowSummary {
    /// True if this sender was ever active (summaries of never-on senders
    /// are excluded from medians, as in the paper's per-sender statistics).
    pub fn was_active(&self) -> bool {
        self.on_secs > 0.0
    }
}

/// One delivery record for sequence plots (Fig. 6).
#[derive(Clone, Copy, Debug)]
pub struct DeliveryRecord {
    /// Receiver clock at delivery.
    pub at: Ns,
    /// Flow the packet belonged to.
    pub flow: usize,
    /// Delivered sequence number.
    pub seq: u64,
}

/// Population-level statistics for dynamically arriving (churn) flows.
///
/// Individual churn flows do not get a [`FlowSummary`] each — at 100k
/// flows per run that would be the dominant allocation — they only bump
/// the counts below and offer their completion time to one bounded
/// reservoir, which is where quantiles are read from.
#[derive(Clone, Debug)]
pub struct PopulationSummary {
    /// Flows that arrived during the run.
    pub spawned: u64,
    /// Flows that delivered every byte and tore down.
    pub completed: u64,
    /// Churn flows still live when the horizon hit.
    pub live_at_end: u64,
    /// Uniform subsample of completion times (seconds) for exact
    /// quantiles and distribution plots.
    pub fct_sample_secs: Vec<f64>,
}

/// Complete results of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimResults {
    /// Per-sender summaries, indexed by flow id.
    pub flows: Vec<FlowSummary>,
    /// Packets dropped by queues, summed across every hop. On a topology
    /// with queued ACK paths this includes dropped ACK packets (queues do
    /// not distinguish them); the dumbbell has one hop and
    /// delay-only ACKs, so there it is exactly data lost at the
    /// bottleneck.
    pub queue_drops: u64,
    /// Data packets that cleared the last queue of their forward path —
    /// i.e. were forwarded toward a receiver. Intermediate-hop traversals
    /// and ACK packets are not counted, so
    /// `packets_forwarded − Σ delivered` still bounds in-flight + lost
    /// data on any topology.
    pub packets_forwarded: u64,
    /// Simulated duration.
    pub duration: Ns,
    /// Optional per-delivery log (enabled via
    /// [`crate::scenario::Scenario::record_deliveries`]). Capped by the
    /// engine; see `deliveries_dropped`.
    pub deliveries: Vec<DeliveryRecord>,
    /// Deliveries *not* logged because the log hit its cap. Zero unless
    /// `record_deliveries` was on and the run outgrew the limit.
    pub deliveries_dropped: u64,
    /// Aggregate statistics over dynamically arriving flows; `None` for
    /// scenarios without churn.
    pub population: Option<PopulationSummary>,
    /// Link up/down events applied during the run (graph topologies
    /// with scheduled failures; 0 everywhere else).
    pub link_events: u64,
    /// Packets discarded because of a link failure: those with no
    /// remaining route. Counted separately from `queue_drops`.
    pub failover_drops: u64,
    /// Persistent flows whose forward or ACK path changed at a link
    /// event (each flow counted once per event that moved it).
    pub reroutes: u64,
}

impl SimResults {
    /// Aggregate utilization: delivered payload bits over the capacity
    /// `link` offered during the run, for `mss`-byte packets
    /// ([`LinkSpec::delivered_capacity_bits`]); 0 when it offered none.
    pub fn utilization(&self, link: &LinkSpec, mss: u32) -> f64 {
        let capacity = link.delivered_capacity_bits(mss, self.duration);
        if capacity <= 0.0 {
            return 0.0;
        }
        let bits: f64 = self.flows.iter().map(|f| f.bytes as f64 * 8.0).sum();
        bits / capacity
    }

    /// Summaries of senders that were active at least once.
    pub fn active_flows(&self) -> impl Iterator<Item = &FlowSummary> {
        self.flows.iter().filter(|f| f.was_active())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_bytes_over_on_time() {
        let mut m = FlowMetrics::default();
        m.start_interval(Ns::from_secs(1));
        m.credit_bytes(1_250_000); // 10 Mbit
        m.end_interval(Ns::from_secs(2));
        let s = m.summarize(Ns::from_secs(10));
        assert!((s.throughput_mbps - 10.0).abs() < 1e-9);
        assert_eq!(s.on_secs, 1.0);
        assert_eq!(s.n_intervals, 1);
    }

    #[test]
    fn multiple_intervals_pool_bytes_and_time() {
        let mut m = FlowMetrics::default();
        m.start_interval(Ns::ZERO);
        m.credit_bytes(500_000);
        m.end_interval(Ns::from_secs(1));
        m.start_interval(Ns::from_secs(5));
        m.credit_bytes(750_000);
        m.end_interval(Ns::from_secs(6));
        let s = m.summarize(Ns::from_secs(10));
        // 1.25 MB over 2 s = 5 Mbps.
        assert!((s.throughput_mbps - 5.0).abs() < 1e-9);
    }

    #[test]
    fn open_interval_capped_at_sim_end() {
        let mut m = FlowMetrics::default();
        m.start_interval(Ns::from_secs(8));
        m.credit_bytes(250_000);
        let s = m.summarize(Ns::from_secs(10));
        assert_eq!(s.on_secs, 2.0);
        assert!((s.throughput_mbps - 1.0).abs() < 1e-9);
    }

    #[test]
    fn late_bytes_credit_last_interval() {
        let mut m = FlowMetrics::default();
        m.start_interval(Ns::ZERO);
        m.end_interval(Ns::from_secs(1));
        m.credit_bytes(1000); // drain delivery after off
        assert_eq!(m.bytes(), 1000);
    }

    /// Regression: a one-shot flow whose last packets land *after* its
    /// interval closed (late deliveries while draining) must still have
    /// every byte attributed to the closed interval, not dropped.
    #[test]
    fn draining_deliveries_after_close_are_not_discarded() {
        let mut m = FlowMetrics::default();
        m.start_interval(Ns::ZERO);
        m.credit_bytes(3000);
        m.end_interval(Ns::from_secs(1));
        m.credit_bytes(1500);
        m.credit_bytes(1500);
        let s = m.summarize(Ns::from_secs(10));
        assert_eq!(s.bytes, 6000, "late drain bytes kept");
        assert_eq!(s.n_intervals, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "before the first on-interval")]
    fn crediting_with_no_interval_is_a_bug() {
        let mut m = FlowMetrics::default();
        m.credit_bytes(1000);
    }

    #[test]
    fn reset_clears_everything_for_slot_reuse() {
        let mut m = FlowMetrics::default();
        m.start_interval(Ns::ZERO);
        m.credit_bytes(5000);
        m.packets_delivered = 4;
        m.duplicate_deliveries = 1;
        m.record_queue_delay(Ns::from_millis(3));
        m.record_rtt(Ns::from_millis(80));
        m.end_interval(Ns::SECOND);
        m.reset();
        let s = m.summarize(Ns::from_secs(10));
        assert!(!s.was_active());
        assert_eq!(
            (s.bytes, s.packets_delivered, s.duplicate_deliveries),
            (0, 0, 0)
        );
        assert_eq!((s.mean_queue_delay_ms, s.mean_rtt_ms), (0.0, 0.0));
        assert_eq!((s.on_secs, s.n_intervals, s.rtt_samples), (0.0, 0, 0));
        assert_eq!(m.bytes(), 0);
        // The slot's next lifetime starts from nothing.
        m.start_interval(Ns::from_secs(2));
        let s = m.summarize(Ns::from_secs(3));
        assert_eq!((s.on_secs, s.n_intervals, s.bytes), (1.0, 1, 0));
    }

    #[test]
    fn delay_averages() {
        let mut m = FlowMetrics::default();
        m.record_queue_delay(Ns::from_millis(4));
        m.record_queue_delay(Ns::from_millis(8));
        m.record_rtt(Ns::from_millis(150));
        m.record_rtt(Ns::from_millis(250));
        let s = m.summarize(Ns::from_secs(1));
        assert!((s.mean_queue_delay_ms - 6.0).abs() < 1e-9);
        assert!((s.mean_rtt_ms - 200.0).abs() < 1e-9);
    }

    #[test]
    fn never_active_flow() {
        let m = FlowMetrics::default();
        let s = m.summarize(Ns::from_secs(10));
        assert!(!s.was_active());
        assert_eq!(s.throughput_mbps, 0.0);
    }

    #[test]
    fn trace_utilization_uses_delivered_capacity() {
        use crate::link::DeliverySchedule;
        // A bursty trace: 100 opportunities in the first half of a 10 s
        // period, none after. Nominal average rate would say the link
        // offered 1.2 Mbit over 10 s; the schedule actually offered
        // 100 × 1500 B = 1.2 Mbit too — but measure over 5 s and the
        // nominal rate is off by 2x while the delivered capacity is not.
        let instants: Vec<Ns> = (1..=100).map(|i| Ns::from_millis(i * 50)).collect();
        let schedule = DeliverySchedule::new(instants, Ns::from_secs(5));
        let link = LinkSpec::trace("bursty", schedule);
        let mut m = FlowMetrics::default();
        m.start_interval(Ns::ZERO);
        m.credit_bytes(75_000); // half the offered 150 000 B delivered
        let r = SimResults {
            flows: vec![m.summarize(Ns::from_secs(5))],
            duration: Ns::from_secs(5),
            ..SimResults::default()
        };
        let util = r.utilization(&link, 1500);
        assert!((util - 0.5).abs() < 1e-9, "got {util}");
    }

    #[test]
    fn utilization_math() {
        let mut m = FlowMetrics::default();
        m.start_interval(Ns::ZERO);
        m.credit_bytes(12_500_000); // 100 Mbit
        let r = SimResults {
            flows: vec![m.summarize(Ns::from_secs(10))],
            duration: Ns::from_secs(10),
            ..SimResults::default()
        };
        // 100 Mbit over 10 s on a 15 Mbps link = 2/3 utilization.
        let link = LinkSpec::constant(15.0);
        assert!((r.utilization(&link, 1500) - 0.6667).abs() < 1e-3);
    }
}
