//! On/off traffic models (§3.2, §5.1 of the paper).
//!
//! Each sender alternates between an exponentially-distributed "off" period
//! and an "on" period drawn in one of three ways:
//!
//! * **by time** — the source sends as much as congestion control allows
//!   for an exponentially-distributed duration (the design-phase model and
//!   the videoconference-style workload);
//! * **by bytes** — the connection transfers an exponentially-distributed
//!   number of bytes (the 100-kB / 1-MB transfer workloads);
//! * **by empirical distribution** — flow lengths follow the ICSI trace of
//!   Fig. 3, which matches a shifted Pareto: `len = Pareto(Xm=147, α=0.5) −
//!   40` bytes, plus 16 kB added "to ensure that the network is loaded".

use crate::rng::SimRng;
use crate::time::Ns;

/// How long/large "on" periods are.
#[derive(Clone, Debug, PartialEq)]
pub enum OnSpec {
    /// Send freely for an exponentially-distributed duration.
    ByTime {
        /// Mean on-duration.
        mean: Ns,
    },
    /// Send freely for exactly this long (deterministic on-period; used by
    /// controlled experiments like the Fig. 6 sequence plot).
    ByTimeFixed {
        /// Exact on-duration.
        duration: Ns,
    },
    /// Transfer an exponentially-distributed number of bytes.
    ByBytes {
        /// Mean flow size in bytes.
        mean_bytes: f64,
    },
    /// Transfer a flow drawn from the empirical (Fig. 3) distribution:
    /// shifted Pareto plus a fixed 16 kB loading term, capped so a single
    /// flow cannot dominate an entire simulation.
    Empirical {
        /// Upper bound on a single flow, bytes (paper's differing-RTT
        /// experiment quotes 3.3 GB as the observed max).
        cap_bytes: u64,
    },
    /// Transfer a flow drawn from a bounded Pareto distribution — the
    /// standard heavy-tailed web-workload model, used by churn scenarios
    /// where flows arrive by a Poisson process and each transfers one
    /// sampled flow length.
    BoundedPareto {
        /// Scale (minimum flow size), bytes.
        xm: f64,
        /// Shape; smaller is heavier-tailed.
        alpha: f64,
        /// Upper truncation, bytes (keeps the mean finite for α ≤ 1 and
        /// a single flow from dominating a run).
        cap_bytes: f64,
    },
}

impl OnSpec {
    /// Empirical spec with the paper's 3.3 GB cap.
    pub fn empirical() -> OnSpec {
        OnSpec::Empirical {
            cap_bytes: 3_300_000_000,
        }
    }

    /// Draw one flow length, in bytes, for byte-based on-periods; `None`
    /// for the time-based variants (whose on-periods have durations, not
    /// sizes). Churn scenarios require a `Some` spec — an arriving flow
    /// *is* one transfer.
    pub fn sample_bytes(&self, rng: &mut SimRng) -> Option<u64> {
        match *self {
            OnSpec::ByTime { .. } | OnSpec::ByTimeFixed { .. } => None,
            OnSpec::ByBytes { mean_bytes } => Some(rng.exponential(mean_bytes).max(1.0) as u64),
            OnSpec::Empirical { cap_bytes } => Some(empirical_flow_bytes(rng, cap_bytes)),
            OnSpec::BoundedPareto {
                xm,
                alpha,
                cap_bytes,
            } => Some(rng.bounded_pareto(xm, alpha, cap_bytes) as u64),
        }
    }

    /// True if on-periods are sized in bytes (one flow = one transfer).
    pub fn is_byte_based(&self) -> bool {
        !matches!(self, OnSpec::ByTime { .. } | OnSpec::ByTimeFixed { .. })
    }
}

// A `ByTime` mean of `Ns::MAX` (the always-on saturating source)
// round-trips as `null`.
crate::tagged! {
    OnSpec {
        "by_time" => ByTime { mean: "mean_ns" },
        "by_time_fixed" => ByTimeFixed { duration: "duration_ns" },
        "by_bytes" => ByBytes { mean_bytes: "mean_bytes" },
        "empirical" => Empirical { cap_bytes: "cap_bytes" },
        "bounded_pareto" => BoundedPareto { xm: "xm", alpha: "alpha", cap_bytes: "cap_bytes" },
    }
}

/// Parameters of Fig. 3's fitted distribution.
pub const PARETO_XM: f64 = 147.0;
/// Pareto shape from Fig. 3 (α = 0.5 — infinite mean).
pub const PARETO_ALPHA: f64 = 0.5;
/// Shift applied in Fig. 3's fit ("Pareto(x+40)").
pub const PARETO_SHIFT: f64 = 40.0;
/// Loading term added to every sampled flow (§5.1).
pub const EMPIRICAL_EXTRA_BYTES: f64 = 16_384.0;

/// Draw one flow length (bytes) from the Fig. 3 empirical model.
pub fn empirical_flow_bytes(rng: &mut SimRng, cap_bytes: u64) -> u64 {
    let raw = (rng.pareto(PARETO_XM, PARETO_ALPHA) - PARETO_SHIFT).max(1.0);
    let with_load = raw + EMPIRICAL_EXTRA_BYTES;
    (with_load as u64).min(cap_bytes)
}

/// A complete per-sender traffic description.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficSpec {
    /// "on" period model.
    pub on: OnSpec,
    /// Mean of the exponential "off" period.
    pub off_mean: Ns,
    /// If true, every sender starts a flow at t = 0 (used by experiments
    /// that want immediate contention, e.g. the datacenter table); if
    /// false, each sender begins with an "off" draw, which de-synchronizes
    /// start times as in the paper's evaluation runs.
    pub start_on: bool,
}

impl TrafficSpec {
    /// The Fig. 4 workload: exponential 100 kB transfers, 0.5 s off.
    pub fn fig4() -> TrafficSpec {
        TrafficSpec {
            on: OnSpec::ByBytes {
                mean_bytes: 100_000.0,
            },
            off_mean: Ns::from_millis(500),
            start_on: false,
        }
    }

    /// A source that is always on (infinite backlog), for capacity checks
    /// and the Fig. 6 dynamics plot.
    pub fn saturating() -> TrafficSpec {
        TrafficSpec {
            on: OnSpec::ByTime { mean: Ns::MAX },
            off_mean: Ns::ZERO,
            start_on: true,
        }
    }

    /// Check the spec is runnable: a timed on-period of length zero with
    /// a zero off-period would toggle on and off forever at one timestamp.
    pub fn validate(&self) -> Result<(), String> {
        let timed_on = match self.on {
            OnSpec::ByTime { mean } => Some(mean),
            OnSpec::ByTimeFixed { duration } => Some(duration),
            _ => None,
        };
        if timed_on == Some(Ns::ZERO) && self.off_mean.is_zero() {
            return Err(
                "a timed on-period of 0 (mean_ns / duration_ns) needs a nonzero off_mean_ns"
                    .to_string(),
            );
        }
        Ok(())
    }
}

crate::record! {
    TrafficSpec { on: "on", off_mean: "off_mean_ns", start_on: "start_on" }
    check TrafficSpec::validate
}

/// What a sender is currently allowed to do.
#[derive(Clone, Debug, PartialEq)]
pub enum OnState {
    /// Silent; the flow resumes at the recorded time.
    Off {
        /// When the off-period ends.
        until: Ns,
    },
    /// Transferring a fixed-size flow; the count is how many *new* packets
    /// are still to be injected (retransmissions do not consume this).
    OnBytes {
        /// New packets still to inject.
        remaining_pkts: u64,
    },
    /// Free-running until the deadline.
    OnTime {
        /// When the on-period ends.
        until: Ns,
    },
}

/// Per-sender traffic process: draws on/off periods and tracks state.
#[derive(Clone, Debug)]
pub struct TrafficProcess {
    spec: TrafficSpec,
    state: OnState,
    rng: SimRng,
    mss: u32,
}

impl TrafficProcess {
    /// Create the process; `rng` must be an independent stream per sender.
    pub fn new(spec: TrafficSpec, mss: u32, mut rng: SimRng) -> TrafficProcess {
        let state = if spec.start_on {
            OnState::Off { until: Ns::ZERO }
        } else {
            let off = Ns::from_secs_f64(rng.exponential(spec.off_mean.as_secs_f64()));
            OnState::Off { until: off }
        };
        TrafficProcess {
            spec,
            state,
            rng,
            mss,
        }
    }

    /// A process for one dynamically arriving (churn) flow: immediately
    /// on, transferring exactly `bytes`, never to turn on again — the
    /// engine tears the flow down when the transfer completes instead of
    /// drawing an off-period.
    pub fn one_shot(bytes: u64, mss: u32, now: Ns) -> TrafficProcess {
        let mut p = TrafficProcess {
            spec: TrafficSpec {
                on: OnSpec::ByBytes {
                    mean_bytes: bytes as f64,
                },
                off_mean: Ns::ZERO,
                start_on: true,
            },
            state: OnState::Off { until: Ns::ZERO },
            // Placeholder stream — a one-shot process never draws from its
            // rng (the size is fixed below).
            rng: SimRng::new(0),
            mss,
        };
        p.reset_one_shot(bytes, now);
        p
    }

    /// Re-arm this process for a new one-shot lifetime in the same slot
    /// (churn respawn): on at `now`, transferring exactly `bytes`. When
    /// the period began is the flow's [`crate::metrics::FlowMetrics`] to
    /// record, so `now` is not kept here.
    pub fn reset_one_shot(&mut self, bytes: u64, _now: Ns) {
        self.state = OnState::OnBytes {
            remaining_pkts: bytes.div_ceil(self.mss as u64).max(1),
        };
    }

    /// The time of the next scheduled state change the simulator must wake
    /// us for, if any. (`OnBytes` completes via ACKs instead of a timer.)
    pub fn next_wakeup(&self) -> Option<Ns> {
        match &self.state {
            OnState::Off { until } => Some(*until),
            OnState::OnTime { until } if *until != Ns::MAX => Some(*until),
            _ => None,
        }
    }

    /// Handle a timer wakeup at `now`: switch Off→On when the off period
    /// ends, or On→Off when a timed on-period expires. Returns `true` if
    /// the state changed.
    pub fn on_wakeup(&mut self, now: Ns) -> bool {
        match self.state.clone() {
            OnState::Off { until } if now >= until => {
                self.begin_on(now);
                true
            }
            OnState::OnTime { until } if now >= until => {
                self.begin_off(now);
                true
            }
            _ => false,
        }
    }

    fn begin_on(&mut self, now: Ns) {
        self.state = match self.spec.on {
            OnSpec::ByTime { mean } => {
                let dur = if mean == Ns::MAX {
                    Ns::MAX
                } else {
                    Ns::from_secs_f64(self.rng.exponential(mean.as_secs_f64()))
                };
                OnState::OnTime {
                    until: now.saturating_add(dur),
                }
            }
            OnSpec::ByTimeFixed { duration } => OnState::OnTime {
                until: now.saturating_add(duration),
            },
            ref on => {
                let bytes = on
                    .sample_bytes(&mut self.rng)
                    // lint:allow(p1-sim-unwrap): the match arms above handle
                    // every time-based shape, so only byte-based ones reach
                    // this arm, and those always yield a size.
                    .expect("byte-based on-period");
                OnState::OnBytes {
                    remaining_pkts: bytes.div_ceil(self.mss as u64).max(1),
                }
            }
        };
    }

    fn begin_off(&mut self, now: Ns) {
        let off = Ns::from_secs_f64(self.rng.exponential(self.spec.off_mean.as_secs_f64()));
        self.state = OnState::Off {
            until: now.saturating_add(off),
        };
    }

    /// The transport finished delivering the current fixed-size flow (all
    /// bytes acknowledged): transition to Off. Only valid in `OnBytes`.
    pub fn on_transfer_complete(&mut self, now: Ns) {
        debug_assert!(matches!(self.state, OnState::OnBytes { .. }));
        self.begin_off(now);
    }

    /// True if the sender may inject *new* data right now.
    pub fn may_send_new(&self, now: Ns) -> bool {
        match &self.state {
            OnState::Off { .. } => false,
            OnState::OnBytes { remaining_pkts } => *remaining_pkts > 0,
            OnState::OnTime { until } => now < *until,
        }
    }

    /// Consume one new packet's worth of send budget.
    pub fn consume_packet(&mut self) {
        if let OnState::OnBytes { remaining_pkts } = &mut self.state {
            debug_assert!(*remaining_pkts > 0);
            *remaining_pkts -= 1;
        }
    }

    /// True if the flow is in an "on" period (even if its byte budget is
    /// exhausted and it is draining).
    pub fn is_on(&self) -> bool {
        !matches!(self.state, OnState::Off { .. })
    }

    /// True if a fixed-size flow has injected all its packets and is
    /// waiting for acknowledgments.
    pub fn draining(&self) -> bool {
        matches!(self.state, OnState::OnBytes { remaining_pkts: 0 })
    }

    /// Current state (for tests and logging).
    pub fn state(&self) -> &OnState {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Wire;

    fn proc_with(on: OnSpec, off_mean: Ns, seed: u64) -> TrafficProcess {
        TrafficProcess::new(
            TrafficSpec {
                on,
                off_mean,
                start_on: false,
            },
            1500,
            SimRng::new(seed),
        )
    }

    #[test]
    fn starts_off_then_turns_on() {
        let mut p = proc_with(
            OnSpec::ByBytes {
                mean_bytes: 10_000.0,
            },
            Ns::from_millis(500),
            1,
        );
        let wake = p.next_wakeup().expect("off period has a deadline");
        assert!(!p.is_on());
        assert!(!p.may_send_new(Ns::ZERO));
        assert!(p.on_wakeup(wake));
        assert!(p.is_on());
        assert!(p.may_send_new(wake));
        assert!(matches!(p.state(), OnState::OnBytes { .. }));
    }

    #[test]
    fn start_on_begins_immediately() {
        let mut p = TrafficProcess::new(TrafficSpec::saturating(), 1500, SimRng::new(2));
        assert!(p.on_wakeup(Ns::ZERO));
        assert!(p.may_send_new(Ns::from_secs(1)));
        assert_eq!(p.next_wakeup(), None, "saturating source never sleeps");
    }

    #[test]
    fn byte_budget_depletes_and_completes() {
        let mut p = proc_with(OnSpec::ByBytes { mean_bytes: 4000.0 }, Ns::SECOND, 3);
        let wake = p.next_wakeup().unwrap();
        p.on_wakeup(wake);
        let OnState::OnBytes { remaining_pkts } = *p.state() else {
            panic!("expected OnBytes");
        };
        assert!(remaining_pkts >= 1);
        for _ in 0..remaining_pkts {
            assert!(p.may_send_new(wake));
            p.consume_packet();
        }
        assert!(!p.may_send_new(wake));
        assert!(p.draining());
        p.on_transfer_complete(wake + Ns::SECOND);
        assert!(!p.is_on());
        assert!(p.next_wakeup().unwrap() > wake + Ns::SECOND);
    }

    #[test]
    fn timed_on_period_expires() {
        let mut p = proc_with(
            OnSpec::ByTime {
                mean: Ns::from_secs(5),
            },
            Ns::from_secs(5),
            4,
        );
        let on_at = p.next_wakeup().unwrap();
        p.on_wakeup(on_at);
        let until = match *p.state() {
            OnState::OnTime { until } => until,
            _ => panic!("expected OnTime"),
        };
        assert!(p.may_send_new(until - Ns(1)));
        assert!(!p.may_send_new(until));
        assert!(p.on_wakeup(until));
        assert!(!p.is_on());
    }

    #[test]
    fn fixed_on_period_is_exact() {
        let mut p = TrafficProcess::new(
            TrafficSpec {
                on: OnSpec::ByTimeFixed {
                    duration: Ns::from_secs(3),
                },
                off_mean: Ns::SECOND,
                start_on: true,
            },
            1500,
            SimRng::new(9),
        );
        p.on_wakeup(Ns::ZERO);
        assert_eq!(
            *p.state(),
            OnState::OnTime {
                until: Ns::from_secs(3)
            }
        );
    }

    #[test]
    fn empirical_flows_carry_loading_term() {
        let mut rng = SimRng::new(5);
        for _ in 0..10_000 {
            let b = empirical_flow_bytes(&mut rng, 3_300_000_000);
            assert!(b as f64 >= EMPIRICAL_EXTRA_BYTES);
            assert!(b <= 3_300_000_000);
        }
    }

    #[test]
    fn empirical_flows_are_heavy_tailed() {
        // With alpha = 0.5 the 99th percentile should dwarf the median.
        let mut rng = SimRng::new(6);
        let mut v: Vec<u64> = (0..50_000)
            .map(|_| empirical_flow_bytes(&mut rng, u64::MAX))
            .collect();
        v.sort_unstable();
        let median = v[v.len() / 2] as f64;
        let p99 = v[v.len() * 99 / 100] as f64;
        assert!(
            p99 / median > 50.0,
            "tail too light: median {median}, p99 {p99}"
        );
    }

    #[test]
    fn mean_off_time_matches_spec() {
        // Measure the average initial off draw across many independent
        // processes.
        let mut total = 0.0;
        let n = 20_000;
        for seed in 0..n {
            let p = proc_with(
                OnSpec::ByBytes { mean_bytes: 1000.0 },
                Ns::from_millis(200),
                seed,
            );
            total += p.next_wakeup().unwrap().as_secs_f64();
        }
        let mean = total / n as f64;
        assert!(
            (mean - 0.2).abs() < 0.01,
            "mean off draw {mean} should be ~0.2 s"
        );
    }

    #[test]
    fn bounded_pareto_round_trips_and_samples_in_range() {
        let spec = OnSpec::BoundedPareto {
            xm: 4500.0,
            alpha: 1.2,
            cap_bytes: 1_500_000.0,
        };
        let back = OnSpec::from_json_value(&spec.to_json_value()).expect("round trip");
        assert_eq!(back, spec);
        assert!(spec.is_byte_based());
        let mut rng = SimRng::new(11);
        for _ in 0..10_000 {
            let b = spec.sample_bytes(&mut rng).expect("byte based");
            assert!((4500..1_500_000).contains(&b), "sample {b} out of range");
        }
        assert!(OnSpec::ByTime { mean: Ns::SECOND }
            .sample_bytes(&mut rng)
            .is_none());
    }

    #[test]
    fn one_shot_transfers_exactly_once() {
        let mut p = TrafficProcess::one_shot(4000, 1500, Ns::from_secs(2));
        assert!(p.is_on());
        assert_eq!(p.next_wakeup(), None, "one-shots complete via ACKs");
        let OnState::OnBytes { remaining_pkts } = *p.state() else {
            panic!("expected OnBytes");
        };
        assert_eq!(remaining_pkts, 3, "ceil(4000 / 1500)");
        for _ in 0..3 {
            p.consume_packet();
        }
        assert!(p.draining());
        p.reset_one_shot(100, Ns::from_secs(5));
        assert!(p.may_send_new(Ns::from_secs(5)), "respawned in place");
        assert!(p.is_on());
        assert_eq!(*p.state(), OnState::OnBytes { remaining_pkts: 1 });
    }

    #[test]
    fn zero_on_and_zero_off_is_rejected_by_key() {
        let zero_on = [
            OnSpec::ByTime { mean: Ns::ZERO },
            OnSpec::ByTimeFixed { duration: Ns::ZERO },
        ];
        for on in zero_on {
            let mut spec = TrafficSpec {
                on,
                off_mean: Ns::ZERO,
                start_on: true,
            };
            let err = TrafficSpec::from_json_value(&spec.to_json_value()).unwrap_err();
            assert!(err.reason.contains("off_mean_ns"), "{err}");
            spec.off_mean = Ns(1);
            assert!(
                spec.validate().is_ok(),
                "time advances through the off draw"
            );
        }
        assert!(TrafficSpec::saturating().validate().is_ok());
    }

    #[test]
    fn wakeup_before_deadline_is_noop() {
        let mut p = proc_with(OnSpec::ByBytes { mean_bytes: 1000.0 }, Ns::SECOND, 8);
        let wake = p.next_wakeup().unwrap();
        assert!(!p.on_wakeup(wake - Ns(1)));
        assert!(!p.is_on());
    }
}
