//! Randomized property tests: no baseline scheme ever produces a
//! non-finite or non-positive window, whatever event sequence it sees.

use congestion::Scheme;
use netsim::cc::{AckInfo, LossEvent};
use netsim::rng::{cases, SimRng};
use netsim::time::Ns;

#[derive(Debug, Clone)]
enum Event {
    Ack {
        newly: u64,
        rtt_ms: u64,
        marked: bool,
        xcp: Option<i32>,
    },
    Loss(bool), // true = timeout
    Restart,
}

/// One of the three event kinds, equally likely; an ACK carries XCP
/// feedback three times in four.
fn arb_event(rng: &mut SimRng) -> Event {
    match rng.range_u64(0, 2) {
        0 => Event::Ack {
            newly: rng.range_u64(0, 3),
            rtt_ms: rng.range_u64(50, 499),
            marked: rng.chance(0.5),
            xcp: rng.chance(0.75).then(|| rng.range_u64(0, 39) as i32 - 20),
        },
        1 => Event::Loss(rng.chance(0.5)),
        _ => Event::Restart,
    }
}

fn all_schemes() -> Vec<Scheme> {
    let mut v = Scheme::standard_suite();
    v.push(Scheme::Dctcp { mark_threshold: 20 });
    v
}

#[test]
fn windows_stay_finite_and_positive() {
    cases("windows_stay_finite_and_positive", |rng| {
        let events: Vec<Event> = (0..rng.range_usize(1, 199))
            .map(|_| arb_event(rng))
            .collect();
        for scheme in all_schemes() {
            let mut cc = scheme.build_cc();
            cc.on_flow_start(Ns::ZERO);
            let mut now = Ns::ZERO;
            let mut min_rtt = Ns::from_millis(500);
            for e in &events {
                now += Ns::from_millis(10);
                match e {
                    Event::Ack {
                        newly,
                        rtt_ms,
                        marked,
                        xcp,
                    } => {
                        let rtt = Ns::from_millis(*rtt_ms);
                        min_rtt = min_rtt.min(rtt);
                        let info = AckInfo {
                            now,
                            rtt_sample: rtt,
                            min_rtt,
                            srtt: rtt,
                            echo_ts: now.saturating_sub(rtt),
                            seq: 0,
                            newly_acked: *newly,
                            in_flight: 10,
                            in_recovery: false,
                            ecn_echo: *marked,
                            xcp_feedback: xcp.map(|x| x as f64),
                        };
                        cc.on_ack(&info);
                    }
                    Event::Loss(timeout) => {
                        let kind = if *timeout {
                            LossEvent::Timeout
                        } else {
                            LossEvent::FastRetransmit
                        };
                        cc.on_loss(now, kind);
                    }
                    Event::Restart => cc.on_flow_start(now),
                }
                let w = cc.cwnd();
                assert!(w.is_finite(), "{}: non-finite window", scheme.label());
                assert!(w >= 1.0 - 1e-9, "{}: window {w} below 1", scheme.label());
                assert!(w <= 1e7, "{}: window {w} exploded", scheme.label());
                assert!(
                    cc.pacing().0 < u64::MAX,
                    "{}: pacing overflow",
                    scheme.label()
                );
            }
        }
    });
}
