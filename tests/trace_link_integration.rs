//! Integration: trace-driven (cellular) links end to end.

use remy_sim::netsim::link::TraceWalk;
use remy_sim::prelude::*;
use std::sync::Arc;

#[test]
fn delivery_rate_never_exceeds_trace_budget() {
    // A greedy sender cannot receive more packets than the schedule has
    // delivery slots.
    let schedule = LteModel::verizon_like().generate(3, Ns::from_secs(30));
    let slots_in_20s = {
        let mut walk = TraceWalk::default();
        let mut n = 0u64;
        loop {
            if schedule.step(&mut walk) >= Ns::from_secs(20) {
                break n;
            }
            n += 1;
        }
    };
    let scenario = Scenario::dumbbell(
        LinkSpec::Trace {
            schedule: Arc::new(schedule),
            name: "v".into(),
        },
        QueueSpec::DropTail { capacity: 1000 },
        1,
        Ns::from_millis(50),
        TrafficSpec::saturating(),
        Ns::from_secs(20),
        4,
    );
    let r = run_scenario(&scenario, &|_| Box::new(FixedWindow::new(600.0)));
    assert!(
        r.packets_forwarded <= slots_in_20s,
        "forwarded {} > slots {}",
        r.packets_forwarded,
        slots_in_20s
    );
    // And a big window should keep the lossy, varying link mostly busy.
    assert!(
        r.packets_forwarded as f64 > slots_in_20s as f64 * 0.9,
        "greedy sender should use ≥90% of slots: {} / {}",
        r.packets_forwarded,
        slots_in_20s
    );
}

#[test]
fn all_schemes_survive_the_cellular_link() {
    let spec = ExperimentSpec::new(
        "cellular_survival",
        "Verizon-like LTE survival",
        WorkloadSpec::uniform(
            LinkRef::NamedTrace {
                name: "verizon-like".to_string(),
            },
            1000,
            4,
            Ns::from_millis(50),
            TrafficSpec::fig4(),
        ),
        vec![
            ContenderSpec::new("newreno"),
            ContenderSpec::new("vegas"),
            ContenderSpec::new("cubic"),
            ContenderSpec::new("compound"),
            ContenderSpec::new("cubic+sfqcodel"),
            ContenderSpec::new("xcp"),
            ContenderSpec::new("remy:delta1"),
        ],
        Budget {
            runs: 1,
            sim_secs: 15,
        },
        31,
    );
    let results = Experiment::new(spec).run().expect("well-formed spec");
    for cell in &results.cells {
        assert!(
            cell.outcome.median_throughput_mbps > 0.01,
            "{} starved on the trace link: {}",
            cell.label,
            cell.outcome.median_throughput_mbps
        );
    }
}

#[test]
fn outage_dips_show_up_as_rtt_spikes() {
    // During outages the queue drains slowly, so a greedy sender's max
    // observed RTT must far exceed its propagation RTT.
    let schedule = LteModel::verizon_like().generate(13, Ns::from_secs(60));
    let scenario = Scenario::dumbbell(
        LinkSpec::Trace {
            schedule: Arc::new(schedule),
            name: "v".into(),
        },
        QueueSpec::DropTail { capacity: 1000 },
        1,
        Ns::from_millis(50),
        TrafficSpec::saturating(),
        Ns::from_secs(40),
        6,
    );
    let r = run_scenario(&scenario, &|_| Box::new(congestion::Cubic::new()));
    assert!(
        r.flows[0].mean_rtt_ms > 100.0,
        "bufferbloat through outages should inflate mean RTT, got {} ms",
        r.flows[0].mean_rtt_ms
    );
}
