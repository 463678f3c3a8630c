//! Equivalence suite, pinning two engine contracts bit-for-bit:
//!
//! 1. **Topology**: a scenario that spells the dumbbell out as a 1-hop
//!    `Topology` must produce *byte-identical* results to the same
//!    scenario naming no topology — same seeds in, same `SimResults` out,
//!    bit-for-bit on every float — across queue disciplines and
//!    congestion-control schemes. Both are built through the one
//!    construction path; this pins that the implicit form resolves to
//!    exactly the behavior every figure of the paper was validated
//!    against.
//! 2. **Scheduler**: the timing-wheel and binary-heap event queues must
//!    produce identical `SimResults` *and identical per-event delivery
//!    logs* (event times) for every cell of the same suite and for the
//!    multi-hop topology experiments — the engines share one
//!    `(time, insertion id)` ordering contract, so swapping the scheduler
//!    must not move a single event.

use netsim::sched::SchedulerKind;
use remy_sim::prelude::*;
use std::sync::Arc;

/// Exact, bitwise comparison of two simulation results.
fn assert_results_identical(a: &SimResults, b: &SimResults, what: &str) {
    assert_eq!(a.queue_drops, b.queue_drops, "{what}: drops");
    assert_eq!(
        a.packets_forwarded, b.packets_forwarded,
        "{what}: forwarded"
    );
    assert_eq!(a.flows.len(), b.flows.len(), "{what}: flow count");
    assert_eq!(
        a.deliveries.len(),
        b.deliveries.len(),
        "{what}: delivery count"
    );
    for (i, (da, db)) in a.deliveries.iter().zip(&b.deliveries).enumerate() {
        assert_eq!(
            (da.at, da.flow, da.seq),
            (db.at, db.flow, db.seq),
            "{what}: delivery {i}"
        );
    }
    for (i, (fa, fb)) in a.flows.iter().zip(&b.flows).enumerate() {
        assert_eq!(fa.bytes, fb.bytes, "{what}: flow {i} bytes");
        assert_eq!(
            fa.packets_delivered, fb.packets_delivered,
            "{what}: flow {i} packets"
        );
        assert_eq!(
            fa.duplicate_deliveries, fb.duplicate_deliveries,
            "{what}: flow {i} duplicates"
        );
        assert_eq!(fa.n_intervals, fb.n_intervals, "{what}: flow {i} intervals");
        for (field, va, vb) in [
            ("throughput", fa.throughput_mbps, fb.throughput_mbps),
            ("on_secs", fa.on_secs, fb.on_secs),
            (
                "queue_delay",
                fa.mean_queue_delay_ms,
                fb.mean_queue_delay_ms,
            ),
            ("rtt", fa.mean_rtt_ms, fb.mean_rtt_ms),
        ] {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{what}: flow {i} {field} ({va} vs {vb})"
            );
        }
    }
}

fn legacy_scenario(queue: QueueSpec, seed: u64) -> Scenario {
    Scenario::dumbbell(
        LinkSpec::constant(15.0),
        queue,
        4,
        Ns::from_millis(150),
        TrafficSpec::fig4(),
        Ns::from_secs(15),
        seed,
    )
}

fn run_with(contender: &Contender, scenario: &Scenario, kind: SchedulerKind) -> SimResults {
    let ccs: Vec<Box<dyn CongestionControl>> =
        (0..scenario.n()).map(|_| contender.build_cc()).collect();
    let router = contender.router(&scenario.link, scenario.mss);
    let mut sim = Simulator::with_scheduler(scenario, ccs, router, kind);
    if scenario.churn.is_some() {
        let contender = contender.clone();
        sim = sim.with_churn_cc(Box::new(move |_| contender.build_cc()));
    }
    sim.run()
}

/// The paper's discipline × scheme matrix, as (queue, contender) cells.
fn matrix() -> Vec<(QueueSpec, &'static str)> {
    let queues = [
        QueueSpec::DropTail { capacity: 1000 },
        QueueSpec::Codel { capacity: 300 },
        QueueSpec::SfqCodel {
            capacity: 1000,
            buckets: 64,
        },
    ];
    let contenders = ["newreno", "cubic", "remy:delta1"];
    let mut cells = Vec::new();
    for q in &queues {
        for c in contenders {
            cells.push((q.clone(), c));
        }
    }
    cells
}

#[test]
fn one_hop_topology_reproduces_the_legacy_engine_bit_for_bit() {
    for (qi, (queue, name)) in matrix().into_iter().enumerate() {
        let contender = ContenderSpec::new(name).build().expect("contender");
        let legacy = legacy_scenario(queue.clone(), 7_000 + qi as u64);
        let topo = legacy.clone().with_topology(Topology::single_bottleneck(
            legacy.link.clone(),
            legacy.queue.clone(),
            legacy.n(),
        ));
        assert!(topo.topology.is_some());
        let a = run_with(&contender, &legacy, SchedulerKind::Wheel);
        let b = run_with(&contender, &topo, SchedulerKind::Wheel);
        assert!(
            a.flows.iter().any(|f| f.bytes > 0),
            "{name}/{queue:?}: the comparison must exercise real traffic"
        );
        assert_results_identical(&a, &b, &format!("{name} over {queue:?}"));
    }
}

#[test]
fn wheel_and_heap_schedulers_agree_across_the_full_matrix() {
    // Every discipline × scheme cell, with the delivery log on so the
    // comparison covers per-event times, not just summaries. The engine
    // assigns tie-break ids in insertion order identically under both
    // schedulers (pinned directly by the scheduler property suite in
    // `crates/netsim/tests/props.rs`); identical delivery logs here are
    // the end-to-end corollary. The last two rows swap the constant link
    // for a trace-driven one, so `Ev::TraceSlot` is in the comparison too.
    let mut cells: Vec<(Scenario, &str)> = matrix()
        .into_iter()
        .enumerate()
        .map(|(qi, (queue, name))| (legacy_scenario(queue, 9_100 + qi as u64), name))
        .collect();
    for (i, name) in ["cubic", "remy:delta1"].into_iter().enumerate() {
        let mut scenario =
            legacy_scenario(QueueSpec::DropTail { capacity: 1000 }, 9_200 + i as u64);
        scenario.link = LinkSpec::trace("v", verizon_schedule());
        cells.push((scenario, name));
    }
    for (mut scenario, name) in cells {
        let contender = ContenderSpec::new(name).build().expect("contender");
        scenario.record_deliveries = true;
        let what = format!(
            "{name} over {:?} on {}",
            scenario.queue,
            scenario.link.label()
        );
        let heap = run_with(&contender, &scenario, SchedulerKind::Heap);
        let wheel = run_with(&contender, &scenario, SchedulerKind::Wheel);
        assert!(
            !wheel.deliveries.is_empty(),
            "{what}: the comparison must see deliveries"
        );
        assert_results_identical(&heap, &wheel, &format!("heap vs wheel: {what}"));
    }
}

#[test]
fn wheel_and_heap_schedulers_agree_on_mixed_rtt_dumbbells() {
    // The wheel's FIFO lanes are keyed by an event's delay, so the RTT mix
    // sets how many a run needs: one service class, plus a forward and a
    // return class per distinct RTT. A churn_100k-style 50 / 20 ms pair
    // needs five, a lane each; six always-on senders with six RTTs (one
    // odd, so its two halves differ) keep thirteen live, more than there
    // are lanes, so the rest take the wheel's fallback path.
    let churn = Scenario::dumbbell(
        LinkSpec::constant(100.0),
        QueueSpec::DropTail { capacity: 1000 },
        2,
        Ns::from_millis(50),
        TrafficSpec::saturating(),
        Ns::from_secs(3),
        9_300,
    )
    .with_churn(ChurnSpec {
        arrivals_per_sec: 2_000.0,
        size: OnSpec::BoundedPareto {
            xm: 2_000.0,
            alpha: 1.2,
            cap_bytes: 10_000.0,
        },
        rtt: Ns::from_millis(20),
    });
    let mut six = Scenario::dumbbell(
        LinkSpec::constant(15.0),
        QueueSpec::DropTail { capacity: 1000 },
        6,
        Ns::from_millis(150),
        TrafficSpec::saturating(),
        Ns::from_secs(5),
        9_301,
    );
    for (s, rtt) in six.senders.iter_mut().zip([
        Ns::from_millis(20),
        Ns::from_millis(35),
        Ns::from_millis(50),
        Ns::from_millis(75),
        Ns(101_000_001),
        Ns::from_millis(150),
    ]) {
        s.rtt = rtt;
    }
    for (mut scenario, name) in [
        (churn, "newreno"),
        (six.clone(), "cubic"),
        (six, "remy:delta1"),
    ] {
        let contender = ContenderSpec::new(name).build().expect("contender");
        scenario.record_deliveries = true;
        let what = format!("heap vs wheel: {name}, churn {}", scenario.churn.is_some());
        let heap = run_with(&contender, &scenario, SchedulerKind::Heap);
        let wheel = run_with(&contender, &scenario, SchedulerKind::Wheel);
        assert!(!wheel.deliveries.is_empty(), "{what}: no deliveries");
        assert_results_identical(&heap, &wheel, &what);
        assert_eq!(
            format!("{:?}", heap.population),
            format!("{:?}", wheel.population),
            "{what}: churn population"
        );
    }
}

#[test]
fn wheel_and_heap_schedulers_agree_when_pacing_gaps_outnumber_lanes() {
    // A pacer's lane class is its delay: the pacing gap of the rule the
    // sender's last ACK hit. Each of a 15-rule table's rules gets its own
    // gap, and eight senders with eight RTTs hit at least 12 of them, so
    // more classes are live than there are lanes: in the wheel run about
    // half of the pacers take the fallback path into the wheel proper.
    let mut tree = WhiskerTree::single_rule();
    let at = |a, s, r| Memory {
        ack_ewma_ms: a,
        send_ewma_ms: s,
        rtt_ratio: r,
    };
    tree.split(0, at(3.5, 3.0, 1.3));
    let busy = tree.lookup(at(4.0, 3.5, 1.1)).id;
    tree.split(busy, at(5.0, 4.0, 1.1));
    let rules: Vec<(usize, f64)> = tree
        .whiskers()
        .iter()
        .map(|w| (w.id, w.domain.lo.rtt_ratio))
        .collect();
    for (k, &(id, lo_ratio)) in rules.iter().enumerate() {
        // Grow below the queueing split, shrink above it.
        let (m, b) = if lo_ratio < 1.3 {
            (1.0, 1.0)
        } else {
            (0.9, -1.0)
        };
        tree.set_action(
            id,
            Action {
                window_multiple: m,
                window_increment: b,
                intersend_ms: 0.3 + 0.17 * k as f64,
            },
        );
    }
    let table = Arc::new(tree);
    let mut scenario = Scenario::dumbbell(
        LinkSpec::constant(15.0),
        QueueSpec::DropTail { capacity: 1000 },
        8,
        Ns::from_millis(150),
        TrafficSpec::saturating(),
        Ns::from_secs(5),
        9_400,
    );
    for (i, s) in scenario.senders.iter_mut().enumerate() {
        s.rtt = Ns::from_millis(40 + 15 * i as u64);
    }
    scenario.record_deliveries = true;
    let run = |kind| {
        let ccs: Vec<Box<dyn CongestionControl>> = (0..scenario.n())
            .map(|_| Box::new(RemyCc::recording(Arc::clone(&table))) as Box<dyn CongestionControl>)
            .collect();
        Simulator::with_scheduler(&scenario, ccs, None, kind).run_returning_ccs()
    };
    let (heap, _) = run(SchedulerKind::Heap);
    let (wheel, mut ccs) = run(SchedulerKind::Wheel);
    assert!(!wheel.deliveries.is_empty(), "no deliveries");
    assert_results_identical(&heap, &wheel, "heap vs wheel: 15 pacing gaps");
    let mut usage = Usage::new(table.id_bound());
    for cc in &mut ccs {
        usage.merge(&cc.take_usage().expect("recording RemyCC"));
    }
    let gaps_hit = rules.iter().filter(|r| usage.count(r.0) > 0).count();
    assert!(gaps_hit >= 12, "only {gaps_hit} of 15 pacing gaps fired");
}

#[test]
fn wheel_and_heap_schedulers_agree_on_topology_experiments() {
    // The registered multi-hop experiments (parking lot, incast, reverse
    // path, plus the two graph-topology experiments), cell by cell,
    // scheduler vs scheduler.
    for exp in [
        "parking_lot3",
        "incast16",
        "reverse_path",
        "failover_chain",
        "fattree_k4_crosstraffic",
    ] {
        let spec = remy_sim::experiments::by_name(exp)
            .expect("registered")
            .spec(Budget {
                runs: 1,
                sim_secs: 4,
            });
        let cells = spec.expand().expect("expands");
        for cell in &cells {
            for (si, scenario) in cell.scenarios.iter().enumerate() {
                let mut scenario = scenario.clone();
                scenario.record_deliveries = true;
                let heap = run_with(&cell.contender, &scenario, SchedulerKind::Heap);
                let wheel = run_with(&cell.contender, &scenario, SchedulerKind::Wheel);
                assert_results_identical(
                    &heap,
                    &wheel,
                    &format!("{exp}: {} run {si}", cell.contender.label()),
                );
                // `spec(budget)` re-places the failure at mid-run; were
                // it left at the file's 15 s, this 4 s run would compare
                // two failure-free trajectories.
                assert_eq!(
                    wheel.reroutes > 0,
                    exp == "failover_chain",
                    "{exp}: only the failover experiment reroutes"
                );
            }
        }
    }
}

#[test]
fn one_hop_topology_through_the_spec_layer_matches_legacy_cells() {
    // The same equivalence, end to end through ExperimentSpec: a workload
    // with an explicit 1-hop TopologySpec produces the same outcomes as
    // the plain dumbbell workload.
    let plain = ExperimentSpec::new(
        "equiv_plain",
        "equivalence",
        WorkloadSpec::uniform(
            LinkRef::constant(15.0),
            1000,
            3,
            Ns::from_millis(150),
            TrafficSpec::fig4(),
        ),
        vec![ContenderSpec::new("newreno"), ContenderSpec::new("cubic")],
        Budget {
            runs: 2,
            sim_secs: 8,
        },
        4141,
    );
    let mut topo = plain.clone();
    topo.workload = topo.workload.clone().with_topology(TopologySpec::FlowHops {
        hops: vec![HopRef {
            link: LinkRef::constant(15.0),
            queue_capacity: 1000,
            prop_delay: Ns::ZERO,
        }],
        paths: (0..3).map(|_| FlowPath::through(vec![0])).collect(),
    });
    let a = Experiment::new(plain).run().expect("plain runs");
    let b = Experiment::new(topo).run().expect("topology runs");
    assert_eq!(a.cells.len(), b.cells.len());
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        assert_eq!(ca.label, cb.label);
        assert_eq!(
            ca.outcome.throughput_samples, cb.outcome.throughput_samples,
            "{}: throughput samples identical",
            ca.label
        );
        assert_eq!(ca.outcome.delay_samples, cb.outcome.delay_samples);
        assert_eq!(ca.outcome.rtt_samples, cb.outcome.rtt_samples);
    }
}

#[test]
fn multi_hop_results_are_deterministic_across_runs() {
    // Multi-hop runs keep the engine-wide determinism contract.
    let spec = remy_sim::experiments::by_name("parking_lot3")
        .expect("registered")
        .spec(Budget {
            runs: 2,
            sim_secs: 5,
        });
    let a = Experiment::new(spec.clone()).run().expect("first run");
    let b = Experiment::new(spec).run().expect("second run");
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        assert_eq!(ca.outcome.throughput_samples, cb.outcome.throughput_samples);
        assert_eq!(ca.outcome.delay_samples, cb.outcome.delay_samples);
    }
}
