//! Fixed-size probes: each times a tight loop over one layer's public
//! functions and reports host time per operation, the median of `REPS`
//! repetitions. They run once per traced run, never during timed passes,
//! and do not depend on the workload or the seed.

use crate::stats::median;
use crate::workloads::{load_table, INPUT_DIR};
use congestion::Scheme;
use netsim::cc::{AckInfo, CongestionControl, FixedWindow, Memory};
use netsim::flow::{FlowCold, FlowHot, FlowId, FlowTable, Receiver};
use netsim::graph::{FailoverPolicy, NetworkBuilder};
use netsim::link::LinkSpec;
use netsim::metrics::FlowMetrics;
use netsim::packet::{Ack, Packet, PacketArena};
use netsim::queue::QueueSpec;
use netsim::sched::{EventQueue, SchedulerKind};
use netsim::time::Ns;
use netsim::traffic::TrafficProcess;
use netsim::transport::{SendPoll, Transport};
use remy::action::Action;
use remy::remycc::RemyCc;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const REPS: usize = 9;
/// Operations per repetition of a nanosecond-scale probe.
const NS_OPS: u64 = 1_000_000;
/// Operations per repetition of a microsecond-scale probe.
const US_OPS: u64 = 400;

/// Loop sizes: full, or cut down for `--check`.
#[derive(Clone, Copy)]
pub struct Size {
    reps: usize,
    ns_ops: u64,
    us_ops: u64,
}

impl Size {
    pub fn full() -> Size {
        Size {
            reps: REPS,
            ns_ops: NS_OPS,
            us_ops: US_OPS,
        }
    }

    pub fn smoke() -> Size {
        Size {
            reps: 1,
            ns_ops: NS_OPS / 100,
            us_ops: US_OPS / 20,
        }
    }
}

/// Median host nanoseconds per operation over `reps` runs of `f(ops)`.
fn ns_per_op(reps: usize, ops: u64, mut f: impl FnMut(u64) -> u64) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f(black_box(ops)));
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// A cheap deterministic stream for delays and memory points.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// The classic hold model: pop the earliest event, push it back a random
/// 1 µs – 10 ms later, over a standing population of 1000 events.
fn sched_hold(kind: SchedulerKind, ops: u64) -> u64 {
    let mut q: EventQueue<u32> = EventQueue::new(kind);
    let mut rng = Lcg(7);
    for i in 0..1000u32 {
        q.push(Ns(1_000 + rng.next() % 10_000_000), i);
    }
    let mut acc = 0u64;
    for _ in 0..ops {
        let Some((at, _, ev)) = q.pop() else { break };
        acc = acc.wrapping_add(at.0);
        q.push(Ns(at.0 + 1_000 + rng.next() % 10_000_000), ev);
    }
    acc
}

/// Allocate one packet and free the oldest of 512 live ones.
fn arena_ring(ops: u64) -> u64 {
    let mut arena = PacketArena::new();
    let mut ring: Vec<_> = (0..512u64)
        .map(|i| arena.alloc(Packet::data(FlowId::first(0), i, 1500, Ns(i))))
        .collect();
    for i in 0..ops {
        let slot = (i % 512) as usize;
        arena.free(ring[slot]);
        ring[slot] = arena.alloc(Packet::data(FlowId::first(0), i, 1500, Ns(i)));
    }
    arena.live() as u64
}

/// One enqueue + one dequeue per operation through the arena, over a
/// standing queue of 50 packets from 8 flows arriving 50 µs apart (2.5 ms
/// sojourn: below CoDel's target, so the AQMs run their no-drop path).
fn queue_cycle(spec: &QueueSpec, ecn: bool, ops: u64) -> u64 {
    let mut q = spec.build();
    let mut arena = PacketArena::new();
    let mut now = Ns::ZERO;
    let mut out = 0u64;
    for i in 0..ops + 50 {
        now += Ns::from_micros(50);
        let mut p = Packet::data(FlowId::first((i % 8) as usize), i, 1500, now);
        p.ecn_capable = ecn;
        let id = arena.alloc(p);
        q.enqueue(now, id, &mut arena);
        if i >= 50 {
            if let Some(id) = q.dequeue(now, &mut arena) {
                out = out.wrapping_add(arena[id].seq);
                arena.free(id);
            }
        }
    }
    out + q.drops()
}

/// `poll_send` → `on_sent` → `on_ack` for one packet per operation, with 32
/// packets in flight and a 10 ms round trip.
fn ack_cycle(ops: u64) -> u64 {
    let mut t = Transport::new(Box::new(FixedWindow::new(64.0)));
    t.start_connection(Ns::ZERO);
    let rtt = Ns::from_millis(10);
    let mut now = Ns::ZERO;
    let mut oldest = 0u64;
    for i in 0..ops + 32 {
        now += Ns::from_micros(100);
        if let SendPoll::Send { seq, retransmit } = t.poll_send(now, true) {
            t.on_sent(now, seq, retransmit);
        }
        if i >= 32 {
            let ack = Ack {
                flow: FlowId::first(0),
                cum_ack: oldest + 1,
                seq: oldest,
                echo_ts: now.saturating_sub(rtt),
                received_at: now,
                ecn_echo: false,
                xcp_feedback: None,
                new_data: true,
            };
            black_box(t.on_ack(now, &ack));
            oldest += 1;
        }
    }
    t.stats.acks + t.stats.sent
}

/// One `on_ack` per operation: ACKs 100 µs apart, RTT wandering 100–120 ms.
fn on_ack_loop(cc: &mut dyn CongestionControl, ops: u64) -> u64 {
    cc.on_flow_start(Ns::ZERO);
    let min_rtt = Ns::from_millis(100);
    let mut now = Ns::from_millis(100);
    for i in 0..ops {
        now += Ns::from_micros(100);
        let rtt = min_rtt + Ns::from_micros((i % 200) * 100);
        cc.on_ack(&AckInfo {
            now,
            rtt_sample: rtt,
            min_rtt,
            srtt: rtt,
            echo_ts: now.saturating_sub(rtt),
            seq: i,
            newly_acked: 1,
            in_flight: 20,
            in_recovery: false,
            ecn_echo: i % 16 == 0,
            xcp_feedback: None,
        });
    }
    cc.cwnd().to_bits()
}

/// 256 memory points spread over the region training visits.
fn memory_points() -> Vec<Memory> {
    (0..256)
        .map(|i| Memory {
            ack_ewma_ms: (i as f64 * 1.37) % 200.0,
            send_ewma_ms: (i as f64 * 0.91) % 150.0,
            rtt_ratio: 1.0 + (i as f64 * 0.11) % 8.0,
        })
        .collect()
}

fn lookup_loop(points: &[Memory], ops: u64, lookup: impl Fn(Memory) -> usize) -> u64 {
    let mut acc = 0usize;
    for i in 0..ops as usize {
        acc = acc.wrapping_add(lookup(points[i & 255]));
    }
    acc as u64
}

/// Tear one churn flow down and respawn into its slot, as the engine does
/// on each arrival once the table has reached its high-water mark.
fn spawn_free(ops: u64) -> u64 {
    let mut table = FlowTable::new();
    let mut ids: Vec<FlowId> = (0..64)
        .map(|_| {
            table.insert(
                FlowHot::default(),
                FlowCold {
                    transport: Transport::new(Box::new(FixedWindow::new(10.0))),
                    traffic: TrafficProcess::one_shot(3000, 1500, Ns::ZERO),
                    receiver: Receiver::default(),
                    metrics: FlowMetrics::default(),
                    fwd_hops: vec![0],
                    ack_hops: Vec::new(),
                },
            )
        })
        .collect();
    for i in 0..ops {
        let slot = (i % 64) as usize;
        let now = Ns(i * 1000);
        table.free(ids[slot]);
        let respawned = table.respawn(|hot, cold| {
            cold.transport.start_connection(now);
            cold.receiver.reset(cold.transport.next_seq());
            cold.metrics.reset();
            cold.metrics.start_interval(now);
            cold.traffic.reset_one_shot(3000, now);
            *hot = FlowHot {
                spawned_at: now,
                churn: true,
                fwd_len: 1,
                ..FlowHot::default()
            };
        });
        if let Some(id) = respawned {
            ids[slot] = id;
        }
    }
    table.live() as u64
}

fn fat_tree() -> NetworkBuilder {
    NetworkBuilder::fat_tree_k4(
        &LinkSpec::constant(50.0),
        &QueueSpec::DropTail { capacity: 64 },
        Ns::from_micros(100),
    )
}

/// Build the k=4 fat-tree and resolve `fattree_flap`'s six routes.
fn graph_build(ops: u64) -> Result<u64, String> {
    let pairs = [
        ("pod0_edge0", "pod1_edge0"),
        ("pod1_edge1", "pod2_edge1"),
        ("pod2_edge0", "pod3_edge0"),
        ("pod0_edge1", "pod3_edge1"),
        ("pod0_edge0", "pod0_edge1"),
        ("pod2_edge1", "pod2_edge0"),
    ];
    let mut acc = 0u64;
    for _ in 0..ops {
        let net = fat_tree().build()?;
        let flows = pairs
            .iter()
            .map(|(s, d)| {
                Ok((
                    net.router(s).ok_or("router")?,
                    net.router(d).ok_or("router")?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let topo = net.into_topology(&flows, Vec::new(), FailoverPolicy::Reroute)?;
        acc += topo.paths.iter().map(|p| p.fwd.len() as u64).sum::<u64>();
    }
    Ok(acc)
}

/// Every probe row, in the order the README lists them.
pub fn run_all(size: Size) -> Result<Vec<(&'static str, f64)>, String> {
    let Size {
        reps,
        ns_ops,
        us_ops,
    } = size;
    let mut rows: Vec<(&'static str, f64)> = Vec::new();

    rows.push((
        "sched.wheel_push_pop_ns",
        ns_per_op(reps, ns_ops, |n| sched_hold(SchedulerKind::Wheel, n)),
    ));
    rows.push((
        "sched.heap_push_pop_ns",
        ns_per_op(reps, ns_ops, |n| sched_hold(SchedulerKind::Heap, n)),
    ));
    rows.push((
        "packet.arena_alloc_free_ns",
        ns_per_op(reps, ns_ops, arena_ring),
    ));

    let queues = [
        (
            "queue.droptail_ns",
            QueueSpec::DropTail { capacity: 1000 },
            false,
        ),
        (
            "queue.ecn_ns",
            QueueSpec::Ecn {
                capacity: 1000,
                mark_threshold: 20,
            },
            true,
        ),
        ("queue.codel_ns", QueueSpec::Codel { capacity: 1000 }, false),
        (
            "queue.sfqcodel_ns",
            QueueSpec::SfqCodel {
                capacity: 1000,
                buckets: 64,
            },
            false,
        ),
    ];
    for (name, spec, ecn) in queues {
        rows.push((
            name,
            ns_per_op(reps, ns_ops, |n| queue_cycle(&spec, ecn, n)),
        ));
    }

    rows.push(("transport.ack_cycle_ns", ns_per_op(reps, ns_ops, ack_cycle)));

    let delta1 = Arc::new(load_table(&format!("{INPUT_DIR}/tables/delta1.json"))?);
    let deep = load_table(&format!("{INPUT_DIR}/tables/delta1_deep.json"))?;
    rows.push((
        "cc.remycc.on_ack_ns",
        ns_per_op(reps, ns_ops, |n| {
            on_ack_loop(&mut RemyCc::new(Arc::clone(&delta1)), n)
        }),
    ));
    let schemes = [
        ("cc.newreno.on_ack_ns", Scheme::NewReno),
        ("cc.cubic.on_ack_ns", Scheme::Cubic),
        ("cc.vegas.on_ack_ns", Scheme::Vegas),
        ("cc.compound.on_ack_ns", Scheme::Compound),
        ("cc.dctcp.on_ack_ns", Scheme::Dctcp { mark_threshold: 8 }),
    ];
    for (name, scheme) in schemes {
        rows.push((
            name,
            ns_per_op(reps, ns_ops, |n| on_ack_loop(scheme.build_cc().as_mut(), n)),
        ));
    }

    let points = memory_points();
    let (flat, flat_deep) = (delta1.flat(), deep.flat());
    rows.push((
        "whisker.flat_lookup_ns",
        ns_per_op(reps, ns_ops, |n| {
            lookup_loop(&points, n, |m| flat.lookup(m).id)
        }),
    ));
    rows.push((
        "whisker.flat_lookup_deep_ns",
        ns_per_op(reps, ns_ops, |n| {
            lookup_loop(&points, n, |m| flat_deep.lookup(m).id)
        }),
    ));
    rows.push((
        "whisker.octree_lookup_deep_ns",
        ns_per_op(reps, ns_ops, |n| {
            lookup_loop(&points, n, |m| deep.lookup(m).id)
        }),
    ));

    let us = |ns: f64| ns / 1000.0;
    rows.push((
        "whisker.clone_us",
        us(ns_per_op(reps, us_ops, |n| {
            (0..n)
                .map(|_| black_box(deep.clone()).id_bound() as u64)
                .sum()
        })),
    ));
    rows.push((
        "action.neighbourhood_us",
        us(ns_per_op(reps, us_ops, |n| {
            (0..n)
                .map(|_| black_box(Action::DEFAULT).neighbourhood().len() as u64)
                .sum()
        })),
    ));
    rows.push(("flow.spawn_free_ns", ns_per_op(reps, ns_ops, spawn_free)));

    let mut build_error = None;
    rows.push((
        "graph.build_us",
        us(ns_per_op(reps, us_ops, |n| {
            graph_build(n).unwrap_or_else(|e| {
                build_error = Some(e);
                0
            })
        })),
    ));
    if let Some(e) = build_error {
        return Err(format!("graph.build probe: {e}"));
    }
    let net = fat_tree().build()?;
    let mut down = vec![false; net.graph().links.len()];
    down[32] = true;
    rows.push((
        "graph.forwarding_us",
        us(ns_per_op(reps, us_ops, |n| {
            (0..n)
                .map(|_| black_box(net.graph().forwarding(black_box(&down))).len() as u64)
                .sum()
        })),
    ));
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_loops_do_the_work_they_claim() {
        // The hold model keeps its population; every op is one pop + push.
        assert_eq!(
            sched_hold(SchedulerKind::Wheel, 5_000),
            sched_hold(SchedulerKind::Heap, 5_000),
            "both schedulers pop the same times"
        );
        assert_eq!(arena_ring(2_000), 512);
        assert_eq!(spawn_free(2_000), 64);
        // 1000 cycles + 32 to fill the pipe: one send and one ack each.
        assert_eq!(ack_cycle(1_000), 1_000 + 1_032);
        let drained = queue_cycle(&QueueSpec::DropTail { capacity: 1000 }, false, 1_000);
        // Sequence numbers 0..1000 dequeued in order, nothing dropped.
        assert_eq!(drained, (0..1_000u64).sum::<u64>());
        assert!(graph_build(1).expect("fat-tree routes") >= 6 * 2);
    }

    #[test]
    fn ns_per_op_divides_by_the_operation_count() {
        let v = ns_per_op(3, 1000, |n| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            n
        });
        assert!(
            (2_000.0..50_000.0).contains(&v),
            "{v} ns/op for 2 ms / 1000 ops"
        );
    }
}
