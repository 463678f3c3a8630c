//! Randomized property tests of netsim's core invariants, each run on
//! `netsim::rng::CASES` seeded cases by `netsim::rng::cases`.

use netsim::cc::FixedWindow;
use netsim::flow::{FlowCold, FlowHot, FlowTable, Receiver};
use netsim::link::{DeliverySchedule, TraceWalk};
use netsim::metrics::FlowMetrics;
use netsim::packet::{FlowId, Packet, PacketArena, PacketId};
use netsim::queue::{Codel, DropTail, Enqueue, Queue, SfqCodel};
use netsim::rng::{cases, SimRng};
use netsim::sched::{EventQueue, SchedulerKind};
use netsim::stats;
use netsim::time::Ns;
use netsim::traffic::TrafficProcess;
use netsim::transport::Transport;

fn pkt(flow: usize, seq: u64) -> Packet {
    Packet::data(FlowId::first(flow), seq, 1500, Ns::ZERO)
}

fn cold_flow(bytes: u64) -> FlowCold {
    FlowCold {
        transport: Transport::new(Box::new(FixedWindow::new(10.0))),
        traffic: TrafficProcess::one_shot(bytes, 1500, Ns::ZERO),
        receiver: Receiver::default(),
        metrics: FlowMetrics::default(),
        fwd_hops: vec![0],
        ack_hops: Vec::new(),
    }
}

fn push(q: &mut dyn Queue, a: &mut PacketArena, now: Ns, p: Packet) -> Enqueue {
    let id = a.alloc(p);
    q.enqueue(now, id, a)
}

fn pull(q: &mut dyn Queue, a: &mut PacketArena, now: Ns) -> Option<Packet> {
    let id = q.dequeue(now, a)?;
    let p = a[id].clone();
    a.free(id);
    Some(p)
}

/// The instants of a delivery schedule: 1 to `max_len` of them, spaced by
/// gaps in `[1, max_gap)`.
fn instants(rng: &mut SimRng, max_len: usize, max_gap: u64) -> Vec<Ns> {
    let mut t = 0u64;
    (0..rng.range_usize(1, max_len))
        .map(|_| {
            t += rng.range_u64(1, max_gap - 1);
            Ns(t)
        })
        .collect()
}

/// Ns::from_secs_f64 round-trips within a nanosecond for sane values.
#[test]
fn ns_round_trip() {
    cases("ns_round_trip", |rng| {
        let secs = rng.range_f64(0.0, 1e6);
        let ns = Ns::from_secs_f64(secs);
        assert!((ns.as_secs_f64() - secs).abs() < 1e-9 * secs.max(1.0));
    });
}

/// Saturating arithmetic never panics or wraps.
#[test]
fn ns_saturating() {
    cases("ns_saturating", |rng| {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let x = Ns(a).saturating_sub(Ns(b));
        assert!(x.0 <= a);
        let y = Ns(a).saturating_add(Ns(b));
        assert!(y.0 >= a.max(b) || y == Ns::MAX);
    });
}

/// DropTail conserves packets: everything enqueued is either dropped
/// (counted, slot freed) or eventually dequeued, in FIFO order.
#[test]
fn droptail_conserves() {
    cases("droptail_conserves", |rng| {
        let mut arena = PacketArena::new();
        let mut q = DropTail::new(rng.range_usize(1, 63));
        let mut inserted = 0u64;
        let mut removed = 0u64;
        let mut next_seq = 0u64;
        let mut expected_head = 0u64;
        for _ in 0..rng.range_usize(1, 199) {
            if rng.range_u64(0, 2) < 2 {
                match push(&mut q, &mut arena, Ns(inserted), pkt(0, next_seq)) {
                    Enqueue::Queued => {
                        inserted += 1;
                        next_seq += 1;
                    }
                    Enqueue::Dropped => next_seq += 1,
                }
            } else if let Some(p) = pull(&mut q, &mut arena, Ns(1000)) {
                assert!(p.seq >= expected_head, "FIFO order");
                expected_head = p.seq + 1;
                removed += 1;
            }
        }
        while pull(&mut q, &mut arena, Ns(2000)).is_some() {
            removed += 1;
        }
        assert_eq!(inserted, removed);
        assert_eq!(q.bytes(), 0);
        assert_eq!(arena.live(), 0);
    });
}

/// CoDel never loses packets silently: enqueued = dequeued + drops.
#[test]
fn codel_accounts_for_everything() {
    cases("codel_accounts_for_everything", |rng| {
        let n = rng.range_usize(1, 299);
        let delay_ms = rng.range_u64(0, 199);
        let mut arena = PacketArena::new();
        let mut q = Codel::new(1000);
        for i in 0..n {
            push(&mut q, &mut arena, Ns::ZERO, pkt(0, i as u64));
        }
        let mut out = 0u64;
        let mut t = Ns::from_millis(delay_ms);
        for _ in 0..(2 * n) {
            if pull(&mut q, &mut arena, t).is_some() {
                out += 1;
            }
            t += Ns::from_millis(1);
            if q.is_empty() {
                break;
            }
        }
        assert_eq!(out + q.drops() + q.len() as u64, n as u64);
        assert_eq!(
            arena.live(),
            q.len(),
            "arena tracks exactly the queued packets"
        );
    });
}

/// sfqCoDel with ample capacity conserves packets across flows.
#[test]
fn sfq_conserves() {
    cases("sfq_conserves", |rng| {
        let flows = rng.range_usize(1, 9);
        let per_flow = rng.range_usize(1, 19);
        let mut arena = PacketArena::new();
        let mut q = SfqCodel::new(100_000, 32);
        for f in 0..flows {
            for s in 0..per_flow {
                push(&mut q, &mut arena, Ns::ZERO, pkt(f, s as u64));
            }
        }
        let mut got = vec![0usize; flows];
        while let Some(p) = pull(&mut q, &mut arena, Ns::from_micros(1)) {
            got[p.flow.index() as usize] += 1;
        }
        for &count in &got {
            assert_eq!(count, per_flow);
        }
        assert_eq!(arena.live(), 0);
    });
}

/// The timing wheel (with its FIFO lanes) and the binary heap dequeue
/// any randomized event workload in the identical (time, insertion-id)
/// order — including same-timestamp bursts, zero-delay self-schedules,
/// and far-future RTO-style deadlines — under arbitrary push/pop
/// interleavings. Lane pushes cover monotone runs per class, pushes
/// earlier than their lane's tail (which fall back to the wheel), more
/// classes than lanes, same-nanosecond ties with wheel entries, lanes
/// draining and refilling beside far-future cascades, and times near
/// `Ns::MAX`.
#[test]
fn wheel_matches_heap_on_random_workloads() {
    cases("wheel_matches_heap_on_random_workloads", |rng| {
        let mut heap = EventQueue::new(SchedulerKind::Heap);
        let mut wheel = EventQueue::new(SchedulerKind::Wheel);
        let mut now = Ns::ZERO; // time of the last pop: pushes never precede it
        let mut payload = 0u64;
        // A class's constant delay, as the engine keys its lanes; class 0
        // is "now", tying with same-instant wheel pushes.
        let delay = |class: u64| class * 3_333_333;
        for _ in 0..rng.range_usize(1, 299) {
            let op = rng.range_u64(0, 8);
            let burst = rng.range_u64(0, 7);
            let class = rng.range_u64(0, 11);
            let raw = rng.next_u64();
            if op < 6 {
                // Push a burst of events at one instant. Offsets mix the
                // engine's regimes: same-instant (0), sub-granule jitter or
                // a lane's own delay, typical RTT-scale delays, and
                // far-future RTO deadlines; lane pushes at their class's
                // delay, at an arbitrary earlier point, or near the end of
                // time.
                let (lane, at) = match op {
                    0 => (false, now),
                    1 if raw % 2 == 0 => (false, now.saturating_add(Ns(raw % 1_000))),
                    1 => (false, now.saturating_add(Ns(delay(class)))),
                    2 => (false, now.saturating_add(Ns(raw % (120 * 1_000_000_000)))),
                    3 => (true, now.saturating_add(Ns(delay(class)))),
                    4 => (true, now.saturating_add(Ns(raw % (delay(class) + 1)))),
                    _ => (true, Ns((u64::MAX - raw % 4_096).max(now.0))),
                };
                for _ in 0..=burst {
                    heap.push(at, payload);
                    if lane {
                        wheel.push_lane(class, at, payload);
                    } else {
                        wheel.push(at, payload);
                    }
                    payload += 1;
                }
            } else {
                let (a, b) = (heap.pop(), wheel.pop());
                assert_eq!(a, b, "pop order diverged");
                if let Some((at, _, _)) = a {
                    now = at;
                }
            }
            assert_eq!(heap.len(), wheel.len());
        }
        // Drain: the tails must agree element-for-element too.
        loop {
            let (a, b) = (heap.pop(), wheel.pop());
            assert_eq!(a, b, "drain order diverged");
            if a.is_none() {
                break;
            }
        }
    });
}

/// Recycled arena slots never alias: after any alloc/free interleaving,
/// every freed handle is dead and every live handle still reads its
/// own packet.
#[test]
fn arena_generations_never_alias() {
    cases("arena_generations_never_alias", |rng| {
        let mut arena = PacketArena::new();
        let mut live: Vec<(PacketId, u64)> = Vec::new();
        let mut dead: Vec<PacketId> = Vec::new();
        let mut stamp = 0u64;
        for _ in 0..rng.range_usize(1, 199) {
            if rng.chance(0.5) || live.is_empty() {
                let id = arena.alloc(pkt(7, stamp));
                live.push((id, stamp));
                stamp += 1;
            } else {
                let idx = rng.range_usize(0, live.len() - 1);
                let (id, _) = live.swap_remove(idx);
                arena.free(id);
                dead.push(id);
            }
            for (id, seq) in &live {
                assert!(arena.index_of(*id).is_some());
                assert_eq!(arena[*id].seq, *seq, "live handle reads its own packet");
            }
            for id in &dead {
                assert_eq!(arena.index_of(*id), None, "freed handle stays dead forever");
            }
        }
        assert_eq!(arena.live(), live.len());
    });
}

/// The flow table mirrors the arena's guarantee: after any
/// spawn/teardown interleaving (respawning into freed slots whenever
/// one exists, exactly as churn does), every freed `FlowId` is dead
/// forever and every live one still reads its own flow's state.
#[test]
fn flow_table_generations_never_alias() {
    cases("flow_table_generations_never_alias", |rng| {
        let mut table = FlowTable::new();
        let mut live: Vec<(FlowId, u64)> = Vec::new();
        let mut dead: Vec<FlowId> = Vec::new();
        let mut stamp = 1u64;
        for _ in 0..rng.range_usize(1, 199) {
            if rng.chance(0.5) || live.is_empty() {
                let s = stamp;
                let id = match table.respawn(|hot, cold| {
                    hot.spawned_at = Ns(s);
                    cold.traffic.reset_one_shot(s, Ns::ZERO);
                }) {
                    Some(id) => id,
                    None => table.insert(
                        FlowHot {
                            spawned_at: Ns(s),
                            ..FlowHot::default()
                        },
                        cold_flow(s),
                    ),
                };
                live.push((id, s));
                stamp += 1;
            } else {
                let idx = rng.range_usize(0, live.len() - 1);
                let (id, _) = live.swap_remove(idx);
                table.free(id);
                dead.push(id);
            }
            for (id, s) in &live {
                let i = table.index_of(*id).expect("live handle resolves");
                assert_eq!(
                    table.hot(i).spawned_at,
                    Ns(*s),
                    "live handle reads its own flow"
                );
            }
            for id in &dead {
                assert_eq!(table.index_of(*id), None, "freed handle stays dead forever");
            }
            assert!(table.audit_accounting());
        }
        assert_eq!(table.live(), live.len());
        // Slots, not allocations: capacity is bounded by peak concurrency.
        assert!(table.capacity() <= stamp as usize);
    });
}

/// Delivery schedules: a walk is strictly increasing and respects the
/// period structure (the opportunity `len()` steps on is one period later).
#[test]
fn schedule_monotonic() {
    cases("schedule_monotonic", |rng| {
        let instants = instants(rng, 49, 1_000_000);
        let s = DeliverySchedule::new(instants, Ns(rng.range_u64(1, 999_999)));
        let mut walk = TraceWalk::default();
        let at: Vec<Ns> = (0..s.len() + 20).map(|_| s.step(&mut walk)).collect();
        assert!(at[0] > Ns::ZERO);
        assert!(at.windows(2).all(|w| w[0] < w[1]));
        for k in 0..20 {
            assert_eq!(at[k + s.len()], at[k] + s.period());
        }
    });
}

/// Counting delivery opportunities matches enumerating them with a walk
/// over the same window: the k-th instant walked is where the count
/// reaches k, and the instant before it is not.
#[test]
fn schedule_opportunity_count_matches_enumeration() {
    cases("schedule_opportunity_count_matches_enumeration", |rng| {
        let instants = instants(rng, 11, 1_000);
        let s = DeliverySchedule::new(instants, Ns(rng.range_u64(1, 999)));
        let window = Ns(rng.range_u64(0, 19_999));
        let mut walk = TraceWalk::default();
        let mut brute = 0u64;
        loop {
            let at = s.step(&mut walk);
            assert_eq!(s.opportunities_through(Ns(at.0 - 1)), brute);
            if at > window {
                break;
            }
            brute += 1;
            assert_eq!(s.opportunities_through(at), brute);
        }
        assert_eq!(s.opportunities_through(window), brute);
    });
}

/// Quantiles are monotone in q and bounded by the sample range.
#[test]
fn quantiles_monotone() {
    cases("quantiles_monotone", |rng| {
        let mut xs: Vec<f64> = (0..rng.range_usize(1, 99))
            .map(|_| rng.range_f64(-1e6, 1e6))
            .collect();
        xs.sort_by(f64::total_cmp);
        let lo = xs[0];
        let hi = xs[xs.len() - 1];
        let mut prev = f64::NEG_INFINITY;
        for k in 0..=10 {
            let q = stats::quantile(&xs, k as f64 / 10.0);
            assert!(q >= prev - 1e-9);
            assert!(q >= lo - 1e-9 && q <= hi + 1e-9);
            prev = q;
        }
    });
}

/// The RNG's uniform range draws stay in bounds for arbitrary bounds.
#[test]
fn rng_range_in_bounds() {
    cases("rng_range_in_bounds", |rng| {
        let lo = rng.range_u64(0, 999);
        let hi = lo + rng.range_u64(0, 999);
        let mut drawn = SimRng::new(rng.next_u64());
        for _ in 0..100 {
            let x = drawn.range_u64(lo, hi);
            assert!(x >= lo && x <= hi);
        }
    });
}

/// Exponential draws are non-negative; pareto draws respect the floor.
#[test]
fn rng_distributions_bounds() {
    cases("rng_distributions_bounds", |rng| {
        let mean = rng.range_f64(0.001, 100.0);
        let mut drawn = SimRng::new(rng.next_u64());
        for _ in 0..50 {
            assert!(drawn.exponential(mean) >= 0.0);
            assert!(drawn.pareto(mean, 0.5) >= mean);
        }
    });
}
