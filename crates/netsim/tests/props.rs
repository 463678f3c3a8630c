//! Property-based tests of netsim's core invariants.

use netsim::cc::FixedWindow;
use netsim::flow::{FlowCold, FlowHot, FlowTable, Receiver};
use netsim::link::DeliverySchedule;
use netsim::metrics::FlowMetrics;
use netsim::packet::{FlowId, Packet, PacketArena, PacketId};
use netsim::queue::{Codel, DropTail, Enqueue, Queue, SfqCodel};
use netsim::rng::SimRng;
use netsim::sched::{EventQueue, SchedulerKind};
use netsim::stats;
use netsim::time::Ns;
use netsim::traffic::TrafficProcess;
use netsim::transport::Transport;
use proptest::prelude::*;

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

proptest! {
    /// Ns::from_secs_f64 round-trips within a nanosecond for sane values.
    #[test]
    fn ns_round_trip(secs in 0.0f64..1e6) {
        let ns = Ns::from_secs_f64(secs);
        prop_assert!((ns.as_secs_f64() - secs).abs() < 1e-9 * secs.max(1.0));
    }

    /// Saturating arithmetic never panics or wraps.
    #[test]
    fn ns_saturating(a in any::<u64>(), b in any::<u64>()) {
        let x = Ns(a).saturating_sub(Ns(b));
        prop_assert!(x.0 <= a);
        let y = Ns(a).saturating_add(Ns(b));
        prop_assert!(y.0 >= a.max(b) || y == Ns::MAX);
    }

    /// DropTail conserves packets: everything enqueued is either dropped
    /// (counted, slot freed) or eventually dequeued, in FIFO order.
    #[test]
    fn droptail_conserves(cap in 1usize..64, ops in prop::collection::vec(0u8..3, 1..200)) {
        let mut arena = PacketArena::new();
        let mut q = DropTail::new(cap);
        let mut inserted = 0u64;
        let mut removed = 0u64;
        let mut next_seq = 0u64;
        let mut expected_head = 0u64;
        for op in ops {
            if op < 2 {
                match push(&mut q, &mut arena, Ns(inserted), pkt(0, next_seq)) {
                    Enqueue::Queued => { inserted += 1; next_seq += 1; }
                    Enqueue::Dropped => { next_seq += 1; }
                }
            } else if let Some(p) = pull(&mut q, &mut arena, Ns(1000)) {
                prop_assert!(p.seq >= expected_head, "FIFO order");
                expected_head = p.seq + 1;
                removed += 1;
            }
        }
        while pull(&mut q, &mut arena, Ns(2000)).is_some() { removed += 1; }
        prop_assert_eq!(inserted, removed);
        prop_assert_eq!(q.bytes(), 0);
        prop_assert_eq!(arena.live(), 0);
    }

    /// CoDel never loses packets silently: enqueued = dequeued + drops.
    #[test]
    fn codel_accounts_for_everything(n in 1usize..300, delay_ms in 0u64..200) {
        let mut arena = PacketArena::new();
        let mut q = Codel::new(1000);
        for i in 0..n {
            push(&mut q, &mut arena, Ns::ZERO, pkt(0, i as u64));
        }
        let mut out = 0u64;
        let mut t = Ns::from_millis(delay_ms);
        for _ in 0..(2 * n) {
            if pull(&mut q, &mut arena, t).is_some() { out += 1; }
            t += Ns::from_millis(1);
            if q.is_empty() { break; }
        }
        prop_assert_eq!(out + q.drops() + q.len() as u64, n as u64);
        prop_assert_eq!(arena.live(), q.len(), "arena tracks exactly the queued packets");
    }

    /// sfqCoDel with ample capacity conserves packets across flows.
    #[test]
    fn sfq_conserves(flows in 1usize..10, per_flow in 1usize..20) {
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
            prop_assert_eq!(count, per_flow);
        }
        prop_assert_eq!(arena.live(), 0);
    }

    /// The timing wheel and the binary heap dequeue any randomized event
    /// workload in the identical (time, insertion-id) order — including
    /// same-timestamp bursts, zero-delay self-schedules, and far-future
    /// RTO-style deadlines — under arbitrary push/pop interleavings.
    #[test]
    fn wheel_matches_heap_on_random_workloads(
        ops in prop::collection::vec((0u8..4, 0u32..8, any::<u64>()), 1..300),
    ) {
        let mut heap = EventQueue::new(SchedulerKind::Heap);
        let mut wheel = EventQueue::new(SchedulerKind::Wheel);
        let mut now = Ns::ZERO; // time of the last pop: pushes never precede it
        let mut payload = 0u64;
        for (op, burst, raw) in ops {
            if op < 3 {
                // Push a burst of events at one instant. Offsets mix the
                // engine's regimes: same-instant (0), sub-granule jitter,
                // typical RTT-scale delays, and far-future RTO deadlines.
                let offset = match op {
                    0 => 0,
                    1 => raw % 1_000,                       // within one wheel granule
                    _ => raw % (120 * 1_000_000_000),       // up to two minutes out
                };
                let at = now.saturating_add(Ns(offset));
                for _ in 0..=burst {
                    heap.push(at, payload);
                    wheel.push(at, payload);
                    payload += 1;
                }
            } else {
                let (a, b) = (heap.pop(), wheel.pop());
                prop_assert_eq!(a, b, "pop order diverged");
                if let Some((at, _, _)) = a { now = at; }
            }
            prop_assert_eq!(heap.len(), wheel.len());
        }
        // Drain: the tails must agree element-for-element too.
        loop {
            let (a, b) = (heap.pop(), wheel.pop());
            prop_assert_eq!(a, b, "drain order diverged");
            if a.is_none() { break; }
        }
    }

    /// Recycled arena slots never alias: after any alloc/free interleaving,
    /// every freed handle is dead and every live handle still reads its
    /// own packet.
    #[test]
    fn arena_generations_never_alias(ops in prop::collection::vec((any::<bool>(), any::<u32>()), 1..200)) {
        let mut arena = PacketArena::new();
        let mut live: Vec<(PacketId, u64)> = Vec::new();
        let mut dead: Vec<PacketId> = Vec::new();
        let mut stamp = 0u64;
        for (do_alloc, pick) in ops {
            if do_alloc || live.is_empty() {
                let id = arena.alloc(pkt(7, stamp));
                live.push((id, stamp));
                stamp += 1;
            } else {
                let idx = pick as usize % live.len();
                let (id, _) = live.swap_remove(idx);
                arena.free(id);
                dead.push(id);
            }
            for (id, seq) in &live {
                prop_assert!(arena.contains(*id));
                prop_assert_eq!(arena[*id].seq, *seq, "live handle reads its own packet");
            }
            for id in &dead {
                prop_assert!(!arena.contains(*id), "freed handle stays dead forever");
            }
        }
        prop_assert_eq!(arena.live(), live.len());
    }

    /// The flow table mirrors the arena's guarantee: after any
    /// spawn/teardown interleaving (respawning into freed slots whenever
    /// one exists, exactly as churn does), every freed `FlowId` is dead
    /// forever and every live one still reads its own flow's state.
    #[test]
    fn flow_table_generations_never_alias(ops in prop::collection::vec((any::<bool>(), any::<u32>()), 1..200)) {
        let mut table = FlowTable::new();
        let mut live: Vec<(FlowId, u64)> = Vec::new();
        let mut dead: Vec<FlowId> = Vec::new();
        let mut stamp = 1u64;
        for (do_spawn, pick) in ops {
            if do_spawn || live.is_empty() {
                let s = stamp;
                let id = match table.respawn(|hot, cold| {
                    hot.spawned_at = Ns(s);
                    cold.traffic.reset_one_shot(s, Ns::ZERO);
                }) {
                    Some(id) => id,
                    None => table.insert(
                        FlowHot { spawned_at: Ns(s), ..FlowHot::default() },
                        cold_flow(s),
                    ),
                };
                live.push((id, s));
                stamp += 1;
            } else {
                let idx = pick as usize % live.len();
                let (id, _) = live.swap_remove(idx);
                table.free(id);
                dead.push(id);
            }
            for (id, s) in &live {
                prop_assert!(table.contains(*id));
                let i = table.index_of(*id).expect("live handle resolves");
                prop_assert_eq!(table.hot(i).spawned_at, Ns(*s), "live handle reads its own flow");
            }
            for id in &dead {
                prop_assert!(!table.contains(*id), "freed handle stays dead forever");
                prop_assert!(table.index_of(*id).is_none());
            }
            prop_assert!(table.audit_accounting());
        }
        prop_assert_eq!(table.live(), live.len());
        // Slots, not allocations: capacity is bounded by peak concurrency.
        prop_assert!(table.capacity() <= stamp as usize);
    }

    /// Delivery schedules: next_after is strictly increasing and respects
    /// the period structure.
    #[test]
    fn schedule_monotonic(
        gaps in prop::collection::vec(1u64..1_000_000, 1..50),
        tail in 1u64..1_000_000,
        start in 0u64..10_000_000,
    ) {
        let mut t = 0u64;
        let instants: Vec<Ns> = gaps.iter().map(|g| { t += g; Ns(t) }).collect();
        let s = DeliverySchedule::new(instants, Ns(tail));
        let mut prev = Ns(start);
        for _ in 0..20 {
            let next = s.next_after(prev);
            prop_assert!(next > prev);
            prev = next;
        }
    }

    /// Counting delivery opportunities matches brute-force enumeration via
    /// next_after over the same window.
    #[test]
    fn schedule_opportunity_count_matches_enumeration(
        gaps in prop::collection::vec(1u64..1_000, 1..12),
        tail in 1u64..1_000,
        window in 0u64..20_000,
    ) {
        let mut t = 0u64;
        let instants: Vec<Ns> = gaps.iter().map(|g| { t += g; Ns(t) }).collect();
        let s = DeliverySchedule::new(instants, Ns(tail));
        let mut brute = 0u64;
        let mut at = Ns::ZERO;
        loop {
            at = s.next_after(at);
            if at > Ns(window) { break; }
            brute += 1;
        }
        prop_assert_eq!(s.opportunities_through(Ns(window)), brute);
    }

    /// Quantiles are monotone in q and bounded by the sample range.
    #[test]
    fn quantiles_monotone(mut xs in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = xs[0];
        let hi = xs[xs.len() - 1];
        let mut prev = f64::NEG_INFINITY;
        for k in 0..=10 {
            let q = stats::quantile(&xs, k as f64 / 10.0);
            prop_assert!(q >= prev - 1e-9);
            prop_assert!(q >= lo - 1e-9 && q <= hi + 1e-9);
            prev = q;
        }
    }

    /// The RNG's uniform range draws stay in bounds for arbitrary bounds.
    #[test]
    fn rng_range_in_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 0u64..1000) {
        let mut rng = SimRng::new(seed);
        let hi = lo + span;
        for _ in 0..100 {
            let x = rng.range_u64(lo, hi);
            prop_assert!(x >= lo && x <= hi);
        }
    }

    /// Exponential draws are non-negative; pareto draws respect the floor.
    #[test]
    fn rng_distributions_bounds(seed in any::<u64>(), mean in 0.001f64..100.0) {
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.exponential(mean) >= 0.0);
            prop_assert!(rng.pareto(mean, 0.5) >= mean);
        }
    }
}
