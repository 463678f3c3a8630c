//! Randomized property tests of Remy's rule-table machinery, each run on
//! `netsim::rng::CASES` seeded cases by `netsim::rng::cases`.

use netsim::rng::{cases, SimRng};
use netsim::time::Ns;
use remy::action::Action;
use remy::memory::{Memory, MemoryTracker, EWMA_GAIN, MEMORY_MAX};
use remy::whisker::{Usage, WhiskerTree};

fn arb_memory(rng: &mut SimRng) -> Memory {
    Memory {
        ack_ewma_ms: rng.range_f64(0.0, MEMORY_MAX),
        send_ewma_ms: rng.range_f64(0.0, MEMORY_MAX),
        rtt_ratio: rng.range_f64(0.0, MEMORY_MAX),
    }
}

/// `lo` to `hi` memory points.
fn arb_memories(rng: &mut SimRng, lo: usize, hi: usize) -> Vec<Memory> {
    (0..rng.range_usize(lo, hi))
        .map(|_| arb_memory(rng))
        .collect()
}

/// The §4.1 memory update written out with nothing cached: what
/// `MemoryTracker::on_ack` must return, bit for bit.
#[derive(Default)]
struct DirectMemory {
    mem: Memory,
    last_ack: Option<Ns>,
    last_echo: Option<Ns>,
}

impl DirectMemory {
    fn on_ack(&mut self, now: Ns, echo_ts: Ns, rtt_sample: Ns, min_rtt: Ns) -> Memory {
        if let Some(last) = self.last_ack {
            let gap = now.saturating_sub(last).as_millis_f64();
            self.mem.ack_ewma_ms += EWMA_GAIN * (gap - self.mem.ack_ewma_ms);
        }
        self.last_ack = Some(now);
        if let Some(last) = self.last_echo {
            let gap = echo_ts.saturating_sub(last).as_millis_f64();
            self.mem.send_ewma_ms += EWMA_GAIN * (gap - self.mem.send_ewma_ms);
        }
        self.last_echo = Some(echo_ts);
        if !min_rtt.is_zero() && min_rtt != Ns::MAX {
            self.mem.rtt_ratio = rtt_sample.as_secs_f64() / min_rtt.as_secs_f64();
        }
        self.mem = Memory {
            ack_ewma_ms: self.mem.ack_ewma_ms.clamp(0.0, MEMORY_MAX),
            send_ewma_ms: self.mem.send_ewma_ms.clamp(0.0, MEMORY_MAX),
            rtt_ratio: self.mem.rtt_ratio.clamp(0.0, MEMORY_MAX),
        };
        self.mem
    }
}

fn bits(m: Memory) -> [u64; 3] {
    [
        m.ack_ewma_ms.to_bits(),
        m.send_ewma_ms.to_bits(),
        m.rtt_ratio.to_bits(),
    ]
}

/// The whisker tree is a partition: after arbitrary splits, every
/// memory point maps to exactly one rule whose domain contains it.
#[test]
fn tree_partition_property() {
    cases("tree_partition_property", |rng| {
        let mut tree = WhiskerTree::single_rule();
        for p in arb_memories(rng, 0, 11) {
            let id = tree.lookup(p).id;
            let _ = tree.split(id, p);
        }
        for m in arb_memories(rng, 1, 49) {
            let w = tree.get(tree.lookup(m).id).expect("live rule");
            assert!(
                w.domain.contains(m.clamped()),
                "lookup returned a rule not containing the probe"
            );
        }
    });
}

/// Rule count after k successful splits is 1 + 7k (each split
/// replaces one leaf with eight).
#[test]
fn split_counts() {
    cases("split_counts", |rng| {
        let mut tree = WhiskerTree::single_rule();
        let mut ok = 0usize;
        for p in arb_memories(rng, 0, 9) {
            let id = tree.lookup(p).id;
            if tree.split(id, p) {
                ok += 1;
            }
        }
        assert_eq!(tree.len(), 1 + 7 * ok);
    });
}

/// Action application always lands in the legal window range.
#[test]
fn action_apply_bounded() {
    cases("action_apply_bounded", |rng| {
        let a = Action {
            window_multiple: rng.range_f64(-10.0, 10.0),
            window_increment: rng.range_f64(-1e4, 1e4),
            intersend_ms: rng.range_f64(-10.0, 1e4),
        }
        .clamped();
        let out = a.apply(rng.range_f64(0.0, 1e5));
        assert!((1.0..=4096.0).contains(&out));
        assert!(a.intersend_ms > 0.0);
    });
}

/// Candidate neighbourhoods never contain the current action and stay
/// clamped.
#[test]
fn neighbourhood_well_formed() {
    cases("neighbourhood_well_formed", |rng| {
        let a = Action {
            window_multiple: rng.range_f64(0.0, 2.0),
            window_increment: rng.range_f64(-64.0, 256.0),
            intersend_ms: rng.range_f64(0.001, 100.0),
        }
        .clamped();
        let n = a.neighbourhood();
        assert!(!n.is_empty());
        for c in &n {
            assert!(*c != a);
            assert!(c.window_multiple >= 0.0 && c.window_multiple <= 2.0);
            assert!(c.intersend_ms >= 0.001);
        }
    });
}

/// Memory clamping is idempotent and in-domain.
#[test]
fn memory_clamp() {
    cases("memory_clamp", |rng| {
        let m = Memory {
            ack_ewma_ms: rng.range_f64(-1e9, 1e9),
            send_ewma_ms: rng.range_f64(-1e9, 1e9),
            rtt_ratio: rng.range_f64(-1e9, 1e9),
        }
        .clamped();
        for i in 0..3 {
            assert!((0.0..=MEMORY_MAX).contains(&m.axis(i)));
        }
        assert_eq!(m.clamped(), m);
    });
}

/// The tracker (which converts `min_rtt` only when it changes) equals
/// the direct formula bit for bit, over ACK streams whose minimum RTT
/// steps down, jumps, is unset (zero or `Ns::MAX`), and whose tracker
/// is reset mid-stream.
#[test]
fn tracker_matches_the_direct_formula() {
    cases("tracker_matches_the_direct_formula", |rng| {
        let mut tracker = MemoryTracker::new();
        let mut direct = DirectMemory::default();
        let (mut now, mut min_rtt) = (Ns::ZERO, Ns::MAX);
        for _ in 0..rng.range_usize(1, 299) {
            let dt = rng.range_u64(0, 19_999_999);
            let echo_lag = rng.range_u64(0, 29_999_999);
            let rtt = Ns(rng.range_u64(1, 599_999_999));
            match rng.range_u64(0, 11) {
                0 => {
                    tracker.reset();
                    direct = DirectMemory::default();
                    assert_eq!(bits(tracker.memory()), bits(Memory::INITIAL));
                    continue;
                }
                1 => min_rtt = Ns::ZERO,
                2 => min_rtt = Ns::MAX,
                3 => min_rtt = rtt,
                // A running minimum: steps down, or holds.
                _ if min_rtt.is_zero() => min_rtt = rtt,
                _ => min_rtt = min_rtt.min(rtt),
            }
            now = Ns(now.0 + dt);
            // Echoed timestamps lag `now` by a varying amount, so their
            // spacing is sometimes negative (saturated to zero).
            let echo = now.saturating_sub(Ns(echo_lag));
            let got = tracker.on_ack(now, echo, rtt, min_rtt);
            let want = direct.on_ack(now, echo, rtt, min_rtt);
            assert_eq!(bits(got), bits(want));
            assert_eq!(bits(tracker.memory()), bits(want));
        }
    });
}

/// Usage merge is order-independent on counts.
#[test]
fn usage_merge_commutes() {
    cases("usage_merge_commutes", |rng| {
        let m = Memory::INITIAL;
        let mut a1 = Usage::new(8);
        let mut b1 = Usage::new(8);
        for _ in 0..rng.range_usize(0, 49) {
            a1.record(rng.range_usize(0, 7), m);
        }
        for _ in 0..rng.range_usize(0, 49) {
            b1.record(rng.range_usize(0, 7), m);
        }
        let mut ab = a1.clone();
        ab.merge(&b1);
        let mut ba = b1;
        ba.merge(&a1);
        for id in 0..8 {
            assert_eq!(ab.count(id), ba.count(id));
        }
        assert_eq!(ab.total(), ba.total());
    });
}

/// JSON serialization round-trips arbitrary trees (lookup-equivalent).
#[test]
fn json_round_trip() {
    cases("json_round_trip", |rng| {
        let mut tree = WhiskerTree::single_rule();
        for p in arb_memories(rng, 0, 5) {
            let id = tree.lookup(p).id;
            let _ = tree.split(id, p);
        }
        let back = WhiskerTree::from_json(&tree.to_json()).unwrap();
        assert_eq!(back.len(), tree.len());
        for m in arb_memories(rng, 1, 19) {
            assert_eq!(back.lookup(m).id, tree.lookup(m).id);
        }
    });
}
