//! Property-based tests of Remy's rule-table machinery.

use netsim::time::Ns;
use proptest::prelude::*;
use remy::action::Action;
use remy::memory::{Memory, MemoryTracker, EWMA_GAIN, MEMORY_MAX};
use remy::whisker::{Usage, WhiskerTree};

fn arb_memory() -> impl Strategy<Value = Memory> {
    (0.0..MEMORY_MAX, 0.0..MEMORY_MAX, 0.0..MEMORY_MAX).prop_map(|(a, s, r)| Memory {
        ack_ewma_ms: a,
        send_ewma_ms: s,
        rtt_ratio: r,
    })
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

proptest! {
    /// The whisker tree is a partition: after arbitrary splits, every
    /// memory point maps to exactly one rule whose domain contains it.
    #[test]
    fn tree_partition_property(
        splits in prop::collection::vec(arb_memory(), 0..12),
        probes in prop::collection::vec(arb_memory(), 1..50),
    ) {
        let mut tree = WhiskerTree::single_rule();
        for p in splits {
            let id = tree.lookup(p).id;
            let _ = tree.split(id, p);
        }
        for m in probes {
            let w = tree.lookup(m);
            prop_assert!(w.domain.contains(m.clamped()),
                "lookup returned a rule not containing the probe");
        }
    }

    /// Rule count after k successful splits is 1 + 7k (each split
    /// replaces one leaf with eight).
    #[test]
    fn split_counts(splits in prop::collection::vec(arb_memory(), 0..10)) {
        let mut tree = WhiskerTree::single_rule();
        let mut ok = 0usize;
        for p in splits {
            let id = tree.lookup(p).id;
            if tree.split(id, p) { ok += 1; }
        }
        prop_assert_eq!(tree.len(), 1 + 7 * ok);
    }

    /// Action application always lands in the legal window range.
    #[test]
    fn action_apply_bounded(
        m in -10.0f64..10.0,
        b in -1e4f64..1e4,
        r in -10.0f64..1e4,
        w in 0.0f64..1e5,
    ) {
        let a = Action { window_multiple: m, window_increment: b, intersend_ms: r }.clamped();
        let out = a.apply(w);
        prop_assert!((1.0..=4096.0).contains(&out));
        prop_assert!(a.intersend_ms > 0.0);
    }

    /// Candidate neighbourhoods never contain the current action and stay
    /// clamped.
    #[test]
    fn neighbourhood_well_formed(
        m in 0.0f64..2.0,
        b in -64.0f64..256.0,
        r in 0.001f64..100.0,
    ) {
        let a = Action { window_multiple: m, window_increment: b, intersend_ms: r }.clamped();
        let n = a.neighbourhood();
        prop_assert!(!n.is_empty());
        for c in &n {
            prop_assert!(*c != a);
            prop_assert!(c.window_multiple >= 0.0 && c.window_multiple <= 2.0);
            prop_assert!(c.intersend_ms >= 0.001);
        }
    }

    /// Memory clamping is idempotent and in-domain.
    #[test]
    fn memory_clamp(a in -1e9f64..1e9, s in -1e9f64..1e9, r in -1e9f64..1e9) {
        let m = Memory { ack_ewma_ms: a, send_ewma_ms: s, rtt_ratio: r }.clamped();
        for i in 0..3 {
            prop_assert!((0.0..=MEMORY_MAX).contains(&m.axis(i)));
        }
        prop_assert_eq!(m.clamped(), m);
    }

    /// The tracker (which converts `min_rtt` only when it changes) equals
    /// the direct formula bit for bit, over ACK streams whose minimum RTT
    /// steps down, jumps, is unset (zero or `Ns::MAX`), and whose tracker
    /// is reset mid-stream.
    #[test]
    fn tracker_matches_the_direct_formula(
        acks in prop::collection::vec(
            (0u64..20_000_000, 0u64..30_000_000, 1u64..600_000_000, 0u8..12),
            1..300,
        ),
    ) {
        let mut tracker = MemoryTracker::new();
        let mut direct = DirectMemory::default();
        let (mut now, mut min_rtt) = (Ns::ZERO, Ns::MAX);
        for (dt, echo_lag, rtt, what) in acks {
            let rtt = Ns(rtt);
            match what {
                0 => {
                    tracker.reset();
                    direct = DirectMemory::default();
                    prop_assert_eq!(bits(tracker.memory()), bits(Memory::INITIAL));
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
            prop_assert_eq!(bits(got), bits(want));
            prop_assert_eq!(bits(tracker.memory()), bits(want));
        }
    }

    /// Usage merge is order-independent on counts.
    #[test]
    fn usage_merge_commutes(
        hits_a in prop::collection::vec(0usize..8, 0..50),
        hits_b in prop::collection::vec(0usize..8, 0..50),
    ) {
        let m = Memory::INITIAL;
        let mut a1 = Usage::new(8);
        let mut b1 = Usage::new(8);
        for &h in &hits_a { a1.record(h, m); }
        for &h in &hits_b { b1.record(h, m); }
        let mut ab = a1.clone();
        ab.merge(&b1);
        let mut ba = b1;
        ba.merge(&a1);
        for id in 0..8 {
            prop_assert_eq!(ab.count(id), ba.count(id));
        }
        prop_assert_eq!(ab.total(), ba.total());
    }

    /// JSON serialization round-trips arbitrary trees (lookup-equivalent).
    #[test]
    fn json_round_trip(splits in prop::collection::vec(arb_memory(), 0..6),
                       probes in prop::collection::vec(arb_memory(), 1..20)) {
        let mut tree = WhiskerTree::single_rule();
        for p in splits {
            let id = tree.lookup(p).id;
            let _ = tree.split(id, p);
        }
        let back = WhiskerTree::from_json(&tree.to_json()).unwrap();
        prop_assert_eq!(back.len(), tree.len());
        for m in probes {
            prop_assert_eq!(back.lookup(m).id, tree.lookup(m).id);
        }
    }
}
