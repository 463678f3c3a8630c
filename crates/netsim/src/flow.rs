//! The flow table: struct-of-arrays per-flow state with generational ids.
//!
//! Slot `i` of two parallel arrays describes one flow: the generational
//! [`crate::slab::Slab`] of dense hot rows ([`FlowHot`]: what the engine
//! itself owns — timer and pacer dedup guards, edge delays, the cached
//! path shape), whose generations validate [`FlowId`] handles, and a cold
//! array ([`FlowCold`]: the transport with its boxed congestion
//! controller, traffic process, receiver, metrics, and path vectors).
//!
//! Under flow churn the table is allocation-free in steady state:
//! [`FlowTable::respawn`] reuses a freed slot *in place*, keeping the
//! cold state's heap blocks (the CC box, scoreboard nodes, interval
//! vector) across flow lifetimes instead of reallocating them per
//! arrival.

use crate::metrics::FlowMetrics;
use crate::slab::{Handle, Slab};
use crate::time::Ns;
use crate::traffic::TrafficProcess;
use crate::transport::Transport;
use std::collections::BTreeSet;

/// Generational handle to one flow in a [`FlowTable`] (see
/// [`crate::slab`]). Persistent sender `i` is `FlowId::first(i)`.
pub type FlowId = Handle<FlowHot>;

/// Receiver-side reassembly state for one flow.
#[derive(Clone, Debug, Default)]
pub struct Receiver {
    /// Next sequence number the receiver expects (cumulative frontier).
    pub expected: u64,
    out_of_order: BTreeSet<u64>,
}

impl Receiver {
    /// Process a delivery; returns `true` if the packet carried new data.
    pub fn on_packet(&mut self, seq: u64) -> bool {
        if seq < self.expected || self.out_of_order.contains(&seq) {
            return false;
        }
        if seq == self.expected {
            self.expected += 1;
            while self.out_of_order.remove(&self.expected) {
                self.expected += 1;
            }
        } else {
            self.out_of_order.insert(seq);
        }
        true
    }

    /// Reset for a new flow lifetime whose sequence space starts at
    /// `expected` (churn respawn: the slot's transport numbering
    /// continues across lifetimes).
    pub fn reset(&mut self, expected: u64) {
        self.expected = expected;
        self.out_of_order.clear();
    }
}

/// The dense hot row of one flow: what the engine itself owns and reads
/// on timer, pacing, and forwarding decisions. Sender state (window,
/// pipe, sequence space, RTO deadline) lives once, in the cold side's
/// [`Transport`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowHot {
    /// Earliest pending RTO *event* for this flow (dedup guard for the
    /// lazy timer pooled through the timing wheel).
    pub rto_event_at: Option<Ns>,
    /// A pacer event is already scheduled at this time (dedup guard).
    pub pacer_scheduled: Option<Ns>,
    /// Final data hop → receiver propagation.
    pub fwd_delay: Ns,
    /// Receiver → sender propagation (after the final ACK hop, if any).
    pub back_delay: Ns,
    /// First hop of the forward path (`fwd_hops[0]`, cached).
    pub entry_hop: u32,
    /// Length of the forward path (`fwd_hops.len()`, cached).
    pub fwd_len: u32,
    /// Length of the ACK path (`ack_hops.len()`, cached; 0 = pure delay).
    pub ack_len: u32,
    /// When this flow lifetime began (churn: arrival time).
    pub spawned_at: Ns,
    /// True for dynamically arriving (churn) flows, which tear their slot
    /// down on completion; persistent senders keep their slot forever.
    pub churn: bool,
}

/// The cold side slab of one flow: boxed/pointered state only touched on
/// its own flow's events, kept out of the dense array so hot scans don't
/// drag it through cache.
pub struct FlowCold {
    /// Reliable sender (owns the boxed congestion controller).
    pub transport: Transport,
    /// The paper's on/off traffic process (or a churn one-shot).
    pub traffic: TrafficProcess,
    /// Receiver-side reassembly state.
    pub receiver: Receiver,
    /// Per-flow measurements.
    pub metrics: FlowMetrics,
    /// Hops this flow's data packets cross, in order.
    pub fwd_hops: Vec<usize>,
    /// Hops this flow's ACKs cross; empty = pure-delay return path.
    pub ack_hops: Vec<usize>,
}

/// Struct-of-arrays table of flows with generational handles (see the
/// module docs).
#[derive(Default)]
pub struct FlowTable {
    hot: Slab<FlowHot>,
    cold: Vec<FlowCold>,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// An empty table with room for `capacity` flows before regrowing.
    pub fn with_capacity(capacity: usize) -> FlowTable {
        FlowTable {
            hot: Slab::with_capacity(capacity),
            cold: Vec::with_capacity(capacity),
        }
    }

    /// Create a flow from fresh state, in the most recently freed slot or
    /// a new one. Steady-state churn goes through [`FlowTable::respawn`].
    pub fn insert(&mut self, hot: FlowHot, cold: FlowCold) -> FlowId {
        let id = self.hot.alloc(hot);
        match self.cold.get_mut(id.index() as usize) {
            Some(slot) => *slot = cold,
            None => self.cold.push(cold),
        }
        id
    }

    /// Revive the most recently freed slot *in place*: `reset` receives
    /// the slot's previous-lifetime state (heap allocations intact) and
    /// must re-initialize it for the new flow. Returns `None` when no
    /// freed slot exists — the caller falls back to [`FlowTable::insert`].
    pub fn respawn(&mut self, reset: impl FnOnce(&mut FlowHot, &mut FlowCold)) -> Option<FlowId> {
        let (id, hot) = self.hot.reuse()?;
        reset(hot, &mut self.cold[id.index() as usize]);
        Some(id)
    }

    /// Tear a flow down, keeping its cold state for the slot's next
    /// lifetime. Panics on a stale handle.
    pub fn free(&mut self, id: FlowId) {
        self.hot.free(id);
    }

    /// Slot index of a live flow, or `None` if the handle is stale: the
    /// engine drops packets that outlive their flow.
    #[inline]
    pub fn index_of(&self, id: FlowId) -> Option<usize> {
        self.hot.index_of(id)
    }

    /// The current handle of live slot `index`. Panics if it is free.
    pub fn id_at(&self, index: usize) -> FlowId {
        self.hot.id_at(index)
    }

    /// Hot row of slot `i`.
    #[inline]
    pub fn hot(&self, i: usize) -> &FlowHot {
        self.hot.at(i)
    }

    /// Mutable hot row of slot `i`.
    #[inline]
    pub fn hot_mut(&mut self, i: usize) -> &mut FlowHot {
        self.hot.at_mut(i)
    }

    /// Cold state of slot `i`.
    #[inline]
    pub fn cold(&self, i: usize) -> &FlowCold {
        &self.cold[i]
    }

    /// Mutable cold state of slot `i`.
    #[inline]
    pub fn cold_mut(&mut self, i: usize) -> &mut FlowCold {
        &mut self.cold[i]
    }

    /// Slot `i`'s hot row and cold state at once.
    #[inline]
    pub fn pair_mut(&mut self, i: usize) -> (&mut FlowHot, &mut FlowCold) {
        (self.hot.at_mut(i), &mut self.cold[i])
    }

    /// Flows currently live.
    pub fn live(&self) -> usize {
        self.hot.live()
    }

    /// Slots ever created: under churn, the peak concurrent population.
    pub fn capacity(&self) -> usize {
        self.hot.capacity()
    }

    /// Consume the table, returning the cold array in slot order (result
    /// finalization summarizes persistent senders and recovers their
    /// congestion controllers from it).
    pub fn into_cold(self) -> Vec<FlowCold> {
        self.cold
    }

    /// The slab's accounting identity `live + free == slots`.
    pub fn audit_accounting(&self) -> bool {
        self.hot.audit_accounting()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::FixedWindow;
    use crate::traffic::TrafficSpec;

    fn cold() -> FlowCold {
        FlowCold {
            transport: Transport::new(Box::new(FixedWindow::new(10.0))),
            traffic: TrafficProcess::new(
                TrafficSpec::saturating(),
                1500,
                crate::rng::SimRng::new(1),
            ),
            receiver: Receiver::default(),
            metrics: FlowMetrics::default(),
            fwd_hops: vec![0],
            ack_hops: Vec::new(),
        }
    }

    #[test]
    fn insert_free_respawn_reuses_slots_with_new_generations() {
        let mut t = FlowTable::new();
        let a = t.insert(FlowHot::default(), cold());
        let b = t.insert(FlowHot::default(), cold());
        assert_eq!(t.live(), 2);
        assert_eq!(a, FlowId::first(0));
        assert_eq!(b, FlowId::first(1));
        t.free(b);
        assert_eq!(t.live(), 1);
        assert_eq!(t.index_of(b), None);
        let c = t
            .respawn(|hot, _| hot.spawned_at = Ns::from_secs(9))
            .expect("freed slot available");
        assert_eq!(c.index(), b.index(), "LIFO slot reuse");
        assert_eq!(c.generation(), b.generation() + 2);
        assert_eq!((t.index_of(c), t.index_of(b)), (Some(1), None));
        assert_eq!(
            (t.id_at(0), t.id_at(1)),
            (a, c),
            "a live slot's current handle"
        );
        assert_eq!(t.hot(c.index() as usize).spawned_at, Ns::from_secs(9));
        assert_eq!(t.capacity(), 2, "no growth on respawn");
        assert!(t.audit_accounting());
    }

    #[test]
    fn respawn_on_empty_free_list_returns_none() {
        let mut t = FlowTable::new();
        assert!(t.respawn(|_, _| ()).is_none());
        let _ = t.insert(FlowHot::default(), cold());
        assert!(t.respawn(|_, _| ()).is_none(), "live slots are not reused");
    }

    #[test]
    #[should_panic(expected = "stale handle")]
    fn free_rejects_stale_handles() {
        let mut t = FlowTable::new();
        let id = t.insert(FlowHot::default(), cold());
        t.free(id);
        t.free(id);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn id_at_rejects_free_slots() {
        let mut t = FlowTable::new();
        let id = t.insert(FlowHot::default(), cold());
        t.free(id);
        let _ = t.id_at(0);
    }

    #[test]
    fn generations_follow_the_parity_convention() {
        let mut t = FlowTable::new();
        let id = t.insert(FlowHot::default(), cold());
        assert_eq!(id.generation() % 2, 1, "live handles have odd generations");
        t.free(id);
        let next = t.respawn(|_, _| ()).expect("slot");
        assert_eq!(next.generation(), id.generation() + 2);
    }

    #[test]
    fn respawn_keeps_the_cold_state_heap_blocks() {
        let mut t = FlowTable::new();
        let id = t.insert(FlowHot::default(), cold());
        let hops = t.cold(0).fwd_hops.as_ptr();
        t.free(id);
        let next = t
            .respawn(|hot, cold| {
                hot.spawned_at = Ns::from_secs(9);
                cold.fwd_hops[0] = 4;
            })
            .expect("slot");
        assert_eq!(next.index(), id.index(), "LIFO slot reuse");
        assert_eq!(t.cold(0).fwd_hops.as_ptr(), hops, "same heap block");
        assert_eq!(t.cold(0).fwd_hops, [4]);
        assert_eq!(t.hot(0).spawned_at, Ns::from_secs(9));
        // `insert` also fills a freed slot, replacing its state outright.
        t.free(next);
        let fresh = t.insert(FlowHot::default(), cold());
        assert_eq!((fresh.index(), t.capacity()), (0, 1));
        assert_eq!(t.cold(0).fwd_hops, [0]);
    }

    #[test]
    fn receiver_reset_continues_a_sequence_space() {
        let mut r = Receiver::default();
        assert!(r.on_packet(0));
        assert!(r.on_packet(2), "out of order buffered");
        assert_eq!(r.expected, 1);
        r.reset(7);
        assert_eq!(r.expected, 7);
        assert!(!r.on_packet(2), "pre-reset sequences are stale duplicates");
        assert!(r.on_packet(7), "new lifetime's first packet");
        assert_eq!(r.expected, 8);
    }

    /// LCG-driven create/teardown churn mirroring the packet arena's
    /// strict-invariants audit: generation parity, accounting identity,
    /// and no growth while the free list feeds respawns. Every other
    /// respawned slot is handed back unused, so `insert` must fill it.
    #[test]
    fn table_strict_invariants_hold_under_churn() {
        let mut t = FlowTable::new();
        let mut live: Vec<FlowId> = Vec::new();
        let mut rng: u64 = 0x2545_f491_4f6c_dd1d;
        for round in 0..500u64 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if live.is_empty() || !rng.is_multiple_of(3) {
                let id = match t.respawn(|hot, _| hot.spawned_at = Ns(round)) {
                    Some(id) if round % 2 == 0 => id,
                    Some(id) => {
                        t.free(id);
                        let fresh = t.insert(FlowHot::default(), cold());
                        assert_eq!(fresh.index(), id.index(), "insert fills the freed slot");
                        fresh
                    }
                    None => t.insert(FlowHot::default(), cold()),
                };
                assert_eq!(id.generation() % 2, 1, "live handles have odd generations");
                live.push(id);
            } else {
                let pick = (rng >> 33) as usize % live.len();
                let id = live.swap_remove(pick);
                assert!(t.index_of(id).is_some());
                t.free(id);
                assert_eq!(t.index_of(id), None);
            }
            assert_eq!(t.live(), live.len());
            assert!(t.audit_accounting());
            assert!(t.capacity() >= t.live());
        }
        for id in live.drain(..) {
            t.free(id);
        }
        assert_eq!(t.live(), 0);
        assert!(t.audit_accounting());
    }
}
