//! The flow table: struct-of-arrays per-flow state with generational ids.
//!
//! This is the [`crate::packet::PacketArena`] pattern applied to flows.
//! Per-flow state is split across three parallel arrays indexed by slot:
//! a dense hot array ([`FlowHot`]: what the engine itself owns — timer
//! and pacer dedup guards, edge delays, the cached path shape), a cold
//! side slab ([`FlowCold`]: the transport, sole owner of sender state,
//! with its boxed congestion controller; traffic process, receiver,
//! metrics, and path vectors), and a generation array that validates
//! [`FlowId`] handles.
//!
//! Slot generations follow the arena convention — even = free, odd =
//! live; creating and tearing down a flow each bump the counter once — so
//! a handle kept past a flow's lifetime (a spurious retransmission still
//! in flight when the flow completes) fails the generation check instead
//! of aliasing whichever flow recycled the slot.
//!
//! Under flow churn the table is allocation-free in steady state:
//! [`FlowTable::respawn`] reuses a freed slot *in place*, keeping the
//! cold state's heap blocks (the CC box, scoreboard nodes, interval
//! vector) alive across flow lifetimes instead of reallocating them per
//! arrival.

use crate::metrics::FlowMetrics;
use crate::time::Ns;
use crate::traffic::TrafficProcess;
use crate::transport::Transport;
use std::collections::BTreeSet;

/// Generational handle to one flow in a [`FlowTable`].
///
/// 8 bytes: slot index plus the slot's generation at creation time.
/// Tearing a flow down bumps the slot's generation, so a stale handle can
/// never address the flow that later recycles the slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FlowId {
    index: u32,
    generation: u32,
}

impl FlowId {
    /// The handle of slot `index`'s *first* lifetime (generation 1).
    ///
    /// Flows created at simulator construction (the scenario's persistent
    /// senders) are never torn down, so their handles are always
    /// first-lifetime; tests and packet constructors use this.
    pub fn first(index: usize) -> FlowId {
        FlowId {
            // lint:allow(p1-sim-unwrap): a scenario with 4 billion
            // persistent senders is beyond any machine this will run on.
            index: u32::try_from(index).expect("more than u32::MAX flows"),
            generation: 1,
        }
    }

    /// Slot index (diagnostics and dense-array addressing; identity
    /// requires the generation).
    pub fn index(self) -> u32 {
        self.index
    }

    /// Creation-time generation of the slot.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

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

struct TableSlot {
    /// Even = free, odd = live (see module docs).
    generation: u32,
}

/// Struct-of-arrays table of flows with generational handles.
///
/// `hot`, `cold`, and the generation array are parallel: slot `i` of each
/// describes the same flow. Free slots keep their cold state's heap
/// allocations for the next lifetime ([`FlowTable::respawn`]).
#[derive(Default)]
pub struct FlowTable {
    slots: Vec<TableSlot>,
    hot: Vec<FlowHot>,
    cold: Vec<FlowCold>,
    free: Vec<u32>,
    live: usize,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// An empty table with room for `capacity` flows before regrowing.
    pub fn with_capacity(capacity: usize) -> FlowTable {
        FlowTable {
            slots: Vec::with_capacity(capacity),
            hot: Vec::with_capacity(capacity),
            cold: Vec::with_capacity(capacity),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Create a flow in a brand-new slot (growth path — allocates).
    /// Steady-state churn goes through [`FlowTable::respawn`] instead.
    pub fn insert(&mut self, hot: FlowHot, cold: FlowCold) -> FlowId {
        // lint:allow(p1-sim-unwrap): slot count is bounded by concurrent
        // flows, not total arrivals; u32::MAX concurrent flows cannot fit.
        let index = u32::try_from(self.slots.len()).expect("more than u32::MAX flows");
        self.slots.push(TableSlot { generation: 1 });
        self.hot.push(hot);
        self.cold.push(cold);
        self.live += 1;
        FlowId {
            index,
            generation: 1,
        }
    }

    /// Revive the most recently freed slot *in place*: `reset` receives
    /// the slot's previous-lifetime state (heap allocations intact) and
    /// must re-initialize it for the new flow. Returns `None` when no
    /// freed slot exists — the caller falls back to [`FlowTable::insert`].
    ///
    /// This is the allocation-free steady-state churn path.
    pub fn respawn(&mut self, reset: impl FnOnce(&mut FlowHot, &mut FlowCold)) -> Option<FlowId> {
        let index = self.free.pop()?;
        let slot = &mut self.slots[index as usize];
        // Strict lane: a slot coming off the free list must be in a free
        // (even-generation) lifetime; odd here means the free list
        // aliased a live flow.
        #[cfg(feature = "strict-invariants")]
        assert_eq!(
            slot.generation % 2,
            0,
            "strict-invariants: free list handed out a live flow slot {index}"
        );
        slot.generation = slot.generation.wrapping_add(1);
        let generation = slot.generation;
        self.live += 1;
        let i = index as usize;
        reset(&mut self.hot[i], &mut self.cold[i]);
        Some(FlowId { index, generation })
    }

    /// Tear a flow down, releasing its slot for reuse. The cold state is
    /// *kept* (allocations and all) for the slot's next lifetime. Panics
    /// on a stale handle: a double teardown is always an engine bug.
    pub fn free(&mut self, id: FlowId) {
        // Strict lane: the handle must come from a live (odd-generation)
        // lifetime and the accounting identity must hold on entry.
        #[cfg(feature = "strict-invariants")]
        {
            assert_eq!(
                id.generation % 2,
                1,
                "strict-invariants: freeing a flow handle minted in a free lifetime"
            );
            assert_eq!(
                self.live + self.free.len(),
                self.slots.len(),
                "strict-invariants: flow table live/free accounting diverged"
            );
        }
        let slot = &mut self.slots[id.index as usize];
        assert_eq!(
            slot.generation, id.generation,
            "freeing a stale FlowId (double teardown?)"
        );
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index);
        self.live -= 1;
    }

    /// True if the handle still addresses a live flow.
    pub fn contains(&self, id: FlowId) -> bool {
        self.slots
            .get(id.index as usize)
            .is_some_and(|s| s.generation == id.generation)
    }

    /// Resolve a handle to its slot index, or `None` if stale. This is
    /// the tolerance primitive for packets that outlive their flow: the
    /// engine drops them instead of touching the slot's new occupant.
    #[inline]
    pub fn index_of(&self, id: FlowId) -> Option<usize> {
        let i = id.index as usize;
        (self.slots.get(i).map(|s| s.generation) == Some(id.generation)).then_some(i)
    }

    /// The current handle of live slot `index`. Panics if the slot is
    /// free (even generation).
    pub fn id_at(&self, index: usize) -> FlowId {
        let generation = self.slots[index].generation;
        assert_eq!(generation % 2, 1, "slot {index} is not live");
        FlowId {
            index: index as u32,
            generation,
        }
    }

    /// Hot row of slot `i`.
    #[inline]
    pub fn hot(&self, i: usize) -> &FlowHot {
        &self.hot[i]
    }

    /// Mutable hot row of slot `i`.
    #[inline]
    pub fn hot_mut(&mut self, i: usize) -> &mut FlowHot {
        &mut self.hot[i]
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

    /// Simultaneous mutable access to slot `i`'s hot row and cold state
    /// (they live in separate arrays, so the borrows split).
    #[inline]
    pub fn pair_mut(&mut self, i: usize) -> (&mut FlowHot, &mut FlowCold) {
        (&mut self.hot[i], &mut self.cold[i])
    }

    /// Flows currently live.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever created (live + reusable). Under steady-state
    /// churn this tracks the peak *concurrent* population, not the total
    /// number of flows that ever existed — the zero-allocation audit.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Consume the table, returning the parallel cold array (slot order).
    /// Used by result finalization to summarize persistent senders and
    /// recover their congestion controllers.
    pub fn into_cold(self) -> Vec<FlowCold> {
        self.cold
    }

    /// Audit the accounting identity `live + free == slots` (cheap; the
    /// strict-invariants lane also checks it inside free/respawn).
    pub fn audit_accounting(&self) -> bool {
        self.live + self.free.len() == self.slots.len()
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
        assert!(!t.contains(b));
        assert_eq!(t.index_of(b), None);
        let c = t
            .respawn(|hot, _| hot.spawned_at = Ns::from_secs(9))
            .expect("freed slot available");
        assert_eq!(c.index(), b.index(), "LIFO slot reuse");
        assert_ne!(c.generation(), b.generation());
        assert!(t.contains(c) && !t.contains(b));
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
    #[should_panic(expected = "stale FlowId")]
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
    /// and no growth while the free list feeds respawns.
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
                    Some(id) => id,
                    None => t.insert(FlowHot::default(), cold()),
                };
                assert_eq!(id.generation() % 2, 1, "live handles have odd generations");
                live.push(id);
            } else {
                let pick = (rng >> 33) as usize % live.len();
                let id = live.swap_remove(pick);
                assert!(t.contains(id));
                t.free(id);
                assert!(!t.contains(id));
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
