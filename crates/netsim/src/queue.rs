//! Bottleneck queue disciplines.
//!
//! The paper's evaluation uses four router configurations, all implemented
//! here:
//!
//! * **DropTail** — a FIFO with a fixed packet capacity (1000 packets in
//!   most experiments; "unlimited" during Remy's design phase).
//! * **ECN threshold** — DropTail plus DCTCP-style marking: packets are
//!   CE-marked when the instantaneous queue occupancy at enqueue meets a
//!   threshold `K` (the paper's "modified RED" gateway for DCTCP).
//! * **CoDel** — Nichols & Jacobson's controlled-delay AQM: drops at
//!   dequeue when the per-packet sojourn time stays above `target` (5 ms)
//!   for longer than `interval` (100 ms), with the drop rate growing as the
//!   square root of the drop count.
//! * **sfqCoDel** — stochastic fair queueing (flows hashed into buckets,
//!   round-robin service) with an independent CoDel instance per bucket;
//!   this is the strongest router-assisted baseline in the paper.
//!
//! Queues hold [`PacketId`] handles, not packets: the packets themselves
//! live in the simulation's [`PacketArena`], which every `enqueue`/
//! `dequeue` receives. A discipline that drops a packet — at the tail, by
//! the CoDel law, or by the stochastic-loss wrapper — frees its
//! slot back to the arena; a handle returned by `dequeue` transfers
//! ownership to the caller.

use crate::packet::{PacketArena, PacketId, MSS};
use crate::time::Ns;
use std::collections::VecDeque;

/// Outcome of offering a packet to a queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Enqueue {
    /// Accepted (possibly ECN-marked; inspect the packet on delivery).
    Queued,
    /// Dropped at the tail — the handle was freed back to the arena, and
    /// the sender will discover the loss via dup-ACKs or a timeout.
    Dropped,
}

/// A bottleneck queue discipline.
///
/// Disciplines own their packet handles between `enqueue` and `dequeue`
/// and are free to drop (freeing the arena slot) or mark. `dequeue` is
/// called when the outgoing link is ready to serve the next packet.
pub trait Queue: Send {
    /// Offer the packet behind `id` at time `now`. On [`Enqueue::Dropped`]
    /// the id has been freed and must not be used again.
    fn enqueue(&mut self, now: Ns, id: PacketId, arena: &mut PacketArena) -> Enqueue;

    /// Pull the next packet to transmit at time `now` (AQMs may drop
    /// packets internally while selecting it). Ownership of the returned
    /// handle passes to the caller.
    fn dequeue(&mut self, now: Ns, arena: &mut PacketArena) -> Option<PacketId>;

    /// Packets currently held.
    fn len(&self) -> usize;

    /// Bytes currently held.
    fn bytes(&self) -> u64;

    /// True if no packet is available.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Packets dropped so far (tail drops plus AQM drops).
    fn drops(&self) -> u64;
}

// ---------------------------------------------------------------------------
// Queue entries
// ---------------------------------------------------------------------------

/// What a discipline keeps per queued packet: the handle plus the two
/// fields every dequeue decision needs (`size` for byte accounting, the
/// arrival time for sojourn). Caching them here means the dequeue/drop
/// paths never touch the (usually cache-cold) arena slot; the arrival
/// time is stamped into the packet only when it is actually yielded to
/// the caller (`yield_entry`), which reads identically to stamping on
/// enqueue — the field is unobservable in between.
#[derive(Clone, Copy)]
struct QEntry {
    id: PacketId,
    size: u32,
    enqueued_at: Ns,
}

impl QEntry {
    /// Capture a packet entering a queue at `now` (the arena slot is hot
    /// here: the packet was just written by the sender or previous hop).
    #[inline]
    fn capture(now: Ns, id: PacketId, arena: &PacketArena) -> QEntry {
        QEntry {
            id,
            size: arena[id].size,
            enqueued_at: now,
        }
    }

    /// Hand the packet to the caller: stamp its arrival time (the caller
    /// reads it right after, so the write warms the slot) and return the
    /// handle.
    #[inline]
    fn yield_entry(self, arena: &mut PacketArena) -> PacketId {
        arena[self.id].enqueued_at = self.enqueued_at;
        self.id
    }
}

// ---------------------------------------------------------------------------
// DropTail
// ---------------------------------------------------------------------------

/// A plain FIFO with a packet-count capacity.
pub struct DropTail {
    q: VecDeque<QEntry>,
    capacity: usize,
    bytes: u64,
    drops: u64,
}

impl DropTail {
    /// A FIFO holding at most `capacity` packets.
    pub fn new(capacity: usize) -> DropTail {
        DropTail {
            q: VecDeque::new(),
            capacity,
            bytes: 0,
            drops: 0,
        }
    }

    /// An effectively infinite queue — the paper's design-phase
    /// configuration ("queue capacity: unlimited").
    pub fn unlimited() -> DropTail {
        DropTail::new(usize::MAX)
    }
}

impl Queue for DropTail {
    #[inline]
    fn enqueue(&mut self, now: Ns, id: PacketId, arena: &mut PacketArena) -> Enqueue {
        if self.q.len() >= self.capacity {
            self.drops += 1;
            arena.free(id);
            return Enqueue::Dropped;
        }
        let e = QEntry::capture(now, id, arena);
        self.bytes += e.size as u64;
        self.q.push_back(e);
        Enqueue::Queued
    }

    #[inline]
    fn dequeue(&mut self, _now: Ns, arena: &mut PacketArena) -> Option<PacketId> {
        let e = self.q.pop_front()?;
        self.bytes -= e.size as u64;
        Some(e.yield_entry(arena))
    }

    #[inline]
    fn len(&self) -> usize {
        self.q.len()
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.bytes
    }

    #[inline]
    fn drops(&self) -> u64 {
        self.drops
    }
}

// ---------------------------------------------------------------------------
// ECN threshold (DCTCP gateway)
// ---------------------------------------------------------------------------

/// DropTail plus instantaneous-queue ECN marking at threshold `K`.
///
/// DCTCP's gateway marks a packet's CE codepoint when the queue occupancy
/// it sees on arrival is at least `K` packets (Alizadeh et al. 2010 use a
/// single-threshold "modified RED"). Non-ECN-capable packets pass through
/// unmarked and are dropped only on overflow.
pub struct EcnThreshold {
    inner: DropTail,
    mark_threshold: usize,
    marks: u64,
}

impl EcnThreshold {
    /// Capacity `capacity` packets, marking at `mark_threshold` packets.
    pub fn new(capacity: usize, mark_threshold: usize) -> EcnThreshold {
        EcnThreshold {
            inner: DropTail::new(capacity),
            mark_threshold,
            marks: 0,
        }
    }

    /// CE marks applied so far.
    pub fn marks(&self) -> u64 {
        self.marks
    }
}

impl Queue for EcnThreshold {
    #[inline]
    fn enqueue(&mut self, now: Ns, id: PacketId, arena: &mut PacketArena) -> Enqueue {
        let p = &mut arena[id];
        if p.ecn_capable && self.inner.len() >= self.mark_threshold {
            p.ecn_marked = true;
            self.marks += 1;
        }
        self.inner.enqueue(now, id, arena)
    }

    #[inline]
    fn dequeue(&mut self, now: Ns, arena: &mut PacketArena) -> Option<PacketId> {
        self.inner.dequeue(now, arena)
    }

    #[inline]
    fn len(&self) -> usize {
        self.inner.len()
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.inner.bytes()
    }

    #[inline]
    fn drops(&self) -> u64 {
        self.inner.drops()
    }
}

// ---------------------------------------------------------------------------
// CoDel
// ---------------------------------------------------------------------------

/// CoDel control-law state, shared by [`Codel`] and each sfqCoDel bucket.
///
/// Implements the dequeue-side algorithm from Nichols & Jacobson,
/// "Controlling Queue Delay" (ACM Queue 2012): track how long the sojourn
/// time has continuously exceeded [`CODEL_TARGET`]; once it has for a
/// full [`CODEL_INTERVAL`], enter a dropping state where packets are
/// dropped at `interval / sqrt(count)` spacing until the sojourn falls
/// below target.
#[derive(Clone, Debug)]
struct CodelLaw {
    first_above_time: Ns,
    drop_next: Ns,
    count: u64,
    dropping: bool,
}

impl CodelLaw {
    fn new() -> CodelLaw {
        CodelLaw {
            first_above_time: Ns::ZERO,
            drop_next: Ns::ZERO,
            count: 0,
            dropping: false,
        }
    }

    fn control_interval(&self, count: u64) -> Ns {
        // interval / sqrt(count)
        Ns::from_secs_f64(CODEL_INTERVAL.as_secs_f64() / (count.max(1) as f64).sqrt())
    }

    /// Decide whether the packet dequeued at `now` with the given sojourn
    /// time should be dropped, per the "ok to drop" half of the algorithm.
    fn should_drop(&mut self, now: Ns, sojourn: Ns, queue_bytes: u64) -> bool {
        // Never drop while the backlog is at most one MSS-sized packet.
        if sojourn < CODEL_TARGET || queue_bytes <= u64::from(MSS) {
            // Went below target: reset the above-target clock.
            self.first_above_time = Ns::ZERO;
            return false;
        }
        if self.first_above_time.is_zero() {
            self.first_above_time = now + CODEL_INTERVAL;
            false
        } else {
            now >= self.first_above_time
        }
    }

    /// Run the dequeue-side state machine. Returns `true` if the packet
    /// with the given sojourn time must be dropped (the caller then
    /// re-invokes with the next packet).
    fn on_dequeue(&mut self, now: Ns, sojourn: Ns, queue_bytes: u64) -> bool {
        let ok_to_drop = self.should_drop(now, sojourn, queue_bytes);
        if self.dropping {
            if !ok_to_drop {
                self.dropping = false;
                return false;
            }
            if now >= self.drop_next {
                self.count += 1;
                self.drop_next += self.control_interval(self.count);
                return true;
            }
            false
        } else if ok_to_drop {
            self.dropping = true;
            // If we dropped recently, resume from a higher count so the
            // drop rate re-converges quickly (the "count - 2" heuristic).
            self.count = if self.count > 2 && now.saturating_sub(self.drop_next) < CODEL_INTERVAL {
                self.count - 2
            } else {
                1
            };
            self.drop_next = now + self.control_interval(self.count);
            true
        } else {
            false
        }
    }
}

/// CoDel target sojourn time (5 ms).
pub const CODEL_TARGET: Ns = Ns(5_000_000);
/// CoDel interval (100 ms).
pub const CODEL_INTERVAL: Ns = Ns(100_000_000);

/// A single-queue CoDel AQM: a [`DropTail`] FIFO whose dequeue runs the
/// control law.
pub struct Codel {
    fifo: DropTail,
    law: CodelLaw,
}

impl Codel {
    /// CoDel with the standard 5 ms / 100 ms parameters.
    pub fn new(capacity: usize) -> Codel {
        Codel {
            fifo: DropTail::new(capacity),
            law: CodelLaw::new(),
        }
    }
}

impl Queue for Codel {
    #[inline]
    fn enqueue(&mut self, now: Ns, id: PacketId, arena: &mut PacketArena) -> Enqueue {
        self.fifo.enqueue(now, id, arena)
    }

    #[inline]
    fn dequeue(&mut self, now: Ns, arena: &mut PacketArena) -> Option<PacketId> {
        let fifo = &mut self.fifo;
        loop {
            let e = fifo.q.pop_front()?;
            fifo.bytes -= e.size as u64;
            let sojourn = now.saturating_sub(e.enqueued_at);
            if self.law.on_dequeue(now, sojourn, fifo.bytes) {
                fifo.drops += 1;
                arena.free(e.id);
                continue;
            }
            return Some(e.yield_entry(arena));
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.fifo.len()
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.fifo.bytes()
    }

    #[inline]
    fn drops(&self) -> u64 {
        self.fifo.drops()
    }
}

// ---------------------------------------------------------------------------
// sfqCoDel
// ---------------------------------------------------------------------------

/// Stochastic fair queueing with per-bucket CoDel.
///
/// Flows are hashed into `n_buckets` FIFOs; service visits non-empty
/// buckets round-robin (all simulated packets are MSS-sized, so
/// packet-granularity round-robin equals byte-granularity DRR). Each bucket
/// runs its own CoDel law. On overflow the packet at the head of the
/// longest bucket is dropped to make room, as in Nichols's published
/// `sfqcodel` implementation. An occupancy bitmap makes the round-robin
/// scan skip empty buckets in O(1) instead of probing each in turn.
pub struct SfqCodel {
    buckets: Vec<VecDeque<QEntry>>,
    laws: Vec<CodelLaw>,
    /// Bytes held per bucket, maintained incrementally on enqueue /
    /// dequeue / drop (the CoDel law consults its bucket's backlog on
    /// every dequeue; recomputing it by summation made each dequeue
    /// O(bucket length)).
    bucket_bytes: Vec<u64>,
    /// Packets held per bucket, kept in one compact array so the
    /// overflow shed's longest-bucket scan reads a few cache lines
    /// instead of probing every `VecDeque` header.
    bucket_lens: Vec<u32>,
    /// One bit per non-empty bucket, in 64-bucket words.
    occupied: Vec<u64>,
    /// Round-robin cursor: index of the next bucket to consider.
    cursor: usize,
    capacity: usize,
    len: usize,
    bytes: u64,
    drops: u64,
}

impl SfqCodel {
    /// `capacity` total packets shared across `n_buckets` buckets, standard
    /// CoDel parameters.
    pub fn new(capacity: usize, n_buckets: usize) -> SfqCodel {
        assert!(n_buckets > 0, "need at least one bucket");
        SfqCodel {
            buckets: (0..n_buckets).map(|_| VecDeque::new()).collect(),
            laws: vec![CodelLaw::new(); n_buckets],
            bucket_bytes: vec![0; n_buckets],
            bucket_lens: vec![0; n_buckets],
            occupied: vec![0; n_buckets.div_ceil(64)],
            cursor: 0,
            capacity,
            len: 0,
            bytes: 0,
            drops: 0,
        }
    }

    /// Fibonacci hashing so adjacent flow ids land in scattered buckets.
    /// For power-of-two bucket counts (the standard 64) the modulo
    /// strength-reduces to a mask — same value, no hardware divide on the
    /// per-packet path.
    #[inline]
    fn bucket_index(&self, flow: usize) -> usize {
        let h = (flow as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let n = self.buckets.len();
        if n.is_power_of_two() {
            (h >> 32) as usize & (n - 1)
        } else {
            (h >> 32) as usize % n
        }
    }

    fn mark_occupied(&mut self, idx: usize) {
        let w = idx / 64;
        self.occupied[w] |= 1u64 << (idx % 64);
    }

    fn mark_if_empty(&mut self, idx: usize) {
        if self.buckets[idx].is_empty() {
            let w = idx / 64;
            self.occupied[w] &= !(1u64 << (idx % 64));
        }
    }

    /// First occupied bucket index in `[from, to)`, if any.
    fn scan_occupied(&self, from: usize, to: usize) -> Option<usize> {
        if from >= to {
            return None;
        }
        let last_w = (to - 1) / 64;
        let mut w = from / 64;
        let mut word = self.occupied[w] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                let idx = w * 64 + word.trailing_zeros() as usize;
                return (idx < to).then_some(idx);
            }
            if w == last_w {
                return None;
            }
            w += 1;
            word = self.occupied[w];
        }
    }

    /// First occupied bucket in cyclic order starting at `start`.
    fn next_occupied(&self, start: usize) -> Option<usize> {
        self.scan_occupied(start, self.buckets.len())
            .or_else(|| self.scan_occupied(0, start))
    }

    fn drop_from_longest(&mut self, arena: &mut PacketArena) {
        // Last-max semantics match the previous `max_by_key` over the
        // bucket deques (ties pick the highest index). Two passes over
        // the compact length array keep both loops free of sequential
        // dependencies, so they vectorize.
        let Some(&max) = self.bucket_lens.iter().max() else {
            debug_assert!(false, "drop_from_longest on an empty bucket set");
            return;
        };
        let Some(idx) = self.bucket_lens.iter().rposition(|&l| l == max) else {
            debug_assert!(false, "max has no position");
            return;
        };
        if let Some(victim) = self.buckets[idx].pop_front() {
            arena.free(victim.id);
            self.len -= 1;
            self.bytes -= victim.size as u64;
            self.bucket_bytes[idx] -= victim.size as u64;
            self.bucket_lens[idx] -= 1;
            self.drops += 1;
            self.mark_if_empty(idx);
        }
    }
}

impl Queue for SfqCodel {
    #[inline]
    fn enqueue(&mut self, now: Ns, id: PacketId, arena: &mut PacketArena) -> Enqueue {
        let idx = self.bucket_index(arena[id].flow.index() as usize);
        if self.len >= self.capacity {
            // Make room by shedding from the most backlogged flow; the
            // arriving packet is then admitted. If the longest bucket is
            // the arriving flow's own, this is equivalent to head drop.
            self.drop_from_longest(arena);
        }
        let e = QEntry::capture(now, id, arena);
        let size = e.size as u64;
        self.len += 1;
        self.bytes += size;
        self.bucket_bytes[idx] += size;
        self.bucket_lens[idx] += 1;
        self.buckets[idx].push_back(e);
        self.mark_occupied(idx);
        Enqueue::Queued
    }

    #[inline]
    fn dequeue(&mut self, now: Ns, arena: &mut PacketArena) -> Option<PacketId> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len();
        debug_assert!(self.cursor < n);
        // Wrap-around successor without the hardware divide a `% n` with
        // a runtime modulus costs on every dequeue.
        let next = |i: usize| if i + 1 == n { 0 } else { i + 1 };
        // Visit non-empty buckets round-robin; within a bucket, run CoDel
        // until it yields a packet or empties.
        let mut idx = self.next_occupied(self.cursor)?;
        loop {
            while let Some(e) = self.buckets[idx].pop_front() {
                self.len -= 1;
                self.bytes -= e.size as u64;
                self.bucket_bytes[idx] -= e.size as u64;
                self.bucket_lens[idx] -= 1;
                self.mark_if_empty(idx);
                let sojourn = now.saturating_sub(e.enqueued_at);
                if self.laws[idx].on_dequeue(now, sojourn, self.bucket_bytes[idx]) {
                    self.drops += 1;
                    arena.free(e.id);
                    continue;
                }
                self.cursor = next(idx);
                return Some(e.yield_entry(arena));
            }
            // Bucket drained by CoDel drops: move to the next non-empty
            // one. Buckets only shrink here, so this terminates.
            idx = self.next_occupied(next(idx))?;
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.bytes
    }

    #[inline]
    fn drops(&self) -> u64 {
        self.drops
    }
}

// ---------------------------------------------------------------------------
// Stochastic (non-congestive) loss injection
// ---------------------------------------------------------------------------

/// Wraps any discipline with random, non-congestive packet loss.
///
/// §4.1 of the paper argues that because RemyCCs do not use loss as a
/// congestion signal, they "robustly handle stochastic (non-congestive)
/// packet losses without adversely reducing performance" — unlike
/// loss-based TCP. This wrapper injects exactly that impairment: each
/// arriving packet is dropped with probability `p`, independent of queue
/// state, from a deterministic per-queue random stream.
pub struct Lossy<Q> {
    inner: Q,
    drop_probability: f64,
    rng: crate::rng::SimRng,
    stochastic_drops: u64,
}

impl<Q: Queue> Lossy<Q> {
    /// Drop arrivals with probability `p ∈ [0, 1]`, deterministic in `seed`.
    pub fn new(inner: Q, p: f64, seed: u64) -> Lossy<Q> {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        Lossy {
            inner,
            drop_probability: p,
            // The xor constant decouples the loss stream from the caller's
            // seed space; changing the derivation re-randomizes every
            // published lossy-link result.
            rng: crate::rng::SimRng::new(seed ^ 0x1055_1055),
            stochastic_drops: 0,
        }
    }

    /// Random (non-congestive) drops so far.
    pub fn stochastic_drops(&self) -> u64 {
        self.stochastic_drops
    }
}

impl<Q: Queue> Queue for Lossy<Q> {
    #[inline]
    fn enqueue(&mut self, now: Ns, id: PacketId, arena: &mut PacketArena) -> Enqueue {
        if self.drop_probability > 0.0 && self.rng.chance(self.drop_probability) {
            self.stochastic_drops += 1;
            arena.free(id);
            return Enqueue::Dropped;
        }
        self.inner.enqueue(now, id, arena)
    }

    #[inline]
    fn dequeue(&mut self, now: Ns, arena: &mut PacketArena) -> Option<PacketId> {
        self.inner.dequeue(now, arena)
    }

    #[inline]
    fn len(&self) -> usize {
        self.inner.len()
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.inner.bytes()
    }

    #[inline]
    fn drops(&self) -> u64 {
        self.inner.drops() + self.stochastic_drops
    }
}

// ---------------------------------------------------------------------------
// Configuration enum used by scenarios
// ---------------------------------------------------------------------------

/// Declarative queue configuration, used by scenario descriptions so that
/// experiment configs remain plain data.
#[derive(Clone, Debug, PartialEq)]
pub enum QueueSpec {
    /// FIFO, tail drop, given packet capacity.
    DropTail {
        /// Capacity in packets.
        capacity: usize,
    },
    /// FIFO with no practical capacity limit (design-phase model).
    Unlimited,
    /// DropTail with DCTCP ECN marking at `mark_threshold` packets.
    Ecn {
        /// Capacity in packets.
        capacity: usize,
        /// Instantaneous-queue CE-marking threshold, packets.
        mark_threshold: usize,
    },
    /// Single-queue CoDel.
    Codel {
        /// Capacity in packets.
        capacity: usize,
    },
    /// Stochastic fair queueing + CoDel.
    SfqCodel {
        /// Total capacity in packets.
        capacity: usize,
        /// Number of hash buckets.
        buckets: usize,
    },
    /// Any other discipline plus random non-congestive loss (see
    /// [`Lossy`]).
    LossyDropTail {
        /// Capacity in packets.
        capacity: usize,
        /// Per-packet drop probability.
        drop_probability: f64,
        /// Seed for the loss stream.
        seed: u64,
    },
}

impl QueueSpec {
    /// The same discipline with a different packet capacity. Multi-hop
    /// topologies use this to apply one contender's queue discipline to
    /// hops of differing depth ([`Unlimited`](QueueSpec::Unlimited) has no
    /// capacity and is returned unchanged).
    pub fn with_capacity(self, capacity: usize) -> QueueSpec {
        match self {
            QueueSpec::DropTail { .. } => QueueSpec::DropTail { capacity },
            QueueSpec::Unlimited => QueueSpec::Unlimited,
            QueueSpec::Ecn { mark_threshold, .. } => QueueSpec::Ecn {
                capacity,
                mark_threshold,
            },
            QueueSpec::Codel { .. } => QueueSpec::Codel { capacity },
            QueueSpec::SfqCodel { buckets, .. } => QueueSpec::SfqCodel { capacity, buckets },
            QueueSpec::LossyDropTail {
                drop_probability,
                seed,
                ..
            } => QueueSpec::LossyDropTail {
                capacity,
                drop_probability,
                seed,
            },
        }
    }

    /// Reject a queue that can hold no packet. A zero capacity is not a
    /// degenerate queue but a different one per discipline (DropTail drops
    /// everything, sfqCoDel still forwards), so every bounded discipline
    /// needs at least one packet; [`QueueSpec::Unlimited`] always passes.
    pub fn validate(&self) -> Result<(), String> {
        let capacity = match *self {
            QueueSpec::Unlimited => return Ok(()),
            QueueSpec::DropTail { capacity }
            | QueueSpec::Ecn { capacity, .. }
            | QueueSpec::Codel { capacity }
            | QueueSpec::SfqCodel { capacity, .. }
            | QueueSpec::LossyDropTail { capacity, .. } => capacity,
        };
        if capacity == 0 {
            return Err("queue_capacity must be at least 1 packet, got 0".to_string());
        }
        Ok(())
    }

    /// Instantiate the discipline.
    pub fn build(&self) -> Box<dyn Queue> {
        match *self {
            QueueSpec::DropTail { capacity } => Box::new(DropTail::new(capacity)),
            QueueSpec::Unlimited => Box::new(DropTail::unlimited()),
            QueueSpec::Ecn {
                capacity,
                mark_threshold,
            } => Box::new(EcnThreshold::new(capacity, mark_threshold)),
            QueueSpec::Codel { capacity } => Box::new(Codel::new(capacity)),
            QueueSpec::SfqCodel { capacity, buckets } => Box::new(SfqCodel::new(capacity, buckets)),
            QueueSpec::LossyDropTail {
                capacity,
                drop_probability,
                seed,
            } => Box::new(Lossy::new(DropTail::new(capacity), drop_probability, seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, Packet};

    fn pkt(flow: usize, seq: u64) -> Packet {
        Packet::data(FlowId::first(flow), seq, 1500, Ns::ZERO)
    }

    /// Alloc-and-enqueue helper for the arena-handle API.
    fn push(q: &mut dyn Queue, a: &mut PacketArena, now: Ns, p: Packet) -> Enqueue {
        let id = a.alloc(p);
        q.enqueue(now, id, a)
    }

    /// Dequeue, returning a copy of the packet (slot freed).
    fn pull(q: &mut dyn Queue, a: &mut PacketArena, now: Ns) -> Option<Packet> {
        let id = q.dequeue(now, a)?;
        let p = a[id].clone();
        a.free(id);
        Some(p)
    }

    #[test]
    fn droptail_fifo_order() {
        let mut a = PacketArena::new();
        let mut q = DropTail::new(10);
        for i in 0..5 {
            assert_eq!(push(&mut q, &mut a, Ns(i), pkt(0, i)), Enqueue::Queued);
        }
        for i in 0..5 {
            assert_eq!(pull(&mut q, &mut a, Ns(100)).unwrap().seq, i);
        }
        assert!(pull(&mut q, &mut a, Ns(100)).is_none());
        assert_eq!(a.live(), 0, "every slot back in the arena");
    }

    #[test]
    fn droptail_drops_at_capacity() {
        let mut a = PacketArena::new();
        let mut q = DropTail::new(2);
        assert_eq!(push(&mut q, &mut a, Ns::ZERO, pkt(0, 0)), Enqueue::Queued);
        assert_eq!(push(&mut q, &mut a, Ns::ZERO, pkt(0, 1)), Enqueue::Queued);
        assert_eq!(push(&mut q, &mut a, Ns::ZERO, pkt(0, 2)), Enqueue::Dropped);
        assert_eq!(q.drops(), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.bytes(), 3000);
        assert_eq!(a.live(), 2, "the dropped packet's slot was freed");
    }

    #[test]
    fn droptail_stamps_enqueue_time() {
        let mut a = PacketArena::new();
        let mut q = DropTail::new(10);
        push(&mut q, &mut a, Ns::from_millis(7), pkt(0, 0));
        assert_eq!(
            pull(&mut q, &mut a, Ns::from_millis(9))
                .unwrap()
                .enqueued_at,
            Ns::from_millis(7)
        );
    }

    #[test]
    fn ecn_marks_above_threshold_only_capable_packets() {
        let mut a = PacketArena::new();
        let mut q = EcnThreshold::new(100, 2);
        let mut capable = pkt(0, 0);
        capable.ecn_capable = true;
        // Queue below threshold: no mark.
        push(&mut q, &mut a, Ns::ZERO, capable.clone());
        push(&mut q, &mut a, Ns::ZERO, capable.clone());
        // Now occupancy == 2 == K: mark.
        push(&mut q, &mut a, Ns::ZERO, capable.clone());
        // Non-capable packet at same occupancy: not marked.
        push(&mut q, &mut a, Ns::ZERO, pkt(0, 3));
        let a_ = pull(&mut q, &mut a, Ns::ZERO).unwrap();
        let b = pull(&mut q, &mut a, Ns::ZERO).unwrap();
        let c = pull(&mut q, &mut a, Ns::ZERO).unwrap();
        let d = pull(&mut q, &mut a, Ns::ZERO).unwrap();
        assert!(!a_.ecn_marked && !b.ecn_marked);
        assert!(c.ecn_marked);
        assert!(!d.ecn_marked);
        assert_eq!(q.marks(), 1);
    }

    #[test]
    fn codel_passes_short_sojourns() {
        let mut a = PacketArena::new();
        let mut q = Codel::new(100);
        for i in 0..10 {
            push(&mut q, &mut a, Ns::from_millis(i), pkt(0, i));
        }
        // Dequeue immediately: sojourn ~ 0, nothing dropped.
        for _ in 0..10 {
            assert!(pull(&mut q, &mut a, Ns::from_millis(10)).is_some());
        }
        assert_eq!(q.drops(), 0);
    }

    #[test]
    fn codel_drops_under_persistent_delay() {
        let mut a = PacketArena::new();
        let mut q = Codel::new(10_000);
        // Build a standing queue: packets enqueued at t=0, dequeued much
        // later, so every sojourn is far above the 5 ms target.
        for i in 0..2_000 {
            push(&mut q, &mut a, Ns::ZERO, pkt(0, i));
        }
        let mut delivered = 0;
        let mut t = Ns::from_millis(50);
        for _ in 0..1_500 {
            if pull(&mut q, &mut a, t).is_some() {
                delivered += 1;
            }
            t += Ns::from_millis(1);
        }
        assert!(q.drops() > 0, "CoDel should drop under persistent queue");
        assert!(delivered > 0, "CoDel must still deliver packets");
        assert_eq!(
            a.live() as u64,
            2_000 - delivered - q.drops(),
            "only queued packets keep arena slots"
        );
    }

    #[test]
    fn codel_drop_rate_increases() {
        // With a persistent standing queue, inter-drop gaps shrink like
        // interval/sqrt(count): verify drops accelerate over time.
        let mut a = PacketArena::new();
        let mut q = Codel::new(100_000);
        for i in 0..50_000 {
            push(&mut q, &mut a, Ns::ZERO, pkt(0, i));
        }
        let mut drops_at = Vec::new();
        let mut t = Ns::from_millis(200);
        let mut last_drops = 0;
        for step in 0..3_000 {
            pull(&mut q, &mut a, t);
            if q.drops() > last_drops {
                last_drops = q.drops();
                drops_at.push(step);
            }
            t += Ns::from_millis(1);
        }
        assert!(
            drops_at.len() >= 4,
            "expected several drops, got {drops_at:?}"
        );
        let first_gap = drops_at[1] - drops_at[0];
        let last_gap = drops_at[drops_at.len() - 1] - drops_at[drops_at.len() - 2];
        assert!(
            last_gap <= first_gap,
            "drop spacing should shrink: first {first_gap}, last {last_gap}"
        );
    }

    #[test]
    fn sfq_isolates_flows_round_robin() {
        let mut a = PacketArena::new();
        let mut q = SfqCodel::new(1000, 64);
        // Flow 0 floods; flow 1 sends a little.
        for i in 0..100 {
            push(&mut q, &mut a, Ns::ZERO, pkt(0, i));
        }
        for i in 0..3 {
            push(&mut q, &mut a, Ns::ZERO, pkt(1, i));
        }
        // In the first 6 dequeues, flow 1's packets must appear
        // interleaved, not starved behind flow 0's backlog.
        let mut flow1_seen = 0;
        for _ in 0..6 {
            let p = pull(&mut q, &mut a, Ns::from_micros(10)).unwrap();
            if p.flow.index() == 1 {
                flow1_seen += 1;
            }
        }
        assert_eq!(flow1_seen, 3, "flow 1 should be served round-robin");
    }

    #[test]
    fn sfq_overflow_sheds_from_longest_flow() {
        let mut a = PacketArena::new();
        let mut q = SfqCodel::new(10, 64);
        for i in 0..10 {
            push(&mut q, &mut a, Ns::ZERO, pkt(0, i));
        }
        // Queue full; a packet from flow 1 should displace one of flow 0's.
        assert_eq!(push(&mut q, &mut a, Ns::ZERO, pkt(1, 0)), Enqueue::Queued);
        assert_eq!(q.len(), 10);
        assert_eq!(q.drops(), 1);
        let mut flows: Vec<usize> = Vec::new();
        while let Some(p) = pull(&mut q, &mut a, Ns::from_micros(1)) {
            flows.push(p.flow.index() as usize);
        }
        assert!(flows.contains(&1), "new flow's packet survived");
        assert_eq!(flows.iter().filter(|&&f| f == 0).count(), 9);
    }

    #[test]
    fn sfq_conserves_packets_without_pressure() {
        let mut a = PacketArena::new();
        let mut q = SfqCodel::new(1000, 16);
        for f in 0..5 {
            for i in 0..7 {
                push(&mut q, &mut a, Ns::ZERO, pkt(f, i));
            }
        }
        let mut out = 0;
        while pull(&mut q, &mut a, Ns::from_micros(5)).is_some() {
            out += 1;
        }
        assert_eq!(out, 35);
        assert_eq!(q.drops(), 0);
        assert_eq!(q.bytes(), 0);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn queue_spec_builds_each_discipline() {
        let specs = [
            QueueSpec::DropTail { capacity: 10 },
            QueueSpec::Unlimited,
            QueueSpec::Ecn {
                capacity: 10,
                mark_threshold: 3,
            },
            QueueSpec::Codel { capacity: 10 },
            QueueSpec::SfqCodel {
                capacity: 10,
                buckets: 4,
            },
        ];
        for spec in &specs {
            let mut a = PacketArena::new();
            let mut q = spec.build();
            assert_eq!(push(&mut *q, &mut a, Ns::ZERO, pkt(0, 0)), Enqueue::Queued);
            assert_eq!(q.len(), 1);
            assert!(pull(&mut *q, &mut a, Ns(1)).is_some());
            assert!(q.is_empty());
        }
    }

    #[test]
    fn lossy_wrapper_drops_at_configured_rate() {
        let mut a = PacketArena::new();
        let mut q = Lossy::new(DropTail::new(usize::MAX), 0.3, 7);
        let n = 20_000;
        for i in 0..n {
            push(&mut q, &mut a, Ns::ZERO, pkt(0, i));
        }
        let rate = q.stochastic_drops() as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "loss rate {rate}");
        assert_eq!(q.drops(), q.stochastic_drops());
        // Survivors dequeue in order.
        let mut prev = None;
        while let Some(p) = pull(&mut q, &mut a, Ns(1)) {
            if let Some(prev) = prev {
                assert!(p.seq > prev);
            }
            prev = Some(p.seq);
        }
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn lossy_wrapper_with_zero_probability_is_transparent() {
        let mut a = PacketArena::new();
        let mut q = Lossy::new(DropTail::new(10), 0.0, 1);
        for i in 0..10 {
            assert_eq!(push(&mut q, &mut a, Ns::ZERO, pkt(0, i)), Enqueue::Queued);
        }
        assert_eq!(q.stochastic_drops(), 0);
        assert_eq!(q.len(), 10);
        // Inner tail-drop still applies.
        assert_eq!(push(&mut q, &mut a, Ns::ZERO, pkt(0, 10)), Enqueue::Dropped);
        assert_eq!(q.drops(), 1);
    }

    #[test]
    fn lossy_spec_builds() {
        let mut a = PacketArena::new();
        let mut q = QueueSpec::LossyDropTail {
            capacity: 100_000,
            drop_probability: 0.5,
            seed: 3,
        }
        .build();
        let mut admitted = 0;
        for i in 0..1000 {
            if push(&mut *q, &mut a, Ns::ZERO, pkt(0, i)) == Enqueue::Queued {
                admitted += 1;
            }
        }
        assert!(admitted > 300 && admitted < 700, "admitted {admitted}");
    }

    #[test]
    fn sfq_bucket_byte_counters_stay_exact() {
        // The incremental per-bucket byte counters (and the occupancy
        // bitmap) must always agree with a from-scratch scan, through
        // enqueues, CoDel drops, overflow shedding, and dequeues.
        let mut a = PacketArena::new();
        let mut q = SfqCodel::new(50, 8);
        let check = |q: &SfqCodel, _a: &PacketArena| {
            let mut total = 0u64;
            for (i, b) in q.buckets.iter().enumerate() {
                let sum: u64 = b.iter().map(|e| e.size as u64).sum();
                assert_eq!(q.bucket_bytes[i], sum, "bucket {i} counter drifted");
                assert_eq!(q.bucket_lens[i] as usize, b.len(), "bucket {i} len drifted");
                let bit = q.occupied[i / 64] >> (i % 64) & 1 == 1;
                assert_eq!(bit, !b.is_empty(), "bucket {i} occupancy bit drifted");
                total += sum;
            }
            assert_eq!(q.bytes(), total);
        };
        for i in 0..200 {
            push(&mut q, &mut a, Ns(i), pkt(i as usize % 11, i));
            check(&q, &a);
        }
        // Dequeue with large sojourns so per-bucket CoDel drops fire too.
        let mut t = Ns::from_millis(300);
        while pull(&mut q, &mut a, t).is_some() {
            check(&q, &a);
            t += Ns::from_millis(2);
        }
        check(&q, &a);
        assert_eq!(q.bytes(), 0);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn bucket_hash_stays_in_range() {
        let q = SfqCodel::new(10, 7);
        for f in 0..1000 {
            assert!(q.bucket_index(f) < 7);
        }
    }

    #[test]
    fn sfq_bitmap_scan_wraps_the_cursor() {
        // Force the round-robin cursor past the only occupied bucket so
        // the cyclic scan has to wrap.
        let mut a = PacketArena::new();
        let mut q = SfqCodel::new(100, 70); // two bitmap words
        let flow = (0..usize::MAX)
            .find(|&f| q.bucket_index(f) == 1)
            .expect("some flow hashes to bucket 1");
        push(&mut q, &mut a, Ns::ZERO, pkt(flow, 0));
        q.cursor = 65; // beyond the occupied bucket, in the second word
        let p = pull(&mut q, &mut a, Ns(1)).expect("wrapped scan finds it");
        assert_eq!(p.flow.index() as usize, flow);
        assert!(pull(&mut q, &mut a, Ns(2)).is_none());
    }

    #[test]
    fn with_capacity_resizes_every_discipline() {
        let specs = [
            QueueSpec::DropTail { capacity: 1000 },
            QueueSpec::Unlimited,
            QueueSpec::Ecn {
                capacity: 500,
                mark_threshold: 20,
            },
            QueueSpec::Codel { capacity: 300 },
            QueueSpec::SfqCodel {
                capacity: 1000,
                buckets: 64,
            },
            QueueSpec::LossyDropTail {
                capacity: 1000,
                drop_probability: 0.013,
                seed: 9,
            },
        ];
        for spec in specs {
            let resized = spec.clone().with_capacity(64);
            match resized {
                QueueSpec::Unlimited => assert_eq!(spec, QueueSpec::Unlimited),
                QueueSpec::DropTail { capacity }
                | QueueSpec::Ecn { capacity, .. }
                | QueueSpec::Codel { capacity }
                | QueueSpec::SfqCodel { capacity, .. }
                | QueueSpec::LossyDropTail { capacity, .. } => assert_eq!(capacity, 64),
            }
            // Non-capacity parameters survive the resize.
            if let QueueSpec::Ecn { mark_threshold, .. } = spec.clone().with_capacity(64) {
                assert_eq!(mark_threshold, 20);
            }
            if let QueueSpec::LossyDropTail { seed, .. } = spec.with_capacity(64) {
                assert_eq!(seed, 9);
            }
        }
    }
}
