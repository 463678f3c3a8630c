//! Pending-event schedulers for the simulator.
//!
//! The event loop pops entries in strict `(time, insertion id)` order; the
//! id tie-break makes simultaneous events deterministic. [`EventQueue`]
//! abstracts the structure that maintains that order, with two
//! implementations sharing one ordering contract:
//!
//! * [`SchedulerKind::Heap`] — the classic `BinaryHeap` priority queue
//!   (`O(log n)` per operation, the original engine);
//! * [`SchedulerKind::Wheel`] — a hierarchical timing wheel beside a few
//!   FIFO lanes. The wheel has 7 levels of 256 slots whose granules grow
//!   by 256× per level, covering the entire `u64` nanosecond range from a
//!   4.096 µs finest granule. Insertion hashes on time bits (events
//!   cascade down at most once per level), and the slot being drained is
//!   kept sorted so pops still come out in exact `(time, id)` order.
//!
//! ## Lanes
//!
//! Most of a simulation's events are "now + a constant": a link finishing
//! a packet (`now + service`), a packet reaching its receiver (`now +
//! service + forward delay`), an ACK reaching its sender (`now + return
//! delay`), a paced sender's next send (`now + pacing gap`). Events
//! pushed with the same delay at a non-decreasing `now` arrive already
//! sorted, so a FIFO keeps them in order for free — the
//! constant-interval case of Varghese & Lauck's timing wheels (SOSP 1987).
//! [`EventQueue::push_lane`] takes such an event with its *class* (the
//! simulator passes the delay) and appends it to one of eight FIFOs
//! keyed by class, instead of filing it into a wheel level, cascading it
//! and sorting it one granule at a time. A class with no lane (more live
//! classes than lanes), or an entry earlier than its lane's tail, goes
//! into the wheel as a plain push: a caller that is not monotone costs
//! speed, never order.
//!
//! Why the pop order is unchanged: a lane push takes the next insertion
//! id exactly as [`EventQueue::push`] does, so every entry carries the
//! same `(time, id)` key under either backend. Each lane only accepts an
//! entry not earlier than its tail, and ids only grow, so each lane is
//! sorted by `(time, id)` by construction. `pop` returns the minimum over
//! the wheel's head and every lane's head, which is the global minimum.
//! The wheel still obeys its own invariant — every entry in a level lies
//! in a granule after the drain cursor's — because an entry at or before
//! the cursor's granule goes to the sorted `ready` set; the cursor may
//! run ahead of lane pops (the wheel's next granule is drained as soon as
//! `ready` empties), and later pushes into that gap land in `ready`.
//!
//! Both produce bit-identical pop sequences for any insert/pop interleaving
//! that never schedules into the past (the simulator's invariant; pinned by
//! the property suite in `tests/` and the dual-scheduler equivalence
//! suite). The heap treats a lane push as a plain push. The wheel is what
//! simulators run on; the heap is the reference those suites compare it
//! against, picked explicitly with [`crate::sim::Simulator::with_scheduler`].

use crate::time::Ns;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Which pending-event structure a simulator uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Hierarchical timing wheel (the default).
    #[default]
    Wheel,
    /// Binary-heap priority queue.
    Heap,
}

/// A pending-event queue popping entries in `(time, insertion id)` order.
///
/// Ids are assigned internally in insertion order, so two queues fed the
/// same sequence of `push`/`pop` calls return identical `(time, id)`
/// sequences regardless of the backing structure.
pub struct EventQueue<T> {
    next_id: u64,
    inner: Inner<T>,
    /// Strict-lane shadow: a reference key-heap every push/pop is checked
    /// against. Compiled out unless the `strict-invariants` feature is on.
    #[cfg(feature = "strict-invariants")]
    strict: strict::Shadow,
}

enum Inner<T> {
    Heap(BinaryHeap<HeapEntry<T>>),
    Wheel(Box<TimingWheel<T>>),
}

struct HeapEntry<T> {
    at: Ns,
    id: u64,
    ev: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first, with
        // insertion order breaking ties for determinism.
        other.at.cmp(&self.at).then_with(|| other.id.cmp(&self.id))
    }
}

impl<T> EventQueue<T> {
    /// An empty queue backed by the given structure.
    pub fn new(kind: SchedulerKind) -> EventQueue<T> {
        EventQueue {
            next_id: 0,
            inner: match kind {
                SchedulerKind::Heap => Inner::Heap(BinaryHeap::new()),
                SchedulerKind::Wheel => Inner::Wheel(Box::new(TimingWheel::new())),
            },
            #[cfg(feature = "strict-invariants")]
            strict: strict::Shadow::default(),
        }
    }

    /// The backing structure.
    pub fn kind(&self) -> SchedulerKind {
        match self.inner {
            Inner::Heap(_) => SchedulerKind::Heap,
            Inner::Wheel(_) => SchedulerKind::Wheel,
        }
    }

    /// Schedule `ev` at `at`, assigning the next insertion id. `at` must
    /// not precede the time of the most recently popped entry (the
    /// simulator never schedules into the past); the wheel relies on this.
    pub fn push(&mut self, at: Ns, ev: T) {
        let id = self.next_id;
        self.next_id += 1;
        #[cfg(feature = "strict-invariants")]
        self.strict.on_push(at, id);
        match &mut self.inner {
            Inner::Heap(h) => h.push(HeapEntry { at, id, ev }),
            Inner::Wheel(w) => w.push(at, id, ev),
        }
    }

    /// [`EventQueue::push`] for an event of a recurring `class` (the
    /// simulator passes its delay from now): the same id, the same pop
    /// order, but the wheel appends it to the class's FIFO lane when `at`
    /// is not earlier than that lane's tail (see the module docs).
    pub fn push_lane(&mut self, class: u64, at: Ns, ev: T) {
        let id = self.next_id;
        self.next_id += 1;
        #[cfg(feature = "strict-invariants")]
        self.strict.on_push(at, id);
        match &mut self.inner {
            Inner::Heap(h) => h.push(HeapEntry { at, id, ev }),
            Inner::Wheel(w) => w.push_lane(class, at, id, ev),
        }
    }

    /// Pop the earliest entry (ties broken by insertion id).
    pub fn pop(&mut self) -> Option<(Ns, u64, T)> {
        let popped = match &mut self.inner {
            Inner::Heap(h) => h.pop().map(|e| (e.at, e.id, e.ev)),
            Inner::Wheel(w) => w.pop(),
        };
        #[cfg(feature = "strict-invariants")]
        self.strict
            .on_pop(popped.as_ref().map(|(at, id, _)| (*at, *id)));
        popped
    }

    /// Entries currently pending.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Heap(h) => h.len(),
            Inner::Wheel(w) => w.len(),
        }
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit every pending event, in no particular order: the heap, or
    /// the wheel's `ready` set, level slots and lanes. The simulator's
    /// strict lane audits its packet arena against the events still
    /// holding packet handles.
    #[cfg(feature = "strict-invariants")]
    pub(crate) fn for_each_pending(&self, mut f: impl FnMut(&T)) {
        match &self.inner {
            Inner::Heap(h) => h.iter().for_each(|e| f(&e.ev)),
            Inner::Wheel(w) => w
                .ready
                .iter()
                .chain(w.slots.iter().flatten())
                .chain(w.lanes.fifos.iter().flatten())
                .for_each(|e| f(&e.2)),
        }
    }

    /// Entries the wheel's slot buffers could hold without growing (0 for
    /// the heap), for tests that bound memory by what the wheel holds.
    #[cfg(test)]
    pub(crate) fn slot_capacity(&self) -> usize {
        match &self.inner {
            Inner::Heap(_) => 0,
            Inner::Wheel(w) => w.slots.iter().map(Vec::capacity).sum(),
        }
    }
}

// ---------------------------------------------------------------------------
// Strict-invariant shadow checker (the dynamic-analysis lane)
// ---------------------------------------------------------------------------

/// The `strict-invariants` reference model: a key-only `BinaryHeap`
/// mirrors every push, and each pop is asserted to (a) agree with the
/// reference heap's `(time, id)` order — so a wheel bucketing/cascade bug
/// surfaces as a panic at the exact divergent event, not as a silently
/// different result — and (b) advance strictly in `(time, id)`, the
/// contract the whole engine rests on. Pushes are asserted to never
/// schedule into the past, the precondition the wheel's cursor relies on.
#[cfg(feature = "strict-invariants")]
mod strict {
    use crate::time::Ns;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(Default)]
    pub(super) struct Shadow {
        keys: BinaryHeap<Reverse<(Ns, u64)>>,
        last_pop: Option<(Ns, u64)>,
    }

    impl Shadow {
        pub(super) fn on_push(&mut self, at: Ns, id: u64) {
            if let Some((t, _)) = self.last_pop {
                assert!(
                    at >= t,
                    "strict-invariants: scheduled into the past (at {at:?} < last popped {t:?})"
                );
            }
            self.keys.push(Reverse((at, id)));
        }

        pub(super) fn on_pop(&mut self, popped: Option<(Ns, u64)>) {
            let expected = self.keys.pop().map(|Reverse(k)| k);
            assert_eq!(
                popped, expected,
                "strict-invariants: pop sequence diverged from the reference heap"
            );
            if let Some(key) = popped {
                if let Some(prev) = self.last_pop {
                    assert!(
                        key > prev,
                        "strict-invariants: pops not strictly increasing in (time, id): \
                         {prev:?} then {key:?}"
                    );
                }
                self.last_pop = Some(key);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hierarchical timing wheel
// ---------------------------------------------------------------------------

/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 8;
/// Slots per level; one level's occupancy is four `u64` bitmap words.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Bitmap words per level.
const OCC_WORDS: usize = SLOTS / 64;
/// log2 of the finest granule, in ns (4.096 µs). Sub-granule ordering is
/// restored by sorting the drained slot, so this trades nothing for
/// precision — it only sets how far one level's window reaches.
const G0_BITS: u32 = 12;
/// Levels. 7 × 8 bits of granule index cover every 52-bit granule, i.e.
/// the full `u64` nanosecond range — no overflow list needed.
const LEVELS: usize = 7;

/// FIFO lanes beside the wheel. A dumbbell uses one service class plus a
/// forward and a return class per distinct RTT, and a RemyCC one class
/// per pacing gap its senders are currently using. Eight, because
/// `Lanes::pop_min`'s tournament is written for eight.
const LANES: usize = 8;

/// A `(time, id)` key packed into one integer, so a lane head compares
/// in one instruction pair and an empty lane is simply the maximum.
#[inline]
fn key(at: Ns, id: u64) -> u128 {
    (u128::from(at.0) << 64) | u128::from(id)
}

/// The head key of an empty lane: greater than every real key (ids never
/// reach `u64::MAX`).
const EMPTY: u128 = u128::MAX;

/// The wheel's FIFO lanes. The per-pop selection reads only `heads` and
/// the cached `min`; the FIFOs are touched only by the lane that pops.
struct Lanes<T> {
    /// Packed key of each lane's head, [`EMPTY`] when the lane is empty.
    heads: [u128; LANES],
    /// Index of the smallest entry of `heads`.
    min: usize,
    /// The class each lane was last claimed by; an empty lane may be
    /// reclaimed by any class.
    classes: [u64; LANES],
    fifos: [VecDeque<(Ns, u64, T)>; LANES],
}

impl<T> Lanes<T> {
    fn new() -> Lanes<T> {
        Lanes {
            heads: [EMPTY; LANES],
            min: 0,
            classes: [u64::MAX; LANES],
            fifos: std::array::from_fn(|_| VecDeque::new()),
        }
    }

    /// Append to `class`'s lane (claiming an empty one if the class has
    /// none), or hand the entry back when no lane can take it in order.
    #[inline]
    fn push(&mut self, class: u64, at: Ns, id: u64, ev: T) -> Result<(), T> {
        let lane = match self.classes.iter().position(|&c| c == class) {
            Some(l) if self.fifos[l].back().is_none_or(|t| at >= t.0) => l,
            Some(_) => return Err(ev),
            None => {
                let Some(l) = self.heads.iter().position(|&h| h == EMPTY) else {
                    return Err(ev);
                };
                self.classes[l] = class;
                l
            }
        };
        if self.heads[lane] == EMPTY {
            let k = key(at, id);
            self.heads[lane] = k;
            if k < self.heads[self.min] {
                self.min = lane;
            }
        }
        self.fifos[lane].push_back((at, id, ev));
        Ok(())
    }

    /// Pop the head of the lane holding the smallest head key.
    #[inline]
    fn pop_min(&mut self) -> Option<(Ns, u64, T)> {
        let lane = self.min;
        let e = self.fifos[lane].pop_front()?;
        self.heads[lane] = self.fifos[lane].front().map_or(EMPTY, |h| key(h.0, h.1));
        // A pairwise tournament: three dependent compares instead of the
        // seven a left-to-right scan chains together.
        let h = &self.heads;
        let min = |a: usize, b: usize| if h[b] < h[a] { b } else { a };
        let (a, b, c, d) = (min(0, 1), min(2, 3), min(4, 5), min(6, 7));
        self.min = min(min(a, b), min(c, d));
        Some(e)
    }
}

struct TimingWheel<T> {
    /// Events of the granule currently being drained (and any pushed
    /// since at or before it), sorted by `(time, id)` *descending* so pops
    /// are `Vec::pop` from the tail.
    ready: Vec<(Ns, u64, T)>,
    /// Granule index (`time >> G0_BITS`) of the drain cursor. `ready`
    /// holds every wheel entry at or before it; the levels hold only
    /// entries of strictly later granules.
    cur_g: u64,
    lanes: Lanes<T>,
    /// `LEVELS × SLOTS` buckets, flattened. A level-0 slot trades buffers
    /// with `ready` when it drains, so the per-granule path allocates
    /// nothing. An upper-level slot gives its buffer up when it cascades
    /// and regrows from empty on its next lap (once per 1.05 ms window at
    /// level 1, not once per event), so capacity follows what the wheel
    /// holds rather than the largest slot ever cascaded. On a
    /// `churn_100k` simulation that is ≈ 31 KiB at level 0, ≈ 180 KiB at
    /// level 1 and ≈ 384 KiB at level 2; recycling cascaded buffers
    /// instead leaves ≈ 9 MiB in level 1.
    slots: Vec<Vec<(Ns, u64, T)>>,
    /// Per-level occupancy bitmaps.
    occupied: [[u64; OCC_WORDS]; LEVELS],
    /// Entries in `ready` and the levels (not the lanes).
    wheel_len: usize,
}

impl<T> TimingWheel<T> {
    fn new() -> TimingWheel<T> {
        TimingWheel {
            ready: Vec::new(),
            cur_g: 0,
            lanes: Lanes::new(),
            slots: std::iter::repeat_with(Vec::new)
                .take(LEVELS * SLOTS)
                .collect(),
            occupied: [[0; OCC_WORDS]; LEVELS],
            wheel_len: 0,
        }
    }

    #[inline]
    fn push(&mut self, at: Ns, id: u64, ev: T) {
        self.wheel_len += 1;
        self.place(at, id, ev);
    }

    #[inline]
    fn push_lane(&mut self, class: u64, at: Ns, id: u64, ev: T) {
        if let Err(ev) = self.lanes.push(class, at, id, ev) {
            self.push(at, id, ev);
        }
    }

    fn len(&self) -> usize {
        self.wheel_len + self.lanes.fifos.iter().map(VecDeque::len).sum::<usize>()
    }

    /// File an entry into `ready` (at or before the drain cursor's
    /// granule) or the level whose window contains its granule.
    #[inline]
    fn place(&mut self, at: Ns, id: u64, ev: T) {
        let g = at.0 >> G0_BITS;
        if g <= self.cur_g {
            // The granule being drained, or an earlier one the cursor ran
            // ahead of while lanes held the earliest events. Keep `ready`
            // sorted descending by (time, id).
            let key = (at, id);
            let pos = self.ready.partition_point(|e| (e.0, e.1) > key);
            self.ready.insert(pos, (at, id, ev));
            return;
        }
        // The level of the highest differing granule byte: everything
        // above it agrees with the cursor, so the event's granule falls
        // inside that level's current window.
        let level = ((63 - (g ^ self.cur_g).leading_zeros()) / LEVEL_BITS) as usize;
        let slot = ((g >> (LEVEL_BITS * level as u32)) as usize) & (SLOTS - 1);
        let flat = level * SLOTS + slot;
        let word = slot / 64;
        self.slots[flat].push((at, id, ev));
        self.occupied[level][word] |= 1 << (slot % 64);
    }

    /// First occupied slot at `level`, if any.
    #[inline]
    fn first_occupied(&self, level: usize) -> Option<usize> {
        for (w, &word) in self.occupied[level].iter().enumerate() {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Pop the smaller of the wheel's head and the lanes' head.
    #[inline]
    fn pop(&mut self) -> Option<(Ns, u64, T)> {
        if self.ready.is_empty() && self.wheel_len != 0 {
            self.refill();
        }
        match self.ready.last() {
            Some(w) if key(w.0, w.1) < self.lanes.heads[self.lanes.min] => {
                self.wheel_len -= 1;
                self.ready.pop()
            }
            _ => self.lanes.pop_min(),
        }
    }

    /// Refill the empty `ready` set with the wheel's next non-empty
    /// granule, if the wheel holds anything.
    fn refill(&mut self) {
        while self.ready.is_empty() {
            // Advance: the lowest occupied level holds the earliest
            // events (level ℓ's window ends where level ℓ+1's slots
            // begin). Drain a level-0 slot into `ready`, or cascade an
            // upper-level slot down and retry.
            let Some((level, slot)) =
                (0..LEVELS).find_map(|l| self.first_occupied(l).map(|s| (l, s)))
            else {
                return;
            };
            let word = slot / 64;
            self.occupied[level][word] &= !(1u64 << (slot % 64));
            let shift = LEVEL_BITS * level as u32;
            // Move the cursor to the start of that slot's window; bits
            // below the level reset to zero.
            let low_mask = (1u64 << (shift + LEVEL_BITS)) - 1;
            let next_g = (self.cur_g & !low_mask) | ((slot as u64) << shift);
            debug_assert!(next_g >= self.cur_g, "wheel cursor went backwards");
            self.cur_g = next_g;
            if level == 0 {
                // Swap buffers: the drained slot becomes `ready`, and the
                // old (empty) `ready` buffer parks in the slot for reuse.
                std::mem::swap(&mut self.ready, &mut self.slots[slot]);
                self.ready
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.0, e.1)));
                // Strict lane: the drained granule must be exactly the
                // cursor's granule, strictly ordered (keys are unique:
                // ids are), with no entry filed into the wrong slot.
                #[cfg(feature = "strict-invariants")]
                {
                    assert!(
                        self.ready.iter().all(|e| e.0 .0 >> G0_BITS == self.cur_g),
                        "strict-invariants: drained slot holds an event outside its granule"
                    );
                    assert!(
                        self.ready
                            .windows(2)
                            .all(|w| (w[0].0, w[0].1) > (w[1].0, w[1].1)),
                        "strict-invariants: drained granule not strictly ordered"
                    );
                }
            } else {
                // Cascade the slot one or more levels down. The slot
                // restarts empty and its buffer is freed once drained:
                // handing it on would let every lower slot inherit the
                // largest buffer ever cascaded.
                let flat = level * SLOTS + slot;
                let moved = std::mem::take(&mut self.slots[flat]);
                for (at, id, ev) in moved {
                    self.place(at, id, ev);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>) -> Vec<(Ns, u64, u32)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn kinds_build_and_report() {
        assert_eq!(
            EventQueue::<u32>::new(SchedulerKind::Heap).kind(),
            SchedulerKind::Heap
        );
        let q = EventQueue::<u32>::new(SchedulerKind::Wheel);
        assert_eq!(q.kind(), SchedulerKind::Wheel);
        assert!(q.is_empty());
    }

    #[test]
    fn default_kind_is_wheel() {
        assert_eq!(SchedulerKind::default(), SchedulerKind::Wheel);
    }

    #[test]
    fn both_schedulers_order_by_time_then_insertion() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
            let mut q = EventQueue::new(kind);
            q.push(Ns(500), 0);
            q.push(Ns(100), 1);
            q.push(Ns(500), 2); // same instant as the first push
            q.push(Ns(Ns::SECOND.0 * 70), 3); // beyond MAX_RTO-scale horizon
            q.push(Ns(100), 4);
            let got = drain(&mut q);
            let order: Vec<u32> = got.iter().map(|e| e.2).collect();
            assert_eq!(order, vec![1, 4, 0, 2, 3], "{kind:?}");
            // Ids reflect insertion order.
            assert_eq!(got[0].1, 1);
            assert_eq!(got[2].1, 0);
        }
    }

    #[test]
    fn wheel_handles_same_granule_reentrant_pushes() {
        // Pop an event, then schedule more at the *same* time (the engine
        // does this for zero-delay hops): they must come out before any
        // later event, in insertion order.
        let mut q = EventQueue::new(SchedulerKind::Wheel);
        q.push(Ns(1_000_000), 0);
        q.push(Ns(2_000_000), 1);
        let (at, _, v) = q.pop().unwrap();
        assert_eq!((at, v), (Ns(1_000_000), 0));
        q.push(Ns(1_000_000), 2);
        q.push(Ns(1_000_500), 3);
        let order: Vec<u32> = drain(&mut q).iter().map(|e| e.2).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn wheel_survives_extreme_times() {
        let mut q = EventQueue::new(SchedulerKind::Wheel);
        q.push(Ns::MAX, 0);
        q.push(Ns::ZERO, 1);
        q.push(Ns(u64::MAX - 1), 2);
        q.push(Ns::from_secs(3600), 3);
        let order: Vec<u32> = drain(&mut q).iter().map(|e| e.2).collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    /// One scripted push/pop sequence: a push with a class goes through
    /// `push_lane`, `None` pops once.
    type Op = Option<(Option<u64>, u64, u32)>;

    fn script(kind: SchedulerKind, ops: &[Op]) -> (Vec<(Ns, u64, u32)>, EventQueue<u32>) {
        let mut q = EventQueue::new(kind);
        let mut out = Vec::new();
        for op in ops {
            match *op {
                Some((Some(class), at, v)) => q.push_lane(class, Ns(at), v),
                Some((None, at, v)) => q.push(Ns(at), v),
                None => out.extend(q.pop()),
            }
        }
        (out, q)
    }

    /// Runs `ops` then drains, on both backends; asserts they agree and
    /// returns the popped payloads plus how many entries sat in the wheel
    /// proper (not its lanes) after the last op.
    fn lanes_vs_heap(ops: &[Op]) -> (Vec<u32>, usize) {
        let (mut heap_out, mut heap) = script(SchedulerKind::Heap, ops);
        let (mut wheel_out, mut wheel) = script(SchedulerKind::Wheel, ops);
        let Inner::Wheel(w) = &wheel.inner else {
            unreachable!("built as a wheel");
        };
        let in_wheel = w.wheel_len;
        heap_out.extend(drain(&mut heap));
        wheel_out.extend(drain(&mut wheel));
        assert_eq!(
            heap_out, wheel_out,
            "wheel with lanes diverged from the heap"
        );
        (wheel_out.iter().map(|e| e.2).collect(), in_wheel)
    }

    #[test]
    fn a_lane_head_and_a_wheel_entry_at_one_instant_pop_by_id() {
        let t = 3_000_000;
        let (order, _) = lanes_vs_heap(&[
            Some((None, t, 0)),
            Some((Some(7), t, 1)),
            Some((None, t, 2)),
            Some((Some(9), t, 3)),
            Some((Some(7), t, 4)),
        ]);
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn an_entry_earlier_than_its_lane_tail_falls_back_to_the_wheel() {
        let (order, in_wheel) = lanes_vs_heap(&[
            Some((Some(5), 900, 0)),
            Some((Some(5), 100, 1)), // earlier than the tail: wheel
            Some((Some(5), 900, 2)), // not earlier: lane
        ]);
        assert_eq!(order, vec![1, 0, 2]);
        assert_eq!(in_wheel, 1);
    }

    #[test]
    fn more_live_classes_than_lanes_fall_back_to_the_wheel() {
        let ops: Vec<Op> = (0..LANES as u32 + 2)
            .map(|c| Some((Some(u64::from(c)), 1_000 * u64::from(10 - c), c)))
            .collect();
        let (order, in_wheel) = lanes_vs_heap(&ops);
        assert_eq!(order, (0..10).rev().collect::<Vec<u32>>());
        assert_eq!(in_wheel, 2);
    }

    #[test]
    fn a_drained_lane_is_reclaimed_by_a_new_class() {
        let mut ops: Vec<Op> = (0..LANES as u64)
            .map(|c| Some((Some(c), 1_000 + c, c as u32)))
            .collect();
        ops.push(None); // lane 0 drains
        ops.push(Some((Some(99), 2_000, 8))); // takes it over
        let (order, in_wheel) = lanes_vs_heap(&ops);
        assert_eq!(order, (0..9).collect::<Vec<u32>>());
        assert_eq!(in_wheel, 0);
    }

    #[test]
    fn the_wheel_cursor_may_run_ahead_of_lane_pops() {
        // The far wheel entry is drained into `ready` at the first pop,
        // while the lane still holds earlier entries; later plain pushes
        // into that gap must still pop in order.
        let ms = 1_000_000;
        let (order, _) = lanes_vs_heap(&[
            Some((None, 40 * ms, 0)),
            Some((Some(1), ms, 1)),
            Some((Some(1), 2 * ms, 2)),
            None,
            Some((None, 3 * ms, 3)),
            Some((None, 2 * ms, 4)),
            Some((Some(1), 3 * ms, 5)),
        ]);
        assert_eq!(order, vec![1, 2, 4, 3, 5, 0]);
    }

    #[test]
    fn lanes_hold_entries_near_the_end_of_time() {
        let (order, in_wheel) = lanes_vs_heap(&[
            Some((Some(3), u64::MAX - 1, 0)),
            Some((Some(3), u64::MAX, 1)),
            Some((None, u64::MAX, 2)),
            Some((Some(4), 0, 3)),
            Some((Some(3), u64::MAX, 4)),
        ]);
        assert_eq!(order, vec![3, 0, 1, 2, 4]);
        assert_eq!(in_wheel, 1);
    }

    /// Strict-lane behaviour: normal interleavings sail through the
    /// shadow checker; scheduling into the past is caught at the push.
    #[cfg(feature = "strict-invariants")]
    mod strict_lane {
        use super::*;

        #[test]
        fn normal_interleavings_pass_the_shadow_checker() {
            for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
                let mut q = EventQueue::new(kind);
                // Deterministic scatter across granules and levels,
                // including same-instant bursts and reentrant pushes.
                // Like the simulator, only ever schedule at or after the
                // current (last-popped) time.
                let mut t = 17u64;
                let mut now = Ns::ZERO;
                for i in 0..2_000u32 {
                    t = t
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    q.push(Ns(now.0 + (t >> 20) % 50_000_000), i);
                    if i % 3 == 0 {
                        if let Some((at, _, _)) = q.pop() {
                            now = at;
                            q.push(at, i); // same-instant reentry
                        }
                    }
                }
                let mut last = None;
                while let Some((at, id, _)) = q.pop() {
                    assert!(last < Some((at, id)));
                    last = Some((at, id));
                }
            }
        }

        #[test]
        #[should_panic(expected = "scheduled into the past")]
        fn scheduling_into_the_past_panics() {
            let mut q = EventQueue::new(SchedulerKind::Wheel);
            q.push(Ns::from_millis(10), 0u32);
            let _ = q.pop();
            q.push(Ns::from_millis(1), 1u32);
        }
    }

    #[test]
    fn cascaded_slots_do_not_keep_the_largest_buffer_ever_seen() {
        // Churn-shaped: an arrival every 100 µs arms one timer due
        // 200 ms–1 s later, and the queue is driven like the simulator
        // drives it, popping in order and never scheduling into the past.
        // Each level-2 slot fills with ≈ 2 700 entries before it cascades
        // through level 1; if a cascaded buffer were handed on, level 1's
        // 256 slots would each come to hold one that size.
        const ARRIVAL: u32 = u32::MAX;
        let mut rng = crate::rng::SimRng::new(2013);
        let delays: Vec<u64> = (0..100_000)
            .map(|_| rng.range_u64(200_000_000, 1_000_000_000))
            .collect();
        let runs = [SchedulerKind::Heap, SchedulerKind::Wheel].map(|kind| {
            let mut q = EventQueue::new(kind);
            q.push(Ns::ZERO, ARRIVAL);
            let mut timers = delays.iter().zip(0u32..);
            let (mut popped, mut peak_len, mut peak_cap) = (Vec::new(), 0, 0);
            while let Some((at, id, v)) = q.pop() {
                popped.push((at, id, v));
                if v == ARRIVAL {
                    if let Some((&delay, i)) = timers.next() {
                        q.push(Ns(at.0 + delay), i);
                        q.push(Ns(at.0 + 100_000), ARRIVAL);
                    }
                }
                peak_len = peak_len.max(q.len());
                peak_cap = peak_cap.max(q.slot_capacity());
            }
            (popped, peak_len, peak_cap)
        });
        let [(heap, peak_len, _), (wheel, _, cap)] = runs;
        assert_eq!(heap.len(), 2 * delays.len() + 1);
        assert!(heap == wheel, "wheel diverged from the heap");
        assert!(
            cap <= 4 * peak_len,
            "slot capacity {cap} must stay within a small multiple of the \
             {peak_len} entries the wheel ever held"
        );
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = EventQueue::new(SchedulerKind::Wheel);
        for i in 0..100u32 {
            q.push(Ns(i as u64 * 77_777), i);
        }
        assert_eq!(q.len(), 100);
        for _ in 0..40 {
            q.pop();
        }
        assert_eq!(q.len(), 60);
        drain(&mut q);
        assert!(q.is_empty());
    }
}
