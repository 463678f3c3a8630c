//! Pending-event schedulers for the simulator.
//!
//! The event loop pops entries in strict `(time, insertion id)` order; the
//! id tie-break makes simultaneous events deterministic. [`EventQueue`]
//! abstracts the structure that maintains that order, with two
//! implementations sharing one ordering contract:
//!
//! * [`SchedulerKind::Heap`] — the classic `BinaryHeap` priority queue
//!   (`O(log n)` per operation, the original engine);
//! * [`SchedulerKind::Wheel`] — a hierarchical timing wheel: 7 levels of
//!   256 slots whose granules grow by 256× per level, covering the entire
//!   `u64` nanosecond range from a 4.096 µs finest granule. Insertion
//!   hashes on time bits (`O(1)` amortized, events cascade down at most
//!   once per level), and the slot being drained is kept sorted so pops
//!   still come out in exact `(time, id)` order.
//!
//! Both produce bit-identical pop sequences for any insert/pop interleaving
//! that never schedules into the past (the simulator's invariant; pinned by
//! the property suite in `tests/` and the dual-scheduler equivalence
//! suite). The wheel is what simulators run on; the heap is the reference
//! those suites compare it against, picked explicitly with
//! [`crate::sim::Simulator::with_scheduler`].

use crate::time::Ns;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which pending-event structure a simulator uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Hierarchical timing wheel (the default).
    #[default]
    Wheel,
    /// Binary-heap priority queue.
    Heap,
}

impl SchedulerKind {
    /// Lower-case label for reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Wheel => "wheel",
            SchedulerKind::Heap => "heap",
        }
    }
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
            Inner::Wheel(w) => w.len,
        }
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

struct TimingWheel<T> {
    /// Events of the granule currently being drained, sorted by
    /// `(time, id)` *descending* so pops are `Vec::pop` from the tail.
    ready: Vec<(Ns, u64, T)>,
    /// Granule index (`time >> G0_BITS`) of the `ready` set. All events
    /// stored in the wheel proper belong to strictly later granules.
    cur_g: u64,
    /// `LEVELS × SLOTS` buckets, flattened. Buffers are recycled (swapped
    /// with `ready`/`scratch`) rather than dropped, so steady-state
    /// operation allocates nothing.
    slots: Vec<Vec<(Ns, u64, T)>>,
    /// Per-level occupancy bitmaps.
    occupied: [[u64; OCC_WORDS]; LEVELS],
    /// Reused staging buffer for cascading an upper-level slot down.
    scratch: Vec<(Ns, u64, T)>,
    len: usize,
}

impl<T> TimingWheel<T> {
    fn new() -> TimingWheel<T> {
        TimingWheel {
            ready: Vec::new(),
            cur_g: 0,
            slots: std::iter::repeat_with(Vec::new)
                .take(LEVELS * SLOTS)
                .collect(),
            occupied: [[0; OCC_WORDS]; LEVELS],
            scratch: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, at: Ns, id: u64, ev: T) {
        self.len += 1;
        self.place(at, id, ev);
    }

    /// File an entry into `ready` (same granule as the drain cursor) or
    /// the level whose window contains its granule.
    #[inline]
    fn place(&mut self, at: Ns, id: u64, ev: T) {
        let g = at.0 >> G0_BITS;
        if g <= self.cur_g {
            // Same granule as the one being drained (never earlier: the
            // engine does not schedule into the past). Keep `ready`
            // sorted descending by (time, id).
            debug_assert!(g == self.cur_g || self.ready.is_empty() && self.wheel_empty());
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

    fn wheel_empty(&self) -> bool {
        self.occupied.iter().flatten().all(|&o| o == 0)
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

    fn pop(&mut self) -> Option<(Ns, u64, T)> {
        loop {
            if let Some(e) = self.ready.pop() {
                self.len -= 1;
                return Some(e);
            }
            // Advance: the lowest occupied level holds the earliest
            // events (level ℓ's window ends where level ℓ+1's slots
            // begin). Drain a level-0 slot into `ready`, or cascade an
            // upper-level slot down and retry.
            let (level, slot) = (0..LEVELS).find_map(|l| self.first_occupied(l).map(|s| (l, s)))?;
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
                // Cascade the slot one or more levels down, through the
                // reusable scratch buffer (no allocation churn).
                let mut scratch = std::mem::take(&mut self.scratch);
                let flat = level * SLOTS + slot;
                std::mem::swap(&mut scratch, &mut self.slots[flat]);
                for (at, id, ev) in scratch.drain(..) {
                    self.place(at, id, ev);
                }
                self.scratch = scratch;
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
            EventQueue::<u32>::new(SchedulerKind::Heap).kind().label(),
            "heap"
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
