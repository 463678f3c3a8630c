//! The generational slab behind the packet arena and the flow table.
//!
//! A [`Slab`] stores values in reusable slots addressed by 8-byte
//! [`Handle`]s: slot index plus the slot's generation when the handle was
//! minted. A slot's generation is even while it is free and odd while it
//! is live (taking and releasing it each bump the counter once), so a
//! handle kept past its value's lifetime fails the generation check
//! instead of aliasing whatever later recycled the slot. Freed slots are
//! reused last-in-first-out, keeping the working set compact and
//! cache-warm, and keep their value: [`Slab::reuse`] hands it back in
//! place, heap blocks and all. A handle is typed by its slab's value, so
//! a `FlowId` cannot index the packet arena.

use std::fmt;
use std::marker::PhantomData;

/// Generational handle to one value in a [`Slab<T>`].
pub struct Handle<T> {
    index: u32,
    generation: u32,
    slab: PhantomData<fn() -> T>,
}

impl<T> Handle<T> {
    fn new(index: u32, generation: u32) -> Handle<T> {
        Handle {
            index,
            generation,
            slab: PhantomData,
        }
    }

    /// The handle of slot `index`'s *first* lifetime (generation 1),
    /// which a value never freed (a persistent sender) keeps for good.
    pub fn first(index: usize) -> Handle<T> {
        // lint:allow(p1-sim-unwrap): slots are bounded by what is live at
        // once (packets in flight, concurrent flows, persistent senders),
        // far below u32::MAX on any machine this will run on.
        Handle::new(u32::try_from(index).expect("more than u32::MAX slots"), 1)
    }

    /// Slot index (identity requires the generation).
    pub fn index(self) -> u32 {
        self.index
    }

    /// The slot's generation when this handle was minted.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

impl<T> Clone for Handle<T> {
    fn clone(&self) -> Handle<T> {
        *self
    }
}

impl<T> Copy for Handle<T> {}

impl<T> PartialEq for Handle<T> {
    fn eq(&self, other: &Handle<T>) -> bool {
        (self.index, self.generation) == (other.index, other.generation)
    }
}

impl<T> Eq for Handle<T> {}

impl<T> fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Handle({}, generation {})", self.index, self.generation)
    }
}

#[repr(C)]
struct Slot<T> {
    /// Even = free, odd = live (see module docs). First in the slot so
    /// the generation check and the value's leading fields share a cache
    /// line.
    generation: u32,
    value: T,
}

/// A slab of reusable, generation-checked slots (see the module docs).
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Slab<T> {
        Slab::with_capacity(0)
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Slab<T> {
        Slab::default()
    }

    /// An empty slab with room for `capacity` values before regrowing.
    pub fn with_capacity(capacity: usize) -> Slab<T> {
        Slab {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            live: 0,
        }
    }

    /// Store a value in the most recently freed slot, or in a new one
    /// when none is free; returns its handle.
    #[inline]
    pub fn alloc(&mut self, value: T) -> Handle<T> {
        match self.reuse() {
            Some((id, slot)) => {
                *slot = value;
                id
            }
            None => {
                let id = Handle::first(self.slots.len());
                self.slots.push(Slot {
                    generation: 1,
                    value,
                });
                self.live += 1;
                id
            }
        }
    }

    /// Start a new lifetime in the most recently freed slot *in place*:
    /// returns its handle and the previous lifetime's value (heap blocks
    /// intact), which the caller must re-initialize. `None` when no slot
    /// is free.
    #[inline]
    pub fn reuse(&mut self) -> Option<(Handle<T>, &mut T)> {
        let index = self.free.pop()?;
        let slot = &mut self.slots[index as usize];
        // Strict lane: an odd generation here means the free list
        // aliased a live value.
        #[cfg(feature = "strict-invariants")]
        assert_eq!(
            slot.generation % 2,
            0,
            "strict-invariants: free list handed out a live slot {index}"
        );
        slot.generation = slot.generation.wrapping_add(1);
        self.live += 1;
        Some((Handle::new(index, slot.generation), &mut slot.value))
    }

    /// Release a handle's slot for reuse; the value stays in place for
    /// [`Slab::reuse`]. Panics on a stale handle: a double free is always
    /// an engine bug.
    #[inline]
    pub fn free(&mut self, id: Handle<T>) {
        // Strict lane: the handle comes from a live (odd) lifetime, and
        // the accounting identity holds on entry.
        #[cfg(feature = "strict-invariants")]
        {
            assert_eq!(
                id.generation % 2,
                1,
                "strict-invariants: freeing a handle minted in a free lifetime"
            );
            assert!(
                self.audit_accounting(),
                "strict-invariants: slab live/free accounting diverged"
            );
        }
        let slot = &mut self.slots[id.index as usize];
        assert_eq!(
            slot.generation, id.generation,
            "freeing a stale handle (double free?)"
        );
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index);
        self.live -= 1;
    }

    /// Resolve a handle to its slot index, or `None` if stale: the
    /// tolerance primitive for handles that may outlive their value.
    #[inline]
    pub fn index_of(&self, id: Handle<T>) -> Option<usize> {
        let i = id.index as usize;
        (self.slots.get(i).map(|s| s.generation) == Some(id.generation)).then_some(i)
    }

    /// The current handle of live slot `index`. Panics if it is free.
    pub(crate) fn id_at(&self, index: usize) -> Handle<T> {
        let generation = self.slots[index].generation;
        assert_eq!(generation % 2, 1, "slot {index} is not live");
        Handle::new(index as u32, generation)
    }

    /// The value in slot `i` (a handle resolved by [`Slab::index_of`]).
    #[inline]
    pub(crate) fn at(&self, i: usize) -> &T {
        &self.slots[i].value
    }

    /// Mutable [`Slab::at`].
    #[inline]
    pub(crate) fn at_mut(&mut self, i: usize) -> &mut T {
        &mut self.slots[i].value
    }

    /// Values currently live.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Slots ever created (live + reusable): the peak *concurrent*
    /// population, not the number of values that ever existed.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The accounting identity `live + free == slots` (cheap; the
    /// strict-invariants lane also checks it on every free).
    pub fn audit_accounting(&self) -> bool {
        self.live + self.free.len() == self.slots.len()
    }
}

impl<T> std::ops::Index<Handle<T>> for Slab<T> {
    type Output = T;
    #[inline]
    fn index(&self, id: Handle<T>) -> &T {
        let slot = &self.slots[id.index as usize];
        assert_eq!(slot.generation, id.generation, "stale handle");
        &slot.value
    }
}

impl<T> std::ops::IndexMut<Handle<T>> for Slab<T> {
    #[inline]
    fn index_mut(&mut self, id: Handle<T>) -> &mut T {
        let slot = &mut self.slots[id.index as usize];
        assert_eq!(slot.generation, id.generation, "stale handle");
        &mut slot.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "stale handle")]
    fn rejects_stale_reads() {
        let mut s = Slab::new();
        let id = s.alloc(0u64);
        s.free(id);
        let _ = s.alloc(1);
        let _ = s[id]; // the recycled slot must not alias through the old id
    }
}
