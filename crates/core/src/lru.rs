//! A fully associative true-LRU index with constant-cost look-ups.
//!
//! The POLB (paper §4.1) and the D-TLB are fully associative: the
//! hardware matches a tag against every entry at once, so a look-up
//! costs the same at 1 entry or 128. [`Lru`] gives the model the same
//! property on the host. A hash map from key to slot replaces the scan
//! over entries, and a doubly linked list over the slots keeps them in
//! recency order, so the victim on a miss is always the list's tail.
//! Hit, miss, fill and eviction are each O(1), whatever the capacity.
//!
//! The index holds only keys. A caller keeps whatever an entry carries
//! (the POLB's pool or frame base) in its own array, at the slot the
//! index reports; a slot keeps its number for as long as its key stays.
//!
//! ```
//! use poat_core::lru::Lru;
//!
//! let mut lru = Lru::new(2);
//! assert_eq!(lru.touch(7), None);
//! let (a, _) = lru.insert(7);
//! let (b, _) = lru.insert(9);
//! assert_eq!(lru.touch(7), Some(a)); // 9 is now the least recently used
//! assert_eq!(lru.insert(11), (b, Some(9))); // 11 takes 9's slot
//! ```

use crate::hash::IntMap;

/// Ends the recency list. It lies past every slot, so `nodes.get(NIL)`
/// finds no neighbour there.
const NIL: u32 = u32::MAX;

/// One slot: its key and its recency neighbours.
#[derive(Clone, Copy, Debug)]
struct Node {
    key: u64,
    /// The next more recently used slot, or [`NIL`] at the head.
    newer: u32,
    /// The next less recently used slot, or [`NIL`] at the tail.
    older: u32,
}

/// A fully associative true-LRU index over `u64` keys (see the
/// [module docs](self)).
#[derive(Clone, Debug)]
pub struct Lru {
    /// The slot of every resident key.
    slots: IntMap<u64, u32>,
    /// Slots in use, in the order they were first filled.
    nodes: Vec<Node>,
    /// Most recently used slot, or [`NIL`] while empty.
    head: u32,
    /// Least recently used slot, or [`NIL`] while empty.
    tail: u32,
    capacity: usize,
}

impl Lru {
    /// Creates an empty index of `capacity` slots. At capacity 0 every
    /// [`touch`](Self::touch) misses and nothing may be inserted.
    ///
    /// # Panics
    ///
    /// If `capacity` does not fit a 32-bit slot number.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity < NIL as usize,
            "LRU capacity {capacity} exceeds 32-bit slot numbers"
        );
        let mut slots = IntMap::default();
        slots.reserve(capacity);
        Lru {
            slots,
            nodes: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Looks `key` up. On a hit, makes it the most recently used and
    /// returns its slot. The most recently used key answers with one
    /// compare, before the hash look-up.
    #[inline]
    pub fn touch(&mut self, key: u64) -> Option<usize> {
        if self
            .nodes
            .get(self.head as usize)
            .is_some_and(|n| n.key == key)
        {
            return Some(self.head as usize);
        }
        let slot = *self.slots.get(&key)?;
        self.unlink(slot);
        self.push_front(slot);
        Some(slot as usize)
    }

    /// Installs `key`, which must not be resident (a [`touch`] of it
    /// just missed), as the most recently used. Returns its slot and,
    /// once every slot is in use, the least recently used key, whose
    /// slot it takes.
    ///
    /// # Panics
    ///
    /// At capacity 0, which has no slot to give.
    ///
    /// [`touch`]: Self::touch
    #[inline]
    pub fn insert(&mut self, key: u64) -> (usize, Option<u64>) {
        debug_assert!(!self.slots.contains_key(&key), "{key:#x} is resident");
        let (slot, evicted) = if self.nodes.len() < self.capacity {
            self.nodes.push(Node {
                key,
                newer: NIL,
                older: NIL,
            });
            (self.nodes.len() as u32 - 1, None)
        } else {
            let slot = self.tail;
            let old = std::mem::replace(&mut self.nodes[slot as usize].key, key);
            self.slots.remove(&old);
            self.unlink(slot);
            (slot, Some(old))
        };
        self.slots.insert(key, slot);
        self.push_front(slot);
        (slot as usize, evicted)
    }

    /// Number of slots (0 = the index holds nothing).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Takes `slot` out of the recency list.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let Node { newer, older, .. } = self.nodes[slot as usize];
        match self.nodes.get_mut(newer as usize) {
            Some(n) => n.older = older,
            None => self.head = older,
        }
        match self.nodes.get_mut(older as usize) {
            Some(n) => n.newer = newer,
            None => self.tail = newer,
        }
    }

    /// Puts `slot`, which is not in the recency list, at its head.
    #[inline]
    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        let node = &mut self.nodes[slot as usize];
        node.newer = NIL;
        node.older = old_head;
        match self.nodes.get_mut(old_head as usize) {
            Some(n) => n.newer = slot,
            None => self.tail = slot,
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_the_least_recently_used_key() {
        let mut lru = Lru::new(3);
        let slots: Vec<usize> = [1, 2, 3].iter().map(|&k| lru.insert(k).0).collect();
        assert_eq!(slots, [0, 1, 2]);
        assert_eq!(lru.touch(1), Some(0));
        assert_eq!(lru.insert(4), (1, Some(2)), "2 was least recent");
        assert_eq!(lru.touch(2), None);
        assert_eq!(lru.insert(5), (2, Some(3)));
        assert_eq!(lru.insert(6), (0, Some(1)));
        assert_eq!(lru.touch(4), Some(1));
    }

    #[test]
    fn one_slot_holds_the_last_key() {
        let mut lru = Lru::new(1);
        assert_eq!(lru.insert(8), (0, None));
        assert_eq!(lru.touch(8), Some(0));
        assert_eq!(lru.insert(9), (0, Some(8)));
        assert_eq!(lru.touch(8), None);
        assert_eq!(lru.touch(9), Some(0));
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut lru = Lru::new(0);
        assert_eq!(lru.touch(0), None);
        assert_eq!(lru.capacity(), 0);
    }
}
