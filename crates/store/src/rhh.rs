//! An open-addressing hash map with Robin Hood hashing and backward-shift
//! deletion.
//!
//! This is the storage engine behind the dynamic graph store, mirroring the
//! paper's DegAwareRHH structure (§III-B): "open addressing and compact hash
//! tables with Robin Hood Hashing", chosen for its data locality on
//! high-degree vertices. Robin Hood hashing minimizes the *variance* of probe
//! distances by letting an inserting entry steal the slot of any resident
//! entry that is closer to its ideal bucket ("take from the rich"). Combined
//! with backward-shift deletion this keeps probe sequences short and scan
//! behaviour cache-friendly.
//!
//! The map keys *vertices*: the store's intern table and its snapshot-fork
//! side map. A vertex's neighbours are not in one of these — "iterate all
//! neighbours of a vertex", the workload's dominant operation, is a slice
//! walk over [`crate::Adjacency`]'s edge slab.
//!
//! The table is specialized for the integer-like keys used throughout the
//! storage layer via [`Key64`]; values are arbitrary.

use crate::hash::Key64;

/// Probe distance stored per slot. `EMPTY` marks an unoccupied slot.
type Dist = u16;
const EMPTY: Dist = Dist::MAX;

/// Maximum load factor numerator/denominator: grow beyond 7/8 full.
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;

struct Slot<K, V> {
    dist: Dist,
    // Only valid when `dist != EMPTY`. We keep K: Copy and store V inline;
    // `Option` would cost an extra discriminant per slot and hurt locality.
    key: std::mem::MaybeUninit<K>,
    value: std::mem::MaybeUninit<V>,
}

impl<K, V> Slot<K, V> {
    #[inline(always)]
    fn empty() -> Self {
        Slot {
            dist: EMPTY,
            key: std::mem::MaybeUninit::uninit(),
            value: std::mem::MaybeUninit::uninit(),
        }
    }

    #[inline(always)]
    fn is_empty(&self) -> bool {
        self.dist == EMPTY
    }
}

/// A Robin Hood hash map over [`Key64`] keys.
///
/// # Examples
/// ```
/// use remo_store::rhh::RhhMap;
/// let mut m: RhhMap<u64, &str> = RhhMap::new();
/// m.insert(7, "seven");
/// assert_eq!(m.get(7), Some(&"seven"));
/// assert_eq!(m.remove(7), Some("seven"));
/// assert!(m.is_empty());
/// ```
pub struct RhhMap<K: Key64, V> {
    slots: Vec<Slot<K, V>>,
    len: usize,
    /// `slots.len() - 1`; slots.len() is always a power of two (or zero).
    mask: usize,
}

impl<K: Key64, V> Default for RhhMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key64, V> RhhMap<K, V> {
    /// Creates an empty map without allocating.
    pub fn new() -> Self {
        RhhMap {
            slots: Vec::new(),
            len: 0,
            mask: 0,
        }
    }

    /// Creates a map that can hold `cap` entries without reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        let mut m = Self::new();
        if cap > 0 {
            m.grow_to(Self::slots_for(cap));
        }
        m
    }

    fn slots_for(cap: usize) -> usize {
        // Smallest power of two with load factor headroom; at least 8.
        let needed = cap * LOAD_DEN / LOAD_NUM + 1;
        needed.next_power_of_two().max(8)
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots allocated (power of two, or zero for a fresh map).
    #[inline]
    pub fn capacity_slots(&self) -> usize {
        self.slots.len()
    }

    /// Actual heap footprint of the slot array, in bytes. Values are
    /// stored inline, so this is the map's whole allocation (excluding
    /// whatever the values themselves point to).
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<K, V>>()
    }

    #[inline(always)]
    fn ideal(&self, key: K) -> usize {
        (key.hash64() as usize) & self.mask
    }

    /// Looks up `key`, returning a reference to its value.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        self.find(key)
            .map(|i| unsafe { self.slots[i].value.assume_init_ref() })
    }

    /// Looks up `key`, returning a mutable reference to its value.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.find(key)
            .map(|i| unsafe { self.slots[i].value.assume_init_mut() })
    }

    /// True when `key` is present.
    #[inline]
    pub fn contains(&self, key: K) -> bool {
        self.find(key).is_some()
    }

    /// Index of the slot holding `key`, if present. Uses the Robin Hood
    /// early-exit: once we meet a resident whose probe distance is smaller
    /// than ours, the key cannot be further along.
    #[inline]
    fn find(&self, key: K) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mut idx = self.ideal(key);
        let mut dist: Dist = 0;
        loop {
            let slot = &self.slots[idx];
            if slot.is_empty() || slot.dist < dist {
                return None;
            }
            if slot.dist == dist && unsafe { *slot.key.assume_init_ref() } == key {
                return Some(idx);
            }
            idx = (idx + 1) & self.mask;
            dist += 1;
        }
    }

    /// Inserts `key -> value`, returning the previous value if the key was
    /// already present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.reserve_one();
        match self.insert_inner(key, value) {
            InsertOutcome::Replaced(old) => Some(old),
            InsertOutcome::Inserted(_) => {
                self.len += 1;
                None
            }
        }
    }

    /// Returns a mutable reference to the value for `key`, inserting the
    /// result of `default()` first if absent. Single probe sequence on
    /// either path (hot in the engine's per-event vertex lookup).
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        self.entry_or_insert_with(key, default).0
    }

    /// Like [`Self::get_or_insert_with`], additionally reporting whether
    /// the entry was newly created.
    pub fn entry_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> (&mut V, bool) {
        if let Some(idx) = self.find(key) {
            return (unsafe { self.slots[idx].value.assume_init_mut() }, false);
        }
        self.reserve_one();
        let idx = match self.insert_inner(key, default()) {
            InsertOutcome::Inserted(idx) => idx,
            InsertOutcome::Replaced(_) => unreachable!("find() said absent"),
        };
        self.len += 1;
        (unsafe { self.slots[idx].value.assume_init_mut() }, true)
    }

    /// Removes `key`, returning its value if present. Uses backward-shift
    /// deletion: subsequent displaced entries are moved one slot back, which
    /// (unlike tombstones) keeps probe distances tight under churn.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let idx = self.find(key)?;
        let slot = &mut self.slots[idx];
        slot.dist = EMPTY;
        let value = unsafe {
            slot.key.assume_init_drop_shim();
            slot.value.assume_init_read()
        };
        self.len -= 1;
        // Backward shift: pull each following entry with dist > 0 back by one.
        let mut hole = idx;
        loop {
            let next = (hole + 1) & self.mask;
            let next_dist = self.slots[next].dist;
            if next_dist == EMPTY || next_dist == 0 {
                break;
            }
            let moved = std::mem::replace(&mut self.slots[next], Slot::empty());
            self.slots[hole] = Slot {
                dist: moved.dist - 1,
                key: moved.key,
                value: moved.value,
            };
            hole = next;
        }
        Some(value)
    }

    /// Visits every `(key, &value)` pair in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.slots
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| unsafe { (*s.key.assume_init_ref(), s.value.assume_init_ref()) })
    }

    /// Visits every `(key, &mut value)` pair in unspecified order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> + '_ {
        self.slots
            .iter_mut()
            .filter(|s| !s.is_empty())
            .map(|s| unsafe { (*s.key.assume_init_ref(), s.value.assume_init_mut()) })
    }

    /// Visits every key in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Removes all entries, retaining the allocation.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            if !slot.is_empty() {
                slot.dist = EMPTY;
                unsafe {
                    slot.key.assume_init_drop_shim();
                    slot.value.assume_init_drop();
                }
            }
        }
        self.len = 0;
    }

    /// Longest probe distance currently present (0 for an empty map). Exposed
    /// for tests and the store ablation bench: Robin Hood keeps this small.
    pub fn max_probe_distance(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| s.dist as usize)
            .max()
            .unwrap_or(0)
    }

    #[inline]
    fn reserve_one(&mut self) {
        if self.slots.is_empty() {
            self.grow_to(8);
        } else if (self.len + 1) * LOAD_DEN > self.slots.len() * LOAD_NUM {
            self.grow_to(self.slots.len() * 2);
        }
    }

    fn grow_to(&mut self, new_slots: usize) {
        debug_assert!(new_slots.is_power_of_two());
        let old = std::mem::replace(
            &mut self.slots,
            (0..new_slots).map(|_| Slot::empty()).collect(),
        );
        self.mask = new_slots - 1;
        for slot in old {
            if !slot.is_empty() {
                let (key, value) =
                    unsafe { (*slot.key.assume_init_ref(), slot.value.assume_init_read()) };
                let _ = self.insert_inner(key, value);
            }
        }
    }

    /// Core Robin Hood insertion; assumes capacity is available. Does not
    /// touch `self.len`. Reports the slot index where the *original* key
    /// landed (it never moves again within this insertion: only displaced
    /// residents keep probing).
    fn insert_inner(&mut self, mut key: K, mut value: V) -> InsertOutcome<V> {
        let mut idx = self.ideal(key);
        let mut dist: Dist = 0;
        let mut original_at: Option<usize> = None;
        loop {
            let slot = &mut self.slots[idx];
            if slot.is_empty() {
                slot.dist = dist;
                slot.key.write(key);
                slot.value.write(value);
                return InsertOutcome::Inserted(original_at.unwrap_or(idx));
            }
            if original_at.is_none()
                && slot.dist == dist
                && unsafe { *slot.key.assume_init_ref() } == key
            {
                let old = std::mem::replace(unsafe { slot.value.assume_init_mut() }, value);
                return InsertOutcome::Replaced(old);
            }
            if slot.dist < dist {
                // Steal from the rich: swap the resident out and keep probing
                // to re-place it.
                std::mem::swap(&mut slot.dist, &mut dist);
                unsafe {
                    let k = *slot.key.assume_init_ref();
                    slot.key.write(key);
                    key = k;
                    std::mem::swap(slot.value.assume_init_mut(), &mut value);
                }
                if original_at.is_none() {
                    original_at = Some(idx);
                }
            }
            idx = (idx + 1) & self.mask;
            dist = dist
                .checked_add(1)
                .expect("probe distance overflow: table failed to grow");
        }
    }
}

enum InsertOutcome<V> {
    /// Newly inserted; payload is the slot index of the inserted key.
    Inserted(usize),
    /// Key existed; payload is the previous value.
    Replaced(V),
}

impl<K: Key64, V> Drop for RhhMap<K, V> {
    fn drop(&mut self) {
        if std::mem::needs_drop::<V>() || std::mem::needs_drop::<K>() {
            self.clear();
        }
    }
}

impl<K: Key64, V: Clone> Clone for RhhMap<K, V> {
    fn clone(&self) -> Self {
        let mut m = RhhMap::with_capacity(self.len);
        for (k, v) in self.iter() {
            m.insert(k, v.clone());
        }
        m
    }
}

impl<K: Key64 + std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for RhhMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// `MaybeUninit<K>` for `K: Copy` never needs dropping; this shim documents
/// intent at the call sites that conceptually "take" the key.
trait DropShim {
    unsafe fn assume_init_drop_shim(&mut self);
}

impl<K: Copy> DropShim for std::mem::MaybeUninit<K> {
    #[inline(always)]
    unsafe fn assume_init_drop_shim(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut m = RhhMap::new();
        for i in 0u64..1000 {
            assert_eq!(m.insert(i, i * 2), None);
        }
        assert_eq!(m.len(), 1000);
        for i in 0u64..1000 {
            assert_eq!(m.get(i), Some(&(i * 2)));
        }
        assert_eq!(m.get(1000), None);
    }

    #[test]
    fn insert_replaces() {
        let mut m = RhhMap::new();
        assert_eq!(m.insert(5u64, "a"), None);
        assert_eq!(m.insert(5u64, "b"), Some("a"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(5), Some(&"b"));
    }

    #[test]
    fn remove_backward_shift_preserves_lookups() {
        let mut m = RhhMap::new();
        for i in 0u64..512 {
            m.insert(i, i);
        }
        // Remove every third key and verify the rest stay findable.
        for i in (0u64..512).step_by(3) {
            assert_eq!(m.remove(i), Some(i));
        }
        for i in 0u64..512 {
            if i % 3 == 0 {
                assert_eq!(m.get(i), None, "key {i} should be gone");
            } else {
                assert_eq!(m.get(i), Some(&i), "key {i} should remain");
            }
        }
    }

    #[test]
    fn remove_missing_is_none() {
        let mut m: RhhMap<u64, u64> = RhhMap::new();
        assert_eq!(m.remove(1), None);
        m.insert(1, 1);
        assert_eq!(m.remove(2), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn get_or_insert_with() {
        let mut m: RhhMap<u64, Vec<u64>> = RhhMap::new();
        m.get_or_insert_with(3, Vec::new).push(7);
        m.get_or_insert_with(3, Vec::new).push(8);
        assert_eq!(m.get(3), Some(&vec![7, 8]));
    }

    #[test]
    fn iter_sees_everything_once() {
        let mut m = RhhMap::new();
        for i in 0u64..100 {
            m.insert(i, ());
        }
        let mut keys: Vec<u64> = m.keys().collect();
        keys.sort_unstable();
        assert_eq!(keys, (0u64..100).collect::<Vec<_>>());
    }

    #[test]
    fn clear_retains_allocation() {
        let mut m = RhhMap::new();
        for i in 0u64..100 {
            m.insert(i, i);
        }
        let cap = m.capacity_slots();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity_slots(), cap);
        m.insert(1, 1);
        assert_eq!(m.get(1), Some(&1));
    }

    #[test]
    fn with_capacity_avoids_growth() {
        let mut m = RhhMap::with_capacity(1000);
        let cap = m.capacity_slots();
        for i in 0u64..1000 {
            m.insert(i, ());
        }
        assert_eq!(m.capacity_slots(), cap);
    }

    #[test]
    fn probe_distances_stay_small_at_load() {
        let mut m = RhhMap::with_capacity(10_000);
        for i in 0u64..10_000 {
            m.insert(i, ());
        }
        // Robin Hood at <= 7/8 load keeps the max probe length modest; the
        // expected max is O(log n). 64 is a very loose ceiling that still
        // catches clustering regressions.
        assert!(
            m.max_probe_distance() < 64,
            "max probe distance {}",
            m.max_probe_distance()
        );
    }

    #[test]
    fn drops_values_exactly_once() {
        use std::rc::Rc;
        let sentinel = Rc::new(());
        {
            let mut m = RhhMap::new();
            for i in 0u64..100 {
                m.insert(i, Rc::clone(&sentinel));
            }
            for i in 0u64..50 {
                m.remove(i);
            }
            assert_eq!(Rc::strong_count(&sentinel), 51);
        }
        assert_eq!(Rc::strong_count(&sentinel), 1);
    }

    #[test]
    fn clone_is_deep_and_equal() {
        let mut m = RhhMap::new();
        for i in 0u64..100 {
            m.insert(i, i + 1);
        }
        let c = m.clone();
        for i in 0u64..100 {
            assert_eq!(c.get(i), Some(&(i + 1)));
        }
        assert_eq!(c.len(), m.len());
    }

    #[test]
    fn dense_collisions_handled() {
        // Keys that collide in low bits exercise long probe chains.
        let mut m = RhhMap::new();
        let stride = 1u64 << 32;
        for i in 0u64..200 {
            m.insert(i * stride, i);
        }
        for i in 0u64..200 {
            assert_eq!(m.get(i * stride), Some(&i));
        }
    }
}
