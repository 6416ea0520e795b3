//! The per-node LRU cache store (`C_Num` slots, Table 1).

use mp2p_sim::{FastMap, ItemId, SimTime};

use crate::item::Version;

/// One cached copy of a data item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// The cached version (`VER_d` of the copy).
    pub version: Version,
    /// Content size in bytes.
    pub size_bytes: u32,
    /// When the copy was last written (fetched or refreshed).
    pub fetched_at: SimTime,
    /// True if an invalidation marked this copy stale; a stale copy still
    /// serves weak-consistency reads but must be re-fetched for stronger
    /// levels.
    pub stale: bool,
}

/// A fixed-capacity LRU store of cache copies — the paper's `C_Num` cached
/// items per mobile host.
///
/// # Example
///
/// ```
/// use mp2p_cache::{CacheStore, Version};
/// use mp2p_sim::{ItemId, SimTime};
///
/// let mut store = CacheStore::new(2);
/// store.insert(ItemId::new(1), Version::new(0), 512, SimTime::ZERO);
/// store.insert(ItemId::new(2), Version::new(0), 512, SimTime::ZERO);
/// store.touch(ItemId::new(1)); // make item 1 most recent
/// store.insert(ItemId::new(3), Version::new(0), 512, SimTime::ZERO);
/// assert!(store.contains(ItemId::new(1)));
/// assert!(!store.contains(ItemId::new(2))); // LRU victim
/// ```
#[derive(Debug, Clone)]
pub struct CacheStore {
    capacity: usize,
    entries: FastMap<ItemId, Slot>,
    clock: u64,
}

#[derive(Debug, Clone)]
struct Slot {
    entry: CacheEntry,
    last_use: u64,
}

impl CacheStore {
    /// Creates a store with room for `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        CacheStore {
            capacity,
            entries: FastMap::default(),
            clock: 0,
        }
    }

    /// The configured capacity (`C_Num`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached items.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if `item` is cached (fresh or stale).
    pub fn contains(&self, item: ItemId) -> bool {
        self.entries.contains_key(&item)
    }

    /// The cached copy of `item`, if present, without touching LRU order.
    pub fn peek(&self, item: ItemId) -> Option<&CacheEntry> {
        self.entries.get(&item).map(|s| &s.entry)
    }

    /// Marks `item` as most recently used and returns its entry.
    pub fn touch(&mut self, item: ItemId) -> Option<&CacheEntry> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(&item).map(|slot| {
            slot.last_use = clock;
            &slot.entry
        })
    }

    /// Inserts or refreshes a cached copy, evicting the least recently
    /// used item if the store is full. Returns the evicted item, if any.
    pub fn insert(
        &mut self,
        item: ItemId,
        version: Version,
        size_bytes: u32,
        now: SimTime,
    ) -> Option<ItemId> {
        self.clock += 1;
        let slot = Slot {
            entry: CacheEntry {
                version,
                size_bytes,
                fetched_at: now,
                stale: false,
            },
            last_use: self.clock,
        };
        if self.entries.insert(item, slot).is_some() {
            return None; // refresh, no eviction
        }
        if self.entries.len() <= self.capacity {
            return None;
        }
        let victim = self
            .entries
            .iter()
            .filter(|(&id, _)| id != item)
            .min_by_key(|(id, s)| (s.last_use, **id))
            .map(|(&id, _)| id)
            .expect("store over capacity implies at least one other entry");
        self.entries.remove(&victim);
        Some(victim)
    }

    /// Marks a cached copy stale (push-style invalidation). Returns true
    /// if the item was cached.
    pub fn mark_stale(&mut self, item: ItemId) -> bool {
        match self.entries.get_mut(&item) {
            Some(slot) => {
                slot.entry.stale = true;
                true
            }
            None => false,
        }
    }

    /// Refreshes a cached copy in place to `version`, clearing staleness.
    /// Returns false if the item is not cached.
    pub fn refresh(&mut self, item: ItemId, version: Version, now: SimTime) -> bool {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(&item) {
            Some(slot) => {
                slot.entry.version = version;
                slot.entry.fetched_at = now;
                slot.entry.stale = false;
                slot.last_use = clock;
                true
            }
            None => false,
        }
    }

    /// Drops a cached copy entirely. Returns the removed entry, if any.
    pub fn remove(&mut self, item: ItemId) -> Option<CacheEntry> {
        self.entries.remove(&item).map(|s| s.entry)
    }

    /// Iterates over cached `(item, entry)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, &CacheEntry)> {
        self.entries.iter().map(|(&id, slot)| (id, &slot.entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn id(i: u32) -> ItemId {
        ItemId::new(i)
    }

    #[test]
    fn insert_and_peek() {
        let mut store = CacheStore::new(4);
        assert!(store
            .insert(id(1), Version::new(2), 100, SimTime::ZERO)
            .is_none());
        let e = store.peek(id(1)).unwrap();
        assert_eq!(e.version, Version::new(2));
        assert!(!e.stale);
        assert!(store.peek(id(9)).is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut store = CacheStore::new(3);
        for i in 1..=3 {
            store.insert(id(i), Version::INITIAL, 10, SimTime::ZERO);
        }
        store.touch(id(1));
        store.touch(id(2));
        // id(3) is now LRU.
        let evicted = store.insert(id(4), Version::INITIAL, 10, SimTime::ZERO);
        assert_eq!(evicted, Some(id(3)));
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn refresh_does_not_evict() {
        let mut store = CacheStore::new(2);
        store.insert(id(1), Version::INITIAL, 10, SimTime::ZERO);
        store.insert(id(2), Version::INITIAL, 10, SimTime::ZERO);
        assert!(store
            .insert(id(1), Version::new(5), 10, SimTime::ZERO)
            .is_none());
        assert_eq!(store.peek(id(1)).unwrap().version, Version::new(5));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn stale_marking_and_refresh() {
        let mut store = CacheStore::new(2);
        store.insert(id(1), Version::INITIAL, 10, SimTime::ZERO);
        assert!(store.mark_stale(id(1)));
        assert!(store.peek(id(1)).unwrap().stale);
        assert!(!store.mark_stale(id(7)));
        let later = SimTime::from_millis(500);
        assert!(store.refresh(id(1), Version::new(1), later));
        let e = store.peek(id(1)).unwrap();
        assert!(!e.stale);
        assert_eq!(e.version, Version::new(1));
        assert_eq!(e.fetched_at, later);
        assert!(!store.refresh(id(7), Version::new(1), later));
    }

    #[test]
    fn remove_returns_entry() {
        let mut store = CacheStore::new(2);
        store.insert(id(1), Version::new(3), 10, SimTime::ZERO);
        let e = store.remove(id(1)).unwrap();
        assert_eq!(e.version, Version::new(3));
        assert!(store.remove(id(1)).is_none());
        assert!(store.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = CacheStore::new(0);
    }

    proptest! {
        /// The store never exceeds capacity, whatever the operation mix.
        #[test]
        fn prop_capacity_invariant(ops in proptest::collection::vec((0u32..20, 0u8..4), 1..200)) {
            let mut store = CacheStore::new(5);
            for (i, op) in ops {
                match op {
                    0 => { store.insert(id(i), Version::INITIAL, 8, SimTime::ZERO); }
                    1 => { store.touch(id(i)); }
                    2 => { store.mark_stale(id(i)); }
                    _ => { store.remove(id(i)); }
                }
                prop_assert!(store.len() <= 5);
            }
        }

        /// A just-inserted item survives the insertion that follows it.
        #[test]
        fn prop_most_recent_survives(items in proptest::collection::vec(0u32..50, 2..100)) {
            let mut store = CacheStore::new(3);
            let mut prev: Option<ItemId> = None;
            for i in items {
                store.insert(id(i), Version::INITIAL, 8, SimTime::ZERO);
                if let Some(p) = prev {
                    if p != id(i) {
                        prop_assert!(store.contains(p), "previous insert evicted too early");
                    }
                }
                prev = Some(id(i));
            }
        }
    }
}
