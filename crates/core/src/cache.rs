//! The client-side index cache: bounded, hotness-aware, deterministic.
//!
//! Every [`crate::AcesoClient`] keeps a private cache mapping keys to the
//! index slot that last resolved them — both the slot *address* (so an
//! UPDATE can speculate straight to the commit CAS) and the slot *value*
//! (so a hot SEARCH can read the KV pair and re-read the 16 B slot in one
//! doorbell batch, ~1 RTT instead of 2, §3.5.1). Fills never pay their own
//! round trip: they ride the read batches SEARCH and UPDATE already issue.
//!
//! Three properties this module enforces:
//!
//! * **Bounded.** The map holds at most `capacity` entries
//!   ([`ClientTuning::cache_capacity`](crate::ClientTuning::cache_capacity)).
//!   Eviction is CLOCK / second-chance: every hit sets a reference bit, the
//!   clock hand sweeps keys in order giving each referenced entry one more
//!   round before it goes. CLOCK approximates LRU without per-hit
//!   reordering, which keeps hits O(log n) and — unlike an LRU list — keeps
//!   the structure trivially deterministic.
//! * **Deterministic.** Backed by a `BTreeMap`, so the eviction sweep and
//!   every purge iterate in key order — never `HashMap` iteration order
//!   (the PR 6 lesson: seed-stable benches and chaos schedules must not
//!   depend on hasher state).
//! * **Safely invalidated.** The cache never *serves* stale data on its
//!   own authority — every hit is verified against fabric state (slot
//!   re-read, or the commit CAS itself), and the client drops entries on
//!   commit-CAS failure, on epoch fences / placement refresh (any entry
//!   whose column's placement changed after the fill, see
//!   [`crate::PlacementSnapshot::col_epoch`]), and on recovery
//!   notification. The `client.cache.invalidations` counter tracks these
//!   drops; `evictions` counts only capacity evictions.

use aceso_index::{SlotAtomic, SlotMeta};
use aceso_obs::{Counter, Registry};
use aceso_rdma::GlobalAddr;
use std::collections::BTreeMap;

/// One cached index resolution for a key.
///
/// Holds everything a client needs to skip the index walk: where the slot
/// lives (`slot_addr`, for the speculative commit CAS), what it contained
/// (`atomic` + `meta`, for the batched KV-read-plus-verify fast path), and
/// the placement epoch the fill was made under (`fill_epoch`, for the
/// epoch-based purge in `refresh_placement`).
#[derive(Clone, Copy, Debug)]
pub struct CacheEntry {
    /// Physical address of the 16 B index slot at fill time.
    pub slot_addr: GlobalAddr,
    /// The slot's Atomic word as last observed (fp, version, KV pointer).
    pub atomic: SlotAtomic,
    /// The slot's Meta word as last observed (epoch, lock, obsolete bits).
    pub meta: SlotMeta,
    /// True when the cached slot recorded a tombstone (deleted key).
    pub tombstone: bool,
    /// The client's placement epoch when this entry was filled. An entry
    /// is purged once the placement of any column it references advanced
    /// past this epoch.
    pub fill_epoch: u64,
}

/// Pre-resolved counter handles, present only when the owning store has a
/// recorder installed — the disabled path stays zero-overhead.
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    invalidations: Counter,
}

impl CacheMetrics {
    fn new(reg: &Registry) -> Self {
        CacheMetrics {
            hits: reg.counter("client.cache.hits"),
            misses: reg.counter("client.cache.misses"),
            evictions: reg.counter("client.cache.evictions"),
            invalidations: reg.counter("client.cache.invalidations"),
        }
    }
}

struct Slot<E> {
    entry: E,
    /// CLOCK reference bit: set on every hit, cleared (one second chance)
    /// when the hand sweeps past.
    referenced: bool,
}

/// A bounded, deterministic, second-chance index cache (see the module
/// docs for the eviction and invalidation contract). The sweep, the bound
/// and the counters do not look inside an entry: `E` is Aceso's
/// [`CacheEntry`], or whatever another engine's client remembers per key.
pub struct IndexCache<E = CacheEntry> {
    map: BTreeMap<Vec<u8>, Slot<E>>,
    capacity: usize,
    /// The CLOCK hand: the key the next eviction sweep starts from.
    /// `None` means "start from the first key". Keys removed out from
    /// under the hand are harmless — the sweep is a range query.
    hand: Option<Vec<u8>>,
    metrics: Option<CacheMetrics>,
}

impl<E: Copy> IndexCache<E> {
    /// Creates a cache bounded at `capacity` entries. A capacity of 0
    /// disables caching entirely (every insert is a no-op).
    pub fn new(capacity: usize, reg: Option<&Registry>) -> Self {
        IndexCache {
            map: BTreeMap::new(),
            capacity,
            hand: None,
            metrics: reg.map(CacheMetrics::new),
        }
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when `key` is cached (does not touch recency or counters).
    pub fn contains(&self, key: &[u8]) -> bool {
        self.map.contains_key(key)
    }

    /// Re-bounds the cache (factor analysis / `set_tuning`), evicting down
    /// to the new capacity if it shrank.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.map.len() > self.capacity {
            self.evict_one();
        }
    }

    /// Looks `key` up, counting a hit or a miss and setting the reference
    /// bit on a hit. This is the op-entry lookup; use [`IndexCache::peek`]
    /// for a secondary probe inside the same logical operation.
    pub fn get(&mut self, key: &[u8]) -> Option<E> {
        match self.map.get_mut(key) {
            Some(slot) => {
                slot.referenced = true;
                if let Some(m) = &self.metrics {
                    m.hits.inc();
                }
                Some(slot.entry)
            }
            None => {
                if let Some(m) = &self.metrics {
                    m.misses.inc();
                }
                None
            }
        }
    }

    /// Looks `key` up and refreshes its recency **without** counting a hit
    /// or miss — for the second probe of an operation that already counted
    /// its lookup (e.g. the slow-path `locate_slot` after a rejected
    /// speculation), so `hits + misses` stays one-per-lookup.
    pub fn peek(&mut self, key: &[u8]) -> Option<E> {
        self.map.get_mut(key).map(|slot| {
            slot.referenced = true;
            slot.entry
        })
    }

    /// Inserts (or refreshes) `key`. Fills ride existing read batches, so
    /// this never touches the fabric; it may evict one cold entry to stay
    /// within capacity. With `capacity == 0` this is a no-op. The key is
    /// copied only when it is not cached yet: refreshing a present key
    /// (every committed UPDATE of a hot key) allocates nothing.
    pub fn insert(&mut self, key: &[u8], entry: E) {
        if self.capacity == 0 {
            return;
        }
        if let Some(slot) = self.map.get_mut(key) {
            slot.entry = entry;
            slot.referenced = true;
            return;
        }
        while self.map.len() >= self.capacity {
            self.evict_one();
        }
        self.map.insert(
            key.to_vec(),
            Slot {
                entry,
                referenced: true,
            },
        );
    }

    /// Drops `key`, counting an invalidation if it was present. Every
    /// targeted removal is a correctness-motivated invalidation (CAS
    /// failure, fence bounce, verify mismatch) — capacity evictions go
    /// through the internal sweep instead.
    pub fn invalidate(&mut self, key: &[u8]) -> bool {
        let hit = self.map.remove(key).is_some();
        if hit {
            if let Some(m) = &self.metrics {
                m.invalidations.inc();
            }
        }
        hit
    }

    /// Drops every entry `stale` returns true for, counting each as an
    /// invalidation. Iterates in key order (deterministic). Used by the
    /// placement refresh (epoch / retirement purge) and recovery
    /// notifications.
    pub fn purge(&mut self, mut stale: impl FnMut(&[u8], &E) -> bool) {
        let before = self.map.len();
        self.map.retain(|k, slot| !stale(k, &slot.entry));
        let dropped = (before - self.map.len()) as u64;
        if dropped > 0 {
            if let Some(m) = &self.metrics {
                m.invalidations.add(dropped);
            }
        }
    }

    /// Evicts exactly one entry by the CLOCK sweep: advance the hand in
    /// key order (wrapping), clear reference bits as second chances, and
    /// remove the first unreferenced entry met. Terminates within two laps
    /// — after one full lap every bit is clear.
    fn evict_one(&mut self) {
        if self.map.is_empty() {
            return;
        }
        loop {
            let key = match &self.hand {
                Some(h) => self
                    .map
                    .range::<[u8], _>((
                        std::ops::Bound::Included(h.as_slice()),
                        std::ops::Bound::Unbounded,
                    ))
                    .next()
                    .map(|(k, _)| k.clone()),
                None => None,
            }
            .or_else(|| self.map.keys().next().cloned())
            .expect("map is non-empty");
            // Position the hand just past the current key: its successor,
            // expressed as the smallest key strictly greater (key + 0x00).
            let mut next = key.clone();
            next.push(0);
            self.hand = Some(next);
            let slot = self.map.get_mut(&key).expect("key just ranged");
            if slot.referenced {
                slot.referenced = false;
            } else {
                self.map.remove(&key);
                if let Some(m) = &self.metrics {
                    m.evictions.inc();
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_rdma::NodeId;

    fn entry(tag: u64) -> CacheEntry {
        CacheEntry {
            slot_addr: GlobalAddr::new(NodeId(0), tag),
            atomic: SlotAtomic::default(),
            meta: SlotMeta::default(),
            tombstone: false,
            fill_epoch: tag,
        }
    }

    fn key(i: usize) -> Vec<u8> {
        format!("key-{i:04}").into_bytes()
    }

    /// The bound and the sweep never look inside an entry: Aceso's
    /// `CacheEntry` and a bare word (what another engine might keep) churn
    /// alike.
    fn churn<E: Copy>(entry: impl Fn(u64) -> E) {
        let mut c = IndexCache::<E>::new(8, None);
        for i in 0..1000 {
            c.insert(&key(i), entry(i as u64));
            assert!(c.len() <= 8, "cache exceeded bound at insert {i}");
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn bound_holds_under_churn() {
        churn(entry);
        churn::<u64>(|tag| tag);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = IndexCache::new(0, None);
        c.insert(&key(1), entry(1));
        assert!(c.is_empty());
        assert!(c.get(&key(1)).is_none());
    }

    #[test]
    fn clock_gives_referenced_entries_a_second_chance() {
        let mut c = IndexCache::new(4, None);
        for i in 0..4 {
            c.insert(&key(i), entry(i as u64));
        }
        // Keep key(1) hot through heavy churn. (key(0) sits exactly where
        // the clock hand starts, and CLOCK's first all-referenced sweep
        // legitimately evicts the hand position — so the guarantee under
        // test is "an entry re-referenced after the hand passes survives",
        // demonstrated on a key that is not the initial hand position.)
        for i in 4..20 {
            assert!(c.get(&key(1)).is_some(), "hot key evicted at round {i}");
            c.insert(&key(i), entry(i as u64));
        }
        assert!(c.contains(&key(1)), "hot key should survive the churn");
    }

    #[test]
    fn eviction_order_is_deterministic() {
        let run = || {
            let mut c = IndexCache::new(4, None);
            for i in 0..32 {
                c.insert(&key(i), entry(i as u64));
            }
            c.map.keys().cloned().collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn counters_track_hits_misses_evictions_invalidations() {
        let reg = Registry::new();
        let mut c = IndexCache::new(2, Some(&reg));
        c.insert(&key(0), entry(0));
        c.insert(&key(1), entry(1));
        assert!(c.get(&key(0)).is_some());
        assert!(c.get(&key(9)).is_none());
        c.insert(&key(2), entry(2)); // evicts one
        assert!(c.invalidate(&key(2)));
        assert!(!c.invalidate(&key(2))); // absent: not counted
        c.purge(|_, _| true);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("client.cache.hits"), Some(1));
        assert_eq!(snap.counter("client.cache.misses"), Some(1));
        assert_eq!(snap.counter("client.cache.evictions"), Some(1));
        // invalidate(key2) + purge of the single remaining entry.
        assert_eq!(snap.counter("client.cache.invalidations"), Some(2));
    }

    #[test]
    fn peek_refreshes_recency_without_counting() {
        let reg = Registry::new();
        let mut c = IndexCache::new(2, Some(&reg));
        c.insert(&key(0), entry(0));
        assert!(c.peek(&key(0)).is_some());
        assert!(c.peek(&key(5)).is_none());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("client.cache.hits"), Some(0));
        assert_eq!(snap.counter("client.cache.misses"), Some(0));
    }

    #[test]
    fn shrinking_capacity_evicts_down() {
        let mut c = IndexCache::new(8, None);
        for i in 0..8 {
            c.insert(&key(i), entry(i as u64));
        }
        c.set_capacity(3);
        assert_eq!(c.len(), 3);
        c.insert(&key(100), entry(100));
        assert_eq!(c.len(), 3);
    }
}
