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
//! * **Bounded.** The cache holds at most `capacity` entries
//!   ([`ClientTuning::cache_capacity`](crate::ClientTuning::cache_capacity))
//!   in a ring of positions. Eviction is CLOCK / second-chance: a fill
//!   enters *unreferenced*, a hit or a refresh sets its reference bit, and
//!   the hand walks the ring clearing set bits and evicting the first
//!   clear one it meets. So a key earns a second lap by being used once
//!   after its fill, and a key filled and never hit leaves on the hand's
//!   next pass. A lookup is one hash probe, a miss at capacity adds a short
//!   sweep of the ring, and a hit reorders nothing.
//! * **Deterministic.** Which entry goes depends only on ring positions
//!   and reference bits: fills take positions in order, `invalidate` and
//!   `purge` hand theirs to a free list that the next fills reuse before
//!   anything is evicted, the hand is a position, and `purge` walks
//!   positions in ring order. The key → position map is lookup-only —
//!   nothing iterates it — and hashes with a fixed hasher, so no behaviour
//!   and no cost depends on per-process hasher state (seed-stable benches
//!   and chaos schedules).
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
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

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

/// The occupant of one ring position.
struct Pos<E> {
    key: Vec<u8>,
    entry: E,
    /// CLOCK reference bit: set by a hit or a refresh, cleared (one second
    /// chance) when the hand passes.
    referenced: bool,
}

/// A bounded, deterministic, second-chance index cache (see the module
/// docs for the eviction and invalidation contract). The sweep, the bound
/// and the counters do not look inside an entry: `E` is Aceso's
/// [`CacheEntry`], or whatever another engine's client remembers per key.
pub struct IndexCache<E = CacheEntry> {
    /// The CLOCK ring, in fill order; `None` is a position `invalidate` or
    /// `purge` emptied. Never longer than `capacity`.
    ring: Vec<Option<Pos<E>>>,
    /// Key → ring position. Lookup-only: nothing iterates it.
    map: HashMap<Vec<u8>, usize, BuildHasherDefault<DefaultHasher>>,
    /// The emptied positions of `ring`, reused before anything is evicted.
    free: Vec<usize>,
    /// The CLOCK hand: the position the next eviction sweep starts from.
    hand: usize,
    capacity: usize,
    metrics: Option<CacheMetrics>,
}

impl<E: Copy> IndexCache<E> {
    /// Creates a cache bounded at `capacity` entries. A capacity of 0
    /// disables caching entirely (every insert is a no-op).
    pub fn new(capacity: usize, reg: Option<&Registry>) -> Self {
        IndexCache {
            ring: Vec::new(),
            map: HashMap::default(),
            free: Vec::new(),
            hand: 0,
            capacity,
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

    /// Re-bounds the cache (factor analysis / `set_tuning`). If it shrank,
    /// the sweep evicts down to the new capacity, then the survivors move
    /// to the front of the ring in the order the hand would meet them.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        if self.ring.len() <= capacity {
            return;
        }
        while self.map.len() > capacity {
            self.evict_one();
        }
        self.ring.rotate_left(self.hand);
        self.ring.retain(Option::is_some);
        (self.hand, self.free) = (0, Vec::new());
        for (p, pos) in self.ring.iter().flatten().enumerate() {
            self.map.insert(pos.key.clone(), p);
        }
    }

    /// Looks `key` up, counting a hit or a miss and setting the reference
    /// bit on a hit. This is the op-entry lookup; use [`IndexCache::peek`]
    /// for a secondary probe inside the same logical operation.
    pub fn get(&mut self, key: &[u8]) -> Option<E> {
        let found = self.peek(key);
        if let Some(m) = &self.metrics {
            match found {
                Some(_) => m.hits.inc(),
                None => m.misses.inc(),
            }
        }
        found
    }

    /// Looks `key` up and refreshes its recency **without** counting a hit
    /// or miss — for the second probe of an operation that already counted
    /// its lookup (e.g. the slow-path `locate_slot` after a rejected
    /// speculation), so `hits + misses` stays one-per-lookup.
    pub fn peek(&mut self, key: &[u8]) -> Option<E> {
        let pos = self.ring[*self.map.get(key)?].as_mut()?;
        pos.referenced = true;
        Some(pos.entry)
    }

    /// Inserts (or refreshes) `key`. Fills ride existing read batches, so
    /// this never touches the fabric; a fill takes an emptied position,
    /// then a new one, and only at capacity evicts one cold entry. With
    /// `capacity == 0` this is a no-op. A refresh sets the reference bit; a
    /// fill enters unreferenced. The key is copied only when it is not
    /// cached yet: refreshing a present key (every committed UPDATE of a
    /// hot key) allocates nothing.
    pub fn insert(&mut self, key: &[u8], entry: E) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&p) = self.map.get(key) {
            if let Some(pos) = &mut self.ring[p] {
                pos.entry = entry;
                pos.referenced = true;
            }
            return;
        }
        let p = if self.map.len() >= self.capacity {
            self.evict_one()
        } else if let Some(p) = self.free.pop() {
            p
        } else {
            self.ring.push(None);
            self.ring.len() - 1
        };
        self.map.insert(key.to_vec(), p);
        self.ring[p] = Some(Pos {
            key: key.to_vec(),
            entry,
            referenced: false,
        });
    }

    /// Drops `key`, counting an invalidation if it was present. Every
    /// targeted removal is a correctness-motivated invalidation (CAS
    /// failure, fence bounce, verify mismatch) — capacity evictions go
    /// through the internal sweep instead.
    pub fn invalidate(&mut self, key: &[u8]) -> bool {
        let Some(p) = self.map.remove(key) else {
            return false;
        };
        self.ring[p] = None;
        self.free.push(p);
        if let Some(m) = &self.metrics {
            m.invalidations.inc();
        }
        true
    }

    /// Drops every entry `stale` returns true for, counting each as an
    /// invalidation. Walks the ring in position order (deterministic). Used
    /// by the placement refresh (epoch / retirement purge) and recovery
    /// notifications.
    pub fn purge(&mut self, mut stale: impl FnMut(&[u8], &E) -> bool) {
        let before = self.map.len();
        for (p, slot) in self.ring.iter_mut().enumerate() {
            if let Some(pos) = slot.take_if(|pos| stale(&pos.key, &pos.entry)) {
                self.map.remove(&pos.key);
                self.free.push(p);
            }
        }
        let dropped = (before - self.map.len()) as u64;
        if dropped > 0 {
            if let Some(m) = &self.metrics {
                m.invalidations.add(dropped);
            }
        }
    }

    /// Evicts exactly one entry by the CLOCK sweep and returns its emptied
    /// position: from the hand, walk the ring (wrapping), clear reference
    /// bits as second chances, and evict the first unreferenced entry met.
    /// Terminates within two laps — after one full lap every bit is clear.
    /// The caller guarantees at least one entry is cached.
    fn evict_one(&mut self) -> usize {
        loop {
            let p = self.hand;
            self.hand = (p + 1) % self.ring.len();
            let Some(pos) = &mut self.ring[p] else {
                continue;
            };
            if std::mem::take(&mut pos.referenced) {
                continue;
            }
            self.map.remove(&pos.key);
            self.ring[p] = None;
            if let Some(m) = &self.metrics {
                m.evictions.inc();
            }
            return p;
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

    /// The naive CLOCK the ring is checked against: one `Vec` of
    /// `(key, entry, referenced)` positions searched linearly, under the
    /// same hand and fill rules, with its own hit / miss / eviction /
    /// invalidation counts.
    #[derive(Default)]
    struct RefClock {
        slots: Vec<Option<(Vec<u8>, u64, bool)>>,
        free: Vec<usize>,
        hand: usize,
        capacity: usize,
        counts: [u64; 4],
    }

    impl RefClock {
        fn find(&self, key: &[u8]) -> Option<usize> {
            let holds = |s: &Option<(Vec<u8>, u64, bool)>| s.as_ref().is_some_and(|s| s.0 == key);
            self.slots.iter().position(holds)
        }

        fn live(&self) -> usize {
            self.slots.iter().flatten().count()
        }

        fn peek(&mut self, key: &[u8]) -> Option<u64> {
            let p = self.find(key)?;
            let slot = self.slots[p].as_mut().unwrap();
            slot.2 = true;
            Some(slot.1)
        }

        fn get(&mut self, key: &[u8]) -> Option<u64> {
            let found = self.peek(key);
            self.counts[if found.is_some() { 0 } else { 1 }] += 1;
            found
        }

        fn evict(&mut self) -> usize {
            loop {
                let p = self.hand;
                self.hand = (p + 1) % self.slots.len();
                match &mut self.slots[p] {
                    Some((_, _, referenced)) if *referenced => *referenced = false,
                    Some(_) => {
                        self.slots[p] = None;
                        self.counts[2] += 1;
                        return p;
                    }
                    None => {}
                }
            }
        }

        fn insert(&mut self, key: &[u8], entry: u64) {
            if self.capacity == 0 {
                return;
            }
            if let Some(p) = self.find(key) {
                self.slots[p] = Some((key.to_vec(), entry, true));
                return;
            }
            let p = if self.live() >= self.capacity {
                self.evict()
            } else if let Some(p) = self.free.pop() {
                p
            } else {
                self.slots.push(None);
                self.slots.len() - 1
            };
            self.slots[p] = Some((key.to_vec(), entry, false));
        }

        fn drop_at(&mut self, p: usize) {
            self.slots[p] = None;
            self.free.push(p);
            self.counts[3] += 1;
        }

        fn invalidate(&mut self, key: &[u8]) -> bool {
            self.find(key).map(|p| self.drop_at(p)).is_some()
        }

        fn purge(&mut self, stale: impl Fn(&u64) -> bool) {
            for p in 0..self.slots.len() {
                if self.slots[p].as_ref().is_some_and(|s| stale(&s.1)) {
                    self.drop_at(p);
                }
            }
        }

        fn set_capacity(&mut self, capacity: usize) {
            self.capacity = capacity;
            if self.slots.len() <= capacity {
                return;
            }
            while self.live() > capacity {
                self.evict();
            }
            let n = self.slots.len();
            let from_hand = (0..n).map(|i| self.slots[(self.hand + i) % n].clone());
            self.slots = from_hand.filter(Option::is_some).collect();
            (self.hand, self.free) = (0, Vec::new());
        }
    }

    /// Same positions, bits, hand, free list and counters — and the map
    /// points every cached key at its position.
    fn assert_same(c: &IndexCache<u64>, r: &RefClock, reg: &Registry, at: &str) {
        let as_tuple = |p: &Pos<u64>| (p.key.clone(), p.entry, p.referenced);
        let ring: Vec<_> = c.ring.iter().map(|s| s.as_ref().map(as_tuple)).collect();
        assert_eq!(ring, r.slots, "{at}");
        assert_eq!((c.hand, &c.free), (r.hand, &r.free), "{at}");
        assert_eq!(c.len(), r.live(), "{at}");
        for (p, pos) in c.ring.iter().enumerate() {
            if let Some(pos) = pos {
                assert_eq!(c.map.get(&pos.key), Some(&p), "{at}");
            }
        }
        let snap = reg.snapshot();
        let counts = ["hits", "misses", "evictions", "invalidations"]
            .map(|n| snap.counter(&format!("client.cache.{n}")).unwrap_or(0));
        assert_eq!(counts, r.counts, "{at}");
    }

    /// Seeded random `get` / `peek` / `insert` / `invalidate` / `purge` /
    /// `set_capacity` sequences leave the ring and the reference CLOCK
    /// identical after every step.
    #[test]
    fn ring_matches_the_reference_clock() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for capacity in [0usize, 1, 8] {
            for seed in 0..16u64 {
                let reg = Registry::new();
                let mut c = IndexCache::<u64>::new(capacity, Some(&reg));
                let mut r = RefClock {
                    capacity,
                    ..RefClock::default()
                };
                let mut rng = StdRng::seed_from_u64(seed);
                for step in 0..400 {
                    let k = key(rng.gen_range(0..12));
                    let op = match rng.gen_range(0..100u32) {
                        0..=29 => {
                            assert_eq!(c.get(&k), r.get(&k));
                            "get"
                        }
                        30..=39 => {
                            assert_eq!(c.peek(&k), r.peek(&k));
                            "peek"
                        }
                        40..=79 => {
                            let e = rng.gen_range(0..1_000u64);
                            c.insert(&k, e);
                            r.insert(&k, e);
                            "insert"
                        }
                        80..=91 => {
                            assert_eq!(c.invalidate(&k), r.invalidate(&k));
                            "invalidate"
                        }
                        92..=96 => {
                            let m = rng.gen_range(2..5u64);
                            c.purge(|_, e| e % m == 0);
                            r.purge(|e| e % m == 0);
                            "purge"
                        }
                        _ => {
                            let cap = rng.gen_range(0..capacity + 3);
                            c.set_capacity(cap);
                            r.set_capacity(cap);
                            "set_capacity"
                        }
                    };
                    assert_same(
                        &c,
                        &r,
                        &reg,
                        &format!("cap {capacity} seed {seed} step {step} {op}"),
                    );
                }
            }
        }
    }

    /// A fill enters unreferenced: the first sweep passes over an entry
    /// hit since its fill and evicts the next fill that never was, although
    /// that one was filled later.
    #[test]
    fn a_fill_never_hit_goes_before_a_hit_one() {
        let mut c = IndexCache::new(4, None);
        for i in 0..4 {
            c.insert(&key(i), entry(i as u64));
        }
        assert!(c.get(&key(0)).is_some());
        c.insert(&key(4), entry(4));
        assert!(c.contains(&key(0)), "the hit entry keeps its second chance");
        assert!(
            !c.contains(&key(1)),
            "the unhit fill after it is the victim"
        );
    }

    /// An `insert` at capacity right after an `invalidate` takes the
    /// emptied position and evicts nothing.
    #[test]
    fn a_fill_after_an_invalidate_evicts_nothing() {
        let reg = Registry::new();
        let mut c = IndexCache::new(4, Some(&reg));
        for i in 0..4 {
            c.insert(&key(i), entry(i as u64));
        }
        assert!(c.invalidate(&key(2)));
        c.insert(&key(9), entry(9));
        assert_eq!(reg.snapshot().counter("client.cache.evictions"), Some(0));
        assert_eq!(c.len(), 4);
        assert_eq!(
            c.map.get(&key(9)[..]),
            Some(&2),
            "the emptied position is reused"
        );
    }

    /// `purge` frees positions, and the next fills reuse them before the
    /// ring grows or anything is evicted.
    #[test]
    fn purged_positions_are_reused_by_the_next_fills() {
        let reg = Registry::new();
        let mut c = IndexCache::new(4, Some(&reg));
        for i in 0..4 {
            c.insert(&key(i), entry(i as u64));
        }
        c.purge(|_, e| e.fill_epoch % 2 == 1);
        assert_eq!(c.len(), 2);
        c.insert(&key(8), entry(8));
        c.insert(&key(9), entry(9));
        assert_eq!(reg.snapshot().counter("client.cache.evictions"), Some(0));
        assert_eq!(c.ring.len(), 4);
        let mut reused = [key(8), key(9)].map(|k| c.map[&k[..]]);
        reused.sort();
        assert_eq!(reused, [1, 3], "the purged positions hold the new fills");
    }
}
