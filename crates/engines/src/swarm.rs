//! SWARM-style in-place replication with a 1-RTT small-value write path.
//!
//! SWARM (PAPERS.md) argues that for small values, full replication can
//! commit in a *single* round trip: instead of appending new KV records and
//! then committing through a chain of index CASes (FUSEE's ≥ 2-RTT path),
//! the writer overwrites the value **in place** on every replica and folds
//! the commit compare-and-swap into the same doorbell batch. This module
//! reproduces that write path on the simulated fabric:
//!
//! * Values live in fixed-class **cells**: a commit-version word followed
//!   by a version-stamped payload image (`stamp | len | klen | key | value
//!   | stamp`). A cell is *committed* when its leading stamp, trailing
//!   stamp, and commit word all agree.
//! * An UPDATE whose client cache knows the cell posts one doorbell batch:
//!   `r` payload-image writes (stamped `v+1`) plus `r` commit CASes
//!   (`v → v+1`) — **one round trip end to end** (the example below).
//! * INSERT/DELETE fold their index-slot CASes into the same batch, paying
//!   only the preceding bucket scan as a second round trip.
//! * Torn states left by a crashed writer are repaired by
//!   [`Protocol::repair`]: the highest *committed* replica image wins
//!   and is rewritten everywhere; index slots that point at never-committed
//!   cells are rolled back.
//!
//! Concurrent writers to the *same* key are resolved last-writer-wins
//! through the commit CAS; a writer that loses any replica's CAS
//! reconciles the cell against the primary replica and retries. The
//! deterministic chaos/bench schedules drive disjoint key sets per client,
//! so the in-place payload overwrite (an intentional write/write data race
//! under last-writer-wins semantics) is never exercised under the race
//! detector — the same discipline SWARM's sequence-number argument makes
//! in hardware.
//!
//! The index is the same replicated RACE layout as the FUSEE baseline
//! ([`crate::layout`]) and everything that is not a write protocol is the
//! shared [`crate::substrate`]; what changes is everything after the
//! bucket scan.
//!
//! ```
//! use aceso_engines::substrate::ReplConfig;
//! use aceso_engines::swarm::SwarmStore;
//!
//! let store = SwarmStore::launch(ReplConfig::small());
//! let mut c = store.client();
//! c.insert(b"hot", b"aaaaaaaa").unwrap();
//! c.dm.take_ops();
//!
//! c.update(b"hot", b"bbbbbbbb").unwrap();
//! let rec = c.dm.take_ops().records.pop().unwrap();
//! assert_eq!(rec.rtts, 1, "replicated commit in one round trip");
//! assert_eq!(rec.cas, 3, "one commit CAS per replica, folded in");
//! assert_eq!(rec.batches, 1, "a single doorbell batch");
//! ```

use crate::layout::{Slot8, SlotPos};
use crate::substrate::{
    live_slots, Cell, Judged, Protocol, ReplClient, ReplError, ReplStore, Result,
};
use aceso_index::fingerprint;
use aceso_rdma::GlobalAddr;

/// Payload header: `stamp(u64) | total(u32) | klen(u16) | pad(u16)`.
const PAY_HDR: usize = 16;
/// Trailing stamp.
const PAY_TRAILER: usize = 8;
/// Commit-version word preceding the payload.
const VER_WORD: usize = 8;

/// The SWARM-style protocol (marker type for [`ReplStore`] /
/// [`ReplClient`]).
pub struct Swarm;

/// The SWARM-style store: replicated RACE index plus in-place replicated
/// cells.
pub type SwarmStore = ReplStore<Swarm>;
/// A SWARM client.
pub type SwarmClient = ReplClient<Swarm>;

impl Protocol for Swarm {
    const NAME: &'static str = "swarm";
    /// The commit word and both stamps exist only for the replication
    /// protocol.
    const CELL_OVERHEAD: u64 = (VER_WORD + 8 + PAY_TRAILER) as u64;

    fn live_bytes(cell: &[u8]) -> u64 {
        8 + u32::from_le_bytes(cell[16..20].try_into().expect("4 bytes")) as u64
    }

    fn committed(cell: &[u8]) -> bool {
        committed_version(cell).is_some()
    }

    /// A cell is `key`'s when it is committed and holds `key`; its tag is
    /// the commit version. DELETE empties the slot, so no cell is a
    /// tombstone.
    fn judge<'a>(cell: &'a [u8], key: &[u8]) -> Judged<'a> {
        let Some(ver) = committed_version(cell) else {
            return Judged::Foreign;
        };
        let total = u32::from_le_bytes(cell[16..20].try_into().unwrap()) as usize;
        let klen = u16::from_le_bytes(cell[20..22].try_into().unwrap()) as usize;
        let body = &cell[VER_WORD + PAY_HDR..VER_WORD + PAY_HDR + total];
        match &body[..klen] == key {
            true => Judged::Ours(&body[klen..], ver),
            false => Judged::Foreign,
        }
    }

    /// Repairs torn cells and index divergence left by a crashed writer.
    ///
    /// For every live index slot (walking each partition's first live
    /// replica), the pointed-to cell is read on every live replica column;
    /// the highest **committed** image (stamps and commit word agree) is
    /// rewritten over every diverging replica. A slot whose cell has *no*
    /// committed image anywhere (a crash before any commit CAS landed) is
    /// rolled back to empty on all replicas. Backup index areas are then
    /// re-aligned to the partition primary. Returns the number of repairs.
    fn repair(store: &SwarmStore) -> Result<usize> {
        let dm = store.cluster.background_client();
        let area = store.layout.area_size() as usize;
        let mut repaired = 0usize;
        for p in 0..store.cfg.num_mns {
            let live = store.live_cols(p);
            let Some(&first) = live.first() else { continue };
            let base = store.layout.area_base(p);
            let mut pbytes = dm.read_vec(GlobalAddr::new(store.node_of(first), base), area)?;
            let slots: Vec<(usize, Slot8)> = live_slots(&pbytes).collect();
            for (i, slot) in slots {
                // Read the cell image on every live replica.
                let mut images: Vec<(usize, Vec<u8>)> = Vec::new();
                for &c in &live {
                    let bytes = dm.read_vec(
                        GlobalAddr::new(store.node_of(c), slot.offset()),
                        slot.record_len(),
                    )?;
                    images.push((c, bytes));
                }
                let best = images
                    .iter()
                    .filter_map(|(_, b)| committed_version(b).map(|v| (v, b.clone())))
                    .max_by_key(|(v, _)| *v);
                match best {
                    Some((_, image)) => {
                        for (c, bytes) in &images {
                            if bytes != &image {
                                dm.write(
                                    GlobalAddr::new(store.node_of(*c), slot.offset()),
                                    &image,
                                )?;
                                repaired += 1;
                            }
                        }
                    }
                    None => {
                        // Never committed anywhere: roll the slot back
                        // (and in the local snapshot, so the alignment
                        // pass below doesn't resurrect it on backups).
                        for &c in &live {
                            dm.write(
                                GlobalAddr::new(store.node_of(c), base + i as u64 * 8),
                                &0u64.to_le_bytes(),
                            )?;
                        }
                        pbytes[i * 8..i * 8 + 8].copy_from_slice(&0u64.to_le_bytes());
                        repaired += 1;
                    }
                }
            }
            repaired += store.align_backups(&dm, p, &pbytes, &live[1..])?;
        }
        Ok(repaired)
    }

    /// SEARCH: bucket scan on the primary (degraded: first live backup),
    /// then one read per candidate cell, validated by the commit stamps.
    fn search(c: &mut SwarmClient, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let cols = c.store.replica_cols(key);
        Ok(c.locate_replica(&cols, cols[0], key)?.into_value())
    }

    /// INSERT (upsert) and UPDATE. A new key pays one scan round trip,
    /// then commits cell images, commit CASes, and index-slot CASes in
    /// **one** doorbell batch. An UPDATE with a warm cache (offset, class,
    /// version) and an unchanged size class is the 1-RTT path: the whole
    /// operation is a single doorbell batch of `r` stamped payload writes
    /// plus `r` commit CASes, no index traffic.
    fn write(c: &mut SwarmClient, key: &[u8], value: &[u8], allow_insert: bool) -> Result<()> {
        c.write(key, value, allow_insert)
    }

    /// DELETE: CASes the key's index slot to empty on every replica in one
    /// doorbell batch and recycles the cell.
    fn delete(c: &mut SwarmClient, key: &[u8]) -> Result<bool> {
        c.delete_inner(key)
    }
}

/// Parses a cell image (`ver | stamped payload`) and returns its version
/// iff it is committed: leading stamp == trailing stamp == commit word,
/// with a sane length.
fn committed_version(cell: &[u8]) -> Option<u64> {
    if cell.len() < VER_WORD + PAY_HDR + PAY_TRAILER {
        return None;
    }
    let ver = u64::from_le_bytes(cell[0..8].try_into().unwrap());
    let stamp = u64::from_le_bytes(cell[8..16].try_into().unwrap());
    if ver == 0 || stamp != ver {
        return None;
    }
    let total = u32::from_le_bytes(cell[16..20].try_into().unwrap()) as usize;
    let klen = u16::from_le_bytes(cell[20..22].try_into().unwrap()) as usize;
    let end = VER_WORD + PAY_HDR + total + PAY_TRAILER;
    if klen > total || end > cell.len() {
        return None;
    }
    let trailer = u64::from_le_bytes(cell[end - PAY_TRAILER..end].try_into().unwrap());
    (trailer == ver).then_some(ver)
}

impl SwarmClient {
    /// Cell class (bytes) for a key/value pair: commit word + stamped
    /// payload, rounded to 64 B so `Slot8` can address it.
    fn cell_class(key: &[u8], value: &[u8]) -> u32 {
        ((VER_WORD + PAY_HDR + key.len() + value.len() + PAY_TRAILER).div_ceil(64) * 64) as u32
    }

    /// Builds the stamped payload image for version `ver`.
    fn encode_payload(class: u32, ver: u64, key: &[u8], value: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; class as usize - VER_WORD];
        buf[0..8].copy_from_slice(&ver.to_le_bytes());
        buf[8..12].copy_from_slice(&((key.len() + value.len()) as u32).to_le_bytes());
        buf[12..14].copy_from_slice(&(key.len() as u16).to_le_bytes());
        buf[PAY_HDR..PAY_HDR + key.len()].copy_from_slice(key);
        buf[PAY_HDR + key.len()..PAY_HDR + key.len() + value.len()].copy_from_slice(value);
        let end = PAY_HDR + key.len() + value.len() + PAY_TRAILER;
        buf[end - PAY_TRAILER..end].copy_from_slice(&ver.to_le_bytes());
        buf
    }

    fn delete_inner(&mut self, key: &[u8]) -> Result<bool> {
        let cols = self.store.replica_cols(key);
        for _ in 0..self.max_retries {
            let found = self.locate(cols[0], cols[0], key)?;
            let (Some(f), Some((_, ver))) = (found.slot, found.live) else {
                return Ok(false);
            };
            let (pos, slot) = (f.pos, f.slot);
            // One doorbell batch: CAS the slot empty on every replica.
            let swap = (slot.raw(), Slot8::EMPTY.raw());
            if self
                .dm
                .batch(|_| self.cas_replicas(&cols, pos.offset, swap))?
            {
                self.cache.invalidate(key);
                self.free_slot(cols[0], slot, ver);
                return Ok(true);
            }
            self.dm.note_retry();
            self.reconcile_key(&cols, pos, key)?;
        }
        Err(ReplError::RetriesExhausted)
    }

    /// The shared write path. `allow_insert` distinguishes INSERT from
    /// UPDATE; both commit through the folded-CAS doorbell batch.
    fn write(&mut self, key: &[u8], value: &[u8], allow_insert: bool) -> Result<()> {
        let cols = self.store.replica_cols(key);
        let class = Self::cell_class(key, value);

        // Fast path: cached cell, same class → 1 RTT in-place commit.
        if let Some(c) = self.cache.get(key).filter(|c| c.len == class) {
            if self.commit_in_place(&cols, c, key, value)? {
                return Ok(());
            }
            self.cache.invalidate(key);
        }
        self.write_slow(key, value, allow_insert, class)
    }

    /// In-place 1-RTT commit against a known cell. `Ok(false)` = version
    /// conflict (stale cache or concurrent writer) — caller falls back.
    fn commit_in_place(
        &mut self,
        cols: &[usize],
        cell: Cell,
        key: &[u8],
        value: &[u8],
    ) -> Result<bool> {
        let image = Self::encode_payload(cell.len, cell.tag + 1, key, value);
        let committed = self.dm.batch(|_| {
            self.write_replicas(cols, cell.offset + VER_WORD as u64, &image)?;
            self.cas_replicas(cols, cell.offset, (cell.tag, cell.tag + 1))
        })?;
        if committed {
            self.cache.insert(
                key,
                Cell {
                    tag: cell.tag + 1,
                    ..cell
                },
            );
        } else {
            // Lost a race (or stale cache): converge replicas on the
            // primary's committed image before anyone retries.
            self.dm.note_retry();
            self.reconcile_cell(cols, cell.offset, cell.len as usize)?;
        }
        Ok(committed)
    }

    /// Slow path: scan, place the value (reusing the existing cell when the
    /// class matches), and commit everything in one doorbell batch.
    fn write_slow(
        &mut self,
        key: &[u8],
        value: &[u8],
        allow_insert: bool,
        class: u32,
    ) -> Result<()> {
        let cols = self.store.replica_cols(key);
        for _ in 0..self.max_retries {
            let found = self.locate(cols[0], cols[0], key)?;
            let existing = found.slot.zip(found.live).map(|(f, (_, ver))| (f, ver));
            if existing.is_none() && !allow_insert {
                return Err(ReplError::NotFound);
            }

            if let Some((f, tag)) = existing.filter(|(f, _)| f.slot.record_len() as u32 == class) {
                // Same class: in-place against the freshly-read version.
                let cell = Cell {
                    offset: f.slot.offset(),
                    len: class,
                    tag,
                };
                if self.commit_in_place(&cols, cell, key, value)? {
                    return Ok(());
                }
                continue; // commit_in_place already noted the retry.
            }

            // New (or re-classed) cell: images + commit CAS + slot CAS in
            // one doorbell batch.
            let (off, base_ver) = self.alloc_slot(&cols, class)?;
            let image = Self::encode_payload(class, base_ver + 1, key, value);
            let new_slot = Slot8::new(fingerprint(key), off, class as u64 / 64);
            let (pos, old_slot) = match existing {
                Some((f, _)) => (f.pos, f.slot),
                None => {
                    let Some(pos) = found.scan.empties.first().copied() else {
                        return Err(ReplError::IndexFull);
                    };
                    (pos, Slot8::EMPTY)
                }
            };
            let swap = (old_slot.raw(), new_slot.raw());
            let committed = self.dm.batch(|_| -> Result<bool> {
                self.write_replicas(&cols, off + VER_WORD as u64, &image)?;
                Ok(self.cas_replicas(&cols, off, (base_ver, base_ver + 1))?
                    && self.cas_replicas(&cols, pos.offset, swap)?)
            })?;
            if committed {
                if let Some((f, ver)) = existing {
                    self.free_slot(cols[0], f.slot, ver);
                }
                let tag = base_ver + 1;
                self.cache.insert(
                    key,
                    Cell {
                        offset: off,
                        len: class,
                        tag,
                    },
                );
                return Ok(());
            }
            self.dm.note_retry();
            self.reconcile_key(&cols, pos, key)?;
        }
        Err(ReplError::RetriesExhausted)
    }

    /// After a lost race on `pos`, converge the slot and its cell on the
    /// primary's committed state so every replica agrees before a retry.
    fn reconcile_key(&mut self, cols: &[usize], pos: SlotPos, key: &[u8]) -> Result<()> {
        let praw = self
            .dm
            .read_vec(GlobalAddr::new(self.node_of(cols[0]), pos.offset), 8)?;
        self.write_replicas(&cols[1..], pos.offset, &praw)?;
        let slot = Slot8::from_raw(u64::from_le_bytes(praw.try_into().unwrap()));
        if !slot.is_empty() && slot.fp() == fingerprint(key) {
            let len = slot.record_len();
            self.reconcile_cell(cols, slot.offset(), len)?;
        }
        Ok(())
    }

    /// Rewrites every replica of the cell at `offset` with the primary's
    /// bytes (commit word included).
    fn reconcile_cell(&mut self, cols: &[usize], offset: u64, len: usize) -> Result<()> {
        let image = self
            .dm
            .read_vec(GlobalAddr::new(self.node_of(cols[0]), offset), len)?;
        self.write_replicas(&cols[1..], offset, &image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::ReplConfig;
    use std::sync::Arc;

    fn store() -> Arc<SwarmStore> {
        SwarmStore::launch(ReplConfig::small())
    }

    #[test]
    fn cached_update_is_one_round_trip() {
        let s = store();
        let mut c = s.client();
        c.insert(b"hotkey", b"aaaaaaaa").unwrap();
        c.dm.take_ops();
        c.update(b"hotkey", b"bbbbbbbb").unwrap();
        let ops = c.dm.take_ops();
        let rec = ops.records.last().unwrap();
        assert_eq!(rec.rtts, 1, "cached same-class update must be 1 RTT");
        assert_eq!(rec.cas, 3, "one commit CAS per replica");
        assert_eq!(rec.batches, 1, "single doorbell batch");
    }

    /// The 1-RTT path through an entry another client's same-class update
    /// made stale: the commit CAS refuses the old version, the writer
    /// reconciles, falls back to the scan and commits on the fresh one.
    #[test]
    fn stale_cached_update_falls_back_and_commits() {
        let s = store();
        let (mut a, mut b) = (s.client(), s.client());
        b.cache.set_capacity(8);
        a.insert(b"hotkey", b"aaaaaaaa").unwrap();
        assert!(b.search(b"hotkey").unwrap().is_some());
        let stale = b.cache.peek(b"hotkey").unwrap();
        a.update(b"hotkey", b"bbbbbbbb").unwrap();
        b.dm.take_ops();
        b.update(b"hotkey", b"cccccccc").unwrap();
        let rec = b.dm.take_ops().records.pop().unwrap();
        assert_eq!(rec.retries, 1, "the stale version must lose its CAS once");
        assert!(rec.rtts > 1, "and the retry pays the scan");
        let fresh = b.cache.peek(b"hotkey").unwrap();
        assert_eq!((fresh.offset, fresh.tag), (stale.offset, stale.tag + 2));
        assert_eq!(
            a.search(b"hotkey").unwrap().as_deref(),
            Some(&b"cccccccc"[..])
        );
        assert!(s.replica_agreement().is_empty());
    }

    #[test]
    fn updates_replicate_in_place() {
        let s = store();
        let mut c = s.client();
        c.insert(b"inplace", b"before!!").unwrap();
        let cached = c.cache.peek(b"inplace").unwrap();
        c.update(b"inplace", b"after!!!").unwrap();
        let after = c.cache.peek(b"inplace").unwrap();
        assert_eq!(cached.offset, after.offset, "update must not move the cell");
        assert_eq!(after.tag, cached.tag + 1);
        let cols = s.replica_cols(b"inplace");
        let mut copies = Vec::new();
        for &col in &cols {
            let node = s.cluster.node(s.node_of(col)).unwrap();
            copies.push(
                node.region
                    .read_vec(cached.offset, cached.len as usize)
                    .unwrap(),
            );
        }
        assert_eq!(copies[0], copies[1]);
        assert_eq!(copies[1], copies[2]);
        assert!(s.replica_agreement().is_empty());
    }

    #[test]
    fn reconcile_repairs_torn_write() {
        let s = store();
        let mut c = s.client();
        c.insert(b"torn", b"committed").unwrap();
        let cached = c.cache.peek(b"torn").unwrap();
        // Simulate a writer that died after writing one replica's payload
        // image (stamped ver+1) but before any commit CAS landed.
        let cols = s.replica_cols(b"torn");
        let node = s.cluster.node(s.node_of(cols[1])).unwrap();
        let image = SwarmClient::encode_payload(cached.len, cached.tag + 1, b"torn", b"torn-val!");
        node.region
            .write(cached.offset + VER_WORD as u64, &image)
            .unwrap();
        assert!(
            !s.replica_agreement().is_empty(),
            "divergence must be visible before repair"
        );
        assert!(s.repair().unwrap() > 0);
        assert!(s.replica_agreement().is_empty());
        // The committed value survived (the torn image never committed).
        let mut fresh = s.client();
        assert_eq!(
            fresh.search(b"torn").unwrap().as_deref(),
            Some(&b"committed"[..])
        );
    }

    #[test]
    fn reconcile_rolls_back_uncommitted_insert() {
        let s = store();
        let mut c = s.client();
        c.insert(b"anchor", b"x").unwrap();
        // Fabricate a crashed insert: index slots planted on all replicas
        // but the cell never committed (commit word still 0).
        let cols = s.replica_cols(b"ghost-key");
        let fp = fingerprint(b"ghost-key");
        let dm = s.cluster.client();
        let scan = s
            .layout
            .scan(&dm, s.node_of(cols[0]), cols[0], b"ghost-key", fp)
            .unwrap();
        let pos = scan.empties[0];
        let off = s.layout.block_offset(s.cfg.blocks_per_mn - 1);
        let slot = Slot8::new(fp, off, 1);
        for &col in &cols {
            let node = s.cluster.node(s.node_of(col)).unwrap();
            node.region.store64(pos.offset, slot.raw()).unwrap();
        }
        let v = s.replica_agreement();
        assert!(
            v.iter().any(|m| m.contains("not committed")),
            "uncommitted referent not flagged: {v:?}"
        );
        assert!(s.repair().unwrap() > 0);
        assert!(s.replica_agreement().is_empty());
        let mut fresh = s.client();
        assert_eq!(fresh.search(b"ghost-key").unwrap(), None);
    }

    #[test]
    fn free_cells_keep_version_monotonic() {
        let s = store();
        let mut c = s.client();
        c.insert(b"reuse-key!", b"0123456789").unwrap();
        let first = c.cache.peek(b"reuse-key!").unwrap();
        c.update(b"reuse-key!", b"9876543210").unwrap();
        assert!(c.delete(b"reuse-key!").unwrap());
        // Find a second key in the same placement group (free lists are
        // per primary column) and the same size class.
        let primary = s.replica_cols(b"reuse-key!")[0];
        let newcomer = (0..1000u32)
            .map(|i| format!("cand-{i:04}"))
            .find(|k| s.replica_cols(k.as_bytes())[0] == primary)
            .unwrap();
        // Same class ⇒ the freed cell is reused, and its version continues
        // past the old tenant's instead of restarting at 1.
        c.insert(newcomer.as_bytes(), b"aaaaaaaaaa").unwrap();
        let reused = c.cache.peek(newcomer.as_bytes()).unwrap();
        assert_eq!(first.offset, reused.offset);
        assert!(reused.tag > first.tag);
        assert!(s.replica_agreement().is_empty());
    }
}
