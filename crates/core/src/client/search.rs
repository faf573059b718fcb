//! SEARCH: the read path, healthy and degraded.
//!
//! A lookup tries the index cache first — a hit costs one batched round
//! trip of `KV read + 16 B slot re-read` (§3.5.1) — and otherwise scans the
//! key's buckets and verifies each fingerprint candidate against its KV.
//! When the block's MN is down (or a replacement MN has not rebuilt the
//! block yet) the needed slot range is reconstructed from one X-Code parity
//! chain (§3.4.1).

use super::AcesoClient;
use crate::cache::CacheEntry;
use crate::config::unpack_col;
use crate::kv::{self, KvRead};
use crate::proto::{ServerReq, ServerResp};
use crate::{Result, StoreError};
use aceso_blockalloc::{BlockRecord, CellKind};
use aceso_erasure::xor_into;
use aceso_index::{fingerprint, RemoteIndex, SlotAtomic, SlotMeta};
use aceso_rdma::RdmaError;

/// What one candidate KV resolves to: `None` — it belongs to a different
/// key (fingerprint collision, keep scanning); `Some(None)` — a tombstone;
/// `Some(Some(v))` — a live value.
type Candidate = Option<Option<Vec<u8>>>;

/// The value a decoded KV holds; `None` for a tombstone.
fn value_of(d: kv::DecodedKv<'_>) -> Option<Vec<u8>> {
    (!d.tombstone).then(|| d.value.to_vec())
}

/// The [`Candidate`] a decoded KV amounts to for a lookup of `key`: a KV
/// of another key, or one that lost its commit race, is a collision.
fn candidate_of(d: kv::DecodedKv<'_>, key: &[u8]) -> Candidate {
    (d.key == key && !d.is_invalidated()).then(|| value_of(d))
}

impl AcesoClient {
    pub(super) async fn search_inner(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let fp = fingerprint(key);
        if let Some(entry) = self.cache.get(key) {
            // A `None` from either cache path falls through to a full query.
            let found = if self.tuning.cache_slot_addr {
                self.search_via_cache(key, fp, entry).await?
            } else {
                self.search_value_cache(key, fp, entry).await?
            };
            if let Some(found) = found {
                return Ok(found);
            }
        }
        self.search_query(key, fp).await
    }

    /// Full Aceso cache hit: batched `KV read + slot re-read` (§3.5.1).
    /// Outer `None` means the cache entry was unusable (fall back).
    async fn search_via_cache(
        &mut self,
        key: &[u8],
        fp: u8,
        entry: CacheEntry,
    ) -> Result<Option<Option<Vec<u8>>>> {
        let len = (entry.meta.len64.max(1) as usize) * 64;
        let (kv_col, kv_off) = unpack_col(entry.atomic.addr48);
        let mut kv_buf: Result<Vec<u8>> = Ok(Vec::new());
        let mut slot: Result<_> = Err(StoreError::NotFound);
        self.dm.batch(|dm| {
            kv_buf = dm
                .read_vec(self.addr(kv_col, kv_off), len)
                .map_err(StoreError::from);
            slot = RemoteIndex::new(entry.slot_addr.node, self.map.index)
                .read_slot(dm, entry.slot_addr)
                .map_err(StoreError::from);
        });
        self.dm.settle().await;
        let Ok(slot) = slot else {
            // Index MN unreachable (mid-recovery): drop entry, full query.
            self.cache.invalidate(key);
            return Ok(None);
        };
        if slot.atomic == entry.atomic {
            let value = match kv_buf {
                Ok(buf) => match kv::decode(&buf) {
                    Some(d) if d.key == key => Some(value_of(d)),
                    _ => self.fetch_kv_degraded(kv_col, kv_off, len, key).await?,
                },
                Err(_) => self.fetch_kv_degraded(kv_col, kv_off, len, key).await?,
            };
            match value {
                Some(v) => return Ok(Some(v)),
                None => {
                    // The slot still points here but the bytes are not this
                    // key's KV (collision / unreconstructable): drop the
                    // stale entry and fall back to a full query.
                    self.cache.invalidate(key);
                    return Ok(None);
                }
            }
        }
        // Slot changed: chase the new pointer if it still matches this key.
        if !slot.atomic.is_empty() && slot.atomic.fp == fp {
            let v = self.read_and_verify(slot.atomic, slot.meta, key).await?;
            if let Some(val) = v {
                self.cache.insert(
                    key,
                    CacheEntry {
                        slot_addr: entry.slot_addr,
                        atomic: slot.atomic,
                        meta: slot.meta,
                        tombstone: val.is_none(),
                        fill_epoch: self.pl.epoch,
                    },
                );
                return Ok(Some(val));
            }
        }
        self.cache.invalidate(key);
        Ok(None)
    }

    /// FUSEE-style value-only cache (factor analysis baseline): the slot
    /// address is unknown, so validation re-reads the key's buckets.
    async fn search_value_cache(
        &mut self,
        key: &[u8],
        fp: u8,
        entry: CacheEntry,
    ) -> Result<Option<Option<Vec<u8>>>> {
        let len = (entry.meta.len64.max(1) as usize) * 64;
        let (kv_col, kv_off) = unpack_col(entry.atomic.addr48);
        let index = self.index_of(key);
        let mut kv_buf: Result<Vec<u8>> = Ok(Vec::new());
        let mut scan = Err(StoreError::NotFound);
        self.dm.batch(|dm| {
            kv_buf = dm
                .read_vec(self.addr(kv_col, kv_off), len)
                .map_err(StoreError::from);
            scan = index.scan(dm, key, fp).map_err(StoreError::from);
        });
        self.dm.settle().await;
        let Ok(scan) = scan else {
            self.cache.invalidate(key);
            return Ok(None);
        };
        for cand in &scan.matches {
            if cand.atomic.addr48 == entry.atomic.addr48 {
                // Cache still current.
                if let Ok(buf) = &kv_buf {
                    if let Some(d) = kv::decode(buf) {
                        if d.key == key {
                            return Ok(Some(value_of(d)));
                        }
                    }
                }
                if let Some(v) = self.fetch_kv_degraded(kv_col, kv_off, len, key).await? {
                    return Ok(Some(v));
                }
                // Collision on the degraded fetch: the cached address holds
                // a different key's KV. Rescan the fresh candidates below.
                break;
            }
        }
        self.cache.invalidate(key);
        // Use the fresh scan directly rather than re-scanning.
        self.search_candidates(key, scan.matches).await.map(Some)
    }

    async fn search_query(&mut self, key: &[u8], fp: u8) -> Result<Option<Vec<u8>>> {
        let index = self.index_of(key);
        let scan = self.with_index_retry(|dm| index.scan(dm, key, fp))?;
        self.dm.settle().await;
        self.search_candidates(key, scan.matches).await
    }

    async fn search_candidates(
        &mut self,
        key: &[u8],
        candidates: Vec<aceso_index::SlotRef>,
    ) -> Result<Option<Vec<u8>>> {
        // Overlap the candidate KV reads in one doorbell batch: they are
        // independent, so fingerprint collisions cost chained WQEs instead
        // of extra round trips. Verification still walks candidates in
        // bucket order, so the first verified match wins as before.
        let mut reads: Vec<(usize, u64, usize, aceso_rdma::Result<Vec<u8>>)> =
            Vec::with_capacity(candidates.len());
        if candidates.len() > 1 {
            self.dm.batch(|dm| {
                for cand in &candidates {
                    let (col, off) = unpack_col(cand.atomic.addr48);
                    let hint = kv::read_hint(cand.meta.len64);
                    let r = dm.read_vec(self.addr(col, off), hint);
                    reads.push((col, off, hint, r));
                }
            });
            self.dm.settle().await;
        }
        for (i, cand) in candidates.iter().enumerate() {
            let val = match reads.get_mut(i) {
                Some((col, off, hint, read)) => {
                    let read = std::mem::replace(read, Ok(Vec::new()));
                    let (col, off, hint) = (*col, *off, *hint);
                    self.classify_kv_read(read, col, off, hint, key).await?
                }
                None => self.read_and_verify(cand.atomic, cand.meta, key).await?,
            };
            if let Some(val) = val {
                self.cache.insert(
                    key,
                    CacheEntry {
                        slot_addr: cand.addr,
                        atomic: cand.atomic,
                        meta: cand.meta,
                        tombstone: val.is_none(),
                        fill_epoch: self.pl.epoch,
                    },
                );
                return Ok(val);
            }
        }
        Ok(None)
    }

    /// Reads the KV a slot points at and verifies the key.
    pub(super) async fn read_and_verify(
        &mut self,
        atomic: SlotAtomic,
        meta: SlotMeta,
        key: &[u8],
    ) -> Result<Candidate> {
        let (col, off) = unpack_col(atomic.addr48);
        let hint = kv::read_hint(meta.len64);
        let read = self.dm.read_vec(self.addr(col, off), hint);
        self.dm.settle().await;
        self.classify_kv_read(read, col, off, hint, key).await
    }

    /// Classifies one candidate KV read (possibly prefetched in a doorbell
    /// batch) into a [`Candidate`]. SEARCH and the write path's fallback
    /// identity check (`locate::verify_kv`) both end here.
    ///
    /// Only two situations route to the X-Code degraded reconstruct: an
    /// unreachable node, and a slot that reads back *unwritten* (write
    /// version 0 — a zeroed, not-yet-recovered block on a replacement MN).
    /// A read the stale advisory length truncated is retried at the size
    /// the KV's own header names. Every other decode failure on a healthy
    /// node is content that simply is not this key's live KV — a stale or
    /// colliding slot — and must be reported as a collision (`None`) so the
    /// candidate scan continues.
    async fn classify_kv_read(
        &mut self,
        read: aceso_rdma::Result<Vec<u8>>,
        col: usize,
        off: u64,
        hint: usize,
        key: &[u8],
    ) -> Result<Candidate> {
        let buf = match read {
            Ok(buf) => buf,
            Err(RdmaError::NodeUnreachable(_)) => {
                return self.fetch_kv_degraded(col, off, hint, key).await
            }
            Err(e) => return Err(e.into()),
        };
        match kv::classify(&buf) {
            KvRead::Whole(d) => Ok(candidate_of(d, key)),
            KvRead::Unwritten => self.fetch_kv_degraded(col, off, hint, key).await,
            KvRead::Truncated(len) => {
                let full = self.dm.read_vec(self.addr(col, off), len);
                self.dm.settle().await;
                Ok(kv::decode(&full?).and_then(|d| candidate_of(d, key)))
            }
            KvRead::Foreign => Ok(None),
        }
    }

    // ---- Degraded SEARCH (§3.4.1) ----------------------------------------

    /// Reconstructs the slot-range bytes of a KV whose block is unavailable,
    /// by XORing the same byte range of one parity chain (plus deltas).
    async fn fetch_kv_degraded(
        &mut self,
        col: usize,
        off: u64,
        len: usize,
        key: &[u8],
    ) -> Result<Candidate> {
        if let Some(m) = &self.metrics {
            m.degraded_reads.inc();
        }
        let buf = self.reconstruct_range(col, off, len);
        self.dm.settle().await;
        Ok(kv::decode(&buf?).and_then(|d| candidate_of(d, key)))
    }

    /// Range-limited X-Code reconstruction:
    /// `C_t = P ⊕ ⊕_{k≠t, encoded}(C_k ⊕ D_k) ⊕ D_t` over one chain.
    pub(super) fn reconstruct_range(
        &mut self,
        col: usize,
        off: u64,
        len: usize,
    ) -> Result<Vec<u8>> {
        let (block, within) = self.map.blocks.locate(off).ok_or(StoreError::NotFound)?;
        let CellKind::Data { array, row } = self.map.blocks.kind_of(block) else {
            return Err(StoreError::NotFound);
        };
        let (diag, anti) = self.xcode.parity_cells_for(row, col);
        let mut last_err = StoreError::NotFound;
        for (prow, pcol) in [diag, anti] {
            match self.reconstruct_via_chain(array, row, prow, pcol, within, len) {
                Ok(buf) => return Ok(buf),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    fn reconstruct_via_chain(
        &mut self,
        array: u64,
        row: usize,
        parity_row: usize,
        parity_col: usize,
        within: u64,
        len: usize,
    ) -> Result<Vec<u8>> {
        let pid = self.map.blocks.cell_block_id(array, parity_row);
        let resp = self.rpc(parity_col, ServerReq::GetRecord { block: pid }, 16)?;
        let ServerResp::Record { bytes } = resp else {
            return Err(StoreError::NotFound);
        };
        let prec = BlockRecord::decode(&bytes, self.map.blocks.block_size);

        let eq = self
            .xcode
            .equations()
            .into_iter()
            .find(|e| e.parity_row == parity_row && e.parity_col == parity_col)
            .expect("chain equation exists");

        let mut acc = vec![0u8; len];
        let target_encoded = prec.xor_map & (1 << row) != 0;
        if target_encoded {
            let poff = self.map.blocks.block_offset(pid) + within;
            let p = self.dm.read_vec(self.addr(parity_col, poff), len)?;
            xor_into(&mut acc, &p);
            for &(r, c) in &eq.data {
                if r == row {
                    continue;
                }
                if prec.xor_map & (1 << r) != 0 {
                    let cid = self.map.blocks.cell_block_id(array, r);
                    let coff = self.map.blocks.block_offset(cid) + within;
                    let cbuf = self.dm.read_vec(self.addr(c, coff), len)?;
                    xor_into(&mut acc, &cbuf);
                    if prec.delta_addr[r] != 0 {
                        let (dc, doff) = unpack_col(prec.delta_addr[r]);
                        let dbuf = self.dm.read_vec(self.addr(dc, doff + within), len)?;
                        xor_into(&mut acc, &dbuf);
                    }
                }
            }
        }
        if prec.delta_addr[row] != 0 {
            let (dc, doff) = unpack_col(prec.delta_addr[row]);
            let dbuf = self.dm.read_vec(self.addr(dc, doff + within), len)?;
            xor_into(&mut acc, &dbuf);
        }
        Ok(acc)
    }
}
