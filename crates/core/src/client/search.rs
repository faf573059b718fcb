//! SEARCH: the read path, healthy and degraded.
//!
//! A lookup tries the index cache first — a hit costs one batched round
//! trip of `KV read + 16 B slot re-read` (§3.5.1) — and otherwise scans the
//! key's buckets and verifies each fingerprint candidate against its KV.
//! When the block's MN is down (or a replacement MN has not rebuilt the
//! block yet) the needed slot range is reconstructed from one X-Code parity
//! chain (§3.4.1).
//!
//! SEARCH is the one reader that wants the value, so it alone fetches by
//! the advisory length (`kv::read_hint`, `kv::classify`, the truncated
//! re-read). The write path asks only whose KV a slot holds and reads
//! `kv::identity_len` bytes — of the block, or through this module's
//! chain reader, [`AcesoClient::reconstruct`], which serves any byte range.

use super::AcesoClient;
use crate::cache::CacheEntry;
use crate::config::unpack_col;
use crate::kv::{self, KvRead};
use crate::{Result, StoreError};
use aceso_blockalloc::{BlockRecord, CellKind, RECORD_HEAD_BYTES};
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

/// SEARCH's judgement of a slot's bytes it has all of: decode them.
fn whole(buf: &[u8], key: &[u8]) -> Candidate {
    kv::decode(buf).and_then(|d| candidate_of(d, key))
}

/// A lost cell to rebuild: where it sits in its stripe array, and the two
/// parity chains through it in the order to try them.
pub(super) struct Rebuild {
    array: u64,
    row: usize,
    /// Byte offset of the range within its block.
    within: u64,
    chains: [(usize, usize); 2],
}

/// One chain's doorbell, landed: the XOR of the cells its record head says
/// are encoded, and the DELTA blocks still to fold in.
pub(super) type Chain = Result<(Vec<u8>, Vec<u64>)>;

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
    /// A KV on a node this client has seen fail is not read — the verb could
    /// only be flushed — but rebuilt: its first chain rides in the slot
    /// re-read's doorbell, and its bytes are dropped if the slot moved.
    /// Outer `None` means the cache entry was unusable (fall back).
    async fn search_via_cache(
        &mut self,
        key: &[u8],
        fp: u8,
        entry: CacheEntry,
    ) -> Result<Option<Option<Vec<u8>>>> {
        let len = (entry.meta.len64.max(1) as usize) * 64;
        let (kv_col, kv_off) = unpack_col(entry.atomic.addr48);
        let kv = self.addr(kv_col, kv_off);
        let down = self.dm.is_down(kv.node);
        let rebuild = down.then(|| self.rebuild_of(kv_col, kv_off)).transpose()?;
        let (mut kv_buf, mut chain) = (Ok(Vec::new()), None);
        let mut slot: Result<_> = Err(StoreError::NotFound);
        self.dm.batch(|dm| {
            match &rebuild {
                Some(rb) => chain = Some(self.read_chain(rb, rb.chains[0], len)),
                None => kv_buf = dm.read_vec(kv, len),
            }
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
            let read = kv_buf.as_deref().ok().and_then(kv::decode);
            if let Some(d) = read.filter(|d| d.key == key) {
                return Ok(Some(value_of(d)));
            }
            let posted = rebuild.zip(chain);
            if let Some(v) = self.rebuilt(kv_col, kv_off, len, key, posted).await? {
                return Ok(Some(v));
            }
            // The slot still points here but the bytes are not this key's KV
            // (collision / unreconstructable): drop the stale entry and fall
            // back to a full query.
            self.cache.invalidate(key);
            return Ok(None);
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
                let read = kv_buf.as_deref().ok().and_then(kv::decode);
                if let Some(d) = read.filter(|d| d.key == key) {
                    return Ok(Some(value_of(d)));
                }
                if let Some(v) = self.rebuilt(kv_col, kv_off, len, key, None).await? {
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
    async fn read_and_verify(
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
    /// batch) into SEARCH's [`Candidate`].
    ///
    /// Only two situations route to the X-Code degraded reconstruct: an
    /// unreachable node (nothing read — the empty buffer classifies as
    /// unwritten), and a slot that reads back *unwritten* (write version 0 —
    /// a zeroed, not-yet-recovered block on a replacement MN).
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
            Err(RdmaError::NodeUnreachable(_)) => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        match kv::classify(&buf) {
            KvRead::Whole(d) => Ok(candidate_of(d, key)),
            KvRead::Unwritten => self.rebuilt(col, off, hint, key, None).await,
            KvRead::Truncated(len) => {
                let full = self.dm.read_vec(self.addr(col, off), len);
                self.dm.settle().await;
                Ok(whole(&full?, key))
            }
            KvRead::Foreign => Ok(None),
        }
    }

    // ---- Degraded SEARCH (§3.4.1) ----------------------------------------

    /// Reconstructs `len` bytes at `off` of a block that is unavailable by
    /// XORing the same byte range of one X-Code parity chain,
    /// `C_t = P ⊕ ⊕_{k≠t, encoded}(C_k ⊕ D_k) ⊕ D_t`.
    ///
    /// All one-sided: [`Self::read_chain`] posts the chain as one doorbell,
    /// and only a chain with a DELTA block registered (the target's block is
    /// still open, or an encoded cell is being overwritten) costs a second
    /// one. The range is the caller's: SEARCH reconstructs a whole slot and
    /// judges it ([`Self::rebuilt`]), the write path's `locate::verify_kv`
    /// reconstructs the `kv::identity_len` prefix and judges that — same
    /// chain reader, cell reads as short as the question. The first chain
    /// tried is [`Self::rebuild_of`]'s; `posted` is its doorbell when the
    /// caller already rang it.
    pub(super) async fn reconstruct(
        &mut self,
        col: usize,
        off: u64,
        len: usize,
        posted: Option<(Rebuild, Chain)>,
    ) -> Result<Vec<u8>> {
        if let Some(m) = &self.metrics {
            m.degraded_reads.inc();
        }
        let (rb, mut posted) = match posted {
            Some((rb, chain)) => (rb, Some(chain)),
            None => (self.rebuild_of(col, off)?, None),
        };
        let mut last_err = StoreError::NotFound;
        for parity in rb.chains {
            let chain = posted
                .take()
                .unwrap_or_else(|| self.read_chain(&rb, parity, len));
            self.dm.settle().await;
            let folded = chain.and_then(|(acc, deltas)| self.fold_deltas(acc, &deltas, rb.within));
            self.dm.settle().await; // Nothing to wait for unless DELTA reads were posted.
            match folded {
                Ok(buf) => return Ok(buf),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Where the bytes at `off` of column `col` sit in their stripe array,
    /// and the two chains through that cell: the diagonal first, unless its
    /// parity or another of its cells sits on a node this client knows is
    /// down — a chain through a dead cell may fail, after its doorbell.
    fn rebuild_of(&self, col: usize, off: u64) -> Result<Rebuild> {
        let blocks = self.map.blocks;
        let (block, within) = blocks.locate(off).ok_or(StoreError::NotFound)?;
        let CellKind::Data { array, row } = blocks.kind_of(block) else {
            return Err(StoreError::NotFound);
        };
        let mut chains: [(usize, usize); 2] = self.xcode.parity_cells_for(row, col).into();
        let (pr, pc) = chains[0];
        let cols = self.xcode.chain(pr, pc).data.iter().map(|&(_, c)| c);
        let mut named = cols.chain([pc]).filter(|&c| c != col);
        if named.any(|c| self.dm.is_down(self.dir.node_of(c))) {
            chains.reverse();
        }
        Ok(Rebuild {
            array,
            row,
            within,
            chains,
        })
    }

    /// SEARCH's judgement of a reconstructed slot, the healthy read's: a KV
    /// the stale advisory length truncated is reconstructed again at the
    /// size its header names.
    async fn rebuilt(
        &mut self,
        col: usize,
        off: u64,
        len: usize,
        key: &[u8],
        posted: Option<(Rebuild, Chain)>,
    ) -> Result<Candidate> {
        let buf = self.reconstruct(col, off, len, posted).await?;
        Ok(match kv::classify(&buf) {
            KvRead::Truncated(len) => whole(&self.reconstruct(col, off, len, None).await?, key),
            _ => whole(&buf, key),
        })
    }

    /// Posts one chain's doorbell: the head of the parity block's record
    /// (XOR Map and Delta Addr, which every handler persists into the Meta
    /// Area), the parity range, and the same range of every other data
    /// cell. Returns the XOR of what the head says is encoded, and the DELTA
    /// blocks still to fold in.
    ///
    /// The cells are read before the head is known, so a cell the head rules
    /// out (not encoded yet) is read and discarded — and only such a cell
    /// may have been unreachable.
    fn read_chain(
        &self,
        rb: &Rebuild,
        (parity_row, parity_col): (usize, usize),
        len: usize,
    ) -> Chain {
        let (array, row, within) = (rb.array, rb.row, rb.within);
        let blocks = self.map.blocks;
        let eq = self.xcode.chain(parity_row, parity_col);
        let pid = blocks.cell_block_id(array, parity_row);
        let range_of = |col, id| self.addr(col, blocks.block_offset(id) + within);
        // One landing buffer, `parity | other cells | head`: the fold
        // accumulates in place and is the buffer's first `len` bytes.
        let mut buf = vec![0u8; eq.data.len() * len + RECORD_HEAD_BYTES];
        let (cells, head) = buf.split_at_mut(eq.data.len() * len);
        let (acc, others) = cells.split_at_mut(len);
        let siblings = || eq.data.iter().filter(|&&(r, _)| r != row);
        let reads: Vec<aceso_rdma::Result<()>> = self.dm.batch(|dm| {
            dm.read(self.addr(parity_col, blocks.record_offset(pid)), head)?;
            dm.read(range_of(parity_col, pid), acc)?;
            let cells = siblings().zip(others.chunks_mut(len));
            let read = cells
                .map(|(&(r, c), cell)| dm.read(range_of(c, blocks.cell_block_id(array, r)), cell));
            Ok::<_, RdmaError>(read.collect())
        })?;
        let (xor_map, delta_addr) = BlockRecord::decode_head(head);
        let mut deltas = vec![delta_addr[row]];
        if xor_map & (1 << row) == 0 {
            acc.fill(0); // Not encoded yet: the target is its DELTA block alone.
        } else {
            for ((&(r, _), cell), read) in siblings().zip(others.chunks(len)).zip(reads) {
                if xor_map & (1 << r) != 0 {
                    read?;
                    xor_into(acc, cell);
                    deltas.push(delta_addr[r]);
                }
            }
        }
        deltas.retain(|&d| d != 0);
        buf.truncate(len);
        Ok((buf, deltas))
    }

    /// The chain's second doorbell, posted only when DELTA blocks are
    /// registered: XORs the range of each into `acc`.
    fn fold_deltas(&self, mut acc: Vec<u8>, deltas: &[u64], within: u64) -> Result<Vec<u8>> {
        if deltas.is_empty() {
            return Ok(acc);
        }
        let len = acc.len();
        let mut bufs = vec![0u8; deltas.len() * len];
        self.dm.batch(|dm| {
            let mut reads = deltas.iter().zip(bufs.chunks_mut(len));
            reads.try_for_each(|(&d, buf)| {
                let (dcol, doff) = unpack_col(d);
                dm.read(self.addr(dcol, doff + within), buf)
            })
        })?;
        bufs.chunks(len).for_each(|d| xor_into(&mut acc, d));
        Ok(acc)
    }
}
