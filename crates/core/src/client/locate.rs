//! LOCATE: from a key to the index slot a write commits on.
//!
//! This is the index seam of the write path. [`AcesoClient::resolve`]
//! answers "which slot, holding which Atomic/Meta words, and how much of
//! that is still a guess" — an [`Attempt`] the commit machine
//! ([`super::commit`]) runs as is:
//!
//! * a usable cache entry resolves without touching the fabric; its words
//!   are unconfirmed, so the attempt piggybacks the slot re-read on the
//!   write batch ([`Piggyback::RevalidateSlot`], §3.5.1);
//! * otherwise the slot is re-read through the cached address or found by
//!   a bucket scan, which yields fresh words and fingerprint candidates. An
//!   UPDATE/DELETE left with exactly one candidate does not spend a round
//!   trip proving the candidate is its key: the KV identity read rides in
//!   the write batch ([`Piggyback::VerifyKvIdentity`]) and the commit
//!   machine judges it before the CAS — a cold write is scan + 2;
//! * the fallback state — two or more candidates, an INSERT (a lone match
//!   for an absent key is a collision by construction), a locked or
//!   `ver = 0xFF` slot, or the retry after a refuted speculation — reads
//!   each candidate's identity first ([`AcesoClient::verify_kv`]: header +
//!   key, reconstructed through the parity chain if the block is lost — the
//!   same judgement, [`crate::kv::identity`], the batched read gets) and
//!   the attempt carries no piggyback;
//! * an absent key resolves to the first empty slot of its buckets with
//!   all-zero expected words: INSERT is the same commit as UPDATE.

use super::commit::{Attempt, Piggyback, WriteOp};
use super::{AcesoClient, RetryPolicy};
use crate::cache::CacheEntry;
use crate::config::unpack_col;
use crate::kv::{self, Identity};
use crate::{Result, StoreError};
use aceso_index::{route_hash, RemoteIndex, SlotRef};
use aceso_rdma::{DmClient, GlobalAddr, RdmaError};

/// What the index holds for a key.
enum Located {
    /// The key's slot and whether its KV is a tombstone.
    Existing(SlotRef, bool),
    /// The one slot carrying the key's fingerprint, its KV not read yet.
    Candidate(SlotRef),
    /// No slot; the empty slots of the key's buckets.
    Absent(Vec<GlobalAddr>),
}

impl AcesoClient {
    pub(super) fn index_of(&self, key: &[u8]) -> RemoteIndex {
        let col = (route_hash(key) % self.n() as u64) as usize;
        RemoteIndex::new(self.dir.node_of(col), self.map.index)
    }

    /// Resolves the [`Attempt`] of one commit try (cache first, then
    /// re-read or scan). `speculate` allows an unverified lone candidate;
    /// the retry loop grants it once per op.
    pub(super) async fn resolve(&mut self, op: &WriteOp<'_>, speculate: bool) -> Result<Attempt> {
        // Re-resolve the index partition each try: the column may have
        // moved to a replacement MN mid-recovery.
        let index = self.index_of(op.key);
        let (slot, piggyback) = if let Some(e) = self.pipelined_entry(op) {
            // Cache hit on a plain update: speculate and fold the slot
            // revalidation into the write batch (one RTT saved).
            let slot = SlotRef {
                addr: e.slot_addr,
                atomic: e.atomic,
                meta: e.meta,
            };
            (slot, Piggyback::RevalidateSlot)
        } else {
            match self.locate_slot(&index, op, speculate).await? {
                // UPDATE/DELETE of a deleted or absent key.
                Located::Existing(_, true) | Located::Absent(_) if !op.allow_insert => {
                    return Err(StoreError::NotFound);
                }
                Located::Existing(slot, _) => (slot, Piggyback::None),
                Located::Candidate(slot) => (slot, Piggyback::VerifyKvIdentity),
                Located::Absent(empties) => {
                    let slot = SlotRef {
                        addr: *empties.first().ok_or(StoreError::IndexFull)?,
                        atomic: Default::default(),
                        meta: Default::default(),
                    };
                    (slot, Piggyback::None)
                }
            }
        };
        Ok(Attempt {
            index,
            slot,
            piggyback,
        })
    }

    /// Whether the next commit attempt may speculate on the cache: a
    /// cached slot address whose state needs no slow-path protocol — no
    /// tombstone revalidation (UPDATE/DELETE of a deleted key must report
    /// `NotFound`), no version rollover, no Meta-epoch lock.
    fn pipelined_entry(&mut self, op: &WriteOp<'_>) -> Option<CacheEntry> {
        if !self.tuning.cache_slot_addr {
            return None;
        }
        let e = self.cache.get(op.key)?;
        if e.tombstone && !op.allow_insert {
            return None;
        }
        if e.atomic.is_empty() || e.atomic.ver == 0xFF || e.meta.is_locked() {
            return None;
        }
        Some(e)
    }

    async fn locate_slot(
        &mut self,
        index: &RemoteIndex,
        op: &WriteOp<'_>,
        speculate: bool,
    ) -> Result<Located> {
        let (key, fp) = (op.key, op.fp);
        // Whether a lone fingerprint candidate may go to the commit machine
        // unverified. Not for INSERT: its key is usually absent, so a lone
        // match is a collision by construction. Not on a locked or
        // rolling-over slot: the bracket's extra CASes would be spent
        // before the batch could refute the candidate.
        let lone = |s: &SlotRef| {
            speculate && !op.allow_insert && !s.meta.is_locked() && s.atomic.ver != 0xFF
        };
        if self.tuning.cache_slot_addr {
            // `peek`: the lookup was already counted by `pipelined_entry`.
            if let Some(e) = self.cache.peek(key) {
                // Re-read the slot: commits need fresh Atomic/Meta words.
                let slot = self.with_index_retry(|dm| index.read_slot(dm, e.slot_addr));
                self.dm.settle().await;
                match slot {
                    // Unchanged since we cached it: the tombstone state is
                    // known without touching the KV.
                    Ok(s) if s.atomic == e.atomic => return Ok(Located::Existing(s, e.tombstone)),
                    // Same slot, new KV: is it still our key?
                    Ok(s) if !s.atomic.is_empty() && s.atomic.fp == fp => {
                        if lone(&s) {
                            return Ok(Located::Candidate(s));
                        }
                        if let Some(tomb) = self.verify_kv(&s, key).await? {
                            return Ok(Located::Existing(s, tomb));
                        }
                    }
                    _ => {}
                }
                self.cache.invalidate(key);
            }
        }
        let scan = self.with_index_retry(|dm| index.scan(dm, key, fp));
        self.dm.settle().await;
        let scan = scan?;
        if let [cand] = scan.matches[..] {
            if lone(&cand) {
                return Ok(Located::Candidate(cand));
            }
        }
        for cand in &scan.matches {
            if let Some(tomb) = self.verify_kv(cand, key).await? {
                return Ok(Located::Existing(*cand, tomb));
            }
        }
        Ok(Located::Absent(scan.empties))
    }

    /// Reads the identity prefix of the KV a slot points at — through the
    /// parity chain if its node is unreachable or its block not restored
    /// yet: `Some(is it a tombstone)` if the KV is this key's, `None` for a
    /// collision.
    async fn verify_kv(&mut self, slot: &SlotRef, key: &[u8]) -> Result<Option<bool>> {
        let (col, off) = unpack_col(slot.atomic.addr48);
        let len = kv::identity_len(key);
        let read = self.dm.read_vec(self.addr(col, off), len);
        self.dm.settle().await;
        let mut id = match read {
            Ok(prefix) => kv::identity(&prefix, key),
            Err(RdmaError::NodeUnreachable(_)) => Identity::Unwritten,
            Err(e) => return Err(e.into()),
        };
        if id == Identity::Unwritten {
            id = kv::identity(&self.reconstruct(col, off, len, None).await?, key);
        }
        Ok(match id {
            Identity::Ours { tombstone } => Some(tombstone),
            Identity::Foreign | Identity::Unwritten => None,
        })
    }

    /// Retries an index operation across a short recovery window: verbs to
    /// a crashed MN fail until the replacement is published, matching the
    /// paper's "requests to the affected index range are blocked". An epoch
    /// fence (elastic migration in flight) instead refreshes the placement
    /// snapshot and retries immediately; the shared [`RetryPolicy`] budget
    /// bounds both loops.
    pub(super) fn with_index_retry<T>(
        &mut self,
        mut f: impl FnMut(&DmClient) -> aceso_rdma::Result<T>,
    ) -> Result<T> {
        let mut policy = RetryPolicy::new(self.tuning.index_wait_ms as usize);
        loop {
            match f(&self.dm) {
                Ok(v) => return Ok(v),
                Err(e @ RdmaError::NodeUnreachable(_)) => {
                    let Some(us) = self.charge_retry(&mut policy) else {
                        return Err(e.into());
                    };
                    self.dm.backoff(us);
                }
                Err(e @ RdmaError::EpochFenced { .. }) => {
                    if self.charge_retry(&mut policy).is_none() {
                        return Err(e.into());
                    }
                    self.refresh_placement();
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}
