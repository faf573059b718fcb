//! COMMIT: the one write algorithm (Algorithm 1, §3.2.2) as one machine.
//!
//! INSERT, UPDATE and DELETE are the same commit: reserve a slot in the
//! open block, write the KV and its two XOR deltas in one doorbell batch,
//! and publish with a single `RDMA_CAS` on the index slot's Atomic word.
//! What varies between the paths is data, carried by the [`Attempt`]:
//! where the expected Atomic/Meta words came from, and therefore which
//! read — if any — must ride in the write batch before the CAS may fire.
//!
//! ```text
//!   resolve ──┬─ cache hit ───────────▶ Attempt{RevalidateSlot}   (speculation)
//!             ├─ one fp candidate ────▶ Attempt{VerifyKvIdentity} (cold UPDATE/DELETE)
//!             ├─ verified candidate ──▶ Attempt{None}             (fallback state)
//!             └─ absent, empty slot ──▶ Attempt{None}, words = 0  (INSERT)
//!
//!   commit(Attempt):
//!     bracket  slot locked ─▶ probe ×50, break lock │ ver = 0xFF ─▶ lock CAS
//!     alloc    reserve a slot in the open block (RPC only on block turnover)
//!     batch    [piggyback read] ∥ queued invalidations ∥ KV ∥ delta ×2
//!     judge    RevalidateSlot:   words unchanged?  else Redo{VerifyKvIdentity}
//!                                                  or  Retry (locked, 0xFF, other fp)
//!              VerifyKvIdentity: `kv::identity` of header + key:
//!                                our key, live?    else Retry │ NotFound
//!     CAS      Atomic word: expected ─▶ new        else Retry (lost race)
//!     unlock   bracket only — and on every error exit except a simulated crash
//!     epilogue obsolete mark, Meta length refresh, cache fill, bitmap flush
//! ```
//!
//! Round trips per path (open block in place, same size class): cache hit
//! 2 (batch, CAS); lost speculation 3 (lost batch, redo batch, CAS); cold
//! UPDATE/DELETE scan + 2 (the one candidate's identity read rides in the
//! batch); fallback state — several candidates, or the retry after a
//! refuted speculation — scan + one KV read per candidate + 2; INSERT
//! scan + 2 + Meta write; version rollover `locate` + 4 (lock CAS, batch,
//! CAS, unlock CAS). `crates/core/tests/commit_shapes.rs` pins them, and
//! the bytes each reads: the identity read is `kv::identity_len(key)` bytes
//! — the header and the key, not the pair the batch is about to replace —
//! and never looks at the advisory `len64`.
//!
//! A `Retry` sends the caller back through `resolve`; a `Redo` re-enters
//! [`AcesoClient::commit`] directly, seeded with the fresh slot words the
//! lost batch already fetched.

use super::alloc::SlotPlace;
use super::{AcesoClient, CrashPoint, ModelMutation};
use crate::cache::CacheEntry;
use crate::config::unpack_col;
use crate::kv::{self, Identity, INVALID_SLOT_VERSION, SLOT_VER_OFF};
use crate::{Result, StoreError};
use aceso_erasure::xor_into;
use aceso_index::slot::slot_version;
use aceso_index::{fingerprint, RemoteIndex, SlotAtomic, SlotMeta, SlotRef};
use aceso_rdma::RdmaError;
use std::ops::ControlFlow;

/// One INSERT / UPDATE / DELETE as the write path sees it.
pub(super) struct WriteOp<'a> {
    pub(super) key: &'a [u8],
    value: &'a [u8],
    tombstone: bool,
    /// INSERT semantics: an absent or deleted key is written, not reported
    /// as `NotFound`.
    pub(super) allow_insert: bool,
    pub(super) fp: u8,
    class: u8,
}

impl<'a> WriteOp<'a> {
    pub(super) fn new(
        key: &'a [u8],
        value: &'a [u8],
        tombstone: bool,
        allow_insert: bool,
    ) -> Result<Self> {
        if key.is_empty() {
            return Err(StoreError::TooLarge);
        }
        Ok(WriteOp {
            key,
            value,
            tombstone,
            allow_insert,
            fp: fingerprint(key),
            class: kv::class_for(key.len(), value.len())?,
        })
    }
}

/// The read that rides in an attempt's write batch — it is independent of
/// the writes, so confirming the attempt's premise costs no round trip.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Piggyback {
    /// The expected words were just read (`resolve`'s re-read or scan, or
    /// zeros for an empty slot): nothing to confirm.
    None,
    /// The expected words come from the cache: re-read the slot as the
    /// first verb of the batch and commit only if they still hold (§3.5.1).
    RevalidateSlot,
    /// The expected words are fresh — a lost revalidation's re-read, or the
    /// one fingerprint candidate of a cold UPDATE/DELETE's scan — and pin
    /// the next slot version; only whether the KV they point at is this
    /// key's, and live, is unknown: read its header and key in the batch.
    VerifyKvIdentity,
}

/// One try at committing a [`WriteOp`] on a specific slot.
pub(super) struct Attempt {
    /// The index partition holding the slot.
    pub(super) index: RemoteIndex,
    /// The slot's address and the Atomic/Meta words the commit expects.
    pub(super) slot: SlotRef,
    pub(super) piggyback: Piggyback,
}

pub(super) enum CommitOutcome {
    Done,
    /// Lost a race: re-resolve the slot and try again.
    Retry,
    /// Lost a speculation whose batch fetched fresh slot words: commit
    /// again on them, without re-resolving.
    Redo(Attempt),
}

/// A held Meta-epoch lock: the `(locked, unlocked)` Meta words of the
/// acquire/release CAS pair bracketing a commit.
type Bracket = (SlotMeta, SlotMeta);

/// What an attempt's piggybacked read brought back.
enum Rider {
    None,
    Slot(SlotRef),
    /// Whose KV the candidate points at; an unreadable one is `Unwritten`.
    Kv(Identity),
}

impl AcesoClient {
    /// One commit attempt per Algorithm 1 (see the module docs).
    pub(super) async fn commit(&mut self, op: &WriteOp<'_>, att: Attempt) -> Result<CommitOutcome> {
        let Some((meta, bracket)) = self.enter_bracket(&att).await? else {
            return Ok(CommitOutcome::Retry); // Re-locate with fresh state.
        };
        let commit_epoch = bracket.map_or(meta.epoch, |(_, unlocked)| unlocked.epoch);
        let published = self
            .publish(op, &att, commit_epoch, bracket.is_some())
            .await;
        if let Some((locked, unlocked)) = bracket {
            // Unlock regardless of the commit's outcome (Algorithm 1 lines
            // 19–20) and on every error exit too — a leaked lock costs the
            // next writer 50 probes and a lock break. The one exception is
            // a simulated crash: a dead client releases nothing.
            if !matches!(published, Err(StoreError::Shutdown)) {
                // A landed commit releases with its own size class: the
                // length refresh below is skipped under a bracket.
                let len64 = match published {
                    Ok(ControlFlow::Continue(_)) => op.class,
                    _ => unlocked.len64,
                };
                let unlocked = SlotMeta { len64, ..unlocked };
                let unlock = att
                    .index
                    .cas_meta(&self.dm, att.slot.addr, locked, unlocked);
                self.dm.settle().await;
                if published.is_ok() {
                    unlock?;
                }
            }
        }
        let new_atomic = match published? {
            ControlFlow::Continue(new_atomic) => new_atomic,
            ControlFlow::Break(outcome) => return Ok(outcome),
        };

        // Committed. Mark the overwritten KV obsolete for delta-based
        // reclamation, and refresh the advisory length if the size class
        // changed (an INSERT always does: an empty slot's is 0).
        self.mark_obsolete(att.slot.atomic);
        let new_meta = SlotMeta {
            len64: op.class,
            epoch: commit_epoch,
        };
        if meta.len64 != op.class && bracket.is_none() {
            let wm = att.index.write_meta(&self.dm, att.slot.addr, new_meta);
            self.dm.settle().await;
            wm?;
        }
        self.cache.insert(
            op.key,
            CacheEntry {
                slot_addr: att.slot.addr,
                atomic: new_atomic,
                meta: new_meta,
                tombstone: op.tombstone,
                fill_epoch: self.pl.epoch,
            },
        );
        self.maybe_flush()?;
        self.dm.settle().await;
        Ok(CommitOutcome::Done)
    }

    /// Takes the Meta-epoch lock when the attempt needs one (Algorithm 1
    /// lines 7–13): on version rollover, or to break a lock whose holder
    /// may have crashed (§3.2.2 remark 2). Returns the slot's current Meta
    /// word and the bracket held, or `None` when the slot changed under us.
    ///
    /// The lock/unlock CAS pair on the Meta word is an acquire/release
    /// bracket: every write between them is ordered against the next
    /// holder's accesses (aceso-san's skip-lock-cas self-test checks this
    /// edge stays load-bearing).
    async fn enter_bracket(
        &mut self,
        att: &Attempt,
    ) -> Result<Option<(SlotMeta, Option<Bracket>)>> {
        let (index, addr) = (att.index, att.slot.addr);
        let mut meta = att.slot.meta;
        let step = if meta.is_locked() {
            // Locked by another client: wait briefly, then break the lock.
            // Each probe settles its round trip, so a suspended lock holder
            // on the same executor thread gets scheduled between probes
            // instead of being spun against forever.
            for _ in 0..50 {
                let s = index.read_slot(&self.dm, addr);
                self.dm.settle().await;
                meta = s?.meta;
                if !meta.is_locked() {
                    return Ok(None);
                }
            }
            if self.mutation == Some(ModelMutation::SkipLockBreak) {
                // Mutation: give up instead of breaking the stale lock —
                // the liveness the oracle must catch losing.
                return Err(StoreError::RetriesExhausted);
            }
            2 // Break: re-lock at the next odd epoch.
        } else if att.slot.atomic.ver == 0xFF {
            1
        } else {
            return Ok(Some((meta, None)));
        };
        let locked = SlotMeta {
            len64: meta.len64,
            epoch: meta.epoch + step,
        };
        let seen = index.cas_meta(&self.dm, addr, meta, locked);
        self.dm.settle().await;
        if seen? != meta {
            return Ok(None);
        }
        let unlocked = SlotMeta {
            len64: locked.len64,
            epoch: locked.epoch + 1,
        };
        self.maybe_crash(CrashPoint::WhileMetaLocked)?;
        Ok(Some((meta, Some((locked, unlocked)))))
    }

    /// Reserve → write batch → judge the piggyback → commit CAS. `Continue`
    /// carries the Atomic word now published; `Break` ends the attempt
    /// with its KV already queued for invalidation.
    async fn publish(
        &mut self,
        op: &WriteOp<'_>,
        att: &Attempt,
        commit_epoch: u64,
        locked: bool,
    ) -> Result<ControlFlow<CommitOutcome, SlotAtomic>> {
        let expected = att.slot.atomic;
        let new_ver = expected.ver.wrapping_add(1);
        let sv = slot_version(commit_epoch, new_ver);
        let place = self.alloc_slot(op.class);
        self.dm.settle().await;
        let place = place?;
        let rider = match self.write_batch(op, att, &place, sv).await {
            Ok(rider) => rider,
            Err(e) => {
                // A speculative attempt's slot address may name a dead or
                // pre-recovery MN: drop the cache entry so the retry
                // re-resolves instead of spinning on the same node.
                if att.piggyback != Piggyback::None {
                    self.cache.invalidate(op.key);
                }
                return Err(e);
            }
        };

        // `Some` = the batch's read refuted the attempt's premise.
        let refuted: Option<Result<CommitOutcome>> = match rider {
            Rider::None => None,
            Rider::Slot(fresh) => {
                let unchanged = fresh.atomic == expected && fresh.meta == att.slot.meta;
                if unchanged && !fresh.meta.is_locked() {
                    None
                } else if !fresh.meta.is_locked()
                    && !fresh.atomic.is_empty()
                    && fresh.atomic.fp == op.fp
                    && fresh.atomic.ver != 0xFF
                {
                    // Someone committed under us, but the slot still
                    // carries our fingerprint — almost certainly a
                    // concurrent update of this very key.
                    Some(Ok(CommitOutcome::Redo(Attempt {
                        index: att.index,
                        slot: fresh,
                        piggyback: Piggyback::VerifyKvIdentity,
                    })))
                } else {
                    Some(Ok(CommitOutcome::Retry))
                }
            }
            // Mutation: commit on the candidate whatever its KV holds.
            Rider::Kv(_) if self.mutation == Some(ModelMutation::SkipIdentityJudge) => None,
            // A tombstone: a concurrent delete won, surface it.
            Rider::Kv(Identity::Ours { tombstone }) => {
                (tombstone && !op.allow_insert).then_some(Err(StoreError::NotFound))
            }
            // Collision, invalidated KV, or a lost block: back off to
            // `resolve`, which verifies first — via reconstruction if the
            // block is still gone.
            Rider::Kv(Identity::Foreign | Identity::Unwritten) => Some(Ok(CommitOutcome::Retry)),
        };
        if let Some(outcome) = refuted {
            // Any mutation-held delta writes still belong to the retired
            // slot image — land them so its invalidation fix-ups stay
            // parity-linear.
            self.flush_deferred_deltas().await?;
            self.defer_invalidate(&place);
            self.cache.invalidate(op.key);
            if outcome.is_err() {
                // Retire our bytes before reporting `NotFound`.
                self.flush_invals()?;
                self.dm.settle().await;
            }
            return outcome.map(ControlFlow::Break);
        }

        let new_atomic = SlotAtomic {
            fp: op.fp,
            addr48: place.packed,
            ver: new_ver,
        };
        // Commit point (Algorithm 1 line 15). This CAS is the *release*
        // edge that publishes the KV bytes written above: it must stay
        // strictly after the write batch — never inside it — and readers
        // must reach the KV only through the Atomic word it lands on
        // (aceso-san derives happens-before from exactly this ordering —
        // see the skip-commit-cas and commit-before-write self-tests).
        let prev = if self.mutation == Some(ModelMutation::SkipCommitCas) {
            // Mutation: report the commit as won without issuing the CAS.
            expected
        } else {
            let prev = att
                .index
                .cas_atomic(&self.dm, att.slot.addr, expected, new_atomic);
            self.dm.settle().await;
            prev?
        };
        self.flush_deferred_deltas().await?;
        if prev == expected {
            // Crash window: committed, but no obsolete mark, Meta refresh
            // or cache update yet — and a held bracket stays held.
            self.maybe_crash(CrashPoint::AfterCommit)?;
            return Ok(ControlFlow::Continue(new_atomic));
        }
        // Lost the race: retire the orphaned KV (Slot Version ← −1).
        self.defer_invalidate(&place);
        if att.piggyback != Piggyback::None {
            self.cache.invalidate(op.key);
        }
        if locked {
            // Keep the lock bracket conservative: retire the lost KV
            // before the unlock CAS releases the Meta epoch.
            self.flush_invals()?;
            self.dm.settle().await;
        }
        Ok(ControlFlow::Break(CommitOutcome::Retry))
    }

    /// The write batch: the KV slot and both delta slots in one doorbell
    /// batch (§3.3.2), led by the attempt's piggybacked read and by the
    /// deferred invalidations of earlier lost attempts (independent inline
    /// writes, no extra round trip).
    ///
    /// If a slot revalidation read fails, the writes are skipped, the
    /// still-clean slot is handed back to the open block, and the read
    /// error propagates. A KV identity read never aborts the batch.
    async fn write_batch(
        &mut self,
        op: &WriteOp<'_>,
        att: &Attempt,
        place: &SlotPlace,
        sv: u64,
    ) -> Result<Rider> {
        let (buf, delta) = Self::encode_kv(place, sv, op);
        let delta = delta.as_deref().unwrap_or(&buf);
        self.maybe_crash(CrashPoint::BeforeKvWrite)?;
        let crash = self.crash_point;
        let defer = self.mutation == Some(ModelMutation::ReorderDeltaPastCommit);
        let invals = std::mem::take(&mut self.pending_inval);
        let mut rider: aceso_rdma::Result<Rider> = Ok(Rider::None);
        let res = self.dm.batch(|dm| -> Result<()> {
            match att.piggyback {
                Piggyback::None => {}
                Piggyback::RevalidateSlot => {
                    rider = att.index.read_slot(dm, att.slot.addr).map(Rider::Slot);
                    if rider.is_err() {
                        return Ok(());
                    }
                }
                Piggyback::VerifyKvIdentity => {
                    let (col, off) = unpack_col(att.slot.atomic.addr48);
                    let prefix = dm.read_vec(self.addr(col, off), kv::identity_len(op.key));
                    let id = prefix.map_or(Identity::Unwritten, |p| kv::identity(&p, op.key));
                    rider = Ok(Rider::Kv(id));
                }
            }
            for (col, off, bytes) in &invals {
                self.write_block(dm, *col, *off, bytes)?;
            }
            self.write_block(dm, place.col, place.kv_off, &buf)?;
            if crash == Some(CrashPoint::AfterKvWrite) {
                return Err(StoreError::Shutdown);
            }
            if !defer {
                for (dcol, doff) in place.deltas {
                    self.write_block(dm, dcol, doff, delta)?;
                }
            }
            if crash == Some(CrashPoint::BeforeCommit) {
                return Err(StoreError::Shutdown);
            }
            Ok(())
        });
        self.dm.settle().await;
        if rider.is_err() || res.is_err() {
            // Writes were skipped, or aborted partway (fence bounce, an
            // unreachable node, a simulated crash): requeue the
            // invalidations so no error path silently drops them — a
            // dropped stamp would leave a lost-race KV readable forever,
            // and rewriting any that already landed is idempotent.
            self.pending_inval = invals;
        }
        if matches!(&res, Err(StoreError::Rdma(RdmaError::EpochFenced { .. }))) {
            self.unwind_fenced_place(place).await?;
        }
        res?;
        let rider = match rider {
            Ok(rider) => rider,
            Err(e) => {
                self.unalloc_slot(place);
                return Err(e.into());
            }
        };
        if defer {
            // Mutation: the batch omitted the delta copies; hold them for
            // the post-commit flush.
            let held = place
                .deltas
                .map(|(dcol, doff)| (dcol, doff, delta.to_vec()));
            self.deferred_deltas.extend(held);
        }
        Ok(rider)
    }

    /// Encodes the slot image and its XOR delta against the slot's old
    /// contents. The delta of a slot with no old image is the image itself
    /// and is returned as `None`.
    fn encode_kv(place: &SlotPlace, sv: u64, op: &WriteOp<'_>) -> (Vec<u8>, Option<Vec<u8>>) {
        let old = place.old_slot.as_deref();
        let wv = kv::next_write_version(old.map_or(0, |old| old[0]));
        let mut buf = vec![0u8; place.slot_bytes];
        kv::encode(&mut buf, wv, sv, op.key, op.value, op.tombstone);
        let delta = old.map(|old| {
            let mut delta = buf.clone();
            xor_into(&mut delta, old);
            delta
        });
        (buf, delta)
    }

    /// Lands the delta writes held back by
    /// [`ModelMutation::ReorderDeltaPastCommit`] — strictly *after* the
    /// commit CAS, which is exactly the mis-ordering the mutation exists
    /// to inject. A no-op (no verbs, no suspension) when nothing is held.
    async fn flush_deferred_deltas(&mut self) -> Result<()> {
        if self.deferred_deltas.is_empty() {
            return Ok(());
        }
        let writes = std::mem::take(&mut self.deferred_deltas);
        let res = self.dm.batch(|dm| -> Result<()> {
            for (dcol, doff, bytes) in &writes {
                self.write_block(dm, *dcol, *doff, bytes)?;
            }
            Ok(())
        });
        self.dm.settle().await;
        res
    }

    /// Unwinds a write batch that bounced off an epoch fence after some
    /// of its verbs landed. The doorbell batch is not atomic: the KV slot
    /// and its two delta copies live on three different columns, so a
    /// migration fence can reject a later verb after an earlier one
    /// already wrote (e.g. the first delta copy's group has not moved yet
    /// while the second's just did). The retry then re-places the KV into
    /// a fresh slot, and without this rollback the abandoned slot would
    /// keep one delta copy with data and the other still zero — a
    /// divergence no recovery ever repairs, because nothing crashed.
    /// Restoring the slot to its allocation-time bytes (the old image for
    /// a reused block, zeros otherwise; delta copies to zero) under the
    /// *refreshed* placement re-establishes both the delta-copy agreement
    /// and the parity-linearity invariants, and handing the reservation
    /// back lets the retry reuse the slot.
    async fn unwind_fenced_place(&mut self, place: &SlotPlace) -> Result<()> {
        self.refresh_placement();
        let zeros = vec![0u8; place.slot_bytes];
        let old = place.old_slot.as_deref().unwrap_or(&zeros);
        let res = self.dm.batch(|dm| -> Result<()> {
            self.write_block(dm, place.col, place.kv_off, old)?;
            for (dcol, doff) in place.deltas {
                self.write_block(dm, dcol, doff, &zeros)?;
            }
            Ok(())
        });
        self.dm.settle().await;
        res?;
        self.unalloc_slot(place);
        Ok(())
    }

    /// Queues the invalidation of a lost-race KV — Slot Version ← −1 with
    /// matching delta fix-ups so parity linearity is preserved — without
    /// posting it: the next write batch of this operation carries the
    /// three inline writes for free, and `upsert` flushes any remainder
    /// before returning.
    fn defer_invalidate(&mut self, place: &SlotPlace) {
        let inval = INVALID_SLOT_VERSION.to_le_bytes();
        let mut delta8 = inval;
        if let Some(old) = &place.old_slot {
            xor_into(&mut delta8, &old[SLOT_VER_OFF..SLOT_VER_OFF + 8]);
        }
        let ver_off = SLOT_VER_OFF as u64;
        self.pending_inval
            .push((place.col, place.kv_off + ver_off, inval));
        for (dcol, doff) in place.deltas {
            self.pending_inval.push((dcol, doff + ver_off, delta8));
        }
        self.mark_place_obsolete(place);
    }

    /// Posts any still-queued invalidation writes in one doorbell batch.
    /// On error the queue is restored (rewriting landed entries is
    /// idempotent), so a failed flush can be retried by a later batch or
    /// the next operation's drain instead of silently dropping the stamps.
    pub(super) fn flush_invals(&mut self) -> Result<()> {
        if self.pending_inval.is_empty() {
            return Ok(());
        }
        let writes = std::mem::take(&mut self.pending_inval);
        let res = self.dm.batch(|dm| -> Result<()> {
            for (col, off, bytes) in &writes {
                self.write_block(dm, *col, *off, bytes)?;
            }
            Ok(())
        });
        if res.is_err() {
            self.pending_inval = writes;
        }
        res
    }
}
