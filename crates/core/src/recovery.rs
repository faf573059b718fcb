//! Failure handling: tiered MN recovery as a resumable tier machine, CN
//! crash recovery, and the one choreography that orders them (paper §3.4).
//!
//! MN recovery restores areas in criticality order — Meta, then Index, then
//! Block, then the parity rebuild — publishing the replacement to clients
//! as soon as the Index tier completes, which is when write requests regain
//! full performance and reads continue degraded (§3.4.1). A [`Recovery`]
//! is that order as an explicit machine in the shape of
//! [`crate::Migration`]: one owner, one cursor ([`RecoveryTier`]), every
//! tier run on the caller's thread by [`Recovery::step`]. Holding the
//! handle between `Index` and `Block` *is* the degraded window; stepping it
//! again resumes on the published replacement.
//!
//! Every tier runs on a [`SimCq`] the handle owns, driven by an `aceso-rt`
//! executor, so a stage's modeled network time is the clock's advance over
//! what the tier posts, and its host time (decode XOR, KV scanning, the RPC
//! handlers) is measured beside it. Every link on the clock carries one
//! transfer at a time. Every byte that lands on the replacement is charged
//! once, on its one link, in order: the Meta table with the checkpoint's
//! Index Version word, the checkpoint, the decode — one block per lost
//! cell: a chain of two or more sources is folded by the survivor holding
//! its PARITY cell ([`ServerReq::Fold`]), whose reads of the other columns
//! go on a link of its own, and a single source is one read — then the
//! `ScanNew` answers. A tier posts all of its transfers as one doorbell
//! ([`DmClient::batch`]), folds included: its first transfer pays a round
//! trip, every other one only the posting tax, and each fold's aggregator
//! reads its sources in a doorbell of its own. Round trips, the folding
//! survivors' reads and the surviving columns' line reads overlap: the
//! checkpoint's READ is posted without waiting for it, so the aggregators
//! read while it lands, and each survivor's `ScanNew` is a task on a client
//! of its own, posted at once and run beside the decode. The report mirrors
//! the columns of the paper's Table 2.

use crate::config::{pack_col, unpack_col};
use crate::kv;
use crate::proto::{self, ScannedBlock, ServerReq, ServerResp, SCAN_NEW_REQ_BYTES};
use crate::server::MnServer;
use crate::store::AcesoStore;
use crate::stripe::{decode_records, read_records, record_addr, StripeBook};
use crate::{Result, StoreError};
use aceso_blockalloc::{BlockId, BlockRecord, CellKind, Role, RECORD_TABLES};
use aceso_erasure::xor::is_zero;
use aceso_erasure::xor_into;
use aceso_index::layout::GROUP_BYTES;
use aceso_index::slot::slot_version;
use aceso_index::{fingerprint, SlotAtomic, SlotMeta};
use aceso_rdma::cq::SimCq;
use aceso_rdma::{DmClient, GlobalAddr, NodeId, RdmaError};
use aceso_rt::Executor;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stage-by-stage MN recovery breakdown (paper Table 2).
///
/// Each stage's headline `*_ms` column is its measured host time plus its
/// `*_net_ms`, the recovery clock's share, and is therefore
/// machine-dependent. The `*_bytes`/`*_ops` counters and the `*_net_ms`
/// columns depend only on what the recovery posts and the configured
/// [`aceso_rdma::CostModel`], so they are bit-reproducible run to run —
/// `bench quick --json` reports those.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// Reading record tables off their Meta Area copies (ms): the
    /// recovering column's, and in the Index tier every other dead column's.
    pub read_meta_ms: f64,
    /// Record table bytes transferred (deterministic): a whole table each.
    pub meta_bytes: u64,
    /// Modeled network share of [`read_meta_ms`](Self::read_meta_ms): per
    /// table a READ round trip, then its bytes landing.
    pub meta_net_ms: f64,
    /// Reading the latest index checkpoint out of the right neighbour's
    /// Checkpoint Area and restoring it (ms).
    pub read_ckpt_ms: f64,
    /// Checkpoint bytes received (deterministic): its 8 B Index Version
    /// word, read in the Meta tier's doorbell, and the checkpoint when that
    /// word is not 0 — none when the right neighbour is down too and the
    /// index starts from an empty checkpoint.
    pub ckpt_bytes: u64,
    /// Modeled network share of [`read_ckpt_ms`](Self::read_ckpt_ms): the
    /// checkpoint's READ, the first transfer on the replacement's link once
    /// the Index tier begins (its Index Version word rides in
    /// [`meta_net_ms`](Self::meta_net_ms)).
    pub ckpt_net_ms: f64,
    /// Reconstructing the column's *new* cells — DATA blocks written since
    /// the checkpoint — and every other dead column's via erasure decoding
    /// (ms). An old cell is the Block tier's, also in a stripe array that
    /// holds a new one.
    pub recover_lblock_ms: f64,
    /// Number of new cells of the column reconstructed.
    pub lblock_count: usize,
    /// Network bytes landed on the replacement while decoding new cells
    /// (deterministic): one block per lost cell with a source.
    pub lblock_net_bytes: u64,
    /// Blocks landed on the replacement while decoding new cells: a fold's
    /// answer, or the one read of a cell with a single source.
    pub lblock_net_ops: u64,
    /// Modeled network share of [`recover_lblock_ms`](Self::recover_lblock_ms):
    /// one doorbell of fold answers and single reads — one round trip, then
    /// the posting tax of each chained transfer and every block at line
    /// rate —, one transfer at a time on the replacement's link behind the
    /// checkpoint's READ, each answer no earlier than its aggregator's reads
    /// — which start with the tier, under the checkpoint.
    pub lblock_net_ms: f64,
    /// Having every surviving column scan its new blocks (`ScanNew`, ms):
    /// the handlers' host time and [`rblock_net_ms`](Self::rblock_net_ms).
    pub read_rblock_ms: f64,
    /// Number of new remote blocks scanned.
    pub rblock_count: usize,
    /// Bytes of the `ScanNew` requests and their encoded answers
    /// (deterministic).
    pub rblock_net_bytes: u64,
    /// `ScanNew` round trips: one per surviving column, all posted at once.
    pub scan_rpcs: u64,
    /// 64 B lines of new blocks the `ScanNew` handlers read, each survivor
    /// its own at line rate within its round trip.
    pub scan_lines: u64,
    /// Modeled share of [`read_rblock_ms`](Self::read_rblock_ms): what the
    /// `ScanNew`s add to the clock beyond the decode — whatever of the
    /// slowest survivor's round trip and line reads the decode does not
    /// hide, then every answer landing on the replacement's link.
    pub rblock_net_ms: f64,
    /// Scanning KV pairs of new blocks and reapplying slots (ms). A decoded
    /// block is scanned as soon as it lands, and a `ScanNew` answer as it
    /// comes back; that time is counted here, not in their `*_ms`.
    pub scan_kv_ms: f64,
    /// KV pairs scanned.
    pub kv_count: usize,
    /// Live scanned KVs routed to the recovering column (`route_hash % n ==
    /// col`): the only ones whose key the Index tier keeps.
    pub kv_routed: usize,
    /// Routed KVs whose reapply wrote an index slot: the freshest per key,
    /// and fresher than the checkpointed entry.
    pub kv_won: usize,
    /// Bytes of block content scanned for KVs (deterministic).
    pub scan_bytes: u64,
    /// Reconstructing the column's *old* cells — DATA blocks the
    /// checkpoint covers, wherever they sit — (Block tier, ms).
    pub recover_old_lblock_ms: f64,
    /// Block-tier compute component (decode XOR; machine-dependent).
    pub old_lblock_cpu_ms: f64,
    /// Network bytes landed on the replacement while decoding old cells
    /// (deterministic).
    pub old_lblock_net_bytes: u64,
    /// Blocks landed on the replacement while decoding old cells.
    pub old_lblock_net_ops: u64,
    /// Block-tier modeled network component, on the Index tier's rule.
    pub old_lblock_net_ms: f64,
    /// Number of old cells reconstructed.
    pub old_lblock_count: usize,
    /// Background parity + delta reconstruction (ms, not part of Total).
    pub parity_ms: f64,
    /// Network bytes landed by the parity rebuild (deterministic).
    pub parity_net_bytes: u64,
    /// Modeled network share of [`parity_ms`](Self::parity_ms): one
    /// doorbell for every rebuilt column — a fold answer per chain with an
    /// encoded cell, and the delta copies' direct reads.
    pub parity_net_ms: f64,
    /// Bytes the survivors that fold chains for the replacement read from
    /// other columns, every tier's (deterministic). A fold's own cells are
    /// its local memory; what it answers is in the tiers' `*_net_bytes`.
    pub fold_net_bytes: u64,
    /// Those reads, one block each.
    pub fold_net_ops: u64,
}

impl RecoveryReport {
    /// Time until the Index Area is usable again (functionality recovery):
    /// the host time of every Meta and Index stage plus the clock's advance
    /// over them, overlapped time counted once.
    pub fn index_tier_ms(&self) -> f64 {
        self.read_meta_ms
            + self.read_ckpt_ms
            + self.recover_lblock_ms
            + self.read_rblock_ms
            + self.scan_kv_ms
    }

    /// The paper's Total Time column (through the Block tier).
    pub fn total_ms(&self) -> f64 {
        self.index_tier_ms() + self.recover_old_lblock_ms
    }

    /// The recovery clock's advance over the Meta and Index tiers — the
    /// deterministic, machine-independent analogue of
    /// [`index_tier_ms`](Self::index_tier_ms).
    pub fn index_tier_net_ms(&self) -> f64 {
        self.meta_net_ms + self.ckpt_net_ms + self.lblock_net_ms + self.rblock_net_ms
    }

    /// Every byte the recovery moved over the network, all four tiers: what
    /// landed on the replacement and what its aggregators read.
    pub fn net_bytes(&self) -> u64 {
        let index_tier = self.meta_bytes + self.ckpt_bytes + self.lblock_net_bytes;
        let landed = index_tier + self.rblock_net_bytes + self.old_lblock_net_bytes;
        landed + self.parity_net_bytes + self.fold_net_bytes
    }
}

/// CN crash recovery outcome (§3.4.2).
#[derive(Clone, Copy, Debug, Default)]
pub struct CnRecoveryReport {
    /// Unfilled blocks re-examined.
    pub blocks_checked: usize,
    /// Slots found torn and rolled back.
    pub slots_repaired: usize,
    /// Slots found fully written and kept.
    pub slots_kept: usize,
}

/// A new DATA block the Index tier scans: `(column, offset, slot_len64)`.
type NewBlock = (usize, u64, u8);

/// A new block's place in the scan's visiting order: `(group, column,
/// block)`, the group 0 for a surviving column's, 1 for the recovering
/// column's, 2 for another dead column's.
type Rank = (u8, usize, BlockId);

/// One tier of MN recovery (§3.4.1), in the order [`Recovery::step`] runs
/// them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum RecoveryTier {
    /// Restore the record table from a surviving copy: it names which
    /// blocks are free.
    Meta,
    /// Restore the checkpoint, decode and read the blocks newer than it and
    /// reapply their KVs to the index — then publish: from the end of this
    /// tier the column answers RPCs and verbs, reads of old blocks degraded.
    Index,
    /// Decode the old cells — every one, also those sharing a stripe array
    /// with a new cell — and settle the duplicate checks the Index scan had
    /// to defer; reuse on the column is suppressed until then.
    Block,
    /// Rebuild the PARITY cells and delta copies of every column waiting
    /// for it (deferred while any column is down), closing their degraded
    /// windows.
    Parity,
    /// Nothing left to do.
    Done,
}

/// One MN recovery in flight. Drive it with [`Recovery::step`] (client
/// traffic, kills and other recoveries may run between tiers),
/// [`Recovery::run_to`] or [`Recovery::run`] (everything that is left).
///
/// Before the publish the replacement node is this handle's alone: an
/// error or a drop retires it unused and leaves the column dead, ready for
/// a fresh [`AcesoStore::begin_recovery`]. After the publish a dropped
/// handle leaves the column serving and degraded; the way on is
/// `kill_mn(col)` and a fresh recovery — which is also what happens when
/// the replacement itself dies between `Index` and `Block`.
pub struct Recovery {
    store: Arc<AcesoStore>,
    col: usize,
    /// The replacement's server state; its node is unpublished until the
    /// end of the Index tier.
    server: Arc<MnServer>,
    /// The recovery's clock: every tier runs on it.
    cq: Arc<SimCq>,
    /// The replacement's link, attached to [`Recovery::cq`]: everything
    /// that lands on the replacement is charged here.
    dm: DmClient,
    tier: RecoveryTier,
    report: RecoveryReport,
    /// The Index Version of the checkpoint the right neighbour holds, as
    /// the Meta tier read it: 0 for none.
    ckpt_iv: u64,
    /// The column's old cells — its DATA blocks the checkpoint covers, in
    /// whatever stripe array, one holding a new cell too: lost until the
    /// Block tier decodes exactly these. The Index tier decodes new cells
    /// only.
    local_old: Vec<BlockId>,
    /// fp-matches the Index scan could not verify, re-checked once the
    /// Block tier has made their targets readable.
    deferred: Vec<UnverifiedDup>,
    /// The block buffers every tier reads into.
    bufs: BlockBufs,
}

/// Column failures X-Code decodes through (and Meta Area copies cover).
const TOLERATED_LOSSES: usize = 2;

/// The typed reason a recovery cannot decode: how many columns are down.
fn too_many_lost(store: &AcesoStore) -> StoreError {
    StoreError::TooManyColumnsLost {
        lost: store.lost_columns(),
    }
}

impl AcesoStore {
    /// Starts recovering the failed column `col` onto a new memory node
    /// (the standby region a [`AcesoStore::checkpoint_tick`] left, if any).
    /// Refused while the column is alive and when more columns are down
    /// than the coding group tolerates; nothing is restored until the first
    /// [`Recovery::step`].
    pub fn begin_recovery(self: &Arc<Self>, col: usize) -> Result<Recovery> {
        if self.col_alive(col) {
            return Err(StoreError::ColumnAlive(col));
        }
        if self.lost_columns() > TOLERATED_LOSSES {
            return Err(too_many_lost(self));
        }
        let node = self.cluster.add_node();
        let (cq, dm) = (Arc::new(SimCq::new()), self.cluster.background_client());
        dm.attach_cq(Arc::clone(&cq));
        let server = MnServer::new(col, node, self.map, Arc::clone(self.placement()));
        server.restoring.store(true, Ordering::Release);
        Ok(Recovery {
            server,
            cq,
            dm,
            store: Arc::clone(self),
            col,
            tier: RecoveryTier::Meta,
            report: RecoveryReport::default(),
            ckpt_iv: 0,
            local_old: Vec::new(),
            deferred: Vec::new(),
            bufs: BlockBufs {
                block_size: self.map.blocks.block_size as usize,
                ..BlockBufs::default()
            },
        })
    }

    /// The failure-handling choreography (§3.4.3), in the one order that is
    /// safe: every crashed client's consistency first (the Block tier reads
    /// the very slots CN recovery repairs), then every dead column. Each
    /// repair is its own membership-service epoch — the service fences one
    /// before admitting the next — so each is followed by a barrier edge in
    /// the verb trace, and one precedes the first: the crash is quiesced
    /// before recovery begins.
    pub fn recover(
        self: &Arc<Self>,
        crashed: &[u32],
        dead: &[usize],
    ) -> Result<Vec<RecoveryReport>> {
        self.cluster.trace_barrier();
        for &cli_id in crashed {
            recover_cn(self, cli_id)?;
            self.cluster.trace_barrier();
        }
        let mut reports = Vec::with_capacity(dead.len());
        for &col in dead {
            reports.push(recover_mn(self, col)?);
            self.cluster.trace_barrier();
        }
        Ok(reports)
    }
}

/// Recovers the failed column `col` onto a fresh memory node, returning the
/// per-stage timing report: [`AcesoStore::begin_recovery`] run to the end.
pub fn recover_mn(store: &Arc<AcesoStore>, col: usize) -> Result<RecoveryReport> {
    store.begin_recovery(col)?.run()
}

impl Recovery {
    /// The tier the next [`Recovery::step`] will run.
    pub fn tier(&self) -> RecoveryTier {
        self.tier
    }

    /// The stages measured so far.
    pub fn report(&self) -> RecoveryReport {
        self.report
    }

    /// Runs the next tier and reports which one it was;
    /// [`RecoveryTier::Done`] once nothing is left. An error before the
    /// publish retires the replacement (every later step fails on its
    /// unreachable node); one after it leaves the cursor where it was, so
    /// the tier can be retried once its cause — say a second dead column —
    /// is gone.
    pub fn step(&mut self) -> Result<RecoveryTier> {
        let tier = self.tier;
        let run: fn(&mut Self) -> Result<()> = match tier {
            RecoveryTier::Meta => Self::tier_meta,
            RecoveryTier::Index => Self::tier_index,
            RecoveryTier::Block => Self::tier_block,
            RecoveryTier::Parity => Self::tier_parity,
            RecoveryTier::Done => return Ok(tier),
        };
        // The replacement may itself have died (or been retired) since the
        // last step; a stale handle must not touch the column again.
        let alive = self.store.cluster.node(self.server.node.id);
        let ran = alive.map_err(StoreError::from).and_then(|_| run(self));
        if ran.is_err() {
            // A failed tier's reads count nowhere, nor does their charge.
            self.bufs.abandon();
            self.dm.attach_cq(Arc::clone(&self.cq));
            self.retire_unpublished();
        }
        ran.map(|()| tier)
    }

    /// Runs the tiers before `until`, leaving the cursor there: holding the
    /// handle at [`RecoveryTier::Block`] is the degraded window.
    pub fn run_to(&mut self, until: RecoveryTier) -> Result<RecoveryReport> {
        while self.tier < until {
            self.step()?;
        }
        Ok(self.report)
    }

    /// Runs every remaining tier.
    pub fn run(&mut self) -> Result<RecoveryReport> {
        self.run_to(RecoveryTier::Done)
    }

    /// Before the publish nothing references the replacement: retire it (a
    /// drain, not a failure — nothing was lost with it).
    fn retire_unpublished(&self) {
        if self.tier <= RecoveryTier::Index {
            self.store.cluster.kill_node(self.server.node.id);
        }
    }

    // ---- Tier 1: Meta Area ------------------------------------------------
    // The Meta Area is copied on the next two columns; read whichever
    // survives (two simultaneous failures leave at least one). The first of
    // them, the right neighbour, also holds the column's checkpoint: its
    // Index Version word rides in the same doorbell.
    fn tier_meta(&mut self) -> Result<()> {
        let map = self.store.map;
        let t = Instant::now();
        let ncol = (self.col + 1) % self.store.cfg.num_mns;
        let node = self.store.directory().node_of(ncol);
        let iv_at = GlobalAddr::new(node, map.ckpt.index_version_offset());
        let (table, ckpt_iv) = self.dm.batch(|dm| {
            let table = read_meta_copy(&self.store, dm, self.col);
            (table, dm.read_u64(iv_at).ok())
        });
        let table = table?;
        // Unreachable, it holds no checkpoint: Index Version 0.
        self.ckpt_iv = ckpt_iv.unwrap_or(0);
        self.report.ckpt_bytes += 8 * u64::from(ckpt_iv.is_some());
        self.report.meta_bytes += map.blocks.table_size();
        self.server
            .node
            .region
            .write(map.blocks.record_offset(0), &table)?;
        let r = &mut self.report;
        r.meta_net_ms = self.bufs.settle(&self.dm, &self.cq);
        r.read_meta_ms = t.elapsed().as_secs_f64() * 1e3 + r.meta_net_ms;
        self.tier = RecoveryTier::Index;
        Ok(())
    }

    // ---- Tier 2: Index Area, then publish ---------------------------------
    fn tier_index(&mut self) -> Result<()> {
        let (store, server, col) = (Arc::clone(&self.store), Arc::clone(&self.server), self.col);
        let (dm, cq, ctl, dir) = (&self.dm, &self.cq, store.ctl_dm(), store.directory());
        let (map, n, bs) = (store.map, store.cfg.num_mns, store.map.blocks.block_size);
        let r = &mut self.report;

        // Every other dead column's records come from its Meta Area
        // copies, read like ours, one doorbell for all of them.
        let t = Instant::now();
        let others = (0..n).filter(|&c| c != col);
        let (survivors, dead): (Vec<_>, Vec<_>) = others.partition(|&c| store.col_alive(c));
        r.meta_bytes += dead.len() as u64 * map.blocks.table_size();
        let tables = dm.batch(|dm| {
            let tables = dead
                .iter()
                .map(|&c| Ok((c, read_meta_copy(&store, dm, c)?)));
            tables.collect::<Result<Vec<_>>>()
        })?;
        let net = self.bufs.settle(dm, cq);
        r.meta_net_ms += net;
        r.read_meta_ms += t.elapsed().as_secs_f64() * 1e3 + net;

        // The checkpoint lives in the right neighbour's Checkpoint Area
        // (paper Figure 3). Index Version 0 — no round has reached it, or
        // that neighbour is down too — is an empty checkpoint: every block
        // then counts as "new" and the index is rebuilt from a full scan
        // (slower, still correct). Otherwise one READ fetches it, posted
        // without waiting: it lands first on the replacement's link while
        // the decode's aggregators read beside it, and only what arrives is
        // charged. A neighbour lost since the Meta tier leaves none.
        let (t, start) = (Instant::now(), cq.now_us());
        let index_bytes = (map.index.num_groups * GROUP_BYTES) as usize;
        let at = GlobalAddr::new(dir.node_of((col + 1) % n), map.ckpt.base);
        let ckpt = match self.ckpt_iv {
            0 => None,
            _ => dm.read_vec(at, index_bytes).ok(),
        };
        let ckpt_iv = if ckpt.is_some() { self.ckpt_iv } else { 0 };
        let ckpt_end = dm.post(0).map_or(0, |(_, end)| end);
        self.bufs.until_ns = self.bufs.until_ns.max(ckpt_end);
        let ckpt_ns = ckpt_end.saturating_sub(cq.now_ns());
        if let Some(ckpt) = ckpt {
            r.ckpt_bytes += ckpt.len() as u64;
            server.index.restore(&server.node.region, &ckpt);
            // The next round's delta is taken against it, as col+1 holds it.
            server.node.region.write(map.baseline.base, &ckpt)?;
        }
        server
            .index
            .local_set_index_version(&server.node.region, ckpt_iv + 1);
        r.ckpt_net_ms = ckpt_ns as f64 / 1e6;
        r.read_ckpt_ms = t.elapsed().as_secs_f64() * 1e3 + r.ckpt_net_ms;

        // Classify data blocks everywhere: "new" = Index Version 0 or ≥ ckpt.
        // New blocks of this column, then of other dead columns, are decoded
        // to be scanned; each live column scans its own (`ScanNew`). This
        // column's old cells wait for the Block tier, also those that share
        // a stripe array with a new one.
        let is_new = |iv: u64| proto::is_new(iv, ckpt_iv);
        let mut decoded: Vec<(usize, BlockId, BlockRecord)> = Vec::new();
        for (id, rec) in server.records.lock().iter().enumerate() {
            match (rec.role, is_new(rec.index_version)) {
                (Role::Data, true) => decoded.push((col, id as BlockId, rec)),
                (Role::Data, false) => self.local_old.push(id as BlockId),
                _ => {}
            }
        }
        r.lblock_count = decoded.len();
        for (c, table) in tables {
            for (id, rec) in decode_records(&table, map.blocks).enumerate() {
                if rec.role == Role::Data && is_new(rec.index_version) {
                    decoded.push((c, id as BlockId, rec));
                }
            }
        }

        // Every survivor scans its own new blocks, all posted at once, each
        // on a client of its own: its round trip and the lines its handler
        // reads overlap the others' and the decode below. An answer is
        // scanned when it is in, ranked by its block, not by its arrival,
        // and lands on the replacement's link behind the decode.
        let (phase, mut answers) = (Instant::now(), 0);
        let mut scan = Scan::default();
        (scan.n, scan.col) = (n, col);
        let scan = Rc::new(RefCell::new(scan));
        let mut ex = Executor::new();
        for c in survivors {
            let link = store.cluster.background_client();
            link.attach_cq(Arc::clone(cq));
            let req = ServerReq::ScanNew {
                of_column: col,
                since_iv: ckpt_iv,
            };
            let resp = link.rpc_sized(dir.node_of(c), &dir.rpc_of(c), req, SCAN_NEW_REQ_BYTES, 0);
            let (blocks, lines) = resp?.expect_scanned()?;
            // The handler's line reads are charged at line rate, as if they
            // crossed the NIC; a fold's own cells are not (`xor_of`).
            link.accrue_bytes(64 * lines as usize);
            // The answer: its line count (8 B), then each block's encoding.
            answers += 8 + blocks.iter().map(|(_, b)| b.wire_len()).sum::<usize>();
            (r.scan_rpcs, r.scan_lines) = (r.scan_rpcs + 1, r.scan_lines + lines);
            r.rblock_count += blocks.len();
            let scan = Rc::clone(&scan);
            ex.spawn(async move {
                link.settle().await;
                for (id, found) in blocks {
                    let block = (c, map.blocks.block_offset(id), found.slot_len64);
                    scan.borrow_mut().add((0, c, id), block, found);
                }
            });
        }
        r.rblock_net_bytes = (answers + r.scan_rpcs as usize * SCAN_NEW_REQ_BYTES) as u64;

        // Reconstruct new local blocks, one planned decode per array, all
        // posted as one doorbell, and scan each decoded cell once it is in
        // hand.
        let t = Instant::now();
        let mut rank_of: HashMap<(u64, (usize, usize)), (Rank, NewBlock)> = HashMap::new();
        for (c, block, rec) in &decoded {
            if let CellKind::Data { array, row } = map.blocks.kind_of(*block) {
                let rank = (1 + u8::from(*c != col), *c, *block);
                let new = (*c, map.blocks.block_offset(*block), rec.slot_len64);
                rank_of.insert((array, (row, *c)), (rank, new));
            }
        }
        let arrays: BTreeSet<u64> = decoded.iter().map(|(_, _, r)| r.stripe_array).collect();
        let book = StripeBook::fetch(&store, ctl, arrays.iter().copied(), Some(&server))?;
        let bufs = &mut self.bufs;
        dm.batch(|dm| {
            for &array in &arrays {
                let new = |&r: &usize| rank_of.contains_key(&(array, (r, col)));
                let own: Vec<_> = (0..n - 2).filter(new).collect();
                let visit = |cell, bytes: &[u8]| {
                    if let Some(&(rank, block)) = rank_of.get(&(array, cell)) {
                        scan.borrow_mut().block(rank, block, bytes);
                    }
                };
                decode_column(&store, &server, dm, &book, array, &own, true, bufs, visit)?;
            }
            Ok::<_, StoreError>(())
        })?;
        let net = self.bufs.stage_reads(r);
        (r.lblock_net_bytes, r.lblock_net_ops) = (net.bytes, net.ops);
        let (decoding, busy) = (t.elapsed(), scan.borrow().busy);

        // The clock: the survivors' tasks post their round trips, the
        // checkpoint and the decode's transfers settle beside them (the
        // decode's share is what follows the checkpoint), then the survivors
        // finish and their answers land (theirs).
        ex.run_until_idle(|| false);
        r.lblock_net_ms = self.bufs.settle(dm, cq) - r.ckpt_net_ms;
        ex.run_until_idle(|| cq.advance_next());
        dm.accrue_bytes(answers);
        self.bufs.settle(dm, cq);
        r.rblock_net_ms = (cq.now_us() - start) / 1e3 - r.ckpt_net_ms - r.lblock_net_ms;
        r.recover_lblock_ms = (decoding - busy).as_secs_f64() * 1e3 + r.lblock_net_ms;
        // Everything else the phase did on the host, but scanning, is theirs.
        let answered = phase.elapsed() - decoding - (scan.borrow().busy - busy);
        r.read_rblock_ms = answered.as_secs_f64() * 1e3 + r.rblock_net_ms;

        // Reapply the freshest KV per key to the restored index.
        let t = Instant::now();
        let mut scan = scan.borrow_mut();
        (r.kv_count, r.kv_routed, r.scan_bytes) = (scan.kv_count, scan.kv_routed, scan.blocks * bs);
        let busy = scan.busy;
        (self.deferred, r.kv_won) = scan.reapply(&store, &server)?;
        r.scan_kv_ms = (busy + t.elapsed()).as_secs_f64() * 1e3;

        // ---- Publish: functionality is back (degraded reads). ------------
        dir.publish(&server, store.cluster.background_client());
        // Our tables 1 and 2 copy our two left neighbours' records: a live
        // one rewrites its table into ours under its execution lock, a dead
        // one's — which nothing writes any more — is copied from its other
        // holder (no holder left, nothing to copy; a failed write into our
        // own region is the tier's error).
        for table in 1..RECORD_TABLES {
            let lcol = (col + n - table) % n;
            let req = ServerReq::ResetReplication { replaced: col };
            if let Ok(ServerResp::Ok) = ctl.rpc(dir.node_of(lcol), &dir.rpc_of(lcol), req, 16) {
                continue;
            }
            // Its other holder keeps the other copy: 2 for table 1, 1 for 2.
            let other = record_addr(&store, lcol, RECORD_TABLES - table, 0);
            if let Ok(copy) = ctl.read_vec(other, map.blocks.table_size() as usize) {
                ctl.write(record_addr(&store, lcol, table, 0), &copy)?;
            }
        }
        // The replacement now serves reads, but parity cells and delta
        // copies hosted on this column are still zeroed until the Parity
        // tier runs. Flag the window so nobody trusts delta bytes here (a
        // column re-killed inside its window is flagged already).
        let mut degraded = store.degraded.lock();
        if !degraded.contains(&col) {
            degraded.push(col);
        }
        drop(degraded);
        self.tier = RecoveryTier::Block;
        Ok(())
    }

    // ---- Tier 3: old cells ------------------------------------------------
    fn tier_block(&mut self) -> Result<()> {
        let t = Instant::now();
        let (store, server, dm) = (&self.store, &self.server, &self.dm);
        let mut old: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for &id in &self.local_old {
            if let CellKind::Data { array, row } = store.map.blocks.kind_of(id) {
                old.entry(array).or_default().push(row);
            }
        }
        let book = StripeBook::fetch(store, store.ctl_dm(), old.keys().copied(), Some(server))?;
        let bufs = &mut self.bufs;
        dm.batch(|dm| {
            for (&array, own) in &old {
                let visit = |_, _: &[u8]| {};
                decode_column(store, server, dm, &book, array, own, false, bufs, visit)?;
            }
            Ok::<_, StoreError>(())
        })?;
        let r = &mut self.report;
        let net = self.bufs.stage_reads(r);
        r.old_lblock_count = self.local_old.len();
        (r.old_lblock_net_bytes, r.old_lblock_net_ops) = (net.bytes, net.ops);
        r.old_lblock_cpu_ms = t.elapsed().as_secs_f64() * 1e3;
        r.old_lblock_net_ms = self.bufs.settle(dm, &self.cq);
        r.recover_old_lblock_ms = r.old_lblock_cpu_ms + r.old_lblock_net_ms;
        self.server.restoring.store(false, Ordering::Release);

        // Resolve the fp-matches the index scan could not verify while old
        // block contents were missing. A checkpoint entry pointing into an
        // old block is unreadable during the Index tier, so a fresher
        // scanned KV for the same key was reapplied into a second slot; now
        // that old blocks are restored, confirm and clear the stale
        // duplicate — otherwise a search can probe it first and resurface
        // the pre-crash value of a key that was updated in the degraded
        // window.
        let region = &self.server.node.region;
        for d in &self.deferred {
            let atomic = SlotAtomic::decode(region.load64(d.stale_off)?);
            if atomic.is_empty() {
                continue;
            }
            let meta = SlotMeta::decode(region.load64(d.stale_off + 8)?);
            if holds_key(&self.store, atomic.addr48, &d.key) == Some(true)
                && slot_version(meta.epoch & !1, atomic.ver) < d.new_sv
            {
                region.store64(d.stale_off, 0)?;
                region.store64(d.stale_off + 8, 0)?;
            }
        }
        self.deferred.clear();
        self.tier = RecoveryTier::Parity;
        Ok(())
    }

    // ---- Tier 4: parity cells + delta blocks ------------------------------
    // With multiple concurrent failures, parity needs peers' recovered
    // data, so the rebuild is deferred until the last column comes back —
    // whose Parity tier then serves every column waiting.
    fn tier_parity(&mut self) -> Result<()> {
        let store = &self.store;
        let t = Instant::now();
        let cols: Vec<usize> = {
            let mut pending = store.pending_parity.lock();
            if !pending.contains(&self.col) {
                pending.push(self.col);
            }
            pending.clone()
        };
        if (0..store.cfg.num_mns).all(|c| store.col_alive(c)) {
            let (dm, bufs) = (&self.dm, &mut self.bufs);
            dm.batch(|dm| {
                let rebuild =
                    |&pc: &usize| rebuild_parity_and_deltas(store, &store.server(pc), dm, bufs);
                cols.iter().try_for_each(rebuild)
            })?;
            let r = &mut self.report;
            r.parity_net_bytes = self.bufs.stage_reads(r).bytes;
            r.parity_net_ms = self.bufs.settle(&self.dm, &self.cq);
            r.parity_ms = t.elapsed().as_secs_f64() * 1e3 + r.parity_net_ms;
            // Exactly the columns whose parity and delta copies were rebuilt
            // above are whole again. Clearing the *whole* list here would
            // also drop columns degraded by someone else — a recovery held
            // between its Index and Block tiers — and make recovery trust
            // their delta bytes too early.
            store.pending_parity.lock().retain(|c| !cols.contains(c));
            store.degraded.lock().retain(|c| !cols.contains(c));
        }
        record_recovery_obs(&store.obs(), &self.report);
        self.tier = RecoveryTier::Done;
        Ok(())
    }
}

impl Drop for Recovery {
    fn drop(&mut self) {
        self.retire_unpublished();
    }
}

/// Records a finished recovery's phase timings and counters into the
/// store's observability handle (no-op when no recorder is installed).
/// `recovery.net_bytes` is [`RecoveryReport::net_bytes`]. Span names
/// follow the tier order: `recovery.meta.us`, `recovery.index.us`,
/// `recovery.block.us`, `recovery.parity.us`.
fn record_recovery_obs(obs: &aceso_obs::Obs, r: &RecoveryReport) {
    if !obs.is_enabled() {
        return;
    }
    obs.add("recovery.runs", 1);
    obs.add("recovery.kv_scanned", r.kv_count as u64);
    obs.add("recovery.kv_routed", r.kv_routed as u64);
    obs.add("recovery.kv_won", r.kv_won as u64);
    obs.add("recovery.lblocks", r.lblock_count as u64);
    obs.add("recovery.rblocks", r.rblock_count as u64);
    obs.add("recovery.net_bytes", r.net_bytes());
    obs.observe("recovery.meta.us", r.read_meta_ms * 1e3);
    obs.observe(
        "recovery.index.us",
        (r.index_tier_ms() - r.read_meta_ms) * 1e3,
    );
    obs.observe("recovery.block.us", r.recover_old_lblock_ms * 1e3);
    if r.parity_ms > 0.0 {
        obs.observe("recovery.parity.us", r.parity_ms * 1e3);
    }
}

/// One RDMA MTU: a fold's answer streams as its aggregator reads
/// (cut-through), so it ends no earlier than the last read plus one MTU.
const MTU_BYTES: f64 = 4096.0;

/// Block reads a recovery stage put on the wire.
#[derive(Clone, Copy, Default)]
struct Reads {
    bytes: u64,
    ops: u64,
}

/// The block-sized buffers a recovery reads and decodes into, recycled from
/// block to block — a tier faults in a handful, not one per block it reads
/// —, the links of the survivors that fold for it, and the reads put on the
/// wire since the stage began: landed on the replacement (`net`), and read
/// by those survivors from other columns (`fold`).
#[derive(Default)]
struct BlockBufs {
    block_size: usize,
    free: Vec<Vec<u8>>,
    net: Reads,
    fold: Reads,
    /// Each folding survivor's link on the recovery's clock, by column.
    links: BTreeMap<usize, DmClient>,
    /// When the last transfer posted and not yet waited for completes.
    until_ns: u64,
}

impl BlockBufs {
    /// Forgets a failed tier: what it read, its links, what it posted.
    fn abandon(&mut self) {
        (self.net, self.fold, self.links, self.until_ns) = Default::default();
    }

    fn take(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_else(|| vec![0; self.block_size])
    }

    /// A recycled buffer, all zeros.
    fn zeroed(&mut self) -> Vec<u8> {
        let mut buf = self.take();
        buf.fill(0);
        buf
    }

    /// Reads the block at `off` of `node` into a recycled buffer, counting it.
    fn read(&mut self, dm: &DmClient, node: NodeId, off: u64) -> Result<Vec<u8>> {
        let mut buf = self.take();
        dm.read(GlobalAddr::new(node, off), &mut buf)?;
        self.net.bytes += buf.len() as u64;
        self.net.ops += 1;
        Ok(buf)
    }

    /// Hands a buffer back for the next read.
    fn put(&mut self, buf: Vec<u8>) {
        self.free.push(buf);
    }

    /// The XOR of the blocks `sources` names (`pack_col(column, offset)`)
    /// in a recycled buffer: zeros for none, and one read on `dm`'s link for
    /// one if `read_one` (a parity or delta block; a surviving DATA cell
    /// never lands on the replacement). The rest are a [`ServerReq::Fold`]
    /// at column `at`: its reads of the other columns' sources go on `at`'s
    /// link as one doorbell, its answer — one block — on `dm`'s, ending no
    /// earlier than those reads plus one MTU.
    fn xor_of(
        &mut self,
        store: &AcesoStore,
        dm: &DmClient,
        at: usize,
        read_one: bool,
        sources: Vec<u64>,
    ) -> Result<Vec<u8>> {
        let (dir, bs) = (store.directory(), self.block_size);
        match sources[..] {
            [] => return Ok(self.zeroed()),
            [one] if read_one => {
                return self.read(dm, dir.node_of(unpack_col(one).0), unpack_col(one).1)
            }
            _ => {}
        }
        let remote = sources.iter().filter(|&&s| unpack_col(s).0 != at).count();
        let link = self.links.entry(at).or_insert_with(|| {
            let link = dm.cluster().background_client();
            dm.cq().into_iter().for_each(|cq| link.attach_cq(cq));
            link
        });
        link.accrue_doorbell(remote, remote * bs);
        let mtu_ns = (MTU_BYTES / store.cfg.cost.node_bw * 1e9).round() as u64;
        let read_by = link.post(0).map_or(0, |(_, end)| end + mtu_ns);
        let req_bytes = 8 * sources.len();
        let req = ServerReq::Fold {
            sources,
            buf: self.take(),
        };
        let resp = dm.rpc_sized(dir.node_of(at), &dir.rpc_of(at), req, req_bytes, bs)?;
        let buf = resp.expect_folded()?;
        let answered = dm.post(read_by).map_or(0, |(_, end)| end);
        self.until_ns = self.until_ns.max(answered);
        (self.net.bytes, self.net.ops) = (self.net.bytes + bs as u64, self.net.ops + 1);
        self.fold.bytes += (remote * bs) as u64;
        self.fold.ops += remote as u64;
        Ok(buf)
    }

    /// The blocks landed on the replacement since the last call — one
    /// stage's —, its folds' reads added to `r`.
    fn stage_reads(&mut self, r: &mut RecoveryReport) -> Reads {
        let f = std::mem::take(&mut self.fold);
        (r.fold_net_bytes, r.fold_net_ops) = (r.fold_net_bytes + f.bytes, r.fold_net_ops + f.ops);
        std::mem::take(&mut self.net)
    }

    /// Posts what `dm`'s link still owes and advances its clock `cq` until
    /// every transfer posted is in: the clock's advance, in ms. Completions
    /// other executors posted on `cq` are delivered on the way.
    fn settle(&mut self, dm: &DmClient, cq: &SimCq) -> f64 {
        let start = cq.now_us();
        let end = dm.post(0).map_or(0, |(_, end)| end);
        let end = end.max(std::mem::take(&mut self.until_ns));
        while cq.now_ns() < end && cq.advance_next() {}
        (cq.now_us() - start) / 1e3
    }
}

/// The failed column's record table, read with one READ off the first of
/// its two copies whose holder the fabric reaches, its bytes owed to `dm`'s
/// link as they land.
fn read_meta_copy(store: &AcesoStore, dm: &DmClient, col: usize) -> Result<Vec<u8>> {
    let len = store.map.blocks.table_size() as usize;
    for copy in 1..RECORD_TABLES {
        match dm.read_vec(record_addr(store, col, copy, 0), len) {
            Err(RdmaError::NodeUnreachable(_)) => continue,
            read => return Ok(read?),
        }
    }
    Err(too_many_lost(store))
}

/// Restores the cells `own` names — rows of `server`'s column in stripe
/// `array`, the Index tier's new cells or the Block tier's old ones — onto
/// its region by planned X-Code decode, and with `others` decodes the data
/// cells of every other dead column too. No other cell of the column is
/// written: a new one the Index tier published may be an open block its
/// clients keep writing. With one column down a lost cell costs its one
/// chain; with two the plan is the full peel.
///
/// Ruled out of the plan: dead columns, the column being recovered, and
/// PARITY cells hosted where [`StripeBook::trusted`] says bytes are not to
/// be believed (zeros until that column's parity rebuild). Each step folds
/// by the record of *its own* chain's parity cell — a block close is two
/// `EncodeDelta`s, and between them the two records disagree:
/// `C_t = P ⊕ ⊕_{k≠t, folded}(C_k ⊕ D_k) ⊕ D_t`, and a target the record
/// has not folded in is its delta copy alone. A step with two or more
/// sources is one fold at its PARITY cell's holder, where that cell and its
/// record's deltas are local ([`BlockBufs::xor_of`]); one source is one
/// read; the replacement XORs in only what it already holds — an earlier
/// step's target, under the two-column peel. No surviving cell lands, so
/// every cell left in hand is a lost one, decoded: each goes to `visit` as
/// `(row, col)` and its buffer back to `bufs`. The plan and the records name
/// every source up front and none waits on another, so callers post every
/// array's folds and single reads as one doorbell.
#[allow(clippy::too_many_arguments)]
fn decode_column(
    store: &AcesoStore,
    server: &MnServer,
    dm: &DmClient,
    book: &StripeBook,
    array: u64,
    own: &[usize],
    others: bool,
    bufs: &mut BlockBufs,
    mut visit: impl FnMut((usize, usize), &[u8]),
) -> Result<()> {
    let blocks = store.map.blocks;
    let n = store.cfg.num_mns;
    let col = server.column;
    let at = |r: usize, c: usize| pack_col(c, blocks.block_offset(blocks.cell_block_id(array, r)));
    let dead: Vec<bool> = (0..n).map(|c| c == col || !store.col_alive(c)).collect();
    let other_dead = (0..n).filter(|&c| others && c != col && dead[c]);
    let wanted = own.iter().map(|&r| (r, col));
    let wanted = wanted.chain(other_dead.flat_map(|c| (0..n - 2).map(move |r| (r, c))));
    let ruled_out = |r: usize, c: usize| dead[c] || (r >= n - 2 && !book.trusted(c));
    let plan = book.xcode.plan(ruled_out, wanted);

    let mut cells: HashMap<(usize, usize), Vec<u8>> = HashMap::new();
    for step in plan.map_err(|_| too_many_lost(store))? {
        let (prow, pcol) = step.parity;
        let prec = book.parity(array, prow, pcol);
        let folded = |r: usize| prec.is_some_and(|p| p.xor_map & (1 << r) != 0);
        let delta = |r: usize| prec.map_or(0, |p| p.delta_addr[r]);
        let target_folded = folded(step.target.0);
        let chain = book.xcode.chain(prow, pcol).data.iter();
        let others = chain.filter(|&&(r, c)| target_folded && (r, c) != step.target && folded(r));
        let others: Vec<_> = others.collect();
        let mut sources = Vec::from_iter(target_folded.then(|| at(prow, pcol)));
        let unheld = others.iter().filter(|&&cell| !cells.contains_key(cell));
        sources.extend(unheld.map(|&&(r, c)| at(r, c)));
        let deltas = others.iter().map(|&&(r, _)| delta(r));
        sources.extend(deltas.chain([delta(step.target.0)]).filter(|&d| d != 0));
        let mut acc = bufs.xor_of(store, dm, pcol, true, sources)?;
        for held in others.iter().filter_map(|&cell| cells.get(cell)) {
            xor_into(&mut acc, held);
        }
        cells.insert(step.target, acc);
    }

    for &r in own {
        let id = blocks.cell_block_id(array, r);
        let content = cells.get(&(r, col)).ok_or_else(|| too_many_lost(store))?;
        server.node.region.write(blocks.block_offset(id), content)?;
    }
    for (cell, buf) in cells {
        visit(cell, &buf);
        bufs.put(buf);
    }
    Ok(())
}

/// Recomputes the PARITY cells of `server`'s column and re-materializes
/// its DELTA blocks from the surviving copies, reading into `bufs`: each
/// chain's encoded cells are folded at the first one's host — even one, so
/// no surviving DATA cell lands here — and the delta copies read directly
/// (their bytes are re-materialized). No read waits on another, so the
/// caller posts every rebuilt column's folds and reads as one doorbell.
fn rebuild_parity_and_deltas(
    store: &AcesoStore,
    server: &MnServer,
    dm: &DmClient,
    bufs: &mut BlockBufs,
) -> Result<()> {
    let map = store.map;
    let dir = store.directory();
    let (col, region) = (server.column, &server.node.region);
    let cell_at = |array, r| map.blocks.block_offset(map.blocks.cell_block_id(array, r));
    let arrays: BTreeSet<u64> = {
        let recs = server.records.lock();
        let parity = recs.iter().filter(|r| r.role == Role::Parity);
        parity.map(|r| r.stripe_array).collect()
    };
    let book = StripeBook::fetch(store, store.ctl_dm(), arrays.iter().copied(), None)?;
    let xcode = &book.xcode;

    for &array in &arrays {
        for eq in [xcode.diag_row(), xcode.anti_row()].map(|prow| xcode.chain(prow, col)) {
            let Some(prec) = book.parity(array, eq.parity_row, col) else {
                continue; // Never allocated: nothing encoded yet.
            };
            // An unencoded cell (xor_map bit clear) contributes zero to the
            // parity equation, but its pending delta copy must still be
            // re-materialized below: for open cells the two delta replicas
            // ARE the redundancy, and leaving the lost copy stale would
            // silently drop to one replica until the block encodes. An
            // encoded cell contributes C ⊕ pending delta: C folded here, the
            // delta below.
            let encoded = |r: usize| prec.xor_map & (1 << r) != 0;
            let cells = eq.data.iter().filter(|&&(r, _)| encoded(r));
            let sources = Vec::from_iter(cells.map(|&(r, c)| pack_col(c, cell_at(array, r))));
            let host = sources.first().map_or(col, |&s| unpack_col(s).0);
            let mut parity = bufs.xor_of(store, dm, host, false, sources)?;
            for &(r, c) in &eq.data {
                if prec.delta_addr[r] == 0 {
                    continue;
                }
                // This cell has a pending delta whose copy on our column
                // was lost; fetch the surviving copy on the cell's other
                // parity column and re-materialize ours.
                let (_, own_off) = unpack_col(prec.delta_addr[r]);
                let other = book.delta_copies(array, r, c).find(|&(dc, _)| dc != col);
                if let Some((dc, doff)) = other {
                    let dbuf = bufs.read(dm, dir.node_of(dc), doff)?;
                    if encoded(r) {
                        xor_into(&mut parity, &dbuf);
                    }
                    region.write(own_off, &dbuf)?;
                    bufs.put(dbuf);
                }
            }
            let pid = map.blocks.cell_block_id(array, eq.parity_row);
            region.write(map.blocks.block_offset(pid), &parity)?;
            bufs.put(parity);
        }
    }
    Ok(())
}

/// An fp-matching index slot the scan could not verify (its pointer
/// targets a block whose contents are not restored until the Block tier),
/// next to which a fresher scanned KV was reapplied. Once old blocks are
/// readable again the slot is re-checked: if it really is the same key,
/// the stale duplicate is cleared so searches cannot resurface the
/// pre-crash value.
struct UnverifiedDup {
    key: Vec<u8>,
    /// Region offset of the slot that could not be verified.
    stale_off: u64,
    /// Slot version of the freshly reapplied entry.
    new_sv: u64,
}

/// The Index tier's KV scan (§3.2.2–§3.2.3): fed each new block's
/// [`ScannedBlock`] in any order — a surviving column's from its own
/// `ScanNew` ([`Scan::add`]), a decoded cell's from its bytes
/// ([`Scan::block`]) — then [`Scan::reapply`]'d to the restored index once.
/// Per key the winner is the KV with the largest `(slot version, rank,
/// slot)`, where the block's [`Rank`] is its place in the visiting order
/// remote → local → other dead columns (within each, by column and block):
/// the KV a walk in that order keeping the last of equal slot versions would
/// pick, whatever order the blocks arrive in.
#[derive(Default)]
struct Scan {
    /// Only keys with `route_hash % n == col` are indexed on this column.
    n: usize,
    col: usize,
    /// Per key, its freshest KV so far: `(slot version, rank, slot, packed
    /// address, slot_len64)` — the first three decide, and `(rank, slot)` is
    /// one KV's.
    best: BTreeMap<Vec<u8>, (u64, Rank, usize, u64, u8)>,
    /// Each scanned live KV routed here: its address → its key.
    key_at: HashMap<u64, Vec<u8>>,
    /// Each scanned block, by packed address: its `slot_len64` and which of
    /// its slots hold a live KV indexed on another column — never the key a
    /// slot here is checked for.
    foreign: BTreeMap<u64, (u64, Vec<u8>)>,
    kv_count: usize,
    kv_routed: usize,
    blocks: u64,
    /// Host time spent in [`Scan::add`] and [`Scan::block`].
    busy: Duration,
}

impl Scan {
    /// Takes the scan of one new block, at `rank` in the visiting order.
    fn add(&mut self, rank: Rank, (c, base, slot_len64): NewBlock, found: ScannedBlock) {
        let t = Instant::now();
        (self.blocks, self.kv_count) = (self.blocks + 1, self.kv_count + found.decoded);
        self.kv_routed += found.routed.len();
        let at = |s: usize| pack_col(c, base + (s * slot_len64 as usize * 64) as u64);
        self.foreign
            .insert(at(0), (slot_len64 as u64, found.foreign));
        for (s, sv, key) in found.routed {
            self.key_at.insert(at(s), key.clone());
            let kv = (sv, rank, s, at(s), slot_len64);
            let best = self.best.entry(key).or_insert(kv);
            *best = (*best).max(kv);
        }
        self.busy += t.elapsed();
    }

    /// Scans a new block whose bytes are in hand, slot by slot with
    /// [`kv::decode`], at `rank` in the visiting order.
    fn block(&mut self, rank: Rank, block: NewBlock, bytes: &[u8]) {
        let t = Instant::now();
        let (n, col, slot_bytes) = (self.n, self.col, block.2 as usize * 64);
        let mut found = ScannedBlock::new(block.2, bytes.len());
        let slots = (slot_bytes > 0).then(|| bytes.chunks_exact(slot_bytes));
        for (s, slot) in slots.into_iter().flatten().enumerate() {
            if let Some(kv) = kv::decode(slot) {
                found.push(s, kv, n, col);
            }
        }
        self.busy += t.elapsed();
        self.add(rank, block, found);
    }

    /// Whose live KV the scan saw at `addr`: `Some(Some(key))` one indexed
    /// here, `Some(None)` another column's, `None` none.
    fn key_of(&self, addr: u64) -> Option<Option<&[u8]>> {
        if let Some(key) = self.key_at.get(&addr) {
            return Some(Some(key));
        }
        let (base, (slot_len64, bits)) = self.foreign.range(..=addr).next_back()?;
        let s = (addr - base).checked_div(*slot_len64)? as usize; // Packed: 64 B units.
        (bits.get(s / 8)? & (1 << (s % 8)) != 0).then_some(None)
    }

    /// Reapplies the freshest KV per key to the restored index of `server`
    /// (all local region writes), in key order. Returns the fp-matches that
    /// must be re-checked after the Block tier, and how many slots it wrote.
    fn reapply(
        &mut self,
        store: &AcesoStore,
        server: &MnServer,
    ) -> Result<(Vec<UnverifiedDup>, usize)> {
        let region = &server.node.region;
        let layout = store.map.index;
        let mut dups: Vec<UnverifiedDup> = Vec::new();
        let mut won = 0;
        for (key, (sv, _, _, packed, class)) in std::mem::take(&mut self.best) {
            let fp = fingerprint(&key);
            let mut applied = false;
            let mut first_empty: Option<u64> = None;
            let mut unverified: Vec<u64> = Vec::new();
            'groups: for (g, c) in layout.buckets_for(&key) {
                for s in 0..aceso_index::layout::COMBINED_SLOTS {
                    let off = layout.slot_offset(g, c, s);
                    let atomic = SlotAtomic::decode(region.load64(off)?);
                    let meta = SlotMeta::decode(region.load64(off + 8)?);
                    if atomic.is_empty() {
                        first_empty.get_or_insert(off);
                        continue;
                    }
                    if atomic.fp != fp {
                        continue;
                    }
                    // Verify the slot is really this key's: prefer the scanned
                    // side map, fall back to reading the pointed KV.
                    let ours = match self.key_of(atomic.addr48) {
                        Some(slot_key) => Some(slot_key == Some(&key[..])),
                        None => holds_key(store, atomic.addr48, &key),
                    };
                    let Some(ours) = ours else {
                        // Unreadable target (an old block not restored until
                        // the Block tier): re-check once contents are back.
                        // Every such match, not just the first — another key
                        // with this fingerprint may sit in front of ours.
                        unverified.push(off);
                        continue;
                    };
                    if !ours {
                        continue;
                    }
                    let current_sv = slot_version(meta.epoch & !1, atomic.ver);
                    if sv > current_sv {
                        write_slot(region, off, fp, packed, sv, class)?;
                        won += 1;
                    }
                    applied = true;
                    break 'groups;
                }
            }
            if !applied {
                if let Some(off) = first_empty {
                    write_slot(region, off, fp, packed, sv, class)?;
                    won += 1;
                    dups.extend(unverified.into_iter().map(|stale_off| UnverifiedDup {
                        key: key.clone(),
                        stale_off,
                        new_sv: sv,
                    }));
                }
            }
        }
        Ok((dups, won))
    }
}

fn write_slot(
    region: &aceso_rdma::Region,
    off: u64,
    fp: u8,
    packed: u64,
    sv: u64,
    class: u8,
) -> Result<()> {
    let atomic = SlotAtomic {
        fp,
        addr48: packed,
        ver: (sv & 0xFF) as u8,
    };
    let meta = SlotMeta {
        len64: class,
        epoch: (sv >> 8) << 1,
    };
    region.store64(off, atomic.encode())?;
    Ok(region.store64(off + 8, meta.encode())?)
}

/// Whether the KV a restored slot points at is `key`'s — an identity read
/// of header + key, which the slot's advisory `len64` (a checkpoint can
/// capture a slot between its commit CAS and its Meta write) has no say in.
/// `None` if the KV is unreadable or its block not restored yet. (Today
/// such a KV sits in a block the scan covers, so [`Scan::key_of`] answers
/// first; this read must not depend on that.)
fn holds_key(store: &AcesoStore, packed: u64, key: &[u8]) -> Option<bool> {
    let (c, off) = unpack_col(packed);
    let addr = GlobalAddr::new(store.directory().node_of(c), off);
    let prefix = store.ctl_dm().read_vec(addr, kv::identity_len(key)).ok()?;
    match kv::identity(&prefix, key) {
        kv::Identity::Unwritten => None,
        id => Some(matches!(id, kv::Identity::Ours { .. })),
    }
}

/// Recovers the unfilled blocks of crashed client `cli_id` to a consistent
/// state (§3.4.2): every torn slot is rolled back, every fully written one
/// kept.
pub fn recover_cn(store: &Arc<AcesoStore>, cli_id: u32) -> Result<CnRecoveryReport> {
    let map = store.map;
    let bs = map.blocks.block_size as usize;
    let dir = store.directory();
    let dm = store.cluster.background_client();
    let mut report = CnRecoveryReport::default();
    // Repair writes must land everywhere a client write would: the
    // placement primary plus the dual-write mirror while a migration is
    // in flight. Writing only the directory-resolved node would leave
    // already-copied groups on the migration target serving the
    // un-repaired bytes once the migration publishes.
    let pl = store.placement().snapshot();
    let write_repaired = |c: usize, off: u64, bytes: &[u8]| -> Result<()> {
        let primary = pl.resolve(c, off, &map).unwrap_or_else(|| dir.node_of(c));
        dm.write(GlobalAddr::new(primary, off), bytes)?;
        if let Some(m) = pl.mirror(c, off, &map) {
            // A dead mirror is its own column's recovery to rebuild.
            match dm.write(GlobalAddr::new(m, off), bytes) {
                Err(RdmaError::NodeUnreachable(_)) => {}
                written => written?,
            }
        }
        Ok(())
    };

    // The client's unfilled DATA blocks on every reachable column (a dead
    // column's are handled by its MN recovery).
    let mut blocks: Vec<(usize, BlockId, u8, u64, usize)> = Vec::new();
    for col in 0..store.cfg.num_mns {
        let ids = map.blocks.record_ids();
        let recs = match read_records(store, &dm, col, 0, ids.clone()) {
            Err(RdmaError::NodeUnreachable(_)) => continue,
            read => read?,
        };
        for (id, rec) in ids.zip(recs) {
            let open = rec.cli_id == cli_id && rec.index_version == 0 && rec.slot_len64 != 0;
            if let (true, Role::Data, CellKind::Data { array, row }) =
                (open, rec.role, map.blocks.kind_of(id))
            {
                blocks.push((col, id, rec.slot_len64, array, row));
            }
        }
    }
    let arrays: BTreeSet<u64> = blocks.iter().map(|&(_, _, _, array, _)| array).collect();
    let book = StripeBook::fetch(store, &dm, arrays, None)?;

    for (col, id, slot_len64, array, row) in blocks {
        report.blocks_checked += 1;
        let slot_bytes = slot_len64 as usize * 64;
        let block_off = map.blocks.block_offset(id);
        let block = dm.read_vec(GlobalAddr::new(dir.node_of(col), block_off), bs)?;
        // Old contents: the server's backup for reused blocks, zeros for
        // fresh ones.
        let req = ServerReq::GetOldCopy { block: id };
        let old = dm.rpc(dir.node_of(col), &dir.rpc_of(col), req, 16)?;
        let old = old.expect_old_copy()?.unwrap_or_else(|| vec![0u8; bs]);
        // Fetch both delta blocks — the trustworthy ones. A copy hosted on
        // a column still in its degraded window reads back as zeros;
        // trusting it would classify every committed slot as torn and the
        // "repair" would zero the surviving copy too. (A mid-migration
        // column is not degraded: the dual-write mirror keeps it
        // byte-fresh, and its copy must take part in the repair — skipping
        // it would zero one copy of a torn delta but not the other.)
        let mut dinfo: Vec<(usize, u64, Vec<u8>)> = Vec::new();
        let mut skipped_degraded = false;
        for (dc, doff) in book.delta_copies(array, row, col) {
            if !book.trusted(dc) {
                skipped_degraded = true;
            } else if let Ok(dbuf) = dm.read_vec(GlobalAddr::new(dir.node_of(dc), doff), bs) {
                dinfo.push((dc, doff, dbuf));
            }
        }
        if dinfo.is_empty() && skipped_degraded {
            // No trustworthy copy left to judge against: defer this block
            // to the column's block-tier recovery.
            continue;
        }

        for s in 0..bs / slot_bytes {
            let range = s * slot_bytes..(s + 1) * slot_bytes;
            let kv_slot = &block[range.clone()];
            let old_slot = &old[range.clone()];
            if kv_slot == old_slot && dinfo.iter().all(|(_, _, d)| is_zero(&d[range.clone()])) {
                continue; // Untouched slot.
            }
            // Expected delta for a fully-written slot: old ⊕ new.
            let mut expect = kv_slot.to_vec();
            xor_into(&mut expect, old_slot);
            let consistent = kv::is_complete(kv_slot)
                && !dinfo.is_empty()
                && dinfo.iter().all(|(_, _, d)| d[range.clone()] == expect[..]);
            if consistent {
                report.slots_kept += 1;
                continue;
            }
            // Torn: roll back to the old contents, zero the deltas.
            report.slots_repaired += 1;
            write_repaired(col, block_off + (s * slot_bytes) as u64, old_slot)?;
            let zeros = vec![0u8; slot_bytes];
            for (dc, doff, _) in &dinfo {
                // A delta copy whose holder died since it was read is
                // rebuilt by that column's Parity tier.
                match write_repaired(*dc, doff + (s * slot_bytes) as u64, &zeros) {
                    Err(StoreError::Rdma(RdmaError::NodeUnreachable(_))) => {}
                    written => written?,
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_index::route_hash;

    /// A 64 KB block of 1 KB slots (class 16) holding `(slot, key, slot version)`.
    fn block_of(kvs: &[(usize, &[u8], u64)]) -> Vec<u8> {
        let mut bytes = vec![0u8; 64 << 10];
        for &(s, key, sv) in kvs {
            kv::encode(
                &mut bytes[s * 1024..(s + 1) * 1024],
                1,
                sv,
                key,
                b"v",
                false,
            );
        }
        bytes
    }

    /// The reference: blocks walked in rank order, slots in order, a KV
    /// taking its key over when its slot version is `>=` the pick's.
    fn walk(col: usize, set: &[(NewBlock, Vec<u8>)]) -> BTreeMap<Vec<u8>, u64> {
        let mut pick: BTreeMap<Vec<u8>, (u64, u64)> = BTreeMap::new();
        for &((c, base, class), ref bytes) in set {
            let slot_bytes = class as usize * 64;
            for (s, slot) in bytes.chunks_exact(slot_bytes).enumerate() {
                let Some(d) = kv::decode(slot) else { continue };
                if d.is_invalidated() || route_hash(d.key) % 5 != col as u64 {
                    continue;
                }
                let packed = pack_col(c, base + (s * slot_bytes) as u64);
                let e = pick.entry(d.key.to_vec()).or_insert((0, packed));
                if d.slot_version >= e.0 {
                    *e = (d.slot_version, packed);
                }
            }
        }
        pick.into_iter()
            .map(|(k, (_, packed))| (k, packed))
            .collect()
    }

    /// What a `ScanNew` handler answers for a block holding `bytes`: every
    /// slot judged from the lines it asks for, as the handler reads them out
    /// of its region.
    fn scan_new(col: usize, (_, _, class): NewBlock, bytes: &[u8]) -> ScannedBlock {
        let mut found = ScannedBlock::new(class, bytes.len());
        let mut slot = vec![0; class as usize * 64];
        for (s, whole) in bytes.chunks_exact(slot.len()).enumerate() {
            let read = |i: usize, line: &mut [u8]| line.copy_from_slice(&whole[64 * i..][..64]);
            if let Some(kv) = kv::judge_lines(&mut slot, read) {
                found.push(s, kv, 5, col);
            }
        }
        found
    }

    /// Blocks fed to the scan in any order pick the KV the sequential walk
    /// picks — also for a key with two equal slot versions in blocks of
    /// different rank, where the later rank wins though its slot is lower —
    /// and the same whether the scan is fed the blocks' bytes (a decoded
    /// cell) or their `ScanNew` answers (a surviving column's block): the
    /// same winners, the same "is this slot's KV my key?" answers.
    #[test]
    fn scan_winner_does_not_depend_on_arrival_order() {
        let col = 0;
        let named = |i: u32| format!("scan-{i}").into_bytes();
        let ours: Vec<Vec<u8>> = (0..)
            .map(named)
            .filter(|k| route_hash(k) % 5 == col as u64)
            .take(2)
            .collect();
        let foreign = (0..)
            .map(named)
            .find(|k| route_hash(k) % 5 != col as u64)
            .unwrap();
        // A key that runs past a slot's first line.
        let long = (0..)
            .map(|i: u32| format!("scan-{i}-{}", "x".repeat(60)).into_bytes())
            .find(|k| route_hash(k) % 5 == col as u64)
            .unwrap();
        let (tied, plain) = (&ours[0][..], &ours[1][..]);
        let (a, b, c) = (10 << 16, 20 << 16, 30 << 16);
        // A fresher `plain` that lost its commit race: never a winner.
        let mut lost = block_of(&[
            (7, plain, 6),
            (3, tied, 8),
            (9, plain, 99),
            (0, &foreign, 1),
        ]);
        lost[9 * 1024 + kv::SLOT_VER_OFF..][..8]
            .copy_from_slice(&kv::INVALID_SLOT_VERSION.to_le_bytes());
        let set: Vec<(NewBlock, Vec<u8>)> = vec![
            (
                (1, a, 16),
                block_of(&[(5, tied, 9), (0, plain, 3), (2, &foreign, 4)]),
            ),
            ((2, b, 16), lost),
            (
                (0, c, 16),
                block_of(&[(1, tied, 9), (4, plain, 2), (6, &long, 5)]),
            ),
        ];
        let want = walk(col, &set);
        assert_eq!(want[tied], pack_col(0, c + 1024));
        assert_eq!(want[plain], pack_col(2, b + 7 * 1024));
        assert_eq!(want[&long], pack_col(0, c + 6 * 1024));
        for order in [[0, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let scan = || Scan {
                n: 5,
                col,
                ..Scan::default()
            };
            let (mut bytes, mut answers) = (scan(), scan());
            for i in order {
                let (block, content) = (set[i].0, &set[i].1);
                let rank = (0, 0, i as BlockId);
                bytes.block(rank, block, content);
                answers.add(rank, block, scan_new(col, block, content));
            }
            for scan in [&bytes, &answers] {
                let got: BTreeMap<Vec<u8>, u64> =
                    scan.best.iter().map(|(k, b)| (k.clone(), b.3)).collect();
                assert_eq!(got, want, "arrival order {order:?}");
                assert_eq!((scan.kv_count, scan.kv_routed), (10, 7));
                // The foreign KV is known to be someone else's, bytes
                // unkept; the invalidated one, an empty slot and a block
                // never scanned are no one's.
                assert_eq!(scan.key_of(pack_col(1, a + 5 * 1024)), Some(Some(tied)));
                assert_eq!(scan.key_of(pack_col(1, a + 2 * 1024)), Some(None));
                assert_eq!(scan.key_of(pack_col(2, b)), Some(None));
                assert_eq!(scan.key_of(pack_col(2, b + 9 * 1024)), None);
                assert_eq!(scan.key_of(pack_col(2, b + 1024)), None);
                assert_eq!(scan.key_of(pack_col(1, b)), None);
            }
            assert_eq!(answers.best, bytes.best);
            assert_eq!(answers.key_at, bytes.key_at);
            assert_eq!(answers.foreign, bytes.foreign);
        }
    }
}
