//! Failure handling: tiered MN recovery, CN crash recovery, mixed crashes
//! (paper §3.4).
//!
//! MN recovery restores areas in criticality order — Meta, then Index, then
//! Block — publishing the replacement to clients as soon as the Index tier
//! completes, which is when write requests regain full performance and
//! reads continue degraded (§3.4.1). Stage timing combines *modeled*
//! network transfer (the simulated NIC's bandwidth over the bytes actually
//! moved) with *measured* compute (XOR decode, KV scanning), and the report
//! mirrors the columns of the paper's Table 2.

use crate::config::{pack_col, unpack_col};
use crate::kv;
use crate::proto::{ServerReq, ServerResp};
use crate::server::MnServer;
use crate::store::AcesoStore;
use crate::{Result, StoreError};
use aceso_blockalloc::{Allocator, BlockId, BlockRecord, CellKind, Role};
use aceso_erasure::xor_into;
use aceso_index::slot::slot_version;
use aceso_index::{fingerprint, route_hash, SlotAtomic, SlotMeta};
use aceso_rdma::{DmClient, GlobalAddr};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Stage-by-stage MN recovery breakdown (paper Table 2).
///
/// Each stage's headline `*_ms` column mixes *measured* compute with
/// *modeled* network time and is therefore machine-dependent. The
/// `*_bytes`/`*_ops` counters and the `*_net_ms` columns depend only on
/// the bytes actually moved and the configured [`aceso_rdma::CostModel`],
/// so they are bit-reproducible run to run — `bench quick --json` reports
/// those.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// Reading the Meta Area replica (ms).
    pub read_meta_ms: f64,
    /// Meta Area replica bytes transferred (deterministic).
    pub meta_bytes: u64,
    /// Modeled network share of [`read_meta_ms`](Self::read_meta_ms).
    pub meta_net_ms: f64,
    /// Reading the latest index checkpoint (ms).
    pub read_ckpt_ms: f64,
    /// Checkpoint bytes transferred (deterministic).
    pub ckpt_bytes: u64,
    /// Modeled network share of [`read_ckpt_ms`](Self::read_ckpt_ms).
    pub ckpt_net_ms: f64,
    /// Reconstructing *new* local blocks via erasure decoding (ms).
    pub recover_lblock_ms: f64,
    /// Number of new local blocks reconstructed.
    pub lblock_count: usize,
    /// Network bytes read while decoding new local blocks (deterministic).
    pub lblock_net_bytes: u64,
    /// Network read ops issued while decoding new local blocks.
    pub lblock_net_ops: u64,
    /// Modeled network share of [`recover_lblock_ms`](Self::recover_lblock_ms).
    pub lblock_net_ms: f64,
    /// Reading new remote blocks from alive MNs (ms).
    pub read_rblock_ms: f64,
    /// Number of new remote blocks read.
    pub rblock_count: usize,
    /// Bytes of new remote blocks read (deterministic).
    pub rblock_net_bytes: u64,
    /// Modeled network share of [`read_rblock_ms`](Self::read_rblock_ms).
    pub rblock_net_ms: f64,
    /// Scanning KV pairs of new blocks and reapplying slots (ms).
    pub scan_kv_ms: f64,
    /// KV pairs scanned.
    pub kv_count: usize,
    /// Bytes of block content scanned for KVs (deterministic).
    pub scan_bytes: u64,
    /// Reconstructing *old* local blocks (Block tier, ms).
    pub recover_old_lblock_ms: f64,
    /// Block-tier compute component (decode XOR; machine-dependent).
    pub old_lblock_cpu_ms: f64,
    /// Block-tier modeled network component (scales with recovery fan-in).
    pub old_lblock_net_ms: f64,
    /// Number of old local blocks reconstructed.
    pub old_lblock_count: usize,
    /// Background parity + delta reconstruction (ms, not part of Total).
    pub parity_ms: f64,
    /// Network bytes read by the parity rebuild (deterministic).
    pub parity_net_bytes: u64,
    /// Modeled network share of [`parity_ms`](Self::parity_ms).
    pub parity_net_ms: f64,
}

impl RecoveryReport {
    /// Time until the Index Area is usable again (functionality recovery).
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

    /// Modeled network time through the Index tier — the deterministic,
    /// machine-independent analogue of [`index_tier_ms`](Self::index_tier_ms).
    pub fn index_tier_net_ms(&self) -> f64 {
        self.meta_net_ms + self.ckpt_net_ms + self.lblock_net_ms + self.rblock_net_ms
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

struct ScannedBlock {
    col: usize,
    block: BlockId,
    bytes: Vec<u8>,
    slot_len64: u8,
}

/// Recovers the failed column `col` onto a fresh memory node, returning the
/// per-stage timing report. The replacement is published to clients as soon
/// as the Index tier completes.
pub fn recover_mn(store: &Arc<AcesoStore>, col: usize) -> Result<RecoveryReport> {
    recover_mn_with(store, col, true)
}

/// Like [`recover_mn`] but optionally stopping after the Index tier
/// (`block_tier = false`), leaving old blocks lost — the state in which the
/// paper measures degraded SEARCH (§4.4). Old blocks can be recovered later
/// by a second call with `block_tier = true`.
pub fn recover_mn_with(
    store: &Arc<AcesoStore>,
    col: usize,
    block_tier: bool,
) -> Result<RecoveryReport> {
    let cost = store.cfg.cost;
    let map = store.map;
    let n = store.cfg.num_mns;
    let bs = map.blocks.block_size;
    let dm = store.cluster.background_client();
    let dir = store.directory();
    let mut report = RecoveryReport::default();

    // Start the replacement node + server (unpublished yet).
    let node = store.cluster.add_node(map.region_len);
    let server = MnServer::new(
        col,
        Arc::clone(&node),
        map,
        store.cfg.reclaim_obsolete_ratio,
        store.cfg.reclaim_free_ratio,
    );

    let alive = |c: usize| store.cluster.node(dir.node_of(c)).is_ok();

    // ---- Tier 1: Meta Area --------------------------------------------
    // The Meta Area is replicated on the next two columns; use whichever
    // survives (two simultaneous failures leave at least one).
    let t = Instant::now();
    let records = fetch_meta_replica(store, &dm, col)?;
    let mut meta_bytes = 0usize;
    {
        let mut recs = server.records.lock();
        for (id, bytes) in &records {
            meta_bytes += bytes.len();
            node.region
                .write(map.blocks.record_offset(*id), bytes)
                .expect("meta restore");
            recs[*id as usize] = BlockRecord::decode(bytes, bs);
            // Block contents are not restored yet.
            if matches!(recs[*id as usize].role, Role::Data | Role::Parity) {
                recs[*id as usize].valid = false;
            }
        }
        let role_of = |id: BlockId| recs[id as usize].role as u8;
        *server.alloc.lock() = Allocator::rebuild(map.blocks, role_of);
    }
    report.meta_bytes = meta_bytes as u64;
    report.meta_net_ms = cost.transfer_secs(meta_bytes as u64) * 1e3;
    report.read_meta_ms = t.elapsed().as_secs_f64() * 1e3 + report.meta_net_ms;

    // ---- Tier 2: Index Area ---------------------------------------------
    // The checkpoint lives on the right neighbour only (paper Figure 3).
    // If that neighbour crashed too, fall back to an empty checkpoint with
    // Index Version 0 — every block then counts as "new" and the index is
    // rebuilt from a full scan (slower, still correct).
    let t = Instant::now();
    let ncol = (col + 1) % n;
    let ckpt_resp = if alive(ncol) {
        dm.rpc(
            dir.node_of(ncol),
            &dir.rpc_of(ncol),
            ServerReq::GetCheckpoint { of_column: col },
            32,
        )
        .ok()
    } else {
        None
    };
    let (ckpt, ckpt_iv) = match ckpt_resp {
        Some(ServerResp::Checkpoint {
            data,
            index_version,
        }) => (data, index_version),
        _ => (vec![0u8; (map.index.num_groups * 384) as usize], 0),
    };
    server.index.restore(&node.region, &ckpt);
    server
        .index
        .local_set_index_version(&node.region, ckpt_iv + 1);
    server.sender.lock().rebase(ckpt.clone());
    report.ckpt_bytes = ckpt.len() as u64;
    report.ckpt_net_ms = cost.transfer_secs(ckpt.len() as u64) * 1e3;
    report.read_ckpt_ms = t.elapsed().as_secs_f64() * 1e3 + report.ckpt_net_ms;

    // Classify data blocks everywhere: "new" = Index Version 0 or ≥ ckpt.
    let is_new = |iv: u64| iv == 0 || iv >= ckpt_iv;
    let mut remote_new: Vec<(usize, BlockId, BlockRecord)> = Vec::new();
    let mut dead_new: Vec<(usize, BlockId, BlockRecord)> = Vec::new();
    let mut local_new: Vec<(BlockId, BlockRecord)> = Vec::new();
    let mut local_old: Vec<(BlockId, BlockRecord)> = Vec::new();
    let mut arrays_in_use: BTreeSet<u64> = BTreeSet::new();
    for c in 0..n {
        if c == col {
            continue;
        }
        if alive(c) {
            let resp = dm.rpc(
                dir.node_of(c),
                &dir.rpc_of(c),
                ServerReq::ListDataBlocks,
                16,
            )?;
            let ServerResp::Records { list } = resp else {
                continue;
            };
            for (id, bytes) in list {
                let rec = BlockRecord::decode(&bytes, bs);
                arrays_in_use.insert(rec.stripe_array);
                if is_new(rec.index_version) {
                    remote_new.push((c, id, rec));
                }
            }
        } else {
            // A second failed column: its records come from its replica and
            // its new blocks must be reconstructed to be scanned.
            for (id, bytes) in fetch_meta_replica(store, &dm, c)? {
                let rec = BlockRecord::decode(&bytes, bs);
                if rec.role != Role::Data {
                    continue;
                }
                arrays_in_use.insert(rec.stripe_array);
                if is_new(rec.index_version) {
                    dead_new.push((c, id, rec));
                }
            }
        }
    }
    {
        let recs = server.records.lock();
        for (id, rec) in recs.iter().enumerate() {
            if rec.role == Role::Data {
                arrays_in_use.insert(rec.stripe_array);
                if is_new(rec.index_version) {
                    local_new.push((id as BlockId, rec.clone()));
                } else {
                    local_old.push((id as BlockId, rec.clone()));
                }
            }
        }
    }

    // Reconstruct new local blocks (stripe-at-a-time X-Code decode). Cells
    // of *other* dead columns recovered along the way are kept for the KV
    // scan below.
    let t = Instant::now();
    let mut new_arrays: BTreeSet<u64> = local_new.iter().map(|(_, r)| r.stripe_array).collect();
    new_arrays.extend(dead_new.iter().map(|(_, _, r)| r.stripe_array));
    let (net_bytes, net_ops, mut others) =
        reconstruct_arrays_parallel(store, &server, col, &new_arrays)?;
    report.lblock_count = local_new.len();
    report.lblock_net_bytes = net_bytes;
    report.lblock_net_ops = net_ops;
    report.lblock_net_ms = modeled_transfer_ms(store, net_bytes, net_ops);
    report.recover_lblock_ms = t.elapsed().as_secs_f64() * 1e3 + report.lblock_net_ms;

    // Read new remote blocks.
    let t = Instant::now();
    let mut scanned: Vec<ScannedBlock> = Vec::new();
    let mut rbytes = 0u64;
    for (c, id, rec) in &remote_new {
        let bytes = dm.read_vec(
            GlobalAddr::new(dir.node_of(*c), map.blocks.block_offset(*id)),
            bs as usize,
        )?;
        rbytes += bs;
        scanned.push(ScannedBlock {
            col: *c,
            block: *id,
            bytes,
            slot_len64: rec.slot_len64,
        });
    }
    report.rblock_count = remote_new.len();
    report.rblock_net_bytes = rbytes;
    report.rblock_net_ms =
        (rbytes as f64 / cost.node_bw + remote_new.len() as f64 * cost.rtt_us * 1e-6) * 1e3;
    report.read_rblock_ms = t.elapsed().as_secs_f64() * 1e3 + report.rblock_net_ms;

    // Include the reconstructed local new blocks in the scan set.
    for (id, rec) in &local_new {
        let bytes = node
            .region
            .read_vec(map.blocks.block_offset(*id), bs as usize)
            .expect("reconstructed block");
        scanned.push(ScannedBlock {
            col,
            block: *id,
            bytes,
            slot_len64: rec.slot_len64,
        });
    }
    // And the other dead columns' new blocks recovered during decoding.
    for (c, id, rec) in &dead_new {
        let CellKind::Data { array, row } = map.blocks.kind_of(*id) else {
            continue;
        };
        if let Some(bytes) = others.remove(&(array, row, *c)) {
            scanned.push(ScannedBlock {
                col: *c,
                block: *id,
                bytes,
                slot_len64: rec.slot_len64,
            });
        }
    }

    // Scan KV pairs and reapply the freshest ones to the restored index.
    let t = Instant::now();
    let (kv_count, deferred) = scan_and_reapply(store, &server, col, &scanned)?;
    report.kv_count = kv_count;
    report.scan_bytes = scanned.iter().map(|sb| sb.bytes.len() as u64).sum();
    report.scan_kv_ms = t.elapsed().as_secs_f64() * 1e3;

    // ---- Publish: functionality is back (degraded reads). --------------
    dir.publish(&server, store.cluster.background_client());
    store.set_server(col, Arc::clone(&server));
    // Our left neighbour replicates into us: ask it to resend everything.
    let lcol = (col + n - 1) % n;
    let _ = dm.rpc(
        dir.node_of(lcol),
        &dir.rpc_of(lcol),
        ServerReq::ResetReplication,
        16,
    );

    // The replacement now serves reads, but parity cells and delta copies
    // hosted on this column are still zeroed until the rebuild below runs.
    // Flag the window so CN recovery knows not to trust delta bytes here.
    store.degraded.lock().push(col);

    // ---- Tier 3: old local blocks. --------------------------------------
    if !block_tier {
        record_recovery_obs(&store.obs(), &report);
        return Ok(report);
    }
    let t = Instant::now();
    let old_arrays: BTreeSet<u64> = local_old
        .iter()
        .map(|(_, r)| r.stripe_array)
        .filter(|a| !new_arrays.contains(a))
        .collect();
    let (net_bytes, net_ops, _) = reconstruct_arrays_parallel(store, &server, col, &old_arrays)?;
    report.old_lblock_count = local_old.len();
    report.old_lblock_cpu_ms = t.elapsed().as_secs_f64() * 1e3;
    report.old_lblock_net_ms = modeled_transfer_ms(store, net_bytes, net_ops);
    report.recover_old_lblock_ms = report.old_lblock_cpu_ms + report.old_lblock_net_ms;

    // Resolve the fp-matches the index scan could not verify while old
    // block contents were missing. A checkpoint entry pointing into an
    // old block is unreadable during the Index tier, so a fresher scanned
    // KV for the same key was reapplied into a second slot; now that old
    // blocks are restored, confirm and clear the stale duplicate —
    // otherwise a search can probe it first and resurface the pre-crash
    // value of a key that was updated in the degraded window.
    for d in &deferred {
        let atomic = SlotAtomic::decode(node.region.load64(d.stale_off).expect("slot"));
        if atomic.is_empty() {
            continue;
        }
        let meta = SlotMeta::decode(node.region.load64(d.stale_off + 8).expect("slot"));
        if read_key_at(store, atomic.addr48, meta.len64).as_deref() == Some(d.key.as_slice())
            && slot_version(meta.epoch & !1, atomic.ver) < d.new_sv
        {
            node.region.store64(d.stale_off, 0).expect("slot clear");
            node.region.store64(d.stale_off + 8, 0).expect("slot clear");
        }
    }

    // ---- Background: parity cells + delta blocks of failed columns. -----
    // With multiple concurrent failures, parity needs peers' recovered
    // data, so the rebuild is deferred until the last column comes back.
    let t = Instant::now();
    store.pending_parity.lock().push(col);
    let all_alive = (0..n).all(alive);
    if all_alive {
        let cols: Vec<usize> = store.pending_parity.lock().drain(..).collect();
        let mut net_bytes = 0u64;
        for &pc in &cols {
            let srv = store.server(pc);
            for &array in &arrays_in_use {
                net_bytes += rebuild_parity_and_deltas(store, &srv, &dm, pc, array)?;
            }
        }
        report.parity_net_bytes = net_bytes;
        report.parity_net_ms = (net_bytes as f64 / cost.node_bw) * 1e3;
        report.parity_ms = t.elapsed().as_secs_f64() * 1e3 + report.parity_net_ms;
        // Exactly the columns whose parity and delta copies were rebuilt
        // above are whole again. Clearing the *whole* list here would also
        // drop columns degraded by someone else — an index-tier-only
        // recovery still waiting for its block tier, or an in-flight
        // elastic migration — and make recovery trust their delta bytes
        // too early.
        store.degraded.lock().retain(|c| !cols.contains(c));
    }

    record_recovery_obs(&store.obs(), &report);
    Ok(report)
}

/// Records a finished recovery's phase timings and counters into the
/// store's observability handle (no-op when no recorder is installed).
/// Span names follow the tier order: `recovery.meta.us`,
/// `recovery.index.us`, `recovery.block.us`, `recovery.parity.us`.
fn record_recovery_obs(obs: &aceso_obs::Obs, r: &RecoveryReport) {
    if !obs.is_enabled() {
        return;
    }
    obs.add("recovery.runs", 1);
    obs.add("recovery.kv_scanned", r.kv_count as u64);
    obs.add("recovery.lblocks", r.lblock_count as u64);
    obs.add("recovery.rblocks", r.rblock_count as u64);
    obs.add(
        "recovery.net_bytes",
        r.meta_bytes + r.ckpt_bytes + r.lblock_net_bytes + r.rblock_net_bytes + r.parity_net_bytes,
    );
    obs.observe("recovery.meta.us", r.read_meta_ms * 1e3);
    obs.observe(
        "recovery.index.us",
        (r.read_ckpt_ms + r.recover_lblock_ms + r.read_rblock_ms + r.scan_kv_ms) * 1e3,
    );
    obs.observe("recovery.block.us", r.recover_old_lblock_ms * 1e3);
    if r.parity_ms > 0.0 {
        obs.observe("recovery.parity.us", r.parity_ms * 1e3);
    }
}

/// Modeled network time for a recovery stage: bytes at line rate plus one
/// round trip per read, divided by the effective read fan-in when several
/// recovery workers pull stripes concurrently (RAMCloud-style distributed
/// recovery, the paper's §4.5 future work). The fan-in caps at the `n−1`
/// surviving source NICs.
fn modeled_transfer_ms(store: &Arc<AcesoStore>, net_bytes: u64, net_ops: u64) -> f64 {
    let cost = store.cfg.cost;
    let fan_in = store.cfg.recovery_workers.clamp(1, store.cfg.num_mns - 1) as f64;
    (net_bytes as f64 / cost.node_bw + net_ops as f64 * cost.rtt_us * 1e-6) / fan_in * 1e3
}

/// Shards stripe arrays across `recovery_workers` threads, each with its
/// own fabric endpoint, reconstructing the failed column's cells of every
/// array. Returns summed network demand and the recovered other-column
/// cell contents.
#[allow(clippy::type_complexity)]
fn reconstruct_arrays_parallel(
    store: &Arc<AcesoStore>,
    server: &Arc<MnServer>,
    col: usize,
    arrays: &BTreeSet<u64>,
) -> Result<(u64, u64, HashMap<(u64, usize, usize), Vec<u8>>)> {
    let workers = store.cfg.recovery_workers.max(1).min(arrays.len().max(1));
    let list: Vec<u64> = arrays.iter().copied().collect();
    let mut net_bytes = 0u64;
    let mut net_ops = 0u64;
    let mut others: HashMap<(u64, usize, usize), Vec<u8>> = HashMap::new();
    let results: Vec<Result<Vec<(u64, u64, u64, HashMap<(usize, usize), Vec<u8>>)>>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let shard: Vec<u64> = list.iter().copied().skip(w).step_by(workers).collect();
                    let store = Arc::clone(store);
                    let server = Arc::clone(server);
                    scope.spawn(move || {
                        let dm = store.cluster.background_client();
                        let mut out = Vec::with_capacity(shard.len());
                        for array in shard {
                            let (nb, no, o) =
                                reconstruct_failed_column(&store, &server, &dm, col, array, true)?;
                            out.push((array, nb, no, o));
                        }
                        Ok(out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect()
        });
    for r in results {
        for (array, nb, no, o) in r? {
            net_bytes += nb;
            net_ops += no;
            for ((row, c), bytes) in o {
                others.insert((array, row, c), bytes);
            }
        }
    }
    Ok((net_bytes, net_ops, others))
}

/// Fetches the failed column's Meta Area replica from whichever of its two
/// replica holders survives.
fn fetch_meta_replica(
    store: &Arc<AcesoStore>,
    dm: &DmClient,
    col: usize,
) -> Result<Vec<(BlockId, Vec<u8>)>> {
    let n = store.cfg.num_mns;
    let dir = store.directory();
    for ncol in [(col + 1) % n, (col + 2) % n] {
        if store.cluster.node(dir.node_of(ncol)).is_err() {
            continue;
        }
        match dm.rpc(
            dir.node_of(ncol),
            &dir.rpc_of(ncol),
            ServerReq::GetMetaReplica { of_column: col },
            32,
        ) {
            Ok(ServerResp::MetaReplica { records }) if !records.is_empty() => return Ok(records),
            Ok(ServerResp::MetaReplica { records }) => return Ok(records),
            _ => continue,
        }
    }
    Err(StoreError::NotFound)
}

/// Reconstructs every cell of `col` in stripe `array` onto the new node's
/// region via full-stripe X-Code decode (handles one or two failed
/// columns). Returns `(network bytes read, read ops, other-column
/// contents)`: the last element holds the *current* contents of data cells
/// recovered for other dead columns, keyed `(row, col)`, so the caller can
/// scan their KVs without a second decode.
#[allow(clippy::type_complexity)]
fn reconstruct_failed_column(
    store: &Arc<AcesoStore>,
    server: &Arc<MnServer>,
    dm: &DmClient,
    col: usize,
    array: u64,
    data_only: bool,
) -> Result<(u64, u64, HashMap<(usize, usize), Vec<u8>>)> {
    let map = store.map;
    let n = store.cfg.num_mns;
    let bs = map.blocks.block_size as usize;
    let dir = store.directory();
    let xcode = aceso_erasure::XCode::new(n).expect("prime n");

    // Gather parity records per column (xor_map + delta addrs).
    let mut parity_recs: HashMap<(usize, usize), BlockRecord> = HashMap::new();
    for c in 0..n {
        for prow in [n - 2, n - 1] {
            let pid = map.blocks.cell_block_id(array, prow);
            let rec = if c == col {
                server.records.lock()[pid as usize].clone()
            } else {
                match dm.rpc(
                    dir.node_of(c),
                    &dir.rpc_of(c),
                    ServerReq::GetRecord { block: pid },
                    16,
                ) {
                    Ok(ServerResp::Record { bytes }) => BlockRecord::decode(&bytes, bs as u64),
                    _ => BlockRecord::free(),
                }
            };
            parity_recs.insert((c, prow), rec);
        }
    }

    // Delta content per data cell (row, col), from any trustworthy copy.
    // A copy hosted on the column being recovered is lost by definition,
    // and one hosted on a column still in its degraded window reads back
    // as zeros (re-materialized only by the parity rebuild) — a read of
    // either would "succeed" with garbage once a replacement is serving.
    let degraded: Vec<usize> = store.degraded.lock().clone();
    let delta_of = |row: usize, c: usize| -> Option<Vec<u8>> {
        let (diag, anti) = xcode.parity_cells_for(row, c);
        for (prow, pcol) in [diag, anti] {
            let Some(prec) = parity_recs.get(&(pcol, prow)) else {
                continue;
            };
            let packed = prec.delta_addr[row];
            if packed == 0 {
                continue;
            }
            let (dcol, doff) = unpack_col(packed);
            if dcol == col || degraded.contains(&dcol) {
                continue;
            }
            if let Ok(bytes) = dm.read_vec(GlobalAddr::new(dir.node_of(dcol), doff), bs) {
                return Some(bytes);
            }
        }
        None
    };

    // Build the encoded-view stripe.
    let mut net_bytes = 0u64;
    let mut net_ops = 0u64;
    let mut stripe: Vec<Vec<Option<Vec<u8>>>> = vec![vec![None; n]; n];
    let mut deltas: HashMap<(usize, usize), Vec<u8>> = HashMap::new();
    for (r, stripe_row) in stripe.iter_mut().enumerate() {
        for (c, stripe_cell) in stripe_row.iter_mut().enumerate() {
            if c == col {
                continue; // The failed column: to be reconstructed.
            }
            let id = map.blocks.cell_block_id(array, r);
            let off = map.blocks.block_offset(id);
            let Ok(mut bytes) = dm.read_vec(GlobalAddr::new(dir.node_of(c), off), bs) else {
                continue; // Second failed column: leave as erased.
            };
            net_bytes += bs as u64;
            net_ops += 1;
            if r < n - 2 {
                // Encoded view of a data cell: C ⊕ pending delta. Unencoded
                // cells (xor_map bit clear) contribute zero to parity.
                let (diag, _) = xcode.parity_cells_for(r, c);
                let enc = parity_recs
                    .get(&(diag.1, diag.0))
                    .map(|p| p.xor_map & (1 << r) != 0)
                    .unwrap_or(false);
                if let Some(d) = delta_of(r, c) {
                    net_bytes += bs as u64;
                    net_ops += 1;
                    if enc {
                        xor_into(&mut bytes, &d);
                    } else {
                        bytes = vec![0u8; bs];
                    }
                    deltas.insert((r, c), d);
                } else if !enc {
                    bytes = vec![0u8; bs];
                }
            }
            *stripe_cell = Some(bytes);
        }
    }
    // Remember which cells were erased before decoding.
    let erased: Vec<(usize, usize)> = (0..n)
        .flat_map(|r| (0..n).map(move |c| (r, c)))
        .filter(|&(r, c)| stripe[r][c].is_none())
        .collect();
    xcode
        .reconstruct(&mut stripe)
        .map_err(|_| StoreError::NotFound)?;

    // Write the failed column's cells back: data cells get C = E ⊕ delta.
    let rows: Vec<usize> = if data_only {
        (0..n - 2).collect()
    } else {
        (0..n).collect()
    };
    for r in rows {
        let id = map.blocks.cell_block_id(array, r);
        {
            let recs = server.records.lock();
            let rec = &recs[id as usize];
            if rec.role == Role::Free {
                continue; // Never allocated: nothing to restore.
            }
        }
        let mut content = stripe[r][col].clone().expect("reconstructed");
        if r < n - 2 {
            if let Some(d) = delta_of(r, col) {
                net_bytes += bs as u64;
                net_ops += 1;
                xor_into(&mut content, &d);
            }
        }
        server
            .node
            .region
            .write(map.blocks.block_offset(id), &content)
            .expect("restore block");
        server.records.lock()[id as usize].valid = true;
    }

    // Current contents of data cells recovered for *other* dead columns.
    let mut others = HashMap::new();
    for (r, c) in erased {
        if c == col || r >= n - 2 {
            continue;
        }
        let mut content = stripe[r][c].clone().expect("reconstructed");
        if let Some(d) = delta_of(r, c) {
            xor_into(&mut content, &d);
        }
        others.insert((r, c), content);
    }
    Ok((net_bytes, net_ops, others))
}

/// Recomputes the failed column's PARITY cells and re-materializes its
/// DELTA blocks from the surviving copies. Returns network bytes read.
fn rebuild_parity_and_deltas(
    store: &Arc<AcesoStore>,
    server: &Arc<MnServer>,
    dm: &DmClient,
    col: usize,
    array: u64,
) -> Result<u64> {
    let map = store.map;
    let n = store.cfg.num_mns;
    let bs = map.blocks.block_size as usize;
    let dir = store.directory();
    let xcode = aceso_erasure::XCode::new(n).expect("prime n");
    let mut net = 0u64;

    for prow in [n - 2, n - 1] {
        let pid = map.blocks.cell_block_id(array, prow);
        let (xor_map, delta_addrs, allocated) = {
            let recs = server.records.lock();
            let rec = &recs[pid as usize];
            (rec.xor_map, rec.delta_addr, rec.role == Role::Parity)
        };
        if !allocated {
            continue;
        }
        let eq = xcode
            .equations()
            .into_iter()
            .find(|e| e.parity_row == prow && e.parity_col == col)
            .expect("own parity equation");
        let mut parity = vec![0u8; bs];
        for &(r, c) in &eq.data {
            // An unencoded cell (xor_map bit clear) contributes zero to the
            // parity equation, but its pending delta copy must still be
            // re-materialized below: for open cells the two delta replicas
            // ARE the redundancy, and leaving the lost copy stale would
            // silently drop to one replica until the block encodes.
            let encoded = xor_map & (1 << r) != 0;
            if encoded {
                // Encoded content of the covered cell: C ⊕ pending delta.
                let did = map.blocks.cell_block_id(array, r);
                let cbuf = dm.read_vec(
                    GlobalAddr::new(dir.node_of(c), map.blocks.block_offset(did)),
                    bs,
                )?;
                net += bs as u64;
                xor_into(&mut parity, &cbuf);
            }
            if delta_addrs[r] != 0 {
                // This cell has a pending delta whose copy on our column was
                // lost; fetch the surviving copy on the cell's other parity
                // column and re-materialize ours.
                let (odiag, oanti) = xcode.parity_cells_for(r, c);
                let other = if (odiag.1, odiag.0) == (col, prow) {
                    oanti
                } else {
                    odiag
                };
                let other_rec = match dm.rpc(
                    dir.node_of(other.1),
                    &dir.rpc_of(other.1),
                    ServerReq::GetRecord {
                        block: map.blocks.cell_block_id(array, other.0),
                    },
                    16,
                ) {
                    Ok(ServerResp::Record { bytes }) => BlockRecord::decode(&bytes, bs as u64),
                    _ => BlockRecord::free(),
                };
                if other_rec.delta_addr[r] != 0 {
                    let (dc, doff) = unpack_col(other_rec.delta_addr[r]);
                    let dbuf = dm.read_vec(GlobalAddr::new(dir.node_of(dc), doff), bs)?;
                    net += bs as u64;
                    if encoded {
                        xor_into(&mut parity, &dbuf);
                    }
                    // Re-materialize our local delta copy.
                    let (dcol_old, doff_old) = unpack_col(delta_addrs[r]);
                    debug_assert_eq!(dcol_old, col);
                    server
                        .node
                        .region
                        .write(doff_old, &dbuf)
                        .expect("delta restore");
                    let did_local = map.blocks.locate(doff_old).expect("delta offset").0;
                    server.records.lock()[did_local as usize].valid = true;
                }
            }
        }
        server
            .node
            .region
            .write(map.blocks.block_offset(pid), &parity)
            .expect("parity restore");
        server.records.lock()[pid as usize].valid = true;
    }
    Ok(net)
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

/// Scans new blocks and reapplies the freshest KV per slot to the restored
/// index of `col` (§3.2.2–§3.2.3). Returns the number of KVs scanned plus
/// the fp-matches that must be re-checked after the Block tier.
fn scan_and_reapply(
    store: &Arc<AcesoStore>,
    server: &Arc<MnServer>,
    col: usize,
    scanned: &[ScannedBlock],
) -> Result<(usize, Vec<UnverifiedDup>)> {
    let map = store.map;
    let n = store.cfg.num_mns as u64;
    let bs = map.blocks.block_size;
    let mut kv_count = 0usize;

    // Best recent KV per key, plus an addr→key side map for slot checks.
    struct Best {
        sv: u64,
        packed: u64,
        class: u8,
    }
    let mut best: BTreeMap<Vec<u8>, Best> = BTreeMap::new();
    let mut key_at: HashMap<u64, Vec<u8>> = HashMap::new();
    for sb in scanned {
        if sb.slot_len64 == 0 {
            continue;
        }
        let slot_bytes = sb.slot_len64 as usize * 64;
        let slots = (bs as usize) / slot_bytes;
        for s in 0..slots {
            let buf = &sb.bytes[s * slot_bytes..(s + 1) * slot_bytes];
            let Some(d) = kv::decode(buf) else { continue };
            kv_count += 1;
            if d.is_invalidated() {
                continue;
            }
            let off = map.blocks.block_offset(sb.block) + (s * slot_bytes) as u64;
            let packed = pack_col(sb.col, off);
            key_at.insert(packed, d.key.to_vec());
            if route_hash(d.key) % n != col as u64 {
                continue;
            }
            let e = best.entry(d.key.to_vec()).or_insert(Best {
                sv: 0,
                packed,
                class: sb.slot_len64,
            });
            if d.slot_version >= e.sv {
                e.sv = d.slot_version;
                e.packed = packed;
                e.class = sb.slot_len64;
            }
        }
    }

    // Reapply into the restored index (all local region writes).
    let region = &server.node.region;
    let layout = map.index;
    let mut dups: Vec<UnverifiedDup> = Vec::new();
    for (key, b) in best {
        let fp = fingerprint(&key);
        let mut applied = false;
        let mut first_empty: Option<u64> = None;
        let mut unverified: Vec<u64> = Vec::new();
        'groups: for (g, c) in layout.buckets_for(&key) {
            for s in 0..aceso_index::layout::COMBINED_SLOTS {
                let off = layout.slot_offset(g, c, s);
                let atomic = SlotAtomic::decode(region.load64(off).expect("slot"));
                let meta = SlotMeta::decode(region.load64(off + 8).expect("slot"));
                if atomic.is_empty() {
                    first_empty.get_or_insert(off);
                    continue;
                }
                if atomic.fp != fp {
                    continue;
                }
                // Verify the slot is really this key's: prefer the scanned
                // side map, fall back to reading the pointed KV.
                let slot_key = key_at
                    .get(&atomic.addr48)
                    .cloned()
                    .or_else(|| read_key_at(store, atomic.addr48, meta.len64));
                let Some(slot_key) = slot_key else {
                    // Unreadable target (an old block not restored until
                    // the Block tier): re-check once contents are back.
                    // Every such match, not just the first — another key
                    // with this fingerprint may sit in front of ours.
                    unverified.push(off);
                    continue;
                };
                if slot_key != key {
                    continue;
                }
                let current_sv = slot_version(meta.epoch & !1, atomic.ver);
                if b.sv > current_sv {
                    write_slot(region, off, fp, b.packed, b.sv, b.class);
                }
                applied = true;
                break 'groups;
            }
        }
        if !applied {
            if let Some(off) = first_empty {
                write_slot(region, off, fp, b.packed, b.sv, b.class);
                dups.extend(unverified.into_iter().map(|stale_off| UnverifiedDup {
                    key: key.clone(),
                    stale_off,
                    new_sv: b.sv,
                }));
            }
        }
    }
    Ok((kv_count, dups))
}

fn write_slot(region: &aceso_rdma::Region, off: u64, fp: u8, packed: u64, sv: u64, class: u8) {
    let atomic = SlotAtomic {
        fp,
        addr48: packed,
        ver: (sv & 0xFF) as u8,
    };
    let meta = SlotMeta {
        len64: class,
        epoch: (sv >> 8) << 1,
    };
    region.store64(off, atomic.encode()).expect("slot write");
    region.store64(off + 8, meta.encode()).expect("slot write");
}

/// The key of the KV a restored slot points at. The slot's `len64` is as
/// advisory here as on the client paths — a checkpoint can capture a slot
/// between its commit CAS and its Meta write, and a writer that dies there
/// never writes it — so a truncated read is retried at the size the KV's
/// own header names. (Today such a KV sits in a block the scan covers, so
/// the callers' `key_at` map answers first; this read must not depend on
/// that.)
fn read_key_at(store: &Arc<AcesoStore>, packed: u64, len64: u8) -> Option<Vec<u8>> {
    let (c, off) = unpack_col(packed);
    let dm = store.ctl_dm();
    let addr = GlobalAddr::new(store.directory().node_of(c), off);
    let mut buf = dm.read_vec(addr, kv::read_hint(len64)).ok()?;
    if let kv::KvRead::Truncated(len) = kv::classify(&buf) {
        buf = dm.read_vec(addr, len).ok()?;
    }
    kv::decode(&buf).map(|d| d.key.to_vec())
}

/// Recovers a crashed client's unfilled blocks to a consistent state and
/// releases them (§3.4.2). Call on a fresh client created with
/// [`AcesoStore::client_with_id`] using the crashed client's id.
pub fn recover_cn(
    store: &Arc<AcesoStore>,
    client: &mut crate::AcesoClient,
) -> Result<CnRecoveryReport> {
    let map = store.map;
    let n = store.cfg.num_mns;
    let bs = map.blocks.block_size as usize;
    let dir = store.directory();
    let dm = store.cluster.background_client();
    let xcode = aceso_erasure::XCode::new(n).expect("prime n");
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
            let _ = dm.write(GlobalAddr::new(m, off), bytes);
        }
        Ok(())
    };

    for col in 0..n {
        let Ok(resp) = dm.rpc(
            dir.node_of(col),
            &dir.rpc_of(col),
            ServerReq::QueryClientBlocks {
                cli_id: client.id(),
            },
            16,
        ) else {
            continue; // Dead column: its blocks are handled by MN recovery.
        };
        let ServerResp::Records { list } = resp else {
            continue;
        };
        for (id, bytes) in list {
            let rec = BlockRecord::decode(&bytes, bs as u64);
            if rec.role != Role::Data || rec.slot_len64 == 0 {
                continue;
            }
            let CellKind::Data { array, row } = map.blocks.kind_of(id) else {
                continue;
            };
            report.blocks_checked += 1;
            let slot_bytes = rec.slot_len64 as usize * 64;
            let slots = bs / slot_bytes;
            let block_off = map.blocks.block_offset(id);
            let block = dm.read_vec(GlobalAddr::new(dir.node_of(col), block_off), bs)?;
            // Old contents: the server's backup for reused blocks, zeros
            // for fresh ones.
            let old = match dm.rpc(
                dir.node_of(col),
                &dir.rpc_of(col),
                ServerReq::GetOldCopy { block: id },
                16,
            )? {
                ServerResp::OldCopy { bytes: Some(b) } => b,
                _ => vec![0u8; bs],
            };
            // Fetch both delta blocks. Copies hosted on a column still in
            // its degraded window read back as zeros (the replacement
            // re-materializes them only in the parity rebuild); trusting
            // those bytes would classify every committed slot as torn and
            // the "repair" would zero the surviving copy too. Judge
            // consistency from trustworthy copies only. Exception: a
            // column degraded because it is mid-migration is byte-fresh
            // (the dual-write mirror keeps the source current), and its
            // copy must also take part in the repair — skipping it would
            // zero one copy of a torn delta but not the other.
            let mig_col = pl.migration.as_ref().map(|m| m.col);
            let degraded: Vec<usize> = store.degraded.lock().clone();
            let (diag, anti) = xcode.parity_cells_for(row, col);
            let mut dinfo: Vec<(usize, u64, Vec<u8>)> = Vec::new();
            let mut skipped_degraded = false;
            for (prow, pcol) in [diag, anti] {
                let pid = map.blocks.cell_block_id(array, prow);
                let Ok(ServerResp::Record { bytes }) = dm.rpc(
                    dir.node_of(pcol),
                    &dir.rpc_of(pcol),
                    ServerReq::GetRecord { block: pid },
                    16,
                ) else {
                    continue;
                };
                let prec = BlockRecord::decode(&bytes, bs as u64);
                if prec.delta_addr[row] == 0 {
                    continue;
                }
                let (dc, doff) = unpack_col(prec.delta_addr[row]);
                if degraded.contains(&dc) && Some(dc) != mig_col {
                    skipped_degraded = true;
                    continue;
                }
                if let Ok(dbuf) = dm.read_vec(GlobalAddr::new(dir.node_of(dc), doff), bs) {
                    dinfo.push((dc, doff, dbuf));
                }
            }
            if dinfo.is_empty() && skipped_degraded {
                // No trustworthy copy left to judge against: defer this
                // block to the column's block-tier recovery.
                continue;
            }

            for s in 0..slots {
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
                    let _ = write_repaired(*dc, doff + (s * slot_bytes) as u64, &zeros);
                }
            }
        }
    }
    Ok(report)
}

fn is_zero(buf: &[u8]) -> bool {
    buf.iter().all(|&b| b == 0)
}

/// Mixed crashes (§3.4.3): restore client consistency on the surviving MNs
/// first, then recover the crashed MNs.
pub fn recover_mixed(
    store: &Arc<AcesoStore>,
    failed_cols: &[usize],
    crashed_clients: &mut [&mut crate::AcesoClient],
) -> Result<Vec<RecoveryReport>> {
    for client in crashed_clients.iter_mut() {
        recover_cn(store, client)?;
    }
    let mut reports = Vec::new();
    for &col in failed_cols {
        reports.push(recover_mn(store, col)?);
    }
    Ok(reports)
}
