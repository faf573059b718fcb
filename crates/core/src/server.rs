//! The MN server: coarse-grained management running next to each memory
//! node (paper §3.1).
//!
//! Each MN runs one server handling space allocation, index checkpointing
//! and erasure coding. The paper dedicates four MN CPU cores to RPC
//! serving, erasure coding, checkpoint sending and checkpoint receiving;
//! here the server owns no thread at all: its endpoint
//! ([`aceso_rdma::rpc`]) runs [`MnServer::handle`] on the calling thread
//! under the endpoint's execution lock, so one server's handlers never
//! overlap, and the four roles are *metered* separately ([`BusyMeters`]),
//! which is what Table 3 reports.
//!
//! While its column migrates — the [`PlacementMap`]'s migration names its
//! node as the source — a server keeps working on its own region alone:
//! every block-area write it makes lands there and is then applied to the
//! migration target, so handlers never ask which side clients currently
//! read.

use crate::ckpt::{self, CkptReport};
use crate::config::{pack_col, unpack_col, MemoryMap};
use crate::kv;
use crate::placement::PlacementMap;
use crate::proto::{self, ScannedBlock, ServerReq, ServerResp};
use crate::stripe::decode_records;
use aceso_blockalloc::record::{obsolete_slots, role_of, DELTA_ADDR_WORD};
use aceso_blockalloc::{Bitmap, BlockId, BlockLayout, BlockRecord, CellKind, Role, RECORD_TABLES};
use aceso_index::RemoteIndex;
use aceso_rdma::{
    Cluster, DmClient, GlobalAddr, MemoryNode, NodeId, RdmaError, RpcClient, RpcHandler,
};
use parking_lot::{Mutex, RwLock};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// A column's server and its RPC endpoint.
type Row = (Arc<MnServer>, RpcClient<ServerReq, ServerResp>);

/// Column → (server, RPC endpoint) map, shared by clients, servers and the
/// recovery orchestrator. Updated when a failed MN is replaced or a column
/// migrates.
pub struct Directory {
    inner: RwLock<Vec<Row>>,
}

impl Directory {
    /// Creates the directory of a launched group: one endpoint per server,
    /// in column order, each with a background fabric client of its own.
    pub fn serving(servers: &[Arc<MnServer>], cluster: &Arc<Cluster>) -> Arc<Self> {
        Arc::new_cyclic(|dir| Directory {
            inner: RwLock::new(
                servers
                    .iter()
                    .map(|s| {
                        let dm = cluster.background_client();
                        (Arc::clone(s), s.endpoint(dm, Weak::clone(dir)))
                    })
                    .collect(),
            ),
        })
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Physical node currently serving `col`.
    pub fn node_of(&self, col: usize) -> NodeId {
        self.inner.read()[col].0.node.id
    }

    /// The server currently serving `col`.
    pub fn server_of(&self, col: usize) -> Arc<MnServer> {
        Arc::clone(&self.inner.read()[col].0)
    }

    /// RPC endpoint of `col`'s server.
    pub fn rpc_of(&self, col: usize) -> RpcClient<ServerReq, ServerResp> {
        self.inner.read()[col].1.clone()
    }

    /// Points `server`'s column at it and a fresh endpoint for it (the
    /// publishing step of recovery and of an elastic move).
    pub fn publish(self: &Arc<Self>, server: &Arc<MnServer>, dm: DmClient) {
        let endpoint = server.endpoint(dm, Arc::downgrade(self));
        self.inner.write()[server.column] = (Arc::clone(server), endpoint);
    }
}

/// What a column's endpoint runs: the server, its background fabric client
/// and the directory it reaches its neighbours through. The directory is
/// held weakly — it owns the endpoints, so a strong handle would keep
/// store, directory, endpoints and servers alive in a cycle.
struct Served {
    server: Arc<MnServer>,
    dm: DmClient,
    dir: Weak<Directory>,
}

impl RpcHandler<ServerReq, ServerResp> for Served {
    fn alive(&self) -> bool {
        self.server.alive.load(Ordering::Acquire) && self.server.node.is_alive()
    }

    fn handle(&self, req: ServerReq) -> ServerResp {
        match self.dir.upgrade() {
            Some(dir) => self.server.handle(req, &self.dm, &dir),
            None => ServerResp::Err("store is gone".into()),
        }
    }
}

/// Wall-clock busy time per logical MN core (paper Table 3).
#[derive(Default)]
pub struct BusyMeters {
    /// RPC serving.
    pub rpc_ns: AtomicU64,
    /// Erasure coding.
    pub ec_ns: AtomicU64,
    /// Checkpoint sending.
    pub ckpt_send_ns: AtomicU64,
    /// Checkpoint receiving.
    pub ckpt_recv_ns: AtomicU64,
}

impl BusyMeters {
    fn add(&self, which: &AtomicU64, dur: Duration) {
        which.fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Snapshot of `(rpc, ec, send, recv)` busy nanoseconds.
    pub fn snapshot(&self) -> [u64; 4] {
        [
            self.rpc_ns.load(Ordering::Relaxed),
            self.ec_ns.load(Ordering::Relaxed),
            self.ckpt_send_ns.load(Ordering::Relaxed),
            self.ckpt_recv_ns.load(Ordering::Relaxed),
        ]
    }

    /// Resets all meters.
    pub fn reset(&self) {
        for m in [
            &self.rpc_ns,
            &self.ec_ns,
            &self.ckpt_send_ns,
            &self.ckpt_recv_ns,
        ] {
            m.store(0, Ordering::Relaxed);
        }
    }
}

/// An MN's own record table, the first of its Meta Area's
/// [`RECORD_TABLES`] (paper Figure 5), read where it lies: the server keeps
/// no record between calls. [`MnServer::records`] holds it, and that lock
/// is the table's read-modify-write lock.
pub struct RecordTable {
    node: Arc<MemoryNode>,
    blocks: BlockLayout,
}

impl RecordTable {
    /// Block `id`'s record, decoded out of the region.
    pub fn get(&self, id: BlockId) -> BlockRecord {
        let (at, len) = (self.blocks.record_offset(id), self.blocks.record_bytes());
        let bytes = self.node.region.read_vec(at, len as usize);
        BlockRecord::decode(&bytes.expect("meta area read"), self.blocks.block_size)
    }

    /// Word `i` of block `id`'s record, one 8 B load: a grant reads a
    /// field or two of many records and decodes none.
    fn word(&self, id: BlockId, i: usize) -> u64 {
        let at = self.blocks.record_offset(id) + 8 * i as u64;
        self.node.region.load64(at).expect("meta area read")
    }

    /// Every record, in block order, out of one read of the table.
    pub fn iter(&self) -> std::vec::IntoIter<BlockRecord> {
        let (at, len) = (self.blocks.record_offset(0), self.blocks.table_size());
        let table = self
            .node
            .region
            .read_vec(at, len as usize)
            .expect("meta area read");
        let records: Vec<_> = decode_records(&table, self.blocks).collect();
        records.into_iter()
    }
}

/// State of one MN server, shared between its endpoint, the store and the
/// recovery orchestrator. What it serves lives in its node's region: the
/// records, the free DATA and DELTA blocks they name none of, the received
/// checkpoint and the sender's baseline.
pub struct MnServer {
    /// The column this server serves.
    pub column: usize,
    /// The physical memory node.
    pub node: Arc<MemoryNode>,
    /// The shared memory map.
    pub map: MemoryMap,
    /// This column's index partition handle.
    pub index: RemoteIndex,
    /// This column's record table, copied into the next two columns' Meta
    /// Areas; a handler changes a record through `MnServer::update` alone.
    /// It is also the allocator: which DATA cells are FREE, which filled
    /// ones may be reused, and which DELTA blocks no Delta Addr word names,
    /// is read off it at each grant.
    pub records: Mutex<RecordTable>,
    /// Local backups of reused blocks, kept until they refill (§3.3.3):
    /// the one state a migration hands over.
    pub old_copies: Mutex<HashMap<BlockId, Vec<u8>>>,
    /// Logical-core busy meters.
    pub meters: BusyMeters,
    /// Server liveness (cleared on kill/shutdown).
    pub alive: Arc<AtomicBool>,
    /// The store's placement map: the one record of a migration off this
    /// server's node ([`MnServer::migration_target`]).
    placement: Arc<PlacementMap>,
    /// Set while an MN recovery has old cells of this column left to
    /// restore (until its Block tier): reuse is suppressed, as during a
    /// migration. The Block tier clears it with `Release` after its decode
    /// writes, which a grant's `Acquire` load orders before any reuse.
    pub(crate) restoring: AtomicBool,
    /// The block a [`ServerReq::Fold`] reads each source after the first
    /// into, recycled from fold to fold.
    fold_scratch: Mutex<Vec<u8>>,
}

impl MnServer {
    /// Creates the server state for `column` on `node`, reading migrations
    /// off the store's `placement`.
    pub fn new(
        column: usize,
        node: Arc<MemoryNode>,
        map: MemoryMap,
        placement: Arc<PlacementMap>,
    ) -> Arc<Self> {
        let records = RecordTable {
            node: Arc::clone(&node),
            blocks: map.blocks,
        };
        let s = MnServer {
            column,
            index: RemoteIndex::new(node.id, map.index),
            node,
            map,
            records: Mutex::new(records),
            old_copies: Mutex::new(HashMap::new()),
            meters: BusyMeters::default(),
            alive: Arc::new(AtomicBool::new(true)),
            placement,
            restoring: AtomicBool::new(false),
            fold_scratch: Mutex::new(Vec::new()),
        };
        // Launch starts every partition at Index Version 1 so that "0"
        // unambiguously means "unfilled block" in records.
        s.index.local_set_index_version(&s.node.region, 1);
        Arc::new(s)
    }

    /// Creates an endpoint that serves this server's requests on the
    /// caller's thread; `dm` is the server's background fabric client.
    fn endpoint(
        self: &Arc<Self>,
        dm: DmClient,
        dir: Weak<Directory>,
    ) -> RpcClient<ServerReq, ServerResp> {
        RpcClient::serve(Served {
            server: Arc::clone(self),
            dm,
            dir,
        })
    }

    /// Right-neighbour column (checkpoint target, first Meta Area copy).
    pub fn neighbour(&self) -> usize {
        (self.column + 1) % self.map.blocks.n
    }

    /// The node this server's column is migrating onto, from the opening
    /// of the migration in the placement map to its finish or abort: the
    /// snapshot's migration if it moves off this server's node. A
    /// replacement published on the target before the finish is not the
    /// source, and a target that died before the abort is still written.
    fn migration_target(&self, dm: &DmClient) -> Option<Arc<MemoryNode>> {
        let snap = self.placement.snapshot();
        let m = snap.migration.as_ref().filter(|m| m.from == self.node.id)?;
        dm.cluster().node_any(m.to)
    }

    /// Copies `[off, off + len)` of the local region to the same offset on
    /// the migration target, region to region.
    fn copy_to(&self, target: &MemoryNode, off: u64, len: usize) {
        target
            .region
            .copy_from(off, &self.node.region, off, len)
            .expect("migration copy");
    }

    /// Changes block `id`'s record, the one way a handler does: decodes it
    /// out of the own `table`, which the caller holds, applies `f`, and
    /// unless `f` answers `None` — nothing to change — encodes it back into
    /// the table and WRITEs it into the copies the next *two* columns hold
    /// (the Meta Area's fault tolerance, §3.1 — two copies are required to
    /// match the coding group's two-failure tolerance). A dead holder's copy is refilled
    /// when it is replaced. `None` too for a client's `id` with no record.
    fn update<R>(
        &self,
        table: &RecordTable,
        dm: &DmClient,
        dir: &Directory,
        id: BlockId,
        f: impl FnOnce(&mut BlockRecord) -> Option<R>,
    ) -> Option<R> {
        let blocks = self.map.blocks;
        if !blocks.record_ids().contains(&id) {
            return None;
        }
        let mut rec = table.get(id);
        let out = f(&mut rec)?;
        let bytes = rec.encode(blocks.block_size);
        self.node
            .region
            .write(blocks.record_offset(id), &bytes)
            .expect("meta area write");
        for table in 1..RECORD_TABLES {
            let holder = dir.node_of((self.column + table) % blocks.n);
            let _ = dm.write(
                GlobalAddr::new(holder, blocks.record_offset_in(table, id)),
                &bytes,
            );
        }
        Some(out)
    }

    /// Handles one request. `dm` is this server's background fabric client.
    ///
    /// The endpoint's execution lock plays all four of the paper's MN
    /// cores; time spent in erasure coding or checkpoint work is metered to
    /// those roles and *excluded* from the RPC-serving meter.
    pub fn handle(&self, req: ServerReq, dm: &DmClient, dir: &Directory) -> ServerResp {
        let t0 = Instant::now();
        let mut role_time = Duration::ZERO;
        let resp = match req {
            ServerReq::AllocData { cli_id, slot_len64 } => {
                self.handle_alloc_data(cli_id, slot_len64, dm, dir)
            }
            ServerReq::AllocDelta {
                array,
                row,
                parity_row,
            } => self.handle_alloc_delta(array, row, parity_row, dm, dir),
            ServerReq::DataFilled { block } => {
                let iv = self.index.local_index_version(&self.node.region);
                self.old_copies.lock().remove(&block);
                self.update(&self.records.lock(), dm, dir, block, |rec| {
                    rec.index_version = iv;
                    Some(())
                });
                ServerResp::Ok
            }
            ServerReq::EncodeDelta {
                array,
                row,
                parity_row,
            } => {
                let t = Instant::now();
                let r = self.handle_encode_delta(array, row, parity_row, dm, dir);
                role_time = t.elapsed();
                self.meters.add(&self.meters.ec_ns, role_time);
                r
            }
            ServerReq::BitmapFlush { updates } => self.handle_bitmap_flush(updates, dm, dir),
            ServerReq::GetOldCopy { block } => ServerResp::OldCopy {
                bytes: self.old_copies.lock().get(&block).cloned(),
            },
            ServerReq::ScanNew {
                of_column,
                since_iv,
            } => self.handle_scan_new(of_column, since_iv),
            ServerReq::Fold { sources, buf } => {
                let t = Instant::now();
                let block = self.handle_fold(&sources, buf, dm, dir);
                role_time = t.elapsed();
                self.meters.add(&self.meters.ec_ns, role_time);
                ServerResp::Folded { block }
            }
            ServerReq::CkptRound => {
                let t = Instant::now();
                let r = self.checkpoint_round(dm, dir);
                role_time = t.elapsed();
                self.meters.add(&self.meters.ckpt_send_ns, role_time);
                match r {
                    Ok(report) => ServerResp::CkptDone { report },
                    Err(e) => ServerResp::Err(e),
                }
            }
            ServerReq::CkptDelta {
                from_column,
                compressed,
                raw_len,
                index_version,
            } => {
                let t = Instant::now();
                // The Checkpoint Area holds the left neighbour's only.
                let left = (self.column + self.map.blocks.n - 1) % self.map.blocks.n;
                let r = if from_column == left {
                    let area = self.map.ckpt;
                    ckpt::apply_delta(&self.node.region, area, &compressed, raw_len, index_version)
                } else {
                    Err(format!("ckpt delta from column {from_column}, not {left}"))
                };
                role_time = t.elapsed();
                self.meters.add(&self.meters.ckpt_recv_ns, role_time);
                match r {
                    Ok((decompress_us, xor_us)) => ServerResp::CkptApplied {
                        decompress_us,
                        xor_us,
                    },
                    Err(e) => ServerResp::Err(e),
                }
            }
            ServerReq::ResetReplication { replaced } => {
                let blocks = self.map.blocks;
                // `replaced` holds copy 1 (the right neighbour) or copy 2.
                let copy = (replaced + blocks.n - self.column) % blocks.n;
                let region = &self.node.region;
                if copy == 1 {
                    // Its Checkpoint Area is empty: the next round ships
                    // the whole index.
                    let (at, len) = (self.map.baseline.base, self.map.baseline.size_bytes());
                    region.zero(at, len as usize).expect("baseline zero");
                }
                // The own table is the records: one WRITE refills the copy.
                let own = region.read_vec(blocks.record_offset(0), blocks.table_size() as usize);
                let at = GlobalAddr::new(dir.node_of(replaced), blocks.record_offset_in(copy, 0));
                match own.and_then(|own| dm.write(at, &own)) {
                    Ok(()) => ServerResp::Ok,
                    Err(e) => ServerResp::Err(format!("reset replication: {e}")),
                }
            }
            ServerReq::MigrateBatch { ranges } => self.handle_migrate_batch(&ranges, dm),
            ServerReq::MigrateFinish => self.handle_migrate_finish(dm),
        };
        self.meters
            .add(&self.meters.rpc_ns, t0.elapsed().saturating_sub(role_time));
        resp
    }

    fn handle_alloc_data(
        &self,
        cli_id: u32,
        slot_len64: u8,
        dm: &DmClient,
        dir: &Directory,
    ) -> ServerResp {
        if slot_len64 == 0 {
            return ServerResp::Err("size class 0".into());
        }
        let slots = (self.map.blocks.block_size / (slot_len64 as u64 * 64)) as usize;
        if slots == 0 || slots > aceso_blockalloc::record::MAX_SLOTS {
            return ServerResp::Err(format!("unsupported size class {slot_len64}"));
        }
        let Some((id, reused)) = self.pick_data(slot_len64, slots, dm) else {
            return ServerResp::Err("out of data blocks".into());
        };
        let CellKind::Data { array, row } = self.map.blocks.kind_of(id) else {
            unreachable!("picked a non-data block");
        };
        if reused {
            // Back up the whole old block locally in case the client fails
            // mid-overwrite (§3.3.3 / §3.4.2).
            let bytes = self
                .node
                .region
                .read_vec(
                    self.map.blocks.block_offset(id),
                    self.map.blocks.block_size as usize,
                )
                .expect("block read");
            self.old_copies.lock().insert(id, bytes);
        }
        let old_bitmap = self.update(&self.records.lock(), dm, dir, id, |rec| {
            if !reused {
                (rec.role, rec.valid, rec.xor_id) = (Role::Data, true, row as u8);
                (rec.slot_len64, rec.stripe_array) = (slot_len64, array);
                rec.bitmap = Bitmap::new(rec.bitmap_bits(self.map.blocks.block_size));
            }
            let old = reused.then(|| rec.bitmap.as_bytes().to_vec());
            rec.bitmap.clear();
            (rec.cli_id, rec.index_version) = (cli_id, 0);
            Some(old)
        });
        ServerResp::DataAllocated {
            block: id,
            array,
            row,
            old_bitmap: old_bitmap.flatten(),
        }
    }

    /// The DATA cell an `AllocData` of `slots` slots of `slot_len64` is
    /// granted, and whether it is reused, read off the record table: the
    /// first FREE DATA cell in id order (no record returns to FREE); once
    /// none is left, and unless reuse is suppressed, the reclaimable block
    /// of that size class with the most obsolete slots, ties to the lowest
    /// id.
    fn pick_data(&self, slot_len64: u8, slots: usize, dm: &DmClient) -> Option<(BlockId, bool)> {
        let (blocks, table) = (self.map.blocks, self.records.lock());
        let data = blocks
            .record_ids()
            .filter(|&id| matches!(blocks.kind_of(id), CellKind::Data { .. }));
        let free = |&id: &BlockId| role_of(table.word(id, 0)) == Role::Free;
        if let Some(id) = data.clone().find(free) {
            return Some((id, false));
        }
        if self.reuse_suppressed(dm) {
            return None;
        }
        let candidates = data.filter_map(|id| {
            let obsolete = obsolete_slots(|i| table.word(id, i), slot_len64, slots)?;
            Self::reclaimable(obsolete, slots).then_some((obsolete, Reverse(id)))
        });
        candidates.max().map(|(_, Reverse(id))| (id, true))
    }

    /// The PARITY cell a delta request names, or `None` unless `array` is a
    /// stripe array, `parity_row` one of the column's parity rows and `row`
    /// a data position of its equation: checked before a DELTA block is
    /// granted or a record changes.
    fn parity_cell(&self, array: u64, row: usize, parity_row: usize) -> Option<BlockId> {
        let (blocks, n) = (self.map.blocks, self.map.blocks.n);
        let named = array < blocks.num_arrays && row < n - 2 && (n - 2..n).contains(&parity_row);
        named.then(|| blocks.cell_block_id(array, parity_row))
    }

    fn handle_alloc_delta(
        &self,
        array: u64,
        row: usize,
        parity_row: usize,
        dm: &DmClient,
        dir: &Directory,
    ) -> ServerResp {
        // A free delta block is all zeros, as delta blocks must start (they
        // accumulate XOR images): regions start zeroed and `EncodeDelta`
        // zeroes a delta when it frees it. The parity record's Delta Addr
        // is the block's one registration: the Meta Area has no row for it,
        // and a word still set keeps its block and its unfolded delta.
        let Some(pid) = self.parity_cell(array, row, parity_row) else {
            return ServerResp::Err(format!("no delta ({array}, {row}, {parity_row})"));
        };
        let table = self.records.lock();
        if table.word(pid, DELTA_ADDR_WORD + row) != 0 {
            return ServerResp::Err(format!("delta ({array}, {row}, {parity_row}) is set"));
        }
        let Some(id) = self.unnamed_delta(&table) else {
            return ServerResp::Err("out of delta blocks".into());
        };
        self.update(&table, dm, dir, pid, |prec| {
            if prec.role == Role::Free {
                (prec.role, prec.valid, prec.xor_id) = (Role::Parity, true, parity_row as u8);
                prec.stripe_array = array;
            }
            prec.delta_addr[row] = pack_col(self.column, self.map.blocks.block_offset(id));
            Some(())
        });
        ServerResp::DeltaAllocated { block: id }
    }

    /// The lowest DELTA-pool block no Delta Addr word of `table` names: a
    /// DELTA block is freed when its word is cleared (§3.3.3), so these are
    /// the free ones. Read off each PARITY row's Role and Delta Addr words,
    /// nothing decoded.
    fn unnamed_delta(&self, table: &RecordTable) -> Option<BlockId> {
        let (blocks, n) = (self.map.blocks, self.map.blocks.n);
        let parity = blocks
            .record_ids()
            .filter(|&id| role_of(table.word(id, 0)) == Role::Parity);
        let words =
            parity.flat_map(|id| (0..n - 2).map(move |k| table.word(id, DELTA_ADDR_WORD + k)));
        let named: Vec<_> = words
            .filter_map(|w| blocks.locate(unpack_col(w).1))
            .collect();
        let mut pool = (0..blocks.num_delta).map(|i| blocks.delta_block_id(i));
        pool.find(|&id| !named.iter().any(|&(d, _)| d == id))
    }

    fn handle_encode_delta(
        &self,
        array: u64,
        row: usize,
        parity_row: usize,
        dm: &DmClient,
        dir: &Directory,
    ) -> ServerResp {
        let Some(pid) = self.parity_cell(array, row, parity_row) else {
            return ServerResp::Err(format!("no delta ({array}, {row}, {parity_row})"));
        };
        let bs = self.map.blocks.block_size as usize;
        let poff = self.map.blocks.block_offset(pid);
        self.update(&self.records.lock(), dm, dir, pid, |prec| {
            let daddr = prec.delta_addr[row];
            if daddr == 0 {
                return None; // Already encoded (idempotent under retries).
            }
            let (dcol, doff) = unpack_col(daddr);
            debug_assert_eq!(
                dcol, self.column,
                "delta must be local to the parity holder"
            );
            // Fold the DELTA block into the PARITY block where it lies and
            // zero the delta, so it is granted as it is once clearing its
            // word below frees it. A migration target gets both results
            // (dual-write: neither side may go stale before the publish),
            // as the parity cell's group may already be served from there.
            let local = &self.node.region;
            local.xor_from(poff, local, doff, bs).expect("parity fold");
            local.zero(doff, bs).expect("block zero");
            if let Some(target) = self.migration_target(dm) {
                self.copy_to(&target, poff, bs);
                target.region.zero(doff, bs).expect("target zero");
            }
            prec.xor_map |= 1 << row;
            prec.delta_addr[row] = 0;
            Some(())
        });
        ServerResp::Ok
    }

    /// Recovery's scan of this MN's own new DATA blocks for column
    /// `of_column`: each slot judged by [`kv::judge_lines`] from 64 B lines
    /// of the region — never a whole block — and kept as a [`ScannedBlock`].
    fn handle_scan_new(&self, of_column: usize, since_iv: u64) -> ServerResp {
        let (layout, region) = (self.map.blocks, &self.node.region);
        let bs = layout.block_size as usize;
        let (mut lines, mut blocks) = (0, Vec::new());
        for (id, rec) in self.records.lock().iter().enumerate() {
            if rec.role != Role::Data || !proto::is_new(rec.index_version, since_iv) {
                continue;
            }
            let base = layout.block_offset(id as BlockId);
            let mut found = ScannedBlock::new(rec.slot_len64, bs);
            let mut slot = vec![0; rec.slot_len64 as usize * 64];
            for s in 0..bs.checked_div(slot.len()).unwrap_or(0) {
                let at = base + (s * slot.len()) as u64;
                let read = |i: usize, line: &mut [u8]| {
                    lines += 1;
                    region.read(at + 64 * i as u64, line).expect("line read");
                };
                if let Some(kv) = kv::judge_lines(&mut slot, read) {
                    found.push(s, kv, layout.n, of_column);
                }
            }
            blocks.push((id as BlockId, found));
        }
        ServerResp::Scanned { blocks, lines }
    }

    /// XORs `sources` into `buf`: this column's cells out of its own
    /// memory, which a migration keeps byte-fresh, and every other
    /// column's with a one-sided read at its directory node.
    fn handle_fold(
        &self,
        sources: &[u64],
        mut buf: Vec<u8>,
        dm: &DmClient,
        dir: &Directory,
    ) -> Result<Vec<u8>, RdmaError> {
        let mut scratch = self.fold_scratch.lock();
        scratch.resize(buf.len(), 0);
        for (i, (c, off)) in sources.iter().map(|&s| unpack_col(s)).enumerate() {
            let into = if i == 0 {
                &mut buf[..]
            } else {
                &mut scratch[..]
            };
            if c == self.column {
                self.node.region.read(off, into)?;
            } else {
                dm.read(GlobalAddr::new(dir.node_of(c), off), into)?;
            }
            if i > 0 {
                aceso_erasure::xor_into(&mut buf, &scratch);
            }
        }
        Ok(buf)
    }

    fn handle_bitmap_flush(
        &self,
        updates: Vec<(BlockId, Vec<u32>)>,
        dm: &DmClient,
        dir: &Directory,
    ) -> ServerResp {
        let table = self.records.lock();
        for (block, units) in updates {
            self.update(&table, dm, dir, block, |rec| {
                if rec.role != Role::Data || rec.slot_len64 == 0 {
                    return None;
                }
                // A unit is a bit by this record's slot size, never by the
                // client's idea of the KV's length.
                for unit in units {
                    let slot = (unit / rec.slot_len64 as u32) as usize;
                    if slot < rec.bitmap.len() {
                        rec.bitmap.set(slot, true);
                    }
                }
                Some(())
            });
        }
        ServerResp::Ok
    }

    /// The reclamation trigger (§3.3.3), met at a grant once no FREE DATA
    /// cell is left: at least 0.75 of a filled DATA block's `slots` are
    /// obsolete.
    fn reclaimable(obsolete: usize, slots: usize) -> bool {
        const RECLAIM_OBSOLETE_RATIO: f64 = 0.75;
        obsolete as f64 / slots.max(1) as f64 >= RECLAIM_OBSOLETE_RATIO
    }

    /// Whether reuse is suppressed, checked when a grant finds no FREE DATA
    /// cell: while the column migrates, reclamation would rewrite block
    /// contents behind the copier's back and the target resurrect the
    /// pre-reuse bytes; while a recovery has old cells left to restore, an
    /// open would read zeros as the obsolete slots' old images, and the
    /// Block tier's decode would overwrite the refill. Nothing is lost
    /// meanwhile: the records still name every candidate once it ends.
    fn reuse_suppressed(&self, dm: &DmClient) -> bool {
        self.migration_target(dm).is_some() || self.restoring.load(Ordering::Acquire)
    }

    /// Copies block-area byte ranges onto the migration target. Running
    /// under the endpoint's execution lock serializes the copy against
    /// every other server-side mutation; concurrent *client* writes are
    /// excluded by the epoch fences the migrator installs first.
    fn handle_migrate_batch(&self, ranges: &[(u64, usize)], dm: &DmClient) -> ServerResp {
        let Some(target) = self.migration_target(dm) else {
            return ServerResp::Err("no migration in progress".into());
        };
        for &(off, len) in ranges {
            self.copy_to(&target, off, len);
        }
        ServerResp::Ok
    }

    /// Copies the Index, Meta, Checkpoint and Baseline areas onto the
    /// migration target and stops serving. The migrator then hands the
    /// reuse backups over to a fresh [`MnServer`] for the target and
    /// republishes the column; stale clients fail their next verb against
    /// the whole-region fence and re-resolve.
    fn handle_migrate_finish(&self, dm: &DmClient) -> ServerResp {
        let Some(target) = self.migration_target(dm) else {
            return ServerResp::Err("no migration in progress".into());
        };
        self.copy_to(&target, 0, self.map.blocks.block_base as usize);
        // The Checkpoint and Baseline areas: the region past the blocks.
        let tail = self.map.ckpt.base;
        self.copy_to(&target, tail, self.map.region_len - tail as usize);
        self.alive.store(false, Ordering::Release);
        ServerResp::Ok
    }

    fn checkpoint_round(&self, dm: &DmClient, dir: &Directory) -> Result<CkptReport, String> {
        let region = &self.node.region;
        let iv = self.index.local_index_version(region);
        let sent = ckpt::send(region, self.map.index, self.map.baseline);
        let (compressed, mut report) = sent.map_err(|e| format!("ckpt send: {e}"))?;
        let req = ServerReq::CkptDelta {
            from_column: self.column,
            compressed,
            raw_len: report.raw_len,
            index_version: iv,
        };
        let (node, rpc) = (dir.node_of(self.neighbour()), dir.rpc_of(self.neighbour()));
        let resp = dm.rpc(node, &rpc, req, report.compressed_len);
        let resp = resp.map_err(|e| format!("ckpt send: {e}"))?;
        let ServerResp::CkptApplied {
            decompress_us,
            xor_us,
        } = resp
        else {
            return Err(format!("ckpt send: unexpected {resp:?}"));
        };
        (report.decompress_us, report.apply_xor_us) = (decompress_us, xor_us);
        report.index_version = iv;
        self.index.local_set_index_version(region, iv + 1);
        Ok(report)
    }
}
