//! The replication substrate: everything FUSEE and SWARM share.
//!
//! Both replication engines keep `r` copies of one RACE-hashed index
//! ([`crate::layout`]) and `r` copies of every record at identical offsets
//! on `r` consecutive columns. They differ only *after* the bucket scan —
//! FUSEE appends a new record and CASes backups → primary, SWARM
//! overwrites a cell in place and folds its CASes into one doorbell — so
//! everything that is not a write protocol lives here, once: the
//! configuration, the error, the store (column directory, block-set
//! allocator, `kill_mn`, [`ReplStore::recover_mn`], the
//! align-backups-to-primary pass, the agreement walk, the space walk), the
//! client's slot allocator, its bounded per-key cache, the scan → read →
//! judge walk that finds a key's record (`ReplClient::locate`) and the
//! op bracket.
//!
//! A protocol enters through [`Protocol`] only: four facts about its
//! record format (live bytes, per-cell redundancy bytes, "is this image
//! committed", "is this image my key's"), its own repair step, and its
//! search/write/delete bodies. Nothing in this module branches on which
//! protocol it serves.

use crate::layout::{Found, FuseeLayout, Scan, Slot8};
use aceso_core::{ClientTuning, IndexCache};
use aceso_index::{fingerprint, route_hash};
use aceso_rdma::cq::{block_on, SimCq};
use aceso_rdma::{
    Cluster, ClusterConfig, CostModel, DmClient, GlobalAddr, NodeId, OpKind, RdmaError,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeSet, HashMap};
use std::marker::PhantomData;
use std::sync::Arc;

/// Errors from a replication engine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReplError {
    /// Fabric failure.
    Rdma(RdmaError),
    /// Key absent on UPDATE/DELETE.
    NotFound,
    /// No free slot in the key's buckets.
    IndexFull,
    /// Out of record blocks.
    OutOfBlocks,
    /// Retry budget exhausted.
    RetriesExhausted,
    /// `recover_mn` called on a column whose node is still alive.
    ColumnAlive,
}

impl From<RdmaError> for ReplError {
    fn from(e: RdmaError) -> Self {
        ReplError::Rdma(e)
    }
}

/// Result alias.
pub type Result<T> = core::result::Result<T, ReplError>;

/// Configuration of a replication engine.
#[derive(Clone, Debug)]
pub struct ReplConfig {
    /// Number of memory nodes.
    pub num_mns: usize,
    /// Replication factor `r` (the paper sweeps 1–3 in Figure 1a and uses
    /// 3 elsewhere, matching Aceso's two-failure tolerance).
    pub replicas: usize,
    /// Index bucket groups per partition.
    pub index_groups: u64,
    /// Record block size in bytes.
    pub block_size: u64,
    /// Number of record blocks per MN.
    pub blocks_per_mn: u64,
    /// Widen index slots 8 B → 16 B (the `+SLOT` factor-analysis step of
    /// Figure 13): doubles bucket-read bytes, leaves semantics unchanged.
    pub wide_slots: bool,
    /// NIC cost model.
    pub cost: CostModel,
}

impl ReplConfig {
    /// Laptop-scale defaults mirroring `AcesoConfig::small`.
    pub fn small() -> Self {
        ReplConfig {
            num_mns: 5,
            replicas: 3,
            index_groups: 512,
            block_size: 64 << 10,
            blocks_per_mn: 48,
            wide_slots: false,
            cost: CostModel::default(),
        }
    }
}

/// What the substrate needs to know about a replication protocol: the
/// facts of its record format, its repair step and its three op bodies.
pub trait Protocol: Sized + Send + Sync + 'static {
    /// Stable engine name (`FtEngine::kind`).
    const NAME: &'static str;
    /// Bytes per record, per replica, that exist only for the protocol
    /// (commit words, stamps) — charged to redundancy by the space walk.
    const CELL_OVERHEAD: u64;

    /// Live bytes of a record image, normalized across engines to an
    /// 8-byte header plus key plus value.
    fn live_bytes(record: &[u8]) -> u64;
    /// Whether a record image referenced from the index is committed.
    fn committed(record: &[u8]) -> bool;
    /// Whether a record image a fingerprint match points at is `key`'s.
    fn judge<'a>(record: &'a [u8], key: &[u8]) -> Judged<'a>;
    /// Repairs what a crashed client left torn; returns the repair count.
    fn repair(store: &ReplStore<Self>) -> Result<usize>;
    /// SEARCH body (inside the op bracket).
    fn search(c: &mut ReplClient<Self>, key: &[u8]) -> Result<Option<Vec<u8>>>;
    /// INSERT (`allow_insert`, an upsert) / UPDATE body.
    fn write(c: &mut ReplClient<Self>, key: &[u8], value: &[u8], allow_insert: bool) -> Result<()>;
    /// DELETE body; `Ok(false)` = the key was absent.
    fn delete(c: &mut ReplClient<Self>, key: &[u8]) -> Result<bool>;
}

/// A [`Protocol`]'s judgement of one record image against a key — the
/// three answers `aceso_core::kv::identity` gives for an Aceso slot.
pub enum Judged<'a> {
    /// The key's live record: its value and the tag it was committed under.
    Ours(&'a [u8], u64),
    /// The key's own record, deleted: no other candidate can be the key's.
    Tombstone,
    /// Another key's record, or no committed record at all.
    Foreign,
}

/// What a client remembers about a key between operations: where its
/// record is, not which slot pointed there — so a cached op still
/// validates against the fabric (FUSEE re-reads the buckets, SWARM's commit
/// CAS compares the tag).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cell {
    /// Byte offset of the record, the same on every replica column.
    pub offset: u64,
    /// Bytes of the record's size class.
    pub len: u32,
    /// The protocol's tag: SWARM's commit version, FUSEE's 0 — what
    /// `alloc_slot` / `free_slot` carry.
    pub tag: u64,
}

/// What [`ReplClient::locate`] found in a key's buckets.
pub(crate) struct Located {
    /// The bucket scan (its empties are where an INSERT lands).
    pub scan: Scan,
    /// The key's own slot, live or tombstoned.
    pub slot: Option<Found>,
    /// The live value under `slot`, with its tag.
    pub live: Option<(Vec<u8>, u64)>,
}

impl Located {
    /// What a SEARCH answers.
    pub fn into_value(self) -> Option<Vec<u8>> {
        self.live.map(|(value, _)| value)
    }
}

/// One replicated block allocation: block `id` claimed on every column in
/// `cols` (identical offsets, identical intended contents). Recovery walks
/// these records to find a surviving copy of every block a dead column
/// hosted — block ids are per-column streams, so without the record there
/// is no way to know which columns mirror `(col, id)`.
#[derive(Clone, Debug)]
struct BlockSet {
    id: u64,
    cols: Vec<usize>,
}

struct CentralAlloc {
    /// Next free block per MN.
    next_block: Vec<u64>,
    /// Every block set handed out, in allocation order.
    sets: Vec<BlockSet>,
}

/// A replicated store: a cluster plus a coarse central block allocator
/// (block allocation is server-mediated and off the critical path in both
/// systems; the mutex stands in for that rare RPC).
pub struct ReplStore<P: Protocol> {
    /// The memory pool.
    pub cluster: Arc<Cluster>,
    /// Configuration.
    pub cfg: ReplConfig,
    /// Per-MN index/block geometry.
    pub layout: FuseeLayout,
    alloc: Mutex<CentralAlloc>,
    /// Column → node directory. Columns outlive nodes: recovery replaces a
    /// dead column's node with a fresh one and republishes the mapping here.
    nodes: RwLock<Vec<NodeId>>,
    _protocol: PhantomData<P>,
}

/// What one column recovery moved (see [`ReplStore::recover_mn`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplRecovery {
    /// Index-area bytes transferred (read from a live replica + written to
    /// the replacement).
    pub index_bytes: u64,
    /// Record-block bytes transferred.
    pub block_bytes: u64,
    /// Blocks re-replicated.
    pub blocks: usize,
    /// Live index slots re-hosted.
    pub slots: usize,
    /// Copy verbs issued.
    pub verbs: u64,
    /// Modeled network milliseconds (deterministic): the rebuild's clock
    /// (see [`ReplStore::recover_mn`]).
    pub net_ms: f64,
}

/// Space accounting snapshot (see [`ReplStore::memory_usage`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplUsage {
    /// Live record bytes (header + key + value), counted once.
    pub valid: u64,
    /// Fault-tolerance bytes: the `r − 1` extra copies plus the protocol's
    /// per-cell overhead on all `r` replicas.
    pub redundancy: u64,
    /// Primary share of allocated block bytes.
    pub allocated: u64,
}

/// The non-empty slots of an index-area image, with their word index.
pub(crate) fn live_slots(area: &[u8]) -> impl Iterator<Item = (usize, Slot8)> + '_ {
    area.chunks_exact(8).enumerate().filter_map(|(i, w)| {
        let slot = Slot8::from_raw(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        (!slot.is_empty()).then_some((i, slot))
    })
}

impl<P: Protocol> ReplStore<P> {
    /// Launches the engine over `cfg.num_mns` memory nodes.
    pub fn launch(cfg: ReplConfig) -> Arc<Self> {
        let mut layout = FuseeLayout::new(
            cfg.num_mns as u64,
            cfg.index_groups,
            cfg.block_size,
            cfg.blocks_per_mn,
        );
        layout.wide_slots = cfg.wide_slots;
        let cluster = Cluster::new(ClusterConfig {
            num_mns: cfg.num_mns,
            region_len: layout.region_len(),
            cost: cfg.cost,
        });
        Arc::new(ReplStore {
            cluster,
            alloc: Mutex::new(CentralAlloc {
                next_block: vec![0; cfg.num_mns],
                sets: Vec::new(),
            }),
            nodes: RwLock::new((0..cfg.num_mns).map(|c| NodeId(c as u16)).collect()),
            layout,
            cfg,
            _protocol: PhantomData,
        })
    }

    /// Creates a client, its cache bounded like an Aceso client's.
    pub fn client(self: &Arc<Self>) -> ReplClient<P> {
        ReplClient {
            dm: self.cluster.client(),
            store: Arc::clone(self),
            open: HashMap::new(),
            free: HashMap::new(),
            cache: IndexCache::new(ClientTuning::default().cache_capacity, None),
            max_retries: 10_000,
        }
    }

    /// The node currently hosting column `col`.
    pub fn node_of(&self, col: usize) -> NodeId {
        self.nodes.read()[col]
    }

    /// Whether column `col`'s node is alive.
    pub fn col_alive(&self, col: usize) -> bool {
        self.cluster.node(self.node_of(col)).is_ok()
    }

    /// Columns hosting index partition `p`'s replicas: primary (= `p`)
    /// first, then the `r − 1` backups.
    pub fn partition_cols(&self, p: usize) -> Vec<usize> {
        let n = self.cfg.num_mns;
        (0..self.cfg.replicas).map(|i| (p + i) % n).collect()
    }

    /// The live columns of partition `p`, in [`Self::partition_cols`] order.
    pub fn live_cols(&self, p: usize) -> Vec<usize> {
        let mut cols = self.partition_cols(p);
        cols.retain(|&c| self.col_alive(c));
        cols
    }

    /// The replica columns for a key: primary first.
    pub fn replica_cols(&self, key: &[u8]) -> Vec<usize> {
        self.partition_cols((route_hash(key) % self.cfg.num_mns as u64) as usize)
    }

    /// Fail-stops the node hosting `col`. Returns `false` if already dead.
    pub fn kill_mn(&self, col: usize) -> bool {
        self.cluster.kill_node(self.node_of(col))
    }

    /// Allocates one block (same id) on each of `cols`. Records are
    /// replicated at identical offsets on the replica MNs, so one
    /// allocation claims the same block id on all of them.
    fn alloc_block_set(&self, cols: &[usize]) -> Result<u64> {
        let mut a = self.alloc.lock();
        // The same block id must be free on every requested column.
        let id = cols.iter().map(|&c| a.next_block[c]).max().unwrap_or(0);
        if id >= self.cfg.blocks_per_mn {
            return Err(ReplError::OutOfBlocks);
        }
        for &c in cols {
            a.next_block[c] = id + 1;
        }
        a.sets.push(BlockSet {
            id,
            cols: cols.to_vec(),
        });
        Ok(id)
    }

    /// Recovers column `col` onto a fresh node by re-replicating from the
    /// surviving copies: every index partition area the column hosted is
    /// copied from a live replica, every record block is copied from a
    /// live member of its recorded block set, and the column directory is
    /// republished. The report's `net_ms` is *modeled* network time, on a
    /// clock of the rebuild's own by the rule Aceso's recovery runs on: one
    /// doorbell of reads across every source column, then one of writes to
    /// the replacement, back to back on the rebuilder's link — so it is a pure
    /// function of the seed like Aceso's recovery columns.
    ///
    /// A failed call leaves no live node behind: every copy's source is
    /// resolved before the replacement is added, and a replacement whose
    /// fill fails part-way is killed before the error is returned.
    pub fn recover_mn(&self, col: usize) -> Result<ReplRecovery> {
        if self.col_alive(col) {
            return Err(ReplError::ColumnAlive);
        }
        // `col` is dead, so any live host of a copy is a source for it.
        let source = |hosts: &[usize]| {
            hosts
                .iter()
                .copied()
                .find(|&c| self.col_alive(c))
                .ok_or(ReplError::Rdma(RdmaError::NodeUnreachable(
                    self.node_of(col),
                )))
        };
        // (source column, offset, length): index areas first, then blocks.
        let area = self.layout.area_size() as usize;
        let mut copies = Vec::new();
        for p in 0..self.cfg.num_mns {
            let hosting = self.partition_cols(p);
            if hosting.contains(&col) {
                copies.push((source(&hosting)?, self.layout.area_base(p), area));
            }
        }
        let index_copies = copies.len();
        let sets: Vec<BlockSet> = self.alloc.lock().sets.clone();
        for set in sets.iter().filter(|s| s.cols.contains(&col)) {
            let off = self.layout.block_offset(set.id);
            copies.push((source(&set.cols)?, off, self.cfg.block_size as usize));
        }

        let replacement = self.cluster.add_node();
        let (cq, dm) = (Arc::new(SimCq::new()), self.cluster.background_client());
        dm.attach_cq(Arc::clone(&cq));
        let mut got = vec![Vec::new(); copies.len()];
        let filled = (|| -> Result<()> {
            let sources: BTreeSet<usize> = copies.iter().map(|&(src, _, _)| src).collect();
            dm.batch(|dm| -> Result<()> {
                for src in sources {
                    for (i, &(from, off, len)) in copies.iter().enumerate() {
                        if from == src {
                            got[i] = dm.read_vec(GlobalAddr::new(self.node_of(src), off), len)?;
                        }
                    }
                }
                Ok(())
            })?;
            dm.batch(|dm| -> Result<()> {
                for (&(_, off, _), bytes) in copies.iter().zip(&got) {
                    dm.write(GlobalAddr::new(replacement.id, off), bytes)?;
                }
                Ok(())
            })
        })();
        filled.inspect_err(|_| {
            self.cluster.kill_node(replacement.id);
        })?;
        let mut rep = ReplRecovery::default();
        for (i, (&(_, _, len), bytes)) in copies.iter().zip(&got).enumerate() {
            if i < index_copies {
                rep.slots += live_slots(bytes).count();
                rep.index_bytes += 2 * len as u64;
            } else {
                rep.block_bytes += 2 * len as u64;
                rep.blocks += 1;
            }
            rep.verbs += 2;
        }

        self.nodes.write()[col] = replacement.id;
        block_on(Some(Arc::clone(&cq)), dm.settle());
        rep.net_ms = cq.now_us() / 1e3;
        Ok(rep)
    }

    /// Repairs what a crashed client left torn ([`Protocol::repair`]).
    pub fn repair(&self) -> Result<usize> {
        P::repair(self)
    }

    /// The align-backups-to-primary pass for partition `p`: reads the
    /// index area on every column of `backups` and overwrites each word
    /// that differs from `reference`. Returns the words rewritten.
    pub fn align_backups(
        &self,
        dm: &DmClient,
        p: usize,
        reference: &[u8],
        backups: &[usize],
    ) -> Result<usize> {
        let base = self.layout.area_base(p);
        let mut repaired = 0;
        for &b in backups {
            let node = self.node_of(b);
            let bbytes = dm.read_vec(GlobalAddr::new(node, base), reference.len())?;
            for (i, (pw, bw)) in reference
                .chunks_exact(8)
                .zip(bbytes.chunks_exact(8))
                .enumerate()
            {
                if pw != bw {
                    dm.write(GlobalAddr::new(node, base + i as u64 * 8), pw)?;
                    repaired += 1;
                }
            }
        }
        Ok(repaired)
    }

    /// Forensic read of `len` bytes at `off` on column `col` (direct
    /// region access, no verbs). `None` if the column is dead.
    fn peek(&self, col: usize, off: u64, len: usize) -> Option<Vec<u8>> {
        let node = self.cluster.node(self.node_of(col)).ok()?;
        node.region.read_vec(off, len).ok()
    }

    /// Replica-agreement check (the analogue of Aceso's parity scrub): at
    /// quiescence every live backup's index area must equal its
    /// partition's first live replica, and every record referenced by a
    /// live index entry must be committed and byte-identical on every live
    /// replica column. Forensic (direct region reads, no verbs). Returns
    /// violations.
    pub fn replica_agreement(&self) -> Vec<String> {
        let mut v = Vec::new();
        let area = self.layout.area_size() as usize;
        for p in 0..self.cfg.num_mns {
            let live = self.live_cols(p);
            let Some(&first) = live.first() else { continue };
            let base = self.layout.area_base(p);
            let Some(pbytes) = self.peek(first, base, area) else {
                continue;
            };
            for &c in &live[1..] {
                if self.peek(c, base, area).as_ref() != Some(&pbytes) {
                    v.push(format!("partition {p}: index replica on col {c} diverges"));
                }
            }
            for (i, slot) in live_slots(&pbytes) {
                let (off, len) = (slot.offset(), slot.record_len());
                let Some(record) = self.peek(first, off, len) else {
                    continue;
                };
                if !P::committed(&record) {
                    v.push(format!(
                        "partition {p} slot {i}: referenced record at {off:#x} not committed"
                    ));
                }
                for &c in &live[1..] {
                    if self.peek(c, off, len).as_ref() != Some(&record) {
                        v.push(format!(
                            "partition {p} slot {i}: record copy on col {c} diverges at {off:#x}"
                        ));
                    }
                }
            }
        }
        v
    }

    /// Space accounting for the Table 3 memory-overhead comparison.
    ///
    /// `valid` counts each live record once ([`Protocol::live_bytes`],
    /// walked from each partition's first live replica); `redundancy` is
    /// the `r − 1` extra copies of those bytes plus
    /// [`Protocol::CELL_OVERHEAD`] on all `r` replicas; `allocated` is the
    /// primary share of block space handed out (each block set claims one
    /// primary block plus `r − 1` replica blocks). Forensic and
    /// deterministic: direct region reads, no verbs.
    pub fn memory_usage(&self) -> ReplUsage {
        let mut u = ReplUsage::default();
        let r = self.cfg.replicas as u64;
        let area = self.layout.area_size() as usize;
        let mut records = 0u64;
        for p in 0..self.cfg.num_mns {
            let Some(&col) = self.live_cols(p).first() else {
                continue;
            };
            let Some(bytes) = self.peek(col, self.layout.area_base(p), area) else {
                continue;
            };
            for (_, slot) in live_slots(&bytes) {
                if let Some(record) = self.peek(col, slot.offset(), slot.record_len()) {
                    u.valid += P::live_bytes(&record);
                    records += 1;
                }
            }
        }
        u.redundancy = u.valid * (r - 1) + records * r * P::CELL_OVERHEAD;
        u.allocated = self.alloc.lock().sets.len() as u64 * self.cfg.block_size;
        u
    }
}

#[derive(Clone, Copy)]
struct OpenBlock {
    block: u64,
    next_slot: u64,
    slots: u64,
}

/// A client of a replicated store: the fabric endpoint, the record-slot
/// allocator, the per-key cache and the op bracket.
pub struct ReplClient<P: Protocol> {
    /// The fabric endpoint (benches read its profiles).
    pub dm: DmClient,
    pub(crate) store: Arc<ReplStore<P>>,
    /// Open block per (primary column, size class).
    open: HashMap<(usize, u32), OpenBlock>,
    /// Reclaimed record slots per (primary column, size class), each with
    /// the tag its protocol freed it under: obsolete slots are overwritten
    /// directly — replication's cheap reclamation (§2.5).
    free: HashMap<(usize, u32), Vec<(u64, u64)>>,
    /// Where each recently touched key's record is: Aceso's bounded CLOCK
    /// cache at Aceso's default capacity, so the engines compare at equal
    /// client memory.
    pub(crate) cache: IndexCache<Cell>,
    /// Commit retry budget.
    pub max_retries: usize,
}

impl<P: Protocol> ReplClient<P> {
    pub(crate) fn node_of(&self, col: usize) -> NodeId {
        self.store.node_of(col)
    }

    /// Allocates a replicated record slot of `class` bytes on `cols`;
    /// returns the common offset and the tag it was last freed under
    /// (0 for a never-used slot).
    pub(crate) fn alloc_slot(&mut self, cols: &[usize], class: u32) -> Result<(u64, u64)> {
        let pkey = (cols[0], class);
        if let Some(entry) = self.free.get_mut(&pkey).and_then(Vec::pop) {
            return Ok(entry);
        }
        loop {
            if let Some(ob) = self.open.get_mut(&pkey) {
                if ob.next_slot < ob.slots {
                    let off =
                        self.store.layout.block_offset(ob.block) + ob.next_slot * class as u64;
                    ob.next_slot += 1;
                    return Ok((off, 0));
                }
                self.open.remove(&pkey);
            }
            let block = self.store.alloc_block_set(cols)?;
            self.open.insert(
                pkey,
                OpenBlock {
                    block,
                    next_slot: 0,
                    slots: self.store.cfg.block_size / class as u64,
                },
            );
        }
    }

    /// Returns the record slot `slot` pointed at to the free list of
    /// `primary`, remembered with `tag`.
    pub(crate) fn free_slot(&mut self, primary: usize, slot: Slot8, tag: u64) {
        self.free
            .entry((primary, slot.record_len() as u32))
            .or_default()
            .push((slot.offset(), tag));
    }

    /// Posts `image` at `offset` on each of `cols` — records and index
    /// words live at identical offsets on every replica column. Inside a
    /// [`DmClient::batch`] the writes share its doorbell.
    pub(crate) fn write_replicas(&self, cols: &[usize], offset: u64, image: &[u8]) -> Result<()> {
        for &c in cols {
            self.dm
                .write(GlobalAddr::new(self.node_of(c), offset), image)?;
        }
        Ok(())
    }

    /// Posts the CAS `old → new` at `offset` on each of `cols`, stopping
    /// with `Ok(false)` at the first replica that held another word.
    pub(crate) fn cas_replicas(
        &self,
        cols: &[usize],
        offset: u64,
        (old, new): (u64, u64),
    ) -> Result<bool> {
        for &c in cols {
            let at = GlobalAddr::new(self.node_of(c), offset);
            if self.dm.cas(at, old, new)? != old {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The engines' half of what `client/locate.rs` is for Aceso: scans
    /// `key`'s buckets in `partition`'s area on `col`, then
    /// [`Self::resolve`]s the candidates.
    pub(crate) fn locate(&mut self, col: usize, partition: usize, key: &[u8]) -> Result<Located> {
        let node = self.node_of(col);
        let scan = self
            .store
            .layout
            .scan(&self.dm, node, partition, key, fingerprint(key))?;
        self.resolve(col, scan, key)
    }

    /// [`Self::locate`] on the first of `cols` that answers: while a column
    /// is down (killed, not yet recovered) the next replica serves the same
    /// scan *degraded* — `partition`'s index area and the records live at
    /// identical offsets on every replica column.
    pub(crate) fn locate_replica(
        &mut self,
        cols: &[usize],
        partition: usize,
        key: &[u8],
    ) -> Result<Located> {
        let mut down = ReplError::Rdma(RdmaError::NodeUnreachable(self.node_of(partition)));
        for &c in cols {
            match self.locate(c, partition, key) {
                Err(e @ ReplError::Rdma(RdmaError::NodeUnreachable(_))) => down = e,
                r => return r,
            }
        }
        Err(down)
    }

    /// Reads `scan`'s candidates on `col` in bucket order until the
    /// protocol judges one `key`'s own, and leaves the cache agreeing with
    /// what it read: a live record is remembered, anything else forgets
    /// the key.
    pub(crate) fn resolve(&mut self, col: usize, scan: Scan, key: &[u8]) -> Result<Located> {
        let (mut slot, mut live) = (None, None);
        for s in &scan.matches {
            let at = GlobalAddr::new(self.node_of(col), s.slot.offset());
            let image = self.dm.read_vec(at, s.slot.record_len())?;
            match P::judge(&image, key) {
                Judged::Foreign => continue,
                Judged::Tombstone => {}
                Judged::Ours(value, tag) => {
                    let len = image.len() as u32;
                    self.cache.insert(
                        key,
                        Cell {
                            offset: s.slot.offset(),
                            len,
                            tag,
                        },
                    );
                    live = Some((value.to_vec(), tag));
                }
            }
            slot = Some(*s);
            break;
        }
        if live.is_none() {
            self.cache.invalidate(key);
        }
        Ok(Located { scan, slot, live })
    }

    /// The op bracket: a body that returns `Ok` is recorded as one `kind`
    /// operation, one that fails leaves no record.
    fn op<T>(&mut self, kind: OpKind, body: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.dm.begin_op();
        let r = body(self);
        match &r {
            Ok(_) => {
                self.dm.end_op(kind);
            }
            Err(_) => self.dm.abort_op(),
        }
        r
    }

    /// SEARCH. `Ok(None)` = absent (including deleted).
    pub fn search(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.op(OpKind::Search, |c| P::search(c, key))
    }

    /// INSERT (upsert semantics, like the Aceso client).
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.op(OpKind::Insert, |c| P::write(c, key, value, true))
    }

    /// UPDATE of an existing key.
    pub fn update(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.op(OpKind::Update, |c| P::write(c, key, value, false))
    }

    /// DELETE; `Ok(false)` if the key was absent.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool> {
        self.op(OpKind::Delete, |c| P::delete(c, key))
    }
}

/// Substrate behaviour, asserted once over both protocols.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusee::Fusee;
    use crate::swarm::Swarm;

    fn loaded<P: Protocol>(cfg: ReplConfig, keys: u32) -> (Arc<ReplStore<P>>, ReplClient<P>) {
        let s = ReplStore::<P>::launch(cfg);
        let mut c = s.client();
        for i in 0..keys {
            let k = format!("key-{i:04}");
            c.insert(k.as_bytes(), format!("val-{i}").as_bytes())
                .unwrap();
        }
        (s, c)
    }

    fn assert_reads_back<P: Protocol>(c: &mut ReplClient<P>, keys: impl Iterator<Item = u32>) {
        for i in keys {
            let k = format!("key-{i:04}");
            assert_eq!(
                c.search(k.as_bytes()).unwrap().as_deref(),
                Some(format!("val-{i}").as_bytes()),
                "[{}] {k}",
                P::NAME
            );
        }
    }

    fn live_nodes<P: Protocol>(s: &ReplStore<P>) -> usize {
        s.cluster.nodes().iter().filter(|n| n.is_alive()).count()
    }

    fn many_keys<P: Protocol>() {
        let (s, mut c) = loaded::<P>(ReplConfig::small(), 1000);
        assert_reads_back(&mut c, (0..1000).step_by(37));
        assert!(s.replica_agreement().is_empty(), "[{}]", P::NAME);
    }

    #[test]
    fn many_keys_roundtrip() {
        many_keys::<Fusee>();
        many_keys::<Swarm>();
    }

    /// With a key's home column down, a cache-cold client still reads it,
    /// served by a backup replica.
    fn degraded_search<P: Protocol>() {
        let (s, _) = loaded::<P>(ReplConfig::small(), 40);
        assert!(s.kill_mn(s.replica_cols(b"key-0000")[0]));
        assert_reads_back(&mut s.client(), 0..40);
    }

    #[test]
    fn degraded_search_served_by_backup() {
        degraded_search::<Fusee>();
        degraded_search::<Swarm>();
    }

    fn recover_restores<P: Protocol>() {
        let (s, _) = loaded::<P>(ReplConfig::small(), 200);
        assert_eq!(s.recover_mn(0).unwrap_err(), ReplError::ColumnAlive);
        let victim = s.replica_cols(b"key-0000")[0];
        let old_node = s.node_of(victim);
        assert!(s.kill_mn(victim));
        let rep = s.recover_mn(victim).unwrap();
        assert!(rep.blocks > 0 && rep.index_bytes > 0 && rep.net_ms > 0.0);
        assert_ne!(s.node_of(victim), old_node, "directory must repoint");
        assert_eq!(live_nodes(&s), 5);
        // Everything reads back through the recovered column, writes work,
        // and the replicas agree again.
        let mut fresh = s.client();
        assert_reads_back(&mut fresh, 0..200);
        fresh.update(b"key-0000", b"post-recovery").unwrap();
        assert_eq!(
            fresh.search(b"key-0000").unwrap().as_deref(),
            Some(&b"post-recovery"[..])
        );
        assert!(s.replica_agreement().is_empty(), "[{}]", P::NAME);
        assert_eq!(s.recover_mn(victim), Err(ReplError::ColumnAlive));
    }

    #[test]
    fn column_recovery_restores_on_fresh_node() {
        recover_restores::<Fusee>();
        recover_restores::<Swarm>();
    }

    /// A `recover_mn` that finds no live source returns the error and adds
    /// no node — at `replicas: 1` (Figure 1a's geometry) and at
    /// `replicas: 2` with the partition's other host dead too.
    fn failed_recovery_leaks_nothing<P: Protocol>() {
        for (replicas, also_dead) in [(1, None), (2, Some(1)), (2, Some(4))] {
            let cfg = ReplConfig {
                replicas,
                ..ReplConfig::small()
            };
            let (s, _) = loaded::<P>(cfg, 100);
            assert!(s.kill_mn(0));
            if let Some(col) = also_dead {
                assert!(s.kill_mn(col));
            }
            let (nodes, live) = (s.cluster.len(), live_nodes(&s));
            for _ in 0..2 {
                assert!(
                    matches!(
                        s.recover_mn(0),
                        Err(ReplError::Rdma(RdmaError::NodeUnreachable(_)))
                    ),
                    "[{}] r={replicas}",
                    P::NAME
                );
                assert_eq!(s.cluster.len(), nodes, "[{}] orphan node added", P::NAME);
                assert_eq!(live_nodes(&s), live, "[{}] orphan node alive", P::NAME);
            }
        }
    }

    #[test]
    fn failed_recover_mn_leaks_no_node() {
        failed_recovery_leaks_nothing::<Fusee>();
        failed_recovery_leaks_nothing::<Swarm>();
    }

    /// A client whose cache holds 8 keys, with `keys` (10× that) loaded
    /// through it.
    fn churned<P: Protocol>(keys: u32) -> (Arc<ReplStore<P>>, ReplClient<P>) {
        let s = ReplStore::<P>::launch(ReplConfig::small());
        let mut c = s.client();
        assert_eq!(c.cache.capacity(), ClientTuning::default().cache_capacity);
        c.cache.set_capacity(8);
        for i in 0..keys {
            let k = format!("key-{i:04}");
            c.insert(k.as_bytes(), format!("val-{i}").as_bytes())
                .unwrap();
            assert!(c.cache.len() <= 8, "[{}] bound broken at {i}", P::NAME);
        }
        assert_eq!(c.cache.len(), 8, "[{}]", P::NAME);
        (s, c)
    }

    /// An evicted key costs a `locate` — the bucket scan, then the record —
    /// which reads the latest value back and remembers the key again.
    fn evicted_key_relocates<P: Protocol>() {
        let (s, mut c) = churned::<P>(80);
        assert_reads_back(&mut c, (0..80).step_by(7));
        assert!(
            c.cache.len() <= 8,
            "[{}] reads must respect the bound",
            P::NAME
        );
        let evicted = (0..80u32)
            .map(|i| format!("key-{i:04}").into_bytes())
            .filter(|k| !c.cache.contains(k))
            .take(2)
            .collect::<Vec<_>>();
        let [searched, updated] = &evicted[..] else {
            panic!("[{}] 80 keys through 8 entries evict most", P::NAME)
        };
        let mut other = s.client();
        other.update(searched, b"latest").unwrap();
        c.dm.take_ops();
        assert_eq!(c.search(searched).unwrap().as_deref(), Some(&b"latest"[..]));
        c.update(updated, b"mine").unwrap();
        for rec in c.dm.take_ops().records {
            assert!(
                rec.rtts >= 2,
                "[{}] {:?} skipped the scan",
                P::NAME,
                rec.kind
            );
        }
        assert!(c.cache.contains(searched) && c.cache.contains(updated));
        assert_eq!(
            other.search(updated).unwrap().as_deref(),
            Some(&b"mine"[..])
        );
        assert!(s.replica_agreement().is_empty(), "[{}]", P::NAME);
    }

    #[test]
    fn cache_is_bounded_and_evicted_keys_relocate() {
        evicted_key_relocates::<Fusee>();
        evicted_key_relocates::<Swarm>();
    }

    /// An entry made stale by another client's same-class update is never
    /// served: SEARCH chases the fresh record, UPDATE falls back and commits
    /// — with the cache at 8 entries and under churn, as at any capacity.
    fn stale_entry_falls_back<P: Protocol>() {
        let (s, mut b) = churned::<P>(80);
        let mut a = s.client();
        for round in 0..3u32 {
            assert!(b.search(b"key-0003").unwrap().is_some()); // b remembers the key…
            let theirs = format!("val-{round}");
            a.update(b"key-0003", theirs.as_bytes()).unwrap(); // …a moves it on.
            if round % 2 == 0 {
                let got = b.search(b"key-0003").unwrap();
                assert_eq!(got.as_deref(), Some(theirs.as_bytes()), "[{}]", P::NAME);
            }
            let mine = format!("VAL-{round}");
            b.update(b"key-0003", mine.as_bytes()).unwrap();
            let got = a.search(b"key-0003").unwrap();
            assert_eq!(got.as_deref(), Some(mine.as_bytes()), "[{}]", P::NAME);
            assert!(b.cache.len() <= 8);
        }
        assert!(s.replica_agreement().is_empty(), "[{}]", P::NAME);
    }

    #[test]
    fn stale_entries_fall_back_at_capacity_8() {
        stale_entry_falls_back::<Fusee>();
        stale_entry_falls_back::<Swarm>();
    }

    fn space_accounting<P: Protocol>() {
        let s = ReplStore::<P>::launch(ReplConfig::small());
        let mut c = s.client();
        for i in 0..64u32 {
            c.insert(format!("mem-{i:03}").as_bytes(), &[9u8; 100])
                .unwrap();
        }
        let u = s.memory_usage();
        assert_eq!(u.valid, 64 * (8 + 7 + 100), "[{}]", P::NAME);
        assert_eq!(
            u.redundancy,
            u.valid * 2 + 64 * 3 * P::CELL_OVERHEAD,
            "[{}] r=3 keeps 2 extra copies plus the per-cell overhead on all 3",
            P::NAME
        );
        assert!(u.allocated > 0);
    }

    #[test]
    fn space_walk_reports_replication_overhead() {
        space_accounting::<Fusee>();
        space_accounting::<Swarm>();
    }
}
