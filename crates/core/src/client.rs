//! The Aceso client: INSERT / UPDATE / SEARCH / DELETE over one-sided verbs.
//!
//! Clients execute every KV request without involving MN CPUs (§3.1):
//!
//! * **Commits** follow Algorithm 1 (slot versioning): one `RDMA_CAS` on the
//!   slot's Atomic word is the commit point; every 256th update to a slot
//!   additionally walks the Meta-epoch lock protocol; lost races invalidate
//!   the orphaned KV pair by stamping Slot Version −1.
//! * **Writes** append the KV pair to the client's open DATA block and its
//!   XOR delta to the two DELTA blocks on the parity-holding MNs, all in one
//!   doorbell batch (§3.3.2).
//! * **Reads** go through the local index cache, which stores both the slot
//!   *value* and the slot *address*, so a hit costs one batched round trip
//!   of `KV read + 16 B slot re-read` (§3.5.1).
//! * **Degraded reads** reconstruct just the needed slot range from one
//!   X-Code parity chain when the block's MN is down (§3.4.1).
//!
//! A client is owned by one thread, mirroring one client coroutine of the
//! paper's testbed.

use crate::cache::{CacheEntry, IndexCache};
use crate::config::{pack_col, unpack_col, ClientTuning, MemoryMap};
use crate::kv::{self, INVALID_SLOT_VERSION, SLOT_VER_OFF};
use crate::placement::{PlacementMap, PlacementSnapshot};
use crate::proto::{ServerReq, ServerResp};
use crate::server::Directory;
use crate::{Result, StoreError};
use aceso_blockalloc::{BlockId, BlockRecord, CellKind};
use aceso_erasure::{xor_into, XCode};
use aceso_index::slot::slot_version;
use aceso_index::{fingerprint, route_hash, RemoteIndex, SlotAtomic, SlotMeta};
use aceso_obs::{Counter, Histogram, Obs, Registry};
use aceso_rdma::{Cluster, DmClient, GlobalAddr, NodeId, OpKind, OpRecord, RdmaError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Protocol-step injection sites in the commit path (Algorithm 1).
///
/// This is the shared crash-site vocabulary used by the crash-consistency
/// tests and the `aceso-chaos` matrix runner: setting
/// [`AcesoClient::crash_point`] makes the *next* operation that reaches the
/// site return [`StoreError::Shutdown`] mid-protocol, leaving memory in
/// exactly the state a client crash at that step would leave it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CrashPoint {
    /// Crash after allocating the KV slot, before any fabric write.
    BeforeKvWrite,
    /// Crash after writing the KV slot but before the delta slots.
    AfterKvWrite,
    /// Crash after KV + delta writes, before the commit CAS.
    BeforeCommit,
    /// Crash right after a successful commit CAS, before the obsolete
    /// mark / Meta refresh / cache update.
    AfterCommit,
    /// Crash while holding the slot's Meta-epoch lock (version rollover or
    /// lock-break path, Algorithm 1 lines 7–13) — the lock is left for the
    /// next writer to break.
    WhileMetaLocked,
}

impl CrashPoint {
    /// Every site, in protocol order (matrix enumeration).
    pub const ALL: [CrashPoint; 5] = [
        CrashPoint::BeforeKvWrite,
        CrashPoint::AfterKvWrite,
        CrashPoint::BeforeCommit,
        CrashPoint::AfterCommit,
        CrashPoint::WhileMetaLocked,
    ];
}

impl core::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            CrashPoint::BeforeKvWrite => "before-kv-write",
            CrashPoint::AfterKvWrite => "after-kv-write",
            CrashPoint::BeforeCommit => "before-commit",
            CrashPoint::AfterCommit => "after-commit",
            CrashPoint::WhileMetaLocked => "while-meta-locked",
        };
        f.write_str(s)
    }
}

/// Deliberate protocol weakenings for checker-liveness self-tests.
///
/// The exhaustive explorer (`aceso-model`) proves its oracles are alive by
/// re-running its scenarios with exactly one ordering edge of the commit
/// protocol removed and asserting a violation is found, in the same spirit
/// as `aceso-san`'s detector self-tests. Setting
/// [`AcesoClient::mutation`] makes *every* operation of that client run the
/// weakened protocol; production code never sets it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelMutation {
    /// Skip the commit CAS on the Atomic word but report the commit as
    /// successful — an acknowledged update that no reader can ever see.
    SkipCommitCas,
    /// Issue the two delta writes *after* the commit CAS instead of
    /// before it, reopening the torn window Algorithm 1 closes: a crash
    /// between commit and delta write leaves an acknowledged-visible KV
    /// whose rollback repair un-publishes it.
    ReorderDeltaPastCommit,
    /// Never break a stale Meta-epoch lock left by a crashed client —
    /// writers give up instead (§3.2.2 remark 2 removed), so a crash
    /// while locked wedges the slot forever.
    SkipLockBreak,
}

impl core::fmt::Display for ModelMutation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            ModelMutation::SkipCommitCas => "skip-commit-cas",
            ModelMutation::ReorderDeltaPastCommit => "reorder-delta-past-commit",
            ModelMutation::SkipLockBreak => "skip-lock-break",
        };
        f.write_str(s)
    }
}

#[derive(Clone, Copy, Debug)]
struct DeltaRef {
    col: usize,
    block_off: u64,
    parity_row: usize,
}

struct OpenBlock {
    col: usize,
    block: BlockId,
    array: u64,
    row: usize,
    block_off: u64,
    slot_bytes: usize,
    fill_order: Vec<u32>,
    next: usize,
    deltas: [DeltaRef; 2],
    old_copy: Option<Vec<u8>>,
}

/// Pre-resolved metric handles for one operation kind. Resolved once at
/// client creation so the enabled hot path never does a name lookup.
struct OpMetrics {
    count: Counter,
    verbs: Counter,
    cas: Counter,
    retries: Counter,
    lat_us: Histogram,
    batch_depth: Histogram,
    batches: Histogram,
    batched_verbs: Counter,
}

impl OpMetrics {
    fn new(reg: &Registry, kind: OpKind) -> Self {
        let k = kind.name().to_ascii_lowercase();
        OpMetrics {
            count: reg.counter(&format!("client.{k}.count")),
            verbs: reg.counter(&format!("client.{k}.verbs")),
            cas: reg.counter(&format!("client.{k}.cas")),
            retries: reg.counter(&format!("client.{k}.retries")),
            lat_us: reg.histogram(&format!("client.{k}.us")),
            batch_depth: reg.histogram(&format!("client.{k}.batch_depth")),
            batches: reg.histogram(&format!("client.{k}.batches")),
            batched_verbs: reg.counter(&format!("client.{k}.batched_verbs")),
        }
    }
}

/// Per-client observability handles; present only when the owning store
/// has a recorder installed (see `AcesoStore::install_recorder`).
struct ClientMetrics {
    ops: [OpMetrics; 4],
    commit_retries: Counter,
    recovery_waits: Counter,
    degraded_reads: Counter,
    retry_attempts: Counter,
    retry_exhausted: Counter,
}

impl ClientMetrics {
    fn new(reg: &Registry) -> Self {
        ClientMetrics {
            ops: OpKind::ALL.map(|k| OpMetrics::new(reg, k)),
            commit_retries: reg.counter("client.commit.cas_retries"),
            recovery_waits: reg.counter("client.commit.recovery_waits"),
            degraded_reads: reg.counter("client.search.degraded"),
            retry_attempts: reg.counter("client.retry.attempts"),
            retry_exhausted: reg.counter("client.retry.exhausted"),
        }
    }

    fn op(&self, kind: OpKind) -> &OpMetrics {
        let i = OpKind::ALL.iter().position(|k| *k == kind).unwrap();
        &self.ops[i]
    }

    /// Attaches a completed op profile to the per-kind metrics: verb
    /// counts, CAS count, commit retries and doorbell-batch shape (depth
    /// of the deepest batch, batches per op, verbs that rode in one).
    fn record(&self, rec: &OpRecord) {
        let m = self.op(rec.kind);
        m.count.inc();
        m.verbs.add(rec.verbs as u64);
        m.cas.add(rec.cas as u64);
        m.retries.add(rec.retries as u64);
        m.batch_depth.record(rec.batch_max as f64);
        m.batches.record(rec.batches as f64);
        m.batched_verbs.add(rec.batched_verbs as u64);
    }
}

struct SlotPlace {
    col: usize,
    kv_off: u64,
    slot_bytes: usize,
    packed: u64,
    deltas: [(usize, u64); 2],
    old_slot: Option<Vec<u8>>,
    block: BlockId,
}

/// The unified retry/backoff policy: every retry loop in the client — index
/// verbs across a recovery window, the commit loop, the elastic migrator's
/// per-batch RPCs — charges attempts against one budget and backs off with
/// a deterministic exponential schedule on *virtual* CQ time
/// ([`DmClient::backoff`]), never the wall clock, so pipelined runs and
/// chaos matrices replay identically.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RetryPolicy {
    budget: usize,
    attempts: usize,
    base_us: u64,
    cap_us: u64,
}

impl RetryPolicy {
    /// A policy allowing `budget` retries, backing off 500 µs on the first
    /// and 1 ms on every later one (so a budget expressed in milliseconds —
    /// like `ClientTuning::index_wait_ms` — still waits about that long).
    pub(crate) fn new(budget: usize) -> Self {
        RetryPolicy {
            budget,
            attempts: 0,
            base_us: 500,
            cap_us: 1000,
        }
    }

    /// Charges one attempt: `Some(backoff µs)` while budget remains,
    /// `None` once exhausted. Callers decide whether to actually back off
    /// (CAS contention retries re-resolve immediately).
    pub(crate) fn charge(&mut self) -> Option<u64> {
        if self.attempts >= self.budget {
            return None;
        }
        let us = (self.base_us << self.attempts.min(8)).min(self.cap_us);
        self.attempts += 1;
        Some(us)
    }
}

/// A client endpoint of the Aceso store.
pub struct AcesoClient {
    cluster: Arc<Cluster>,
    dir: Arc<Directory>,
    map: MemoryMap,
    /// The store-wide placement map (elastic migration).
    placement: Arc<PlacementMap>,
    /// The placement snapshot this client currently operates under; stale
    /// snapshots are rejected by epoch fences and refreshed via
    /// [`AcesoClient::refresh_placement`].
    pl: Arc<PlacementSnapshot>,
    xcode: XCode,
    /// The underlying fabric client (benches read its profiles).
    pub dm: DmClient,
    cli_id: u32,
    tuning: ClientTuning,
    bitmap_flush_every: usize,
    blocks: BTreeMap<u8, OpenBlock>,
    /// The bounded, hotness-aware index cache (see [`crate::cache`]).
    cache: IndexCache,
    /// Invalidation writes for speculation-lost KVs, deferred so they can
    /// ride inside the next doorbell batch of the same operation instead
    /// of paying their own round trip. Always drained before the
    /// operation returns (see `upsert`). Stored as `(col, off, bytes)` —
    /// the physical node (and any migration mirror) is resolved at flush
    /// time, so a placement change between defer and drain cannot strand
    /// the write on a retired node.
    pending_inval: Vec<(usize, u64, [u8; 8])>,
    pending_bits: BTreeMap<(usize, BlockId), Vec<u32>>,
    pending_count: usize,
    alloc_rr: usize,
    /// Armed injection site: the next operation reaching it aborts with
    /// [`StoreError::Shutdown`], simulating a client crash mid-protocol.
    pub crash_point: Option<CrashPoint>,
    /// Armed protocol weakening (checker-liveness self-tests only); see
    /// [`ModelMutation`].
    pub mutation: Option<ModelMutation>,
    /// Delta writes held back by [`ModelMutation::ReorderDeltaPastCommit`],
    /// issued after the commit CAS instead of inside the write batch.
    deferred_deltas: Vec<(usize, u64, Vec<u8>)>,
    /// Pre-resolved metric handles; `None` (the default) keeps every
    /// probe on the existing no-recorder fast path.
    metrics: Option<ClientMetrics>,
}

impl AcesoClient {
    /// Creates a client (used by `AcesoStore::client`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cluster: Arc<Cluster>,
        dir: Arc<Directory>,
        map: MemoryMap,
        placement: Arc<PlacementMap>,
        cli_id: u32,
        tuning: ClientTuning,
        bitmap_flush_every: usize,
        obs: Obs,
    ) -> Self {
        let n = map.blocks.n;
        let dm = cluster.client();
        let pl = placement.snapshot();
        // Declare the snapshot's epoch on the fabric client: ranges fenced
        // at a *newer* epoch must reject this client until it refreshes
        // (the client's u64::MAX default would bypass every fence).
        dm.set_placement_epoch(pl.epoch);
        let cache = IndexCache::new(
            tuning.cache_capacity,
            obs.registry().map(|r| r.as_ref()),
        );
        AcesoClient {
            dm,
            cluster,
            dir,
            map,
            placement,
            pl,
            xcode: XCode::new(n).expect("validated by config"),
            cli_id,
            tuning,
            bitmap_flush_every,
            blocks: BTreeMap::new(),
            cache,
            pending_inval: Vec::new(),
            pending_bits: BTreeMap::new(),
            pending_count: 0,
            alloc_rr: cli_id as usize,
            crash_point: None,
            mutation: None,
            deferred_deltas: Vec::new(),
            metrics: obs.registry().map(|r| ClientMetrics::new(r)),
        }
    }

    /// This client's id (CLI ID in block records).
    pub fn id(&self) -> u32 {
        self.cli_id
    }

    /// Adjusts feature switches (factor analysis).
    pub fn set_tuning(&mut self, tuning: ClientTuning) {
        self.tuning = tuning;
        self.cache.set_capacity(tuning.cache_capacity);
        if !tuning.use_cache {
            self.cache.clear();
        }
    }

    /// Number of entries currently held by the index cache (tests and
    /// factor analysis).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the index cache currently holds `key` (tests).
    pub fn cache_contains(&self, key: &[u8]) -> bool {
        self.cache.contains(key)
    }

    /// Adopts the latest placement snapshot immediately, as an epoch fence
    /// bounce would (tests exercising the cache-purge protocol without
    /// having to provoke a fence).
    #[doc(hidden)]
    pub fn force_refresh_placement(&mut self) {
        self.refresh_placement();
    }

    #[inline]
    fn n(&self) -> usize {
        self.map.blocks.n
    }

    /// The physical node currently serving `(col, off)`: the placement
    /// snapshot's override when the column is mid-migration, otherwise the
    /// directory (index/meta areas, unmoved groups, non-migrating columns).
    #[inline]
    fn node_of(&self, col: usize, off: u64) -> NodeId {
        self.pl
            .resolve(col, off, &self.map)
            .unwrap_or_else(|| self.dir.node_of(col))
    }

    #[inline]
    fn addr(&self, col: usize, off: u64) -> GlobalAddr {
        GlobalAddr::new(self.node_of(col, off), off)
    }

    /// Adopts the latest placement snapshot after an epoch fence, purging
    /// every cache entry the change could have invalidated:
    ///
    /// * entries whose slot address points at a **retired** node — the
    ///   retired memory may still respond, but nothing on it is current;
    /// * entries whose index column or KV column **changed placement after
    ///   the entry was filled** ([`PlacementSnapshot::col_epoch`] vs the
    ///   entry's fill epoch). This is the case retirement alone misses: a
    ///   mid-migration column already serves some offsets from the target
    ///   while its source is not retired yet, and once this client adopts
    ///   the new epoch the fences no longer bounce it — a stale cached
    ///   physical address would read (or CAS) through to the wrong side
    ///   undetected.
    fn refresh_placement(&mut self) {
        self.pl = self.placement.snapshot();
        self.dm.set_placement_epoch(self.pl.epoch);
        let pl = Arc::clone(&self.pl);
        if pl.retired.is_empty() && pl.col_epochs.is_empty() {
            return;
        }
        let n = self.n() as u64;
        self.cache.purge(|key, e| {
            if pl.retired.contains(&e.slot_addr.node) {
                return true;
            }
            let index_col = (route_hash(key) % n) as usize;
            let (kv_col, _) = unpack_col(e.atomic.addr48);
            pl.col_epoch(index_col) > e.fill_epoch || pl.col_epoch(kv_col) > e.fill_epoch
        });
    }

    /// Charges one attempt against `policy`, tracking the unified
    /// `client.retry.{attempts,exhausted}` counters.
    fn charge_retry(&self, policy: &mut RetryPolicy) -> Option<u64> {
        match policy.charge() {
            Some(us) => {
                if let Some(m) = &self.metrics {
                    m.retry_attempts.inc();
                }
                Some(us)
            }
            None => {
                if let Some(m) = &self.metrics {
                    m.retry_exhausted.inc();
                }
                None
            }
        }
    }

    /// Block-area write, placement-aware: the primary goes first (so an
    /// epoch fence aborts the batch before any byte lands), then the
    /// dual-write mirror while a migration window is open — both sides of
    /// an in-flight move stay byte-fresh, which is what makes aborting a
    /// migration (and recovering through the directory) safe.
    fn write_block(
        &self,
        dm: &DmClient,
        col: usize,
        off: u64,
        bytes: &[u8],
    ) -> aceso_rdma::Result<()> {
        dm.write(GlobalAddr::new(self.node_of(col, off), off), bytes)?;
        if let Some(node) = self.pl.mirror(col, off, &self.map) {
            dm.write(GlobalAddr::new(node, off), bytes)?;
        }
        Ok(())
    }

    /// Inline (≤ 64 B) variant of [`AcesoClient::write_block`].
    fn write_block_inline(
        &self,
        dm: &DmClient,
        col: usize,
        off: u64,
        bytes: &[u8],
    ) -> aceso_rdma::Result<()> {
        dm.write_inline(GlobalAddr::new(self.node_of(col, off), off), bytes)?;
        if let Some(node) = self.pl.mirror(col, off, &self.map) {
            dm.write_inline(GlobalAddr::new(node, off), bytes)?;
        }
        Ok(())
    }

    fn index_of(&self, key: &[u8]) -> (usize, RemoteIndex) {
        let col = (route_hash(key) % self.n() as u64) as usize;
        (col, RemoteIndex::new(self.dir.node_of(col), self.map.index))
    }

    fn rpc(&self, col: usize, req: ServerReq, bytes: usize) -> Result<ServerResp> {
        Ok(self
            .dm
            .rpc(self.dir.node_of(col), &self.dir.rpc_of(col), req, bytes)?)
    }

    // ---- Public API -----------------------------------------------------

    /// Inserts (or overwrites) `key` with `value`.
    ///
    /// ```
    /// use aceso_core::{AcesoConfig, AcesoStore};
    ///
    /// let store = AcesoStore::launch(AcesoConfig::small()).unwrap();
    /// let mut client = store.client().unwrap();
    /// client.insert(b"user1", b"alice").unwrap();
    /// client.update(b"user1", b"bob").unwrap();
    /// assert_eq!(client.search(b"user1").unwrap(), Some(b"bob".to_vec()));
    /// assert!(client.delete(b"user1").unwrap());
    /// assert_eq!(client.search(b"user1").unwrap(), None);
    /// ```
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let cq = self.dm.cq();
        aceso_rdma::cq::block_on(cq, self.insert_async(key, value))
    }

    /// Updates an existing key; `NotFound` if absent.
    pub fn update(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let cq = self.dm.cq();
        aceso_rdma::cq::block_on(cq, self.update_async(key, value))
    }

    /// Deletes a key by committing a tombstone; returns whether it existed.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool> {
        let cq = self.dm.cq();
        aceso_rdma::cq::block_on(cq, self.delete_async(key))
    }

    /// Point lookup.
    pub fn search(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let cq = self.dm.cq();
        aceso_rdma::cq::block_on(cq, self.search_async(key))
    }

    // ---- Async API (coroutine pipelining, see `aceso-rt`) ---------------
    //
    // Each op is a resumable state machine that suspends at every fabric
    // round trip (`DmClient::settle`). With a completion queue attached
    // (`self.dm.attach_cq`) and many client tasks multiplexed on one
    // `aceso_rt::Executor`, suspended round trips overlap exactly like the
    // paper's client coroutines. The blocking API above is a thin
    // `block_on` wrapper, so protocol behaviour — commit points, crash
    // sites, trace ids — is identical in both modes.

    /// Async [`AcesoClient::insert`]: suspends at each fabric round trip.
    pub async fn insert_async(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let _span = self.op_span(OpKind::Insert);
        self.dm.begin_op();
        let r = self.upsert(key, value, false, true).await;
        self.dm.settle().await;
        self.finish_op(&r, OpKind::Insert);
        r.map(|_| ())
    }

    /// Async [`AcesoClient::update`]: suspends at each fabric round trip.
    pub async fn update_async(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let _span = self.op_span(OpKind::Update);
        self.dm.begin_op();
        let r = self.upsert(key, value, false, false).await;
        self.dm.settle().await;
        self.finish_op(&r, OpKind::Update);
        r.map(|_| ())
    }

    /// Async [`AcesoClient::delete`]: suspends at each fabric round trip.
    pub async fn delete_async(&mut self, key: &[u8]) -> Result<bool> {
        let _span = self.op_span(OpKind::Delete);
        self.dm.begin_op();
        let r = self.upsert(key, b"", true, false).await;
        self.dm.settle().await;
        match r {
            Ok(()) => {
                self.note_finished(OpKind::Delete);
                Ok(true)
            }
            Err(StoreError::NotFound) => {
                self.note_finished(OpKind::Delete);
                Ok(false)
            }
            Err(e) => {
                self.dm.abort_op();
                Err(e)
            }
        }
    }

    /// Async [`AcesoClient::search`]: suspends at each fabric round trip.
    pub async fn search_async(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let _span = self.op_span(OpKind::Search);
        self.dm.begin_op();
        let mut fenced = RetryPolicy::new(8);
        let r = loop {
            match self.search_inner(key).await {
                Err(StoreError::Rdma(RdmaError::EpochFenced { .. }))
                    if self.charge_retry(&mut fenced).is_some() =>
                {
                    // A KV read hit a migration fence through a stale
                    // placement (or a stale cached physical address):
                    // refresh and re-resolve from the index.
                    self.cache.invalidate(key);
                    self.refresh_placement();
                }
                r => break r,
            }
        };
        self.dm.settle().await;
        self.finish_op(&r, OpKind::Search);
        r
    }

    /// Flushes buffered obsolete-KV bits to the MN servers.
    pub fn flush_bitmaps(&mut self) -> Result<()> {
        let pending = std::mem::take(&mut self.pending_bits);
        self.pending_count = 0;
        let mut by_col: BTreeMap<usize, Vec<(BlockId, Vec<u32>)>> = BTreeMap::new();
        for ((col, block), slots) in pending {
            by_col.entry(col).or_default().push((block, slots));
        }
        for (col, updates) in by_col {
            let bytes = 16 * updates.len() + 64;
            self.rpc(col, ServerReq::BitmapFlush { updates }, bytes)?
                .expect_ok()?;
        }
        Ok(())
    }

    /// Drops the local index cache (tests and factor analysis).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Starts the wall-clock span for one API call; `None` keeps the
    /// uninstrumented fast path (no clock read).
    fn op_span(&self, kind: OpKind) -> Option<aceso_obs::HistTimer> {
        self.metrics.as_ref().map(|m| m.op(kind).lat_us.start_timer())
    }

    /// Ends profiling and attaches the op profile to the metrics.
    fn note_finished(&self, kind: OpKind) {
        let rec = self.dm.end_op(kind);
        if let (Some(m), Some(rec)) = (&self.metrics, rec) {
            m.record(&rec);
        }
    }

    fn finish_op<T>(&self, r: &Result<T>, kind: OpKind) {
        match r {
            Ok(_) => self.note_finished(kind),
            Err(_) => self.dm.abort_op(),
        }
    }

    /// Aborts mid-protocol if `site` is the armed crash point.
    fn maybe_crash(&self, site: CrashPoint) -> Result<()> {
        if self.crash_point == Some(site) {
            return Err(StoreError::Shutdown);
        }
        Ok(())
    }

    // ---- SEARCH ---------------------------------------------------------

    async fn search_inner(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let fp = fingerprint(key);
        if self.tuning.use_cache {
            if let Some(entry) = self.cache.get(key) {
                if self.tuning.cache_slot_addr {
                    // A `None` falls through to a full query.
                    if let Some(found) = self.search_via_cache(key, fp, entry).await? {
                        return Ok(found);
                    }
                } else if let Some(found) = self.search_value_cache(key, fp, entry).await? {
                    return Ok(found);
                }
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
                    Some(d) if d.key == key => self.value_of(d),
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
        let (_, index) = self.index_of(key);
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
                            return Ok(Some(self.value_of(d).and_then(|v| v)));
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
        let (_, index) = self.index_of(key);
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
                    let hint = (cand.meta.len64.max(4) as usize) * 64;
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
                if self.tuning.use_cache {
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
                }
                return Ok(val);
            }
        }
        Ok(None)
    }

    /// Reads the KV a slot points at and verifies the key. Returns
    /// `None` if the KV belongs to a different key (fingerprint collision);
    /// `Some(None)` for a tombstone; `Some(Some(v))` for a live value.
    #[allow(clippy::type_complexity)]
    async fn read_and_verify(
        &mut self,
        atomic: SlotAtomic,
        meta: SlotMeta,
        key: &[u8],
    ) -> Result<Option<Option<Vec<u8>>>> {
        let (col, off) = unpack_col(atomic.addr48);
        let hint = (meta.len64.max(4) as usize) * 64;
        let read = self.dm.read_vec(self.addr(col, off), hint);
        self.dm.settle().await;
        self.classify_kv_read(read, col, off, hint, key).await
    }

    /// Classifies one candidate KV read (possibly prefetched in a doorbell
    /// batch) into the tri-state of [`Self::read_and_verify`].
    ///
    /// Only two situations route to the X-Code degraded reconstruct: an
    /// unreachable node, and a slot that reads back *unwritten* (write
    /// version 0 — a zeroed, not-yet-recovered block on a replacement MN).
    /// Every other decode failure on a healthy node is content that simply
    /// is not this key's live KV — a stale or colliding slot — and must be
    /// reported as a collision (`None`) so the candidate scan continues.
    #[allow(clippy::type_complexity)]
    async fn classify_kv_read(
        &mut self,
        read: aceso_rdma::Result<Vec<u8>>,
        col: usize,
        off: u64,
        hint: usize,
        key: &[u8],
    ) -> Result<Option<Option<Vec<u8>>>> {
        match read {
            Ok(buf) => {
                if let Some(d) = kv::decode(&buf) {
                    if d.key != key {
                        return Ok(None);
                    }
                    if d.is_invalidated() {
                        return Ok(None);
                    }
                    return Ok(Some(self.value_of(d).and_then(|v| v)));
                }
                if buf.is_empty() || buf[0] == 0 {
                    // Unwritten bytes on a reachable node: an unrecovered
                    // block on a replacement MN → degraded read.
                    return self.fetch_kv_degraded(col, off, hint, key).await;
                }
                // Truncated read (stale len64)? Retry with the header's own
                // sizes, but only if the header is plausible: a valid write
                // version, a length that really exceeds the hint, and a
                // size class that exists. Anything else is stale/foreign
                // content, i.e. a collision — not a degraded block.
                if buf.len() >= kv::KV_HEADER && buf[0] <= 2 {
                    let klen = u16::from_le_bytes(buf[2..4].try_into().unwrap()) as usize;
                    let vlen = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
                    let need = kv::KV_HEADER + klen + vlen + 1;
                    if need > hint && need <= (u8::MAX as usize) * 64 {
                        if let Ok(class) = kv::class_for(klen, vlen) {
                            let full = self.dm.read_vec(self.addr(col, off), class as usize * 64);
                            self.dm.settle().await;
                            let full = full?;
                            if let Some(d) = kv::decode(&full) {
                                if d.key == key && !d.is_invalidated() {
                                    return Ok(Some(self.value_of(d).and_then(|v| v)));
                                }
                            }
                        }
                    }
                }
                Ok(None)
            }
            Err(RdmaError::NodeUnreachable(_)) => self.fetch_kv_degraded(col, off, hint, key).await,
            Err(e) => Err(e.into()),
        }
    }

    fn value_of(&self, d: kv::DecodedKv<'_>) -> Option<Option<Vec<u8>>> {
        if d.tombstone {
            Some(None)
        } else {
            Some(Some(d.value.to_vec()))
        }
    }

    // ---- Degraded SEARCH (§3.4.1) ----------------------------------------

    /// Reconstructs the slot-range bytes of a KV whose block is unavailable,
    /// by XORing the same byte range of one parity chain (plus deltas).
    ///
    /// Same tri-state as [`Self::read_and_verify`]: `None` is a fingerprint
    /// collision (the reconstructed KV belongs to a different key — keep
    /// scanning), `Some(None)` a tombstone, `Some(Some(v))` a live value.
    #[allow(clippy::type_complexity)]
    async fn fetch_kv_degraded(
        &mut self,
        col: usize,
        off: u64,
        len: usize,
        key: &[u8],
    ) -> Result<Option<Option<Vec<u8>>>> {
        if let Some(m) = &self.metrics {
            m.degraded_reads.inc();
        }
        let buf = self.reconstruct_range(col, off, len);
        self.dm.settle().await;
        let buf = buf?;
        match kv::decode(&buf) {
            Some(d) if d.key == key && !d.is_invalidated() => Ok(self.value_of(d)),
            _ => Ok(None),
        }
    }

    /// Range-limited X-Code reconstruction:
    /// `C_t = P ⊕ ⊕_{k≠t, encoded}(C_k ⊕ D_k) ⊕ D_t` over one chain.
    fn reconstruct_range(&mut self, col: usize, off: u64, len: usize) -> Result<Vec<u8>> {
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

    // ---- Write path (Algorithm 1) ----------------------------------------

    async fn upsert(
        &mut self,
        key: &[u8],
        value: &[u8],
        tombstone: bool,
        allow_insert: bool,
    ) -> Result<()> {
        let r = self.upsert_inner(key, value, tombstone, allow_insert).await;
        // Invalidations deferred by a speculation loss normally drain
        // inside a later batch of the same op; any remainder (e.g. the op
        // ended in NotFound before another write) goes out now. A
        // simulated crash skips this on purpose — a dead client posts
        // nothing, which is exactly the window recovery must tolerate.
        if !matches!(r, Err(StoreError::Shutdown)) {
            self.flush_invals()?;
            self.dm.settle().await;
        }
        r
    }

    async fn upsert_inner(
        &mut self,
        key: &[u8],
        value: &[u8],
        tombstone: bool,
        allow_insert: bool,
    ) -> Result<()> {
        if key.is_empty() {
            return Err(StoreError::TooLarge);
        }
        let fp = fingerprint(key);
        let class = kv::class_for(key.len(), value.len())?;

        let mut policy = RetryPolicy::new(self.tuning.max_retries);
        loop {
            // Re-resolve the index partition each attempt: the column may
            // have moved to a replacement MN mid-recovery.
            let (_, index) = self.index_of(key);
            // Locate the slot (cache first, then scan + verify).
            let outcome = async {
                // Cache hit on a plain update: speculate and fold the slot
                // revalidation into the write batch (one RTT saved).
                if let Some(entry) = self.pipelined_entry(key, allow_insert) {
                    return self
                        .commit_update_pipelined(
                            &index,
                            key,
                            value,
                            tombstone,
                            fp,
                            class,
                            allow_insert,
                            entry,
                        )
                        .await;
                }
                match self.locate_slot(&index, key, fp).await? {
                    Located::Existing(slot_addr, atomic, meta, was_tombstone) => {
                        if was_tombstone && !allow_insert {
                            // UPDATE/DELETE of a deleted key.
                            return Err(StoreError::NotFound);
                        }
                        self.commit_update(
                            &index, key, value, tombstone, fp, class, slot_addr, atomic, meta,
                        )
                        .await
                    }
                    Located::Absent(empties) => {
                        if !allow_insert {
                            return Err(StoreError::NotFound);
                        }
                        let Some(target) = empties.first().copied() else {
                            return Err(StoreError::IndexFull);
                        };
                        self.commit_insert(&index, key, value, tombstone, fp, class, target)
                            .await
                    }
                }
            }
            .await;
            match outcome {
                Ok(CommitOutcome::Done) => return Ok(()),
                Ok(CommitOutcome::Retry) => {
                    // CAS contention: re-resolve immediately, no backoff —
                    // the conflicting commit already changed the words we
                    // will re-read.
                    if self.charge_retry(&mut policy).is_none() {
                        break;
                    }
                    self.dm.note_retry();
                    if let Some(m) = &self.metrics {
                        m.commit_retries.inc();
                    }
                }
                Err(StoreError::Rdma(RdmaError::NodeUnreachable(_))) => {
                    // Mid-recovery: wait for the replacement to publish.
                    let Some(us) = self.charge_retry(&mut policy) else {
                        break;
                    };
                    self.dm.backoff(us);
                    self.dm.note_retry();
                    if let Some(m) = &self.metrics {
                        m.recovery_waits.inc();
                    }
                }
                Err(StoreError::Rdma(RdmaError::EpochFenced { .. })) => {
                    // Mid-migration: this client's placement snapshot is
                    // stale. Refresh and re-resolve — no backoff needed,
                    // the new snapshot is immediately current.
                    if self.charge_retry(&mut policy).is_none() {
                        break;
                    }
                    self.refresh_placement();
                    self.dm.note_retry();
                }
                Err(e) => return Err(e),
            }
        }
        Err(StoreError::RetriesExhausted)
    }

    /// Whether the next commit attempt may take the pipelined fast path:
    /// a cached slot address whose state needs no slow-path protocol —
    /// no tombstone revalidation (UPDATE/DELETE of a deleted key must
    /// report `NotFound`), no version rollover, no Meta-epoch lock.
    fn pipelined_entry(&mut self, key: &[u8], allow_insert: bool) -> Option<CacheEntry> {
        if !(self.tuning.use_cache && self.tuning.cache_slot_addr) {
            return None;
        }
        let e = self.cache.get(key)?;
        if e.tombstone && !allow_insert {
            return None;
        }
        if e.atomic.is_empty() || e.atomic.ver == 0xFF || e.meta.is_locked() {
            return None;
        }
        Some(e)
    }

    async fn locate_slot(&mut self, index: &RemoteIndex, key: &[u8], fp: u8) -> Result<Located> {
        if self.tuning.use_cache && self.tuning.cache_slot_addr {
            // `peek`: the lookup was already counted by `pipelined_entry`.
            if let Some(e) = self.cache.peek(key) {
                // Re-read the slot: commits need fresh Atomic/Meta words.
                let slot = self.with_index_retry(|dm| index.read_slot(dm, e.slot_addr));
                self.dm.settle().await;
                match slot {
                    Ok(s) if s.atomic == e.atomic => {
                        // Unchanged since we cached it: the tombstone state
                        // is known without touching the KV.
                        return Ok(Located::Existing(s.addr, s.atomic, s.meta, e.tombstone));
                    }
                    Ok(s) if !s.atomic.is_empty() && s.atomic.fp == fp => {
                        // Same slot, new KV: verify it is still our key.
                        if let Some((verified, tomb)) =
                            self.verify_kv(s.atomic, s.meta, key).await?
                        {
                            if verified {
                                return Ok(Located::Existing(s.addr, s.atomic, s.meta, tomb));
                            }
                        }
                        self.cache.invalidate(key);
                    }
                    _ => {
                        self.cache.invalidate(key);
                    }
                }
            }
        }
        let scan = self.with_index_retry(|dm| index.scan(dm, key, fp));
        self.dm.settle().await;
        let scan = scan?;
        for cand in &scan.matches {
            if let Some((true, tomb)) = self.verify_kv(cand.atomic, cand.meta, key).await? {
                return Ok(Located::Existing(cand.addr, cand.atomic, cand.meta, tomb));
            }
        }
        Ok(Located::Absent(scan.empties))
    }

    /// Reads the KV a slot points at; returns `Some((key_matches,
    /// is_tombstone))`, or `None` when the KV is unreadable even via
    /// reconstruction.
    async fn verify_kv(
        &mut self,
        atomic: SlotAtomic,
        meta: SlotMeta,
        key: &[u8],
    ) -> Result<Option<(bool, bool)>> {
        let (col, off) = unpack_col(atomic.addr48);
        let hint = (meta.len64.max(4) as usize) * 64;
        let read = self.dm.read_vec(self.addr(col, off), hint);
        self.dm.settle().await;
        let direct = match read {
            Ok(buf) => kv::decode(&buf).map(|d| (d.key == key, d.tombstone)),
            Err(RdmaError::NodeUnreachable(_)) => None,
            Err(e) => return Err(e.into()),
        };
        if direct.is_some() {
            return Ok(direct);
        }
        // Unrecovered or unreachable block: reconstruct the range.
        let rebuilt = self.reconstruct_range(col, off, hint);
        self.dm.settle().await;
        Ok(rebuilt
            .ok()
            .and_then(|b| kv::decode(&b).map(|d| (d.key == key, d.tombstone))))
    }

    /// One committed update attempt per Algorithm 1.
    #[allow(clippy::too_many_arguments)]
    async fn commit_update(
        &mut self,
        index: &RemoteIndex,
        key: &[u8],
        value: &[u8],
        tombstone: bool,
        fp: u8,
        class: u8,
        slot_addr: GlobalAddr,
        atomic: SlotAtomic,
        mut meta: SlotMeta,
    ) -> Result<CommitOutcome> {
        // Meta locked by another client: wait briefly, then break the lock
        // (its holder may have crashed), per §3.2.2 remark 2. Each probe
        // settles its round trip, so a suspended lock holder on the same
        // executor thread gets scheduled between probes instead of being
        // spun against forever.
        let mut lock_pair: Option<(SlotMeta, SlotMeta)> = None;
        if meta.is_locked() {
            let mut spins = 0;
            loop {
                let s = index.read_slot(&self.dm, slot_addr);
                self.dm.settle().await;
                let s = s?;
                meta = s.meta;
                if !meta.is_locked() {
                    return Ok(CommitOutcome::Retry); // Re-locate with fresh state.
                }
                spins += 1;
                if spins >= 50 {
                    if self.mutation == Some(ModelMutation::SkipLockBreak) {
                        // Mutation: give up instead of breaking the stale
                        // lock — the liveness the oracle must catch losing.
                        return Err(StoreError::RetriesExhausted);
                    }
                    // Break: re-lock at the next odd epoch.
                    let relock = SlotMeta {
                        len64: meta.len64,
                        epoch: meta.epoch + 2,
                    };
                    let seen = index.cas_meta(&self.dm, slot_addr, meta, relock);
                    self.dm.settle().await;
                    let seen = seen?;
                    if seen != meta {
                        return Ok(CommitOutcome::Retry);
                    }
                    let unlocked = SlotMeta {
                        len64: relock.len64,
                        epoch: relock.epoch + 1,
                    };
                    lock_pair = Some((relock, unlocked));
                    self.maybe_crash(CrashPoint::WhileMetaLocked)?;
                    break;
                }
                std::hint::spin_loop();
            }
        } else if atomic.ver == 0xFF {
            // Version rollover: lock the Meta (Algorithm 1 lines 7–13).
            // The lock/unlock CAS pair on the Meta word is an
            // acquire/release bracket: every write between them is ordered
            // against the next holder's accesses (aceso-san's
            // skip-lock-cas self-test checks this edge stays load-bearing).
            let locked = SlotMeta {
                len64: meta.len64,
                epoch: meta.epoch + 1,
            };
            let seen = index.cas_meta(&self.dm, slot_addr, meta, locked);
            self.dm.settle().await;
            let seen = seen?;
            if seen != meta {
                return Ok(CommitOutcome::Retry);
            }
            let unlocked = SlotMeta {
                len64: locked.len64,
                epoch: locked.epoch + 1,
            };
            lock_pair = Some((locked, unlocked));
            self.maybe_crash(CrashPoint::WhileMetaLocked)?;
        }

        let commit_epoch = match &lock_pair {
            Some((_, unlocked)) => unlocked.epoch,
            None => meta.epoch,
        };
        let new_ver = atomic.ver.wrapping_add(1);
        let sv = slot_version(commit_epoch, new_ver);

        let place = self.alloc_slot(class);
        self.dm.settle().await;
        let place = place?;
        self.write_kv(&place, sv, key, value, tombstone, None).await?;

        let new_atomic = SlotAtomic {
            fp,
            addr48: place.packed,
            ver: new_ver,
        };
        // Commit point (Algorithm 1 line 15). This CAS is the *release*
        // edge that publishes the KV bytes written above: it must stay
        // after `write_kv`, and readers must reach the KV only through the
        // Atomic word it lands on (aceso-san derives happens-before from
        // exactly this ordering — see the skip-commit-cas and
        // commit-before-write self-tests).
        let prev = if self.mutation == Some(ModelMutation::SkipCommitCas) {
            // Mutation: report the commit as won without issuing the CAS.
            atomic
        } else {
            let prev = index.cas_atomic(&self.dm, slot_addr, atomic, new_atomic);
            self.dm.settle().await;
            prev?
        };
        let committed = prev == atomic;
        self.flush_deferred_deltas().await?;
        if committed {
            self.maybe_crash(CrashPoint::AfterCommit)?;
        }
        if !committed {
            self.defer_invalidate(&place);
            if lock_pair.is_some() {
                // Keep the lock bracket conservative: retire the lost KV
                // before the unlock CAS releases the Meta epoch.
                self.flush_invals()?;
                self.dm.settle().await;
            }
        }
        if let Some((locked, unlocked)) = lock_pair {
            // Unlock regardless of commit outcome (Algorithm 1 line 19-20).
            let unlock = index.cas_meta(&self.dm, slot_addr, locked, unlocked);
            self.dm.settle().await;
            let _ = unlock?;
        }
        if !committed {
            return Ok(CommitOutcome::Retry);
        }

        // Mark the overwritten KV obsolete for delta-based reclamation.
        self.mark_obsolete(atomic.addr48, meta.len64);
        // Refresh the advisory length if the size class changed.
        let new_meta = SlotMeta {
            len64: class,
            epoch: commit_epoch,
        };
        if meta.len64 != class && lock_pair.is_none() {
            let wm = index.write_meta(&self.dm, slot_addr, new_meta);
            self.dm.settle().await;
            wm?;
        }
        if self.tuning.use_cache {
            self.cache.insert(
                key,
                CacheEntry {
                    slot_addr,
                    atomic: new_atomic,
                    meta: new_meta,
                    tombstone,
                    fill_epoch: self.pl.epoch,
                },
            );
        }
        self.maybe_flush()?;
        self.dm.settle().await;
        Ok(CommitOutcome::Done)
    }

    /// Pipelined cache-hit commit (the doorbell-batched fast path).
    ///
    /// Instead of re-reading the slot in its own round trip before writing
    /// (as `locate_slot` + `commit_update` do), the revalidating slot read
    /// rides in the *same* doorbell batch as the KV + delta writes, cutting
    /// the common-path UPDATE from three dependent round trips to two:
    ///
    /// 1. one batch: `slot re-read ∥ KV write ∥ delta write ×2`
    /// 2. commit CAS on the Atomic word (the release edge — never batched)
    ///
    /// This is speculative: the slot version is computed from the cached
    /// Atomic/Meta words, and the batch's fresh slot read must confirm them
    /// *before* the CAS. When the speculation loses, the already-written KV
    /// is retired exactly like a lost CAS race — but its invalidation is
    /// *deferred* into the redo attempt's write batch, and the fresh slot
    /// words the batch already fetched seed that redo directly (verify the
    /// key, then `commit_update` on the fresh state), so a lost speculation
    /// costs the same four round trips as the pre-pipeline stale-cache
    /// path.
    #[allow(clippy::too_many_arguments)]
    async fn commit_update_pipelined(
        &mut self,
        index: &RemoteIndex,
        key: &[u8],
        value: &[u8],
        tombstone: bool,
        fp: u8,
        class: u8,
        allow_insert: bool,
        entry: CacheEntry,
    ) -> Result<CommitOutcome> {
        let new_ver = entry.atomic.ver.wrapping_add(1);
        let sv = slot_version(entry.meta.epoch, new_ver);
        let place = self.alloc_slot(class);
        self.dm.settle().await;
        let place = place?;
        let written = self
            .write_kv(&place, sv, key, value, tombstone, Some((index, entry.slot_addr)))
            .await;
        let slot = match written {
            Ok(slot) => slot.expect("revalidate requested"),
            Err(e) => {
                // The cached slot address may name a dead or pre-recovery
                // MN: drop it so the retry re-resolves on the slow path
                // instead of spinning on the same unreachable node.
                self.cache.invalidate(key);
                return Err(e);
            }
        };
        if slot.atomic != entry.atomic || slot.meta != entry.meta || slot.meta.is_locked() {
            // Speculation lost: someone committed (or locked) under us.
            // Any mutation-held delta writes still belong to the retired
            // slot image — land them so its invalidation fix-ups stay
            // parity-linear.
            self.flush_deferred_deltas().await?;
            self.defer_invalidate(&place);
            self.cache.invalidate(key);
            if !slot.meta.is_locked()
                && !slot.atomic.is_empty()
                && slot.atomic.fp == fp
                && slot.atomic.ver != 0xFF
            {
                // The slot moved on but still carries our fingerprint —
                // almost certainly a concurrent update of this very key.
                // Redo on the fresh words without re-scanning.
                return self
                    .redo_pipelined(
                        index,
                        key,
                        value,
                        tombstone,
                        fp,
                        class,
                        allow_insert,
                        entry.slot_addr,
                        slot,
                    )
                    .await;
            }
            return Ok(CommitOutcome::Retry);
        }
        let new_atomic = SlotAtomic {
            fp,
            addr48: place.packed,
            ver: new_ver,
        };
        // Commit point: the same release edge as `commit_update` — the CAS
        // publishes the batch above and must stay strictly after it.
        let prev = if self.mutation == Some(ModelMutation::SkipCommitCas) {
            // Mutation: report the commit as won without issuing the CAS.
            entry.atomic
        } else {
            let prev = index.cas_atomic(&self.dm, entry.slot_addr, entry.atomic, new_atomic);
            self.dm.settle().await;
            prev?
        };
        let committed = prev == entry.atomic;
        self.flush_deferred_deltas().await?;
        if committed {
            self.maybe_crash(CrashPoint::AfterCommit)?;
        }
        if !committed {
            self.defer_invalidate(&place);
            self.cache.invalidate(key);
            return Ok(CommitOutcome::Retry);
        }
        self.mark_obsolete(entry.atomic.addr48, entry.meta.len64);
        let new_meta = SlotMeta {
            len64: class,
            epoch: entry.meta.epoch,
        };
        if entry.meta.len64 != class {
            let wm = index.write_meta(&self.dm, entry.slot_addr, new_meta);
            self.dm.settle().await;
            wm?;
        }
        self.cache.insert(
            key,
            CacheEntry {
                slot_addr: entry.slot_addr,
                atomic: new_atomic,
                meta: new_meta,
                tombstone,
                fill_epoch: self.pl.epoch,
            },
        );
        self.maybe_flush()?;
        self.dm.settle().await;
        Ok(CommitOutcome::Done)
    }

    /// Second speculation after a lost one: the failed revalidation read
    /// returned the slot's *fresh* Atomic/Meta words, which pin the next
    /// slot version — only the commit decision (is the fresh KV really our
    /// key, and not a tombstone?) depends on the KV bytes. So the identity
    /// read rides in the same doorbell batch as the redo's KV + delta
    /// writes (plus the deferred invalidation of the first loss), keeping
    /// the whole lost-speculation path at three round trips: the lost
    /// batch, this batch, and the commit CAS.
    #[allow(clippy::too_many_arguments)]
    async fn redo_pipelined(
        &mut self,
        index: &RemoteIndex,
        key: &[u8],
        value: &[u8],
        tombstone: bool,
        fp: u8,
        class: u8,
        allow_insert: bool,
        slot_addr: GlobalAddr,
        fresh: aceso_index::SlotRef,
    ) -> Result<CommitOutcome> {
        let new_ver = fresh.atomic.ver.wrapping_add(1);
        let sv = slot_version(fresh.meta.epoch, new_ver);
        let (kv_col, kv_off) = unpack_col(fresh.atomic.addr48);
        let hint = (fresh.meta.len64.max(4) as usize) * 64;
        let place = self.alloc_slot(class);
        self.dm.settle().await;
        let place = place?;
        let (buf, delta) = Self::encode_kv(&place, sv, key, value, tombstone);
        let delta = delta.as_deref().unwrap_or(&buf);

        self.maybe_crash(CrashPoint::BeforeKvWrite)?;
        let crash = self.crash_point;
        let defer = self.mutation == Some(ModelMutation::ReorderDeltaPastCommit);
        let invals = std::mem::take(&mut self.pending_inval);
        let mut kv_read: aceso_rdma::Result<Vec<u8>> = Ok(Vec::new());
        let mut res: Result<()> = Ok(());
        self.dm.batch(|dm| {
            res = (|| -> Result<()> {
                kv_read = dm.read_vec(self.addr(kv_col, kv_off), hint);
                for (col, off, bytes) in &invals {
                    self.write_block_inline(dm, *col, *off, bytes)?;
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
            })();
        });
        self.dm.settle().await;
        if res.is_err() {
            // Requeue on *any* batch abort (fence, unreachable node,
            // simulated crash), not just fences: a dropped invalidation
            // would leave a lost-race KV readable forever.
            self.pending_inval = invals;
        }
        if matches!(&res, Err(StoreError::Rdma(RdmaError::EpochFenced { .. }))) {
            self.unwind_fenced_place(&place).await?;
        }
        res?;
        if defer {
            // Mutation: the batch omitted the delta copies; hold them for
            // the post-commit flush.
            for (dcol, doff) in place.deltas {
                self.deferred_deltas.push((dcol, doff, delta.to_vec()));
            }
        }

        let identity = kv_read
            .ok()
            .and_then(|b| kv::decode(&b).map(|d| (d.key == key, d.tombstone, d.is_invalidated())));
        match identity {
            Some((true, tomb, false)) => {
                if tomb && !allow_insert {
                    // Concurrent delete won: surface it, retire our bytes.
                    self.flush_deferred_deltas().await?;
                    self.defer_invalidate(&place);
                    self.flush_invals()?;
                    self.dm.settle().await;
                    return Err(StoreError::NotFound);
                }
            }
            _ => {
                // Collision, invalidated KV, or unreadable bytes: back off
                // to the slow path, which verifies via reconstruction.
                self.flush_deferred_deltas().await?;
                self.defer_invalidate(&place);
                return Ok(CommitOutcome::Retry);
            }
        }

        let new_atomic = SlotAtomic {
            fp,
            addr48: place.packed,
            ver: new_ver,
        };
        // Commit point: release edge after the write batch, as always.
        let prev = if self.mutation == Some(ModelMutation::SkipCommitCas) {
            // Mutation: report the commit as won without issuing the CAS.
            fresh.atomic
        } else {
            let prev = index.cas_atomic(&self.dm, slot_addr, fresh.atomic, new_atomic);
            self.dm.settle().await;
            prev?
        };
        self.flush_deferred_deltas().await?;
        if prev != fresh.atomic {
            self.defer_invalidate(&place);
            return Ok(CommitOutcome::Retry);
        }
        self.maybe_crash(CrashPoint::AfterCommit)?;
        self.mark_obsolete(fresh.atomic.addr48, fresh.meta.len64);
        let new_meta = SlotMeta {
            len64: class,
            epoch: fresh.meta.epoch,
        };
        if fresh.meta.len64 != class {
            let wm = index.write_meta(&self.dm, slot_addr, new_meta);
            self.dm.settle().await;
            wm?;
        }
        if self.tuning.use_cache {
            self.cache.insert(
                key,
                CacheEntry {
                    slot_addr,
                    atomic: new_atomic,
                    meta: new_meta,
                    tombstone,
                    fill_epoch: self.pl.epoch,
                },
            );
        }
        self.maybe_flush()?;
        self.dm.settle().await;
        Ok(CommitOutcome::Done)
    }

    #[allow(clippy::too_many_arguments)]
    async fn commit_insert(
        &mut self,
        index: &RemoteIndex,
        key: &[u8],
        value: &[u8],
        tombstone: bool,
        fp: u8,
        class: u8,
        target: GlobalAddr,
    ) -> Result<CommitOutcome> {
        let sv = slot_version(0, 1);
        let place = self.alloc_slot(class);
        self.dm.settle().await;
        let place = place?;
        self.write_kv(&place, sv, key, value, tombstone, None).await?;
        let new_atomic = SlotAtomic {
            fp,
            addr48: place.packed,
            ver: 1,
        };
        // Commit point: the release edge publishing the freshly written KV
        // (same ordering obligation as the update commit CAS above).
        let prev = index.cas_atomic(&self.dm, target, SlotAtomic::default(), new_atomic);
        self.dm.settle().await;
        let prev = prev?;
        self.flush_deferred_deltas().await?;
        if !prev.is_empty() {
            self.defer_invalidate(&place);
            return Ok(CommitOutcome::Retry);
        }
        self.maybe_crash(CrashPoint::AfterCommit)?;
        let new_meta = SlotMeta {
            len64: class,
            epoch: 0,
        };
        let wm = index.write_meta(&self.dm, target, new_meta);
        self.dm.settle().await;
        wm?;
        if self.tuning.use_cache {
            self.cache.insert(
                key,
                CacheEntry {
                    slot_addr: target,
                    atomic: new_atomic,
                    meta: new_meta,
                    tombstone,
                    fill_epoch: self.pl.epoch,
                },
            );
        }
        self.maybe_flush()?;
        self.dm.settle().await;
        Ok(CommitOutcome::Done)
    }

    /// Writes the KV slot and both delta slots in one doorbell batch.
    ///
    /// With `revalidate`, the slot's Atomic/Meta words are re-read as the
    /// *first* verb of the same batch (the pipelined cache-hit commit,
    /// §3.5.1): the read is independent of the writes, so the whole group
    /// costs one round trip. If that read fails, the writes are skipped,
    /// the still-clean slot is handed back to the open block, and the read
    /// error propagates. The commit CAS stays strictly after this batch in
    /// every caller — it is the release edge that publishes these bytes.
    async fn write_kv(
        &mut self,
        place: &SlotPlace,
        sv: u64,
        key: &[u8],
        value: &[u8],
        tombstone: bool,
        revalidate: Option<(&RemoteIndex, GlobalAddr)>,
    ) -> Result<Option<aceso_index::SlotRef>> {
        let (buf, delta) = Self::encode_kv(place, sv, key, value, tombstone);
        let delta = delta.as_deref().unwrap_or(&buf);
        self.maybe_crash(CrashPoint::BeforeKvWrite)?;
        let crash = self.crash_point;
        let defer = self.mutation == Some(ModelMutation::ReorderDeltaPastCommit);
        // Deferred invalidations of earlier speculation losses ride in
        // this batch (independent inline writes, no extra round trip).
        let invals = std::mem::take(&mut self.pending_inval);
        let mut slot_read: Option<aceso_rdma::Result<aceso_index::SlotRef>> = None;
        let mut res: Result<()> = Ok(());
        self.dm.batch(|dm| {
            res = (|| -> Result<()> {
                if let Some((index, addr)) = revalidate {
                    let r = index.read_slot(dm, addr);
                    let failed = r.is_err();
                    slot_read = Some(r);
                    if failed {
                        // Skip the writes: the slot stays unwritten so the
                        // caller can return it to the open block.
                        return Ok(());
                    }
                }
                for (col, off, bytes) in &invals {
                    self.write_block_inline(dm, *col, *off, bytes)?;
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
            })();
        });
        self.dm.settle().await;
        let fence_abort = matches!(&res, Err(StoreError::Rdma(RdmaError::EpochFenced { .. })));
        if matches!(&slot_read, Some(Err(_))) || res.is_err() {
            // Writes were skipped (or aborted partway — fence bounce, an
            // unreachable node, a simulated crash): requeue the
            // invalidations so no error path silently drops them —
            // rewriting any that already landed is idempotent.
            self.pending_inval = invals;
        }
        if fence_abort {
            self.unwind_fenced_place(place).await?;
        }
        res?;
        if defer && !matches!(&slot_read, Some(Err(_))) {
            // Mutation: the batch omitted the delta copies; hold them for
            // the post-commit flush.
            for (dcol, doff) in place.deltas {
                self.deferred_deltas.push((dcol, doff, delta.to_vec()));
            }
        }
        match slot_read {
            Some(Ok(slot)) => Ok(Some(slot)),
            Some(Err(e)) => {
                self.unalloc_slot(place);
                Err(e.into())
            }
            None => Ok(None),
        }
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
        let mut res: Result<()> = Ok(());
        self.dm.batch(|dm| {
            res = (|| -> Result<()> {
                for (dcol, doff, bytes) in &writes {
                    self.write_block(dm, *dcol, *doff, bytes)?;
                }
                Ok(())
            })();
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
        let mut res: Result<()> = Ok(());
        self.dm.batch(|dm| {
            res = (|| -> Result<()> {
                self.write_block(dm, place.col, place.kv_off, old)?;
                for (dcol, doff) in place.deltas {
                    self.write_block(dm, dcol, doff, &zeros)?;
                }
                Ok(())
            })();
        });
        self.dm.settle().await;
        res?;
        self.unalloc_slot(place);
        Ok(())
    }

    /// Encodes the slot image and its XOR delta against the slot's old
    /// contents (shared by every write batch). The delta of a slot with no
    /// old image is the image itself and is returned as `None`.
    fn encode_kv(
        place: &SlotPlace,
        sv: u64,
        key: &[u8],
        value: &[u8],
        tombstone: bool,
    ) -> (Vec<u8>, Option<Vec<u8>>) {
        let old = place.old_slot.as_deref();
        let wv = kv::next_write_version(old.map_or(0, |old| old[0]));
        let mut buf = vec![0u8; place.slot_bytes];
        kv::encode(&mut buf, wv, sv, key, value, tombstone);
        let delta = old.map(|old| {
            let mut delta = buf.clone();
            xor_into(&mut delta, old);
            delta
        });
        (buf, delta)
    }

    /// Returns a just-allocated, never-written slot to its open block (the
    /// pipelined revalidation read failed before any write was posted).
    fn unalloc_slot(&mut self, place: &SlotPlace) {
        let class = (place.slot_bytes / 64) as u8;
        if let Some(ob) = self.blocks.get_mut(&class) {
            if ob.block == place.block && ob.next > 0 {
                let prev = ob.fill_order[ob.next - 1] as u64;
                if ob.block_off + prev * ob.slot_bytes as u64 == place.kv_off {
                    ob.next -= 1;
                }
            }
        }
    }

    /// Queues the invalidation of a lost-race KV — Slot Version ← −1 with
    /// matching delta fix-ups so parity linearity is preserved — without
    /// posting it: the next doorbell batch of this operation carries the
    /// three inline writes for free (`write_kv` and `redo_pipelined` drain
    /// the queue), and `upsert` flushes any remainder before returning.
    fn defer_invalidate(&mut self, place: &SlotPlace) {
        let old8: [u8; 8] = match &place.old_slot {
            Some(old) => old[SLOT_VER_OFF..SLOT_VER_OFF + 8].try_into().unwrap(),
            None => [0u8; 8],
        };
        let inval = INVALID_SLOT_VERSION.to_le_bytes();
        let mut delta8 = inval;
        for (d, o) in delta8.iter_mut().zip(old8) {
            *d ^= o;
        }
        self.pending_inval
            .push((place.col, place.kv_off + SLOT_VER_OFF as u64, inval));
        for (dcol, doff) in place.deltas {
            self.pending_inval
                .push((dcol, doff + SLOT_VER_OFF as u64, delta8));
        }
        // The slot is consumed but worthless: reclaimable immediately.
        let slot_idx = self.slot_index_in_block(place);
        self.pending_bits
            .entry((place.col, place.block))
            .or_default()
            .push(slot_idx);
        self.pending_count += 1;
    }

    /// Posts any still-queued invalidation writes in one doorbell batch.
    /// On error the queue is restored (rewriting landed entries is
    /// idempotent), so a failed flush can be retried by a later batch or
    /// the next operation's drain instead of silently dropping the stamps.
    fn flush_invals(&mut self) -> Result<()> {
        if self.pending_inval.is_empty() {
            return Ok(());
        }
        let writes = std::mem::take(&mut self.pending_inval);
        let mut res: Result<()> = Ok(());
        self.dm.batch(|dm| {
            res = (|| -> Result<()> {
                for (col, off, bytes) in &writes {
                    self.write_block_inline(dm, *col, *off, bytes)?;
                }
                Ok(())
            })();
        });
        if res.is_err() {
            self.pending_inval = writes;
        }
        res
    }

    fn slot_index_in_block(&self, place: &SlotPlace) -> u32 {
        let (_, within) = self
            .map
            .blocks
            .locate(place.kv_off)
            .expect("kv in block area");
        (within / place.slot_bytes as u64) as u32
    }

    fn mark_obsolete(&mut self, packed: u64, len64: u8) {
        if len64 == 0 {
            return; // Stale advisory length: skip (bounded leak).
        }
        let (col, off) = unpack_col(packed);
        let Some((block, within)) = self.map.blocks.locate(off) else {
            return;
        };
        let slot = (within / (len64 as u64 * 64)) as u32;
        self.pending_bits
            .entry((col, block))
            .or_default()
            .push(slot);
        self.pending_count += 1;
    }

    fn maybe_flush(&mut self) -> Result<()> {
        if self.pending_count >= self.bitmap_flush_every {
            self.flush_bitmaps()?;
        }
        Ok(())
    }

    // ---- Block management -------------------------------------------------

    fn alloc_slot(&mut self, class: u8) -> Result<SlotPlace> {
        loop {
            if let Some(ob) = self.blocks.get(&class) {
                if ob.next < ob.fill_order.len() {
                    break;
                }
                // Closing folds and frees the block's DELTA blocks: the
                // delta fix-ups of an earlier lost race must land first,
                // or parity keeps the image they were meant to cancel.
                self.flush_invals()?;
                let ob = self.blocks.remove(&class).unwrap();
                self.close_block(ob)?;
            } else {
                let ob = self.open_block(class)?;
                self.blocks.insert(class, ob);
            }
        }
        let ob = self.blocks.get_mut(&class).unwrap();
        let slot = ob.fill_order[ob.next] as u64;
        ob.next += 1;
        let kv_off = ob.block_off + slot * ob.slot_bytes as u64;
        let old_slot = ob.old_copy.as_ref().map(|old| {
            old[(slot as usize) * ob.slot_bytes..(slot as usize + 1) * ob.slot_bytes].to_vec()
        });
        let place = SlotPlace {
            col: ob.col,
            kv_off,
            slot_bytes: ob.slot_bytes,
            packed: pack_col(ob.col, kv_off),
            deltas: [
                (
                    ob.deltas[0].col,
                    ob.deltas[0].block_off + slot * ob.slot_bytes as u64,
                ),
                (
                    ob.deltas[1].col,
                    ob.deltas[1].block_off + slot * ob.slot_bytes as u64,
                ),
            ],
            old_slot,
            block: ob.block,
        };
        Ok(place)
    }

    fn open_block(&mut self, class: u8) -> Result<OpenBlock> {
        let n = self.n();
        let mut last_err = StoreError::OutOfBlocks;
        for t in 0..n {
            let col = (self.alloc_rr + t) % n;
            match self.rpc(
                col,
                ServerReq::AllocData {
                    cli_id: self.cli_id,
                    slot_len64: class,
                },
                64,
            )? {
                ServerResp::DataAllocated {
                    block,
                    array,
                    row,
                    reused,
                    old_bitmap,
                } => {
                    self.alloc_rr = (col + 1) % n;
                    return self.finish_open(col, block, array, row, reused, old_bitmap, class);
                }
                ServerResp::Err(_) => {
                    last_err = StoreError::OutOfBlocks;
                    continue;
                }
                _ => return Err(StoreError::OutOfBlocks),
            }
        }
        Err(last_err)
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_open(
        &mut self,
        col: usize,
        block: BlockId,
        array: u64,
        row: usize,
        reused: bool,
        old_bitmap: Option<Vec<u8>>,
        class: u8,
    ) -> Result<OpenBlock> {
        let bs = self.map.blocks.block_size;
        let slot_bytes = class as usize * 64;
        let nslots = (bs / slot_bytes as u64) as usize;
        let (diag, anti) = self.xcode.parity_cells_for(row, col);
        let mut deltas = [DeltaRef {
            col: 0,
            block_off: 0,
            parity_row: 0,
        }; 2];
        for (i, (prow, pcol)) in [diag, anti].into_iter().enumerate() {
            let resp = self.rpc(
                pcol,
                ServerReq::AllocDelta {
                    cli_id: self.cli_id,
                    slot_len64: class,
                    array,
                    row,
                    parity_row: prow,
                },
                64,
            )?;
            let ServerResp::DeltaAllocated { block: dblock } = resp else {
                return Err(StoreError::OutOfBlocks);
            };
            deltas[i] = DeltaRef {
                col: pcol,
                block_off: self.map.blocks.block_offset(dblock),
                parity_row: prow,
            };
        }
        let block_off = self.map.blocks.block_offset(block);
        let (fill_order, old_copy) = if reused {
            let bitmap_bytes = old_bitmap.unwrap_or_default();
            let bitmap = aceso_blockalloc::Bitmap::from_bytes(nslots, &bitmap_bytes);
            // Read the whole reused block so overwrites can compute deltas
            // against the old contents (§3.3.3).
            let old = self.dm.read_vec(self.addr(col, block_off), bs as usize)?;
            (bitmap.ones().map(|s| s as u32).collect(), Some(old))
        } else {
            ((0..nslots as u32).collect(), None)
        };
        Ok(OpenBlock {
            col,
            block,
            array,
            row,
            block_off,
            slot_bytes,
            fill_order,
            next: 0,
            deltas,
            old_copy,
        })
    }

    fn close_block(&mut self, ob: OpenBlock) -> Result<()> {
        self.rpc(ob.col, ServerReq::DataFilled { block: ob.block }, 16)?
            .expect_ok()?;
        for d in ob.deltas {
            self.rpc(
                d.col,
                ServerReq::EncodeDelta {
                    array: ob.array,
                    row: ob.row,
                    parity_row: d.parity_row,
                },
                24,
            )?
            .expect_ok()?;
        }
        Ok(())
    }

    /// Closes all open blocks (phase end in benches; also used before
    /// planned shutdown so no block stays unfilled forever).
    pub fn close_open_blocks(&mut self) -> Result<()> {
        let classes: Vec<u8> = self.blocks.keys().copied().collect();
        for c in classes {
            // Mark the never-written tail slots obsolete so reclamation can
            // reuse them later.
            let ob = self.blocks.remove(&c).unwrap();
            let unwritten: Vec<u32> = ob.fill_order[ob.next..].to_vec();
            if !unwritten.is_empty() {
                self.pending_bits
                    .entry((ob.col, ob.block))
                    .or_default()
                    .extend(unwritten);
                self.pending_count += 1;
            }
            self.close_block(ob)?;
        }
        self.flush_bitmaps()
    }

    /// Retries an index operation across a short recovery window: verbs to
    /// a crashed MN fail until the replacement is published, matching the
    /// paper's "requests to the affected index range are blocked". An epoch
    /// fence (elastic migration in flight) instead refreshes the placement
    /// snapshot and retries immediately; the shared [`RetryPolicy`] budget
    /// bounds both loops.
    fn with_index_retry<T>(
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

    /// The cluster handle (tests, benches).
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The memory map (recovery helpers).
    pub fn map(&self) -> &MemoryMap {
        &self.map
    }

    /// The directory (recovery helpers).
    pub fn directory(&self) -> &Arc<Directory> {
        &self.dir
    }
}

enum Located {
    Existing(GlobalAddr, SlotAtomic, SlotMeta, bool),
    Absent(Vec<GlobalAddr>),
}

enum CommitOutcome {
    Done,
    Retry,
}
