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
//!
//! The client is cut along the layers the performance ledger measures:
//! this module holds the API, the metrics and the retry loop; `alloc`
//! the open blocks and slot reservation; `locate` the index seam (key →
//! slot and expected words); `commit` the one commit machine; `search`
//! the read path, healthy and degraded.

mod alloc;
mod commit;
mod locate;
mod search;

use crate::cache::IndexCache;
use crate::config::{unpack_col, ClientTuning, MemoryMap};
use crate::placement::{PlacementMap, PlacementSnapshot};
use crate::proto::{ServerReq, ServerResp};
use crate::server::Directory;
use crate::{Result, StoreError};
use aceso_blockalloc::BlockId;
use aceso_erasure::XCode;
use aceso_index::route_hash;
use aceso_obs::{Counter, Histogram, Obs, Registry};
use aceso_rdma::{Cluster, DmClient, GlobalAddr, NodeId, OpKind, OpRecord, RdmaError};
use alloc::OpenBlock;
use commit::{CommitOutcome, Piggyback, WriteOp};
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
    /// Take the KV identity read that rides in a write batch as "our key,
    /// live" without looking at it. That judgement is the only thing
    /// between a fingerprint collision and a commit on another key's slot.
    SkipIdentityJudge,
}

impl core::fmt::Display for ModelMutation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            ModelMutation::SkipCommitCas => "skip-commit-cas",
            ModelMutation::ReorderDeltaPastCommit => "reorder-delta-past-commit",
            ModelMutation::SkipLockBreak => "skip-lock-break",
            ModelMutation::SkipIdentityJudge => "skip-identity-judge",
        };
        f.write_str(s)
    }
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
        let cache = IndexCache::new(tuning.cache_capacity, obs.registry().map(|r| r.as_ref()));
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
    }

    /// Number of entries currently held by the index cache (tests and
    /// factor analysis).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
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

    /// Starts the wall-clock span for one API call; `None` keeps the
    /// uninstrumented fast path (no clock read).
    fn op_span(&self, kind: OpKind) -> Option<aceso_obs::HistTimer> {
        self.metrics
            .as_ref()
            .map(|m| m.op(kind).lat_us.start_timer())
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

    /// One INSERT / UPDATE / DELETE: the commit retry loop plus the
    /// trailing invalidation flush.
    async fn upsert(
        &mut self,
        key: &[u8],
        value: &[u8],
        tombstone: bool,
        allow_insert: bool,
    ) -> Result<()> {
        let r = match WriteOp::new(key, value, tombstone, allow_insert) {
            Ok(op) => self.commit_with_retry(&op).await,
            Err(e) => Err(e),
        };
        // Invalidations deferred by a lost attempt normally drain inside a
        // later write batch of the same op; any remainder (e.g. the op
        // ended in NotFound before another write) goes out now. A
        // simulated crash skips this on purpose — a dead client posts
        // nothing, which is exactly the window recovery must tolerate.
        if !matches!(r, Err(StoreError::Shutdown)) {
            self.flush_invals()?;
            self.dm.settle().await;
        }
        r
    }

    /// Drives the commit machine until the op commits, fails, or the
    /// retry budget runs out.
    async fn commit_with_retry(&mut self, op: &WriteOp<'_>) -> Result<()> {
        let mut policy = RetryPolicy::new(self.tuning.max_retries);
        // The attempt a lost speculation seeded, if any.
        let mut redo = None;
        // Whether a write batch of this op already carried the identity
        // read of an unverified candidate. One is all an op gets: if it was
        // refuted or unreadable, the next try verifies first — with
        // parity-chain reconstruction — so a degraded KV column cannot spin
        // the retry budget on speculative batches.
        let mut speculated = false;
        loop {
            let outcome = async {
                let att = match redo.take() {
                    Some(att) => att,
                    None => self.resolve(op, !speculated).await?,
                };
                speculated |= att.piggyback == Piggyback::VerifyKvIdentity;
                self.commit(op, att).await
            }
            .await;
            match outcome {
                Ok(CommitOutcome::Done) => return Ok(()),
                Ok(CommitOutcome::Redo(att)) => redo = Some(att),
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

#[cfg(test)]
mod tests {
    use crate::elastic::ElasticStep;
    use crate::{AcesoConfig, AcesoStore};

    /// `refresh_placement` purges cached index entries by *placement
    /// epoch*, not just by retired node. A client that refreshes
    /// mid-migration sees an empty `retired` list — the source node is only
    /// retired at `Free` — yet its cached entries for the migrating column
    /// already name physical locations that may move under it. Once the
    /// client's session epoch catches up to the published epoch, the fences
    /// (which reject only *older* epochs) no longer protect those entries; a
    /// retired-only purge would keep every one of them.
    #[test]
    fn mid_migration_refresh_purges_migrating_column_entries() {
        let store = AcesoStore::launch(AcesoConfig::small()).unwrap();
        let key = |i: u8| format!("elastic-key-{i}").into_bytes();
        let kvs: Vec<_> = (0..40u8)
            .map(|i| (key(i), vec![i; 1 + i as usize]))
            .collect();
        let mut loader = store.client().unwrap();
        for (k, v) in &kvs {
            loader.insert(k, v).unwrap();
        }

        // Warm a dedicated client's cache over every key.
        let mut warm = store.client().unwrap();
        for (k, v) in &kvs {
            assert_eq!(warm.search(k).unwrap().as_deref(), Some(v.as_slice()));
            assert!(warm.cache.contains(k), "search must fill the cache");
        }

        let col = 2;
        let n = store.cfg.num_mns as u64;
        let routed: Vec<&Vec<u8>> = kvs
            .iter()
            .map(|(k, _)| k)
            .filter(|k| (aceso_index::route_hash(k) % n) as usize == col)
            .collect();
        assert!(
            !routed.is_empty(),
            "test needs at least one key indexed on the migrating column"
        );

        // Advance the placement mid-migration: announce + all copy batches.
        // Nothing is retired yet — that is the whole point.
        let mut mig = store.begin_join(col).unwrap();
        assert_eq!(mig.step().unwrap(), ElasticStep::Announce);
        for _ in 0..store.cfg.elastic_groups {
            assert!(matches!(mig.step().unwrap(), ElasticStep::CopyBatch(_)));
        }
        assert!(
            store.placement().snapshot().retired.is_empty(),
            "mid-migration there must be no retired node — a \
             purge-by-retirement would keep every stale entry"
        );

        let before = warm.cache_len();
        warm.refresh_placement();
        let after = warm.cache_len();
        assert!(
            after < before,
            "epoch purge dropped nothing ({before} -> {after})"
        );
        for k in &routed {
            assert!(
                !warm.cache.contains(k),
                "entry indexed on migrating column {col} survived the refresh: {:?}",
                String::from_utf8_lossy(k)
            );
        }
        assert!(
            warm.cache_len() > 0,
            "entries untouched by the migration must survive the purge"
        );

        // Finish the migration; the purged client re-resolves on the slow
        // path and every key stays readable through it.
        while mig.step().unwrap() != ElasticStep::Done {}
        for (k, v) in &kvs {
            assert_eq!(warm.search(k).unwrap().as_deref(), Some(v.as_slice()));
        }
        store.shutdown();
    }
}
