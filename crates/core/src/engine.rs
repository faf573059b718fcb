//! The pluggable fault-tolerance seam (`FtEngine` / `FtClient`).
//!
//! Aceso's central claim (paper §5, Table 3) is a *comparison*: hybrid
//! checkpoint+erasure versus full replication on write round trips, memory
//! overhead, and recovery time. To run that comparison live, the
//! strategy-specific halves of the store — the write/commit path, the
//! recovery path, and space accounting — are factored behind two
//! object-safe traits:
//!
//! - [`FtEngine`] is the server side: kill columns, recover from crashed
//!   clients and dead columns in the strategy's own order, account for
//!   space, verify strategy-specific integrity invariants.
//! - [`FtClient`] is the per-client op surface: `insert`/`update`/`search`/
//!   `delete` plus the fabric hooks (fault plans, op records) the chaos
//!   matrix and bench harness need.
//!
//! Three engines implement the seam:
//!
//! | Engine | Crate | Strategy |
//! |---|---|---|
//! | `aceso` | this crate ([`AcesoEngine`]) | delta-append + XOR parity + tiered recovery |
//! | `fusee` | `aceso-engines` | replicated index + replicated KV blocks (FUSEE) |
//! | `swarm` | `aceso-engines` | in-place replication, 1-RTT doorbell write path (SWARM) |
//!
//! The traits are deliberately narrow: they cover exactly what the
//! three-way Table 3 bench (`bench table3`) and the per-backend crash
//! matrix (`chaos backends`) exercise, not every capability of every
//! engine. Engine-specific surfaces (Aceso's elastic membership, the
//! replication clients' retry budget) stay on the concrete types.

use crate::scrub::{parity_scrub, replica_agreement, IvWatch};
use crate::store::AcesoStore;
use crate::{AcesoClient, AcesoConfig, ClientTuning, StoreError};
use aceso_rdma::{Cluster, FaultPlan, NodeId, OpStats};
use parking_lot::Mutex;
use std::sync::Arc;

/// Errors crossing the engine seam.
///
/// The chaos runner needs to distinguish "the client crashed mid-op under
/// an injected fault" (expected — opens the commit ambiguity window) from
/// "the home node is unreachable" (expected while a planned kill is
/// outstanding) from a genuine protocol failure (a finding). Engine
/// implementations map their native error types onto these three classes;
/// `NotFound` is split out because UPDATE/DELETE of a missing key is an
/// API-level outcome, not a fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FtError {
    /// The client crashed mid-operation (injected crash point or injected
    /// verb fault). Its effects may be torn; the op's outcome is ambiguous.
    Crashed(String),
    /// A memory node the operation needs is dead (or retries were
    /// exhausted while it was). Expected while a planned kill is live.
    Unreachable(String),
    /// UPDATE or DELETE of a key that does not exist.
    NotFound,
    /// Any other failure (allocation, size envelope, harness errors…).
    Other(String),
}

impl core::fmt::Display for FtError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FtError::Crashed(e) => write!(f, "client crashed: {e}"),
            FtError::Unreachable(e) => write!(f, "node unreachable: {e}"),
            FtError::NotFound => write!(f, "key not found"),
            FtError::Other(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FtError {}

impl From<StoreError> for FtError {
    fn from(e: StoreError) -> Self {
        use aceso_rdma::RdmaError;
        match e {
            StoreError::Shutdown => FtError::Crashed(e.to_string()),
            StoreError::Rdma(RdmaError::Injected { .. }) => FtError::Crashed(e.to_string()),
            StoreError::Rdma(RdmaError::NodeUnreachable(_)) => FtError::Unreachable(e.to_string()),
            StoreError::RetriesExhausted => FtError::Unreachable(e.to_string()),
            StoreError::NotFound => FtError::NotFound,
            other => FtError::Other(other.to_string()),
        }
    }
}

/// Result type for the engine seam.
pub type FtResult<T> = core::result::Result<T, FtError>;

/// Strategy-agnostic space accounting (the Table 3 "memory overhead" row).
///
/// `valid` counts live user bytes once; `redundancy` is whatever the
/// strategy adds to survive failures (XOR parity for Aceso, the extra
/// `r-1` copies for replication); `delta` is log/delta space that exists
/// only for the hybrid scheme. The headline metric is
/// [`overhead_factor`](Self::overhead_factor).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpaceReport {
    /// Bytes of live (referenced) user KV data, counted once.
    pub valid: u64,
    /// Bytes of fault-tolerance redundancy (parity or extra replicas).
    pub redundancy: u64,
    /// Bytes of delta/log space (zero for pure replication).
    pub delta: u64,
    /// Bytes of allocated primary data space (valid + obsolete + slack).
    pub allocated: u64,
}

impl SpaceReport {
    /// Total footprint the paper compares: valid + redundancy + delta.
    pub fn total(&self) -> u64 {
        self.valid + self.redundancy + self.delta
    }

    /// Memory overhead factor: total footprint per byte of valid data
    /// (1.0 = no redundancy at all; replication with `r` copies ≈ `r`).
    pub fn overhead_factor(&self) -> f64 {
        if self.valid == 0 {
            0.0
        } else {
            self.total() as f64 / self.valid as f64
        }
    }
}

/// What one recovery cost, in strategy-agnostic terms, summed over the
/// columns it rebuilt.
///
/// Only *modeled* quantities appear here — bytes actually moved and the
/// cost model's network milliseconds — so the summary is a pure function
/// of the seed and safe to commit in results files.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoverySummary {
    /// Modeled network milliseconds to restore the column (deterministic).
    pub net_ms: f64,
    /// Bytes transferred during recovery (deterministic).
    pub bytes: u64,
    /// KV pairs scanned or re-replicated.
    pub kvs: usize,
}

/// Per-client operation surface of one fault-tolerance engine.
///
/// Semantics shared by every implementation (asserted by the conformance
/// suite in `aceso-engines`):
///
/// - `insert` is an upsert; `update`/`delete` of a missing key report
///   [`FtError::NotFound`] / `Ok(false)` respectively.
/// - `search` of a deleted or never-inserted key returns `Ok(None)` —
///   engines whose delete leaves a tombstone normalize it away.
/// - A client that returns [`FtError::Crashed`] is dead: the caller drops
///   it and passes its [`id`](Self::id) to [`FtEngine::recover`].
pub trait FtClient {
    /// Inserts `key` → `value` (upsert: an existing key is overwritten).
    fn insert(&mut self, key: &[u8], value: &[u8]) -> FtResult<()>;
    /// Updates an existing key; [`FtError::NotFound`] if absent.
    fn update(&mut self, key: &[u8], value: &[u8]) -> FtResult<()>;
    /// Reads a key. `Ok(None)` = absent (including deleted).
    fn search(&mut self, key: &[u8]) -> FtResult<Option<Vec<u8>>>;
    /// Deletes a key; `Ok(false)` if it was absent.
    fn delete(&mut self, key: &[u8]) -> FtResult<bool>;
    /// Stable client id (used to revive a crashed client for recovery).
    fn id(&self) -> u32;
    /// Flushes any client-buffered state (bitmaps, open blocks) so
    /// server-side accounting and integrity checks see the truth.
    fn quiesce(&mut self) -> FtResult<()>;
    /// Arms a fault plan on this client's fabric endpoint.
    fn install_fault_plan(&mut self, plan: Arc<FaultPlan>);
    /// Drains the per-op fabric records accumulated since the last call.
    fn take_ops(&mut self) -> OpStats;
    /// Clears fabric counters without returning them.
    fn reset_stats(&mut self);
}

/// One fault-tolerance strategy, hosting a store and minting clients.
///
/// Object-safe: the bench and chaos harnesses drive `Box<dyn FtEngine>`
/// so every strategy runs the identical script.
///
/// ```
/// use aceso_core::engine::{AcesoEngine, FtEngine};
/// use aceso_core::AcesoConfig;
///
/// let cfg = AcesoConfig { index_groups: 128, ..AcesoConfig::small() };
/// let engine = AcesoEngine::launch(cfg).unwrap();
/// let eng: &dyn FtEngine = &engine;
///
/// let mut client = eng.client().unwrap();
/// client.insert(b"k", b"v1").unwrap();
/// client.update(b"k", b"v2").unwrap();
/// assert_eq!(client.search(b"k").unwrap().as_deref(), Some(&b"v2"[..]));
///
/// // Kill the key's home column, recover it, and the key survives.
/// let col = eng.home_col(b"k");
/// assert!(eng.kill_column(col));
/// let summary = eng.recover(&[], &[col]).unwrap();
/// assert!(summary.bytes > 0);
/// assert_eq!(client.search(b"k").unwrap().as_deref(), Some(&b"v2"[..]));
/// assert!(eng.check().unwrap().is_empty());
/// # eng.shutdown();
/// ```
pub trait FtEngine {
    /// Short stable name: `"aceso"`, `"fusee"`, or `"swarm"`.
    fn kind(&self) -> &'static str;
    /// Mints a fresh client.
    fn client(&self) -> FtResult<Box<dyn FtClient>>;
    /// Number of data columns (one per memory node at launch).
    fn columns(&self) -> usize;
    /// The node currently hosting `col` (kill rules target nodes).
    fn node_of(&self, col: usize) -> NodeId;
    /// Home column of a key (same `route_hash` for every engine, so the
    /// crash matrix aims kills identically across backends).
    fn home_col(&self, key: &[u8]) -> usize {
        (aceso_index::route_hash(key) % self.columns() as u64) as usize
    }
    /// Fail-stops the node hosting `col`. `false` if it was already dead.
    fn kill_column(&self, col: usize) -> bool;
    /// Recovers from a failure: repairs what the `crashed` clients left
    /// torn (rolls back torn commits, reconciles divergent replicas —
    /// whatever the strategy requires) and restores each `dead` column onto
    /// a replacement node, in the order the strategy's commit-point
    /// argument requires. The crash is quiesced first and each repair ends
    /// in a trace barrier (its own membership epoch). Returns the modeled
    /// cost of the column rebuilds.
    fn recover(&self, crashed: &[u32], dead: &[usize]) -> FtResult<RecoverySummary>;
    /// Strategy-specific integrity check; returns violations (empty =
    /// clean). Aceso judges Index Versions, parity and degraded windows
    /// ([`AcesoEngine`]'s `check`); replication engines check replica
    /// agreement.
    fn check(&self) -> FtResult<Vec<String>>;
    /// Periodic maintenance (Aceso's checkpoint round; no-op elsewhere).
    fn tick(&self) -> FtResult<()> {
        Ok(())
    }
    /// Space accounting for the memory-overhead comparison.
    fn space(&self) -> SpaceReport;
    /// The simulated fabric (trace sinks, barriers) backing this engine.
    fn cluster(&self) -> &Arc<Cluster>;
    /// Releases background threads. Idempotent.
    fn shutdown(&self);
}

// ---------------------------------------------------------------------------
// Aceso's own implementation of the seam.
// ---------------------------------------------------------------------------

/// [`FtEngine`] implementation for Aceso's hybrid checkpoint+erasure
/// scheme — a thin adapter over [`AcesoStore`].
pub struct AcesoEngine {
    store: Arc<AcesoStore>,
    tuning: Option<ClientTuning>,
    /// The Index Versions the last [`FtEngine::tick`] left.
    iv: Mutex<IvWatch>,
}

impl AcesoEngine {
    /// Launches a store with `cfg` and wraps it in the engine seam.
    pub fn launch(cfg: AcesoConfig) -> FtResult<Self> {
        Ok(Self::new(AcesoStore::launch(cfg).map_err(FtError::from)?))
    }

    /// Wraps an already-launched store.
    pub fn new(store: Arc<AcesoStore>) -> Self {
        AcesoEngine {
            store,
            tuning: None,
            iv: Mutex::default(),
        }
    }

    /// Wraps a store and mints every client with `tuning` (fault harnesses
    /// use fail-fast retry budgets so a blocked op costs milliseconds).
    pub fn with_tuning(store: Arc<AcesoStore>, tuning: ClientTuning) -> Self {
        AcesoEngine {
            tuning: Some(tuning),
            ..Self::new(store)
        }
    }

    /// The wrapped store, for Aceso-specific surfaces the seam omits.
    pub fn store(&self) -> &Arc<AcesoStore> {
        &self.store
    }
}

/// Aceso's client is its own seam client: each op is the inherent one,
/// named by path, with its error mapped onto the seam's classes.
impl FtClient for AcesoClient {
    fn insert(&mut self, key: &[u8], value: &[u8]) -> FtResult<()> {
        AcesoClient::insert(self, key, value).map_err(FtError::from)
    }

    fn update(&mut self, key: &[u8], value: &[u8]) -> FtResult<()> {
        AcesoClient::update(self, key, value).map_err(FtError::from)
    }

    fn search(&mut self, key: &[u8]) -> FtResult<Option<Vec<u8>>> {
        AcesoClient::search(self, key).map_err(FtError::from)
    }

    fn delete(&mut self, key: &[u8]) -> FtResult<bool> {
        AcesoClient::delete(self, key).map_err(FtError::from)
    }

    fn id(&self) -> u32 {
        AcesoClient::id(self)
    }

    fn quiesce(&mut self) -> FtResult<()> {
        self.flush_bitmaps().map_err(FtError::from)
    }

    fn install_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.dm.install_fault_plan(plan);
    }

    fn take_ops(&mut self) -> OpStats {
        self.dm.take_ops()
    }

    fn reset_stats(&mut self) {
        self.dm.reset_stats();
    }
}

impl FtEngine for AcesoEngine {
    fn kind(&self) -> &'static str {
        "aceso"
    }

    fn client(&self) -> FtResult<Box<dyn FtClient>> {
        let client = match self.tuning {
            Some(t) => self.store.client_with(t),
            None => self.store.client(),
        };
        Ok(Box::new(client.map_err(FtError::from)?))
    }

    fn columns(&self) -> usize {
        self.store.cfg.num_mns
    }

    fn node_of(&self, col: usize) -> NodeId {
        self.store.directory().node_of(col)
    }

    fn kill_column(&self, col: usize) -> bool {
        self.store.kill_mn(col)
    }

    /// [`AcesoStore::recover`]: every crashed client's consistency first,
    /// then every dead column.
    fn recover(&self, crashed: &[u32], dead: &[usize]) -> FtResult<RecoverySummary> {
        let mut sum = RecoverySummary::default();
        for r in self.store.recover(crashed, dead)? {
            sum.net_ms += r.index_tier_net_ms() + r.old_lblock_net_ms + r.parity_net_ms;
            sum.bytes += r.net_bytes();
            sum.kvs += r.kv_count;
        }
        Ok(sum)
    }

    /// Aceso's whole post-recovery judge: **iv-monotonicity** against the
    /// Index Versions the last tick left ([`IvWatch`]), **parity-scrub**
    /// (flush clients first: see [`parity_scrub`]),
    /// **meta-replica-agreement** ([`replica_agreement`]) and
    /// **no-open-degraded-window** — no column is left between its Index
    /// tier and its Block tier.
    fn check(&self) -> FtResult<Vec<String>> {
        let mut violations = Vec::new();
        self.iv.lock().check(&self.store, &mut violations);
        parity_scrub(&self.store, &mut violations);
        replica_agreement(&self.store, &mut violations);
        let degraded = self.store.degraded_columns();
        if !degraded.is_empty() {
            violations.push(format!("degraded windows left open: {degraded:?}"));
        }
        Ok(violations)
    }

    fn tick(&self) -> FtResult<()> {
        self.store.checkpoint_tick()?;
        *self.iv.lock() = IvWatch::capture(&self.store);
        Ok(())
    }

    fn space(&self) -> SpaceReport {
        let u = self.store.memory_usage();
        SpaceReport {
            valid: u.valid,
            redundancy: u.redundancy,
            delta: u.delta,
            allocated: u.data_allocated,
        }
    }

    fn cluster(&self) -> &Arc<Cluster> {
        &self.store.cluster
    }

    fn shutdown(&self) {
        self.store.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_engine() -> AcesoEngine {
        let cfg = AcesoConfig {
            index_groups: 128,
            ..AcesoConfig::small()
        };
        AcesoEngine::launch(cfg).unwrap()
    }

    #[test]
    fn trait_object_round_trip() {
        let engine = small_engine();
        let eng: &dyn FtEngine = &engine;
        assert_eq!(eng.kind(), "aceso");
        let mut c = eng.client().unwrap();
        c.insert(b"alpha", b"one").unwrap();
        assert_eq!(c.search(b"alpha").unwrap().as_deref(), Some(&b"one"[..]));
        assert!(c.delete(b"alpha").unwrap());
        assert_eq!(c.search(b"alpha").unwrap(), None);
        assert!(!c.delete(b"alpha").unwrap());
        assert_eq!(c.update(b"alpha", b"x").unwrap_err(), FtError::NotFound);
        eng.shutdown();
    }

    #[test]
    fn kill_and_recover_through_seam() {
        let engine = small_engine();
        let eng: &dyn FtEngine = &engine;
        let mut c = eng.client().unwrap();
        for i in 0..16 {
            let k = format!("seam-{i:02}");
            c.insert(k.as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        c.quiesce().unwrap();
        eng.tick().unwrap();
        let col = eng.home_col(b"seam-03");
        assert!(eng.kill_column(col));
        assert!(!eng.kill_column(col), "second kill must report dead");
        let s = eng.recover(&[], &[col]).unwrap();
        assert!(s.bytes > 0 && s.net_ms > 0.0);
        for i in 0..16 {
            let k = format!("seam-{i:02}");
            assert_eq!(
                c.search(k.as_bytes()).unwrap().as_deref(),
                Some(format!("v{i}").as_bytes()),
                "{k} lost after recovery"
            );
        }
        assert!(eng.check().unwrap().is_empty());
        eng.shutdown();
    }

    #[test]
    fn space_report_shapes() {
        let engine = small_engine();
        let eng: &dyn FtEngine = &engine;
        let mut c = eng.client().unwrap();
        for i in 0..32 {
            c.insert(format!("sp-{i:03}").as_bytes(), &[7u8; 64])
                .unwrap();
        }
        c.quiesce().unwrap();
        let sp = eng.space();
        assert!(sp.valid > 0);
        assert!(sp.redundancy > 0, "X-Code parity must be accounted");
        assert!(sp.overhead_factor() > 1.0);
        assert_eq!(sp.total(), sp.valid + sp.redundancy + sp.delta);
        eng.shutdown();
    }

    #[test]
    fn error_classes_map() {
        assert_eq!(FtError::from(StoreError::NotFound), FtError::NotFound);
        assert!(matches!(
            FtError::from(StoreError::Shutdown),
            FtError::Crashed(_)
        ));
        assert!(matches!(
            FtError::from(StoreError::RetriesExhausted),
            FtError::Unreachable(_)
        ));
        assert!(matches!(
            FtError::from(StoreError::OutOfBlocks),
            FtError::Other(_)
        ));
    }
}
