//! Pluggable fault-tolerance engines behind the `aceso-core` seam.
//!
//! Aceso's headline comparison (paper §5, Table 3) pits its hybrid
//! checkpoint+erasure scheme against full replication. This crate supplies
//! the replication side of that comparison as first-class [`FtEngine`]
//! implementations, so the bench harness (`bench table3`) and the
//! per-backend crash matrix (`chaos backends`) can drive all strategies
//! through one object-safe surface:
//!
//! | Kind | Engine | Strategy |
//! |---|---|---|
//! | [`EngineKind::Aceso`] | `aceso_core::AcesoEngine` | delta-append + XOR parity + tiered recovery |
//! | [`EngineKind::Fusee`] | [`FuseeEngine`] | FUSEE: replicated index + replicated KV blocks ([`fusee`]) |
//! | [`EngineKind::Swarm`] | [`SwarmEngine`] | SWARM-style in-place replication, 1-RTT writes ([`swarm`]) |
//!
//! The two replication engines are one store, one client and one adapter
//! ([`substrate`], [`ReplEngine`]) parameterized by a write protocol
//! ([`substrate::Protocol`]): they share the replicated RACE index
//! ([`layout`]), column recovery, the agreement and space walks, and differ
//! only in their record format and what they do after the bucket scan.
//!
//! The [`launch`] factory builds any of the three at matched laptop-scale
//! geometry (5 memory nodes; replication factor 3 against Aceso's
//! two-parity X-Code stripes, i.e. equal two-failure tolerance), which is
//! what the conformance suite and the chaos backend matrix run against.
//!
//! ```
//! use aceso_engines::{launch, EngineKind};
//!
//! let eng = launch(EngineKind::Swarm).unwrap();
//! let mut c = eng.client().unwrap();
//! c.insert(b"k", b"v").unwrap();
//! assert_eq!(c.search(b"k").unwrap().as_deref(), Some(&b"v"[..]));
//! let col = eng.home_col(b"k");
//! assert!(eng.kill_column(col));
//! eng.recover(&[], &[col]).unwrap();
//! assert_eq!(c.search(b"k").unwrap().as_deref(), Some(&b"v"[..]));
//! assert!(eng.check().unwrap().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fusee;
pub mod layout;
pub mod substrate;
pub mod swarm;

use aceso_core::{
    AcesoConfig, AcesoEngine, FtClient, FtEngine, FtError, FtResult, RecoverySummary, SpaceReport,
};
use aceso_rdma::{Cluster, FaultPlan, NodeId, OpStats, RdmaError};
use fusee::Fusee;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use substrate::{Protocol, ReplClient, ReplConfig, ReplError, ReplStore};
use swarm::Swarm;

/// The three strategies behind the seam.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Aceso's hybrid checkpoint + erasure scheme.
    Aceso,
    /// FUSEE-style full replication (replicated index, replicated KV).
    Fusee,
    /// SWARM-style in-place replication with the 1-RTT write path.
    Swarm,
}

impl EngineKind {
    /// All kinds, in Table 3 row order.
    pub const ALL: [EngineKind; 3] = [EngineKind::Aceso, EngineKind::Fusee, EngineKind::Swarm];

    /// The stable CLI name (`aceso` / `fusee` / `swarm`).
    pub fn as_str(&self) -> &'static str {
        match self {
            EngineKind::Aceso => "aceso",
            EngineKind::Fusee => "fusee",
            EngineKind::Swarm => "swarm",
        }
    }
}

impl core::str::FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|k| k.as_str() == s)
            .ok_or_else(|| format!("unknown engine '{s}' (aceso|fusee|swarm)"))
    }
}

impl core::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Launches an engine of the given kind at matched laptop-scale geometry:
/// 5 memory nodes everywhere, replication factor 3 for the replication
/// engines (equal two-failure tolerance with Aceso's two-parity X-Code).
pub fn launch(kind: EngineKind) -> FtResult<Box<dyn FtEngine>> {
    let repl = ReplConfig {
        index_groups: 128,
        ..ReplConfig::small()
    };
    Ok(match kind {
        EngineKind::Aceso => Box::new(AcesoEngine::launch(AcesoConfig {
            index_groups: 128,
            ..AcesoConfig::small()
        })?),
        EngineKind::Fusee => Box::new(FuseeEngine::launch(repl)),
        EngineKind::Swarm => Box::new(SwarmEngine::launch(repl)),
    })
}

impl From<ReplError> for FtError {
    fn from(e: ReplError) -> Self {
        match e {
            ReplError::Rdma(RdmaError::Injected { .. }) => FtError::Crashed(format!("{e:?}")),
            ReplError::Rdma(RdmaError::NodeUnreachable(_)) | ReplError::RetriesExhausted => {
                FtError::Unreachable(format!("{e:?}"))
            }
            ReplError::NotFound => FtError::NotFound,
            other => FtError::Other(format!("{other:?}")),
        }
    }
}

/// [`FtEngine`] adapter over a replicated store ([`substrate::ReplStore`]).
///
/// Recovery rebuilds the dead columns first — a restored primary is the
/// agreement baseline — then runs the protocol's own repair step
/// ([`Protocol::repair`]) once: FUSEE rolls
/// run-ahead backups back to the partition primary (its commit point),
/// restoring CAS liveness for later writers; SWARM converges torn cells on
/// the highest committed image and rolls back never-committed index slots.
pub struct ReplEngine<P: Protocol> {
    store: Arc<ReplStore<P>>,
    next_client: AtomicU32,
}

/// FUSEE full replication behind the seam.
pub type FuseeEngine = ReplEngine<Fusee>;
/// SWARM-style in-place replication behind the seam.
pub type SwarmEngine = ReplEngine<Swarm>;

impl<P: Protocol> ReplEngine<P> {
    /// Launches a replicated store with `cfg` behind the seam.
    pub fn launch(cfg: ReplConfig) -> Self {
        ReplEngine {
            store: ReplStore::launch(cfg),
            next_client: AtomicU32::new(0),
        }
    }

    /// The wrapped store, for surfaces the seam omits.
    pub fn store(&self) -> &Arc<ReplStore<P>> {
        &self.store
    }
}

struct ReplFtClient<P: Protocol> {
    inner: ReplClient<P>,
    id: u32,
}

impl<P: Protocol> FtClient for ReplFtClient<P> {
    fn insert(&mut self, key: &[u8], value: &[u8]) -> FtResult<()> {
        Ok(self.inner.insert(key, value)?)
    }

    fn update(&mut self, key: &[u8], value: &[u8]) -> FtResult<()> {
        Ok(self.inner.update(key, value)?)
    }

    fn search(&mut self, key: &[u8]) -> FtResult<Option<Vec<u8>>> {
        Ok(self.inner.search(key)?)
    }

    fn delete(&mut self, key: &[u8]) -> FtResult<bool> {
        Ok(self.inner.delete(key)?)
    }

    fn id(&self) -> u32 {
        self.id
    }

    fn quiesce(&mut self) -> FtResult<()> {
        Ok(()) // Replication has no client-buffered server state.
    }

    fn install_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.inner.dm.install_fault_plan(plan);
    }

    fn take_ops(&mut self) -> OpStats {
        self.inner.dm.take_ops()
    }

    fn reset_stats(&mut self) {
        self.inner.dm.reset_stats();
    }
}

impl<P: Protocol> FtEngine for ReplEngine<P> {
    fn kind(&self) -> &'static str {
        P::NAME
    }

    fn client(&self) -> FtResult<Box<dyn FtClient>> {
        Ok(Box::new(ReplFtClient {
            inner: self.store.client(),
            id: self.next_client.fetch_add(1, Ordering::Relaxed),
        }))
    }

    fn columns(&self) -> usize {
        self.store.cfg.num_mns
    }

    fn node_of(&self, col: usize) -> NodeId {
        self.store.node_of(col)
    }

    fn kill_column(&self, col: usize) -> bool {
        self.store.kill_mn(col)
    }

    /// The repair needs no client ids: it finds whatever any crashed
    /// writer left torn.
    fn recover(&self, _crashed: &[u32], dead: &[usize]) -> FtResult<RecoverySummary> {
        let mut sum = RecoverySummary::default();
        self.store.cluster.trace_barrier();
        for &col in dead {
            let r = self.store.recover_mn(col)?;
            self.store.cluster.trace_barrier();
            sum.net_ms += r.net_ms;
            sum.bytes += r.index_bytes + r.block_bytes;
            sum.kvs += r.slots;
        }
        self.store.repair()?;
        self.store.cluster.trace_barrier();
        Ok(sum)
    }

    fn check(&self) -> FtResult<Vec<String>> {
        Ok(self.store.replica_agreement())
    }

    fn space(&self) -> SpaceReport {
        let u = self.store.memory_usage();
        SpaceReport {
            valid: u.valid,
            redundancy: u.redundancy,
            delta: 0,
            allocated: u.allocated,
        }
    }

    fn cluster(&self) -> &Arc<Cluster> {
        &self.store.cluster
    }

    fn shutdown(&self) {
        // No background threads.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_names() {
        for kind in EngineKind::ALL {
            assert_eq!(kind.as_str().parse::<EngineKind>().unwrap(), kind);
            assert_eq!(launch(kind).unwrap().kind(), kind.as_str());
        }
        assert!("raft".parse::<EngineKind>().is_err());
    }

    #[test]
    fn error_classes_map_uniformly() {
        assert_eq!(FtError::from(ReplError::NotFound), FtError::NotFound);
        assert!(matches!(
            FtError::from(ReplError::RetriesExhausted),
            FtError::Unreachable(_)
        ));
        assert!(matches!(
            FtError::from(ReplError::OutOfBlocks),
            FtError::Other(_)
        ));
    }
}
