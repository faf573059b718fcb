//! Aceso: a memory-disaggregated KV store with hybrid fault tolerance.
//!
//! This crate is the paper's primary contribution (§3): a fully
//! disaggregated KV store whose index is protected by **differential
//! checkpointing with versioning** and whose KV pairs are protected by
//! **offline X-Code erasure coding with delta-based space reclamation**,
//! plus **tiered recovery** that brings the store back within the index
//! tier's recovery time.
//!
//! Map from the paper to modules:
//!
//! | Paper | Module |
//! |---|---|
//! | §3.1 overview, memory areas | [`config`] |
//! | §3.2.2 slot versioning (Algorithm 1), client ops | [`client`] |
//! | §3.5.1 bounded client index cache | [`cache`] |
//! | KV pair / delta wire format, Write Versions (§3.4.2) | [`kv`] |
//! | §3.2.1/§3.2.3 differential checkpointing + Index Version | [`ckpt`] |
//! | §3.3 offline erasure coding, §3.3.3 reclamation (server side) | [`server`] |
//! | §3.4 failure handling, tiered recovery | [`recovery`] |
//! | client↔server RPC protocol | [`proto`] |
//! | top-level orchestration (launch, kill, recover) | [`store`] |
//! | elastic membership (online MN add/drain) | [`placement`], [`elastic`] |
//! | §5 Table 3 strategy comparison seam | [`engine`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod ckpt;
pub mod client;
pub mod config;
pub mod elastic;
pub mod engine;
pub mod kv;
pub mod placement;
pub mod proto;
pub mod recovery;
pub mod scrub;
pub mod server;
pub mod store;
mod stripe;

pub use cache::{CacheEntry, IndexCache};
pub use client::{AcesoClient, ModelMutation};
pub use config::{AcesoConfig, ClientTuning, MemoryMap};
pub use elastic::{ElasticReport, ElasticStep, Migration};
pub use engine::{AcesoEngine, FtClient, FtEngine, FtError, FtResult, RecoverySummary, SpaceReport};
pub use placement::{ElasticKind, MigrationView, PlacementMap, PlacementSnapshot};
pub use recovery::{
    recover_cn, recover_mn, CnRecoveryReport, Recovery, RecoveryReport, RecoveryTier,
};
pub use scrub::{parity_scrub, replica_agreement, scrub, IvWatch, ScrubReport};
pub use store::{AcesoStore, MemoryUsage};
pub use stripe::read_records;

/// Errors surfaced by the store API.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StoreError {
    /// Fabric-level failure (node unreachable, RPC closed…).
    Rdma(aceso_rdma::RdmaError),
    /// The key was not found (UPDATE/DELETE of a missing key).
    NotFound,
    /// The index partition has no free slot for this key's buckets.
    IndexFull,
    /// The memory pool has no free block of the required size class.
    OutOfBlocks,
    /// The key or value exceeds the supported size envelope.
    TooLarge,
    /// Commit kept failing beyond the retry budget (extreme contention or
    /// an in-progress recovery).
    RetriesExhausted,
    /// The store is shutting down.
    Shutdown,
    /// [`AcesoStore::begin_recovery`] of a column whose node is alive.
    ColumnAlive(usize),
    /// Recovery cannot decode: `lost` columns are down and the coding
    /// group tolerates two.
    TooManyColumnsLost {
        /// Columns currently down.
        lost: usize,
    },
}

impl From<aceso_rdma::RdmaError> for StoreError {
    fn from(e: aceso_rdma::RdmaError) -> Self {
        StoreError::Rdma(e)
    }
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Rdma(e) => write!(f, "fabric: {e}"),
            StoreError::NotFound => write!(f, "key not found"),
            StoreError::IndexFull => write!(f, "index bucket group full"),
            StoreError::OutOfBlocks => write!(f, "memory pool exhausted"),
            StoreError::TooLarge => write!(f, "kv exceeds size envelope"),
            StoreError::RetriesExhausted => write!(f, "commit retries exhausted"),
            StoreError::Shutdown => write!(f, "store shut down"),
            StoreError::ColumnAlive(col) => write!(f, "column {col} is alive, nothing to recover"),
            StoreError::TooManyColumnsLost { lost } => {
                write!(f, "{lost} columns lost, X-Code recovers at most 2")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Crate-wide result type.
pub type Result<T> = core::result::Result<T, StoreError>;
