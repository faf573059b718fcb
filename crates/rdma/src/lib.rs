//! A simulated RDMA-connected disaggregated-memory (DM) fabric.
//!
//! The Aceso paper runs on a CloudLab testbed with 56 Gbps ConnectX-3 RNICs.
//! This crate replaces that hardware with an in-process substitute that keeps
//! the two properties every protocol in the paper depends on:
//!
//! 1. **Real one-sided semantics.** Memory-node regions are arrays of
//!    [`std::sync::atomic::AtomicU64`]; `RDMA_READ`/`RDMA_WRITE` are per-word
//!    atomic accesses and `RDMA_CAS`/`RDMA_FAA` are genuine hardware atomics
//!    on 8-byte-aligned words. Concurrent clients race for real, so the
//!    linearizability arguments of the store are exercised, not mocked.
//! 2. **A calibrated NIC performance envelope.** Every verb a client issues
//!    is recorded into per-client and per-node counters. The [`cost`] module
//!    converts those *measured* profiles into throughput and latency numbers
//!    using an analytic bottleneck model of the RNIC (IOPS bound, atomic-op
//!    bound, bandwidth bound, client round-trip bound).
//!
//! The crate additionally provides the surrounding datacenter scaffolding the
//! paper assumes: a [`cluster::Cluster`] of memory nodes with fail-stop
//! failure injection (a client learns of a crash from a failing verb), and
//! typed caller-runs RPC endpoints standing in for RDMA UD send/recv.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod cluster;
pub mod cost;
pub mod cq;
pub mod error;
pub mod fault;
pub mod region;
pub mod rpc;
pub mod stats;
pub mod trace;
pub mod verbs;

pub use addr::{GlobalAddr, NodeId};
pub use cluster::{Cluster, ClusterConfig, MemoryNode};
pub use cost::{Bottleneck, CostModel, LatencyReport, PhaseMeasurement, PhaseReport};
pub use cq::{block_on, Completion, SimCq};
pub use error::{RdmaError, Result};
pub use fault::{FaultAction, FaultPlan, FaultRule, FaultSite, FiredFault, VerbKind};
pub use region::Region;
pub use rpc::{RpcClient, RpcHandler};
pub use stats::{OpKind, OpRecord, OpStats, VerbCounters};
pub use trace::{TraceEvent, TraceOp, TraceSink, VecSink};
pub use verbs::DmClient;
