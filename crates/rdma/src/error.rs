//! Error types for the simulated fabric.

use crate::addr::NodeId;
use crate::fault::VerbKind;
use core::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = core::result::Result<T, RdmaError>;

/// Errors surfaced by verbs and RPC on the simulated fabric.
///
/// Under the paper's fail-stop model the only runtime failure a client
/// observes is an unreachable node; the remaining variants are programming
/// errors (bad addresses) or shutdown races, kept as errors rather than
/// panics so the store's failure-handling paths can exercise them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RdmaError {
    /// The target memory node has crashed (fail-stop) or been removed.
    NodeUnreachable(NodeId),
    /// The address is outside the node's registered region.
    OutOfBounds {
        /// Offending node.
        node: NodeId,
        /// Requested byte offset.
        offset: u64,
        /// Requested access length in bytes.
        len: usize,
        /// Size of the registered region in bytes.
        region: usize,
    },
    /// An atomic verb was issued on a non-8-byte-aligned address.
    Unaligned(u64),
    /// A CAS/FAA targeted a misaligned or out-of-region word. Caught at the
    /// verb layer before the memory is touched: a real RNIC would complete
    /// such an atomic with undefined semantics, so the simulation fails it
    /// loudly instead (see `aceso-san`'s alignment lints).
    Misaligned {
        /// The offending verb's class.
        verb: VerbKind,
        /// The verb's target node.
        node: NodeId,
        /// The misaligned byte offset.
        offset: u64,
    },
    /// The RPC endpoint's server (or its node) is dead.
    RpcClosed,
    /// An installed [`crate::FaultPlan`] failed this verb. Unlike
    /// `NodeUnreachable` (which clients retry across recovery), an injected
    /// failure propagates, standing in for a client that crashed at this
    /// exact protocol step.
    Injected {
        /// The failed verb's class.
        verb: VerbKind,
        /// The verb's target node.
        node: NodeId,
    },
    /// The verb targeted a range whose placement moved in a newer epoch
    /// than the client's session epoch (see
    /// [`crate::MemoryNode::install_fence`]). The client must refresh its
    /// placement view and re-resolve the address; retrying the same verb
    /// verbatim fails forever.
    EpochFenced {
        /// The node that rejected the access.
        node: NodeId,
        /// The placement epoch the client must catch up to.
        required: u64,
    },
}

impl fmt::Display for RdmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdmaError::NodeUnreachable(n) => write!(f, "node {n} unreachable"),
            RdmaError::OutOfBounds {
                node,
                offset,
                len,
                region,
            } => write!(
                f,
                "access [{offset:#x}, +{len}) out of bounds on {node} (region {region} bytes)"
            ),
            RdmaError::Unaligned(off) => write!(f, "atomic verb on unaligned offset {off:#x}"),
            RdmaError::Misaligned { verb, node, offset } => {
                write!(f, "{verb} on {node} targets misaligned word {offset:#x}")
            }
            RdmaError::RpcClosed => write!(f, "rpc endpoint closed"),
            RdmaError::Injected { verb, node } => {
                write!(f, "injected fault on {verb} to {node}")
            }
            RdmaError::EpochFenced { node, required } => {
                write!(
                    f,
                    "access fenced on {node}: placement moved at epoch {required}"
                )
            }
        }
    }
}

impl std::error::Error for RdmaError {}
