//! The memory pool: a cluster of memory nodes.

use crate::addr::{GlobalAddr, NodeId};
use crate::cost::CostModel;
use crate::error::{RdmaError, Result};
use crate::fault::{FaultPlan, PlanSlot};
use crate::region::Region;
use crate::stats::VerbCounters;
use crate::trace::{TraceEvent, TraceOp, TraceSink};
use crate::verbs::DmClient;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// One epoch fence: accesses overlapping `[start, start + len)` require a
/// client placement epoch of at least `min_epoch`.
#[derive(Clone, Copy, Debug)]
struct EpochFence {
    start: u64,
    len: usize,
    min_epoch: u64,
}

/// A memory node (MN): one registered region behind one simulated RNIC.
pub struct MemoryNode {
    /// This node's id.
    pub id: NodeId,
    /// The registered memory region.
    pub region: Arc<Region>,
    alive: AtomicBool,
    /// Foreground (client-initiated) traffic through this node's NIC.
    pub traffic: VerbCounters,
    /// Background (server/recovery-initiated) traffic through this NIC.
    pub background: VerbCounters,
    /// Node-side fault plan: intercepts every verb targeting this node,
    /// from any client (see [`crate::FaultPlan`]).
    fault: PlanSlot,
    /// Placement-epoch fences over byte ranges (see
    /// [`MemoryNode::install_fence`]).
    fences: Mutex<Vec<EpochFence>>,
    /// Fast-path flag mirroring `!fences.is_empty()`; verbs check this
    /// single relaxed load, so fencing is free when no migration runs.
    fenced: AtomicBool,
}

impl MemoryNode {
    fn new(id: NodeId, region: Region) -> Self {
        MemoryNode {
            id,
            region: Arc::new(region),
            alive: AtomicBool::new(true),
            traffic: VerbCounters::new(),
            background: VerbCounters::new(),
            fault: PlanSlot::default(),
            fences: Mutex::new(Vec::new()),
            fenced: AtomicBool::new(false),
        }
    }

    /// Whether this node is currently reachable.
    #[inline]
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Fails the node: all subsequent verbs return `NodeUnreachable`.
    /// Returns whether the node was alive (idempotent; `false` on a
    /// double-kill).
    pub fn kill(&self) -> bool {
        self.alive.swap(false, Ordering::AcqRel)
    }

    /// Installs a fault plan intercepting all verbs to this node.
    pub fn install_fault_plan(&self, plan: Arc<FaultPlan>) {
        self.fault.set(Some(plan));
    }

    /// Removes the node's fault plan, if any.
    pub fn clear_fault_plan(&self) {
        self.fault.set(None);
    }

    /// The currently installed fault plan, if any. Single relaxed load
    /// when none is installed.
    #[inline]
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.fault.get()
    }

    /// Installs a placement-epoch fence over `[start, start + len)`:
    /// verbs from clients whose session placement epoch (see
    /// [`crate::DmClient::set_placement_epoch`]) is below `min_epoch`
    /// fail with [`crate::RdmaError::EpochFenced`] until the client
    /// refreshes its placement view. The migrator fences a range *before*
    /// moving it, so a client still resolving addresses through a stale
    /// `PlacementMap` can neither read a half-moved block nor write
    /// through a retired location. Clients that never set an epoch
    /// (background, recovery, control plane) pass all fences.
    pub fn install_fence(&self, start: u64, len: usize, min_epoch: u64) {
        let mut g = self.fences.lock();
        g.push(EpochFence {
            start,
            len,
            min_epoch,
        });
        self.fenced.store(true, Ordering::Release);
    }

    /// Removes every fence (migration finished or aborted).
    pub fn clear_fences(&self) {
        let mut g = self.fences.lock();
        g.clear();
        self.fenced.store(false, Ordering::Release);
    }

    /// The minimum placement epoch required to access
    /// `[start, start + len)`, or `None` if the range is unfenced.
    /// Single relaxed load when no fences are installed.
    #[inline]
    pub fn fence_required(&self, start: u64, len: usize) -> Option<u64> {
        if !self.fenced.load(Ordering::Relaxed) {
            return None;
        }
        let end = start.saturating_add(len as u64);
        self.fences
            .lock()
            .iter()
            .filter(|f| start < f.start.saturating_add(f.len as u64) && f.start < end)
            .map(|f| f.min_epoch)
            .max()
    }
}

/// Static configuration of a simulated cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of memory nodes (the paper's coding group size; default 5).
    pub num_mns: usize,
    /// Registered region size per MN in bytes.
    pub region_len: usize,
    /// NIC cost model used by the performance reports.
    pub cost: CostModel,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_mns: 5,
            region_len: 256 << 20,
            cost: CostModel::default(),
        }
    }
}

/// Nodes per [`NodeTable`] chunk.
const TABLE_CHUNK: usize = 256;

/// Append-only table of every node ever added, indexed by [`NodeId`].
///
/// Slots are set once, in id order, and never cleared, so a lookup is two
/// acquire loads — no lock, no reference count — and hands out a plain
/// reference that lives as long as the cluster. Chunks are allocated on
/// first use; the table spans the whole `u16` id space.
struct NodeTable {
    chunks: Box<[OnceLock<NodeChunk>]>,
    /// Number of nodes added; the lock serialises appends.
    len: Mutex<usize>,
}

type NodeChunk = Box<[OnceLock<Arc<MemoryNode>>]>;

impl NodeTable {
    fn new() -> Self {
        let chunks = (u16::MAX as usize + 1) / TABLE_CHUNK;
        NodeTable {
            chunks: (0..chunks).map(|_| OnceLock::new()).collect(),
            len: Mutex::new(0),
        }
    }

    fn get(&self, id: NodeId) -> Option<&Arc<MemoryNode>> {
        let i = id.0 as usize;
        self.chunks[i / TABLE_CHUNK].get()?[i % TABLE_CHUNK].get()
    }

    fn len(&self) -> usize {
        *self.len.lock()
    }

    /// Appends the node `make` builds for the next free id.
    fn push(&self, make: impl FnOnce(NodeId) -> MemoryNode) -> Arc<MemoryNode> {
        let mut len = self.len.lock();
        let id = u16::try_from(*len).expect("node ids are 16 bits");
        let node = Arc::new(make(NodeId(id)));
        let chunk = self.chunks[*len / TABLE_CHUNK]
            .get_or_init(|| (0..TABLE_CHUNK).map(|_| OnceLock::new()).collect());
        assert!(
            chunk[*len % TABLE_CHUNK].set(Arc::clone(&node)).is_ok(),
            "node slot {id} set twice"
        );
        *len += 1;
        node
    }

    /// Every node, in id order.
    fn iter(&self) -> impl Iterator<Item = &Arc<MemoryNode>> {
        (0..self.len()).map(|i| self.get(NodeId(i as u16)).expect("slot below len is set"))
    }
}

/// A cluster: the memory pool and the cost model.
///
/// The cluster is the root object of a simulation. Memory nodes are appended,
/// never removed — a crashed node keeps its slot (so stale [`NodeId`]s fail
/// loudly) and its replacement gets a fresh id, matching the paper's model of
/// "start a new server on an idle MN". The idle MN is the *standby*: a
/// zeroed region [`Cluster::refill_standby`] builds ahead of the failure and
/// [`Cluster::add_node`] claims, so a replacement's memory is registered
/// before it is needed.
pub struct Cluster {
    nodes: NodeTable,
    /// Length of every node's region.
    region_len: usize,
    /// The standby region: zeroed, pages touched, no node id yet, so no
    /// verb can reach it.
    standby: Mutex<Option<Region>>,
    /// The NIC cost model shared by all performance reports.
    pub cost: CostModel,
    /// Installed verb-trace sink, if any (see [`crate::TraceSink`]).
    trace: RwLock<Option<Arc<dyn TraceSink>>>,
    /// Fast-path flag mirroring `trace.is_some()`; verbs check this single
    /// relaxed load before touching the sink lock, so tracing is free when
    /// disabled.
    trace_on: AtomicBool,
    /// Next dense trace client id handed to a new [`DmClient`].
    next_trace_client: AtomicU32,
}

impl Cluster {
    /// Builds a cluster with `config.num_mns` fresh memory nodes.
    pub fn new(config: ClusterConfig) -> Arc<Self> {
        let nodes = NodeTable::new();
        for _ in 0..config.num_mns {
            nodes.push(|id| MemoryNode::new(id, Region::new(id, config.region_len)));
        }
        Arc::new(Cluster {
            nodes,
            region_len: config.region_len,
            standby: Mutex::new(None),
            cost: config.cost,
            trace: RwLock::new(None),
            trace_on: AtomicBool::new(false),
            next_trace_client: AtomicU32::new(0),
        })
    }

    /// Installs a verb-trace sink observing every memory-effective verb from
    /// every client of this cluster (see [`crate::TraceSink`]).
    pub fn install_trace_sink(&self, sink: Arc<dyn TraceSink>) {
        *self.trace.write() = Some(sink);
        self.trace_on.store(true, Ordering::Release);
    }

    /// Removes the trace sink, if any. In-flight verbs may still deliver a
    /// final event to the old sink.
    pub fn clear_trace_sink(&self) {
        self.trace_on.store(false, Ordering::Release);
        *self.trace.write() = None;
    }

    /// Whether a trace sink is installed (single relaxed load; the verb
    /// fast path).
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace_on.load(Ordering::Relaxed)
    }

    /// The installed trace sink, if any.
    pub fn trace_sink(&self) -> Option<Arc<dyn TraceSink>> {
        if !self.trace_enabled() {
            return None;
        }
        self.trace.read().clone()
    }

    /// Emits a [`crate::TraceOp::Barrier`] event: the harness asserts that
    /// everything traced so far happens-before everything traced after
    /// (recovery hand-offs, test phase boundaries). No-op when tracing is
    /// disabled, so runners may call it unconditionally.
    pub fn trace_barrier(&self) {
        if let Some(sink) = self.trace_sink() {
            sink.record(TraceEvent {
                client: TraceEvent::BARRIER_CLIENT,
                seq: 0,
                node: NodeId(0),
                op: TraceOp::Barrier,
                offset: 0,
                len: 0,
            });
        }
    }

    /// Allocates the next dense trace client id (one per [`DmClient`]).
    pub(crate) fn next_trace_client(&self) -> u32 {
        self.next_trace_client.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns the node handle for `id`, whether alive or crashed.
    ///
    /// Most callers want [`Cluster::node`], which additionally checks
    /// liveness; this accessor exists for recovery tooling and tests.
    pub fn node_any(&self, id: NodeId) -> Option<Arc<MemoryNode>> {
        self.nodes.get(id).cloned()
    }

    /// Returns the node handle for `id` if it is alive.
    pub fn node(&self, id: NodeId) -> Result<Arc<MemoryNode>> {
        self.node_ref(id).map(Arc::clone)
    }

    /// [`Cluster::node`] without the reference count: what every verb
    /// resolves its target through.
    #[inline]
    pub(crate) fn node_ref(&self, id: NodeId) -> Result<&Arc<MemoryNode>> {
        self.nodes
            .get(id)
            .filter(|n| n.is_alive())
            .ok_or(RdmaError::NodeUnreachable(id))
    }

    /// All node handles, including crashed ones, in id order.
    pub fn nodes(&self) -> Vec<Arc<MemoryNode>> {
        self.nodes.iter().cloned().collect()
    }

    /// Number of nodes ever added.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Injects a fail-stop crash of `id`: verbs to it start failing, which
    /// is how clients learn of it. Also how a node is retired after a
    /// planned drain or an abandoned replacement — to the fabric a retired
    /// address is a dead one; what makes it planned is that the caller
    /// moved everything that referenced the node first.
    ///
    /// Idempotent: returns whether the node was alive, so chaos schedules
    /// that double-kill a node are well-defined (the second kill is a no-op
    /// returning `false`).
    pub fn kill_node(&self, id: NodeId) -> bool {
        self.node_any(id).is_some_and(|n| n.kill())
    }

    /// Adds a memory node with the next fresh id (a recovery or join target)
    /// and returns its handle. The node claims the standby region if there
    /// is one, and allocates a zeroed region otherwise.
    pub fn add_node(&self) -> Arc<MemoryNode> {
        let standby = self.standby.lock().take();
        self.nodes.push(|id| {
            let mut region = standby.unwrap_or_else(|| Region::new(id, self.region_len));
            region.claim(id);
            MemoryNode::new(id, region)
        })
    }

    /// Builds the standby region if there is none, so that zero-filling it
    /// is paid here, by the caller's tick, rather than by the next
    /// [`Cluster::add_node`].
    pub fn refill_standby(&self) {
        self.standby
            .lock()
            .get_or_insert_with(|| Region::new(GlobalAddr::NULL.node, self.region_len));
    }

    /// Creates a foreground client handle (a compute-node thread).
    pub fn client(self: &Arc<Self>) -> DmClient {
        DmClient::new(Arc::clone(self), false)
    }

    /// Creates a background client handle whose traffic is accounted to the
    /// per-node background counters (MN servers, checkpointing, recovery).
    pub fn background_client(self: &Arc<Self>) -> DmClient {
        DmClient::new(Arc::clone(self), true)
    }

    /// Resets all per-node traffic counters (start of a measurement phase).
    pub fn reset_traffic(&self) {
        for n in self.nodes.iter() {
            n.traffic.reset();
            n.background.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(num_mns: usize) -> Arc<Cluster> {
        Cluster::new(ClusterConfig {
            num_mns,
            region_len: 4096,
            cost: CostModel::default(),
        })
    }

    #[test]
    fn build_and_kill() {
        let c = cluster(3);
        assert_eq!(c.len(), 3);
        assert!(c.node(NodeId(2)).is_ok());
        assert!(c.kill_node(NodeId(2)));
        // Idempotent: a double-kill reports the node was already dead.
        assert!(!c.kill_node(NodeId(2)));
        assert!(!c.kill_node(NodeId(9)));
        assert!(matches!(
            c.node(NodeId(2)),
            Err(RdmaError::NodeUnreachable(NodeId(2)))
        ));
        // The handle is still reachable for forensic access.
        assert!(c.node_any(NodeId(2)).is_some());
    }

    #[test]
    fn add_node_gets_fresh_id() {
        let c = cluster(2);
        c.kill_node(NodeId(0));
        c.kill_node(NodeId(0)); // Well-defined no-op.
        let n = c.add_node();
        // Appended ids never reuse a crashed slot, with or without a standby.
        assert_eq!((n.id, c.add_node().id), (NodeId(2), NodeId(3)));
        c.refill_standby();
        assert_eq!((c.add_node().id, c.add_node().id), (NodeId(4), NodeId(5)));
        assert_eq!(c.len(), 6);
        // The replacement accepts verbs; the dead node keeps failing.
        let cl = c.client();
        cl.write(GlobalAddr::new(NodeId(2), 0), &[1u8; 8]).unwrap();
        assert!(cl.write(GlobalAddr::new(NodeId(0), 0), &[1u8; 8]).is_err());
    }

    /// What a fresh node looks like from outside: zeroed, and out of bounds
    /// one byte past its region's end, naming itself.
    fn assert_fresh(n: &MemoryNode) {
        assert_eq!(n.region.read_vec(0, 4096).unwrap(), vec![0u8; 4096]);
        let past_end = n.region.read_vec(4096, 1).unwrap_err();
        assert!(
            matches!(past_end, RdmaError::OutOfBounds { node, region: 4096, .. } if node == n.id),
            "{past_end:?}"
        );
    }

    #[test]
    fn claimed_standby_is_a_fresh_node() {
        let c = cluster(2);
        c.refill_standby();
        assert!(c.standby.lock().is_some());
        let claimed = c.add_node();
        assert!(c.standby.lock().is_none(), "add_node claims the standby");
        assert_fresh(&claimed);
        // No refill in between: the next node gets a region of its own.
        assert_fresh(&c.add_node());
    }

    #[test]
    fn refill_keeps_the_standby_it_has() {
        let c = cluster(1);
        c.refill_standby();
        c.standby.lock().as_ref().unwrap().write(0, &[7]).unwrap();
        c.refill_standby();
        assert_eq!(c.add_node().region.read_vec(0, 1).unwrap(), [7]);
    }

    #[test]
    fn fences_report_strictest_overlap() {
        let c = cluster(1);
        let n = c.node(NodeId(0)).unwrap();
        assert_eq!(n.fence_required(0, 4096), None);
        n.install_fence(100, 100, 3);
        n.install_fence(150, 100, 7);
        assert_eq!(n.fence_required(0, 100), None); // ends at fence start
        assert_eq!(n.fence_required(120, 8), Some(3));
        assert_eq!(n.fence_required(180, 8), Some(7));
        assert_eq!(n.fence_required(140, 20), Some(7)); // spans both
        assert_eq!(n.fence_required(250, 8), None);
        n.clear_fences();
        assert_eq!(n.fence_required(120, 8), None);
    }

    #[test]
    fn unknown_node_is_unreachable() {
        let c = cluster(1);
        assert!(c.node(NodeId(9)).is_err());
    }
}
