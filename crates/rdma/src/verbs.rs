//! Client-side one-sided verbs with transparent accounting.
//!
//! A [`DmClient`] is the simulated equivalent of a compute-node thread's set
//! of RC queue pairs. Every verb performs the real memory operation on the
//! target node's region *and* records its cost:
//!
//! * into the current operation's profile (round trips, verbs, bytes,
//!   retries; drained by [`DmClient::take_ops`]), and
//! * into the target node's foreground or background [`VerbCounters`],
//!   depending on whether the client was created with
//!   [`crate::Cluster::client`] or [`crate::Cluster::background_client`].
//!
//! Doorbell batching is modelled by [`DmClient::batch`]: verbs issued inside
//! the closure count individually against NIC IOPS but share a single
//! sequential round trip in the latency profile, mirroring how a doorbell
//! batch posts several WQEs with one PCIe doorbell and overlapping flight
//! times.

use crate::addr::{GlobalAddr, NodeId};
use crate::cluster::{Cluster, MemoryNode};
use crate::cq::{Completion, SimCq};
use crate::error::{RdmaError, Result};
use crate::fault::{FaultAction, FaultPlan, FaultSite, PlanSlot, VerbKind};
use crate::rpc::RpcClient;
use crate::stats::{OpKind, OpRecord, OpStats, VerbCounters};
use crate::trace::{TraceEvent, TraceOp};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Default)]
struct CurOp {
    active: bool,
    rtts: u32,
    verbs: u32,
    cas: u32,
    rpcs: u32,
    read_bytes: u32,
    write_bytes: u32,
    retries: u32,
    batch_depth: u32,
    batch_rtt_counted: bool,
    /// Verbs issued so far inside the current outermost batch.
    batch_verbs: u32,
    /// Deepest doorbell batch seen during this op.
    batch_max: u32,
    /// Doorbell batches that posted at least one verb.
    batches: u32,
    /// Total verbs posted inside batches during this op.
    batched_total: u32,
}

enum VerbClass {
    Read,
    Write,
    Cas,
    Faa,
}

/// Modeled latency accrued since the last [`DmClient::settle`]. Only
/// maintained while a completion queue is attached; independent of the
/// per-op profile so preload and background paths accrue too.
#[derive(Default)]
struct Accrual {
    /// Microseconds of fabric wait owed to the completion queue.
    us: f64,
    /// The next verb is the first of an outermost doorbell batch (pays a
    /// full round trip; the chained rest pay only the posting tax).
    batch_first: bool,
}

/// Everything a verb updates, behind the client's one lock: a verb takes
/// it once for the op profile and the latency accrual together.
#[derive(Default)]
struct Session {
    op: CurOp,
    accr: Accrual,
    /// Attached completion queue, if this client runs in async mode.
    cq: Option<Arc<SimCq>>,
    /// Virtual ns at which this client's link finishes the last transfer
    /// it posted: it carries one at a time.
    link_free_ns: u64,
}

/// A client endpoint on the simulated fabric.
///
/// One `DmClient` belongs to one thread of execution (it is `Sync` only for
/// convenience of sharing through `Arc` in tests; per-op profiles assume the
/// owner serializes its own operations, as a real client coroutine does).
pub struct DmClient {
    cluster: Arc<Cluster>,
    background: bool,
    ops: Mutex<OpStats>,
    session: Mutex<Session>,
    fault: PlanSlot,
    /// Fast-path flag mirroring `session.cq.is_some()`.
    cq_on: AtomicBool,
    /// Dense per-cluster id identifying this client in verb traces.
    trace_id: u32,
    /// Per-client event sequence number for the trace stream.
    trace_seq: AtomicU64,
    /// Session placement epoch checked against node fences (see
    /// [`DmClient::set_placement_epoch`]). Defaults to `u64::MAX`, which
    /// passes every fence: clients that do not participate in placement
    /// (background, recovery, control plane) stay unaffected.
    placement_epoch: AtomicU64,
    /// Nodes a verb of this client found unreachable (see
    /// [`DmClient::is_down`]).
    down: Mutex<Vec<NodeId>>,
}

impl DmClient {
    pub(crate) fn new(cluster: Arc<Cluster>, background: bool) -> Self {
        let trace_id = cluster.next_trace_client();
        DmClient {
            cluster,
            background,
            ops: Mutex::new(OpStats::new()),
            session: Mutex::new(Session::default()),
            fault: PlanSlot::default(),
            cq_on: AtomicBool::new(false),
            trace_id,
            trace_seq: AtomicU64::new(0),
            placement_epoch: AtomicU64::new(u64::MAX),
            down: Mutex::new(Vec::new()),
        }
    }

    /// Whether a verb of this client has found `node` unreachable. On RC
    /// RDMA its queue pair has been in the error state since then, so a
    /// verb posted to it could only be flushed. The view only grows: nodes
    /// fail-stop, and a replacement always gets a fresh id.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down.lock().contains(&node)
    }

    /// Declares the placement epoch this client's address resolution is
    /// based on. Verbs targeting a range fenced at a newer epoch (see
    /// [`crate::MemoryNode::install_fence`]) fail with
    /// [`RdmaError::EpochFenced`] until the client refreshes its placement
    /// view and calls this again. Stands in for the epoch tag a real
    /// fabric would carry in each request header.
    pub fn set_placement_epoch(&self, epoch: u64) {
        self.placement_epoch.store(epoch, Ordering::Release);
    }

    /// The placement epoch last declared via
    /// [`DmClient::set_placement_epoch`] (`u64::MAX` if never set).
    pub fn placement_epoch(&self) -> u64 {
        self.placement_epoch.load(Ordering::Acquire)
    }

    /// Rejects an access overlapping a range fenced at a newer placement
    /// epoch than this client has declared. One relaxed load when the
    /// node carries no fences.
    #[inline]
    fn check_fence(&self, node: &MemoryNode, offset: u64, len: usize) -> Result<()> {
        if let Some(required) = node.fence_required(offset, len) {
            if self.placement_epoch.load(Ordering::Acquire) < required {
                return Err(RdmaError::EpochFenced {
                    node: node.id,
                    required,
                });
            }
        }
        Ok(())
    }

    /// This client's id in verb traces (see [`crate::TraceEvent`]).
    pub fn trace_id(&self) -> u32 {
        self.trace_id
    }

    /// Delivers one event to the cluster's trace sink, if installed. Called
    /// only after the verb's memory effect landed, so the trace is exactly
    /// the set of accesses a remote NIC executed.
    #[inline]
    fn trace(&self, node: NodeId, op: TraceOp, offset: u64, len: usize) {
        if !self.cluster.trace_enabled() {
            return;
        }
        if let Some(sink) = self.cluster.trace_sink() {
            let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
            sink.record(TraceEvent {
                client: self.trace_id,
                seq,
                node,
                op,
                offset,
                len,
            });
        }
    }

    /// Rejects CAS/FAA targets that a real RNIC would corrupt silently:
    /// the word must be 8-byte aligned and entirely inside the region.
    /// Checked unconditionally (the typed error *is* the assertion) so the
    /// protocol lints in `aceso-san` can exercise the failure path.
    fn check_atomic_target(&self, node: &MemoryNode, kind: VerbKind, offset: u64) -> Result<()> {
        let aligned = offset.is_multiple_of(8);
        let in_region = offset
            .checked_add(8)
            .is_some_and(|end| end as usize <= node.region.len());
        if !aligned || !in_region {
            return Err(RdmaError::Misaligned {
                verb: kind,
                node: node.id,
                offset,
            });
        }
        Ok(())
    }

    /// Installs a fault plan intercepting every verb this client issues.
    pub fn install_fault_plan(&self, plan: Arc<FaultPlan>) {
        self.fault.set(Some(plan));
    }

    /// Removes this client's fault plan, if any.
    pub fn clear_fault_plan(&self) {
        self.fault.set(None);
    }

    /// Consults the client-side then the node-side fault plan for one verb.
    /// `Ok(true)` means "execute the verb, then fail-stop the target node"
    /// ([`FaultAction::KillNode`]); delays are served inline; `Fail`
    /// surfaces as [`RdmaError::Injected`] before the memory is touched.
    /// Two relaxed loads while neither plan is installed.
    fn intercept(
        &self,
        node: &MemoryNode,
        kind: VerbKind,
        offset: u64,
        len: usize,
    ) -> Result<bool> {
        let site = FaultSite {
            kind,
            node: node.id,
            offset,
            len,
        };
        let mut kill_after = false;
        let plans = [self.fault.get(), node.fault_plan()];
        for plan in plans.into_iter().flatten() {
            match plan.intercept(site) {
                None => {}
                Some(FaultAction::Fail) => {
                    return Err(RdmaError::Injected {
                        verb: kind,
                        node: node.id,
                    })
                }
                Some(FaultAction::Delay(us)) => FaultPlan::apply_delay(us),
                Some(FaultAction::KillNode) => kill_after = true,
            }
        }
        Ok(kill_after)
    }

    /// The cluster this client is attached to.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    fn node(&self, id: NodeId) -> Result<&MemoryNode> {
        let node = self.cluster.node_ref(id);
        if node.is_err() && !self.is_down(id) {
            self.down.lock().push(id);
        }
        node.map(Arc::as_ref)
    }

    /// The per-node counters this client's traffic is charged to.
    fn node_counters<'a>(&self, node: &'a MemoryNode) -> &'a VerbCounters {
        if self.background {
            &node.background
        } else {
            &node.traffic
        }
    }

    fn account(&self, node: &MemoryNode, class: VerbClass, rd: usize, wr: usize) {
        // CAS stays out of the doorbell discount: the commit CAS is the
        // ordered release edge and never rides inside a batch.
        let batchable = !matches!(class, VerbClass::Cas);
        let in_batch = {
            let mut s = self.session.lock();
            let cur = &mut s.op;
            let in_batch = cur.batch_depth > 0;
            if cur.active {
                cur.verbs += 1;
                if matches!(class, VerbClass::Cas) {
                    cur.cas += 1;
                }
                cur.read_bytes = cur.read_bytes.saturating_add(rd as u32);
                cur.write_bytes = cur.write_bytes.saturating_add(wr as u32);
                if in_batch {
                    if !cur.batch_rtt_counted {
                        cur.batch_rtt_counted = true;
                        cur.rtts += 1;
                        cur.batches += 1;
                    }
                    cur.batch_verbs += 1;
                    cur.batch_max = cur.batch_max.max(cur.batch_verbs);
                    if batchable {
                        cur.batched_total += 1;
                    }
                } else {
                    cur.rtts += 1;
                }
            }
            if self.cq_on.load(Ordering::Relaxed) {
                let rtt = self.cluster.cost.rtt_us;
                self.accrue(&mut s.accr, in_batch, batchable, rtt, rd + wr);
            }
            in_batch
        };
        let ctr = self.node_counters(node);
        let verbs = match class {
            VerbClass::Read => &ctr.reads,
            VerbClass::Write => &ctr.writes,
            VerbClass::Cas => &ctr.cas,
            VerbClass::Faa => &ctr.faa,
        };
        verbs.fetch_add(1, Ordering::Relaxed);
        add_nonzero(&ctr.read_bytes, rd);
        add_nonzero(&ctr.write_bytes, wr);
        if in_batch && batchable {
            ctr.batched.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accrues one transfer's modeled latency toward the next
    /// [`DmClient::settle`], mirroring [`crate::CostModel`]'s base-latency
    /// accounting: a transfer outside a doorbell batch (or the first of one)
    /// costs its full round trip `rtt_us` — a verb's or an RPC's —, a
    /// chained one only the posting tax unless it cannot chain, and every
    /// transfer pays its wire bytes.
    fn accrue(&self, a: &mut Accrual, in_batch: bool, chains: bool, rtt_us: f64, bytes: usize) {
        let cost = &self.cluster.cost;
        let base = if in_batch && std::mem::take(&mut a.batch_first) {
            rtt_us
        } else if in_batch && chains {
            cost.post_us
        } else {
            // Unbatched, or a CAS inside a batch: the release edge is never
            // chained, so it is charged like an unbatched verb.
            rtt_us
        };
        a.us += base + bytes as f64 / cost.node_bw * 1e6;
    }

    /// Accounts one RPC of `req_bytes` out and `resp_bytes` back: node
    /// counters, the op profile, and the latency owed to the completion
    /// queue — on a verb's doorbell rule, with the RPC round trip
    /// ([`crate::CostModel::rpc_rtt_us`]) where a verb pays its own.
    fn account_rpc(&self, node: &MemoryNode, req_bytes: usize, resp_bytes: usize) {
        let ctr = self.node_counters(node);
        ctr.rpcs.fetch_add(1, Ordering::Relaxed);
        add_nonzero(&ctr.write_bytes, req_bytes);
        add_nonzero(&ctr.read_bytes, resp_bytes);
        let mut s = self.session.lock();
        if s.op.active {
            s.op.rpcs += 1;
            s.op.write_bytes = s.op.write_bytes.saturating_add(req_bytes as u32);
            s.op.read_bytes = s.op.read_bytes.saturating_add(resp_bytes as u32);
        }
        if self.cq_on.load(Ordering::Relaxed) {
            let (rtt, in_batch) = (self.cluster.cost.rpc_rtt_us, s.op.batch_depth > 0);
            self.accrue(&mut s.accr, in_batch, true, rtt, req_bytes + resp_bytes);
        }
    }

    /// `RDMA_READ`: reads `dst.len()` bytes at `addr`.
    pub fn read(&self, addr: GlobalAddr, dst: &mut [u8]) -> Result<()> {
        let node = self.node(addr.node)?;
        self.check_fence(node, addr.offset, dst.len())?;
        let kill = self.intercept(node, VerbKind::Read, addr.offset, dst.len())?;
        node.region.read(addr.offset, dst)?;
        self.account(node, VerbClass::Read, dst.len(), 0);
        self.trace(node.id, TraceOp::Read, addr.offset, dst.len());
        self.kill_after(node, kill);
        Ok(())
    }

    /// `RDMA_READ` into a fresh vector.
    pub fn read_vec(&self, addr: GlobalAddr, len: usize) -> Result<Vec<u8>> {
        let mut v = vec![0u8; len];
        self.read(addr, &mut v)?;
        Ok(v)
    }

    /// Atomically loads the 8-byte word at `addr` (an 8 B `RDMA_READ`).
    pub fn read_u64(&self, addr: GlobalAddr) -> Result<u64> {
        let node = self.node(addr.node)?;
        self.check_fence(node, addr.offset, 8)?;
        let kill = self.intercept(node, VerbKind::Read, addr.offset, 8)?;
        let v = node.region.load64(addr.offset)?;
        self.account(node, VerbClass::Read, 8, 0);
        self.trace(node.id, TraceOp::Read, addr.offset, 8);
        self.kill_after(node, kill);
        Ok(v)
    }

    /// `RDMA_WRITE`: writes `src` at `addr`.
    pub fn write(&self, addr: GlobalAddr, src: &[u8]) -> Result<()> {
        let node = self.node(addr.node)?;
        self.check_fence(node, addr.offset, src.len())?;
        let kill = self.intercept(node, VerbKind::Write, addr.offset, src.len())?;
        node.region.write(addr.offset, src)?;
        self.account(node, VerbClass::Write, 0, src.len());
        self.trace(node.id, TraceOp::Write, addr.offset, src.len());
        self.kill_after(node, kill);
        Ok(())
    }

    /// `RDMA_CAS` on the 8-byte word at `addr`.
    ///
    /// Returns the value observed before the operation; the swap succeeded
    /// iff it equals `expected`.
    pub fn cas(&self, addr: GlobalAddr, expected: u64, new: u64) -> Result<u64> {
        let node = self.node(addr.node)?;
        self.check_atomic_target(node, VerbKind::Cas, addr.offset)?;
        self.check_fence(node, addr.offset, 8)?;
        let kill = self.intercept(node, VerbKind::Cas, addr.offset, 8)?;
        let prev = node.region.cas64(addr.offset, expected, new)?;
        self.account(node, VerbClass::Cas, 8, 8);
        self.trace(
            node.id,
            TraceOp::Cas {
                success: prev == expected,
            },
            addr.offset,
            8,
        );
        self.kill_after(node, kill);
        Ok(prev)
    }

    /// `RDMA_FAA` on the 8-byte word at `addr`; returns the pre-add value.
    pub fn faa(&self, addr: GlobalAddr, delta: u64) -> Result<u64> {
        let node = self.node(addr.node)?;
        self.check_atomic_target(node, VerbKind::Faa, addr.offset)?;
        self.check_fence(node, addr.offset, 8)?;
        let kill = self.intercept(node, VerbKind::Faa, addr.offset, 8)?;
        let prev = node.region.faa64(addr.offset, delta)?;
        self.account(node, VerbClass::Faa, 8, 8);
        self.trace(node.id, TraceOp::Faa, addr.offset, 8);
        self.kill_after(node, kill);
        Ok(prev)
    }

    /// Applies a pending [`FaultAction::KillNode`]: the verb has executed,
    /// now the target fail-stops (crash-right-after-the-access timing).
    fn kill_after(&self, node: &MemoryNode, kill: bool) {
        if kill {
            self.cluster.kill_node(node.id);
        }
    }

    /// Issues several verbs as one doorbell batch: they count individually
    /// against NIC IOPS but add only a single sequential round trip to the
    /// current operation's latency profile. The peak batch size is kept in
    /// the op profile ([`OpRecord::batch_max`]) for observability.
    ///
    /// ```
    /// use aceso_rdma::{Cluster, ClusterConfig, CostModel, GlobalAddr, NodeId, OpKind};
    ///
    /// let cluster = Cluster::new(ClusterConfig {
    ///     num_mns: 1,
    ///     region_len: 4096,
    ///     cost: CostModel::default(),
    /// });
    /// let client = cluster.client();
    /// let base = GlobalAddr::new(NodeId(0), 0);
    ///
    /// client.begin_op();
    /// client.batch(|c| {
    ///     // One doorbell: both writes share a single round trip.
    ///     c.write(base, &[1u8; 64]).unwrap();
    ///     c.write(base.add(64), &[2u8; 64]).unwrap();
    /// });
    /// let record = client.end_op(OpKind::Update).unwrap();
    /// assert_eq!((record.verbs, record.rtts, record.batch_max), (2, 1, 2));
    /// assert_eq!((record.batches, record.batched_verbs), (1, 2));
    /// ```
    pub fn batch<R>(&self, f: impl FnOnce(&Self) -> R) -> R {
        {
            let mut s = self.session.lock();
            s.op.batch_depth += 1;
            if s.op.batch_depth == 1 {
                s.op.batch_rtt_counted = false;
                s.op.batch_verbs = 0;
                s.accr.batch_first = self.cq_on.load(Ordering::Relaxed);
            }
        }
        let r = f(self);
        let mut s = self.session.lock();
        s.op.batch_depth -= 1;
        if s.op.batch_depth == 0 {
            // An empty batch posts nothing; drop the unconsumed marker.
            s.accr.batch_first = false;
        }
        r
    }

    /// Two-sided RPC to the server on `node` with cost accounting.
    ///
    /// `req_bytes` approximates the request payload; responses are charged a
    /// flat 256 B (RPC is off Aceso's critical path, only its round trip and
    /// existence matter — [`DmClient::rpc_sized`] where the answer's size
    /// does).
    pub fn rpc<Req: Send, Resp: Send>(
        &self,
        node_id: NodeId,
        rpc: &RpcClient<Req, Resp>,
        req: Req,
        req_bytes: usize,
    ) -> Result<Resp> {
        self.rpc_sized(node_id, rpc, req, req_bytes, 256)
    }

    /// [`DmClient::rpc`] with the answer charged as `resp_bytes`: zero when
    /// its size is known only once it is in, and the caller charges what
    /// arrived with [`DmClient::accrue_bytes`].
    pub fn rpc_sized<Req: Send, Resp: Send>(
        &self,
        node_id: NodeId,
        rpc: &RpcClient<Req, Resp>,
        req: Req,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Result<Resp> {
        let node = self.node(node_id)?;
        let kill = self.intercept(node, VerbKind::Rpc, 0, req_bytes)?;
        let resp = rpc.call(req)?;
        self.trace(node.id, TraceOp::Rpc, 0, req_bytes);
        self.kill_after(node, kill);
        self.account_rpc(node, req_bytes, resp_bytes);
        Ok(resp)
    }

    /// Owes the wire time of `bytes` that cross this client's link without
    /// a verb of their own — an RPC answer charged once its size is known,
    /// the lines an RPC handler reads on the client's behalf — to the next
    /// [`DmClient::settle`]. A no-op without a completion queue.
    pub fn accrue_bytes(&self, bytes: usize) {
        if self.cq_on.load(Ordering::Relaxed) {
            self.session.lock().accr.us += bytes as f64 / self.cluster.cost.node_bw * 1e6;
        }
    }

    /// Owes one doorbell of `reads` block reads totalling `bytes` that an
    /// RPC handler made on this client's behalf — a recovery fold's
    /// sources on other columns, read by the survivor folding them — to the
    /// next [`DmClient::settle`]: a round trip, the posting tax of every
    /// chained read, the bytes at line rate. A no-op without a completion
    /// queue or reads.
    pub fn accrue_doorbell(&self, reads: usize, bytes: usize) {
        if reads > 0 && self.cq_on.load(Ordering::Relaxed) {
            let cost = &self.cluster.cost;
            let chained = (reads - 1) as f64 * cost.post_us;
            let wire = bytes as f64 / cost.node_bw * 1e6;
            self.session.lock().accr.us += cost.rtt_us + chained + wire;
        }
    }

    /// Attaches a completion queue, switching this client to async cost
    /// accounting: verbs keep their synchronous memory effects but their
    /// modeled latency accrues until the next [`DmClient::settle`] instead
    /// of being treated as blocking time. Many clients on one executor
    /// thread share one CQ.
    pub fn attach_cq(&self, cq: Arc<SimCq>) {
        let mut s = self.session.lock();
        (s.accr, s.link_free_ns) = (Accrual::default(), 0);
        s.cq = Some(cq);
        self.cq_on.store(true, Ordering::Release);
    }

    /// Detaches the completion queue, returning to blocking accounting.
    /// Any unsettled accrual is dropped.
    pub fn detach_cq(&self) {
        let mut s = self.session.lock();
        self.cq_on.store(false, Ordering::Release);
        s.cq = None;
        s.accr = Accrual::default();
    }

    /// The attached completion queue, if any.
    pub fn cq(&self) -> Option<Arc<SimCq>> {
        if !self.cq_on.load(Ordering::Acquire) {
            return None;
        }
        self.session.lock().cq.clone()
    }

    /// Suspends until the virtual clock covers all latency accrued since
    /// the previous settle — the async analogue of "wait for the round
    /// trip". Async client ops call this at every point the real protocol
    /// blocks on the fabric. A no-op (and never suspends) when no CQ is
    /// attached or nothing has accrued.
    ///
    /// The pending completion is tagged with this client's trace id, so a
    /// scheduler inspecting [`SimCq::pending_entries`] can attribute every
    /// suspended round trip to the client that posted it (the exhaustive
    /// explorer branches on exactly that set).
    ///
    /// The client's link carries one transfer at a time: a settle posted
    /// while the previous one is still in flight starts when it ends.
    pub async fn settle(&self) {
        if let Some((done, _)) = self.post(0) {
            done.await;
        }
    }

    /// Posts all latency accrued since the previous post as one transfer on
    /// this client's link, without waiting: it starts when the link's
    /// previous transfer ends (or now) and completes no earlier than
    /// `not_before_ns` of virtual time. Returns the completion and its
    /// deadline; `None` when no CQ is attached or nothing has accrued.
    pub fn post(&self, not_before_ns: u64) -> Option<(Completion, u64)> {
        if !self.cq_on.load(Ordering::Acquire) {
            return None;
        }
        let mut s = self.session.lock();
        let us = std::mem::take(&mut s.accr.us);
        if us <= 0.0 {
            return None;
        }
        let cq = s.cq.clone()?;
        Some(cq.complete_on_link(us, self.trace_id, &mut s.link_free_ns, not_before_ns))
    }

    /// Deterministic backoff for retry policies: when a completion queue
    /// is attached the delay accrues as virtual CQ time (paid at the next
    /// [`DmClient::settle`]); otherwise the calling thread sleeps.
    /// Keeping backoff on the virtual clock makes contention schedules
    /// reproducible under the chaos harness.
    pub fn backoff(&self, us: u64) {
        if us == 0 {
            return;
        }
        if self.cq_on.load(Ordering::Relaxed) {
            self.session.lock().accr.us += us as f64;
        } else {
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }

    /// Starts profiling a KV operation.
    pub fn begin_op(&self) {
        self.session.lock().op = CurOp {
            active: true,
            ..CurOp::default()
        };
    }

    /// Notes a commit retry (CAS conflict) for the current operation.
    pub fn note_retry(&self) {
        let mut s = self.session.lock();
        if s.op.active {
            s.op.retries += 1;
        }
    }

    /// Finishes profiling the current operation and records it as `kind`.
    /// Returns the record (also appended to [`DmClient::take_ops`]) so
    /// instrumentation can attach verb counts and doorbell-batch depth to
    /// the owning span; `None` if no operation was active.
    pub fn end_op(&self, kind: OpKind) -> Option<OpRecord> {
        let rec = {
            let cur = &mut self.session.lock().op;
            if !cur.active {
                return None;
            }
            let rec = OpRecord {
                kind,
                rtts: cur.rtts,
                verbs: cur.verbs,
                cas: cur.cas,
                rpcs: cur.rpcs,
                read_bytes: cur.read_bytes,
                write_bytes: cur.write_bytes,
                retries: cur.retries,
                batch_max: cur.batch_max,
                batches: cur.batches,
                batched_verbs: cur.batched_total,
            };
            cur.active = false;
            rec
        };
        self.ops.lock().records.push(rec);
        Some(rec)
    }

    /// Abandons the current operation without recording it (failure paths).
    pub fn abort_op(&self) {
        self.session.lock().op.active = false;
    }

    /// Takes all accumulated operation records, leaving the store empty.
    pub fn take_ops(&self) -> OpStats {
        std::mem::take(&mut *self.ops.lock())
    }

    /// Clears the operation records.
    pub fn reset_stats(&self) {
        self.ops.lock().reset();
    }
}

/// Adds `n` to a counter, skipping the atomic when there is nothing to add.
#[inline]
fn add_nonzero(counter: &AtomicU64, n: usize) {
    if n > 0 {
        counter.fetch_add(n as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::cost::CostModel;
    use crate::fault::FaultRule;

    fn cluster() -> Arc<Cluster> {
        Cluster::new(ClusterConfig {
            num_mns: 2,
            region_len: 1 << 16,
            cost: CostModel::default(),
        })
    }

    /// Foreground counters of node `n` (dead or alive).
    fn traffic(c: &Cluster, n: u16) -> crate::stats::VerbSnapshot {
        c.node_any(NodeId(n)).unwrap().traffic.snapshot()
    }

    #[test]
    fn verbs_account_to_client_and_node() {
        let c = cluster();
        let cl = c.client();
        let a = GlobalAddr::new(NodeId(0), 128);
        cl.begin_op();
        cl.write(a, &[1, 2, 3, 4]).unwrap();
        let _ = cl.read_vec(a, 4).unwrap();
        let _ = cl.cas(GlobalAddr::new(NodeId(0), 0), 0, 1).unwrap();
        let r = cl.end_op(OpKind::Update).unwrap();
        assert_eq!(
            (r.verbs, r.cas, r.write_bytes, r.read_bytes),
            (3, 1, 4 + 8, 4 + 8)
        );

        let node = c.node(NodeId(0)).unwrap();
        let s = node.traffic.snapshot();
        assert_eq!((s.writes, s.reads, s.cas), (1, 1, 1));
        assert_eq!((s.write_bytes, s.read_bytes), (4 + 8, 4 + 8));
        assert_eq!(node.background.snapshot().verbs(), 0);
    }

    #[test]
    fn background_client_accounts_separately() {
        let c = cluster();
        let bg = c.background_client();
        bg.write(GlobalAddr::new(NodeId(1), 0), &[0u8; 64]).unwrap();
        let node = c.node(NodeId(1)).unwrap();
        assert_eq!(node.background.snapshot().writes, 1);
        assert_eq!(node.traffic.snapshot().writes, 0);
    }

    #[test]
    fn op_profile_counts_rtts_and_batches() {
        let c = cluster();
        let cl = c.client();
        let a = GlobalAddr::new(NodeId(0), 0);
        cl.begin_op();
        cl.batch(|cl| {
            cl.write(a.add(64), &[0u8; 32]).unwrap();
            cl.write(a.add(128), &[0u8; 32]).unwrap();
        });
        let _ = cl.cas(a, 0, 5).unwrap();
        cl.note_retry();
        let _ = cl.cas(a, 5, 6).unwrap();
        cl.end_op(OpKind::Update);

        let ops = cl.take_ops();
        assert_eq!(ops.records.len(), 1);
        let r = ops.records[0];
        assert_eq!(r.verbs, 4);
        assert_eq!(r.cas, 2);
        // One RTT for the batch, one per CAS.
        assert_eq!(r.rtts, 3);
        assert_eq!(r.retries, 1);
        assert_eq!(r.batch_max, 2);
        // The two batched writes share one posting; the CASes stay unbatched.
        assert_eq!((r.batches, r.batched_verbs), (1, 2));
    }

    #[test]
    fn batch_max_tracks_deepest_batch() {
        let c = cluster();
        let cl = c.client();
        let a = GlobalAddr::new(NodeId(0), 0);
        cl.begin_op();
        cl.batch(|cl| {
            cl.write(a, &[0u8; 8]).unwrap();
        });
        cl.batch(|cl| {
            for i in 0..3u64 {
                cl.write(a.add(64 + i * 8), &[0u8; 8]).unwrap();
            }
        });
        let r = cl.end_op(OpKind::Insert).unwrap();
        assert_eq!(r.batch_max, 3, "second batch is deepest");
        assert_eq!(r.rtts, 2);
        assert_eq!((r.batches, r.batched_verbs), (2, 4));
        assert_eq!(traffic(&c, 0).batched, 4);

        // No batch at all → batch_max stays 0.
        cl.begin_op();
        cl.write(a, &[0u8; 8]).unwrap();
        let r = cl.end_op(OpKind::Update).unwrap();
        assert_eq!((r.batch_max, r.batches, r.batched_verbs), (0, 0, 0));
    }

    /// An RPC follows a verb's doorbell rule: outside a batch, and first
    /// in one, it pays the RPC round trip; chained behind another transfer
    /// of the batch, the posting tax. Its bytes always cross at line rate.
    #[test]
    fn rpc_accrual_follows_the_doorbell_rule() {
        use crate::cq::{block_on, SimCq};
        use crate::rpc::RpcHandler;
        struct Echo;
        impl RpcHandler<u32, u32> for Echo {
            fn alive(&self) -> bool {
                true
            }
            fn handle(&self, req: u32) -> u32 {
                req
            }
        }
        let c = cluster();
        let (cl, echo) = (c.client(), RpcClient::serve(Echo));
        let cq = Arc::new(SimCq::new());
        cl.attach_cq(Arc::clone(&cq));
        let cost = c.cost;
        let wire = |bytes: f64| bytes / cost.node_bw * 1e6;
        let accrued = |post: &dyn Fn()| {
            let before = cq.now_us();
            post();
            block_on(Some(Arc::clone(&cq)), cl.settle());
            cq.now_us() - before
        };
        let rpc = || assert_eq!(cl.rpc_sized(NodeId(0), &echo, 7, 16, 4096), Ok(7));

        // Outside a batch: a full RPC round trip each.
        let us = accrued(&|| (0..2).for_each(|_| rpc()));
        let expect = 2.0 * (cost.rpc_rtt_us + wire(16.0 + 4096.0));
        assert!((us - expect).abs() < 1e-3, "unbatched: {us} vs {expect}");

        // First in a batch, then two chained: one round trip between them.
        let us = accrued(&|| cl.batch(|_| (0..3).for_each(|_| rpc())));
        let expect = cost.rpc_rtt_us + 2.0 * cost.post_us + 3.0 * wire(16.0 + 4096.0);
        assert!(
            (us - expect).abs() < 1e-3,
            "first + chained: {us} vs {expect}"
        );

        // Chained behind a verb that opened the doorbell.
        let a = GlobalAddr::new(NodeId(0), 0);
        let us = accrued(&|| {
            cl.batch(|cl| {
                cl.write(a, &[0u8; 64]).unwrap();
                rpc();
            })
        });
        let expect = cost.rtt_us + cost.post_us + wire(64.0 + 16.0 + 4096.0);
        assert!(
            (us - expect).abs() < 1e-3,
            "behind a verb: {us} vs {expect}"
        );
    }

    #[test]
    fn cq_accrual_matches_blocking_cost_model() {
        use crate::cq::{block_on, SimCq};
        let c = cluster();
        let cl = c.client();
        let cq = Arc::new(SimCq::new());
        cl.attach_cq(Arc::clone(&cq));
        let a = GlobalAddr::new(NodeId(0), 0);
        let cost = c.cost;

        // Unbatched write + read: two full round trips plus wire bytes.
        cl.write(a, &[0u8; 64]).unwrap();
        let _ = cl.read_vec(a, 64).unwrap();
        block_on(Some(Arc::clone(&cq)), cl.settle());
        let expect = 2.0 * cost.rtt_us + 2.0 * 64.0 / cost.node_bw * 1e6;
        assert!((cq.now_us() - expect).abs() < 1e-3, "{}", cq.now_us());

        // A doorbell batch: first verb pays the RTT, chained ones the
        // posting tax — same shape as `CostModel::base_latency_us`.
        let before = cq.now_us();
        cl.batch(|cl| {
            for i in 0..3u64 {
                cl.write(a.add(64 + i * 8), &[0u8; 8]).unwrap();
            }
        });
        block_on(Some(Arc::clone(&cq)), cl.settle());
        let batch_us = cost.rtt_us + 2.0 * cost.post_us + 3.0 * 8.0 / cost.node_bw * 1e6;
        assert!((cq.now_us() - before - batch_us).abs() < 1e-3);

        // Bytes that cross without a verb pay their wire time alone.
        let before = cq.now_us();
        cl.accrue_bytes(69_000);
        block_on(Some(Arc::clone(&cq)), cl.settle());
        assert!((cq.now_us() - before - 69_000.0 / cost.node_bw * 1e6).abs() < 1e-3);

        // Settle with nothing accrued never suspends; detaching stops
        // accrual entirely.
        block_on(Some(Arc::clone(&cq)), cl.settle());
        cl.detach_cq();
        cl.write(a, &[0u8; 8]).unwrap();
        block_on(None, cl.settle());
        assert_eq!(cq.pending(), 0);
    }

    #[test]
    fn fences_reject_stale_epochs_only() {
        let c = cluster();
        let cl = c.client();
        let node = c.node(NodeId(0)).unwrap();
        let a = GlobalAddr::new(NodeId(0), 256);
        cl.write(a, &[1u8; 8]).unwrap();
        node.install_fence(256, 64, 5);

        // No epoch declared (u64::MAX) passes: background/control clients.
        assert!(cl.read_vec(a, 8).is_ok());

        cl.set_placement_epoch(4);
        let err = Err(RdmaError::EpochFenced {
            node: NodeId(0),
            required: 5,
        });
        assert_eq!(cl.write(a, &[2u8; 8]), err.clone());
        assert_eq!(cl.read_vec(a, 8), err.clone().map(|()| vec![]));
        assert_eq!(cl.cas(a, 0, 1), err.clone().map(|()| 0));
        assert_eq!(cl.faa(a, 1), err.map(|()| 0));
        // Fenced verbs never reached the NIC: memory and counters intact.
        assert_eq!(traffic(&c, 0).cas, 0);

        // Outside the fenced range, and after a refresh, verbs proceed.
        assert!(cl.write(a.add(64), &[3u8; 8]).is_ok());
        cl.set_placement_epoch(5);
        assert_eq!(cl.placement_epoch(), 5);
        assert!(cl.write(a, &[4u8; 8]).is_ok());
        node.clear_fences();
        cl.set_placement_epoch(0);
        assert!(cl.read_vec(a, 8).is_ok());
    }

    #[test]
    fn backoff_accrues_on_virtual_clock() {
        use crate::cq::{block_on, SimCq};
        let c = cluster();
        let cl = c.client();
        let cq = Arc::new(SimCq::new());
        cl.attach_cq(Arc::clone(&cq));
        cl.backoff(750);
        cl.backoff(0); // no-op
        block_on(Some(Arc::clone(&cq)), cl.settle());
        assert!((cq.now_us() - 750.0).abs() < 1e-6, "{}", cq.now_us());
    }

    #[test]
    fn verbs_fail_on_dead_node() {
        let c = cluster();
        let cl = c.client();
        c.kill_node(NodeId(0));
        let a = GlobalAddr::new(NodeId(0), 0);
        assert!(!cl.is_down(NodeId(0)), "known once a verb finds it");
        assert!(cl.read_vec(a, 8).is_err());
        assert!(cl.is_down(NodeId(0)) && !c.client().is_down(NodeId(0)));
        assert!(cl.write(a, &[0]).is_err());
        assert!(cl.cas(a, 0, 1).is_err());
        // And nothing was accounted.
        assert_eq!(traffic(&c, 0).verbs(), 0);
    }

    #[test]
    fn injected_fail_leaves_memory_untouched() {
        let c = cluster();
        let cl = c.client();
        let a = GlobalAddr::new(NodeId(0), 64);
        cl.write(a, &[7u8; 8]).unwrap();
        cl.install_fault_plan(FaultPlan::with_rules(vec![FaultRule::new(
            FaultAction::Fail,
        )
        .on_kind(VerbKind::Write)
        .on_node(NodeId(0))]));
        assert_eq!(
            cl.write(a, &[9u8; 8]),
            Err(RdmaError::Injected {
                verb: VerbKind::Write,
                node: NodeId(0)
            })
        );
        // Transient: the node stays up in the client's view. One fire only:
        // the retry goes through, and the failed write never reached memory.
        assert!(!cl.is_down(NodeId(0)));
        assert_eq!(cl.read_vec(a, 8).unwrap(), vec![7u8; 8]);
        cl.write(a, &[9u8; 8]).unwrap();
        assert_eq!(cl.read_vec(a, 8).unwrap(), vec![9u8; 8]);
    }

    #[test]
    fn kill_after_nth_verb_executes_then_kills() {
        let c = cluster();
        let cl = c.client();
        let a = GlobalAddr::new(NodeId(1), 0);
        cl.install_fault_plan(FaultPlan::with_rules(vec![FaultRule::new(
            FaultAction::KillNode,
        )
        .on_node(NodeId(1))
        .after(1)]));
        cl.write(a, &[1u8; 8]).unwrap(); // verb 0: passes
        cl.write(a.add(8), &[2u8; 8]).unwrap(); // verb 1: lands, then node dies
        assert!(c.node(NodeId(1)).is_err());
        // The killing write did execute (forensic read of the dead region).
        let dead = c.node_any(NodeId(1)).unwrap();
        let mut buf = [0u8; 8];
        dead.region.read(8, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 8]);
        // Subsequent verbs fail with NodeUnreachable, not Injected.
        assert_eq!(
            cl.write(a, &[3u8; 8]),
            Err(RdmaError::NodeUnreachable(NodeId(1)))
        );
    }

    #[test]
    fn node_side_plan_hits_every_client() {
        let c = cluster();
        let node = c.node(NodeId(0)).unwrap();
        node.install_fault_plan(FaultPlan::with_rules(vec![FaultRule::new(
            FaultAction::Fail,
        )
        .on_kind(VerbKind::Cas)
        .fires(2)]));
        let a = GlobalAddr::new(NodeId(0), 0);
        assert!(c.client().cas(a, 0, 1).is_err());
        assert!(c.background_client().cas(a, 0, 1).is_err());
        node.clear_fault_plan();
        assert!(c.client().cas(a, 0, 1).is_ok());
    }

    #[test]
    fn end_without_begin_is_noop() {
        let c = cluster();
        let cl = c.client();
        cl.end_op(OpKind::Search);
        assert!(cl.take_ops().records.is_empty());
    }

    #[test]
    fn misaligned_atomics_rejected_before_memory() {
        let c = cluster();
        let cl = c.client();
        let odd = GlobalAddr::new(NodeId(0), 12);
        assert_eq!(
            cl.cas(odd, 0, 1),
            Err(RdmaError::Misaligned {
                verb: VerbKind::Cas,
                node: NodeId(0),
                offset: 12
            })
        );
        // The trailing word of the region is fine; one past it is not.
        let end = GlobalAddr::new(NodeId(0), (1 << 16) - 8);
        assert!(cl.faa(end, 1).is_ok());
        assert_eq!(
            cl.faa(end.add(8), 1),
            Err(RdmaError::Misaligned {
                verb: VerbKind::Faa,
                node: NodeId(0),
                offset: 1 << 16
            })
        );
        // Rejected verbs are not accounted (they never reached the NIC).
        assert_eq!(traffic(&c, 0).faa, 1);
        assert_eq!(traffic(&c, 0).cas, 0);
    }

    #[test]
    fn trace_sink_sees_memory_effective_verbs_only() {
        use crate::trace::{TraceOp, VecSink};
        let c = cluster();
        let sink = Arc::new(VecSink::new());
        let cl = c.client();
        // Issued before install: not traced.
        cl.write(GlobalAddr::new(NodeId(0), 0), &[1u8; 8]).unwrap();
        c.install_trace_sink(sink.clone());

        let a = GlobalAddr::new(NodeId(0), 64);
        cl.write(a, &[2u8; 16]).unwrap();
        let _ = cl.read_vec(a, 16).unwrap();
        let _ = cl.read_u64(a).unwrap();
        assert_eq!(cl.cas(GlobalAddr::new(NodeId(0), 128), 0, 7), Ok(0));
        let _ = cl.faa(GlobalAddr::new(NodeId(0), 8), 1).unwrap();
        // A failing verb never reaches memory and is never traced.
        assert!(cl.cas(GlobalAddr::new(NodeId(0), 3), 0, 1).is_err());
        c.trace_barrier();
        c.clear_trace_sink();
        cl.write(a, &[3u8; 8]).unwrap(); // after clear: not traced

        let evs = sink.take();
        let ops: Vec<TraceOp> = evs.iter().map(|e| e.op).collect();
        assert_eq!(evs.len(), 6);
        assert!(matches!(ops[0], TraceOp::Write));
        assert!(matches!(ops[1], TraceOp::Read));
        assert!(matches!(ops[2], TraceOp::Read));
        assert!(matches!(ops[3], TraceOp::Cas { .. }));
        assert!(matches!(ops[4], TraceOp::Faa));
        assert!(matches!(ops[5], TraceOp::Barrier));
        // Same client, strictly increasing seq, correct address metadata.
        assert!(evs[..5].iter().all(|e| e.client == cl.trace_id()));
        assert!(evs[..5].windows(2).all(|w| w[1].seq == w[0].seq + 1));
        assert_eq!(evs[0].offset, 64);
        assert_eq!(evs[0].len, 16);
        assert_eq!(evs[5].client, crate::trace::TraceEvent::BARRIER_CLIENT);
    }

    #[test]
    fn cas_trace_records_outcome() {
        use crate::trace::{TraceOp, VecSink};
        let c = cluster();
        let sink = Arc::new(VecSink::new());
        c.install_trace_sink(sink.clone());
        let cl = c.client();
        let a = GlobalAddr::new(NodeId(0), 0);
        assert_eq!(cl.cas(a, 0, 5), Ok(0)); // lands
        assert_eq!(cl.cas(a, 0, 6), Ok(5)); // loses
        let evs = sink.take();
        assert_eq!(evs[0].op, TraceOp::Cas { success: true });
        assert_eq!(evs[1].op, TraceOp::Cas { success: false });
    }

    #[test]
    fn distinct_clients_get_distinct_trace_ids() {
        let c = cluster();
        let a = c.client();
        let b = c.background_client();
        assert_ne!(a.trace_id(), b.trace_id());
    }
}
