//! Elastic membership: the online MN add/drain migrator.
//!
//! A [`Migration`] moves one column off its current memory node onto a
//! fresh one while client traffic continues — the mechanics are identical
//! for a capacity **join** (a new node takes over a column) and a planned
//! **drain** (a column is evacuated before its node retires); only the
//! [`ElasticKind`] label differs.
//!
//! The migrator is an explicit step machine so chaos harnesses can kill
//! nodes at every step boundary:
//!
//! 1. **Announce** — add the target node (membership epoch bump) and open
//!    the migration in the [`PlacementMap`]. The map is its one record:
//!    from here to the publish or the abort, the source's server reads the
//!    target off it, dual-writes every block-area byte it changes there and
//!    grants no reused block.
//! 2. **Copy batch** (× `elastic_groups`) — fence one placement group's
//!    blocks (`block_id % elastic_groups`, DATA, DELTA and PARITY cells
//!    alike) on the source at the *next* placement epoch, copy the bytes
//!    via [`ServerReq::MigrateBatch`], then publish the group as moved.
//!    Stale clients bounce off the fence, refresh, and re-resolve onto the
//!    target; blocks are copied byte-identically at the same offsets so
//!    every packed address stays valid. A PARITY cell needs nothing more:
//!    `EncodeDelta` folds into the source's copy and copies the result to
//!    the target, so both sides hold the same current parity.
//! 3. **Publish** — build the replacement server on the target, fence the
//!    whole source region, copy the Index/Meta areas
//!    ([`ServerReq::MigrateFinish`]), hand the server state over, replace
//!    the directory entry and close the migration (the source node joins
//!    the snapshot's `retired` list, purging stale client caches).
//! 4. **Free** — retire the source node (its address goes dead; not a
//!    failure: nothing references it any more), drop its fences and bump
//!    the placement epoch.
//!
//! Aborting before the publish is always safe: the dual-write mirror kept
//! the source byte-fresh, so clearing the migration makes the directory
//! authoritative again with no data movement.

use crate::client::RetryPolicy;
use crate::placement::{ElasticKind, PlacementMap};
use crate::proto::{ServerReq, ServerResp};
use crate::server::MnServer;
use crate::store::AcesoStore;
use crate::{Result, StoreError};
use aceso_rdma::{MemoryNode, NodeId};
use std::sync::Arc;

/// The step a [`Migration::step`] call just performed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ElasticStep {
    /// Target added, migration opened, dual-write armed.
    Announce,
    /// Placement group `g` copied and published as moved.
    CopyBatch(usize),
    /// Column republished on the target; source retired from placement.
    Publish,
    /// Source node drained and unfenced.
    Free,
    /// Nothing left to do (the migration completed or was aborted).
    Done,
}

impl core::fmt::Display for ElasticStep {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ElasticStep::Announce => write!(f, "announce"),
            ElasticStep::CopyBatch(g) => write!(f, "copy-batch-{g}"),
            ElasticStep::Publish => write!(f, "publish"),
            ElasticStep::Free => write!(f, "free"),
            ElasticStep::Done => write!(f, "done"),
        }
    }
}

/// Counters of one migration (also exported through the store's obs
/// registry as `elastic.{batches,blocks_moved,aborts}`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ElasticReport {
    /// Copy batches executed.
    pub batches: u64,
    /// Blocks copied, PARITY cells included.
    pub blocks_moved: u64,
    /// 1 if the migration was aborted.
    pub aborts: u64,
}

enum State {
    Announce,
    Copy(usize),
    Publish,
    Free,
    Done,
}

/// One in-flight elastic migration. Drive it with [`Migration::step`]
/// (chaos kills between steps) or [`Migration::run`] (everything at once).
pub struct Migration {
    store: Arc<AcesoStore>,
    kind: ElasticKind,
    col: usize,
    from: Arc<MemoryNode>,
    to: Option<Arc<MemoryNode>>,
    groups: usize,
    state: State,
    report: ElasticReport,
}

impl AcesoStore {
    /// Starts a capacity-add migration: a fresh node will join and take
    /// over `col`. Nothing happens until the first [`Migration::step`].
    pub fn begin_join(self: &Arc<Self>, col: usize) -> Result<Migration> {
        Migration::new(self, ElasticKind::Join, col)
    }

    /// Starts a planned drain: `col` will be evacuated off its current
    /// node onto a fresh one, and the old node retired.
    pub fn begin_drain(self: &Arc<Self>, col: usize) -> Result<Migration> {
        Migration::new(self, ElasticKind::Drain, col)
    }
}

impl Migration {
    fn new(store: &Arc<AcesoStore>, kind: ElasticKind, col: usize) -> Result<Self> {
        let from = store
            .cluster
            .node(store.directory().node_of(col))
            .map_err(StoreError::from)?;
        if store.placement().snapshot().migration.is_some() {
            // One migration at a time: placement groups are per-column.
            return Err(StoreError::Shutdown);
        }
        Ok(Migration {
            groups: store.cfg.elastic_groups.max(1),
            store: Arc::clone(store),
            kind,
            col,
            from,
            to: None,
            state: State::Announce,
            report: ElasticReport::default(),
        })
    }

    /// Join or drain (chaos targeting, labels).
    pub fn kind(&self) -> ElasticKind {
        self.kind
    }

    /// The column being migrated.
    pub fn col(&self) -> usize {
        self.col
    }

    /// The node the column is moving off.
    pub fn from_node(&self) -> NodeId {
        self.from.id
    }

    /// The node the column is moving onto (`None` before the announce).
    pub fn to_node(&self) -> Option<NodeId> {
        self.to.as_ref().map(|n| n.id)
    }

    /// Counters so far.
    pub fn report(&self) -> ElasticReport {
        self.report
    }

    /// Whether the publish step has completed (aborting is no longer
    /// possible; a target failure now needs regular MN recovery).
    pub fn published(&self) -> bool {
        matches!(self.state, State::Free | State::Done)
    }

    fn placement(&self) -> &Arc<PlacementMap> {
        self.store.placement()
    }

    /// RPC to the column's *current* directory endpoint, retried under the
    /// unified policy (the server may be briefly between epochs).
    fn rpc(&self, req: ServerReq, bytes: usize) -> Result<ServerResp> {
        let dir = self.store.directory();
        let mut policy = RetryPolicy::new(16);
        loop {
            match self.store.ctl_dm().rpc(
                dir.node_of(self.col),
                &dir.rpc_of(self.col),
                req.clone(),
                bytes,
            ) {
                Ok(r) => return Ok(r),
                Err(e) => {
                    let Some(us) = policy.charge() else {
                        return Err(e.into());
                    };
                    self.store.ctl_dm().backoff(us);
                }
            }
        }
    }

    /// Block-area byte ranges of placement group `g`: every block whose
    /// id is `g` modulo the group count, whatever its kind.
    fn group_ranges(&self, g: usize) -> Vec<(u64, usize)> {
        let blocks = &self.store.map.blocks;
        (0..blocks.blocks_per_node() as u32)
            .filter(|&id| id as usize % self.groups == g)
            .map(|id| (blocks.block_offset(id), blocks.block_size as usize))
            .collect()
    }

    fn obs_add(&self, name: &str, v: u64) {
        let obs = self.store.obs();
        if obs.is_enabled() {
            obs.add(name, v);
        }
    }

    /// Performs the next migrator step and reports which one it was.
    /// Returns [`ElasticStep::Done`] once the migration has completed (or
    /// was aborted). Errors leave the state machine where it was, so the
    /// caller can retry, [`Migration::abort`], or hand the column to
    /// regular recovery.
    pub fn step(&mut self) -> Result<ElasticStep> {
        match self.state {
            State::Announce => {
                self.step_announce()?;
                self.state = State::Copy(0);
                Ok(ElasticStep::Announce)
            }
            State::Copy(g) => {
                self.step_copy(g)?;
                self.state = if g + 1 < self.groups {
                    State::Copy(g + 1)
                } else {
                    State::Publish
                };
                Ok(ElasticStep::CopyBatch(g))
            }
            State::Publish => {
                self.step_publish()?;
                self.state = State::Free;
                Ok(ElasticStep::Publish)
            }
            State::Free => {
                self.step_free();
                self.state = State::Done;
                Ok(ElasticStep::Free)
            }
            State::Done => Ok(ElasticStep::Done),
        }
    }

    /// Runs every remaining step.
    pub fn run(&mut self) -> Result<ElasticReport> {
        while self.step()? != ElasticStep::Done {}
        Ok(self.report)
    }

    fn step_announce(&mut self) -> Result<()> {
        // Membership first: the join is visible (and epoch-bumped) before
        // any placement change references the new node.
        let to = self.store.cluster.add_node();
        // Server-side dual-write from here on: delta encoding lands on both
        // regions, and no grant reuses a block.
        self.placement()
            .begin(self.col, self.from.id, to.id, self.groups);
        self.to = Some(to);
        Ok(())
    }

    fn step_copy(&mut self, g: usize) -> Result<()> {
        let ranges = self.group_ranges(g);
        // Fence before copying: a client still resolving through the
        // previous snapshot is rejected instead of writing bytes the copy
        // has already passed. The fence epoch is exactly the epoch
        // `mark_moved` publishes below.
        let fence_epoch = self.placement().next_epoch();
        for &(start, len) in &ranges {
            self.from.install_fence(start, len, fence_epoch);
        }
        let moved = ranges.len() as u64;
        self.rpc(
            ServerReq::MigrateBatch {
                ranges: ranges.clone(),
            },
            16 + 16 * ranges.len(),
        )?
        .expect_ok()?;
        self.placement().mark_moved(g);
        self.report.batches += 1;
        self.report.blocks_moved += moved;
        self.obs_add("elastic.batches", 1);
        self.obs_add("elastic.blocks_moved", moved);
        Ok(())
    }

    fn step_publish(&mut self) -> Result<()> {
        let to = Arc::clone(self.to.as_ref().expect("announced"));
        let old = self.store.server(self.col);
        // Build the replacement server *before* the finish copy: its
        // constructor stamps a fresh Index Area (Index Version 1) into the
        // target region, which the copy below then overwrites with the
        // real one — never the other way around.
        let placement = Arc::clone(self.placement());
        let server = MnServer::new(self.col, Arc::clone(&to), self.store.map, placement);
        // Whole-region fence at the publish epoch on *both* nodes. The
        // source fence makes every placement client refresh before touching
        // it again (refreshed snapshots no longer address it — the node
        // turns `retired`). The target needs the same fence: a client whose
        // snapshot still shows the migration open resolves moved groups to
        // the target as *primary* and the source as dual-write *mirror* —
        // without a target fence its primary write lands, the mirror leg
        // then aborts the batch on the source fence, and the retry
        // re-places the KV into a fresh slot, orphaning a half-written
        // delta pair. Fencing the target bounces such clients before any
        // byte lands.
        let fence_epoch = self.placement().next_epoch();
        self.from
            .install_fence(0, self.store.map.region_len, fence_epoch);
        to.install_fence(0, self.store.map.region_len, fence_epoch);
        // Copy the Index, Meta and Checkpoint areas and stop the old server.
        self.rpc(ServerReq::MigrateFinish, 16)?.expect_ok()?;
        // Hand the heap state over (the DELTA free list, reuse backups, the
        // checkpoint sender); the records came with the Meta Area.
        std::mem::swap(&mut *server.alloc.lock(), &mut *old.alloc.lock());
        std::mem::swap(&mut *server.old_copies.lock(), &mut *old.old_copies.lock());
        std::mem::swap(&mut *server.sender.lock(), &mut *old.sender.lock());
        // Republish the column on the target, then close the migration.
        self.store
            .directory()
            .publish(&server, self.store.cluster.background_client());
        self.placement().finish();
        Ok(())
    }

    fn step_free(&mut self) {
        // A drain, not a failure: the column moved first, so nothing is
        // lost and nobody recovers. Fences die with the node (verbs now
        // fail with `NodeUnreachable`, which every client path handles).
        self.store.cluster.kill_node(self.from.id);
        self.from.clear_fences();
        self.placement().bump();
    }

    /// Aborts a not-yet-published migration: placement reverts to the
    /// directory (the dual-write mirror kept the source byte-fresh), the
    /// fences drop, and the target node is retired unused. After the
    /// publish this is a no-op — the move already happened; a target
    /// failure from then on is ordinary MN failure handling.
    pub fn abort(&mut self) {
        if self.published() {
            return;
        }
        let announced = !matches!(self.state, State::Announce);
        self.state = State::Done;
        if !announced {
            return;
        }
        self.placement().abort();
        self.from.clear_fences();
        if let Some(to) = self.to.take() {
            // The half-filled target never served anything: retire it.
            self.store.cluster.kill_node(to.id);
        }
        self.report.aborts += 1;
        self.obs_add("elastic.aborts", 1);
    }
}

impl Drop for Migration {
    fn drop(&mut self) {
        // A dropped in-flight migration must not leave fences or an open
        // migration behind.
        if !matches!(self.state, State::Done) {
            self.abort();
        }
    }
}
