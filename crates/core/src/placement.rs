//! Placement groups: epoch-versioned column→node resolution for elastic
//! membership (online MN add/drain).
//!
//! A column's blocks are partitioned into **placement groups**
//! (`group = block_id % elastic_groups`), whatever a block's kind: DATA,
//! DELTA and PARITY cells move with their group alike. While a column
//! migrates from one memory node to another, the migrator moves one group
//! at a time and publishes a new [`PlacementSnapshot`] after every step;
//! clients resolve each block-area access through their snapshot and fall
//! back to the [`Directory`](crate::server::Directory) for everything that
//! has not moved (index/meta areas, unmoved groups, non-migrating columns).
//!
//! Safety comes from two mechanisms working together:
//!
//! - **Epoch fences** ([`aceso_rdma::MemoryNode::install_fence`]): before a
//!   group is copied, its byte ranges on the source node are fenced at the
//!   *next* placement epoch, so a client still holding the previous
//!   snapshot gets [`aceso_rdma::RdmaError::EpochFenced`] instead of
//!   silently writing bytes the copy will never see. The client refreshes
//!   its snapshot and retries.
//! - **Dual-write mirroring**: while the migration is in flight (until
//!   the final publish), refreshed clients write block-area bytes to
//!   *both* sides, and so does the server. The source therefore stays
//!   byte-fresh, which makes aborting a migration (target dies mid-copy)
//!   trivially safe, and keeps recovery paths that resolve through the
//!   directory correct before the publish.

use crate::config::MemoryMap;
use aceso_rdma::NodeId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Why a column is being migrated. Mechanically join and drain are the
/// same operation (move the column onto a fresh node, retire the old one);
/// the kind drives chaos targeting and reporting labels only.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ElasticKind {
    /// Capacity add: a fresh node joins and takes over the column.
    Join,
    /// Planned removal: the column is moved off a node being drained.
    Drain,
}

impl core::fmt::Display for ElasticKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ElasticKind::Join => write!(f, "join"),
            ElasticKind::Drain => write!(f, "drain"),
        }
    }
}

/// The in-flight migration recorded in a [`PlacementSnapshot`].
#[derive(Clone, Debug)]
pub struct MigrationView {
    /// The column being migrated.
    pub col: usize,
    /// The node the column is moving off.
    pub from: NodeId,
    /// The node the column is moving onto.
    pub to: NodeId,
    /// Number of placement groups (`group = block_id % groups`).
    pub groups: usize,
    /// Per-group flag: every block of group `g` is served by `to`.
    pub moved: Vec<bool>,
}

/// An immutable point-in-time view of placement. Cheap to clone via `Arc`;
/// clients hold one and refresh on [`aceso_rdma::RdmaError::EpochFenced`].
#[derive(Clone, Debug)]
pub struct PlacementSnapshot {
    /// Monotone placement epoch; bumped on every placement change.
    pub epoch: u64,
    /// The in-flight migration, if any.
    pub migration: Option<MigrationView>,
    /// Nodes retired by completed migrations. Cached physical addresses
    /// pointing here are stale even though the memory may still respond.
    pub retired: Vec<NodeId>,
    /// Per-column last-placement-change epoch: the epoch of the most
    /// recent mutation that touched the column's placement (begin, group
    /// move, publish, abort). Clients compare this against the
    /// epoch a cache entry was filled under — an entry is stale as soon as
    /// its column changed placement after the fill, *even if no node has
    /// been retired yet* (a mid-migration column already serves some
    /// offsets from the target).
    pub col_epochs: BTreeMap<usize, u64>,
}

impl PlacementSnapshot {
    /// The epoch of the last placement change affecting `col` (0 when the
    /// column has never migrated — older than any real fill epoch).
    pub fn col_epoch(&self, col: usize) -> u64 {
        self.col_epochs.get(&col).copied().unwrap_or(0)
    }

    /// Node override for block-area offset `off` of column `col`, or `None`
    /// when the directory is authoritative (no migration on this column,
    /// index/meta areas, groups not yet moved).
    pub fn resolve(&self, col: usize, off: u64, map: &MemoryMap) -> Option<NodeId> {
        let m = self.migration.as_ref()?;
        if col != m.col {
            return None;
        }
        let (block, _) = map.blocks.locate(off)?;
        m.moved[block as usize % m.groups].then_some(m.to)
    }

    /// Mirror target for a block-area *write* to `(col, off)`: while the
    /// migration is open, the write must also land on the other side of
    /// it so neither copy goes stale.
    pub fn mirror(&self, col: usize, off: u64, map: &MemoryMap) -> Option<NodeId> {
        let m = self.migration.as_ref()?;
        if col != m.col {
            return None;
        }
        map.blocks.locate(off)?;
        match self.resolve(col, off, map) {
            Some(_) => Some(m.from), // Primary is the target: mirror back.
            None => Some(m.to),      // Primary is the source: pre-fill the target.
        }
    }
}

/// The cluster-wide placement map. One per [`AcesoStore`](crate::AcesoStore);
/// the migrator mutates it, everyone else reads [`PlacementMap::snapshot`].
pub struct PlacementMap {
    snap: Mutex<Arc<PlacementSnapshot>>,
}

impl PlacementMap {
    /// Creates a placement map seeded at `epoch` (the launch-time
    /// membership view epoch, so placement epochs extend the existing
    /// membership-epoch sequence).
    pub fn new(epoch: u64) -> Self {
        PlacementMap {
            snap: Mutex::new(Arc::new(PlacementSnapshot {
                epoch,
                migration: None,
                retired: Vec::new(),
                col_epochs: BTreeMap::new(),
            })),
        }
    }

    /// The current snapshot (cheap `Arc` clone).
    pub fn snapshot(&self) -> Arc<PlacementSnapshot> {
        Arc::clone(&self.snap.lock())
    }

    /// The current placement epoch.
    pub fn epoch(&self) -> u64 {
        self.snap.lock().epoch
    }

    /// The epoch the *next* mutation will publish. The migrator installs
    /// fences at this value before performing the step, so no snapshot a
    /// client could currently hold passes them.
    pub fn next_epoch(&self) -> u64 {
        self.snap.lock().epoch + 1
    }

    fn publish(&self, f: impl FnOnce(&mut PlacementSnapshot)) -> u64 {
        let mut g = self.snap.lock();
        let mut next = (**g).clone();
        next.epoch += 1;
        f(&mut next);
        let epoch = next.epoch;
        *g = Arc::new(next);
        epoch
    }

    /// Stamps `col`'s last-placement-change epoch inside a `publish`
    /// closure (the closure already sees the incremented epoch).
    fn stamp(s: &mut PlacementSnapshot, col: usize) {
        let e = s.epoch;
        s.col_epochs.insert(col, e);
    }

    /// Starts a migration of `col` from `from` to `to` with `groups`
    /// placement groups. Returns the published epoch.
    pub(crate) fn begin(&self, col: usize, from: NodeId, to: NodeId, groups: usize) -> u64 {
        self.publish(|s| {
            s.migration = Some(MigrationView {
                col,
                from,
                to,
                groups,
                moved: vec![false; groups],
            });
            Self::stamp(s, col);
        })
    }

    /// Marks group `g` as moved. Returns the published epoch.
    pub(crate) fn mark_moved(&self, g: usize) -> u64 {
        self.publish(|s| {
            if let Some(m) = s.migration.as_mut() {
                m.moved[g] = true;
                let col = m.col;
                Self::stamp(s, col);
            }
        })
    }

    /// Completes the migration: clears it and retires the source node.
    pub(crate) fn finish(&self) -> u64 {
        self.publish(|s| {
            if let Some(m) = s.migration.take() {
                s.retired.push(m.from);
                Self::stamp(s, m.col);
            }
        })
    }

    /// Aborts the migration: the directory-resolved source (kept fresh by
    /// the dual-write mirror) is authoritative again.
    pub(crate) fn abort(&self) -> u64 {
        self.publish(|s| {
            if let Some(m) = s.migration.take() {
                Self::stamp(s, m.col);
            }
        })
    }

    /// Bumps the epoch without changing placement (membership-only events
    /// such as retiring the drained node).
    pub(crate) fn bump(&self) -> u64 {
        self.publish(|_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcesoConfig;

    fn map() -> MemoryMap {
        AcesoConfig::small().memory_map()
    }

    #[test]
    fn epochs_are_monotone_across_all_mutations() {
        let pm = PlacementMap::new(7);
        let mut last = pm.epoch();
        for e in [
            pm.begin(1, NodeId(1), NodeId(9), 4),
            pm.mark_moved(0),
            pm.mark_moved(3),
            pm.finish(),
            pm.bump(),
        ] {
            assert!(e > last, "epoch must advance: {e} after {last}");
            last = e;
        }
        assert_eq!(pm.snapshot().retired, vec![NodeId(1)]);
        assert!(pm.snapshot().migration.is_none());
    }

    #[test]
    fn col_epochs_track_every_placement_mutation() {
        let pm = PlacementMap::new(3);
        // Never-migrated columns read as epoch 0 (older than any fill).
        assert_eq!(pm.snapshot().col_epoch(1), 0);

        let e_begin = pm.begin(1, NodeId(1), NodeId(9), 4);
        assert_eq!(pm.snapshot().col_epoch(1), e_begin);
        // Other columns stay untouched.
        assert_eq!(pm.snapshot().col_epoch(2), 0);

        let e_moved = pm.mark_moved(2);
        assert_eq!(pm.snapshot().col_epoch(1), e_moved);
        let e_finish = pm.finish();
        assert_eq!(pm.snapshot().col_epoch(1), e_finish);

        // A membership-only bump advances the epoch but stamps no column.
        let e_bump = pm.bump();
        assert!(e_bump > e_finish);
        assert_eq!(pm.snapshot().col_epoch(1), e_finish);

        // Abort stamps the column too: clients may have cached through the
        // migration view and must re-resolve against the directory.
        let e2 = pm.begin(2, NodeId(2), NodeId(8), 4);
        assert_eq!(pm.snapshot().col_epoch(2), e2);
        let e_abort = pm.abort();
        assert_eq!(pm.snapshot().col_epoch(2), e_abort);
    }

    #[test]
    fn resolve_follows_the_group_parity_cells_included() {
        let m = map();
        let pm = PlacementMap::new(0);
        pm.begin(2, NodeId(2), NodeId(8), 4);
        let bs = m.blocks.block_size;
        let data_off = |id: u32| m.blocks.block_offset(id);

        // Nothing moved yet: directory is authoritative everywhere.
        let s = pm.snapshot();
        assert_eq!(s.resolve(2, data_off(0), &m), None);
        // Index/meta areas never resolve through placement.
        assert_eq!(s.resolve(2, 0, &m), None);
        assert_eq!(s.resolve(2, m.blocks.meta_base, &m), None);

        // Move group 1: block ids ≡ 1 (mod 4) flip, others do not.
        pm.mark_moved(1);
        let s = pm.snapshot();
        assert_eq!(s.resolve(2, data_off(1), &m), Some(NodeId(8)));
        assert_eq!(s.resolve(2, data_off(1) + bs - 1, &m), Some(NodeId(8)));
        assert_eq!(s.resolve(2, data_off(2), &m), None);
        // Other columns are untouched.
        assert_eq!(s.resolve(3, data_off(1), &m), None);

        // A parity cell resolves to the target exactly when its group is
        // marked moved: every parity cell of the column, group by group.
        let n = m.blocks.n;
        let parity: Vec<u32> = (0..m.blocks.num_arrays)
            .flat_map(|a| [n - 2, n - 1].map(|r| m.blocks.cell_block_id(a, r)))
            .collect();
        let groups: Vec<usize> = parity.iter().map(|&id| id as usize % 4).collect();
        assert!(groups.contains(&1) && groups.iter().any(|&g| g != 1));
        let mut moved = vec![1];
        for g in [None, Some(0), Some(2), Some(3)] {
            if let Some(g) = g {
                pm.mark_moved(g);
                moved.push(g);
            }
            let s = pm.snapshot();
            for (&pid, group) in parity.iter().zip(&groups) {
                let want = moved.contains(group).then_some(NodeId(8));
                assert_eq!(
                    s.resolve(2, data_off(pid), &m),
                    want,
                    "parity {pid}, moved {moved:?}"
                );
            }
        }
    }

    #[test]
    fn mirror_targets_the_other_side_until_publish() {
        let m = map();
        let pm = PlacementMap::new(0);
        pm.begin(0, NodeId(0), NodeId(5), 2);
        let off = m.blocks.block_offset(2); // group 0
        let s = pm.snapshot();
        // Unmoved group: primary is the source, pre-fill the target.
        assert_eq!(s.mirror(0, off, &m), Some(NodeId(5)));
        pm.mark_moved(0);
        let s = pm.snapshot();
        // Moved group: primary is the target, mirror back to the source.
        assert_eq!(s.mirror(0, off, &m), Some(NodeId(0)));
        // Index area and other columns never mirror.
        assert_eq!(s.mirror(0, 0, &m), None);
        assert_eq!(s.mirror(1, off, &m), None);
        // The window closes at publish.
        pm.finish();
        assert_eq!(pm.snapshot().mirror(0, off, &m), None);
    }
}
