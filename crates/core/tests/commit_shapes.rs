//! The round-trip contract of the write path, one assertion per commit
//! shape.
//!
//! Every shape below is one route through the client's commit machine
//! (`crates/core/src/client/commit.rs`): which read rides in the write
//! batch, whether a Meta lock brackets it, what the epilogue adds. The
//! tuple pinned per shape is `(rtts, verbs, cas, batch_max)` straight from
//! the op's [`OpRecord`] — the same record the cost model and the repo
//! benchmark's `rtts_per_op` are computed from. The numbers were recorded
//! on the four-function write path this machine replaced and must not
//! move: a refactor of the commit path is judged by this file, not only by
//! the diffed baselines.
//!
//! Each measured op runs with its open block already allocated and the
//! obsolete-bit buffer empty, so no allocation or bitmap-flush RPC rides
//! along (`rpcs == 0` is asserted).

use aceso_core::{AcesoClient, AcesoConfig, AcesoStore, StoreError};
use aceso_rdma::{FaultAction, FaultPlan, FaultRule, OpRecord, VerbKind};
use std::sync::Arc;

/// `(rtts, verbs, cas, batch_max)`.
type Shape = (u32, u32, u32, u32);

fn launch() -> Arc<AcesoStore> {
    AcesoStore::launch(AcesoConfig::small()).unwrap()
}

/// A client whose open block for `value`'s size class exists already.
fn primed(store: &Arc<AcesoStore>, tag: &str, value: &[u8]) -> AcesoClient {
    let mut c = store.client().unwrap();
    c.insert(format!("prime-{tag}").as_bytes(), value).unwrap();
    c
}

/// Runs `op` as the only profiled operation of `c` and returns its record.
fn measure<T>(c: &mut AcesoClient, op: impl FnOnce(&mut AcesoClient) -> T) -> (T, OpRecord) {
    c.flush_bitmaps().unwrap();
    c.dm.take_ops();
    let out = op(c);
    let recs = c.dm.take_ops().records;
    assert_eq!(recs.len(), 1, "exactly one op must have been recorded");
    assert_eq!(recs[0].rpcs, 0, "a shape must not include an MN RPC");
    (out, recs[0])
}

fn shape(r: &OpRecord) -> Shape {
    (r.rtts, r.verbs, r.cas, r.batch_max)
}

const V: &[u8] = b"value-of-class-one";

/// INSERT of an absent key: bucket scan, write batch (KV + 2 deltas),
/// commit CAS, Meta write.
#[test]
fn cold_insert() {
    let store = launch();
    let mut a = primed(&store, "a", V);
    let (r, rec) = measure(&mut a, |c| c.insert(b"shape-key", V));
    r.unwrap();
    assert_eq!(shape(&rec), (4, 7, 1, 3));
    store.shutdown();
}

/// UPDATE without a cache entry: bucket scan, KV identity read, write
/// batch, commit CAS.
#[test]
fn cold_update() {
    let store = launch();
    let mut a = primed(&store, "a", V);
    let mut b = primed(&store, "b", V);
    a.insert(b"shape-key", V).unwrap();
    let (r, rec) = measure(&mut b, |c| c.update(b"shape-key", V));
    r.unwrap();
    assert_eq!(shape(&rec), (4, 7, 1, 3));
    store.shutdown();
}

/// UPDATE on a current cache entry: the slot re-read rides in the write
/// batch, then the commit CAS — two round trips (§3.5.1).
#[test]
fn warm_cache_hit_update() {
    let store = launch();
    let mut a = primed(&store, "a", V);
    a.insert(b"shape-key", V).unwrap();
    let (r, rec) = measure(&mut a, |c| c.update(b"shape-key", V));
    r.unwrap();
    assert_eq!(shape(&rec), (2, 5, 1, 4));
    store.shutdown();
}

/// UPDATE on a stale cache entry: the speculative batch loses, the redo
/// batch carries the KV identity read and the three invalidation stamps of
/// the first loss, then the commit CAS — three round trips.
#[test]
fn lost_speculation_redo() {
    let store = launch();
    let mut a = primed(&store, "a", V);
    let mut b = primed(&store, "b", V);
    a.insert(b"shape-key", V).unwrap();
    b.update(b"shape-key", V).unwrap();
    let (r, rec) = measure(&mut a, |c| c.update(b"shape-key", V));
    r.unwrap();
    assert_eq!(shape(&rec), (3, 12, 1, 7));
    assert_eq!(a.search(b"shape-key").unwrap().as_deref(), Some(V));
    store.shutdown();
}

/// DELETE of a key whose cached slot is a tombstone: the speculation is
/// refused up front, one slot re-read confirms the tombstone, `NotFound`.
#[test]
fn tombstone_hit_is_not_found() {
    let store = launch();
    let mut a = primed(&store, "a", V);
    a.insert(b"shape-key", V).unwrap();
    assert!(a.delete(b"shape-key").unwrap());
    let (existed, rec) = measure(&mut a, |c| c.delete(b"shape-key"));
    assert!(!existed.unwrap());
    assert_eq!(shape(&rec), (1, 1, 0, 0));
    assert!(matches!(
        a.update(b"shape-key", V),
        Err(StoreError::NotFound)
    ));
    store.shutdown();
}

/// DELETE that loses its speculation to a concurrent delete: the redo
/// batch's identity read finds the tombstone, the redo's own bytes are
/// retired in a trailing flush, `NotFound`.
#[test]
fn redo_finds_tombstone() {
    let store = launch();
    let mut a = primed(&store, "a", b"");
    let mut b = primed(&store, "b", b"");
    a.insert(b"shape-key", V).unwrap();
    assert!(b.delete(b"shape-key").unwrap());
    let (existed, rec) = measure(&mut a, |c| c.delete(b"shape-key"));
    assert!(!existed.unwrap());
    assert_eq!(shape(&rec), (3, 14, 0, 7));
    store.shutdown();
}

/// UPDATE that changes the KV's size class: the warm shape plus one Meta
/// write refreshing the advisory length.
#[test]
fn size_class_change() {
    let store = launch();
    let big = vec![7u8; 300];
    let mut a = primed(&store, "a", V);
    a.insert(b"prime-big", &big).unwrap();
    a.insert(b"shape-key", V).unwrap();
    let (r, rec) = measure(&mut a, |c| c.update(b"shape-key", &big));
    r.unwrap();
    assert_eq!(shape(&rec), (3, 6, 1, 4));
    store.shutdown();
}

/// Brings `key` to slot version 0xFF (INSERT commits version 1).
fn wind_to_rollover(c: &mut AcesoClient, key: &[u8]) {
    c.insert(key, V).unwrap();
    for _ in 0..254 {
        c.update(key, V).unwrap();
    }
}

/// UPDATE at slot version 0xFF: slot re-read, Meta lock CAS, write batch,
/// commit CAS, Meta unlock CAS.
#[test]
fn version_rollover() {
    let store = launch();
    let mut a = primed(&store, "a", V);
    wind_to_rollover(&mut a, b"shape-key");
    let (r, rec) = measure(&mut a, |c| c.update(b"shape-key", V));
    r.unwrap();
    assert_eq!(shape(&rec), (5, 7, 3, 3));
    // The epoch moved on, so the next update is the plain warm shape.
    let (r, rec) = measure(&mut a, |c| c.update(b"shape-key", V));
    r.unwrap();
    assert_eq!(shape(&rec), (2, 5, 1, 4));
    store.shutdown();
}

/// A rollover commit that fails between its lock and unlock CAS must not
/// leave the Meta lock held: the KV write is failed by a fault plan, the
/// update surfaces the error, and the next update commits in the rollover
/// shape — not after 50 lock probes and a lock break.
#[test]
fn failed_rollover_commit_releases_the_meta_lock() {
    let store = launch();
    let mut a = primed(&store, "a", V);
    wind_to_rollover(&mut a, b"shape-key");
    let plan = FaultPlan::with_rules(vec![
        FaultRule::new(FaultAction::Fail).on_kind(VerbKind::Write)
    ]);
    a.dm.install_fault_plan(Arc::clone(&plan));
    let r = a.update(b"shape-key", b"lost");
    assert!(
        matches!(
            r,
            Err(StoreError::Rdma(aceso_rdma::RdmaError::Injected { .. }))
        ),
        "the injected KV-write fault must surface: {r:?}"
    );
    assert_eq!(plan.fired_count(), 1);
    a.dm.clear_fault_plan();

    let (r, rec) = measure(&mut a, |c| c.update(b"shape-key", b"after"));
    r.unwrap();
    assert_eq!(
        shape(&rec),
        (5, 7, 3, 3),
        "the plain rollover shape: no probe loop, no lock break"
    );
    assert_eq!(
        a.search(b"shape-key").unwrap().as_deref(),
        Some(&b"after"[..])
    );
    store.shutdown();
}
