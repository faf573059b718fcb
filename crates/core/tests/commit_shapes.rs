//! The round-trip contract of the write path, one assertion per commit
//! shape.
//!
//! Every shape below is one route through the client's commit machine
//! (`crates/core/src/client/commit.rs`): which read rides in the write
//! batch, whether a Meta lock brackets it, what the epilogue adds. The
//! tuple pinned per shape is `(rtts, verbs, cas, batch_max, read_bytes)`
//! straight from the op's [`OpRecord`] — the same record the cost model and
//! the repo benchmark's `rtts_per_op` and `wire_bytes_per_op` are computed
//! from. The first four were recorded on the four-function write path this
//! machine replaced and must not move: a refactor of the commit path is
//! judged by this file, not only by the diffed baselines.
//!
//! One shape moved on purpose, by a protocol change and not a refactor:
//! `cold_update` was `(4, 7, 1, 3)` — scan, KV identity read, write batch,
//! CAS — until a cold UPDATE/DELETE with exactly one fingerprint candidate
//! began to carry that identity read *inside* its write batch
//! (`Piggyback::VerifyKvIdentity`, the state a lost speculation already
//! used). Same seven verbs, one round trip fewer, one verb more in the
//! batch: `(3, 7, 1, 4)`. The `cold_*` shapes after it pin the edges of
//! that rule: which writes keep the verified path, what a refuted identity
//! read costs, and that an op speculates at most once.
//!
//! A second shape moved with the read path, not the write path:
//! `cold_update_with_unreadable_candidate` was 4 batches and one RPC — the
//! retry's reconstruction asked the parity MN for its block record by RPC
//! and then read the parity chain one verb per round trip.
//! A degraded read is now one-sided: the record's head, the parity range
//! and the chain's other cells go out as one doorbell, so the same op is
//! 5 batches and `rpcs == 0`; that the retry reconstructed is read off
//! `client.search.degraded`. `read_shapes.rs` pins the read path itself.
//!
//! The fifth moved once, with no verb added, dropped or reordered: a read
//! that asks only "is this slot's KV my key, and live?" fetches header +
//! key (`kv::identity_len`, 25 B for these 9-byte keys) where it fetched
//! `read_hint(len64)` (256 B for these one-unit pairs; the whole pair at
//! any size). Read bytes per shape, before → after:
//!
//! ```text
//! cold_update, cold_delete                              776 →   545
//! cold_update_two_candidates                          1 032 →   572
//! cold_update_of_deleted_key                            768 →   537
//! cold_update_of_absent_key_with_colliding_neighbour  1 536 → 1 076
//! speculates_once_per_op                              1 552 → 1 090
//! lost_speculation_redo (the redo batch's rider)        280 →    49
//! redo_finds_tombstone  (the same)                      272 →    41
//! cold_update_with_unreadable_candidate               2 472 → 1 317
//! ```
//!
//! `cold_update_on_stale_len64` is the one shape whose round trips moved
//! with it, `(7, 17, 1, 6, 2 568)` with one retry → `(3, 7, 1, 4, 545)`
//! with none: the identity read no longer looks at the advisory length, so
//! a Meta word a dead writer left small stops costing a refuted
//! speculation. Every shape without an identity read — `cold_insert`,
//! `warm_cache_hit_update`, `tombstone_hit_is_not_found`,
//! `size_class_change`, the rollover pair — pins the bytes it always had.
//!
//! Each measured op runs with its open block already allocated and the
//! obsolete-bit buffer empty, so no allocation or bitmap-flush RPC rides
//! along (`rpcs == 0` is asserted).

use aceso_core::client::CrashPoint;
use aceso_core::config::unpack_col;
use aceso_core::{
    recover_cn, scrub, AcesoClient, AcesoConfig, AcesoStore, RecoveryTier, StoreError,
};
use aceso_index::{fingerprint, route_hash, RemoteIndex};
use aceso_rdma::{FaultAction, FaultPlan, FaultRule, OpRecord, SimCq, VerbKind};
use std::future::Future;
use std::sync::Arc;
use std::task::{Context, Waker};

/// `(rtts, verbs, cas, batch_max, read_bytes)`.
type Shape = (u32, u32, u32, u32, u32);

fn launch() -> Arc<AcesoStore> {
    AcesoStore::launch(AcesoConfig::small()).unwrap()
}

/// A client whose open block for `value`'s size class exists already.
fn primed(store: &Arc<AcesoStore>, tag: &str, value: &[u8]) -> AcesoClient {
    let mut c = store.client().unwrap();
    c.insert(format!("prime-{tag}").as_bytes(), value).unwrap();
    c
}

/// Runs `op` as the only profiled operation of `c` and returns its record;
/// no RPC may ride along.
fn measure<T>(c: &mut AcesoClient, op: impl FnOnce(&mut AcesoClient) -> T) -> (T, OpRecord) {
    let (out, rec) = measure_with_open(c, op);
    assert_eq!(rec.rpcs, 0, "a shape must not include an MN RPC");
    (out, rec)
}

/// [`measure`] for an op that opens a block: its allocation RPCs ride
/// along.
fn measure_with_open<T>(
    c: &mut AcesoClient,
    op: impl FnOnce(&mut AcesoClient) -> T,
) -> (T, OpRecord) {
    c.flush_bitmaps().unwrap();
    c.dm.take_ops();
    let out = op(c);
    let recs = c.dm.take_ops().records;
    assert_eq!(recs.len(), 1, "exactly one op must have been recorded");
    (out, recs[0])
}

fn shape(r: &OpRecord) -> Shape {
    (r.rtts, r.verbs, r.cas, r.batch_max, r.read_bytes)
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
    assert_eq!(shape(&rec), (4, 7, 1, 3, 520));
    store.shutdown();
}

/// UPDATE without a cache entry, one fingerprint candidate: bucket scan,
/// write batch led by the candidate's KV identity read, commit CAS.
#[test]
fn cold_update() {
    let store = launch();
    let mut a = primed(&store, "a", V);
    let mut b = primed(&store, "b", V);
    a.insert(b"shape-key", V).unwrap();
    let (r, rec) = measure(&mut b, |c| c.update(b"shape-key", V));
    r.unwrap();
    assert_eq!(shape(&rec), (3, 7, 1, 4, 545));
    assert_eq!(b.search(b"shape-key").unwrap().as_deref(), Some(V));
    store.shutdown();
}

/// DELETE without a cache entry: the cold UPDATE shape.
#[test]
fn cold_delete() {
    let store = launch();
    let mut a = primed(&store, "a", V);
    let mut b = primed(&store, "b", b"");
    a.insert(b"shape-key", V).unwrap();
    let (existed, rec) = measure(&mut b, |c| c.delete(b"shape-key"));
    assert!(existed.unwrap());
    assert_eq!(shape(&rec), (3, 7, 1, 4, 545));
    assert_eq!(a.search(b"shape-key").unwrap(), None);
    store.shutdown();
}

/// Two keys with one fingerprint, one index column and one first bucket
/// group: the second INSERT lands in the slot after the first's, and each
/// key's scan sees both.
fn twins(store: &Arc<AcesoStore>) -> (Vec<u8>, Vec<u8>) {
    let candidates = (0u32..).map(|i| format!("twin-{i:05}").into_bytes());
    (store.map.index)
        .first_twins(store.cfg.num_mns as u64, None, candidates)
        .unwrap()
}

/// UPDATE without a cache entry, two fingerprint candidates: nothing
/// singles one out, so the verified path stays — bucket scan, one KV
/// identity read per candidate up to ours, write batch, commit CAS.
#[test]
fn cold_update_two_candidates() {
    let store = launch();
    let (first, second) = twins(&store);
    let mut a = primed(&store, "a", V);
    let mut b = primed(&store, "b", V);
    a.insert(&first, b"first").unwrap();
    a.insert(&second, b"second").unwrap();
    let (r, rec) = measure(&mut b, |c| c.update(&second, V));
    r.unwrap();
    assert_eq!(shape(&rec), (5, 8, 1, 3, 572));
    assert_eq!(a.search(&first).unwrap().as_deref(), Some(&b"first"[..]));
    assert_eq!(a.search(&second).unwrap().as_deref(), Some(V));
    store.shutdown();
}

/// UPDATE/DELETE of a deleted key without a cache entry: the batch's
/// identity read finds the tombstone, the speculative KV and its deltas
/// are retired in a trailing three-write flush before the call returns,
/// `NotFound`. (The profiled op is the DELETE: a failed UPDATE records no
/// profile.)
#[test]
fn cold_update_of_deleted_key() {
    let store = launch();
    let mut a = primed(&store, "a", b"");
    let mut b = primed(&store, "b", b"");
    a.insert(b"shape-key", V).unwrap();
    assert!(a.delete(b"shape-key").unwrap());
    let (existed, rec) = measure(&mut b, |c| c.delete(b"shape-key"));
    assert!(!existed.unwrap());
    assert_eq!(shape(&rec), (3, 9, 0, 4, 537));
    let mut c = primed(&store, "c", V);
    assert!(matches!(
        c.update(b"shape-key", V),
        Err(StoreError::NotFound)
    ));
    assert_eq!(c.search(b"shape-key").unwrap(), None);
    assert!(scrub(&store).unwrap().is_clean());
    store.shutdown();
}

/// UPDATE/DELETE of an absent key whose only fingerprint match is another
/// key's slot: the identity read refutes the speculation, the retry
/// verifies the candidate first and finds nothing of ours — `NotFound`,
/// the speculative KV retired by the trailing flush, the neighbour
/// untouched. (Profiled as the DELETE, as above.)
#[test]
fn cold_update_of_absent_key_with_colliding_neighbour() {
    let store = launch();
    let (neighbour, absent) = twins(&store);
    let mut a = primed(&store, "a", V);
    let mut b = primed(&store, "b", b"");
    a.insert(&neighbour, b"neighbour").unwrap();
    let (existed, rec) = measure(&mut b, |c| c.delete(&absent));
    assert!(!existed.unwrap());
    assert_eq!(shape(&rec), (5, 12, 0, 4, 1076));
    assert_eq!(rec.retries, 1);
    assert!(matches!(a.update(&absent, V), Err(StoreError::NotFound)));
    for c in [&mut a, &mut b] {
        assert_eq!(
            c.search(&neighbour).unwrap().as_deref(),
            Some(&b"neighbour"[..])
        );
        assert_eq!(c.search(&absent).unwrap(), None);
    }
    assert!(scrub(&store).unwrap().is_clean());
    store.shutdown();
}

/// UPDATE without a cache entry of a key whose Meta word advertises one
/// unit for a sixteen-unit KV (the growing UPDATE before it died between
/// its commit CAS and its Meta write): the identity read is header + key
/// wherever the KV ends, so this is the plain cold shape. (When the read
/// was `read_hint(len64)` bytes it came back truncated: a refuted
/// speculation, a second scan and a verified re-read.)
#[test]
fn cold_update_on_stale_len64() {
    let store = launch();
    let big = vec![7u8; 991];
    let mut w = primed(&store, "w", &big);
    w.insert(b"shape-key", V).unwrap();
    w.crash_point = Some(CrashPoint::AfterCommit);
    assert!(w.update(b"shape-key", &big).is_err());
    let id = w.id();
    drop(w);
    recover_cn(&store, id).unwrap();

    let mut b = primed(&store, "b", V);
    let (r, rec) = measure(&mut b, |c| c.update(b"shape-key", V));
    r.unwrap();
    assert_eq!(rec.retries, 0);
    assert_eq!(shape(&rec), (3, 7, 1, 4, 545));
    assert_eq!(b.search(b"shape-key").unwrap().as_deref(), Some(V));
    assert!(scrub(&store).unwrap().is_clean());
    store.shutdown();
}

/// UPDATE without a cache entry while the candidate's KV block is lost
/// (its column killed, only the Index tier recovered): the batch's
/// identity read comes back unwritten, and the one retry verifies through
/// parity-chain reconstruction — one more doorbell, no MN CPU — before it
/// writes: exactly one speculative batch is posted, the op commits.
#[test]
fn cold_update_with_unreadable_candidate() {
    let store = launch();
    let reg = aceso_obs::Registry::new();
    store.install_recorder(Arc::clone(&reg));
    let key = b"shape-key";
    let mut a = primed(&store, "a", V);
    a.insert(key, V).unwrap();
    // Only closed, checkpointed blocks stay lost across the Index tier.
    a.close_open_blocks().unwrap();
    for _ in 0..2 {
        store.checkpoint_tick().unwrap();
    }
    let index_col = (route_hash(key) % store.cfg.num_mns as u64) as usize;
    let index = RemoteIndex::new(store.directory().node_of(index_col), store.map.index);
    let dm = store.cluster.background_client();
    let slot = index.scan(&dm, key, fingerprint(key)).unwrap().matches[0];
    let (kv_col, _) = unpack_col(slot.atomic.addr48);
    assert!(store.kill_mn(kv_col));
    let mut recovery = store.begin_recovery(kv_col).unwrap();
    recovery.run_to(RecoveryTier::Block).unwrap();

    let mut b = primed(&store, "b", V);
    let degraded = reg.counter("client.search.degraded");
    let before = degraded.get();
    let (r, rec) = measure(&mut b, |c| c.update(key, b"degraded"));
    r.unwrap();
    assert_eq!(rec.retries, 1, "one refuted speculation, then verified");
    assert_eq!(
        rec.batches, 5,
        "scan, speculative batch, scan, parity-chain doorbell, write batch"
    );
    assert_eq!(
        degraded.get() - before,
        1,
        "the retry must have reconstructed the KV"
    );
    assert_eq!(rec.cas, 1);
    // Two scans (512 each), the CAS return (8), the chain's record head
    // (160) — and five reads of the KV's range, header + key each (25 B;
    // 256 B when they fetched the slot): the speculative rider, the
    // retry's own, and the chain doorbell's parity range and two cells.
    assert_eq!(rec.read_bytes, 2 * 512 + 8 + 160 + 5 * 25);

    recovery.run().unwrap();
    let mut c = store.client().unwrap();
    assert_eq!(c.search(key).unwrap().as_deref(), Some(&b"degraded"[..]));
    assert!(scrub(&store).unwrap().is_clean());
    store.shutdown();
}

/// An op speculates on an unverified candidate at most once. A cold
/// UPDATE's identity read succeeds but its commit CAS loses to a writer
/// that slipped in between the batch and the CAS; the second try must take
/// the verified path — its write batch carries the first try's three
/// invalidation stamps and no piggybacked read.
#[test]
fn speculates_once_per_op() {
    let store = launch();
    let mut a = primed(&store, "a", V);
    let mut b = primed(&store, "b", V);
    a.insert(b"shape-key", V).unwrap();
    b.flush_bitmaps().unwrap();
    b.dm.take_ops();
    let cq = Arc::new(SimCq::new());
    b.dm.attach_cq(Arc::clone(&cq));
    {
        let mut op = std::pin::pin!(b.update_async(b"shape-key", b"cold"));
        let mut cx = Context::from_waker(Waker::noop());
        // Suspension 1: the bucket scan. Suspension 2: the write batch,
        // identity read included — its verbs have executed, the CAS has
        // not been posted.
        for _ in 0..2 {
            assert!(op.as_mut().poll(&mut cx).is_pending());
            assert!(cq.advance_next());
        }
        a.update(b"shape-key", b"racer").unwrap();
        aceso_rdma::cq::block_on(Some(Arc::clone(&cq)), op).unwrap();
    }
    b.dm.detach_cq();
    let rec = b.dm.take_ops().records[0];
    assert_eq!(rec.retries, 1);
    // scan, batch, lost CAS │ scan, identity read, batch, CAS.
    assert_eq!(shape(&rec), (7, 17, 2, 6, 1090));
    assert_eq!(
        a.search(b"shape-key").unwrap().as_deref(),
        Some(&b"cold"[..])
    );
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
    assert_eq!(shape(&rec), (2, 5, 1, 4, 24));
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
    assert_eq!(shape(&rec), (3, 12, 1, 7, 49));
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
    assert_eq!(shape(&rec), (1, 1, 0, 0, 16));
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
    assert_eq!(shape(&rec), (3, 14, 0, 7, 41));
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
    assert_eq!(shape(&rec), (3, 6, 1, 4, 24));
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
    assert_eq!(shape(&rec), (5, 7, 3, 3, 40));
    // The epoch moved on, so the next update is the plain warm shape.
    let (r, rec) = measure(&mut a, |c| c.update(b"shape-key", V));
    r.unwrap();
    assert_eq!(shape(&rec), (2, 5, 1, 4, 24));
    store.shutdown();
}

/// A rollover UPDATE that changes the size class: the bracket skips the
/// epilogue's Meta write, so the unlock CAS carries the new class — cold
/// readers get the right length hint, and the next cached UPDATE's slot
/// revalidation holds (a stale length refuted it once: the redo shape).
#[test]
fn rollover_with_size_class_change() {
    let store = launch();
    let big = vec![7u8; 950];
    let mut a = primed(&store, "a", V);
    a.insert(b"prime-big", &big).unwrap();
    wind_to_rollover(&mut a, b"shape-key");
    let (r, rec) = measure(&mut a, |c| c.update(b"shape-key", &big));
    r.unwrap();
    assert_eq!(shape(&rec), (5, 7, 3, 3, 40));
    let index_col = (route_hash(b"shape-key") % store.cfg.num_mns as u64) as usize;
    let index = RemoteIndex::new(store.directory().node_of(index_col), store.map.index);
    let dm = store.cluster.background_client();
    let slot = index
        .scan(&dm, b"shape-key", fingerprint(b"shape-key"))
        .unwrap()
        .matches[0];
    assert_eq!(slot.meta.len64, 16, "the Meta length names the 1 KB class");
    let (r, rec) = measure(&mut a, |c| c.update(b"shape-key", &big));
    r.unwrap();
    assert_eq!(shape(&rec), (2, 5, 1, 4, 24));
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
        (5, 7, 3, 3, 40),
        "the plain rollover shape: no probe loop, no lock break"
    );
    assert_eq!(
        a.search(b"shape-key").unwrap().as_deref(),
        Some(&b"after"[..])
    );
    store.shutdown();
}

/// A 1 KB-class value: a 16 B header, an 8 or 9 B key, 990 B and the
/// trailing byte fit 1 024 B.
fn kb(i: u32) -> Vec<u8> {
    vec![i as u8; 990]
}

/// A store of one stripe array — 15 DATA blocks of 64 one-KB slots — whose
/// first block had every key but each fourth rewritten elsewhere: 48
/// obsolete slots in 16 runs (1–3, 5–7, …, 61–63), reclaimable. Every
/// other fresh block is taken, so the next 1 KB open on its column reuses
/// it. (`failure_protocols.rs` builds the same store to recover it.)
fn scattered_reuse() -> Arc<AcesoStore> {
    let store = AcesoStore::launch(AcesoConfig {
        num_arrays: 1,
        ..AcesoConfig::small()
    })
    .unwrap();
    let mut w = store.client().unwrap();
    for i in 0..64 {
        w.insert(format!("reuse-{i:02}").as_bytes(), &kb(i))
            .unwrap();
    }
    w.close_open_blocks().unwrap();
    let mut filler = store.client().unwrap();
    for i in 0..13 * 64 {
        filler
            .insert(format!("fill-{i:03}").as_bytes(), &kb(i))
            .unwrap();
    }
    for i in (0..64).filter(|i| i % 4 != 0) {
        w.update(format!("reuse-{i:02}").as_bytes(), &kb(i + 1))
            .unwrap();
    }
    w.flush_bitmaps().unwrap();
    store
}

/// The INSERT that opens a reused block: the cold INSERT shape, the open's
/// RPCs — three columns with nothing to grant refuse `AllocData` before
/// the block's own grants it, then two `AllocDelta`s, 256 B of answer each
/// — and one more doorbell: one READ per run of obsolete slots, exactly
/// those slots' old images. It read the whole block — one 64 KB READ, 15
/// live slots' worth unused: `(5, 8, 1, 3, 67 592)`.
#[test]
fn reused_open_reads_only_its_obsolete_slots() {
    let (obsolete, runs) = (48, 16);
    let store = scattered_reuse();
    let mut r = store.client().unwrap();
    let (res, rec) = measure_with_open(&mut r, |c| c.insert(b"shape-key", &kb(7)));
    res.unwrap();
    assert_eq!(rec.rpcs, 6);
    let cold_insert: Shape = (4, 7, 1, 3, 520);
    assert_eq!(
        shape(&rec),
        (
            cold_insert.0 + 1,
            cold_insert.1 + runs,
            cold_insert.2,
            runs,
            cold_insert.4 + rec.rpcs * 256 + obsolete * 1024
        )
    );
    // The next INSERT fills the next obsolete slot: the plain cold shape.
    let (res, next) = measure(&mut r, |c| c.insert(b"shape-key-2", &kb(8)));
    res.unwrap();
    assert_eq!(shape(&next), cold_insert);
    assert_eq!(rec.batches, next.batches + 1);
    assert_eq!(r.search(b"shape-key").unwrap(), Some(kb(7)));
    assert!(scrub(&store).unwrap().is_clean());
    store.shutdown();
}
