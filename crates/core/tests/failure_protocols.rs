//! Edge-case tests of the failure-handling protocols: Meta-lock breaking,
//! mixed crashes, degraded paths, checkpoint/write races, and resource
//! exhaustion errors.

use aceso_core::client::CrashPoint;
use aceso_core::{
    read_records, recover_cn, recover_mn, replica_agreement, scrub, AcesoClient, AcesoConfig,
    AcesoStore, ClientTuning, RecoveryTier, StoreError,
};
use std::sync::Arc;

fn small() -> Arc<AcesoStore> {
    AcesoStore::launch(AcesoConfig::small()).unwrap()
}

/// A client that crashes while holding a slot's Meta lock must not block
/// other writers forever: they break the lock by re-locking at the next
/// odd epoch (§3.2.2, remark 2).
#[test]
fn meta_lock_break_after_holder_crash() {
    use aceso_index::{fingerprint, RemoteIndex, SlotMeta};

    let store = small();
    let mut a = store.client().unwrap();
    a.insert(b"locked-key", b"v0").unwrap();

    // Find the slot and lock its Meta by hand (simulating a client that
    // died between Algorithm 1's lines 9 and 20).
    let key = b"locked-key";
    let col = (aceso_index::route_hash(key) % 5) as usize;
    let node = store.directory().node_of(col);
    let index = RemoteIndex::new(node, store.map.index);
    let dm = store.cluster.background_client();
    let scan = index.scan(&dm, key, fingerprint(key)).unwrap();
    let slot = scan.matches[0];
    let locked = SlotMeta {
        len64: slot.meta.len64,
        epoch: slot.meta.epoch + 1,
    };
    assert_eq!(
        index.cas_meta(&dm, slot.addr, slot.meta, locked).unwrap(),
        slot.meta
    );

    // Another client updates the same key: it must spin, break the lock,
    // and commit.
    let mut b = store.client().unwrap();
    b.update(key, b"v1").unwrap();
    assert_eq!(b.search(key).unwrap().as_deref(), Some(&b"v1"[..]));

    // The Meta must be unlocked (even epoch) afterwards.
    let after = index.read_slot(&dm, slot.addr).unwrap();
    assert!(
        !after.meta.is_locked(),
        "meta left locked: {:?}",
        after.meta
    );
    // And the epoch moved past the broken lock.
    assert!(after.meta.epoch > locked.epoch);
    store.shutdown();
}

/// A holder killed *at* `CrashPoint::WhileMetaLocked` (mid-rollover, lock
/// taken, nothing written yet) leaves the Meta at an odd epoch; a second
/// client must spin out its 50-read budget, break the lock by re-locking
/// at the next odd epoch, and release it even (§3.2.2 remark 2).
#[test]
fn lock_break_after_holder_killed_while_locked() {
    use aceso_index::{fingerprint, RemoteIndex};

    let store = small();
    let key = b"lb-rollover";
    let mut a = store.client().unwrap();
    a.insert(key, b"v0").unwrap();

    let col = (aceso_index::route_hash(key) % 5) as usize;
    let index = RemoteIndex::new(store.directory().node_of(col), store.map.index);
    let dm = store.cluster.background_client();
    let slot_addr = {
        let scan = index.scan(&dm, key, fingerprint(key)).unwrap();
        scan.matches[0].addr
    };

    // Drive the slot version to 0xFF so the next mutation takes the
    // rollover lock (Algorithm 1 lines 7–13).
    loop {
        let s = index.read_slot(&dm, slot_addr).unwrap();
        if s.atomic.ver == 0xFF {
            break;
        }
        a.update(key, b"spin").unwrap();
    }

    a.crash_point = Some(CrashPoint::WhileMetaLocked);
    assert!(a.update(key, b"torn").is_err());
    drop(a);
    let locked = index.read_slot(&dm, slot_addr).unwrap().meta;
    assert!(locked.is_locked(), "holder died without the lock: {locked:?}");
    assert_eq!(locked.epoch % 2, 1);

    // The second client breaks the abandoned lock and commits.
    let mut b = store.client().unwrap();
    b.update(key, b"vb").unwrap();
    let after = index.read_slot(&dm, slot_addr).unwrap().meta;
    assert!(!after.is_locked(), "meta left locked: {after:?}");
    // Break path parity: re-lock at locked+2 (odd), unlock at +1 (even).
    assert_eq!(after.epoch, locked.epoch + 3);
    assert_eq!(after.epoch % 2, 0);
    assert_eq!(b.search(key).unwrap().as_deref(), Some(&b"vb"[..]));
    store.shutdown();
}

/// A holder killed between its rollover lock and commit CAS leaves an
/// *in-flight* KV behind the abandoned lock. The lock-breaker's commit
/// wins the slot; CN recovery of the dead holder must invalidate the
/// torn KV, never resurrect it.
#[test]
fn broken_holder_torn_kv_not_resurrected() {
    use aceso_index::{fingerprint, RemoteIndex};

    let store = small();
    let key = b"lb-torn";
    let mut a = store.client().unwrap();
    a.insert(key, b"v0").unwrap();

    let col = (aceso_index::route_hash(key) % 5) as usize;
    let index = RemoteIndex::new(store.directory().node_of(col), store.map.index);
    let dm = store.cluster.background_client();
    let slot_addr = {
        let scan = index.scan(&dm, key, fingerprint(key)).unwrap();
        scan.matches[0].addr
    };
    loop {
        let s = index.read_slot(&dm, slot_addr).unwrap();
        if s.atomic.ver == 0xFF {
            break;
        }
        a.update(key, b"spin").unwrap();
    }

    // Crash after the KV write but before the commit CAS: the lock is
    // held AND a torn KV exists in the Block Area.
    a.crash_point = Some(CrashPoint::BeforeCommit);
    assert!(a.update(key, b"torn").is_err());
    let aid = a.id();
    drop(a);
    let locked = index.read_slot(&dm, slot_addr).unwrap().meta;
    assert!(locked.is_locked(), "holder died without the lock: {locked:?}");

    let mut b = store.client().unwrap();
    b.update(key, b"vb").unwrap();
    let after = index.read_slot(&dm, slot_addr).unwrap().meta;
    assert!(!after.is_locked());
    assert_eq!(after.epoch, locked.epoch + 3);

    // Revive the holder: recovery must retire the torn KV (Slot Version
    // invalidation), leaving the breaker's value in place.
    recover_cn(&store, aid).unwrap();
    let mut revived = store.client_with_id(aid);
    assert_eq!(revived.search(key).unwrap().as_deref(), Some(&b"vb"[..]));
    let mut fresh = store.client().unwrap();
    assert_eq!(fresh.search(key).unwrap().as_deref(), Some(&b"vb"[..]));
    store.shutdown();
}

/// Mixed crash (§3.4.3): a client dies mid-write AND an MN dies; recovery
/// restores client consistency first, then the MN.
#[test]
fn mixed_cn_and_mn_crash() {
    let store = small();
    let mut c = store.client().unwrap();
    for i in 0..400u32 {
        let key = format!("mx-{i}");
        c.insert(key.as_bytes(), key.as_bytes()).unwrap();
    }
    store.checkpoint_tick().unwrap();
    let cli_id = c.id();
    c.crash_point = Some(CrashPoint::BeforeCommit);
    assert!(c.update(b"mx-0", b"torn").is_err());
    drop(c);

    store.kill_mn(3);
    let reports = store.recover(&[cli_id], &[3]).unwrap();
    assert_eq!(reports.len(), 1);
    let mut revived = store.client_with_id(cli_id);

    for i in (0..400u32).step_by(23) {
        let key = format!("mx-{i}");
        assert_eq!(
            revived.search(key.as_bytes()).unwrap().as_deref(),
            Some(key.as_bytes())
        );
    }
    store.shutdown();
}

/// A store with closed, checkpointed blocks on every column: killing a
/// column leaves old blocks that stay lost until the Block tier.
fn aged(tag: &str) -> (Arc<AcesoStore>, Vec<Vec<u8>>, Vec<u8>) {
    let store = small();
    let mut c = store.client().unwrap();
    // ~1 KB values so the data spans many blocks across all five columns.
    let val = vec![0x5Au8; 900];
    let keys: Vec<Vec<u8>> = (0..300u32)
        .map(|i| format!("{tag}-{i}").into_bytes())
        .collect();
    for key in &keys {
        c.insert(key, &val).unwrap();
    }
    c.close_open_blocks().unwrap();
    store.checkpoint_tick().unwrap();
    store.checkpoint_tick().unwrap();
    (store, keys, val)
}

fn live_nodes(store: &AcesoStore) -> usize {
    let nodes = store.cluster.nodes();
    nodes.iter().filter(|n| n.is_alive()).count()
}

fn read_back(store: &Arc<AcesoStore>, keys: &[Vec<u8>], val: &[u8]) -> AcesoClient {
    let mut fresh = store.client().unwrap();
    for key in keys {
        let got = fresh.search(key).unwrap();
        assert_eq!(
            got.as_deref(),
            Some(val),
            "{}",
            String::from_utf8_lossy(key)
        );
    }
    fresh
}

/// A recovery held after its Index tier leaves old blocks lost; a fresh
/// client must still read everything via degraded SEARCH, and stepping the
/// same handle on restores normal reads — on the same replacement, with
/// the Meta replica and the checkpoint fetched once.
#[test]
fn degraded_then_full_recovery() {
    let (store, keys, val) = aged("dg2");
    store.kill_mn(2);
    let mut recovery = store.begin_recovery(2).unwrap();
    recovery.run_to(RecoveryTier::Block).unwrap();
    let at_index = recovery.report();
    assert_eq!(at_index.old_lblock_count, 0);
    assert_eq!(at_index.recover_old_lblock_ms, 0.0);
    let replacement = store.directory().node_of(2);

    // Degraded reads: every key, fresh client (no stale cache).
    let fresh = read_back(&store, &keys, &val);
    // Degraded reads cost more verbs than normal ones.
    let profile = fresh.dm.take_ops();
    let avg_verbs: f64 =
        profile.records.iter().map(|r| r.verbs as f64).sum::<f64>() / profile.records.len() as f64;
    assert!(
        avg_verbs > 3.0,
        "degraded searches should read parity chains: {avg_verbs}"
    );

    let done = recovery.run().unwrap();
    assert!(done.old_lblock_count > 0 && done.parity_net_bytes > 0);
    // Resumed, not re-run: same node, one node added, Meta and Index
    // stages untouched since the publish.
    assert_eq!(store.directory().node_of(2), replacement);
    assert_eq!((live_nodes(&store), store.cluster.len()), (5, 6));
    assert_eq!(done.read_meta_ms, at_index.read_meta_ms);
    assert_eq!(done.read_ckpt_ms, at_index.read_ckpt_ms);
    assert_eq!(done.scan_kv_ms, at_index.scan_kv_ms);
    assert!(store.degraded_columns().is_empty());
    read_back(&store, &keys, &val);
    assert!(scrub(&store).unwrap().is_clean());
    store.shutdown();
}

/// Both ways a replacement gets its memory, in one store: the first
/// recovery claims the standby region the checkpoint ticks left, the second
/// (no tick in between) allocates a fresh one. Either way the column comes
/// back whole, under the next dense node id.
#[test]
fn recovery_onto_the_standby_then_onto_a_fresh_region() {
    let (store, keys, val) = aged("sb");
    for (col, node) in [(1, 5), (3, 6)] {
        assert!(store.kill_mn(col));
        recover_mn(&store, col).unwrap();
        assert_eq!(store.directory().node_of(col).0, node);
        read_back(&store, &keys, &val);
        assert!(scrub(&store).unwrap().is_clean(), "after recovering {col}");
    }
    assert_eq!((live_nodes(&store), store.cluster.len()), (5, 7));
    store.shutdown();
}

/// `step()` visits the tiers in order, and the column answers RPCs and
/// verbs exactly from the end of `Index`.
#[test]
fn tiers_run_in_order_and_publish_after_index() {
    use aceso_core::proto::ServerReq;
    use RecoveryTier::{Block, Done, Index, Meta, Parity};

    let (store, keys, val) = aged("ord");
    let col = 1;
    store.kill_mn(col);
    let dm = store.cluster.background_client();
    let answers = || {
        let dir = store.directory();
        let req = ServerReq::GetOldCopy { block: 0 };
        let rpc = dm.rpc(dir.node_of(col), &dir.rpc_of(col), req, 16).is_ok();
        let verb = read_records(&store, &dm, col, 0, 0..1).is_ok();
        assert_eq!(rpc, verb, "the RPC and the verb disagree");
        rpc
    };
    let mut recovery = store.begin_recovery(col).unwrap();
    for (tier, next, serving) in [
        (Meta, Index, false),
        (Index, Block, true),
        (Block, Parity, true),
        (Parity, Done, true),
        (Done, Done, true),
    ] {
        assert_eq!(recovery.tier(), tier);
        assert_eq!(recovery.step().unwrap(), tier);
        assert_eq!(recovery.tier(), next);
        assert_eq!(
            (answers(), store.col_alive(col)),
            (serving, serving),
            "{tier:?}"
        );
    }
    read_back(&store, &keys, &val);
    assert!(scrub(&store).unwrap().is_clean());
    store.shutdown();
}

/// A recovery held across client traffic and then run to the end leaves
/// what one `recover_mn` leaves on a twin store: the same deterministic
/// report, the same node count, everything readable, a clean scrub.
#[test]
fn held_recovery_matches_one_shot_on_a_twin() {
    let (one_shot, keys, val) = aged("twin");
    one_shot.kill_mn(3);
    let want = recover_mn(&one_shot, 3).unwrap();

    let (held, _, _) = aged("twin");
    held.kill_mn(3);
    let mut recovery = held.begin_recovery(3).unwrap();
    recovery.run_to(RecoveryTier::Block).unwrap();
    read_back(&held, &keys, &val);
    let got = recovery.run().unwrap();

    let deterministic = |r: &aceso_core::RecoveryReport| {
        (
            [r.meta_bytes, r.ckpt_bytes, r.scan_bytes],
            [
                r.lblock_net_bytes,
                r.lblock_net_ops,
                r.rblock_net_bytes,
                r.scan_lines,
                r.parity_net_bytes,
            ],
            [
                r.lblock_count,
                r.rblock_count,
                r.kv_count,
                r.kv_routed,
                r.kv_won,
                r.old_lblock_count,
            ],
            [
                r.meta_net_ms,
                r.ckpt_net_ms,
                r.lblock_net_ms,
                r.rblock_net_ms,
            ],
            [r.old_lblock_net_ms, r.parity_net_ms],
        )
    };
    assert_eq!(deterministic(&got), deterministic(&want));
    for store in [&one_shot, &held] {
        assert_eq!((live_nodes(store), store.cluster.len()), (5, 6));
        read_back(store, &keys, &val);
        assert!(scrub(store).unwrap().is_clean());
        store.shutdown();
    }
}

/// Dropped before the publish, a recovery leaves the column dead and no
/// orphan node behind; a fresh one completes.
#[test]
fn recovery_dropped_after_meta_leaves_no_orphan() {
    let (store, keys, val) = aged("drop-meta");
    store.kill_mn(0);
    let mut recovery = store.begin_recovery(0).unwrap();
    assert_eq!(recovery.step().unwrap(), RecoveryTier::Meta);
    assert_eq!(live_nodes(&store), 5, "the replacement, unpublished");
    drop(recovery);
    assert!(!store.col_alive(0));
    assert_eq!(live_nodes(&store), 4);

    recover_mn(&store, 0).unwrap();
    assert_eq!(live_nodes(&store), 5);
    read_back(&store, &keys, &val);
    assert!(scrub(&store).unwrap().is_clean());
    store.shutdown();
}

/// After the publish a stale or dropped handle leaves the index-only
/// state — serving, degraded — and the way on is `kill_mn` plus a fresh
/// recovery, which is also what "the replacement died between `Index` and
/// `Block`" looks like.
#[test]
fn recovery_abandoned_after_index_is_finished_by_a_fresh_one() {
    let (store, keys, val) = aged("drop-index");
    let col = 4;
    store.kill_mn(col);

    // The replacement dies under a held handle: its next step fails typed.
    let mut stale = store.begin_recovery(col).unwrap();
    stale.run_to(RecoveryTier::Block).unwrap();
    let replacement = store.directory().node_of(col);
    assert!(store.kill_mn(col));
    assert_eq!(
        stale.step().unwrap_err(),
        StoreError::Rdma(aceso_rdma::RdmaError::NodeUnreachable(replacement))
    );
    assert_eq!(stale.tier(), RecoveryTier::Block);

    // A second one is dropped after its Index tier: today's index-only
    // state, which only a kill hands back to recovery.
    let mut dropped = store.begin_recovery(col).unwrap();
    dropped.run_to(RecoveryTier::Block).unwrap();
    drop(dropped);
    assert!(store.col_alive(col));
    assert_eq!(store.degraded_columns(), [col]);
    read_back(&store, &keys, &val);
    assert_eq!(
        store.begin_recovery(col).err(),
        Some(StoreError::ColumnAlive(col))
    );

    assert!(store.kill_mn(col));
    recover_mn(&store, col).unwrap();
    assert!(store.degraded_columns().is_empty());
    assert_eq!(live_nodes(&store), 5);
    read_back(&store, &keys, &val);
    assert!(scrub(&store).unwrap().is_clean());
    store.shutdown();
}

/// A recovery that cannot complete leaves no live node behind and says
/// why. (`recover_mn` used to add the replacement first and return
/// `NotFound`: one live orphan per call, 2 → 3 → 4 below.)
#[test]
fn failed_recovery_leaks_no_node_and_says_why() {
    use aceso_rdma::{FaultAction, FaultPlan, FaultRule, RdmaError};

    // Three of five columns lost: refused up front, typed.
    let (store, _, _) = aged("lost3");
    for col in [0, 2, 4] {
        store.kill_mn(col);
    }
    for _ in 0..2 {
        assert_eq!(
            recover_mn(&store, 0).unwrap_err(),
            StoreError::TooManyColumnsLost { lost: 3 }
        );
        assert_eq!((live_nodes(&store), store.cluster.len()), (2, 5));
    }
    store.shutdown();

    // A survivor that stops answering mid-recovery: the half-restored
    // replacement is retired, and recovery succeeds once it is back.
    let (store, keys, val) = aged("flaky");
    store.kill_mn(0);
    let flaky = store.cluster.node(store.directory().node_of(3)).unwrap();
    let always = FaultRule::new(FaultAction::Fail).fires(u64::MAX);
    flaky.install_fault_plan(FaultPlan::with_rules(vec![always]));
    for attempt in 1..=2 {
        let err = recover_mn(&store, 0).unwrap_err();
        assert!(
            matches!(err, StoreError::Rdma(RdmaError::Injected { .. })),
            "{err:?}"
        );
        assert_eq!((live_nodes(&store), store.cluster.len()), (4, 5 + attempt));
        assert!(!store.col_alive(0));
    }
    flaky.clear_fault_plan();
    recover_mn(&store, 0).unwrap();
    assert_eq!(live_nodes(&store), 5);
    read_back(&store, &keys, &val);
    assert!(scrub(&store).unwrap().is_clean());
    store.shutdown();
}

/// What [`half_closed`] leaves behind.
struct HalfClosed {
    store: Arc<AcesoStore>,
    /// The dead writer.
    cli_id: u32,
    /// The half-closed block's column.
    col: usize,
    /// What every key holds.
    kvs: Vec<(Vec<u8>, Vec<u8>)>,
}

/// A store whose one writer died *between the two `EncodeDelta` RPCs* of a
/// block close: the block's cell is folded into its diagonal parity and
/// still delta-pending in its anti-diagonal one, so the two PARITY records
/// covering it disagree about it. `churn` first rewrites every key until
/// fresh blocks run out, so the half-closed block is a *reused* one (folded
/// in both parities, the pending delta carrying old ⊕ new).
fn half_closed(churn: bool) -> HalfClosed {
    use aceso_blockalloc::{CellKind, Role};
    use aceso_rdma::{FaultAction, FaultPlan, FaultRule, VerbKind};

    let store = AcesoStore::launch(AcesoConfig {
        num_arrays: 2,
        reclaim_free_ratio: 1.1, // Always allowed to reclaim.
        ..AcesoConfig::small()
    })
    .unwrap();
    let mut w = store.client().unwrap();
    let kv = |i: u32, round: u32| {
        let key = format!("hc-{i}").into_bytes();
        (key, vec![(i + round) as u8; 900])
    };
    // Three full rows of array 0 and a bit: every chain has allocated cells.
    let keys = if churn { 300 } else { 1000 };
    for i in 0..keys {
        let (k, v) = kv(i, 1);
        w.insert(&k, &v).unwrap();
    }
    for round in (0..if churn { 10 } else { 0 }).rev() {
        for i in 0..keys {
            let (k, v) = kv(i, round + 1);
            w.update(&k, &v).unwrap();
        }
        w.flush_bitmaps().unwrap();
    }
    // `DataFilled` and the diagonal `EncodeDelta` go through; the
    // anti-diagonal one and everything after it never leave the client.
    let dying = FaultRule::new(FaultAction::Fail).on_kind(VerbKind::Rpc);
    w.dm.install_fault_plan(FaultPlan::with_rules(vec![dying.after(2).fires(u64::MAX)]));
    assert!(w.close_open_blocks().is_err());
    let cli_id = w.id();
    drop(w);

    let xcode = aceso_erasure::XCode::new(store.cfg.num_mns).unwrap();
    let record_of = |col: usize, row: usize, array: u64| {
        let id = store.map.blocks.cell_block_id(array, row);
        store.server(col).records.lock().get(id)
    };
    let mut found = None;
    for col in 0..store.cfg.num_mns {
        for (id, rec) in store.server(col).records.lock().iter().enumerate() {
            let CellKind::Data { array, row } = store.map.blocks.kind_of(id as u32) else {
                continue;
            };
            if rec.role != Role::Data || rec.cli_id != cli_id {
                continue;
            }
            let (diag, anti) = xcode.parity_cells_for(row, col);
            let (diag, anti) = (
                record_of(diag.1, diag.0, array),
                record_of(anti.1, anti.0, array),
            );
            if diag.delta_addr[row] == 0 && anti.delta_addr[row] != 0 {
                assert!(diag.xor_map & (1 << row) != 0, "diagonal fold ran");
                assert_eq!(
                    anti.xor_map & (1 << row) != 0,
                    churn,
                    "reused ⇔ already folded"
                );
                assert!(found.replace(col).is_none(), "one half-closed block");
            }
        }
    }
    let col = found.expect("the close died between its two EncodeDeltas");
    HalfClosed {
        store,
        cli_id,
        col,
        kvs: (0..keys).map(|i| kv(i, 1)).collect(),
    }
}

/// The half-closed block's column dies, or a column whose lost cells share
/// a chain with it; with and without the dead writer's CN recovery first.
/// Recovery must fold every chain by that chain's own PARITY record — the
/// diagonal record alone calls the cell folded with nothing pending, the
/// anti-diagonal alone calls it unfolded (fresh) or pending (reused) —
/// and leave every key readable and every parity equation intact.
#[test]
fn a_close_cut_between_its_two_encode_deltas_survives_an_mn_loss() {
    for churn in [false, true] {
        for cn_first in [false, true] {
            for victim_off in 0..5 {
                let HalfClosed {
                    store,
                    cli_id,
                    col,
                    kvs,
                } = half_closed(churn);
                let victim = (col + victim_off) % store.cfg.num_mns;
                let crashed = if cn_first { vec![cli_id] } else { vec![] };
                assert!(store.kill_mn(victim));
                store.recover(&crashed, &[victim]).unwrap();
                let what =
                    format!("churn {churn}, cn first {cn_first}, block on {col}, lost {victim}");
                let mut reader = store.client().unwrap();
                for (k, v) in &kvs {
                    let got = reader.search(k).unwrap();
                    assert_eq!(
                        got.as_deref(),
                        Some(&v[..]),
                        "{what}: {}",
                        String::from_utf8_lossy(k)
                    );
                }
                let report = scrub(&store).unwrap();
                assert!(report.is_clean(), "{what}: {:?}", report.mismatches);
                store.shutdown();
            }
        }
    }
}

/// Checkpoint rounds running concurrently with committing writers must
/// never capture a torn slot (Atomic/Meta words are snapshotted whole).
#[test]
fn checkpoint_concurrent_with_writes_is_consistent() {
    let store = small();
    let mut setup = store.client().unwrap();
    for i in 0..200u32 {
        setup.insert(format!("ck-{i}").as_bytes(), b"x").unwrap();
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = store.client().unwrap();
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let key = format!("ck-{}", i % 200);
                c.update(key.as_bytes(), &i.to_le_bytes()).unwrap();
                i += 1;
            }
        })
    };
    for _ in 0..20 {
        store.checkpoint_tick().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();

    // Crash + recover using the last checkpoint: everything must be
    // readable and committed (no torn state resurrected).
    let mut c = store.client().unwrap();
    c.close_open_blocks().ok();
    store.kill_mn(0);
    recover_mn(&store, 0).unwrap();
    let mut fresh = store.client().unwrap();
    for i in (0..200u32).step_by(11) {
        let key = format!("ck-{i}");
        assert!(fresh.search(key.as_bytes()).unwrap().is_some(), "{key}");
    }
    store.shutdown();
}

/// The auto-checkpoint background loop runs and advances Index Versions:
/// two of its 20 ms rounds, waited for under a deadline of seconds, since
/// a round also refills the standby region and a loaded host stretches it.
#[test]
fn auto_checkpoint_loop() {
    use std::time::{Duration, Instant};
    let cfg = AcesoConfig {
        auto_checkpoint: true,
        ckpt_interval_ms: 20,
        ..AcesoConfig::small()
    };
    let store = AcesoStore::launch(cfg).unwrap();
    let mut c = store.client().unwrap();
    c.insert(b"auto", b"v").unwrap();
    let server = store.server(0);
    let iv = || server.index.local_index_version(&server.node.region);
    let deadline = Instant::now() + Duration::from_secs(10);
    while iv() <= 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let iv = iv();
    assert!(
        iv > 2,
        "background rounds should have advanced the IV: {iv}"
    );
    store.shutdown();
}

/// Value-only cache tuning (the factor-analysis +CKPT configuration) is
/// still fully correct, just costlier.
#[test]
fn value_only_cache_is_correct() {
    let store = small();
    let tuning = ClientTuning {
        cache_slot_addr: false,
        ..ClientTuning::default()
    };
    let mut a = store.client_with(tuning).unwrap();
    let mut b = store.client().unwrap();
    a.insert(b"vk", b"v1").unwrap();
    assert_eq!(a.search(b"vk").unwrap().as_deref(), Some(&b"v1"[..]));
    // Foreign update invalidates a's cached address.
    b.update(b"vk", b"v2").unwrap();
    assert_eq!(a.search(b"vk").unwrap().as_deref(), Some(&b"v2"[..]));
    a.update(b"vk", b"v3").unwrap();
    assert_eq!(b.search(b"vk").unwrap().as_deref(), Some(&b"v3"[..]));
    store.shutdown();
}

/// Cache-disabled tuning (ORIGIN-style) works too.
#[test]
fn no_cache_tuning_is_correct() {
    let store = small();
    let tuning = ClientTuning {
        cache_capacity: 0,
        ..ClientTuning::default()
    };
    let mut c = store.client_with(tuning).unwrap();
    c.insert(b"nc", b"v1").unwrap();
    assert_eq!(c.search(b"nc").unwrap().as_deref(), Some(&b"v1"[..]));
    c.update(b"nc", b"v2").unwrap();
    assert_eq!(c.search(b"nc").unwrap().as_deref(), Some(&b"v2"[..]));
    assert_eq!(c.cache_len(), 0, "capacity 0 must never fill");
    store.shutdown();
}

/// Exhausting the Block Area surfaces `OutOfBlocks`, not a hang or panic.
#[test]
fn out_of_blocks_is_reported() {
    let cfg = AcesoConfig {
        num_arrays: 1, // 3 data blocks per MN, 15 total, 64 KiB each.
        num_delta: 8,
        reclaim_free_ratio: 0.0, // Never reclaim.
        ..AcesoConfig::small()
    };
    let store = AcesoStore::launch(cfg).unwrap();
    let mut c = store.client().unwrap();
    let val = vec![0u8; 900];
    let mut err = None;
    for i in 0..5_000u32 {
        if let Err(e) = c.insert(format!("of-{i}").as_bytes(), &val) {
            err = Some(e);
            break;
        }
    }
    assert_eq!(err, Some(StoreError::OutOfBlocks));
    store.shutdown();
}

/// Overfilling one bucket group surfaces `IndexFull`.
#[test]
fn index_full_is_reported() {
    let cfg = AcesoConfig {
        index_groups: 1, // 24 slots total.
        ..AcesoConfig::small()
    };
    let store = AcesoStore::launch(cfg).unwrap();
    let mut c = store.client().unwrap();
    let mut err = None;
    for i in 0..200u32 {
        if let Err(e) = c.insert(format!("if-{i}").as_bytes(), b"v") {
            err = Some(e);
            break;
        }
    }
    assert_eq!(err, Some(StoreError::IndexFull));
    store.shutdown();
}

/// CN recovery with nothing torn is a no-op that reports zero repairs.
#[test]
fn cn_recovery_of_clean_client() {
    let store = small();
    let mut c = store.client().unwrap();
    for i in 0..50u32 {
        c.insert(format!("clean-{i}").as_bytes(), b"v").unwrap();
    }
    let id = c.id();
    drop(c);
    let r = recover_cn(&store, id).unwrap();
    assert_eq!(r.slots_repaired, 0);
    assert!(r.slots_kept > 0);
    store.shutdown();
}

/// Two clients crash; both recover; data stays consistent.
#[test]
fn two_crashed_clients_recover() {
    let store = small();
    let mut a = store.client().unwrap();
    let mut b = store.client().unwrap();
    a.insert(b"two-a", b"va").unwrap();
    b.insert(b"two-b", b"vb").unwrap();
    let (ida, idb) = (a.id(), b.id());
    a.crash_point = Some(CrashPoint::AfterKvWrite);
    b.crash_point = Some(CrashPoint::BeforeCommit);
    assert!(a.update(b"two-a", b"xa").is_err());
    assert!(b.update(b"two-b", b"xb").is_err());
    drop((a, b));

    recover_cn(&store, ida).unwrap();
    recover_cn(&store, idb).unwrap();
    let mut ra = store.client_with_id(ida);
    let mut rb = store.client_with_id(idb);
    assert_eq!(ra.search(b"two-a").unwrap().as_deref(), Some(&b"va"[..]));
    assert_eq!(rb.search(b"two-b").unwrap().as_deref(), Some(&b"vb"[..]));
    store.shutdown();
}

/// A slot's Meta length is advisory: it is written one round trip after
/// the commit CAS, and never if the writer dies in between
/// (`CrashPoint::AfterCommit`) — `recover_cn` does not touch Meta words.
/// `grow` commits a 991-byte value whose slot still advertises the length
/// of what was there before (nothing, or a one-unit KV), so a read by that
/// length is truncated. SEARCH always re-read at the header's own size;
/// a cold UPDATE/DELETE used to skip the candidate and report `NotFound`
/// for a live key.
fn cold_writes_find_key_with_stale_len64(key: &[u8], grow: impl Fn(&mut AcesoClient, &[u8])) {
    let big = vec![0xB1u8; 991];
    let history = || {
        let store = small();
        let mut w = store.client().unwrap();
        grow(&mut w, &big);
        let id = w.id();
        drop(w);
        recover_cn(&store, id).unwrap();
        let mut r = store.client().unwrap();
        assert_eq!(r.search(key).unwrap().as_deref(), Some(&big[..]));
        (store, r)
    };
    // UPDATE and DELETE each get a history of their own: a committed
    // UPDATE refreshes `len64`.
    let (store, mut r) = history();
    store.client().unwrap().update(key, b"after").unwrap();
    assert_eq!(r.search(key).unwrap().as_deref(), Some(&b"after"[..]));
    store.shutdown();

    let (store, mut r) = history();
    assert!(store.client().unwrap().delete(key).unwrap());
    assert_eq!(r.search(key).unwrap(), None);
    assert!(scrub(&store).unwrap().is_clean());
    store.shutdown();
}

/// INSERT died after its commit CAS: `len64` is still 0.
#[test]
fn cold_write_finds_a_key_whose_insert_never_wrote_len64() {
    cold_writes_find_key_with_stale_len64(b"stale-len-ins", |w, big| {
        w.crash_point = Some(CrashPoint::AfterCommit);
        assert!(w.insert(b"stale-len-ins", big).is_err());
    });
}

/// An UPDATE that grows the size class died after its commit CAS: `len64`
/// still names the one-unit class of the value it replaced.
#[test]
fn cold_write_finds_a_key_whose_growing_update_never_wrote_len64() {
    cold_writes_find_key_with_stale_len64(b"stale-len-upd", |w, big| {
        w.insert(b"stale-len-upd", b"small").unwrap();
        w.crash_point = Some(CrashPoint::AfterCommit);
        assert!(w.update(b"stale-len-upd", big).is_err());
    });
}

/// Where `key`'s committed KV sits — `(column, block, bytes into the
/// block)` — read off the index the way a cold client would.
fn kv_place(store: &Arc<AcesoStore>, key: &[u8]) -> (usize, aceso_blockalloc::BlockId, u64) {
    use aceso_core::config::unpack_col;
    use aceso_core::kv::{self, Identity};
    use aceso_index::{fingerprint, route_hash, RemoteIndex};
    use aceso_rdma::GlobalAddr;

    let dir = store.directory();
    let dm = store.cluster.background_client();
    let index_col = (route_hash(key) % store.cfg.num_mns as u64) as usize;
    let index = RemoteIndex::new(dir.node_of(index_col), store.map.index);
    let scan = index.scan(&dm, key, fingerprint(key)).unwrap();
    let mut places = scan.matches.iter().map(|m| unpack_col(m.atomic.addr48));
    let ours = |&(col, off): &(usize, u64)| {
        let addr = GlobalAddr::new(dir.node_of(col), off);
        let prefix = dm.read_vec(addr, kv::identity_len(key)).unwrap();
        kv::identity(&prefix, key) != Identity::Foreign
    };
    let (col, off) = places.find(ours).expect("key is indexed");
    let (block, within) = store.map.blocks.locate(off).unwrap();
    (col, block, within)
}

/// The obsolete bits the server holds for a block.
fn obsolete_bits(
    store: &Arc<AcesoStore>,
    col: usize,
    block: aceso_blockalloc::BlockId,
) -> Vec<usize> {
    let rec = store.server(col).records.lock().get(block);
    rec.bitmap.ones().collect()
}

/// An INSERT of a class-16 pair died after its commit CAS (`len64` still
/// 0), in slot 1 of its block. The UPDATE that replaces it must report
/// that slot obsolete: the slot number is the block record's to compute
/// from where the KV starts, whatever the Meta word says. (It used to be
/// skipped — a slot never reclaimed.)
#[test]
fn update_marks_the_slot_of_a_kv_whose_insert_never_wrote_len64() {
    let store = small();
    let big = vec![0xB1u8; 991];
    let mut w = store.client().unwrap();
    w.insert(b"obs-neighbour", &big).unwrap();
    w.crash_point = Some(CrashPoint::AfterCommit);
    assert!(w.insert(b"obs-key", &big).is_err());
    let id = w.id();
    drop(w);
    recover_cn(&store, id).unwrap();
    let (col, block, within) = kv_place(&store, b"obs-key");
    assert_eq!(within, 1024);

    let mut u = store.client().unwrap();
    u.update(b"obs-key", b"after").unwrap();
    u.flush_bitmaps().unwrap();
    assert_eq!(obsolete_bits(&store, col, block), [1]);
    store.shutdown();
}

/// The growing twin, on a reused block whose slot 16 still holds a live
/// key. `len64` says one unit, the replaced KV sits 1024 bytes into a
/// class-16 block: dividing by the advisory length named slot 16 — a live
/// key's — instead of slot 1, and the block's next reuse handed that key's
/// bytes to a new writer.
#[test]
fn update_marks_the_slot_of_a_kv_whose_growing_update_never_wrote_len64() {
    use aceso_core::proto::ServerReq;

    let store = AcesoStore::launch(AcesoConfig {
        num_arrays: 1,
        reclaim_free_ratio: 1.1,
        ..AcesoConfig::small()
    })
    .unwrap();
    let big = |tag: u8| vec![tag; 991];
    let fill = |i: usize| format!("fill-{i:02}").into_bytes();
    let pad = |i: usize| format!("pad-{i:03}").into_bytes();

    // One class-16 block, 64 slots, closed; then all of it but slots
    // 16..24 overwritten elsewhere: a reuse candidate with live keys in it.
    let mut loader = store.client().unwrap();
    for i in 0..64 {
        loader.insert(&fill(i), &big(1)).unwrap();
    }
    loader.close_open_blocks().unwrap();
    let (col, block, within) = kv_place(&store, &fill(16));
    assert_eq!(within, 16 * 1024);
    let mut w = store.client().unwrap();
    w.insert(b"obs-key", b"small").unwrap();
    let mut u = store.client().unwrap();
    for i in (0..16).chain(24..64) {
        u.update(&fill(i), &big(2)).unwrap();
    }
    u.flush_bitmaps().unwrap();
    assert_eq!(obsolete_bits(&store, col, block).len(), 56);
    // Use up every fresh block, so the next class-16 block is that one.
    let mut padder = store.client().unwrap();
    let mut pads = 0;
    let fresh = |c| store.server(c).alloc.lock().free_data_ratio();
    while (0..store.cfg.num_mns).any(|c| fresh(c) > 0.0) {
        padder.insert(&pad(pads), &big(3)).unwrap();
        pads += 1;
    }

    // The writer takes the block over: slot 0, then the growing UPDATE
    // into slot 1, dead between its commit CAS and its Meta write.
    w.insert(b"obs-neighbour", &big(4)).unwrap();
    w.crash_point = Some(CrashPoint::AfterCommit);
    assert!(w.update(b"obs-key", &big(5)).is_err());
    let id = w.id();
    drop(w);
    recover_cn(&store, id).unwrap();
    assert_eq!(kv_place(&store, b"obs-key"), (col, block, 1024));

    u.update(b"obs-key", &big(6)).unwrap();
    u.flush_bitmaps().unwrap();
    assert_eq!(obsolete_bits(&store, col, block), [1]);

    // Fill the dead writer's block the way its own close would have — the
    // never-written tail reported obsolete, `DataFilled`, both folds — and
    // the block is a reuse candidate again.
    let rpc = |c: usize, req: ServerReq| {
        let (dir, dm) = (store.directory(), store.cluster.background_client());
        dm.rpc(dir.node_of(c), &dir.rpc_of(c), req, 64)
            .unwrap()
            .expect_ok()
            .unwrap()
    };
    rpc(col, ServerReq::DataFilled { block });
    let tail: Vec<u32> = (2..16).chain(24..64).map(|slot| slot * 16).collect();
    rpc(
        col,
        ServerReq::BitmapFlush {
            updates: vec![(block, tail)],
        },
    );
    let aceso_blockalloc::CellKind::Data { array, row } = store.map.blocks.kind_of(block) else {
        panic!("a data block")
    };
    let (diag, anti) = aceso_erasure::XCode::new(store.cfg.num_mns)
        .unwrap()
        .parity_cells_for(row, col);
    for (parity_row, parity_col) in [diag, anti] {
        rpc(
            parity_col,
            ServerReq::EncodeDelta {
                array,
                row,
                parity_row,
            },
        );
    }
    // The padder's next block is this one: 55 free slots, none of them a
    // live key's. (Strided, so no pad block turns reclaimable first.)
    let owner = || store.server(col).records.lock().get(block).cli_id;
    let mut updates = (0..).map(|i| pad(i * 61 % pads));
    while owner() != padder.id() {
        padder.update(&updates.next().unwrap(), &big(7)).unwrap();
    }
    for key in updates.take(54) {
        padder.update(&key, &big(7)).unwrap();
        assert_eq!(kv_place(&store, &key).1, block);
    }

    // Every key reads back, by the tag its last writer filled it with.
    let mut r = store.client().unwrap();
    let mut tag_of = |key: &[u8]| r.search(key).unwrap().map(|v| (v.len(), v[0]));
    for i in 0..64 {
        let want = if (16..24).contains(&i) { 1 } else { 2 };
        assert_eq!(tag_of(&fill(i)), Some((991, want)), "fill-{i}");
    }
    assert_eq!(tag_of(b"obs-neighbour"), Some((991, 4)));
    assert_eq!(tag_of(b"obs-key"), Some((991, 6)));
    for i in 0..pads {
        assert!(matches!(tag_of(&pad(i)), Some((991, 3 | 7))), "pad-{i}");
    }
    assert!(scrub(&store).unwrap().is_clean());
    store.shutdown();
}

/// One seeded history for defect 2 of `benchmark/README.md`: updates land
/// *after* the last checkpoint round, an MN dies, `recover_mn` brings it
/// back, and every key must read back at the model's version with a clean
/// scrub — once per column, on a store small enough that reclamation
/// reuses blocks along the way. Returns what went wrong.
fn resurfacing_history(seed: u64) -> Vec<String> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const KEYS: u32 = 12_000;
    let value = |k: u32, version: u32| format!("k{k}-v{version}-{}", "x".repeat(40)).into_bytes();
    let key = |k: u32| format!("dup-{seed:x}-{k}").into_bytes();

    let mut rng = StdRng::seed_from_u64(seed);
    let store = small();
    let mut versions = vec![0u32; KEYS as usize];
    let mut loader = store.client().unwrap();
    for k in 0..KEYS {
        loader.insert(&key(k), &value(k, 0)).unwrap();
    }
    loader.close_open_blocks().unwrap();
    drop(loader);
    // The history writes more slots than the Block Area holds, so it only
    // completes because reclamation hands obsolete blocks out again.
    let slots_per_block = {
        let server = store.server(0);
        let recs = server.records.lock();
        let data = recs.iter().find(|r| r.role == aceso_blockalloc::Role::Data);
        data.expect("a loaded block")
            .slots(store.map.blocks.block_size) as u64
    };
    let n = store.cfg.num_mns as u64;
    let capacity = store.cfg.num_arrays * (n - 2) * n * slots_per_block;
    assert!(u64::from(KEYS) * (1 + n) > capacity, "no reclamation");

    let mut errors = Vec::new();
    for col in 0..store.cfg.num_mns {
        // A burst before the round and one after it: the second is what
        // the checkpoint does not know and the block scan must reapply.
        for after_round in [false, true] {
            let mut writer = store.client().unwrap();
            for _ in 0..KEYS / 2 {
                let k = rng.gen_range(0..KEYS);
                versions[k as usize] += 1;
                writer
                    .update(&key(k), &value(k, versions[k as usize]))
                    .unwrap();
            }
            writer.flush_bitmaps().unwrap();
            writer.close_open_blocks().unwrap();
            if !after_round {
                store.checkpoint_tick().unwrap();
            }
        }
        assert!(store.kill_mn(col));
        recover_mn(&store, col).unwrap();

        let mut reader = store.client().unwrap();
        for k in 0..KEYS {
            let want = value(k, versions[k as usize]);
            match reader.search(&key(k)) {
                Ok(Some(got)) if got == want => {}
                other => errors.push(format!(
                    "column {col}: key {k} at version {} read back as {:?}",
                    versions[k as usize],
                    other
                        .map(|v| v
                            .map(|v| String::from_utf8_lossy(&v[..v.len().min(16)]).into_owned()))
                )),
            }
        }
        let report = scrub(&store).unwrap();
        if !report.is_clean() {
            errors.push(format!("column {col}: scrub {:?}", report.mismatches));
        }
    }
    store.shutdown();
    errors
}

/// `recover_mn` must not resurface a key's previous version (defect 2 of
/// `benchmark/README.md`): the Index tier's reapply used to remember only the
/// *first* fingerprint match it could not verify, so with two such
/// matches in a key's buckets the stale slot survived beside the fresh
/// one.
#[test]
fn recover_mn_does_not_resurface_previous_versions() {
    // Both seeds fail at the parent of the fix (one stale key each, found
    // in a search of seeds 0..12; 0..40 are clean with the fix).
    for seed in [6, 9] {
        let errors = resurfacing_history(seed);
        assert!(errors.is_empty(), "seed {seed}: {errors:#?}");
    }
}

/// Two columns down, the second one's new blocks reach the Index tier's
/// scan in the order its Meta replica lists them, and that order settles a
/// tie between equal slot versions. Eight clients write the next version of
/// one key, each into a fresh block of column `other`, and die before their
/// commit CAS: eight complete KVs at one slot version. The same history on
/// two stores must rebuild the same Index Area, byte for byte — with the
/// replica a `HashMap` each store listed it in an order of its own.
#[test]
fn two_failure_index_rebuild_is_the_same_in_every_store() {
    let (col, other) = (0usize, 3u32);
    let key = (0..)
        .map(|i| format!("tie-{i}").into_bytes())
        .find(|k| aceso_index::route_hash(k) % 5 == col as u64)
        .unwrap();
    let rebuilt = || {
        let store = small();
        store.client().unwrap().insert(&key, b"v0").unwrap();
        // A client opens its first block on column `id % 5`.
        for id in (1000..).filter(|id| id % 5 == other).take(8) {
            let mut c = store.client_with_id(id);
            c.crash_point = Some(CrashPoint::BeforeCommit);
            assert!(c.update(&key, format!("orphan-{id}").as_bytes()).is_err());
        }
        assert!(store.kill_mn(col) && store.kill_mn(other as usize));
        let report = recover_mn(&store, col).unwrap();
        assert!(report.kv_count >= 9, "{report:?}");
        let index = store.map.index;
        let region = &store.server(col).node.region;
        let bytes = region.read_vec(index.base, index.size_bytes() as usize);
        store.shutdown();
        bytes.unwrap()
    };
    assert!(
        rebuilt() == rebuilt(),
        "two stores rebuilt different indexes"
    );
}

/// The bytes of every DATA block `col`'s server holds, by block id.
fn data_blocks(store: &Arc<AcesoStore>, col: usize) -> Vec<(u32, Vec<u8>)> {
    use aceso_blockalloc::Role;
    let (blocks, server) = (store.map.blocks, store.server(col));
    let (region, bs) = (&server.node.region, blocks.block_size as usize);
    let recs = server.records.lock();
    let data = recs.iter().enumerate().filter(|(_, r)| r.role == Role::Data);
    let read = |id| region.read_vec(blocks.block_offset(id), bs).unwrap();
    data.map(|(id, _)| (id as u32, read(id as u32))).collect()
}

/// The stripe book names one erasure: a column whose Meta Area the fabric
/// reports unreachable contributes no PARITY record, its cells read as
/// unencoded. Recovering a column while another one that holds parity of
/// every array is dead lands each of its DATA blocks byte for byte.
#[test]
fn book_over_a_dead_parity_holder_decodes_every_block() {
    let (store, keys, val) = aged("holder");
    let (col, holder) = (1, 3);
    let before = data_blocks(&store, col);
    assert!(!before.is_empty());
    assert!(store.kill_mn(col) && store.kill_mn(holder));
    recover_mn(&store, col).unwrap();
    let after = data_blocks(&store, col);
    assert!(after == before, "a decoded block differs");
    recover_mn(&store, holder).unwrap();
    read_back(&store, &keys, &val);
    assert!(scrub(&store).unwrap().is_clean());
    store.shutdown();
}

/// A live column whose Meta Area READ fails is no erasure: scrub and CN
/// recovery return the error, whether it hits the column-wide read of its
/// record table or, past that, the stripe book's read of one record.
#[test]
fn failed_meta_area_read_on_a_live_column_is_an_error() {
    use aceso_rdma::{FaultAction, FaultPlan, FaultRule, RdmaError, VerbKind};

    let store = small();
    let mut c = store.client().unwrap();
    for i in 0..50u32 {
        c.insert(format!("meta-read-{i}").as_bytes(), b"v").unwrap();
    }
    let id = c.id();
    drop(c);
    let blocks = store.map.blocks;
    let node = store.cluster.node(store.directory().node_of(2)).unwrap();
    let meta = (blocks.meta_base, blocks.meta_base + blocks.meta_size());
    for skip in [0, 1] {
        let fail = FaultRule::new(FaultAction::Fail).on_kind(VerbKind::Read);
        let fail = fail.in_range(meta.0, meta.1).after(skip).fires(u64::MAX);
        node.install_fault_plan(FaultPlan::with_rules(vec![fail]));
        let scrubbed = scrub(&store).map(|_| ());
        node.install_fault_plan(FaultPlan::with_rules(vec![fail]));
        let recovered = recover_cn(&store, id).map(|_| ());
        for err in [scrubbed.unwrap_err(), recovered.unwrap_err()] {
            assert!(
                matches!(err, StoreError::Rdma(RdmaError::Injected { .. })),
                "skip {skip}: {err:?}"
            );
        }
    }
    node.clear_fault_plan();
    assert!(scrub(&store).unwrap().is_clean());
    assert_eq!(recover_cn(&store, id).unwrap().slots_repaired, 0);
    store.shutdown();
}

/// Two failures must leave every column's record table whole on both of
/// its holders. (a) Columns 0 and 1 die together and 1 comes back first:
/// column 0's Meta tier reads its copy off the replacement of 1, which its
/// publish refilled from column 2's. (b) Column 2 is replaced, then 0 and 1
/// die together: column 0's one copy left is the one on the replacement of
/// 2, which column 0 rewrote when 2 was published. Every recovery reads
/// whole tables, and every key reads back.
#[test]
fn two_failures_leave_both_meta_copies_whole() {
    // Per step: the columns killed together, then those recovered, in order.
    type Schedule = [(&'static [usize], &'static [usize])];
    let schedules: [(&str, &Schedule); 2] = [
        ("a", &[(&[0, 1], &[1, 0])]),
        ("b", &[(&[2], &[2]), (&[0, 1], &[0, 1])]),
    ];
    for (tag, schedule) in schedules {
        let (store, keys, val) = aged(&format!("copies-{tag}"));
        for &(kill, recover) in schedule {
            for &col in kill {
                assert!(store.kill_mn(col));
            }
            for &col in recover {
                // Its own table, and each other dead column's.
                let dead = (0..5).filter(|&c| !store.col_alive(c)).count() as u64;
                let report = recover_mn(&store, col).unwrap();
                let tables = dead * store.map.blocks.table_size();
                assert_eq!(report.meta_bytes, tables, "({tag}) column {col}");
            }
        }
        let mut fresh = store.client().unwrap();
        let lost = keys.iter().filter(|key| fresh.search(key).unwrap().as_deref() != Some(&val));
        assert_eq!(lost.count(), 0, "({tag}) keys lost");
        assert!(scrub(&store).unwrap().is_clean(), "({tag}) scrub");
        let mut violations = Vec::new();
        replica_agreement(&store, &mut violations);
        assert!(violations.is_empty(), "({tag}) {violations:?}");
        store.shutdown();
    }
}
