//! Elastic membership integration tests: online MN join/drain under live
//! traffic, parity moving with its placement group, stale-placement
//! clients, aborts, and the per-column degraded-window bookkeeping shared
//! with recovery.

use aceso_blockalloc::CellKind;
use aceso_core::{recover_mn, AcesoConfig, AcesoStore, ElasticKind, ElasticStep, RecoveryTier};
use std::sync::Arc;

fn launch() -> Arc<AcesoStore> {
    AcesoStore::launch(AcesoConfig::small()).unwrap()
}

fn preload(store: &Arc<AcesoStore>, n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut cli = store.client().unwrap();
    let kvs: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
        .map(|i| {
            (
                format!("elastic-key-{i}").into_bytes(),
                format!("value-{i}-{}", "x".repeat(i % 80)).into_bytes(),
            )
        })
        .collect();
    for (k, v) in &kvs {
        cli.insert(k, v).unwrap();
    }
    cli.flush_bitmaps().unwrap();
    kvs
}

fn assert_all(store: &Arc<AcesoStore>, kvs: &[(Vec<u8>, Vec<u8>)]) {
    let mut cli = store.client().unwrap();
    for (k, v) in kvs {
        assert_eq!(
            cli.search(k).unwrap().as_deref(),
            Some(v.as_slice()),
            "key {:?} lost",
            String::from_utf8_lossy(k)
        );
    }
}

/// A full join migration, stepped one boundary at a time with live client
/// traffic between the steps: every KV stays readable, the placement epoch
/// is strictly monotone, and the column ends up served by the new node.
#[test]
fn join_migration_preserves_data_under_live_traffic() {
    let store = launch();
    let kvs = preload(&store, 120);
    let col = 1;
    let old_node = store.directory().node_of(col);

    let mut mig = store.begin_join(col).unwrap();
    assert_eq!(mig.kind(), ElasticKind::Join);
    let mut cli = store.client().unwrap();
    let mut epoch = store.placement().epoch();
    let mut steps = Vec::new();
    let mut i = 0usize;
    loop {
        let step = mig.step().unwrap();
        if step == ElasticStep::Done {
            break;
        }
        steps.push(step);
        let e = store.placement().epoch();
        assert!(e > epoch, "placement epoch must advance at {step}: {e}");
        epoch = e;
        // Interleave live traffic at every boundary: updates (stale
        // placement must bounce off the fences and refresh, never write
        // through) and reads (mid-migration blocks stay readable).
        for _ in 0..4 {
            let (k, _) = &kvs[i % kvs.len()];
            let v2 = format!("rewritten-{i}").into_bytes();
            cli.update(k, &v2).unwrap();
            assert_eq!(cli.search(k).unwrap(), Some(v2));
            cli.insert(format!("mid-mig-{i}").as_bytes(), b"fresh")
                .unwrap();
            i += 1;
        }
    }
    assert!(steps.contains(&ElasticStep::Announce));
    assert!(steps.contains(&ElasticStep::Publish));
    assert!(steps.contains(&ElasticStep::Free));
    assert!(
        steps
            .iter()
            .filter(|s| matches!(s, ElasticStep::CopyBatch(_)))
            .count()
            == store.cfg.elastic_groups,
        "one copy batch per placement group: {steps:?}"
    );

    // The column moved: new node serves it, the old one is drained.
    let new_node = store.directory().node_of(col);
    assert_ne!(new_node, old_node);
    assert_eq!(mig.to_node(), Some(new_node));
    assert!(store.cluster.node(old_node).is_err(), "old node still up");
    assert!(store.placement().snapshot().migration.is_none());
    assert!(store.placement().snapshot().retired.contains(&old_node));
    assert!(
        !store.degraded_columns().contains(&col),
        "degraded window must close at publish"
    );

    // Every KV — preloaded, rewritten, and inserted mid-migration — is
    // readable through fresh clients (nothing depends on the retired node).
    let mut check = store.client().unwrap();
    for n in 0..i {
        assert_eq!(
            check
                .search(format!("mid-mig-{n}").as_bytes())
                .unwrap()
                .as_deref(),
            Some(&b"fresh"[..])
        );
    }
    for (idx, (k, _)) in kvs.iter().enumerate() {
        let got = check.search(k).unwrap();
        assert!(got.is_some(), "key {idx} unreadable after join");
    }
    store.shutdown();
}

/// Parity follows its placement group. Blocks are closed before the join,
/// so the source's PARITY cells hold folds the target lacks until their
/// group's batch copies them. The join is then driven step by step with
/// UPDATEs between the batches that close blocks, so `EncodeDelta` folds
/// land on the migrating column mid-migration. After every copy batch, and
/// again after the traffic that follows it, every block of every moved
/// group — PARITY cells included — reads byte-identical on the source and
/// the target; the store scrubs clean after the publish.
#[test]
fn parity_moves_with_its_group_and_folds_keep_both_sides_identical() {
    let store = launch();
    let kvs = preload(&store, 120);
    let col = 1;
    let blocks = store.map.blocks;
    let (groups, bs) = (store.cfg.elastic_groups, blocks.block_size as usize);
    let source = store.cluster.node(store.directory().node_of(col)).unwrap();
    let read = |node: &aceso_rdma::MemoryNode, id: u32| {
        node.region.read_vec(blocks.block_offset(id), bs).unwrap()
    };
    let group = |g: usize| {
        (0..blocks.blocks_per_node() as u32).filter(move |&id| id as usize % groups == g)
    };
    let parity_of = |g: usize| -> Vec<u32> {
        group(g)
            .filter(|&id| matches!(blocks.kind_of(id), CellKind::Parity { .. }))
            .collect()
    };
    // UPDATEs that close their blocks: the folds land on the parity
    // holders, the migrating column among them. Each key is updated once.
    let mut cli = store.client().unwrap();
    let mut i = 0usize;
    let mut traffic = |cli: &mut aceso_core::AcesoClient| {
        for _ in 0..3 {
            for _ in 0..8 {
                cli.update(&kvs[i].0, format!("fold-{i}").as_bytes())
                    .unwrap();
                i += 1;
            }
            cli.close_open_blocks().unwrap();
        }
    };
    traffic(&mut cli);
    assert!(
        (0..groups)
            .flat_map(parity_of)
            .any(|id| read(&source, id) != vec![0; bs]),
        "no parity cell folded before the join"
    );

    let mut mig = store.begin_join(col).unwrap();
    assert_eq!(mig.step().unwrap(), ElasticStep::Announce);
    let target = store.cluster.node(mig.to_node().unwrap()).unwrap();
    let identical = |moved: &[usize], when: &str| {
        for &g in moved {
            for id in group(g) {
                let kind = blocks.kind_of(id);
                assert!(
                    read(&source, id) == read(&target, id),
                    "{when}: block {id} ({kind:?}) of moved group {g} differs"
                );
            }
        }
    };
    let (mut moved, mut folded) = (Vec::new(), 0usize);
    while moved.len() < groups {
        let ElasticStep::CopyBatch(g) = mig.step().unwrap() else {
            panic!("expected a copy batch");
        };
        moved.push(g);
        identical(&moved, &format!("after copy batch {g}"));
        let parity: Vec<u32> = moved.iter().flat_map(|&g| parity_of(g)).collect();
        let before: Vec<Vec<u8>> = parity.iter().map(|&id| read(&source, id)).collect();
        traffic(&mut cli);
        folded += parity
            .iter()
            .zip(&before)
            .filter(|&(&id, b)| read(&source, id) != *b)
            .count();
        identical(&moved, &format!("after the folds following batch {g}"));
    }
    assert!(folded > 0, "no fold landed on a moved parity cell");

    assert_eq!(mig.step().unwrap(), ElasticStep::Publish);
    cli.flush_bitmaps().unwrap();
    let report = aceso_core::scrub(&store).unwrap();
    assert!(report.is_clean(), "parity stale after publish: {report:?}");
    mig.run().unwrap();
    let mut check = store.client().unwrap();
    for (n, (k, v)) in kvs.iter().enumerate() {
        let want = if n < i {
            format!("fold-{n}").into_bytes()
        } else {
            v.clone()
        };
        assert_eq!(check.search(k).unwrap(), Some(want), "key {n}");
    }
    store.shutdown();
}

/// A drain is the same machine with the other label; run it end to end and
/// then recover an *unrelated* column to prove normal failure handling
/// still works after the membership changed.
#[test]
fn drain_then_unrelated_recovery() {
    let store = launch();
    let kvs = preload(&store, 60);
    let col = 3;
    let mut mig = store.begin_drain(col).unwrap();
    assert_eq!(mig.kind(), ElasticKind::Drain);
    let report = mig.run().unwrap();
    assert_eq!(report.batches as usize, store.cfg.elastic_groups);
    assert!(report.blocks_moved > 0);
    assert_eq!(report.aborts, 0);
    assert_all(&store, &kvs);

    // An ordinary MN failure after the drain: kill and recover column 0.
    store.kill_mn(0);
    recover_mn(&store, 0).unwrap();
    assert_all(&store, &kvs);
    store.shutdown();
}

/// Satellite: a client holding a pre-migration placement snapshot must
/// fail its access on the epoch fence and re-resolve — never read or
/// write through the stale placement.
#[test]
fn stale_placement_client_refreshes_and_commits() {
    let store = launch();
    let reg = Arc::new(aceso_obs::Registry::new());
    store.install_recorder(Arc::clone(&reg));
    let kvs = preload(&store, 80);

    // The stale client: created (and epoch-stamped) before any migration.
    let mut stale = store.client().unwrap();
    for (k, v) in kvs.iter().take(10) {
        assert_eq!(stale.search(k).unwrap().as_deref(), Some(v.as_slice()));
    }

    // Move every placement group of column 2 (fences installed on the old
    // node), but stop before the publish.
    let col = 2;
    let mut mig = store.begin_join(col).unwrap();
    mig.step().unwrap(); // announce
    for _ in 0..store.cfg.elastic_groups {
        assert!(matches!(mig.step().unwrap(), ElasticStep::CopyBatch(_)));
    }

    // The stale client still holds the pre-migration snapshot. Updating
    // every key forces it through the moved column: the fence rejects the
    // stale write, the client refreshes, and the commit lands on the new
    // placement.
    for (n, (k, _)) in kvs.iter().enumerate() {
        stale
            .update(k, format!("stale-redo-{n}").as_bytes())
            .unwrap();
    }
    assert_eq!(
        stale.dm.placement_epoch(),
        store.placement().epoch(),
        "client must have adopted the current placement epoch"
    );
    assert!(
        reg.counter("client.retry.attempts").get() > 0,
        "the unified retry policy must have fielded the fence bounces"
    );

    // Finish the migration; everything the stale client wrote survives the
    // publish (the writes really went to the target, not the stale side).
    mig.run().unwrap();
    let mut check = store.client().unwrap();
    for (n, (k, _)) in kvs.iter().enumerate() {
        assert_eq!(
            check.search(k).unwrap(),
            Some(format!("stale-redo-{n}").into_bytes()),
            "key {n} lost its post-fence update"
        );
    }
    store.shutdown();
}

/// Aborting an unpublished migration reverts cleanly: the directory stays
/// authoritative (the dual-write mirror kept the source fresh), the fences
/// drop, and the half-filled target is retired unused.
#[test]
fn abort_mid_copy_is_clean() {
    let store = launch();
    let kvs = preload(&store, 40);
    let col = 4;
    let node_before = store.directory().node_of(col);

    let mut mig = store.begin_join(col).unwrap();
    mig.step().unwrap(); // announce
    mig.step().unwrap(); // first copy batch
    let mut cli = store.client().unwrap();
    cli.update(&kvs[0].0, b"written-during-migration").unwrap();
    mig.abort();
    assert_eq!(mig.report().aborts, 1);
    assert_eq!(mig.step().unwrap(), ElasticStep::Done);

    assert_eq!(store.directory().node_of(col), node_before);
    assert!(store.placement().snapshot().migration.is_none());
    assert!(!store.degraded_columns().contains(&col));
    let mut check = store.client().unwrap();
    assert_eq!(
        check.search(&kvs[0].0).unwrap().as_deref(),
        Some(&b"written-during-migration"[..])
    );
    assert_all(&store, &kvs[1..]);
    store.shutdown();
}

/// A migration lives in the placement map alone: no step of a join, from
/// its announce through its publish, marks the column degraded — the
/// dual-write mirror keeps the source byte-fresh, so the bytes it hosts
/// stay trusted.
#[test]
fn a_join_opens_no_degraded_window() {
    let store = launch();
    let _kvs = preload(&store, 30);
    let mut mig = store.begin_join(3).unwrap();
    loop {
        let step = mig.step().unwrap();
        let degraded = store.degraded_columns();
        assert!(degraded.is_empty(), "after {step}: {degraded:?}");
        if step == ElasticStep::Publish {
            break;
        }
    }
    mig.run().unwrap();
    store.shutdown();
}

/// Satellite regression: finishing one recovery must not clear *other*
/// columns' degraded windows. A recovery of column 1 held after its Index
/// tier is still degraded while a full recovery of column 2 completes.
#[test]
fn overlapping_recoveries_keep_foreign_degraded_windows() {
    let store = launch();
    let _kvs = preload(&store, 30);

    // Column 1: index tier only — its old blocks stay lost, the column
    // must remain flagged degraded.
    store.kill_mn(1);
    let mut held = store.begin_recovery(1).unwrap();
    held.run_to(RecoveryTier::Block).unwrap();
    assert!(store.degraded_columns().contains(&1));

    // Column 2: full recovery. With every column alive again it rebuilds
    // parity and closes *its own* window.
    store.kill_mn(2);
    recover_mn(&store, 2).unwrap();

    let degraded = store.degraded_columns();
    assert!(
        degraded.contains(&1),
        "column 2's recovery must not clear column 1's degraded window: {degraded:?}"
    );
    assert!(!degraded.contains(&2), "column 2 finished: {degraded:?}");

    // Completing column 1's block tier closes the remaining window.
    held.run().unwrap();
    assert!(!store.degraded_columns().contains(&1));
    store.shutdown();
}

/// Regression: a client that refreshed *mid-copy* holds a snapshot in
/// which moved groups resolve to the target as primary and the source as
/// dual-write mirror. After the publish such a client must bounce off the
/// target's publish fence before any byte lands — without that fence its
/// primary write landed, the mirror leg aborted the batch on the source
/// fence, and the retry re-placed the KV into a fresh slot, orphaning a
/// half-written delta pair (one copy with data, the other still zero).
#[test]
fn publish_fences_stale_mid_migration_snapshots() {
    let store = launch();
    let kvs = preload(&store, 80);
    let col = 2;

    let mut mig = store.begin_join(col).unwrap();
    mig.step().unwrap(); // announce
    for _ in 0..store.cfg.elastic_groups {
        mig.step().unwrap(); // copy batches
    }
    // This client's snapshot shows the whole column moved with the
    // migration still open: primaries resolve to the target, the
    // dual-write mirror points at the source.
    let mut stale = store.client().unwrap();
    for (k, v) in kvs.iter().take(20) {
        stale.update(k, v).unwrap();
    }
    // Publish and free behind the client's back.
    while mig.step().unwrap() != ElasticStep::Done {}

    // Every post-publish write through the stale view must re-resolve and
    // land on both delta copies, never half-commit.
    for (n, (k, _)) in kvs.iter().enumerate() {
        stale
            .update(k, format!("post-publish-{n}").as_bytes())
            .unwrap();
    }
    stale.flush_bitmaps().unwrap();
    let report = aceso_core::scrub(&store).unwrap();
    assert!(
        report.is_clean(),
        "stale-snapshot writes diverged the delta copies: {report:?}"
    );
    let mut check = store.client().unwrap();
    for (n, (k, _)) in kvs.iter().enumerate() {
        assert_eq!(
            check.search(k).unwrap(),
            Some(format!("post-publish-{n}").into_bytes())
        );
    }
    store.shutdown();
}

/// The placement map rejects concurrent migrations and the epoch sequence
/// spans membership *and* placement events.
#[test]
fn single_migration_at_a_time() {
    let store = launch();
    let mut a = store.begin_join(0).unwrap();
    a.step().unwrap(); // announce: migration now open
    assert!(store.begin_drain(1).is_err());
    a.abort();
    // After the abort a new migration may start.
    let mut b = store.begin_drain(1).unwrap();
    b.step().unwrap();
    b.abort();
    store.shutdown();
}

/// `NodeId` sanity for the retired list: completing a join retires exactly
/// the source node, once.
#[test]
fn retired_list_tracks_sources() {
    let store = launch();
    preload(&store, 10);
    let src0 = store.directory().node_of(0);
    store.begin_join(0).unwrap().run().unwrap();
    assert_eq!(store.placement().snapshot().retired, vec![src0]);
    let src3 = store.directory().node_of(3);
    store.begin_drain(3).unwrap().run().unwrap();
    assert_eq!(
        store.placement().snapshot().retired,
        vec![src0, src3],
        "retired accumulates across migrations"
    );
    store.shutdown();
}

/// Regression: the KV slot and its two delta copies live on three
/// different columns, so a migration fence can reject a later verb of the
/// op's doorbell batch after an earlier one already landed (first delta
/// copy in a group that has not moved, second in the group that just
/// did). The op retries into a fresh slot; the abandoned one must be
/// rolled back, or it keeps one delta copy with data and the other zero —
/// a divergence no recovery ever repairs, because nothing crashed. Heavy
/// mixed traffic from several clients between every migrator step makes
/// at least one op straddle a fence this way.
#[test]
fn fence_abort_mid_batch_rolls_back_the_abandoned_slot() {
    let store = launch();
    let kvs = preload(&store, 160);
    let mut clients: Vec<_> = (0..4).map(|_| store.client().unwrap()).collect();
    for kind in [ElasticKind::Join, ElasticKind::Drain] {
        let col = if kind == ElasticKind::Join { 1 } else { 3 };
        let mut mig = match kind {
            ElasticKind::Join => store.begin_join(col).unwrap(),
            ElasticKind::Drain => store.begin_drain(col).unwrap(),
        };
        let mut i = 0usize;
        loop {
            let step = mig.step().unwrap();
            if step == ElasticStep::Done {
                break;
            }
            for _ in 0..120 {
                let c = i % clients.len();
                let (k, _) = &kvs[i % kvs.len()];
                match i % 3 {
                    0 => clients[c]
                        .update(k, format!("{kind}-{i}").as_bytes())
                        .unwrap(),
                    1 => clients[c]
                        .insert(format!("{kind}-fresh-{i}").as_bytes(), b"mid-mig")
                        .unwrap(),
                    _ => {
                        clients[c].search(k).unwrap();
                    }
                }
                i += 1;
            }
        }
    }
    for c in &mut clients {
        c.flush_bitmaps().unwrap();
    }
    let report = aceso_core::scrub(&store).unwrap();
    assert!(
        report.is_clean(),
        "a fence-aborted batch left a half-written slot behind: {report:?}"
    );
    store.shutdown();
}
