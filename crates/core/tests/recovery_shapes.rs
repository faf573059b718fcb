//! The block-read contract of MN recovery, one assertion per shape —
//! `commit_shapes.rs` / `read_shapes.rs` for `crates/core/src/recovery.rs`.
//!
//! Every recovery number the repo prints (`sim_recover_index_ms`,
//! `BENCH_PR4.json`'s `recovery` block, table 3's rebuild columns) is the
//! recovery clock's advance over what a recovery posts, so the tuple pinned
//! per shape is what it moved, straight from the [`RecoveryReport`]:
//! `(decode reads, decode blocks' worth of bytes, rblocks scanned, scan
//! RPCs, Block-tier reads, KVs scanned, blocks scanned, KVs routed, KVs won,
//! scan answer bytes, scan lines)` — Index-tier decode (`lblock_net_*`); the
//! new remote blocks the KV scan covers and the `ScanNew` RPCs that scanned
//! them, one per surviving column (`rblock_count`, `scan_rpcs`); the Block
//! tier's decode (`old_lblock_net_ops`); what the Index tier's KV scan judged
//! (`kv_count`, `scan_bytes`: every new block, remote, local and other dead
//! columns', once); how much of it the recovering column keeps — the live
//! KVs routed to it (`kv_routed`) and those whose reapply wrote an index slot
//! (`kv_won`); and what the scan cost — the `ScanNew` answers' encoded bytes
//! and the 64 B lines their handlers read (`rblock_net_bytes` less the
//! requests, `scan_lines`). [`clock_bounds`] then holds every shape's clock
//! to what those counts allow.
//!
//! The contract: a lost block costs the cells of one X-Code chain — its
//! diagonal, or its anti-diagonal where that shares more cells with the
//! chains the array's other lost blocks already read (each cell is read
//! once) — that the chain's own PARITY record says are folded in: `n − 2`
//! reads for a lone closed block, 8 for a column's three at n = 5 and 20
//! for its five at n = 7 where diagonals alone read 9 and 25; fewer when
//! siblings are open or free; one delta read and no chain when the lost block
//! itself is fresh and open. No remote block crosses the wire for the KV
//! scan: each surviving MN scans its own new blocks line by line — line 0 of
//! every slot, the trailer's line of every slot whose header parses (two
//! lines per written 1 KB slot here; the 20 B keys fit line 0) — and answers
//! with each block's id, class, counts and foreign-slot bitmap (17 B for 64
//! slots) and 32 B per KV routed to the recovering column. Only decoded cells
//! are scanned client-side. Two columns down leaves no choice (MDS): the full
//! peel over every surviving cell. Before the planned decode every array
//! cost every surviving cell, `(n − 1) · n` reads, whatever was allocated,
//! encoded or wanted, and every new remote block was fetched again for the
//! scan; those numbers stand beside each shape as `was` (the first five
//! fields; the fourth was whole remote blocks fetched for the scan then, and
//! `fetched` says how many the parent of `ScanNew` still fetched), and `diag`
//! gives the reads each shape cost while every lost cell took its diagonal.
//! The scan's KV counts and blocks scanned did not move when the Index tier
//! began scanning each block as it lands, nor when the surviving MNs began
//! scanning their own, nor when their answers began arriving on the clock.
//!
//! Every shape is read back key by key against a healthy twin store built
//! by the same script, and `scrub` must find every parity equation intact.

use aceso_blockalloc::{CellKind, Role};
use aceso_core::proto::SCAN_NEW_REQ_BYTES;
use aceso_core::{
    recover_mn, scrub, AcesoClient, AcesoConfig, AcesoEngine, AcesoStore, FtEngine, RecoveryReport,
    RecoveryTier,
};
use aceso_erasure::XCode;
use std::collections::BTreeSet;
use std::sync::Arc;

/// `(decode reads, decode blocks, rblocks scanned, scan RPCs, Block-tier
/// reads, KVs scanned, blocks scanned, KVs routed, KVs won, scan answer
/// bytes, scan lines)`, block bytes in units of one block.
type Shape = (
    u64,
    u64,
    usize,
    u64,
    u64,
    usize,
    u64,
    usize,
    usize,
    u64,
    u64,
);

fn shape(store: &AcesoStore, r: &RecoveryReport) -> Shape {
    let bs = store.map.blocks.block_size;
    assert_eq!(r.lblock_net_bytes % bs, 0);
    assert_eq!(r.old_lblock_net_bytes, r.old_lblock_net_ops * bs);
    assert_eq!(r.scan_bytes % bs, 0);
    clock_bounds(store, r);
    (
        r.lblock_net_ops,
        r.lblock_net_bytes / bs,
        r.rblock_count,
        r.scan_rpcs,
        r.old_lblock_net_ops,
        r.kv_count,
        r.scan_bytes / bs,
        r.kv_routed,
        r.kv_won,
        r.rblock_net_bytes - r.scan_rpcs * SCAN_NEW_REQ_BYTES as u64,
        r.scan_lines,
    )
}

/// The Index tier's clock against the report's own counts:
/// - every byte that lands on the replacement — Meta replicas, checkpoint,
///   decode reads, `ScanNew` answers — crosses its one link at line rate,
///   after two RPC round trips (the Meta replica's and the checkpoint's, or
///   a second dead column's replica's where no checkpoint is left);
/// - the answers land behind the decode, never under it, so the `ScanNew`
///   share is at least their wire time;
/// - the slowest survivor's round trip and line reads (at least the mean
///   survivor's) fit inside the tier;
/// - and the tier beats the sequential sum the clock replaced: per read a
///   round trip, per `ScanNew` a round trip and its lines, one after another.
fn clock_bounds(store: &AcesoStore, r: &RecoveryReport) {
    let cost = store.cfg.cost;
    let ms = |bytes: u64| bytes as f64 / cost.node_bw * 1e3;
    let answers = r.rblock_net_bytes - r.scan_rpcs * SCAN_NEW_REQ_BYTES as u64;
    let landed = r.meta_bytes + r.ckpt_bytes + r.lblock_net_bytes + answers;
    let clock = r.index_tier_net_ms();
    let eps = 1e-5; // The clock keeps whole nanoseconds.
    assert!(
        clock + eps >= 2.0 * cost.rpc_rtt_us * 1e-3 + ms(landed),
        "{r:?}"
    );
    assert!(
        r.rblock_net_ms + eps >= ms(answers),
        "answers hidden: {r:?}"
    );
    if r.scan_rpcs > 0 {
        let lines = r.scan_lines.div_ceil(r.scan_rpcs);
        assert!(
            clock + eps >= cost.rpc_rtt_us * 1e-3 + ms(64 * lines),
            "{r:?}"
        );
    }
    let rtts = |n: u64, us: f64| n as f64 * us * 1e-3;
    let sequential = ms(r.meta_bytes + r.ckpt_bytes)
        + rtts(2, cost.rtt_us)
        + ms(r.lblock_net_bytes)
        + rtts(r.lblock_net_ops, cost.rtt_us)
        + rtts(r.scan_rpcs, cost.rpc_rtt_us)
        + ms(r.rblock_net_bytes + 64 * r.scan_lines);
    assert!(clock < sequential, "{clock} ≥ {sequential}: {r:?}");
}

fn key(i: u32) -> Vec<u8> {
    format!("recovery-shape-{i:05}").into_bytes()
}

/// A 1 KB-class value: 64 slots to a block of [`AcesoConfig::small`].
fn value(i: u32) -> Vec<u8> {
    vec![(i % 251) as u8 + 1; 950]
}

/// Keys that fill one stripe array of an `n`-column group, 64 to a block.
fn array_keys(n: u32) -> u32 {
    (n - 2) * n * 64
}

fn launch(n: usize) -> Arc<AcesoStore> {
    AcesoStore::launch(AcesoConfig {
        num_mns: n,
        ..AcesoConfig::small()
    })
    .unwrap()
}

/// A store and its one writer after `keys` inserts; the writer's last block
/// stays open unless `close`.
fn written(n: usize, keys: u32, close: bool) -> (Arc<AcesoStore>, AcesoClient) {
    let store = launch(n);
    let mut w = store.client().unwrap();
    for i in 0..keys {
        w.insert(&key(i), &value(i)).unwrap();
    }
    if close {
        w.close_open_blocks().unwrap();
    }
    (store, w)
}

/// Every one of `keys` reads the same on both stores, and the recovered
/// one's redundancy is whole.
fn same_as_twin(store: &Arc<AcesoStore>, twin: &Arc<AcesoStore>, keys: u32) {
    let (mut got, mut want) = (store.client().unwrap(), twin.client().unwrap());
    for i in 0..keys {
        let healthy = want.search(&key(i)).unwrap();
        assert_eq!(healthy, Some(value(i)), "twin lost key {i}");
        assert_eq!(got.search(&key(i)).unwrap(), healthy, "key {i}");
    }
    let report = scrub(store).unwrap();
    assert!(report.is_clean(), "{:?}", report.mismatches);
    assert!(report.parity_ok > 0);
}

/// What one column's loss must cost, read off the live store's PARITY
/// records before the kill: per array the plan for the column's allocated
/// cells — one chain per lost cell — executed by each chain's own record: a
/// folded cell costs its parity, every other folded cell of the chain not
/// read yet for the array and each delta the record registers for them or
/// for it; an unfolded one costs its registered delta alone. (Holds with one
/// column down and no parity ruled out.)
fn one_planned_chain_per_lost_cell(store: &AcesoStore, col: usize) -> u64 {
    let blocks = store.map.blocks;
    let xcode = XCode::new(store.cfg.num_mns).unwrap();
    let mut reads = 0;
    for array in 0..store.cfg.num_arrays {
        let wanted = data_rows(store, col, array).into_iter().map(|r| (r, col));
        let mut read = BTreeSet::new();
        for step in xcode.plan(|_, c| c == col, wanted).unwrap() {
            let (prow, pcol) = step.parity;
            let pid = blocks.cell_block_id(array, prow) as usize;
            let prec = store.server(pcol).records.lock()[pid].clone();
            let folded = |r: usize| prec.role == Role::Parity && prec.xor_map & (1 << r) != 0;
            let delta = |r: usize| (prec.role == Role::Parity && prec.delta_addr[r] != 0) as u64;
            reads += delta(step.target.0);
            if folded(step.target.0) {
                let others = xcode.chain(prow, pcol).data.iter();
                let others = others.filter(|&&(r, c)| (r, c) != step.target && folded(r));
                let cells = others.map(|&cell| read.insert(cell) as u64 + delta(cell.0));
                reads += 1 + cells.sum::<u64>();
            }
        }
    }
    reads
}

/// The rows of `col` holding a DATA block in `array`.
fn data_rows(store: &AcesoStore, col: usize, array: u64) -> Vec<usize> {
    let server = store.server(col);
    let recs = server.records.lock();
    let rows = 0..store.cfg.num_mns - 2;
    rows.filter(|&r| recs[store.map.blocks.cell_block_id(array, r) as usize].role == Role::Data)
        .collect()
}

/// Where key `i`'s KV lives: `(column, array, row)`.
fn home(store: &Arc<AcesoStore>, i: u32) -> (usize, u64, usize) {
    use aceso_index::{fingerprint, route_hash, RemoteIndex};
    let key = key(i);
    let index_col = (route_hash(&key) % store.cfg.num_mns as u64) as usize;
    let index = RemoteIndex::new(store.directory().node_of(index_col), store.map.index);
    let scan = index
        .scan(&store.cluster.background_client(), &key, fingerprint(&key))
        .unwrap();
    let (col, off) = aceso_core::config::unpack_col(scan.matches[0].atomic.addr48);
    let (block, _) = store.map.blocks.locate(off).unwrap();
    let CellKind::Data { array, row } = store.map.blocks.kind_of(block) else {
        panic!("key {i} is not in a DATA block");
    };
    (col, array, row)
}

/// Kills `col` on the first store of the pair, recovers it in one go, checks
/// the outcome against the twin, and returns what the recovery read.
fn lose(pair: &[(Arc<AcesoStore>, AcesoClient); 2], col: usize, keys: u32) -> Shape {
    let (store, twin) = (&pair[0].0, &pair[1].0);
    let expect = one_planned_chain_per_lost_cell(store, col);
    assert!(store.kill_mn(col));
    let report = recover_mn(store, col).unwrap();
    let got = shape(store, &report);
    assert_eq!(
        got.0 + got.4,
        expect,
        "one planned chain per lost cell, by its own record"
    );
    same_as_twin(store, twin, keys);
    got
}

/// Every block closed, none checkpointed: all of them are *new*, the Index
/// tier decodes the column's three — two diagonals and the anti-diagonal
/// that shares a cell with them, eight reads — and the four survivors scan
/// the other twelve — two lines for each of their 768 slots, 157 KVs routed
/// back. No checkpoint was ever taken, so none arrives (`ckpt_bytes` 0).
/// Was `(20, 20, 12, 12, 0)`: 32 block reads where 14 do; fetched 6 (1.5 MB
/// of blocks where a 5.3 KB answer does); diag 9.
#[test]
fn all_closed_n5() {
    let keys = array_keys(5);
    let pair = [written(5, keys, true), written(5, keys, true)];
    assert_eq!(
        lose(&pair, 1, keys),
        (8, 8, 12, 4, 0, 960, 15, 204, 204, 5260, 1536)
    );
}

/// The same after two checkpoints: every block is *old*, nothing is decoded
/// or scanned before the publish, and the Block tier pays the eight reads.
/// The four `ScanNew`s find nothing new. Was `(0, 0, 0, 0, 20)`; fetched 0;
/// diag 9.
#[test]
fn all_closed_and_checkpointed_n5() {
    let keys = array_keys(5);
    let pair = [written(5, keys, true), written(5, keys, true)];
    for (store, _) in &pair {
        store.checkpoint_tick().unwrap();
        store.checkpoint_tick().unwrap();
    }
    assert_eq!(lose(&pair, 3, keys), (0, 0, 0, 4, 8, 0, 0, 0, 0, 32, 0));
}

/// The engine seam's summary of the same loss counts every tier's bytes,
/// the Block tier's eight old-block reads included (it left them out).
#[test]
fn seam_summary_counts_every_tier() {
    let keys = array_keys(5);
    let pair = [written(5, keys, true), written(5, keys, true)];
    for (store, _) in &pair {
        store.checkpoint_tick().unwrap();
        store.checkpoint_tick().unwrap();
        assert!(store.kill_mn(3));
    }
    let summary = AcesoEngine::new(Arc::clone(&pair[0].0))
        .recover(&[], &[3])
        .unwrap();
    let r = recover_mn(&pair[1].0, 3).unwrap();
    assert_eq!(r.old_lblock_net_bytes, 8 * pair[1].0.map.blocks.block_size);
    let tiers = r.meta_bytes
        + r.ckpt_bytes
        + r.lblock_net_bytes
        + r.rblock_net_bytes
        + r.old_lblock_net_bytes
        + r.parity_net_bytes;
    assert_eq!((summary.bytes, r.net_bytes()), (tiers, tiers));
}

/// Seven columns, five data rows: 20 decode reads where the five diagonals
/// name `(n − 2)² = 25`, and six survivors scan the 30 remote blocks. Was
/// `(42, 42, 30, 30, 0)`; fetched 10; diag 25.
#[test]
fn all_closed_n7() {
    let keys = array_keys(7);
    let pair = [written(7, keys, true), written(7, keys, true)];
    assert_eq!(
        lose(&pair, 4, keys),
        (20, 20, 30, 6, 0, 2240, 35, 327, 327, 9486, 3840)
    );
}

/// The lost block is fresh and still open: nothing of it is in parity, its
/// delta copy *is* the block. One read, no chain. (Array 0 is old and costs
/// the Block tier its eight.) Was `(21, 21, 0, 0, 20)`; fetched 0; diag
/// `(1, …, 9)`.
#[test]
fn lost_cell_in_a_fresh_open_block() {
    let keys = array_keys(5);
    let pair = [written(5, keys, true), written(5, keys, true)];
    let mut pair = pair;
    for (store, w) in &mut pair {
        store.checkpoint_tick().unwrap();
        store.checkpoint_tick().unwrap();
        for i in keys..keys + 8 {
            w.insert(&key(i), &value(i)).unwrap();
        }
    }
    let (col, array, _) = home(&pair[0].0, keys);
    assert_eq!(array, 1, "the open block starts a new array");
    assert_eq!(
        lose(&pair, col, keys + 8),
        (1, 1, 0, 4, 8, 8, 1, 3, 3, 32, 0)
    );
}

/// A *surviving* member of a lost cell's chain is fresh and open: the
/// chain's record says it is not folded in, so it is not read for the
/// decode (it is new, so its own MN scans it). Seven decode reads; the open
/// block's eight empty slots cost one line each. Was `(21, 21, 12, 12, 0)` —
/// the open cell and its delta read, then zero-filled; fetched 7; diag 8.
#[test]
fn unfolded_cell_on_a_surviving_chain_member() {
    let keys = array_keys(5) - 8;
    let pair = [written(5, keys, false), written(5, keys, false)];
    let store = &pair[0].0;
    let (open_col, array, open_row) = home(store, keys - 1);
    assert_eq!(array, 0);
    let xcode = XCode::new(5).unwrap();
    let ((prow, pcol), _) = xcode.parity_cells_for(open_row, open_col);
    let sibling = xcode
        .chain(prow, pcol)
        .data
        .iter()
        .find(|&&(r, _)| r != open_row);
    let &(_, lost) = sibling.unwrap();
    assert_eq!(
        lose(&pair, lost, keys),
        (7, 7, 12, 4, 0, 952, 15, 185, 185, 4940, 1528)
    );
}

/// Array 1 holds row 0 only: a lost cell there has a chain of *free* cells,
/// which cost nothing — its parity cell alone. Nine decode reads for two
/// arrays, array 0's eight and that one. Was `(40, 40, 16, 16, 0)`; fetched
/// 10; diag 10.
#[test]
fn free_cells_cost_nothing() {
    let keys = array_keys(5) + 5 * 64;
    let pair = [written(5, keys, true), written(5, keys, true)];
    let store = &pair[0].0;
    for c in 0..5 {
        assert_eq!(data_rows(store, c, 1), [0]);
    }
    assert_eq!(
        lose(&pair, 2, keys),
        (9, 9, 16, 4, 0, 1280, 20, 245, 245, 6736, 2048)
    );
}

/// Keys rewritten by [`churned`].
const CHURN_KEYS: u32 = 300;

/// A store of two stripe arrays whose one writer has rewritten its keys
/// until fresh blocks ran out: it ends on a *reused* block, held open, and
/// every key holds [`value`] again.
fn churned() -> (Arc<AcesoStore>, AcesoClient) {
    let store = AcesoStore::launch(AcesoConfig {
        num_arrays: 2,
        reclaim_free_ratio: 1.1, // Always allowed to reclaim.
        ..AcesoConfig::small()
    })
    .unwrap();
    let mut w = store.client().unwrap();
    for i in 0..CHURN_KEYS {
        w.insert(&key(i), &value(i + 1)).unwrap();
    }
    for round in (0..10).rev() {
        for i in 0..CHURN_KEYS {
            w.update(&key(i), &value(i + round)).unwrap();
        }
        w.flush_bitmaps().unwrap();
    }
    (store, w)
}

/// The lost block is a *reused* one its writer holds open: its row is
/// folded in — with what the block held before — and a delta carries
/// old ⊕ new. Parity, the chain's cells and the delta all fold: four reads
/// for that cell, three for each of the column's other five, less the two
/// cells a chain shares with one read before it in the same array. Was
/// `(41, 41, 24, 24, 0)`; fetched 12; diag 19. Of 338 KVs routed back only
/// 53 win: the rest are older versions of the same keys.
#[test]
fn lost_cell_in_a_reused_open_block() {
    let pair = [churned(), churned()];
    let store = &pair[0].0;
    let xcode = XCode::new(5).unwrap();
    let reused_open = |col: usize| {
        (0..2u64).any(|array| {
            data_rows(store, col, array).into_iter().any(|row| {
                let ((prow, pcol), _) = xcode.parity_cells_for(row, col);
                let pid = store.map.blocks.cell_block_id(array, prow) as usize;
                let prec = store.server(pcol).records.lock()[pid].clone();
                prec.xor_map & (1 << row) != 0 && prec.delta_addr[row] != 0
            })
        })
    };
    let col = (0..5)
        .find(|&c| reused_open(c))
        .expect("the writer ends on a reused block");
    assert_eq!(
        lose(&pair, col, CHURN_KEYS),
        (17, 17, 24, 4, 0, 1920, 30, 338, 53, 9304, 3072)
    );
}

/// Two columns down at once. The first recovery has next to no choice
/// (MDS): the full peel over the three surviving columns — every cell but
/// `(2, 2)`, whose two parities both sit on dead columns, so no live chain
/// passes through it. The three survivors scan their nine remote new
/// blocks, the second dead column's three are scanned as decoded. Was
/// `(15, 15, 9, 9, 0)`; fetched 1, `(2, 2)`, which no chain landed. The
/// second recovery has one column down and the first one's PARITY cells
/// ruled out until the deferred parity rebuild: one chain per lost cell, an
/// anti-diagonal where the diagonal's parity sits on the first column —
/// sharing a cell with a diagonal, hence eight reads, not nine. Was
/// `(20, 20, 12, 12, 0)` *and wrong*: the full peel took the first column's
/// zeroed parity for data, and key 0 read back absent; fetched 7.
#[test]
fn second_column_dead() {
    let keys = array_keys(5);
    let pair = [written(5, keys, true), written(5, keys, true)];
    let (store, twin) = (&pair[0].0, &pair[1].0);
    assert!(store.kill_mn(1) && store.kill_mn(3));
    let first = recover_mn(store, 1).unwrap();
    assert_eq!(
        shape(store, &first),
        (14, 14, 9, 3, 0, 960, 15, 204, 204, 3921, 1152)
    );
    assert_eq!(first.lblock_count, 3);
    let second = recover_mn(store, 3).unwrap();
    assert_eq!(
        shape(store, &second),
        (8, 8, 12, 4, 0, 960, 15, 187, 187, 5004, 1536)
    );
    same_as_twin(store, twin, keys);
}

/// The right neighbour dies with the column, taking the checkpoint it held:
/// the index starts empty and every block counts as new. Only what crossed
/// the wire is charged — no checkpoint bytes, and both dead columns' Meta
/// replicas, the second naming the blocks of its own to decode (the full
/// peel: both columns' cells). Was charged a whole zero checkpoint it never
/// received, and one replica of the two it read.
#[test]
fn right_neighbour_dead() {
    let keys = array_keys(5);
    let pair = [written(5, keys, true), written(5, keys, true)];
    for (store, _) in &pair {
        store.checkpoint_tick().unwrap();
        store.checkpoint_tick().unwrap();
    }
    let (store, twin) = (&pair[0].0, &pair[1].0);
    let replica = |c: usize| -> u64 {
        let held = store.server(c + 2).meta_replicas.lock()[&c].clone();
        held.values().map(|record| record.len() as u64).sum()
    };
    let replicas = replica(1) + replica(2);
    assert!(store.kill_mn(1) && store.kill_mn(2));
    let first = recover_mn(store, 1).unwrap();
    assert_eq!((first.ckpt_bytes, first.meta_bytes), (0, replicas));
    assert_eq!(
        shape(store, &first),
        (13, 13, 9, 3, 0, 960, 15, 204, 204, 3857, 1152)
    );
    recover_mn(store, 2).unwrap();
    same_as_twin(store, twin, keys);
}

/// Column 3 dies inside column 1's index-only window: column 1 answers
/// reads, its DATA blocks are restored (all were new), its PARITY cells are
/// zeros until its Parity tier. Cell `(0, 3)`'s diagonal parity sits on
/// column 1 — that chain is never chosen, the anti-diagonal serves it. Was
/// `(20, 20, 12, 12, 0)`, right only because the peel happened to solve
/// `(0, 3)` through another equation first; fetched 7.
#[test]
fn second_column_killed_in_the_first_ones_index_only_window() {
    let keys = array_keys(5);
    let pair = [written(5, keys, true), written(5, keys, true)];
    let (store, twin) = (&pair[0].0, &pair[1].0);
    let ((_, shy), _) = XCode::new(5).unwrap().parity_cells_for(0, 3);
    assert_eq!(shy, 1);
    assert!(store.kill_mn(1));
    let mut held = store.begin_recovery(1).unwrap();
    held.run_to(RecoveryTier::Block).unwrap();
    assert_eq!(store.degraded_columns(), [1]);
    assert!(store.kill_mn(3));
    let second = recover_mn(store, 3).unwrap();
    assert_eq!(
        shape(store, &second),
        (8, 8, 12, 4, 0, 960, 15, 187, 187, 5004, 1536)
    );
    held.run().unwrap();
    assert!(store.degraded_columns().is_empty());
    same_as_twin(store, twin, keys);
}
