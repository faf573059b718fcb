//! The block-read contract of MN recovery, one assertion per shape —
//! `commit_shapes.rs` / `read_shapes.rs` for `crates/core/src/recovery.rs`.
//!
//! Every recovery number the repo prints (`sim_recover_index_ms`,
//! `BENCH_PR4.json`'s `recovery` block, table 3's rebuild columns) is the
//! recovery clock's advance over what a recovery posts, so the tuple pinned
//! per shape is what it moved, straight from the [`RecoveryReport`]:
//! `(decode blocks landed, decode blocks' worth of bytes, fold reads,
//! rblocks scanned, scan RPCs, Block-tier blocks landed, KVs scanned, blocks
//! scanned, KVs routed, KVs won, scan answer bytes, scan lines)` — what the
//! Index-tier decode landed on the replacement (`lblock_net_*`); the blocks
//! the survivors that fold chains for it read on other columns, every tier's
//! (`fold_net_ops`); the new remote blocks the KV scan covers and the
//! `ScanNew` RPCs that scanned them, one per surviving column
//! (`rblock_count`, `scan_rpcs`); what the Block tier's decode landed
//! (`old_lblock_net_ops`); what the Index tier's KV scan judged (`kv_count`,
//! `scan_bytes`: every new block, remote, local and other dead columns',
//! once); how much of it the recovering column keeps — the live KVs routed
//! to it (`kv_routed`) and those whose reapply wrote an index slot
//! (`kv_won`); and what the scan cost — the `ScanNew` answers' encoded bytes
//! and the 64 B lines their handlers read (`rblock_net_bytes` less the
//! requests, `scan_lines`). [`clock_bounds`] then holds every shape's clock
//! to what those counts allow, and each shape pins what the clock charged
//! beside its tuple: the Meta and Index tiers (`index_tier_net_ms()`, the
//! benchmark's `sim_recover_index_ms`) and the Block tier
//! (`old_lblock_net_ms`), in whole nanoseconds, as the clock keeps them.
//!
//! The contract: the replacement receives one block per lost cell; the
//! chain's cells are read by its parity holder. A lost cell is decoded
//! over one X-Code chain — its diagonal, or its anti-diagonal where that
//! shares more cells with the chains the array's other lost cells take —
//! whose own PARITY record says which cells are folded in. Its sources are
//! that PARITY cell, the chain's other folded cells and the deltas the
//! record registers for them or for it; a fresh, open lost cell's one source
//! is its delta copy. Two or more sources are one `Fold` at the PARITY
//! cell's holder, where the cell and the record's deltas are local: the
//! replacement receives the answer, one block, and the holder reads the
//! chain's other cells, each on a column of its own. One source is one
//! read. Only a cell an earlier step of the same array decoded (the
//! two-column peel) is XORed in by the replacement itself; no surviving
//! cell lands on it, in any tier. [`Planned`] computes all of that from the
//! live records before the kill and [`shape`] holds the report to it, so a
//! whole closed column at n = 5 lands 3 blocks where it read 8 before the
//! folds, and its three aggregators read 6; its Parity tier folds each
//! chain's three encoded cells at one of their hosts, 2 reads a chain, and
//! a chain of one encoded cell too, so no surviving DATA cell lands on the
//! replacement in any tier (`parity_net_bytes` is one block per chain plus
//! the delta copies it re-materializes). No remote block crosses the wire
//! for the KV scan: each surviving MN scans its own new blocks line by
//! line — line 0 of every slot, the trailer's line of every slot whose
//! header parses (two lines per written 1 KB slot here; the 20 B keys fit
//! line 0) — and answers with each block's id, class, counts and
//! foreign-slot bitmap (17 B for 64 slots) and 32 B per KV routed to the
//! recovering column. Only decoded cells are scanned
//! client-side. Two columns down leaves no choice (MDS): the full peel.
//! Before the planned decode every array cost every surviving cell,
//! `(n − 1) · n` reads, whatever was allocated, encoded or wanted, and every
//! new remote block was fetched again for the scan; those numbers stand
//! beside each shape as `was` (the tuple's first five fields then, before
//! the fold reads joined it; the fourth was whole remote blocks fetched for
//! the scan, and `fetched` says how many the parent of `ScanNew` still
//! fetched), `diag` gives the reads each shape cost while every lost cell took its
//! diagonal, and `unfolded` what it cost before the folds: decode reads and
//! Block-tier reads, each landing one block on the replacement, and the
//! clock. The scan's KV counts and blocks scanned did not move when the
//! Index tier began scanning each block as it lands, nor when the surviving
//! MNs began scanning their own, nor when their answers began arriving on
//! the clock, nor with the folds.
//!
//! The Meta tier reads the column's whole record table off one of its two
//! copies with one READ: a 3 µs round trip and 384 B per block at these
//! 64 KB blocks, free ones too. It was an 8 µs RPC answered with the
//! records the holder had been sent, 1 280 B each, and every Index-tier
//! clock here was 3 483 – 8 678 ns higher for it: `all_closed_n5` 76 554,
//! `all_closed_and_checkpointed_n5` 54 551, `all_closed_n7` 132 590,
//! `lost_cell_in_a_fresh_open_block` 59 233,
//! `unfolded_cell_on_a_surviving_chain_member` 71 268,
//! `free_cells_cost_nothing` 90 194, `lost_cell_in_a_reused_open_block`
//! 133 170, `second_column_dead` 138 906 and 81 162, `right_neighbour_dead`
//! 130 890, `second_column_killed_in_the_first_ones_index_only_window`
//! 81 162.
//!
//! The checkpoint is read out of the right neighbour's Checkpoint Area:
//! its Index Version word rides in the Meta tier's doorbell (0.151 µs
//! chained), and the checkpoint itself, when that word is not 0, is one
//! READ posted without waiting — the first transfer on the replacement's
//! link, with the survivors' `ScanNew` round trips and the aggregators'
//! reads running beside it. It was an 8 µs RPC settled before anything
//! else started, and every Index-tier clock here was higher for it: by
//! 7 854 ns where no checkpoint existed — `all_closed_n5` 73 071,
//! `all_closed_n7` 128 884, `unfolded_cell_on_a_surviving_chain_member`
//! 67 785, `free_cells_cost_nothing` 85 783,
//! `lost_cell_in_a_reused_open_block` 124 492, `second_column_dead`
//! 131 940 and 77 679,
//! `second_column_killed_in_the_first_ones_index_only_window` 77 679 —, by
//! 4 854 ns where one arrived ahead of a single read
//! (`lost_cell_in_a_fresh_open_block` 55 564) and by 12 856 ns where it
//! now hides the `ScanNew` round trips (`all_closed_and_checkpointed_n5`
//! 51 068). `right_neighbour_dead` has none to read and did not move.
//!
//! Every shape is read back key by key against a healthy twin store built
//! by the same script, and `scrub` must find every parity equation intact.

use aceso_blockalloc::{BlockRecord, CellKind, Role, RECORD_TABLES};
use aceso_core::proto::SCAN_NEW_REQ_BYTES;
use aceso_core::{
    recover_mn, scrub, AcesoClient, AcesoConfig, AcesoEngine, AcesoStore, FtEngine, RecoveryReport,
    RecoveryTier,
};
use aceso_erasure::XCode;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// `(decode blocks landed, decode bytes landed, fold reads, rblocks
/// scanned, scan RPCs, Block-tier blocks landed, KVs scanned, blocks
/// scanned, KVs routed, KVs won, scan answer bytes, scan lines)`, block
/// bytes in units of one block.
type Shape = (
    u64,
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

/// `(index_tier_net_ms, old_lblock_net_ms)` in whole nanoseconds: what the
/// recovery clock charged the Meta and Index tiers, and the Block tier.
type Clock = (u64, u64);

/// The report's shape, held to what `planned` says the recovery must move
/// and to [`clock_bounds`].
fn shape(store: &AcesoStore, r: &RecoveryReport, planned: &Planned) -> (Shape, Clock) {
    let bs = store.map.blocks.block_size;
    assert_eq!(r.lblock_net_bytes, r.lblock_net_ops * bs);
    assert_eq!(r.old_lblock_net_bytes, r.old_lblock_net_ops * bs);
    assert_eq!(r.fold_net_bytes, r.fold_net_ops * bs);
    assert_eq!(r.scan_bytes % bs, 0);
    assert_eq!(
        (r.lblock_net_ops + r.old_lblock_net_ops, r.fold_net_ops),
        (planned.landed, planned.folds.values().sum()),
        "one block landed per lost cell with a source, the chain read by its parity holder"
    );
    assert_eq!(
        r.parity_net_bytes,
        planned.parity_landed * bs,
        "per rebuilt chain one fold answer, and the delta copies"
    );
    clock_bounds(store, r, planned);
    let ns = |ms: f64| (ms * 1e6).round() as u64;
    let clock = (ns(r.index_tier_net_ms()), ns(r.old_lblock_net_ms));
    let shape = (
        r.lblock_net_ops,
        r.lblock_net_bytes / bs,
        r.fold_net_ops,
        r.rblock_count,
        r.scan_rpcs,
        r.old_lblock_net_ops,
        r.kv_count,
        r.scan_bytes / bs,
        r.kv_routed,
        r.kv_won,
        r.rblock_net_bytes - r.scan_rpcs * SCAN_NEW_REQ_BYTES as u64,
        r.scan_lines,
    );
    (shape, clock)
}

/// The Index tier's clock against the report's own counts:
/// - every byte that lands on the replacement — record tables, checkpoint,
///   decode reads, `ScanNew` answers — crosses its one link at line rate,
///   after two round trips (the Meta doorbell's, and the checkpoint's READ,
///   or where no checkpoint is left a fold's RPC or a second dead column's
///   table's READ);
/// - the answers land behind the decode, never under it, so the `ScanNew`
///   share is at least their wire time;
/// - the slowest survivor's round trip and line reads (at least the mean
///   survivor's) fit inside the tier;
/// - the busiest aggregator's reads on other columns fit inside the tiers
///   that decode, at line rate on its one link;
/// - and the tier beats the sequential sum the clock replaced: per landed
///   block an RPC round trip and its aggregator's doorbell, every fold read,
///   per `ScanNew` a round trip and its lines, one after another, behind
///   the Meta doorbell and the checkpoint's READ where one arrives.
fn clock_bounds(store: &AcesoStore, r: &RecoveryReport, planned: &Planned) {
    let cost = store.cfg.cost;
    let ms = |bytes: u64| bytes as f64 / cost.node_bw * 1e3;
    let answers = r.rblock_net_bytes - r.scan_rpcs * SCAN_NEW_REQ_BYTES as u64;
    let landed = r.meta_bytes + r.ckpt_bytes + r.lblock_net_bytes + answers;
    let clock = r.index_tier_net_ms();
    let eps = 1e-5; // The clock keeps whole nanoseconds.
    assert!(
        clock + eps >= 2.0 * cost.rtt_us * 1e-3 + ms(landed),
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
    let busiest = planned.decode_folds.values().max().copied().unwrap_or(0);
    let decoding = clock + r.old_lblock_net_ms;
    let bs = store.map.blocks.block_size;
    assert!(decoding + eps >= ms(busiest * bs), "{r:?}");
    let rtts = |n: u64, us: f64| n as f64 * us * 1e-3;
    let read_ckpt = u64::from(r.ckpt_bytes > 8);
    let sequential = ms(r.meta_bytes + r.ckpt_bytes)
        + rtts(1 + read_ckpt, cost.rtt_us)
        + ms(r.lblock_net_bytes + r.fold_net_bytes)
        + rtts(r.lblock_net_ops, cost.rpc_rtt_us + cost.rtt_us)
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

/// What a recovery must move, read off the live PARITY records before it
/// runs: blocks landed on the replacement, and per aggregator — the
/// survivor folding a chain — the blocks it reads on other columns, for the
/// decode and in all.
#[derive(Default)]
struct Planned {
    landed: u64,
    parity_landed: u64,
    decode_folds: BTreeMap<usize, u64>,
    folds: BTreeMap<usize, u64>,
}

impl Planned {
    /// One column's loss: per array the plan for its allocated cells — one
    /// chain per lost cell — then the rebuild of its parity.
    fn one_column(store: &AcesoStore, col: usize) -> Self {
        let mut planned = Planned::default();
        for array in 0..store.cfg.num_arrays {
            let wanted = data_rows(store, col, array).into_iter().map(|r| (r, col));
            planned.decode(store, array, wanted, |_, c| c == col);
        }
        planned.parity(store, col);
        planned
    }

    /// The decode of `wanted` in `array`, executed by each chain's own
    /// record: a folded target's sources are its parity, every other folded
    /// cell of the chain not decoded earlier in the array and each delta the
    /// record registers for them or for it; an unfolded target's, its
    /// registered delta. A cell with a source lands one block; one with two
    /// or more is a fold whose chain cells are read by the parity holder.
    fn decode(
        &mut self,
        store: &AcesoStore,
        array: u64,
        wanted: impl IntoIterator<Item = (usize, usize)>,
        ruled_out: impl Fn(usize, usize) -> bool,
    ) {
        let xcode = XCode::new(store.cfg.num_mns).unwrap();
        let mut decoded = BTreeSet::new();
        for step in xcode.plan(ruled_out, wanted).unwrap() {
            let (prow, pcol) = step.parity;
            let prec = parity_record(store, array, prow, pcol);
            let folded = |r: usize| prec.as_ref().is_some_and(|p| p.xor_map & (1 << r) != 0);
            let delta = |r: usize| prec.as_ref().is_some_and(|p| p.delta_addr[r] != 0) as u64;
            let (mut sources, mut reads) = (delta(step.target.0), 0);
            if folded(step.target.0) {
                let others = xcode.chain(prow, pcol).data.iter();
                for &cell in others.filter(|&&(r, c)| (r, c) != step.target && folded(r)) {
                    reads += !decoded.contains(&cell) as u64;
                    sources += delta(cell.0);
                }
                sources += 1 + reads;
            }
            decoded.insert(step.target);
            self.landed += (sources > 0) as u64;
            if sources > 1 {
                *self.decode_folds.entry(pcol).or_default() += reads;
                *self.folds.entry(pcol).or_default() += reads;
            }
        }
    }

    /// The rebuild of `col`'s PARITY cells: each chain with an encoded cell
    /// is folded at the first one's host — one block lands, and no DATA cell
    /// — and each delta copy its record registers lands once, read from the
    /// cell's other parity column where that one registers it too.
    fn parity(&mut self, store: &AcesoStore, col: usize) {
        let xcode = XCode::new(store.cfg.num_mns).unwrap();
        for array in 0..store.cfg.num_arrays {
            for prow in [xcode.diag_row(), xcode.anti_row()] {
                let Some(prec) = parity_record(store, array, prow, col) else {
                    continue;
                };
                let chain = &xcode.chain(prow, col).data;
                let encoded = chain.iter().filter(|&&(r, _)| prec.xor_map & (1 << r) != 0);
                if let [first, rest @ ..] = &encoded.collect::<Vec<_>>()[..] {
                    self.parity_landed += 1;
                    *self.folds.entry(first.1).or_default() += rest.len() as u64;
                }
                for &(r, c) in chain.iter().filter(|&&(r, _)| prec.delta_addr[r] != 0) {
                    let (diag, anti) = xcode.parity_cells_for(r, c);
                    let (orow, ocol) = if diag == (prow, col) { anti } else { diag };
                    let other = parity_record(store, array, orow, ocol);
                    self.parity_landed += other.is_some_and(|p| p.delta_addr[r] != 0) as u64;
                }
            }
        }
    }
}

/// The record of PARITY cell `(prow, pcol)` of `array`, if it is allocated.
fn parity_record(store: &AcesoStore, array: u64, prow: usize, pcol: usize) -> Option<BlockRecord> {
    let pid = store.map.blocks.cell_block_id(array, prow);
    let prec = store.server(pcol).records.lock().get(pid);
    (prec.role == Role::Parity).then_some(prec)
}

/// The rows of `col` holding a DATA block in `array`.
fn data_rows(store: &AcesoStore, col: usize, array: u64) -> Vec<usize> {
    let server = store.server(col);
    let recs = server.records.lock();
    let rows = 0..store.cfg.num_mns - 2;
    rows.filter(|&r| recs.get(store.map.blocks.cell_block_id(array, r)).role == Role::Data)
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
/// the outcome against the twin, and returns what the recovery moved.
fn lose(pair: &[(Arc<AcesoStore>, AcesoClient); 2], col: usize, keys: u32) -> (Shape, Clock) {
    let (store, twin) = (&pair[0].0, &pair[1].0);
    let planned = Planned::one_column(store, col);
    assert!(store.kill_mn(col));
    let report = recover_mn(store, col).unwrap();
    let got = shape(store, &report, &planned);
    same_as_twin(store, twin, keys);
    got
}

/// Every block closed, none checkpointed: all of them are *new*, the Index
/// tier decodes the column's three — two diagonals and the anti-diagonal
/// that shares a cell with them, three folds — and the four survivors scan
/// the other twelve — two lines for each of their 768 slots, 157 KVs routed
/// back. No checkpoint was ever taken: only its Index Version word, 0,
/// arrives (`ckpt_bytes` 8).
/// Was `(20, 20, 12, 12, 0)`: 32 block reads where 14 do; fetched 6 (1.5 MB
/// of blocks where a 5.3 KB answer does); diag 9.
/// Unfolded: 8 decode reads; clock `(98_846, 0)`. Folded, each lost
/// cell lands one block and its chain's two other cells are read by its
/// parity holder — three different survivors, two reads each.
#[test]
fn all_closed_n5() {
    let keys = array_keys(5);
    let pair = [written(5, keys, true), written(5, keys, true)];
    let aggregators = Planned::one_column(&pair[0].0, 1).decode_folds;
    assert_eq!(aggregators.values().collect::<Vec<_>>(), [&2; 3]);
    assert_eq!(
        lose(&pair, 1, keys),
        (
            (3, 3, 10, 12, 4, 0, 960, 15, 204, 204, 5260, 1536),
            (65217, 0)
        )
    );
}

/// The same after two checkpoints: every block is *old*, nothing is decoded
/// or scanned before the publish, and the Block tier pays the three folds.
/// The four `ScanNew`s find nothing new. Was `(0, 0, 0, 0, 20)`; fetched 0;
/// diag 9.
/// Unfolded: 8 Block-tier reads; clock `(54_551, 80_034)`.
#[test]
fn all_closed_and_checkpointed_n5() {
    let keys = array_keys(5);
    let pair = [written(5, keys, true), written(5, keys, true)];
    for (store, _) in &pair {
        store.checkpoint_tick().unwrap();
        store.checkpoint_tick().unwrap();
    }
    assert_eq!(
        lose(&pair, 3, keys),
        ((0, 0, 10, 0, 4, 3, 0, 0, 0, 0, 32, 0), (38212, 57742))
    );
}

/// The engine seam's summary of the same loss counts every tier's bytes,
/// the Block tier's old blocks included (it left them out) and the folds'
/// reads on the survivors: three blocks land where eight did unfolded.
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
    let bs = pair[1].0.map.blocks.block_size;
    assert_eq!(
        (r.old_lblock_net_bytes, r.fold_net_bytes),
        (3 * bs, 10 * bs)
    );
    let tiers = r.meta_bytes
        + r.ckpt_bytes
        + r.lblock_net_bytes
        + r.rblock_net_bytes
        + r.old_lblock_net_bytes
        + r.parity_net_bytes
        + r.fold_net_bytes;
    assert_eq!((summary.bytes, r.net_bytes()), (tiers, tiers));
}

/// Seven columns, five data rows: five folds of a parity and four cells
/// each (the chain rule's 20 distinct cells where the five diagonals name
/// `(n − 2)² = 25`), and six survivors scan the 30 remote blocks. Was
/// `(42, 42, 30, 30, 0)`; fetched 10; diag 25.
/// Unfolded: 20 decode reads; clock `(216_347, 0)`.
#[test]
fn all_closed_n7() {
    let keys = array_keys(7);
    let pair = [written(7, keys, true), written(7, keys, true)];
    assert_eq!(
        lose(&pair, 4, keys),
        (
            (5, 5, 28, 30, 6, 0, 2240, 35, 327, 327, 9486, 3840),
            (121030, 0)
        )
    );
}

/// The lost block is fresh and still open: nothing of it is in parity, its
/// delta copy *is* the block. One read, no chain. (Array 0 is old and costs
/// the Block tier its three folds.) Was `(21, 21, 0, 0, 20)`; fetched 0; diag
/// `(1, …, 9)`.
/// Unfolded: 1 decode read, 8 Block-tier reads; clock `(59_233, 80_034)`:
/// the delta copy is still one read.
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
        ((1, 1, 10, 0, 4, 3, 8, 1, 3, 3, 32, 0), (50710, 57742))
    );
}

/// A *surviving* member of a lost cell's chain is fresh and open: the
/// chain's record says it is not folded in, so it is not read for the
/// decode (it is new, so its own MN scans it). Three folds, that chain's
/// of a parity and one cell; the open
/// block's eight empty slots cost one line each. Was `(21, 21, 12, 12, 0)` —
/// the open cell and its delta read, then zero-filled; fetched 7; diag 8.
/// Unfolded: 7 decode reads; clock `(89_152, 0)`.
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
        (
            (3, 3, 9, 12, 4, 0, 952, 15, 185, 185, 4940, 1528),
            (59931, 0)
        )
    );
}

/// Array 1 holds row 0 only: a lost cell there has a chain of *free* cells,
/// which cost nothing — its parity cell alone, one read. Four blocks land
/// for two arrays, array 0's three folds and that read. Was `(40, 40, 16, 16, 0)`; fetched
/// 10; diag 10.
/// Unfolded: 9 decode reads; clock `(112_486, 0)`: the lone cell's bare
/// parity is still one read.
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
        (
            (4, 4, 10, 16, 4, 0, 1280, 20, 245, 245, 6736, 2048),
            (77929, 0)
        )
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
/// old ⊕ new. Parity, the chain's cells and the delta all fold: one fold
/// per lost cell, six in all, the delta local to the parity holder. Was
/// `(41, 41, 24, 24, 0)`; fetched 12; diag 19. Of 338 KVs routed back only
/// 53 win: the rest are older versions of the same keys.
/// Unfolded: 17 decode reads; clock `(192_639, 0)`.
#[test]
fn lost_cell_in_a_reused_open_block() {
    let pair = [churned(), churned()];
    let store = &pair[0].0;
    let xcode = XCode::new(5).unwrap();
    let reused_open = |col: usize| {
        (0..2u64).any(|array| {
            data_rows(store, col, array).into_iter().any(|row| {
                let ((prow, pcol), _) = xcode.parity_cells_for(row, col);
                let pid = store.map.blocks.cell_block_id(array, prow);
                let prec = store.server(pcol).records.lock().get(pid);
                prec.xor_map & (1 << row) != 0 && prec.delta_addr[row] != 0
            })
        })
    };
    let col = (0..5)
        .find(|&c| reused_open(c))
        .expect("the writer ends on a reused block");
    assert_eq!(
        lose(&pair, col, CHURN_KEYS),
        (
            (6, 6, 20, 24, 4, 0, 1920, 30, 338, 53, 9304, 3072),
            (116638, 0)
        )
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
/// sharing a cell with a diagonal (eight distinct cells, not nine, before
/// the folds). Was
/// `(20, 20, 12, 12, 0)` *and wrong*: the full peel took the first column's
/// zeroed parity for data, and key 0 read back absent; fetched 7.
/// Unfolded: 14 and 8 decode reads; clocks `(166_585, 0)` and
/// `(98_809, 0)`. Folded, the first recovery XORs in the cells its own
/// earlier steps decoded; the second one's Parity tier rebuilds both
/// columns, four fold reads each.
#[test]
fn second_column_dead() {
    let keys = array_keys(5);
    let pair = [written(5, keys, true), written(5, keys, true)];
    let (store, twin) = (&pair[0].0, &pair[1].0);
    let mut planned = [Planned::default(), Planned::default()];
    let peeled = data_rows(store, 1, 0).into_iter().map(|r| (r, 1));
    let peeled = peeled.chain((0..3).map(|r| (r, 3)));
    planned[0].decode(store, 0, peeled, |_, c| c == 1 || c == 3);
    let second_col = data_rows(store, 3, 0).into_iter().map(|r| (r, 3));
    planned[1].decode(store, 0, second_col, |r, c| c == 3 || (r >= 3 && c == 1));
    planned[1].parity(store, 1);
    planned[1].parity(store, 3);
    assert!(store.kill_mn(1) && store.kill_mn(3));
    let first = recover_mn(store, 1).unwrap();
    assert_eq!(
        shape(store, &first, &planned[0]),
        (
            (6, 6, 10, 9, 3, 0, 960, 15, 204, 204, 3921, 1152),
            (124086, 0)
        )
    );
    assert_eq!(first.lblock_count, 3);
    let second = recover_mn(store, 3).unwrap();
    assert_eq!(
        shape(store, &second, &planned[1]),
        (
            (3, 3, 14, 12, 4, 0, 960, 15, 187, 187, 5004, 1536),
            (69825, 0)
        )
    );
    same_as_twin(store, twin, keys);
}

/// The right neighbour dies with the column, taking the checkpoint it held:
/// the index starts empty and every block counts as new. Only what crossed
/// the wire is charged — no checkpoint bytes, and both dead columns' record
/// tables, the second naming the blocks of its own to decode (the full
/// peel: both columns' cells). Was charged a whole zero checkpoint it never
/// received, and one replica of the two it read.
/// Unfolded: 13 decode reads; clock `(148_923, 0)`.
#[test]
fn right_neighbour_dead() {
    let keys = array_keys(5);
    let pair = [written(5, keys, true), written(5, keys, true)];
    for (store, _) in &pair {
        store.checkpoint_tick().unwrap();
        store.checkpoint_tick().unwrap();
    }
    let (store, twin) = (&pair[0].0, &pair[1].0);
    // A whole record table for each dead column.
    let replicas = 2 * store.map.blocks.table_size();
    let mut planned = Planned::default();
    let peeled = data_rows(store, 1, 0).into_iter().map(|r| (r, 1));
    let peeled = peeled.chain((0..3).map(|r| (r, 2)));
    planned.decode(store, 0, peeled, |_, c| c == 1 || c == 2);
    assert!(store.kill_mn(1) && store.kill_mn(2));
    let first = recover_mn(store, 1).unwrap();
    assert_eq!((first.ckpt_bytes, first.meta_bytes), (0, replicas));
    assert_eq!(
        shape(store, &first, &planned),
        (
            (6, 6, 8, 9, 3, 0, 960, 15, 204, 204, 3857, 1152),
            (123924, 0)
        )
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
/// Unfolded: 8 decode reads; clock `(98_809, 0)`.
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
    let mut planned = Planned::default();
    let lost = data_rows(store, 3, 0).into_iter().map(|r| (r, 3));
    planned.decode(store, 0, lost, |r, c| c == 3 || (r >= 3 && c == 1));
    planned.parity(store, 3);
    assert!(store.kill_mn(3));
    let second = recover_mn(store, 3).unwrap();
    assert_eq!(
        shape(store, &second, &planned),
        (
            (3, 3, 10, 12, 4, 0, 960, 15, 187, 187, 5004, 1536),
            (69825, 0)
        )
    );
    held.run().unwrap();
    assert!(store.degraded_columns().is_empty());
    same_as_twin(store, twin, keys);
}

/// A survivor dies right after the first chain it folds for the Index tier,
/// and a later step of the same array has a cell of its column to fold: the
/// tier fails typed, the replacement is retired and the column stays dead.
/// (A survivor that dies between arrays is routed around: the next array's
/// plan counts it lost.) One `recover` of both columns then restores a store
/// that reads like its twin and scrubs clean.
#[test]
fn aggregator_killed_by_its_first_fold() {
    use aceso_core::StoreError;
    use aceso_rdma::{FaultAction, FaultPlan, FaultRule, RdmaError, VerbKind};
    let keys = array_keys(5);
    let pair = [written(5, keys, true), written(5, keys, true)];
    let (store, twin) = (&pair[0].0, &pair[1].0);
    let (col, xcode) = (1, XCode::new(5).unwrap());
    let steps = xcode
        .plan(|_, c| c == col, (0..3).map(|r| (r, col)))
        .unwrap();
    let read_later = |i: usize, a: usize| {
        let later = steps[i + 1..]
            .iter()
            .map(|s| xcode.chain(s.parity.0, s.parity.1));
        later
            .flat_map(|chain| chain.data.iter())
            .any(|&(_, c)| c == a)
    };
    let aggregator = (0..steps.len())
        .map(|i| (i, steps[i].parity.1))
        .find(|&(i, a)| read_later(i, a))
        .map(|(_, a)| a)
        .unwrap();
    let live = || {
        store
            .cluster
            .nodes()
            .iter()
            .filter(|n| n.is_alive())
            .count()
    };
    assert!(store.kill_mn(col));
    let mut recovery = store.begin_recovery(col).unwrap();
    assert_eq!(recovery.step().unwrap(), RecoveryTier::Meta);
    // Before its first fold the aggregator answers its `ScanNew` (the stripe
    // book reads its records one-sided, and the right neighbour's
    // Checkpoint Area is read one-sided too).
    let node = store.directory().node_of(aggregator);
    let kill = FaultRule::new(FaultAction::KillNode)
        .on_kind(VerbKind::Rpc)
        .after(1);
    let plan = FaultPlan::with_rules(vec![kill]);
    store
        .cluster
        .node(node)
        .unwrap()
        .install_fault_plan(Arc::clone(&plan));
    let err = recovery.step().unwrap_err();
    assert!(
        matches!(err, StoreError::Rdma(RdmaError::NodeUnreachable(n)) if n == node),
        "{err:?}"
    );
    let fired = plan.fired();
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].site.len, 8 * 3, "a fold of a parity and two cells");
    assert_eq!(recovery.tier(), RecoveryTier::Index);
    assert!(!store.col_alive(col) && !store.col_alive(aggregator));
    assert_eq!(live(), 3, "the replacement is retired");
    drop(recovery);
    store.recover(&[], &[col, aggregator]).unwrap();
    assert_eq!(live(), 5);
    same_as_twin(store, twin, keys);
}

/// Folds restore every lost cell of a random stripe to what the same plan
/// XORs straight out of the regions, and that is the cell's content: random
/// contents, folded and unfolded chains, pending deltas, free cells, one and
/// two columns down. Every cell is old to the checkpoint, so the Block tier
/// decodes them; each recovery is judged before the next.
#[test]
fn folds_restore_what_the_plan_xors() {
    use aceso_erasure::xor_into;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut folds = 0;
    for seed in 0..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let store = launch(5);
        store.checkpoint_tick().unwrap();
        store.checkpoint_tick().unwrap();
        let (blocks, n, xcode) = (store.map.blocks, 5, XCode::new(5).unwrap());
        let bs = blocks.block_size as usize;
        let off = |array: u64, r: usize| blocks.block_offset(blocks.cell_block_id(array, r));
        // Array 0's data cells, four in five written, each with its pending
        // delta: none (closed), the cell itself (open) or random (reused).
        let (mut content, mut delta, mut recs) = (BTreeMap::new(), BTreeMap::new(), BTreeMap::new());
        for (r, c) in (0..n - 2).flat_map(|r| (0..n).map(move |c| (r, c))) {
            let mut bytes = vec![0; bs];
            if rng.gen_bool(0.8) {
                rng.fill_bytes(&mut bytes);
                let mut rec = BlockRecord::free();
                (rec.role, rec.index_version) = (Role::Data, 1);
                recs.insert((r, c), rec);
                store.server(c).node.region.write(off(0, r), &bytes).unwrap();
                if rng.gen_bool(2.0 / 3.0) {
                    let mut pending = bytes.clone();
                    if rng.gen_bool(0.5) {
                        rng.fill_bytes(&mut pending);
                    }
                    delta.insert((r, c), pending);
                }
            }
            content.insert((r, c), bytes);
        }
        // Each chain's record: a cell whose delta is still pending there is
        // unfolded if the delta is the cell, and either way a chain may
        // have encoded its delta already (folded, none registered).
        for (which, prow) in [n - 2, n - 1].into_iter().enumerate() {
            for pcol in 0..n {
                let server = store.server(pcol);
                let mut parity = vec![0; bs];
                let mut rec = BlockRecord::free();
                rec.role = Role::Parity;
                for &(r, c) in &xcode.chain(prow, pcol).data {
                    let written = recs.contains_key(&(r, c));
                    let pending = delta.get(&(r, c)).filter(|_| rng.gen_bool(0.7));
                    if written && pending.is_none_or(|d| *d != content[&(r, c)]) {
                        rec.xor_map |= 1 << r;
                        xor_into(&mut parity, &content[&(r, c)]);
                        pending.inspect(|d| xor_into(&mut parity, d));
                    }
                    if let Some(d) = pending {
                        let doff = off(1 + which as u64, r);
                        server.node.region.write(doff, d).unwrap();
                        rec.delta_addr[r] = aceso_core::config::pack_col(pcol, doff);
                    }
                }
                server.node.region.write(off(0, prow), &parity).unwrap();
                recs.insert((prow, pcol), rec);
            }
        }
        // Each record in its column's Meta Area, where the servers and the
        // stripe book read it, and in the two copies the Meta tier restores
        // it from.
        for ((r, c), rec) in recs {
            let bytes = rec.encode(blocks.block_size);
            for copy in 0..RECORD_TABLES {
                let at = blocks.record_offset_in(copy, blocks.cell_block_id(0, r));
                store.server((c + copy) % n).node.region.write(at, &bytes).unwrap();
            }
        }

        let first = rng.gen_range(0..n);
        let second = (first + rng.gen_range(1..n)) % n;
        let dead = if rng.gen_bool(0.5) {
            vec![first]
        } else {
            vec![first, second]
        };
        for &c in &dead {
            assert!(store.kill_mn(c));
        }
        for (i, &col) in dead.iter().enumerate() {
            // The reference: the recovery's plan, XORed out of the regions,
            // with the first column's PARITY ruled out until its rebuild.
            let ruled_out = |r: usize, c: usize| match i {
                0 => dead.contains(&c),
                _ => c == col || (r >= n - 2 && c == first),
            };
            let wanted = data_rows(&store, col, 0).into_iter().map(|r| (r, col));
            let mut want: BTreeMap<(usize, usize), Vec<u8>> = BTreeMap::new();
            for step in xcode.plan(ruled_out, wanted).unwrap() {
                let (prow, pcol) = step.parity;
                let prec = parity_record(&store, 0, prow, pcol).unwrap();
                let region = &store.server(pcol).node.region;
                let folded = |r: usize| prec.xor_map & (1 << r) != 0;
                let mut acc = vec![0; bs];
                let mut chain = vec![step.target];
                if folded(step.target.0) {
                    xor_into(&mut acc, &region.read_vec(off(0, prow), bs).unwrap());
                    let others = xcode.chain(prow, pcol).data.iter().copied();
                    chain.extend(others.filter(|&(r, c)| (r, c) != step.target && folded(r)));
                }
                for &(r, c) in &chain {
                    let read = |c: usize, off: u64| store.server(c).node.region.read_vec(off, bs);
                    if (r, c) != step.target {
                        let cell = want.get(&(r, c)).cloned();
                        xor_into(
                            &mut acc,
                            &cell.unwrap_or_else(|| read(c, off(0, r)).unwrap()),
                        );
                    }
                    if prec.delta_addr[r] != 0 {
                        let (_, doff) = aceso_core::config::unpack_col(prec.delta_addr[r]);
                        xor_into(&mut acc, &read(pcol, doff).unwrap());
                    }
                }
                want.insert(step.target, acc);
            }
            let report = recover_mn(&store, col).unwrap();
            folds += report.fold_net_ops;
            for r in data_rows(&store, col, 0) {
                let got = store
                    .server(col)
                    .node
                    .region
                    .read_vec(off(0, r), bs)
                    .unwrap();
                assert!(
                    got == want[&(r, col)],
                    "seed {seed}: ({r}, {col}) is not the plan's XOR"
                );
                assert!(
                    got == content[&(r, col)],
                    "seed {seed}: ({r}, {col}) is not its content"
                );
            }
        }
    }
    assert!(folds > 0, "no chain was folded");
}
