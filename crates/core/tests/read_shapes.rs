//! The round-trip contract of the read path, one assertion per SEARCH
//! shape — `commit_shapes.rs` for reads.
//!
//! Every shape below is one route through `crates/core/src/client/search.rs`:
//! whether the index cache answered, how many fingerprint candidates the
//! bucket scan left, and — when the KV's block is lost — what the
//! parity-chain reconstruction adds. The tuple pinned per shape is
//! `(rtts, verbs, rpcs, batches, read_bytes)` straight from the op's
//! [`OpRecord`], the record the cost model and the repo benchmark's
//! `degraded_sim_p50_us` are computed from.
//!
//! The degraded contract: no MN CPU (`rpcs == 0`), and at most two doorbell
//! batches beyond the same SEARCH on a healthy store — the chain's doorbell
//! (the parity record's 160 B head, the parity range and the chain's two
//! other cells, 4 verbs) and, only when a DELTA block is registered, a
//! second one for it. Every degraded shape runs the same SEARCH against a
//! healthy twin store built by the same script, and the two must return
//! the same value.

use aceso_blockalloc::CellKind;
use aceso_core::client::CrashPoint;
use aceso_core::config::unpack_col;
use aceso_core::{recover_cn, AcesoClient, AcesoConfig, AcesoStore, RecoveryTier, StoreError};
use aceso_erasure::XCode;
use aceso_index::{fingerprint, route_hash, RemoteIndex, SlotRef};
use aceso_rdma::{OpRecord, RdmaError};
use std::ops::Range;
use std::sync::Arc;

/// `(rtts, verbs, rpcs, batches, read_bytes)`.
type Shape = (u32, u32, u32, u32, u32);

fn shape(r: &OpRecord) -> Shape {
    (r.rtts, r.verbs, r.rpcs, r.batches, r.read_bytes)
}

/// One two-bucket scan: two 256 B combined buckets in one doorbell.
const SCAN: u32 = 512;
/// A KV of [`value`]'s size class (16 × 64 B), read whole.
const KV: u32 = 1024;
/// The chain doorbell: record head + parity range + two sibling ranges.
const CHAIN: u32 = 160 + 3 * KV;

/// SEARCH without a cache entry, one fingerprint candidate: bucket scan,
/// KV read.
const COLD: Shape = (2, 3, 0, 1, SCAN + KV);
/// SEARCH on a current cache entry: KV read and slot re-read in one batch.
const WARM: Shape = (1, 2, 0, 1, KV + 16);

/// Enough 1 KB-class keys to fill and close every block of stripe array 0
/// (15 data blocks of 64 slots) and open array 1.
const KEYS: u32 = 1200;

fn key(i: u32) -> Vec<u8> {
    format!("read-shape-{i:05}").into_bytes()
}

fn value(i: u32) -> Vec<u8> {
    vec![(i % 251) as u8 + 1; 950]
}

/// A store holding [`KEYS`] keys in closed, encoded, checkpointed blocks.
fn populated() -> Arc<AcesoStore> {
    let store = AcesoStore::launch(AcesoConfig::small()).unwrap();
    let mut c = store.client().unwrap();
    for i in 0..KEYS {
        c.insert(&key(i), &value(i)).unwrap();
    }
    c.close_open_blocks().unwrap();
    // Only closed, checkpointed blocks stay lost across the Index tier.
    for _ in 0..2 {
        store.checkpoint_tick().unwrap();
    }
    store
}

/// The fingerprint candidates `key`'s bucket scan sees.
fn candidates(store: &Arc<AcesoStore>, key: &[u8]) -> (usize, Vec<SlotRef>) {
    let index_col = (route_hash(key) % store.cfg.num_mns as u64) as usize;
    let index = RemoteIndex::new(store.directory().node_of(index_col), store.map.index);
    let dm = store.cluster.background_client();
    let scan = index.scan(&dm, key, fingerprint(key)).unwrap();
    (index_col, scan.matches)
}

/// Where a key's index slot and KV live.
struct Target {
    i: u32,
    index_col: usize,
    kv_col: usize,
    array: u64,
    row: usize,
}

/// Those of `keys` a one-column failure leaves searchable: exactly one
/// fingerprint candidate, and the KV on another column than the index slot.
fn targets(store: &Arc<AcesoStore>, keys: Range<u32>) -> impl Iterator<Item = Target> + '_ {
    keys.filter_map(move |i| {
        let (index_col, found) = candidates(store, &key(i));
        let [slot] = found[..] else { return None };
        let (kv_col, off) = unpack_col(slot.atomic.addr48);
        let (block, _) = store.map.blocks.locate(off)?;
        let CellKind::Data { array, row } = store.map.blocks.kind_of(block) else {
            return None;
        };
        (kv_col != index_col).then_some(Target {
            i,
            index_col,
            kv_col,
            array,
            row,
        })
    })
}

/// Runs one SEARCH as the only profiled operation of `c`.
fn search(c: &mut AcesoClient, key: &[u8]) -> (Result<Option<Vec<u8>>, StoreError>, OpRecord) {
    c.dm.take_ops();
    let out = c.search(key);
    let recs = c.dm.take_ops().records;
    assert_eq!(recs.len(), 1, "exactly one op must have been recorded");
    (out, recs[0])
}

/// The SEARCH of key `i` on the degraded store returns what the healthy
/// twin returns, costs no RPC, and at most two batches more. Returns the
/// degraded op's shape.
fn against_twin(degraded: &mut AcesoClient, twin: &mut AcesoClient, i: u32) -> Shape {
    let (got, rec) = search(degraded, &key(i));
    let (want, healthy) = search(twin, &key(i));
    assert_eq!(want.unwrap(), Some(value(i)));
    assert_eq!(got.unwrap(), Some(value(i)), "degraded read of key {i}");
    assert_eq!(rec.rpcs, 0, "a degraded SEARCH must not reach an MN's CPU");
    assert!(rec.batches <= healthy.batches + 2, "{rec:?} vs {healthy:?}");
    shape(&rec)
}

#[test]
fn warm_hit() {
    let store = AcesoStore::launch(AcesoConfig::small()).unwrap();
    let mut c = store.client().unwrap();
    c.insert(&key(0), &value(0)).unwrap();
    let (got, rec) = search(&mut c, &key(0));
    assert_eq!(got.unwrap(), Some(value(0)));
    assert_eq!(shape(&rec), WARM);
    store.shutdown();
}

#[test]
fn cold() {
    let store = AcesoStore::launch(AcesoConfig::small()).unwrap();
    store.client().unwrap().insert(&key(0), &value(0)).unwrap();
    let (got, rec) = search(&mut store.client().unwrap(), &key(0));
    assert_eq!(got.unwrap(), Some(value(0)));
    assert_eq!(shape(&rec), COLD);
    store.shutdown();
}

/// Two fingerprint candidates: both KV reads share one doorbell, so the
/// collision costs a chained verb, not a round trip.
#[test]
fn cold_two_candidates() {
    let store = AcesoStore::launch(AcesoConfig::small()).unwrap();
    let names = (0u32..).map(|i| format!("twin-{i:05}").into_bytes());
    let (first, second) = (store.map.index)
        .first_twins(store.cfg.num_mns as u64, None, names)
        .unwrap();
    let mut a = store.client().unwrap();
    a.insert(&first, &value(1)).unwrap();
    a.insert(&second, &value(2)).unwrap();
    let (got, rec) = search(&mut store.client().unwrap(), &second);
    assert_eq!(got.unwrap(), Some(value(2)));
    assert_eq!(shape(&rec), (2, 4, 0, 2, SCAN + 2 * KV));
    store.shutdown();
}

/// The KV's column is dead: the KV read fails without leaving the client,
/// the chain's doorbell replaces it — the healthy round trips, four verbs
/// for one.
#[test]
fn degraded_cold_on_a_dead_column() {
    let (store, twin) = (populated(), populated());
    let t = targets(&store, 0..KEYS).next().unwrap();
    assert!(store.kill_mn(t.kv_col));
    let (mut d, mut h) = (store.client().unwrap(), twin.client().unwrap());
    let got = against_twin(&mut d, &mut h, t.i);
    assert_eq!(got, (2, 6, 0, 2, SCAN + CHAIN));
    store.shutdown();
    twin.shutdown();
}

/// A cache hit on a dead column. First contact: the batch's slot re-read
/// comes back, its KV read does not; one chain doorbell. From then on the
/// client knows the node is down, and the chain rides in the slot
/// re-read's doorbell instead of the KV read: one round trip.
#[test]
fn degraded_warm_hit_on_a_dead_column() {
    let (store, twin) = (populated(), populated());
    let t = targets(&store, 0..KEYS).next().unwrap();
    let (mut d, mut h) = (store.client().unwrap(), twin.client().unwrap());
    for c in [&mut d, &mut h] {
        assert_eq!(c.search(&key(t.i)).unwrap(), Some(value(t.i)));
    }
    assert!(store.kill_mn(t.kv_col));
    let first = against_twin(&mut d, &mut h, t.i);
    assert_eq!(first, (2, 5, 0, 2, 16 + CHAIN));
    assert!(d.dm.is_down(store.directory().node_of(t.kv_col)));
    let next = against_twin(&mut d, &mut h, t.i);
    assert_eq!(next, (1, 5, 0, 1, 16 + CHAIN));
    store.shutdown();
    twin.shutdown();
}

/// A hit on a known-down node whose slot moved since the cache fill: the
/// chain that rode along is dropped, the new pointer is chased, and the
/// entry follows it.
#[test]
fn degraded_warm_hit_on_a_moved_slot() {
    let (store, twin) = (populated(), populated());
    let t = targets(&store, 0..KEYS).next().unwrap();
    let (mut d, mut h) = (store.client().unwrap(), twin.client().unwrap());
    for c in [&mut d, &mut h] {
        assert_eq!(c.search(&key(t.i)).unwrap(), Some(value(t.i)));
    }
    assert!(store.kill_mn(t.kv_col));
    against_twin(&mut d, &mut h, t.i);
    for s in [&store, &twin] {
        let mut w = s.client().unwrap();
        w.update(&key(t.i), &value(t.i + 1)).unwrap();
    }
    let (got, _) = search(&mut d, &key(t.i));
    assert_eq!(got.unwrap(), Some(value(t.i + 1)));
    assert_eq!(search(&mut h, &key(t.i)).0.unwrap(), Some(value(t.i + 1)));
    store.shutdown();
    twin.shutdown();
}

/// The index-only window: the replacement answers, but the block is not
/// rebuilt yet — the KV read comes back unwritten, one wasted read more.
#[test]
fn degraded_in_the_index_only_window() {
    let (store, twin) = (populated(), populated());
    let t = targets(&store, 0..KEYS).next().unwrap();
    assert!(store.kill_mn(t.kv_col));
    let mut recovery = store.begin_recovery(t.kv_col).unwrap();
    recovery.run_to(RecoveryTier::Block).unwrap();
    let (mut d, mut h) = (store.client().unwrap(), twin.client().unwrap());
    let got = against_twin(&mut d, &mut h, t.i);
    assert_eq!(got, (3, 7, 0, 2, SCAN + KV + CHAIN));
    recovery.run().unwrap();
    assert_eq!(
        search(&mut d, &key(t.i)).1.rtts,
        1,
        "recovered: a plain hit"
    );
    store.shutdown();
    twin.shutdown();
}

/// The target sits in a block its writer still holds open: nothing of it
/// is in parity yet, the record head names its DELTA block, and a second
/// doorbell reads that; the first doorbell's parity and cells are
/// discarded.
#[test]
fn degraded_target_in_an_open_block() {
    let (store, twin) = (populated(), populated());
    let fresh = KEYS..KEYS + 8;
    let mut writers = Vec::new();
    for s in [&store, &twin] {
        let mut w = s.client().unwrap();
        for i in fresh.clone() {
            w.insert(&key(i), &value(i)).unwrap();
        }
        writers.push(w); // Dropping a client does not close its blocks.
    }
    let t = targets(&store, fresh).next().unwrap();
    assert!(store.kill_mn(t.kv_col));
    let (mut d, mut h) = (store.client().unwrap(), twin.client().unwrap());
    let got = against_twin(&mut d, &mut h, t.i);
    assert_eq!(got, (3, 7, 0, 3, SCAN + CHAIN + KV));
    store.shutdown();
    twin.shutdown();
}

/// XOR Map and Delta Addr of a parity cell's record, as its server holds
/// them.
fn parity_head(store: &Arc<AcesoStore>, array: u64, parity: (usize, usize)) -> (u16, [u64; 16]) {
    let pid = store.map.blocks.cell_block_id(array, parity.0);
    let rec = store.server(parity.1).records.lock().get(pid);
    (rec.xor_map, rec.delta_addr)
}

/// Keys rewritten by [`churned`].
const CHURN_KEYS: u32 = 300;

/// A store of two stripe arrays whose one writer has rewritten its keys
/// until fresh blocks ran out: it ends on a *reused* block, held open, and
/// every key holds [`value`] again.
fn churned() -> (Arc<AcesoStore>, AcesoClient) {
    let cfg = AcesoConfig {
        num_arrays: 2,
        ..AcesoConfig::small()
    };
    let store = AcesoStore::launch(cfg).unwrap();
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

/// The target sits in a reused block its writer holds open: its row *is*
/// encoded — with what the block held before — and a DELTA block carries
/// old ⊕ new. Parity, cells and delta all fold.
#[test]
fn degraded_target_in_a_reused_open_block() {
    let ((store, _writer), (twin, _twin_writer)) = (churned(), churned());
    let xcode = XCode::new(store.cfg.num_mns).unwrap();
    let t = targets(&store, 0..CHURN_KEYS)
        .find(|t| {
            let (diag, _) = xcode.parity_cells_for(t.row, t.kv_col);
            let (xor_map, delta_addr) = parity_head(&store, t.array, diag);
            xor_map & (1 << t.row) != 0 && delta_addr[t.row] != 0
        })
        .expect("the writer's open block is a reused one");
    assert!(store.kill_mn(t.kv_col));
    let (mut d, mut h) = (store.client().unwrap(), twin.client().unwrap());
    let got = against_twin(&mut d, &mut h, t.i);
    assert_eq!(got, (3, 7, 0, 3, SCAN + CHAIN + KV));
    store.shutdown();
    twin.shutdown();
}

/// Two columns down, and the diagonal chain needs a cell of the second: the
/// anti-diagonal chain serves the read. On first contact the failed chain's
/// doorbell was posted (its live cells cost verbs and bytes) before the
/// record head said the unreachable cell was needed. Once the client knows
/// both columns are down it starts with the chain that names neither: a
/// cold read of another such key is scan + one chain doorbell, and a cache
/// hit one doorbell.
#[test]
fn degraded_second_dead_column_falls_back_to_the_other_chain() {
    let (store, twin) = (populated(), populated());
    let xcode = XCode::new(store.cfg.num_mns).unwrap();
    let needing = |t: &Target| {
        let (diag, anti) = xcode.parity_cells_for(t.row, t.kv_col);
        let others = |p: (usize, usize)| {
            let cells = xcode.chain(p.0, p.1).data.iter().copied();
            cells.filter(|&(r, _)| r != t.row).collect::<Vec<_>>()
        };
        let (_, second) = (others(diag).into_iter()).find(|&(r, c)| {
            c != t.index_col && parity_head(&store, t.array, diag).0 & (1 << r) != 0
        })?;
        let spared = anti.1 != second && others(anti).iter().all(|&(_, c)| c != second);
        spared.then_some(second)
    };
    let (t, second) = targets(&store, 0..KEYS)
        .find_map(|t| needing(&t).map(|second| (t, second)))
        .unwrap();
    let u = targets(&store, t.i + 1..KEYS)
        .find(|u| u.kv_col == t.kv_col && needing(u) == Some(second))
        .unwrap();
    assert!(store.kill_mn(t.kv_col));
    assert!(store.kill_mn(second));
    let (mut d, mut h) = (store.client().unwrap(), twin.client().unwrap());
    let got = against_twin(&mut d, &mut h, t.i);
    assert_eq!(got, (3, 9, 0, 3, SCAN + (CHAIN - KV) + CHAIN));
    assert_eq!(
        against_twin(&mut d, &mut h, u.i),
        (2, 6, 0, 2, SCAN + CHAIN)
    );
    assert_eq!(against_twin(&mut d, &mut h, t.i), (1, 5, 0, 1, 16 + CHAIN));
    store.shutdown();
    twin.shutdown();
}

/// A KV that grew behind a stale advisory length — its writer died between
/// the commit CAS and the Meta write — on a dead column: the chain read at
/// the length hint comes back truncated, and, as a healthy read re-reads, a
/// second chain read at the size the header names finds the value. (A
/// truncated rebuild used to count as a collision: "absent".)
#[test]
fn degraded_read_behind_a_stale_length() {
    let grown = |store: &Arc<AcesoStore>| {
        let mut w = store.client().unwrap();
        w.insert(b"prime-big", &value(0)).unwrap();
        let (_, prime) = candidates(store, b"prime-big");
        let (kv_col, _) = unpack_col(prime[0].atomic.addr48);
        let n = store.cfg.num_mns as u64;
        let i = (KEYS..).find(|&i| (route_hash(&key(i)) % n) as usize != kv_col);
        let i = i.unwrap();
        w.insert(&key(i), b"small").unwrap();
        w.crash_point = Some(CrashPoint::AfterCommit);
        assert!(w.update(&key(i), &value(i)).is_err());
        recover_cn(store, w.id()).unwrap();
        assert_eq!(candidates(store, &key(i)).1[0].meta.len64, 1);
        (i, kv_col)
    };
    let (store, twin) = (populated(), populated());
    let ((i, kv_col), _) = (grown(&store), grown(&twin));
    assert!(store.kill_mn(kv_col));
    let (got, rec) = search(&mut store.client().unwrap(), &key(i));
    let (want, _) = search(&mut twin.client().unwrap(), &key(i));
    assert_eq!(want.unwrap(), Some(value(i)));
    assert_eq!(got.unwrap(), Some(value(i)));
    // The writer's block is still open, so each chain reads its DELTA
    // range too: chain + DELTA at the 256 B hint, then at the whole KV.
    assert_eq!(
        shape(&rec),
        (5, 12, 0, 5, SCAN + (160 + 4 * 256) + CHAIN + KV)
    );
    store.shutdown();
    twin.shutdown();
}

/// Three columns down — the KV's and both of its parities': past X-Code's
/// tolerance. A typed error, not a panic and not a wrong answer.
#[test]
fn three_columns_down_is_a_typed_error() {
    let store = populated();
    let xcode = XCode::new(store.cfg.num_mns).unwrap();
    let (t, parities) = targets(&store, 0..KEYS)
        .find_map(|t| {
            let ((_, diag), (_, anti)) = xcode.parity_cells_for(t.row, t.kv_col);
            (![diag, anti].contains(&t.index_col)).then_some((t, [diag, anti]))
        })
        .unwrap();
    for col in [t.kv_col, parities[0], parities[1]] {
        assert!(store.kill_mn(col));
    }
    let got = store.client().unwrap().search(&key(t.i));
    assert!(
        matches!(got, Err(StoreError::Rdma(RdmaError::NodeUnreachable(_)))),
        "{got:?}"
    );
    store.shutdown();
}
