//! Host-time probes of single layers: each calls a layer's public
//! functions on fixed inputs and reports ns per call or GB/s.
//!
//! They run in the traced pass only and never touch the store under
//! test, so they cannot move a `sim_*` metric. Each figure is the median
//! of several short repetitions: a probe should show a layer getting
//! slower or faster between two commits, not rank layers to the percent.
//! They supersede the criterion-shim benches in `crates/bench/benches`.

use crate::stats::median;
use aceso_blockalloc::{Allocator, BlockLayout};
use aceso_erasure::{xor_into, ReedSolomon, XCode};
use aceso_index::{fingerprint, IndexLayout, RemoteIndex, SlotAtomic};
use aceso_rdma::{Cluster, ClusterConfig, CostModel, GlobalAddr, NodeId, SimCq};
use aceso_rt::Executor;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per probe; the median is reported.
const REPS: usize = 5;
/// Cell size of the erasure and block-read probes: one store block.
const CELL: usize = 256 << 10;
/// Input size of the codec and snapshot probes.
const CODEC_LEN: usize = 1 << 20;

pub struct Probes {
    pub read_1k_ns: f64,
    pub write_1k_ns: f64,
    pub cas_ns: f64,
    pub read_256k_gbps: f64,
    pub cq_advance_ns: f64,
    pub rt_spawn_poll_ns: f64,
    pub fingerprint_ns: f64,
    pub scan_ns: f64,
    pub read_slot_ns: f64,
    pub index_cas_ns: f64,
    pub snapshot_gbps: f64,
    pub alloc_free_ns: f64,
    pub compress_sparse_gbps: f64,
    pub decompress_sparse_gbps: f64,
    pub compress_dense_gbps: f64,
    pub xor_gbps: f64,
    pub xcode_encode_gbps: f64,
    pub xcode_reconstruct2_gbps: f64,
    pub rs_encode_gbps: f64,
    pub rs_reconstruct2_gbps: f64,
}

/// Median ns per call of `f` over `REPS` timings of `iters` calls each.
fn ns_per_call(iters: usize, f: &mut dyn FnMut()) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&reps)
}

/// Median GB/s of `f`, which processes `bytes` per call.
fn gbps(bytes: usize, iters: usize, f: &mut dyn FnMut()) -> f64 {
    bytes as f64 / ns_per_call(iters, f)
}

fn cells(n: usize, len: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| (0..len).map(|b| ((b * 31 + i * 7) & 0xFF) as u8).collect())
        .collect()
}

/// A checkpoint-like delta: mostly zeros, about 1 % of 16 B slots dirty.
fn sparse_delta() -> Vec<u8> {
    let mut v = vec![0u8; CODEC_LEN];
    let slots = CODEC_LEN / 16;
    let mut x = 0x1234_5678u64;
    for _ in 0..slots / 100 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let s = (x as usize) % slots;
        v[s * 16] = (x >> 33) as u8 | 1;
        v[s * 16 + 3] = (x >> 41) as u8;
    }
    v
}

impl Probes {
    /// Runs every probe, with iteration counts divided by `div`.
    pub fn run(div: usize) -> Probes {
        let ns_per_call = |iters: usize, f: &mut dyn FnMut()| ns_per_call(iters.div_ceil(div), f);
        let gbps =
            |bytes: usize, iters: usize, f: &mut dyn FnMut()| gbps(bytes, iters.div_ceil(div), f);
        let cluster = Cluster::new(ClusterConfig {
            num_mns: 2,
            region_len: 16 << 20,
            cost: CostModel::default(),
        });
        let dm = cluster.client();
        let addr = GlobalAddr::new(NodeId(0), 4096);

        // aceso-rdma::verbs
        let mut word = 0u64;
        let cas_ns = ns_per_call(20_000, &mut || {
            let prev = dm.cas(addr, word, word + 1).expect("cas");
            word = prev + 1;
        });
        let kb = [7u8; 1024];
        let write_1k_ns = ns_per_call(20_000, &mut || dm.write(addr.add(64), &kb).expect("write"));
        let mut buf = [0u8; 1024];
        let read_1k_ns = ns_per_call(20_000, &mut || {
            dm.read(addr.add(64), &mut buf).expect("read");
            black_box(buf[0]);
        });
        let mut block = vec![0u8; CELL];
        let read_256k_gbps = gbps(CELL, 40, &mut || {
            dm.read(GlobalAddr::new(NodeId(1), 0), &mut block)
                .expect("block read");
            black_box(block[0]);
        });

        // aceso-rdma::cq: post a completion, advance the clock to it.
        let cq = SimCq::new();
        let cq_advance_ns = ns_per_call(20_000, &mut || {
            let c = cq.complete_in(3.0);
            black_box(cq.advance_next());
            drop(c);
        });

        // aceso-rt: spawn a task that yields once, run it to completion.
        let mut exec = Executor::new();
        let rt_spawn_poll_ns = ns_per_call(5_000, &mut || {
            exec.spawn(aceso_rt::yield_now());
            black_box(exec.run_until_idle(|| false));
        });

        // aceso-index, over a populated partition on node 0.
        let idx = RemoteIndex::new(NodeId(0), IndexLayout::new(1 << 20, 8_192));
        let keys: Vec<Vec<u8>> = (0..4_096u64).map(aceso_workloads::key_bytes).collect();
        for key in &keys {
            let fp = fingerprint(key);
            let scan = idx.scan(&dm, key, fp).expect("scan");
            if let Some(&slot) = scan.empties.first() {
                let new = SlotAtomic {
                    fp,
                    addr48: 1 << 20,
                    ver: 1,
                };
                idx.cas_atomic(&dm, slot, SlotAtomic::default(), new)
                    .expect("populate");
            }
        }
        let mut i = 0usize;
        let fingerprint_ns = ns_per_call(50_000, &mut || {
            i = (i + 1) % keys.len();
            black_box(fingerprint(&keys[i]));
        });
        let scan_ns = ns_per_call(10_000, &mut || {
            i = (i + 1) % keys.len();
            let key = &keys[i];
            black_box(
                idx.scan(&dm, key, fingerprint(key))
                    .expect("scan")
                    .matches
                    .len(),
            );
        });
        let slot = idx.slot_addr(0, 0);
        let read_slot_ns = ns_per_call(20_000, &mut || {
            black_box(idx.read_slot(&dm, slot).expect("read slot").atomic);
        });
        let mut ver = 0u8;
        let mut old = idx.read_slot(&dm, slot).expect("read slot").atomic;
        let index_cas_ns = ns_per_call(20_000, &mut || {
            ver = ver.wrapping_add(1);
            let new = SlotAtomic {
                fp: 1,
                addr48: 64,
                ver,
            };
            idx.cas_atomic(&dm, slot, old, new).expect("slot cas");
            old = new;
        });
        let region = &cluster.node(NodeId(0)).expect("node 0").region;
        let snapshot_gbps = gbps(8_192 * 384, 10, &mut || {
            black_box(idx.snapshot(region).len());
        });

        // aceso-blockalloc: one DELTA block out and back.
        let mut alloc = Allocator::new(BlockLayout {
            n: 5,
            block_size: CELL as u64,
            num_arrays: 16,
            num_delta: 32,
            meta_base: 0,
            block_base: 1 << 20,
        });
        let alloc_free_ns = ns_per_call(50_000, &mut || {
            let id = alloc.alloc_delta().expect("delta block");
            alloc.free_delta(black_box(id));
        });

        // aceso-codec
        let sparse = sparse_delta();
        let compressed = aceso_codec::compress(&sparse);
        let dense: Vec<u8> = (0..CODEC_LEN)
            .map(|i| ((i as u64).wrapping_mul(6364136223846793005) >> 33) as u8)
            .collect();
        let compress_sparse_gbps = gbps(CODEC_LEN, 3, &mut || {
            black_box(aceso_codec::compress(&sparse).len());
        });
        let decompress_sparse_gbps = gbps(CODEC_LEN, 3, &mut || {
            black_box(
                aceso_codec::decompress(&compressed, CODEC_LEN)
                    .expect("decompress")
                    .len(),
            );
        });
        let compress_dense_gbps = gbps(CODEC_LEN, 3, &mut || {
            black_box(aceso_codec::compress(&dense).len());
        });

        // aceso-erasure: the store's X-Code(5) against RS(3, 2), the same
        // three data cells of one block each.
        let six = cells(6, CELL);
        let mut parity = vec![0u8; CELL];
        let xor_gbps = gbps(6 * CELL, 4, &mut || {
            parity.fill(0);
            for d in &six {
                xor_into(&mut parity, d);
            }
            black_box(parity[0]);
        });
        let code = XCode::new(5).expect("prime 5");
        let data: Vec<Vec<Vec<u8>>> = (0..3).map(|_| cells(5, CELL / 4)).collect();
        let stripe_bytes = 15 * CELL / 4;
        let xcode_encode_gbps = gbps(stripe_bytes, 4, &mut || {
            black_box(code.encode(&data).expect("encode").0.len());
        });
        let (diag, anti) = code.encode(&data).expect("encode");
        let xcode_reconstruct2_gbps = gbps(stripe_bytes, 4, &mut || {
            let mut stripe: Vec<Vec<Option<Vec<u8>>>> = data
                .iter()
                .map(|row| row.iter().cloned().map(Some).collect())
                .collect();
            stripe.push(diag.iter().cloned().map(Some).collect());
            stripe.push(anti.iter().cloned().map(Some).collect());
            for row in stripe.iter_mut() {
                row[0] = None;
                row[3] = None;
            }
            code.reconstruct(&mut stripe).expect("reconstruct");
            black_box(stripe[0][0].as_ref().map(|c| c[0]));
        });
        let rs = ReedSolomon::new(3, 2).expect("rs(3,2)");
        let three = cells(3, CELL);
        let refs: Vec<&[u8]> = three.iter().map(Vec::as_slice).collect();
        let rs_encode_gbps = gbps(3 * CELL, 2, &mut || {
            black_box(rs.encode(&refs).expect("rs encode").len());
        });
        let rs_parity = rs.encode(&refs).expect("rs encode");
        let rs_reconstruct2_gbps = gbps(3 * CELL, 2, &mut || {
            let mut shards: Vec<Option<Vec<u8>>> =
                three.iter().chain(&rs_parity).cloned().map(Some).collect();
            shards[0] = None;
            shards[2] = None;
            rs.reconstruct(&mut shards).expect("rs reconstruct");
            black_box(shards[0].as_ref().map(|c| c[0]));
        });

        Probes {
            read_1k_ns,
            write_1k_ns,
            cas_ns,
            read_256k_gbps,
            cq_advance_ns,
            rt_spawn_poll_ns,
            fingerprint_ns,
            scan_ns,
            read_slot_ns,
            index_cas_ns,
            snapshot_gbps,
            alloc_free_ns,
            compress_sparse_gbps,
            decompress_sparse_gbps,
            compress_dense_gbps,
            xor_gbps,
            xcode_encode_gbps,
            xcode_reconstruct2_gbps,
            rs_encode_gbps,
            rs_reconstruct2_gbps,
        }
    }
}
