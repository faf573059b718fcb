//! `bench clients` — the coroutine-pipelining sweep.
//!
//! One OS thread hosts `C` client tasks on an [`aceso_rt::Executor`], all
//! sharing one simulated completion queue. Each task is a resumable
//! Aceso op state machine (`search_async` & friends) that suspends at
//! every fabric round trip, so with `C` tasks the thread keeps up to `C`
//! round trips in flight — the paper's client coroutines (§4.1, 8 per
//! thread) generalized until the modeled NIC saturates.
//!
//! For each point the sweep measures the *achieved* overlap depth
//! (fabric wait over virtual time, [`harness::Overlap::depth`]) and feeds
//! it to the cost model as
//! [`aceso_rdma::PhaseMeasurement::pipeline_depth`]: the client-bound
//! throughput term then reflects real overlap instead of the calibrated
//! pipelining constant. The knee of the curve is the first point where
//! the bottleneck leaves `client-rtt` — beyond it more coroutines buy
//! nothing because a NIC resource, not the closed loop, is the limit.
//!
//! Everything is counted or virtual-clocked, so the sweep output is a
//! pure function of the seed.

use crate::harness;
use aceso_core::{AcesoConfig, AcesoStore, StoreError};
use aceso_rdma::Bottleneck;
use aceso_rt::Executor;
use aceso_workloads::ycsb::YcsbKind;
use aceso_workloads::YcsbWorkload;

/// Keys preloaded per sweep point (zipfian 0.99 over these).
const KEYS: u64 = 1024;
/// Ops each client task issues.
const OPS_PER_TASK: usize = 32;
/// Value payload size.
const VALUE_LEN: usize = 64;
/// Largest client count tried while searching for the knee.
const MAX_TASKS: usize = 1024;

/// One sweep point: `tasks` coroutines on one executor thread.
pub struct SweepRow {
    /// Concurrent client tasks multiplexed on the thread.
    pub tasks: usize,
    /// The overlap the tasks achieved on the shared virtual CQ.
    pub overlap: harness::Overlap,
    /// Modeled throughput with the measured depth.
    pub mops: f64,
    /// What bound the throughput.
    pub bottleneck: Bottleneck,
    /// Modeled p50 / p99 op latency (µs).
    pub p50_us: f64,
    /// See `p50_us`.
    pub p99_us: f64,
}

/// The full sweep plus its knee.
pub struct ClientsSweep {
    /// Seed the YCSB-A streams were derived from.
    pub seed: u64,
    /// One row per client count (doubling from 1).
    pub rows: Vec<SweepRow>,
    /// First client count whose bottleneck is not the closed loop.
    pub knee: Option<usize>,
}

/// Runs one sweep point: `tasks` coroutine clients over a shared CQ.
fn sweep_point(seed: u64, tasks: usize) -> SweepRow {
    // Every coroutine client pins one open DATA block (plus two delta
    // blocks), so the pool must hold MAX_TASKS of them; smaller blocks
    // keep the total footprint modest.
    let store = AcesoStore::launch(AcesoConfig {
        block_size: 16 << 10,
        num_arrays: 80,
        num_delta: 512,
        index_groups: 4096,
        ..AcesoConfig::small()
    })
    .expect("launch");
    harness::preload_aceso(&store, YcsbWorkload::preload_keys(KEYS), VALUE_LEN);

    let lanes = (0..tasks)
        .map(|t| {
            let stream = YcsbWorkload::new(YcsbKind::A, KEYS, 0.99, VALUE_LEN, t as u32, seed);
            (store.client().expect("client"), stream)
        })
        .collect();
    let (window, overlap) = harness::coro_window(
        &store.cluster,
        Executor::new(),
        lanes,
        OPS_PER_TASK,
        |t, opno, req, r| match r {
            // Hot-key pile-ups at large C can exhaust the commit retry
            // budget; that is contention, not a bug — count the op as
            // attempted and move on.
            Ok(()) | Err(StoreError::RetriesExhausted) => {}
            Err(e) => panic!("task {t} op {opno} ({:?}): {e}", req.op),
        },
    );
    // One OS thread; overlap comes from the measured depth.
    let phase = window.measured(1, vec![], Some(overlap.depth));
    let rep = phase.report();
    let lat = phase.cost.latency(&phase.m, None);
    store.shutdown();
    SweepRow {
        tasks,
        overlap,
        mops: rep.mops,
        bottleneck: rep.bottleneck,
        p50_us: lat.p50_us,
        p99_us: lat.p99_us,
    }
}

/// Sweeps doubling client counts until the modeled NIC binds (and at
/// least through 512 tasks, the acceptance floor for one OS thread).
pub fn clients_sweep(seed: u64) -> ClientsSweep {
    let mut rows = Vec::new();
    let mut knee = None;
    let mut tasks = 1;
    while tasks <= MAX_TASKS {
        let row = sweep_point(seed, tasks);
        let saturated = row.bottleneck != Bottleneck::ClientRtt;
        if saturated && knee.is_none() {
            knee = Some(tasks);
        }
        rows.push(row);
        if knee.is_some() && tasks >= 512 {
            break;
        }
        tasks *= 2;
    }
    ClientsSweep { seed, rows, knee }
}

impl ClientsSweep {
    /// Renders the sweep as the `results/` table.
    pub fn render(&self) -> String {
        let mut s = format!(
            "clients sweep: YCSB-A, {KEYS} keys, {OPS_PER_TASK} ops/task, seed {:#x}\n\
             one OS thread; depth = measured CQ overlap (busy/now)\n\
             tasks | inflight | depth  | virt µs  |   Mops | bottleneck  | p50 µs | p99 µs\n",
            self.seed
        );
        for r in &self.rows {
            s.push_str(&format!(
                "{:5} | {:8} | {:6.1} | {:8.0} | {:6.2} | {:<11} | {:6.1} | {:6.1}\n",
                r.tasks,
                r.overlap.peak_inflight,
                r.overlap.depth,
                r.overlap.virtual_us,
                r.mops,
                r.bottleneck.label(),
                r.p50_us,
                r.p99_us,
            ));
        }
        match self.knee {
            Some(k) => s.push_str(&format!(
                "knee: throughput leaves the closed loop at {k} tasks/thread\n"
            )),
            None => s.push_str("knee: not reached (client-bound throughout)\n"),
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One mid-size point: the executor really multiplexes the ops (depth
    /// well above the calibrated constant 4) and the measurement reaches
    /// the cost model.
    #[test]
    fn sweep_point_overlaps_ops() {
        let row = sweep_point(0xace50, 64);
        assert_eq!(row.tasks, 64);
        assert_eq!(row.overlap.peak_inflight, 64);
        let depth = row.overlap.depth;
        assert!(depth > 8.0, "depth {depth} too shallow");
        assert!(row.mops > 0.0 && row.overlap.virtual_us > 0.0);
    }

    /// Acceptance floor: one OS thread sustains ≥ 256 concurrent
    /// in-flight ops end to end against the real store.
    #[test]
    fn one_thread_sustains_256_inflight_ops() {
        let row = sweep_point(0xace50, 256);
        let (peak_inflight, depth) = (row.overlap.peak_inflight, row.overlap.depth);
        assert!(peak_inflight >= 256, "peak inflight {peak_inflight} < 256");
        assert!(depth > 64.0, "overlap depth {depth} too shallow");
    }

    /// The same seed reproduces the same point bit-for-bit.
    #[test]
    fn sweep_point_is_deterministic() {
        let a = sweep_point(0xace50, 16);
        let b = sweep_point(0xace50, 16);
        assert_eq!(a.overlap.depth.to_bits(), b.overlap.depth.to_bits());
        assert_eq!(a.mops.to_bits(), b.mops.to_bits());
        assert_eq!(
            a.overlap.virtual_us.to_bits(),
            b.overlap.virtual_us.to_bits()
        );
        assert_eq!(a.bottleneck, b.bottleneck);
    }
}
