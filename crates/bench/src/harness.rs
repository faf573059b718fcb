//! Phase runner: drive logical clients through the engine seam, collect
//! the verb profile, report through the cost model.
//!
//! The runner is thread-free: [`BenchScale::threads`] logical clients take
//! turns on the calling thread, one request per client per turn, warm-up
//! and measured alike (the way `bench quick` drives its four). What a
//! phase measures is therefore a function of its streams, not of the OS
//! scheduler — two runs print the same digits — and it needs nothing from
//! an engine beyond `&dyn FtEngine`.

use aceso_core::{AcesoConfig, AcesoEngine, AcesoStore, ClientTuning, FtClient, FtEngine, FtError};
use aceso_engines::substrate::ReplConfig;
use aceso_engines::FuseeEngine;
use aceso_rdma::{CostModel, OpKind, PhaseMeasurement};
use aceso_workloads::{value_for, MicroWorkload, MixedWorkload, Op, OpMix, Request, YcsbWorkload};
use std::sync::Arc;

/// Sizing knobs for a benchmark phase.
#[derive(Clone, Copy, Debug)]
pub struct BenchScale {
    /// Logical clients: each has its own engine client and request stream
    /// and they take turns on one thread (the verb *profile* per op is
    /// what matters, not wall-clock parallelism).
    pub threads: usize,
    /// Simulated client count fed to the cost model's closed-loop bound
    /// (the paper runs 184 clients on 23 CNs).
    pub sim_clients: usize,
    /// Preloaded key count.
    pub keys: u64,
    /// Total measured operations across all logical clients.
    pub ops: usize,
    /// Per-client warm-up operations executed (and discarded) before
    /// measurement, so caches and open blocks reach steady state — the
    /// paper measures steady-state throughput. Set to 0 for INSERT/DELETE
    /// phases, whose semantics are one-shot per key.
    pub warmup: usize,
    /// Value length; the default yields the paper's 1024 B KV pairs
    /// (16 B header + 16 B key + value + trailer).
    pub value_len: usize,
}

impl Default for BenchScale {
    fn default() -> Self {
        BenchScale {
            threads: 2,
            sim_clients: 184,
            keys: 20_000,
            ops: 20_000,
            warmup: 20_000,
            value_len: 991,
        }
    }
}

impl BenchScale {
    /// A minimal scale for smoke tests.
    pub fn tiny() -> Self {
        BenchScale {
            threads: 2,
            sim_clients: 32,
            keys: 500,
            ops: 1_000,
            warmup: 500,
            value_len: 200,
        }
    }

    /// The scale `bench fig --scale <name>` selects: `quick`, `default`
    /// or `big`.
    pub fn named(name: &str) -> Option<Self> {
        let sized = |n: u64| BenchScale {
            keys: n,
            ops: n as usize,
            warmup: n as usize,
            ..BenchScale::default()
        };
        match name {
            "quick" => Some(BenchScale {
                ops: 6_000,
                ..sized(4_000)
            }),
            "default" => Some(BenchScale::default()),
            "big" => Some(sized(100_000)),
            _ => None,
        }
    }
}

/// The measured outcome of a phase, ready for the cost model.
pub struct Phase {
    /// Cost-model input.
    pub m: PhaseMeasurement,
    /// The model that produced the cluster.
    pub cost: CostModel,
}

impl Phase {
    /// Full report.
    pub fn report(&self) -> aceso_rdma::PhaseReport {
        self.cost.report(&self.m)
    }

    /// Replaces per-node demand with the across-node average.
    ///
    /// The paper's 184 clients place their open blocks i.i.d. across MNs,
    /// so per-node block-write load is near-uniform; a handful of logical
    /// clients parks each open block on one node for thousands of ops,
    /// which would misattribute that lumpiness to the system. Used by the
    /// block-size sweep (Figure 20), where the artifact is largest.
    pub fn uniformize(&mut self) {
        let n = self.m.node_fg.len().max(1) as u64;
        let sum = self
            .m
            .node_fg
            .iter()
            .fold(aceso_rdma::stats::VerbSnapshot::default(), |acc, s| {
                acc.plus(s)
            });
        let avg = aceso_rdma::stats::VerbSnapshot {
            reads: sum.reads / n,
            writes: sum.writes / n,
            cas: sum.cas / n,
            faa: sum.faa / n,
            rpcs: sum.rpcs / n,
            read_bytes: sum.read_bytes / n,
            write_bytes: sum.write_bytes / n,
            batched: sum.batched / n,
        };
        for s in &mut self.m.node_fg {
            *s = avg;
        }
    }

    /// Throughput restricted to one op kind: the phase's overall operating
    /// point scaled by the kind's share of operations.
    pub fn latency_for(&self, kind: OpKind) -> aceso_rdma::LatencyReport {
        self.cost.latency(&self.m, Some(kind))
    }
}

/// Default store configuration used by figures (bigger than
/// [`AcesoConfig::small`], still laptop-friendly).
pub fn bench_aceso_config() -> AcesoConfig {
    AcesoConfig {
        num_arrays: 96,
        num_delta: 96,
        index_groups: 4096,
        block_size: 256 << 10,
        ..AcesoConfig::small()
    }
}

/// FUSEE configuration of matching capacity.
pub fn bench_fusee_config() -> ReplConfig {
    ReplConfig {
        index_groups: 4096,
        block_size: 256 << 10,
        blocks_per_mn: 1600,
        ..ReplConfig::small()
    }
}

/// One launched system under test: the seam every phase drives plus, for
/// Aceso, the concrete store — bulk loading must `close_open_blocks`
/// (which `FtClient::quiesce` does not do) and the checkpoint background
/// rate is read off a real round. Shuts the engine down on drop.
pub struct System {
    eng: Box<dyn FtEngine>,
    aceso: Option<Arc<AcesoStore>>,
}

impl System {
    /// Aceso at `cfg`, every client minted with `tuning`.
    pub fn aceso(cfg: AcesoConfig, tuning: ClientTuning) -> Self {
        let store = AcesoStore::launch(cfg).expect("launch");
        System {
            eng: Box::new(AcesoEngine::with_tuning(Arc::clone(&store), tuning)),
            aceso: Some(store),
        }
    }

    /// The FUSEE baseline at `cfg`.
    pub fn fusee(cfg: ReplConfig) -> Self {
        System {
            eng: Box::new(FuseeEngine::launch(cfg)),
            aceso: None,
        }
    }

    /// Both systems of a two-system figure at the bench configurations,
    /// Aceso first.
    pub fn pair() -> [Self; 2] {
        [
            Self::aceso(bench_aceso_config(), ClientTuning::default()),
            Self::fusee(bench_fusee_config()),
        ]
    }

    /// The engine seam.
    pub fn eng(&self) -> &dyn FtEngine {
        self.eng.as_ref()
    }

    /// Bulk-loads `keys` (version-0 values of `value_len` bytes) from one
    /// fresh client.
    pub fn preload(&self, keys: impl Iterator<Item = Vec<u8>>, value_len: usize) {
        match &self.aceso {
            Some(store) => preload_aceso(store, keys, value_len),
            None => {
                let mut client = self.eng.client().expect("client");
                for key in keys {
                    client
                        .insert(&key, &value_for(&key, 0, value_len))
                        .expect("preload");
                }
            }
        }
    }

    /// Per-node background byte rate of checkpointing at the store's
    /// configured interval under the current index state
    /// ([`ckpt_bg_rate`]); empty for a system that does not checkpoint.
    pub fn ckpt_bg(&self) -> Vec<f64> {
        match &self.aceso {
            Some(store) => ckpt_bg_rate(store, store.cfg.ckpt_interval_ms),
            None => Vec::new(),
        }
    }
}

impl Drop for System {
    fn drop(&mut self) {
        self.eng.shutdown();
    }
}

/// Applies one workload request.
pub fn apply(client: &mut dyn FtClient, req: &Request) {
    let value = |version| value_for(&req.key, version, req.value_len);
    let r = match req.op {
        Op::Insert => client.insert(&req.key, &value(0)),
        Op::Update => match client.update(&req.key, &value(1)) {
            // A deleted or never-loaded key under a synthetic mix: count
            // as an upsert, like YCSB's read-modify-write.
            Err(FtError::NotFound) => client.insert(&req.key, &value(1)),
            other => other,
        },
        Op::Search => client.search(&req.key).map(|_| ()),
        Op::Delete => client.delete(&req.key).map(|_| ()),
    };
    r.expect("workload op failed");
}

/// Preloads keys into Aceso and closes the loader's open blocks, so the
/// measured phase starts from sealed, parity-covered blocks.
pub fn preload_aceso(
    store: &Arc<AcesoStore>,
    keys: impl Iterator<Item = Vec<u8>>,
    value_len: usize,
) {
    let mut client = store.client().expect("client");
    for key in keys {
        client
            .insert(&key, &value_for(&key, 0, value_len))
            .expect("preload");
    }
    client.close_open_blocks().expect("close");
}

/// Launches Aceso at `cfg` with every logical client's micro keys loaded
/// (for figures that go on to kill, recover or reclaim on the store).
pub fn preloaded_aceso(cfg: AcesoConfig, scale: BenchScale) -> Arc<AcesoStore> {
    let store = AcesoStore::launch(cfg).expect("launch");
    for t in 0..scale.threads as u32 {
        let keys = MicroWorkload::new(t, Op::Update, scale.keys, scale.value_len);
        preload_aceso(&store, keys.preload_keys(), scale.value_len);
    }
    store
}

/// `n` turns: one request per logical client per turn.
fn turns<W: Iterator<Item = Request>>(lanes: &mut [(Box<dyn FtClient>, W)], n: usize) {
    for _ in 0..n {
        for (client, stream) in lanes.iter_mut() {
            if let Some(req) = stream.next() {
                apply(client.as_mut(), &req);
            }
        }
    }
}

/// Runs a measured phase against any engine.
///
/// `make_stream(client_id)` builds each logical client's request stream;
/// `bg_bytes_per_sec` is the per-node background traffic rate (checkpoint
/// transmission) to charge against NIC bandwidth.
pub fn phase<W: Iterator<Item = Request>>(
    eng: &dyn FtEngine,
    scale: BenchScale,
    bg_bytes_per_sec: Vec<f64>,
    make_stream: impl Fn(u32) -> W,
) -> Phase {
    let mut lanes: Vec<(Box<dyn FtClient>, W)> = (0..scale.threads as u32)
        .map(|t| (eng.client().expect("client"), make_stream(t)))
        .collect();
    turns(&mut lanes, scale.warmup);
    eng.cluster().reset_traffic();
    for (client, _) in &mut lanes {
        client.reset_stats();
    }
    turns(&mut lanes, scale.ops / scale.threads);
    let mut records = Vec::with_capacity(scale.ops);
    for (client, _) in &mut lanes {
        let _ = client.quiesce();
        records.extend(client.take_ops().records);
    }
    let node_fg: Vec<_> = eng
        .cluster()
        .nodes()
        .iter()
        .map(|n| n.traffic.snapshot())
        .collect();
    let mut bg = bg_bytes_per_sec;
    bg.resize(node_fg.len(), 0.0);
    Phase {
        m: PhaseMeasurement {
            n_clients: scale.sim_clients,
            node_fg,
            bg_bytes_per_sec: bg,
            records,
            pipeline_depth: None,
        },
        cost: eng.cluster().cost,
    }
}

/// One microbenchmark phase of `op` on a fresh system: every logical
/// client's keys are preloaded unless the phase INSERTs them (fresh keys,
/// client ids shifted past the preloaded range), one-shot ops (INSERT,
/// DELETE) measure cold while UPDATE and SEARCH measure warm steady state
/// like the paper, and `bg` is sampled after the preload.
pub fn micro_phase(
    sys: &System,
    scale: BenchScale,
    op: Op,
    bg: impl FnOnce(&System) -> Vec<f64>,
) -> Phase {
    let scale = BenchScale {
        warmup: if matches!(op, Op::Insert | Op::Delete) {
            0
        } else {
            scale.warmup
        },
        ..scale
    };
    let stream = |t| MicroWorkload::new(t, op, scale.keys, scale.value_len);
    let shift = if op == Op::Insert {
        100
    } else {
        for t in 0..scale.threads as u32 {
            sys.preload(stream(t).preload_keys(), scale.value_len);
        }
        0
    };
    let bg = bg(sys);
    phase(sys.eng(), scale, bg, |t| stream(t + shift))
}

/// One phase over the preloaded YCSB keyspace on a fresh system, Aceso
/// paying live checkpoint interference: the macro figures' runner.
pub fn ycsb_phase<W: Iterator<Item = Request>>(
    sys: &System,
    scale: BenchScale,
    make_stream: impl Fn(u32) -> W,
) -> Phase {
    sys.preload(YcsbWorkload::preload_keys(scale.keys), scale.value_len);
    let bg = sys.ckpt_bg();
    phase(sys.eng(), scale, bg, make_stream)
}

/// [`micro_phase`]'s warm sibling: `op` alone, every logical client
/// drawing from the YCSB keyspace Zipfian θ = 0.99 (Figure 15's stream at
/// one op) — a stream a bounded cache can hit, which a cyclic sweep of
/// more keys than the cache holds never does. Clients share the keys, so
/// two UPDATEs of a hot key can meet.
pub fn hot_phase(sys: &System, scale: BenchScale, op: Op) -> Phase {
    ycsb_phase(sys, scale, |t| {
        MixedWorkload::new(OpMix::only(op), scale.keys, 0.99, scale.value_len, t, 42)
    })
}

/// Measures the sustained checkpoint traffic rate per node under the
/// current index state: one synchronized round's compressed deltas divided
/// by the interval. Node `c` pays for sending its delta and receiving its
/// left neighbour's.
pub fn ckpt_bg_rate(store: &Arc<AcesoStore>, interval_ms: u64) -> Vec<f64> {
    let n = store.cfg.num_mns;
    let reports = store.checkpoint_tick().expect("tick");
    let mut bg = vec![0.0f64; store.cluster.len()];
    let secs = interval_ms as f64 / 1e3;
    for (col, rep) in reports.iter().enumerate() {
        let rate = rep.compressed_len as f64 / secs;
        bg[col] += rate; // Sender's NIC.
        bg[(col + 1) % n] += rate; // Receiver's NIC.
    }
    bg
}

/// Sums a background byte rate uniformly over the first `n` nodes
/// (synthetic interference for Figure 1b).
pub fn uniform_bg(n: usize, bytes_per_sec: f64) -> Vec<f64> {
    vec![bytes_per_sec; n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_engines::{launch, EngineKind};

    fn tiny_update_phase(kind: EngineKind) -> Phase {
        let eng = launch(kind).unwrap();
        let scale = BenchScale::tiny();
        let stream = |t| MicroWorkload::new(t, Op::Update, scale.keys, scale.value_len);
        let mut loader = eng.client().unwrap();
        for t in 0..scale.threads as u32 {
            for key in stream(t).preload_keys() {
                loader
                    .insert(&key, &value_for(&key, 0, scale.value_len))
                    .unwrap();
            }
        }
        let phase = phase(eng.as_ref(), scale, vec![], stream);
        eng.shutdown();
        phase
    }

    #[test]
    fn phase_produces_each_engines_profile() {
        for kind in EngineKind::ALL {
            let phase = tiny_update_phase(kind);
            let scale = BenchScale::tiny();
            assert_eq!(
                phase.m.records.len(),
                scale.ops / scale.threads * scale.threads
            );
            assert!(phase.report().mops > 0.0);
            let avg_cas: f64 = phase.m.records.iter().map(|r| r.cas as f64).sum::<f64>()
                / phase.m.records.len() as f64;
            match kind {
                // Updates must cost exactly one CAS each in Aceso.
                EngineKind::Aceso => assert!((1.0..1.2).contains(&avg_cas), "avg cas {avg_cas}"),
                _ => assert!(avg_cas >= 3.0, "[{kind}] r=3 needs ≥3 CAS, got {avg_cas}"),
            }
        }
    }

    #[test]
    fn phase_is_a_pure_function_of_the_seed() {
        for kind in EngineKind::ALL {
            let (a, b) = (tiny_update_phase(kind), tiny_update_phase(kind));
            assert_eq!(
                format!("{:?}", a.m.records),
                format!("{:?}", b.m.records),
                "[{kind}] records"
            );
            assert_eq!(a.m.node_fg, b.m.node_fg, "[{kind}] node_fg");
        }
    }

    #[test]
    fn ckpt_rate_reflects_delta_size() {
        let store = AcesoStore::launch(AcesoConfig::small()).unwrap();
        let mut c = store.client().unwrap();
        for i in 0..500u32 {
            c.insert(format!("bg-{i}").as_bytes(), b"value").unwrap();
        }
        let bg = ckpt_bg_rate(&store, 500);
        assert!(bg.iter().any(|&b| b > 0.0));
        store.shutdown();
    }
}
