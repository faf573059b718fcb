//! The measured window and the phase runner built on it: drive logical
//! clients, collect the verb profile, report through the cost model.
//!
//! This file is the crate's one definition of "measure". A **window**
//! resets the cluster's traffic and the clients' stats, runs a **drive**,
//! and returns the per-op records plus the per-node demand ([`Window`]);
//! the **report** step ([`Window::measured`]) adds what the cost model
//! must be told — simulated client count, background rate, pipeline
//! depth — and yields the [`Phase`] around the one `PhaseMeasurement`
//! literal. Two drives exist:
//! [`window`] runs blocking clients behind `&mut dyn FtClient` (any
//! engine), usually round-robin through [`turns`]; [`coro_window`] runs
//! one `AcesoClient` task per stream on one executor over one virtual
//! completion queue and also yields the [`Overlap`] it achieved. Both are
//! thread-free — what a window measures is a function of its streams, not
//! of the OS scheduler, so two runs print the same digits. Every CI slice
//! and, through [`phase`], every figure measures here.

use aceso_core::{
    kv, AcesoClient, AcesoConfig, AcesoEngine, AcesoStore, ClientTuning, FtClient, FtEngine,
    FtError, FtResult, StoreError,
};
use aceso_engines::substrate::ReplConfig;
use aceso_engines::FuseeEngine;
use aceso_rdma::stats::VerbSnapshot;
use aceso_rdma::{Cluster, CostModel, OpKind, OpRecord, PhaseMeasurement, SimCq};
use aceso_rt::Executor;
use aceso_workloads::{
    micro_key, value_for, MicroWorkload, MixedWorkload, Op, OpMix, Request, YcsbWorkload,
};
use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

/// Simulated closed-loop client count fed to the cost model: the paper
/// runs 184 clients on 23 CNs.
pub const SIM_CLIENTS: usize = 184;

/// Sizing knobs for a benchmark phase.
#[derive(Clone, Copy, Debug)]
pub struct BenchScale {
    /// Logical clients: each has its own engine client and request stream
    /// and they take turns on one thread (the verb *profile* per op is
    /// what matters, not wall-clock parallelism).
    pub threads: usize,
    /// Simulated client count fed to the cost model's closed-loop bound.
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
            sim_clients: SIM_CLIENTS,
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

/// The measured outcome of a window, ready for the cost model.
pub struct Phase {
    /// Cost-model input.
    pub m: PhaseMeasurement,
    /// The measured cluster's model.
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

    /// Mean of `f` over the records of `kind` (of every kind with `None`).
    pub fn mean(&self, kind: Option<OpKind>, f: impl Fn(&OpRecord) -> u32) -> f64 {
        let of_kind = |r: &&OpRecord| kind.is_none_or(|k| r.kind == k);
        let (n, sum) = (self.m.records.iter().filter(of_kind))
            .fold((0u64, 0u64), |(n, sum), r| (n + 1, sum + f(r) as u64));
        sum as f64 / n.max(1) as f64
    }

    /// Modeled latency percentiles of one op kind's records.
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

/// Bytes of the slot class a bench pair of `value_len` lands in. Micro and
/// YCSB keys are one length (`aceso-workloads` pins it), so one class
/// serves every sizing computation.
pub fn slot_bytes(value_len: usize) -> u64 {
    let class = kv::class_for(micro_key(0, 0).len(), value_len).expect("bench KV fits a class");
    class as u64 * 64
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

/// What one measured window saw.
pub struct Window {
    /// Every client's per-op fabric records.
    pub records: Vec<OpRecord>,
    /// Foreground verb demand at each node.
    pub node_fg: Vec<VerbSnapshot>,
    /// The cluster's cost model.
    cost: CostModel,
}

impl Window {
    /// The report step: the window as cost-model input for `n_clients`
    /// closed-loop clients, against `bg_bytes_per_sec` of background
    /// traffic per node (zero where the vector is short) and at
    /// `pipeline_depth` (`None` = the model's calibrated constant).
    pub fn measured(
        self,
        n_clients: usize,
        mut bg_bytes_per_sec: Vec<f64>,
        pipeline_depth: Option<f64>,
    ) -> Phase {
        bg_bytes_per_sec.resize(self.node_fg.len(), 0.0);
        Phase {
            m: PhaseMeasurement {
                n_clients,
                node_fg: self.node_fg,
                bg_bytes_per_sec,
                records: self.records,
                pipeline_depth,
            },
            cost: self.cost,
        }
    }
}

/// Traffic reset → `drive` (which hands back its clients' records) →
/// per-node demand snapshot.
fn measure<T>(cluster: &Cluster, drive: impl FnOnce() -> (Vec<OpRecord>, T)) -> (Window, T) {
    cluster.reset_traffic();
    let (records, out) = drive();
    let node_fg = cluster
        .nodes()
        .iter()
        .map(|n| n.traffic.snapshot())
        .collect();
    let cost = cluster.cost;
    let window = Window {
        records,
        node_fg,
        cost,
    };
    (window, out)
}

/// Mints `n` clients of `eng`.
pub fn clients(eng: &dyn FtEngine, n: usize) -> Vec<Box<dyn FtClient>> {
    (0..n).map(|_| eng.client().expect("client")).collect()
}

/// One measured window over blocking clients: whatever `drive` does with
/// them between the reset and the collection (a caller that wants its
/// clients' buffered state on the wire inside the window quiesces them at
/// the end of its drive).
pub fn window(
    cluster: &Cluster,
    clients: &mut [Box<dyn FtClient>],
    drive: impl FnOnce(&mut [Box<dyn FtClient>]),
) -> Window {
    let collect = || {
        for c in clients.iter_mut() {
            c.reset_stats();
        }
        drive(clients);
        let records = clients
            .iter_mut()
            .flat_map(|c| c.take_ops().records)
            .collect();
        (records, ())
    };
    measure(cluster, collect).0
}

/// The round-robin drive: op number `n` of `ops` goes to client
/// `n % clients.len()`, which draws its stream's next request and hands it
/// to `each` (an exhausted stream skips its turn).
pub fn turns<W: Iterator<Item = Request>>(
    clients: &mut [Box<dyn FtClient>],
    streams: &mut [W],
    ops: Range<usize>,
    mut each: impl FnMut(usize, &mut dyn FtClient, Request),
) {
    for opno in ops {
        let i = opno % clients.len();
        if let Some(req) = streams[i].next() {
            each(opno, clients[i].as_mut(), req);
        }
    }
}

/// Overlap a coroutine drive achieved on its virtual completion queue.
#[derive(Clone, Copy, Debug)]
pub struct Overlap {
    /// Mean ops in flight: modeled fabric wait over the virtual time spanned.
    pub depth: f64,
    /// Virtual microseconds the window spanned.
    pub virtual_us: f64,
    /// Peak simultaneously in-flight ops the executor observed.
    pub peak_inflight: usize,
}

/// One measured window over coroutine clients: each `(client, stream)` is
/// a task on `exec` issuing its stream's first `ops_per_task` requests
/// (value version = the task's own op number), all suspended round trips
/// sharing one virtual completion queue, run until idle. `settle(task,
/// opno, request, result)` is the caller's error policy.
pub fn coro_window<W: Iterator<Item = Request> + 'static>(
    cluster: &Cluster,
    mut exec: Executor,
    tasks: Vec<(AcesoClient, W)>,
    ops_per_task: usize,
    settle: fn(usize, usize, &Request, Result<(), StoreError>),
) -> (Window, Overlap) {
    measure(cluster, || {
        let cq = Arc::new(SimCq::new());
        // Each task deposits its client's records when it finishes: the
        // latency model draws per record position, so completion order is
        // part of what a sweep point pins.
        let sink = Rc::new(RefCell::new(Vec::new()));
        for (t, (mut client, stream)) in tasks.into_iter().enumerate() {
            client.dm.reset_stats();
            client.dm.attach_cq(Arc::clone(&cq));
            let sink = Rc::clone(&sink);
            exec.spawn(async move {
                for (opno, req) in stream.take(ops_per_task).enumerate() {
                    let r = dispatch_async(&mut client, &req, opno as u64).await;
                    settle(t, opno, &req, r);
                }
                client.dm.detach_cq();
                sink.borrow_mut().extend(client.dm.take_ops().records);
            });
        }
        let stuck = exec.run_until_idle(|| cq.advance_next());
        assert_eq!(
            stuck, 0,
            "coroutine window wedged with {stuck} tasks in flight"
        );
        let virtual_us = cq.now_us();
        let overlap = Overlap {
            depth: if virtual_us > 0.0 {
                cq.busy_us() / virtual_us
            } else {
                0.0
            },
            virtual_us,
            peak_inflight: exec.peak_inflight(),
        };
        let records = Rc::try_unwrap(sink).expect("all tasks done").into_inner();
        (records, overlap)
    })
}

/// Issues one workload request on a blocking client, writing
/// `value_for(key, version)`; the outcome is the caller's to judge.
pub fn dispatch(client: &mut dyn FtClient, req: &Request, version: u64) -> FtResult<()> {
    let value = || value_for(&req.key, version, req.value_len);
    match req.op {
        Op::Insert => client.insert(&req.key, &value()),
        Op::Update => client.update(&req.key, &value()),
        Op::Search => client.search(&req.key).map(|_| ()),
        Op::Delete => client.delete(&req.key).map(|_| ()),
    }
}

/// [`dispatch`] on a coroutine client: suspends at every round trip.
async fn dispatch_async(
    client: &mut AcesoClient,
    req: &Request,
    version: u64,
) -> Result<(), StoreError> {
    let value = || value_for(&req.key, version, req.value_len);
    match req.op {
        Op::Insert => client.insert_async(&req.key, &value()).await,
        Op::Update => client.update_async(&req.key, &value()).await,
        Op::Search => client.search_async(&req.key).await.map(|_| ()),
        Op::Delete => client.delete_async(&req.key).await.map(|_| ()),
    }
}

/// Applies one workload request the way the figures do: INSERT writes
/// version 0, everything else version 1, and any failure is a bug.
pub fn apply(client: &mut dyn FtClient, req: &Request) {
    let r = match dispatch(client, req, (req.op != Op::Insert) as u64) {
        // A deleted or never-loaded key under a synthetic mix: count
        // as an upsert, like YCSB's read-modify-write.
        Err(FtError::NotFound) if req.op == Op::Update => {
            client.insert(&req.key, &value_for(&req.key, 1, req.value_len))
        }
        other => other,
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

/// Runs a measured phase against any engine: [`BenchScale::threads`]
/// logical clients take turns, one request per client per turn, warm-up
/// and measured alike.
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
    let n = scale.threads;
    let mut clients = clients(eng, n);
    let mut streams: Vec<W> = (0..n as u32).map(make_stream).collect();
    let mut run = |clients: &mut [Box<dyn FtClient>], turns_each: usize| {
        turns(clients, &mut streams, 0..turns_each * n, |_, c, req| {
            apply(c, &req)
        })
    };
    run(&mut clients, scale.warmup);
    let w = window(eng.cluster(), &mut clients, |clients| {
        run(clients, scale.ops / n);
        for c in clients {
            let _ = c.quiesce();
        }
    });
    w.measured(scale.sim_clients, bg_bytes_per_sec, None)
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
            let avg_cas = phase.mean(None, |r| r.cas);
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

    /// The property that lets one window serve both drives: the same
    /// seeded YCSB-A stream costs the same verbs op for op whether one
    /// blocking client or one coroutine task issues it.
    #[test]
    fn both_drives_record_the_same_ops() {
        use aceso_workloads::ycsb::YcsbKind;
        const OPS: usize = 300;
        let launch = || {
            let store = AcesoStore::launch(AcesoConfig::small()).unwrap();
            preload_aceso(&store, YcsbWorkload::preload_keys(200), 64);
            store
        };
        let stream = || YcsbWorkload::new(YcsbKind::A, 200, 0.99, 64, 0, 0xace50);

        let store = launch();
        let mut clients = clients(&AcesoEngine::new(Arc::clone(&store)), 1);
        let blocking = window(&store.cluster, &mut clients, |clients| {
            turns(clients, &mut [stream()], 0..OPS, |opno, c, req| {
                dispatch(c, &req, opno as u64).unwrap()
            })
        });
        store.shutdown();

        let store = launch();
        let (coro, overlap) = coro_window(
            &store.cluster,
            Executor::new(),
            vec![(store.client().unwrap(), stream())],
            OPS,
            |_, _, _, r| r.unwrap(),
        );
        store.shutdown();

        assert_eq!(overlap.peak_inflight, 1);
        assert_eq!(blocking.records.len(), OPS);
        assert_eq!(coro.records.len(), OPS);
        for (n, (b, c)) in blocking.records.iter().zip(&coro.records).enumerate() {
            // `OpRecord`'s Debug prints every field: kind, rtts, verbs,
            // cas, rpcs, read/write bytes, retries and the batch shape.
            assert_eq!(format!("{b:?}"), format!("{c:?}"), "op {n}");
        }
        assert_eq!(blocking.node_fg, coro.node_fg);
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
