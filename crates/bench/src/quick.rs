//! `bench quick` — the deterministic YCSB-A slice (four logical clients,
//! round-robin in one thread, like `chaos analyze`'s traced workload), a
//! short coroutine-pipelined slice, then one MN crash + tiered recovery,
//! with an [`aceso_obs::Registry`] recorder installed so the run doubles
//! as an end-to-end test of the observability layer. Renders the metrics
//! snapshot as a table and `BENCH_PR4.json`.
//!
//! Everything in the JSON file is *modeled or counted*, never wall-clock:
//! op latency percentiles come from [`aceso_rdma::CostModel`] over the
//! measured verb records, throughput from the same model over per-node
//! demand, and recovery phase times are the `*_net_ms` columns of
//! [`aceso_core::RecoveryReport`]. Two runs with the same seed therefore
//! produce byte-identical files — CI diffs them.

use crate::harness;
use aceso_core::{recover_mn, AcesoConfig, AcesoEngine, AcesoStore};
use aceso_obs::{JsonWriter, Obs, Registry, Snapshot};
use aceso_rdma::{OpKind, OpRecord};
use aceso_rt::Executor;
use aceso_workloads::ycsb::YcsbKind;
use aceso_workloads::YcsbWorkload;
use std::sync::Arc;

const CLIENTS: usize = 4;
const KEYS: u64 = 200;
const OPS: usize = 2000;
const VALUE_LEN: usize = 64;
/// Column whose MN is crashed and recovered.
const KILL_COL: usize = 1;
/// Coroutine tasks in the quick run's pipelined slice.
const RT_TASKS: usize = 8;
/// Ops each of those tasks issues.
const RT_OPS_PER_TASK: usize = 50;

/// Everything one `bench quick` run measured.
pub struct Quick {
    seed: u64,
    mops: f64,
    bottleneck: String,
    /// (kind label, p50, p99, p999) — modeled, µs.
    latency: Vec<(&'static str, f64, f64, f64)>,
    /// (kind label, mean rtts, mean batches, mean batched verbs) per op —
    /// the shape of the doorbell-batched pipeline, straight from the
    /// measured [`aceso_rdma::OpRecord`]s.
    pipeline: Vec<(&'static str, f64, f64, f64)>,
    /// Measured coroutine overlap of the RT slice.
    rt: harness::Overlap,
    recovery: aceso_core::RecoveryReport,
    snapshot: Snapshot,
}

/// Runs the slice.
pub fn run_quick(seed: u64) -> Quick {
    let store = AcesoStore::launch(AcesoConfig::small()).expect("launch");

    // Preload from an uninstrumented client so the recorded counters
    // cover exactly the measured slice.
    harness::preload_aceso(&store, YcsbWorkload::preload_keys(KEYS), VALUE_LEN);

    let registry = Registry::new();
    store.install_recorder(Arc::clone(&registry));
    let mut clients = harness::clients(&AcesoEngine::new(Arc::clone(&store)), CLIENTS);
    // One synchronized checkpoint round so recovery reads a real
    // (compressed, non-empty) checkpoint and ckpt.* counters light up.
    store.checkpoint_tick().expect("ckpt");

    // The measured slice: single-threaded round-robin, so the schedule —
    // and with it every verb count — is a pure function of the seed.
    let stream = |i: usize| YcsbWorkload::new(YcsbKind::A, KEYS, 0.99, VALUE_LEN, i as u32, seed);
    let mut streams: Vec<_> = (0..CLIENTS).map(stream).collect();
    let window = harness::window(&store.cluster, &mut clients, |clients| {
        harness::turns(clients, &mut streams, 0..OPS, |opno, c, req| {
            harness::dispatch(c, &req, opno as u64)
                .unwrap_or_else(|e| panic!("op {opno} ({:?}): {e}", req.op));
        });
        for c in clients {
            c.quiesce().expect("flush");
        }
    });
    let phase = window.measured(harness::SIM_CLIENTS, vec![], None);
    let rep = phase.report();
    let latency = [
        ("all", None),
        ("search", Some(OpKind::Search)),
        ("update", Some(OpKind::Update)),
    ]
    .into_iter()
    .map(|(label, filter)| {
        let s = phase.cost.latency_samples(&phase.m, filter);
        (label, pct(&s, 0.50), pct(&s, 0.99), pct(&s, 0.999))
    })
    .collect();
    let pipeline = [
        ("search", OpKind::Search),
        ("update", OpKind::Update),
        ("insert", OpKind::Insert),
    ]
    .into_iter()
    .map(|(label, kind)| {
        let mean = |f: fn(&OpRecord) -> u32| phase.mean(Some(kind), f);
        (
            label,
            mean(|r| r.rtts),
            mean(|r| r.batches),
            mean(|r| r.batched_verbs),
        )
    })
    .collect();

    // A short coroutine-pipelined slice: RT_TASKS resumable clients on
    // one executor thread over a shared virtual CQ. Measures the overlap
    // depth the runtime actually achieves and exercises the rt.* metrics
    // end to end (both land in the JSON below).
    let tasks = (0..RT_TASKS)
        .map(|t| (store.client().expect("client"), stream(CLIENTS + t)))
        .collect();
    let exec = Executor::with_obs(Obs::on(Arc::clone(&registry)));
    let (_, rt) = harness::coro_window(
        &store.cluster,
        exec,
        tasks,
        RT_OPS_PER_TASK,
        |_, opno, req, r| r.unwrap_or_else(|e| panic!("rt op {opno} ({:?}): {e}", req.op)),
    );

    // One MN crash + full tiered recovery (Meta → Index → Block →
    // parity); phase spans land in the registry via the store recorder.
    assert!(store.kill_mn(KILL_COL), "node already dead");
    let recovery = recover_mn(&store, KILL_COL).expect("recovery");

    let snapshot = registry.snapshot();
    store.shutdown();
    Quick {
        seed,
        mops: rep.mops,
        bottleneck: rep.bottleneck.label(),
        latency,
        pipeline,
        rt,
        recovery,
        snapshot,
    }
}

/// Percentile by the cost model's deterministic pick rule: the sample at
/// index `⌊(len−1)·q⌋` of the ascending-sorted distribution.
fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

impl Quick {
    /// The stdout table.
    pub fn render(&self) -> String {
        let mut s = format!(
            "bench quick: seed {:#x}, {OPS} ycsb-a ops over {CLIENTS} clients, {KEYS} keys\n  \
             modeled throughput {:.2} Mops (bottleneck {})\n",
            self.seed, self.mops, self.bottleneck
        );
        for (label, p50, p99, p999) in &self.latency {
            s.push_str(&format!(
                "  latency[{label}] p50 {p50:.1} µs, p99 {p99:.1} µs, p999 {p999:.1} µs\n"
            ));
        }
        for (label, rtts, batches, bverbs) in &self.pipeline {
            s.push_str(&format!(
                "  pipeline[{label}] mean rtts {rtts:.2}, batches {batches:.2}, \
                 batched verbs {bverbs:.2}\n"
            ));
        }
        s.push_str(&format!(
            "  rt slice: {RT_TASKS} tasks × {RT_OPS_PER_TASK} ops on one thread, \
             measured depth {:.2} over {:.0} virtual µs (peak inflight {})\n",
            self.rt.depth, self.rt.virtual_us, self.rt.peak_inflight
        ));
        let r = &self.recovery;
        s.push_str(&format!(
            "  recovery of col {KILL_COL}: meta {:.3} ms, index {:.3} ms, parity {:.3} ms \
             (modeled net; {} KVs scanned, {} local + {} remote new blocks)\n",
            r.meta_net_ms,
            r.index_tier_net_ms() - r.meta_net_ms,
            r.parity_net_ms,
            r.kv_count,
            r.lblock_count,
            r.rblock_count,
        ));
        s.push_str("\nmetrics snapshot:\n");
        s.push_str(&self.snapshot.render_table());
        s
    }

    /// `BENCH_PR4.json` — modeled/counted values only, so the file is a
    /// pure function of the seed (schema `aceso.bench.quick.v1`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.str_field("schema", "aceso.bench.quick.v1");
        w.u64_field("seed", self.seed);
        w.begin_object_key("workload");
        w.str_field("kind", "ycsb-a");
        w.u64_field("clients", CLIENTS as u64);
        w.u64_field("keys", KEYS);
        w.u64_field("ops", OPS as u64);
        w.u64_field("value_len", VALUE_LEN as u64);
        w.end_object();
        w.begin_object_key("throughput");
        w.f64_field("mops", self.mops);
        w.str_field("bottleneck", &self.bottleneck);
        w.end_object();
        w.begin_object_key("latency_us");
        for (label, p50, p99, p999) in &self.latency {
            w.begin_object_key(label);
            w.f64_field("p50", *p50);
            w.f64_field("p99", *p99);
            w.f64_field("p999", *p999);
            w.end_object();
        }
        w.end_object();
        w.begin_object_key("pipeline");
        for (label, rtts, batches, bverbs) in &self.pipeline {
            w.begin_object_key(label);
            w.f64_field("mean_rtts", *rtts);
            w.f64_field("mean_batches", *batches);
            w.f64_field("mean_batched_verbs", *bverbs);
            w.end_object();
        }
        w.end_object();
        // The coroutine slice: virtual-clock values only, so still a pure
        // function of the seed.
        w.begin_object_key("pipeline_depth");
        w.u64_field("tasks", RT_TASKS as u64);
        w.u64_field("ops_per_task", RT_OPS_PER_TASK as u64);
        w.f64_field("depth", self.rt.depth);
        w.f64_field("virtual_us", self.rt.virtual_us);
        w.u64_field("peak_inflight", self.rt.peak_inflight as u64);
        w.end_object();
        let r = &self.recovery;
        w.begin_object_key("recovery");
        w.f64_field("meta_net_ms", r.meta_net_ms);
        w.f64_field("ckpt_net_ms", r.ckpt_net_ms);
        w.f64_field("lblock_net_ms", r.lblock_net_ms);
        w.f64_field("rblock_net_ms", r.rblock_net_ms);
        w.f64_field("index_tier_net_ms", r.index_tier_net_ms());
        w.f64_field("parity_net_ms", r.parity_net_ms);
        w.u64_field("kv_scanned", r.kv_count as u64);
        w.u64_field("kv_routed", r.kv_routed as u64);
        w.u64_field("kv_won", r.kv_won as u64);
        w.u64_field("lblock_count", r.lblock_count as u64);
        w.u64_field("rblock_count", r.rblock_count as u64);
        w.u64_field("scan_rpcs", r.scan_rpcs);
        w.u64_field("scan_lines", r.scan_lines);
        w.u64_field("rblock_net_bytes", r.rblock_net_bytes);
        w.u64_field("net_bytes", r.net_bytes());
        w.end_object();
        // Counters are exact event counts (never timings), so the whole
        // section is reproducible; histograms are wall-clock and stay out.
        w.begin_object_key("counters");
        for (name, v) in &self.snapshot.counters {
            w.u64_field(name, *v);
        }
        w.end_object();
        w.end_object();
        let mut s = w.finish();
        s.push('\n');
        s
    }
}
