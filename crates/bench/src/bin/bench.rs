//! `bench` — every benchmark entry point of the repo: the CI-diffed
//! slices (`quick`, `table3`, `skew`, `clients`, `elastic`; see `usage`)
//! and the paper's tables and figures (`bench fig`, one
//! [`aceso_bench::figs::FIGURES`] table).
//!
//! `bench quick` runs a deterministic YCSB-A slice (four logical clients, round-robin
//! in one thread, like `chaos analyze`'s traced workload) followed by one
//! MN crash + tiered recovery, with an [`aceso_obs::Registry`] recorder
//! installed so the run doubles as an end-to-end test of the
//! observability layer. Prints the metrics snapshot as a table; with
//! `--json`, additionally writes `BENCH_PR4.json`.
//!
//! Everything in the JSON file is *modeled or counted*, never wall-clock:
//! op latency percentiles come from [`aceso_rdma::CostModel`] over the
//! measured verb records, throughput from the same model over per-node
//! demand, and recovery phase times are the `*_net_ms` columns of
//! [`aceso_core::RecoveryReport`]. Two runs with the same seed therefore
//! produce byte-identical files — CI diffs them.

use aceso_bench::figs::{Figure, FIGURES};
use aceso_bench::BenchScale;
use aceso_core::{recover_mn, AcesoConfig, AcesoStore};
use aceso_obs::{JsonWriter, Obs, Registry, Snapshot};
use aceso_rdma::{OpKind, PhaseMeasurement, SimCq};
use aceso_rt::Executor;
use aceso_workloads::ycsb::YcsbKind;
use aceso_workloads::{value_for, Op, YcsbWorkload};
use std::sync::Arc;

const CLIENTS: usize = 4;
const KEYS: u64 = 200;
const OPS: usize = 2000;
const VALUE_LEN: usize = 64;
/// Simulated closed-loop client count fed to the cost model (the paper
/// runs 184 clients on 23 CNs).
const SIM_CLIENTS: usize = 184;
/// Column whose MN is crashed and recovered.
const KILL_COL: usize = 1;
const DEFAULT_SEED: u64 = 0xace50;
/// Coroutine tasks in the quick run's pipelined slice.
const RT_TASKS: usize = 8;
/// Ops each of those tasks issues.
const RT_OPS_PER_TASK: usize = 50;

fn usage() -> ! {
    eprintln!(
        "usage: bench quick [--json] [--seed <hex>] [--out <path>]\n\
         \n\
         Runs the deterministic YCSB-A slice + one MN-crash recovery.\n\
         --json writes BENCH_PR4.json (byte-identical across runs of the\n\
         same seed); --out overrides the output path.\n\
         \n\
         usage: bench clients [--seed <hex>] [--out <path>]\n\
         \n\
         Sweeps coroutine clients per OS thread (doubling from 1) until\n\
         the modeled NIC binds; writes the table to results/clients.txt\n\
         (or --out).\n\
         \n\
         usage: bench elastic [--seed <hex>] [--out <path>]\n\
         \n\
         Measures client throughput between every step of an online\n\
         join and drain migration; writes the table to\n\
         results/elastic.txt (or --out).\n\
         \n\
         usage: bench table3 [--seed <hex>] [--out <path>]\n\
         \n\
         Runs the three-way fault-tolerance head-to-head (aceso vs\n\
         fusee vs swarm, plus r=2 budget rows) through the FtEngine\n\
         seam; writes the table to results/table3.txt (or --out).\n\
         The output is a pure function of the seed — CI diffs it.\n\
         \n\
         usage: bench fig [--scale quick|default|big] [--out DIR] (<name>... | --all)\n\
         \n\
         Regenerates the paper's tables and figures; each is printed and\n\
         written to <DIR>/<name>.txt (default results/).\n\
         names: {}",
        figure_names()
    );
    std::process::exit(2);
}

fn figure_names() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    names.join(" ")
}

/// `bench fig`: runs the named entries of [`FIGURES`] (all with `--all`).
fn run_figures(args: &[String]) {
    let mut scale = BenchScale::default();
    let mut out_dir = String::from("results");
    let mut wanted: Vec<&Figure> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| BenchScale::named(v))
                    .unwrap_or_else(|| usage());
            }
            "--out" => out_dir = it.next().unwrap_or_else(|| usage()).clone(),
            "--all" => wanted = FIGURES.iter().collect(),
            name => match FIGURES.iter().find(|(n, _)| *n == name) {
                Some(fig) => wanted.push(fig),
                None => {
                    eprintln!("unknown experiment: {name}\nnames: {}", figure_names());
                    std::process::exit(2);
                }
            },
        }
    }
    if wanted.is_empty() {
        usage();
    }
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    for (name, run) in wanted {
        let t = std::time::Instant::now();
        let out = run(scale);
        out.print();
        eprintln!("[{name} took {:.1}s]", t.elapsed().as_secs_f64());
        std::fs::write(
            format!("{out_dir}/{name}.txt"),
            format!("===== {} =====\n{}", out.id, out.text),
        )
        .expect("write result");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str);
    if cmd == Some("fig") {
        return run_figures(&args[1..]);
    }
    let mut json = false;
    let mut seed = DEFAULT_SEED;
    let mut out = match cmd {
        Some("quick") => "BENCH_PR4.json".to_string(),
        Some("clients") => "results/clients.txt".to_string(),
        Some("elastic") => "results/elastic.txt".to_string(),
        Some("skew") => "results/skew.txt".to_string(),
        Some("table3") => "results/table3.txt".to_string(),
        _ => usage(),
    };
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" if cmd == Some("quick") => json = true,
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage());
                let v = v.trim_start_matches("0x");
                seed = u64::from_str_radix(v, 16).unwrap_or_else(|_| usage());
            }
            "--out" => out = it.next().unwrap_or_else(|| usage()).clone(),
            _ => usage(),
        }
    }

    match cmd {
        Some("quick") => {
            let quick = run_quick(seed);
            print!("{}", quick.render());
            if json {
                std::fs::write(&out, quick.to_json()).expect("write json");
                println!("wrote {out}");
            }
        }
        Some("clients") => {
            let sweep = aceso_bench::clients_sweep(seed);
            print!("{}", sweep.render());
            std::fs::write(&out, sweep.render()).expect("write sweep");
            println!("wrote {out}");
        }
        Some("elastic") => {
            let slice = aceso_bench::elastic_slice(seed);
            print!("{}", slice.render());
            std::fs::write(&out, slice.render()).expect("write slice");
            println!("wrote {out}");
        }
        Some("skew") => {
            let sweep = aceso_bench::skew_sweep(seed);
            print!("{}", sweep.render());
            std::fs::write(&out, sweep.render()).expect("write sweep");
            println!("wrote {out}");
        }
        Some("table3") => {
            let slice = aceso_bench::table3_slice(seed);
            print!("{}", slice.render());
            std::fs::write(&out, slice.render()).expect("write slice");
            println!("wrote {out}");
        }
        _ => usage(),
    }
}

/// Everything one `bench quick` run measured.
struct Quick {
    seed: u64,
    mops: f64,
    bottleneck: String,
    /// (kind label, p50, p99, p999) — modeled, µs.
    latency: Vec<(&'static str, f64, f64, f64)>,
    /// (kind label, mean rtts, mean batches, mean batched verbs) per op —
    /// the shape of the doorbell-batched pipeline, straight from the
    /// measured [`aceso_rdma::OpRecord`]s.
    pipeline: Vec<(&'static str, f64, f64, f64)>,
    /// Measured coroutine overlap of the RT slice: (depth, virtual µs,
    /// peak in-flight ops on the one executor thread).
    rt_depth: (f64, f64, usize),
    recovery: aceso_core::RecoveryReport,
    snapshot: Snapshot,
}

fn run_quick(seed: u64) -> Quick {
    let cfg = AcesoConfig::small();
    let cost = cfg.cost;
    let store = AcesoStore::launch(cfg).expect("launch");

    // Preload from an uninstrumented client so the recorded counters
    // cover exactly the measured slice.
    let mut loader = store.client().expect("client");
    for key in YcsbWorkload::preload_keys(KEYS) {
        loader
            .insert(&key, &value_for(&key, 0, VALUE_LEN))
            .expect("preload");
    }
    loader.close_open_blocks().expect("close");

    let registry = Registry::new();
    store.install_recorder(Arc::clone(&registry));
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        clients.push(store.client().expect("client"));
    }
    // One synchronized checkpoint round so recovery reads a real
    // (compressed, non-empty) checkpoint and ckpt.* counters light up.
    store.checkpoint_tick().expect("ckpt");

    // The measured slice: single-threaded round-robin, so the schedule —
    // and with it every verb count — is a pure function of the seed.
    store.cluster.reset_traffic();
    for c in &clients {
        c.dm.reset_stats();
    }
    let mut streams: Vec<YcsbWorkload> = (0..CLIENTS)
        .map(|i| YcsbWorkload::new(YcsbKind::A, KEYS, 0.99, VALUE_LEN, i as u32, seed))
        .collect();
    for opno in 0..OPS {
        let i = opno % CLIENTS;
        let req = streams[i].next().expect("ycsb streams are infinite");
        let val = value_for(&req.key, opno as u64, req.value_len);
        let res = match req.op {
            Op::Search => clients[i].search(&req.key).map(|_| ()),
            Op::Update => clients[i].update(&req.key, &val),
            Op::Insert => clients[i].insert(&req.key, &val),
            Op::Delete => clients[i].delete(&req.key).map(|_| ()),
        };
        res.unwrap_or_else(|e| panic!("op {opno} ({:?}): {e}", req.op));
    }
    let mut records = Vec::with_capacity(OPS);
    for c in &mut clients {
        c.flush_bitmaps().expect("flush");
        records.extend(c.dm.take_ops().records);
    }
    let node_fg: Vec<_> = store
        .cluster
        .nodes()
        .iter()
        .map(|n| n.traffic.snapshot())
        .collect();
    let bg = vec![0.0; node_fg.len()];
    let m = PhaseMeasurement {
        n_clients: SIM_CLIENTS,
        node_fg,
        bg_bytes_per_sec: bg,
        records,
        pipeline_depth: None,
    };
    let rep = cost.report(&m);
    let latency = [
        ("all", None),
        ("search", Some(OpKind::Search)),
        ("update", Some(OpKind::Update)),
    ]
    .into_iter()
    .map(|(label, filter)| {
        let s = cost.latency_samples(&m, filter);
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
        let rs = m.records.iter().filter(|r| r.kind == kind);
        let (mut n, mut rtts, mut batches, mut bverbs) = (0u32, 0u64, 0u64, 0u64);
        for r in rs {
            n += 1;
            rtts += r.rtts as u64;
            batches += r.batches as u64;
            bverbs += r.batched_verbs as u64;
        }
        let d = n.max(1) as f64;
        (
            label,
            rtts as f64 / d,
            batches as f64 / d,
            bverbs as f64 / d,
        )
    })
    .collect();

    // A short coroutine-pipelined slice: RT_TASKS resumable clients on
    // one executor thread over a shared virtual CQ. Measures the overlap
    // depth the runtime actually achieves and exercises the rt.* metrics
    // end to end (both land in the JSON below).
    let cq = Arc::new(SimCq::new());
    let mut exec = Executor::with_obs(Obs::on(Arc::clone(&registry)));
    for t in 0..RT_TASKS {
        let mut client = store.client().expect("client");
        client.dm.attach_cq(Arc::clone(&cq));
        let mut stream = YcsbWorkload::new(
            YcsbKind::A,
            KEYS,
            0.99,
            VALUE_LEN,
            (CLIENTS + t) as u32,
            seed,
        );
        exec.spawn(async move {
            for opno in 0..RT_OPS_PER_TASK {
                let req = stream.next().expect("ycsb streams are infinite");
                let val = value_for(&req.key, opno as u64, req.value_len);
                let res = match req.op {
                    Op::Search => client.search_async(&req.key).await.map(|_| ()),
                    Op::Update => client.update_async(&req.key, &val).await,
                    Op::Insert => client.insert_async(&req.key, &val).await,
                    Op::Delete => client.delete_async(&req.key).await.map(|_| ()),
                };
                res.unwrap_or_else(|e| panic!("rt op {opno} ({:?}): {e}", req.op));
            }
            client.dm.detach_cq();
        });
    }
    let stuck = exec.run_until_idle(|| cq.advance_next());
    assert_eq!(stuck, 0, "rt slice wedged with {stuck} tasks in flight");
    let rt_depth = (
        if cq.now_us() > 0.0 {
            cq.busy_us() / cq.now_us()
        } else {
            0.0
        },
        cq.now_us(),
        exec.peak_inflight(),
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
        rt_depth,
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
    fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "bench quick: seed {:#x}, {} ycsb-a ops over {} clients, {} keys\n",
            self.seed, OPS, CLIENTS, KEYS
        ));
        s.push_str(&format!(
            "  modeled throughput {:.2} Mops (bottleneck {})\n",
            self.mops, self.bottleneck
        ));
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
        let (depth, vus, peak) = self.rt_depth;
        s.push_str(&format!(
            "  rt slice: {RT_TASKS} tasks × {RT_OPS_PER_TASK} ops on one thread, \
             measured depth {depth:.2} over {vus:.0} virtual µs (peak inflight {peak})\n"
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
    fn to_json(&self) -> String {
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
        w.f64_field("depth", self.rt_depth.0);
        w.f64_field("virtual_us", self.rt_depth.1);
        w.u64_field("peak_inflight", self.rt_depth.2 as u64);
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
        w.u64_field("lblock_count", r.lblock_count as u64);
        w.u64_field("rblock_count", r.rblock_count as u64);
        w.u64_field(
            "net_bytes",
            r.meta_bytes + r.ckpt_bytes + r.lblock_net_bytes + r.rblock_net_bytes
                + r.parity_net_bytes,
        );
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
