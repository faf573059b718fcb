//! Turns what a pass measured into the named metrics of `spec`.
//!
//! Two clocks, named in every metric: `sim_*`, `rtts_*`, `wire_*`,
//! `space_*` and every count are modeled or counted; `host_*`, `setup_s`,
//! `recover_*_ms` and the `*_ns`/`*_gbps` probes are host time.

use crate::probes::Probes;
use crate::run::{recovery_host_stages, Cycle, Pass};
use crate::stats::{
    by_position, drift_share, iqr_share, least, mean, median, pick, ratios_to_position, sorted,
};
use aceso_rdma::stats::VerbSnapshot;
use aceso_rdma::{CostModel, OpKind, OpRecord, PhaseMeasurement};
use std::time::Instant;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind a median or percentile (0: a plain count or ratio).
    pub samples: usize,
    /// IQR ÷ median of those samples, where the metric is a host median.
    pub spread: Option<f64>,
    /// Second-half vs first-half median of those samples (`host_kops`).
    pub drift: Option<f64>,
}

/// A metric without samples of its own. A value that does not exist (a
/// ratio over nothing) is reported as 0: the result line must hold numbers.
fn plain(name: &'static str, value: f64) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        samples: 0,
        spread: None,
        drift: None,
    }
}

fn of_samples(name: &'static str, xs: &[f64]) -> Metric {
    Metric {
        samples: xs.len(),
        spread: Some(iqr_share(xs)),
        ..plain(name, median(xs))
    }
}

/// The four throughput bounds of `aceso_rdma::cost`, recomputed from its
/// public constants and the per-node verb demand. The model reports only
/// the tightest; their minimum must equal `sim_mops` (a self-check that
/// this copy and the model have not drifted apart).
#[derive(Clone, Copy, Debug)]
pub struct Bounds {
    pub client: f64,
    pub iops: f64,
    pub atomics: f64,
    pub bw: f64,
}

impl Bounds {
    pub fn compute(cost: &CostModel, m: &PhaseMeasurement) -> Bounds {
        let ops = m.records.len().max(1) as f64;
        let mut b = Bounds {
            client: f64::INFINITY,
            iops: f64::INFINITY,
            atomics: f64::INFINITY,
            bw: f64::INFINITY,
        };
        for (i, d) in m.node_fg.iter().enumerate() {
            let batched = d.batched.min(d.verbs()) as f64;
            let verbs = d.verbs() as f64 - batched * (1.0 - cost.batched_verb_cost);
            let atomics = (d.cas + d.faa) as f64;
            let bg = m.bg_bytes_per_sec.get(i).copied().unwrap_or(0.0);
            let bw_avail = (cost.node_bw - bg).max(cost.node_bw * 0.02);
            if verbs > 0.0 {
                b.iops = b.iops.min(cost.node_iops / (verbs / ops));
            }
            if atomics > 0.0 {
                b.atomics = b.atomics.min(cost.node_atomic_iops / (atomics / ops));
            }
            if d.bytes() > 0 {
                b.bw = b.bw.min(bw_avail / (d.bytes() as f64 / ops));
            }
        }
        let base_us = |r: &OpRecord| {
            r.rtts as f64 * cost.rtt_us
                + r.rpcs as f64 * cost.rpc_rtt_us
                + r.batched_verbs.saturating_sub(r.batches) as f64 * cost.post_us
                + (r.read_bytes as f64 + r.write_bytes as f64) / cost.node_bw * 1e6
        };
        let mean_base = if m.records.is_empty() {
            cost.rtt_us
        } else {
            m.records.iter().map(base_us).sum::<f64>() / m.records.len() as f64
        };
        let depth = m.pipeline_depth.unwrap_or(cost.client_pipeline);
        b.client = m.n_clients as f64 * depth / (mean_base * 1e-6);
        b
    }
}

fn mean_of(records: &[OpRecord], kind: Option<OpKind>, f: impl Fn(&OpRecord) -> f64) -> f64 {
    let xs: Vec<f64> = records
        .iter()
        .filter(|r| kind.is_none_or(|k| r.kind == k))
        .map(f)
        .collect();
    mean(&xs)
}

fn cycle_values(pass: &Pass, f: impl Fn(&Cycle) -> f64) -> Vec<f64> {
    pass.fault.cycles().map(f).collect()
}

/// What a kill/recover cycle typically costs: `across` the fault blocks at
/// each cycle position, averaged over the positions. Positions differ by
/// design (the column that is down rotates, and on the write workloads each
/// burst leaves the next recovery more to rebuild), so a plain median over
/// all cycles would be decided by the few samples of the middle position;
/// the scatter reported is that of the cycles around their own position's
/// median.
fn of_cycles(
    name: &'static str,
    pass: &Pass,
    across: fn(&[f64]) -> f64,
    f: impl Fn(&Cycle) -> f64,
) -> Metric {
    let blocks: Vec<Vec<f64>> = pass
        .fault
        .blocks
        .iter()
        .map(|b| b.iter().map(&f).collect())
        .collect();
    let ratios = ratios_to_position(&blocks);
    Metric {
        samples: ratios.len(),
        spread: Some(iqr_share(&ratios)),
        ..plain(name, mean(&by_position(&blocks, across)))
    }
}

/// The 14 end-to-end metrics, from the untraced pass.
pub fn end_to_end(pass: &Pass) -> Vec<Metric> {
    let m = &pass.steady.phase;
    // The report's percentiles are `latency_samples` picked at
    // `⌊(n−1)·q⌋`; taking them from it saves sorting millions of samples twice.
    let report = pass.cost.report(m);
    let seg = pass.segment_kops();
    let space = &pass.steady.space;
    let dlat = pass
        .cost
        .latency_samples(&pass.fault.phase, Some(OpKind::Search));
    let sampled = |name, value| Metric {
        samples: m.records.len(),
        ..plain(name, value)
    };
    // Host seconds per served read, cycle by cycle; its reciprocal is a
    // rate. The least across the blocks, not the median: every degraded
    // read waits for an MN server thread to be scheduled, and whatever else
    // the host runs only ever makes that wait longer, so runs agree on the
    // blocks' best time and not on their typical one (in ten runs of
    // `write_mix` the one scattered by 9 %, the other by 21 %).
    let degraded = of_cycles("degraded_host_kops", pass, least, |c| {
        c.degraded_secs / c.served as f64
    });
    vec![
        of_samples("setup_s", &pass.setup_secs),
        plain("sim_mops", report.mops),
        sampled("sim_p50_us", report.latency.p50_us),
        sampled("sim_p99_us", report.latency.p99_us),
        plain("rtts_per_op", mean_of(&m.records, None, |r| r.rtts as f64)),
        plain(
            "wire_bytes_per_op",
            mean_of(&m.records, None, |r| (r.read_bytes + r.write_bytes) as f64),
        ),
        // All measured ops over all their host seconds, not the median
        // segment: the sandbox's CPU runs at one of two speeds for seconds
        // at a time, and a median of segments reports whichever speed more
        // than half of them met, so it jumps from run to run where the
        // whole phase's rate moves by the share of slow seconds.
        Metric {
            value: pass.host_kops(),
            drift: Some(drift_share(&seg)),
            ..of_samples("host_kops", &seg)
        },
        plain(
            "space_amp",
            space.total() as f64 / space.valid.max(1) as f64,
        ),
        of_cycles("recover_index_ms", pass, median, |c| {
            c.report.index_tier_ms()
        }),
        of_cycles("recover_total_ms", pass, median, |c| c.report.total_ms()),
        of_cycles("recover_wall_ms", pass, median, |c| c.recover_wall_ms),
        plain(
            "sim_recover_index_ms",
            median(&cycle_values(pass, |c| c.report.index_tier_net_ms())),
        ),
        Metric {
            samples: dlat.len(),
            ..plain("degraded_sim_p50_us", pick(&dlat, 0.50))
        },
        // How many of the served reads need reconstruction depends on
        // which column is down, which is one more way the positions differ.
        Metric {
            value: if degraded.value > 0.0 {
                1.0 / degraded.value / 1e3
            } else {
                0.0
            },
            ..degraded
        },
    ]
}

/// High-water mark of this process's resident set (0 where `/proc` has no
/// `VmHWM`). Worth watching: in the reference sandbox page faults cost
/// about ten times more once the resident set passes some 650 MB, which
/// shows up as recoveries and set-ups that are suddenly several times
/// slower, so the workloads are sized to stay under it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn sum_nodes(nodes: &[VerbSnapshot]) -> VerbSnapshot {
    nodes.iter().fold(VerbSnapshot::default(), |a, s| a.plus(s))
}

/// The per-layer metrics, from the traced pass; `untraced_kops` is the
/// untraced pass's `host_kops`, the reference of
/// `driver.trace_overhead_pct`.
pub fn per_layer(pass: &Pass, untraced_kops: f64, probes: &Probes) -> Vec<Metric> {
    let m = &pass.steady.phase;
    let ops = pass.steady.ops.max(1) as f64;
    let kop = ops / 1e3;
    let recs = &m.records;
    let all = |f: fn(&OpRecord) -> f64| mean_of(recs, None, f);
    let hot = |f: fn(&VerbSnapshot) -> u64| m.node_fg.iter().map(f).max().unwrap_or(0) as f64 / ops;

    let t = Instant::now();
    let report = pass.cost.report(m);
    let report_ns = t.elapsed().as_nanos() as f64 / recs.len().max(1) as f64;
    let bounds = Bounds::compute(&pass.cost, m);
    let search = pass.cost.latency_samples(m, Some(OpKind::Search));
    let update = pass.cost.latency_samples(m, Some(OpKind::Update));

    let steady = pass
        .steady_counters
        .as_ref()
        .expect("traced pass has counters");
    let totals = pass
        .final_counters
        .as_ref()
        .expect("traced pass has counters");
    let total = |name: &str| totals.counter(name).unwrap_or(0) as f64;
    let (hits, misses) = (
        steady.get("client.cache.hits") as f64,
        steady.get("client.cache.misses") as f64,
    );

    let host_ns = |update: bool| -> Vec<f64> {
        sorted(
            &pass
                .steady
                .samples
                .iter()
                .filter(|s| s.0 == update)
                .map(|s| s.3.duration_since(s.2).as_nanos() as f64)
                .collect::<Vec<_>>(),
        )
    };
    let (search_ns, update_ns) = (host_ns(false), host_ns(true));

    // What the layers below the client state machine should cost per op,
    // from their probes: every verb at its probe price, and per index
    // probe the scan's decode work beyond its two bucket reads.
    let fg = sum_nodes(&m.node_fg);
    let est_fabric = (fg.reads as f64 * probes.read_1k_ns
        + fg.writes as f64 * probes.write_1k_ns
        + (fg.cas + fg.faa) as f64 * probes.cas_ns)
        / ops;
    let est_index =
        probes.fingerprint_ns + misses / ops * (probes.scan_ns - 2.0 * probes.read_1k_ns).max(0.0);
    let seg = pass.segment_kops();
    let host_ns_per_op = 1e6 / pass.host_kops();

    let ticks = &pass.steady.ticks;
    let tick_ms: Vec<f64> = sorted(&ticks.iter().map(|t| t.host_ms).collect::<Vec<_>>());
    let ck = |f: fn(&aceso_core::ckpt::CkptReport) -> f64| -> f64 {
        ticks.iter().flat_map(|t| &t.reports).map(f).sum()
    };
    let busy_ms = |i: usize| pass.steady.server_busy_ns[i] as f64 / 1e6;

    let cyc =
        |f: fn(&aceso_core::RecoveryReport) -> f64| median(&cycle_values(pass, |c| f(&c.report)));
    let unattributed = median(&cycle_values(pass, |c| {
        c.recover_wall_ms
            - recovery_host_stages(&c.report)
                .iter()
                .map(|s| s.1)
                .sum::<f64>()
    }));
    let (served, blocked): (u64, u64) = pass
        .fault
        .cycles()
        .fold((0, 0), |(s, b), c| (s + c.served, b + c.blocked));
    let space = &pass.steady.space;

    vec![
        plain("verbs.per_op", all(|r| r.verbs as f64)),
        plain("verbs.batched_per_op", all(|r| r.batched_verbs as f64)),
        plain("verbs.batches_per_op", all(|r| r.batches as f64)),
        plain("verbs.cas_per_op", all(|r| r.cas as f64)),
        plain("verbs.rpcs_per_op", all(|r| r.rpcs as f64)),
        plain("verbs.read_bytes_per_op", all(|r| r.read_bytes as f64)),
        plain("verbs.write_bytes_per_op", all(|r| r.write_bytes as f64)),
        plain("verbs.hot_node_verbs_per_op", hot(|d| d.verbs())),
        plain("verbs.hot_node_atomics_per_op", hot(|d| d.cas + d.faa)),
        plain("verbs.hot_node_bytes_per_op", hot(|d| d.bytes())),
        plain("verbs.read_1k_ns", probes.read_1k_ns),
        plain("verbs.write_1k_ns", probes.write_1k_ns),
        plain("verbs.cas_ns", probes.cas_ns),
        plain("verbs.read_256k_gbps", probes.read_256k_gbps),
        // 0 where the phase puts no demand on the resource (the read
        // workloads issue no atomics), so the bound does not exist.
        plain("cost.bound_client_mops", bounds.client / 1e6),
        plain("cost.bound_iops_mops", bounds.iops / 1e6),
        plain("cost.bound_atomics_mops", bounds.atomics / 1e6),
        plain("cost.bound_bw_mops", bounds.bw / 1e6),
        plain("cost.utilization", report.utilization),
        plain("cost.report_ns_per_record", report_ns),
        plain("cq.depth", m.pipeline_depth.unwrap_or(0.0)),
        plain("cq.virtual_us_per_op", pass.steady.cq_virtual_us / ops),
        plain("cq.advance_ns", probes.cq_advance_ns),
        plain("rt.polls_per_op", steady.get("rt.polls") as f64 / ops),
        plain("rt.wakeups_per_op", steady.get("rt.wakeups") as f64 / ops),
        plain("rt.peak_inflight", pass.steady.rt_peak_inflight as f64),
        plain("rt.spawn_poll_ns", probes.rt_spawn_poll_ns),
        plain("rt.run_host_ms", pass.steady.rt_run_secs * 1e3),
        plain("index.fingerprint_ns", probes.fingerprint_ns),
        plain("index.scan_ns", probes.scan_ns),
        plain("index.read_slot_ns", probes.read_slot_ns),
        plain("index.cas_ns", probes.index_cas_ns),
        plain("index.snapshot_gbps", probes.snapshot_gbps),
        plain("cache.hit_rate", hits / (hits + misses).max(1.0)),
        plain(
            "cache.evictions_per_kop",
            steady.get("client.cache.evictions") as f64 / kop,
        ),
        plain(
            "cache.invalidations_per_kop",
            steady.get("client.cache.invalidations") as f64 / kop,
        ),
        plain(
            "client.search_rtts",
            mean_of(recs, Some(OpKind::Search), |r| r.rtts as f64),
        ),
        plain(
            "client.update_rtts",
            mean_of(recs, Some(OpKind::Update), |r| r.rtts as f64),
        ),
        plain(
            "client.search_verbs",
            mean_of(recs, Some(OpKind::Search), |r| r.verbs as f64),
        ),
        plain(
            "client.update_verbs",
            mean_of(recs, Some(OpKind::Update), |r| r.verbs as f64),
        ),
        plain("client.sim_search_p50_us", pick(&search, 0.50)),
        plain("client.sim_search_p99_us", pick(&search, 0.99)),
        plain("client.sim_update_p50_us", pick(&update, 0.50)),
        plain("client.sim_update_p99_us", pick(&update, 0.99)),
        plain(
            "client.cas_retries_per_kop",
            all(|r| r.retries as f64) * 1e3,
        ),
        plain(
            "client.retry_exhausted",
            steady.get("client.retry.exhausted") as f64,
        ),
        plain("client.degraded_reads", total("client.search.degraded")),
        plain("client.search_host_p50_ns", pick(&search_ns, 0.50)),
        plain("client.search_host_p99_ns", pick(&search_ns, 0.99)),
        plain("client.update_host_p50_ns", pick(&update_ns, 0.50)),
        plain("client.update_host_p99_ns", pick(&update_ns, 0.99)),
        plain("client.est_fabric_ns_per_op", est_fabric),
        plain("client.est_index_ns_per_op", est_index),
        plain(
            "client.residual_ns_per_op",
            host_ns_per_op - est_fabric - est_index,
        ),
        plain("alloc.rpcs_per_kop", all(|r| r.rpcs as f64) * 1e3),
        plain("alloc.blocks_closed", pass.steady.blocks_closed as f64),
        plain("blockalloc.alloc_free_ns", probes.alloc_free_ns),
        plain("server.rpc_busy_ms", busy_ms(0)),
        plain("server.encode_busy_ms", busy_ms(1)),
        plain("server.ckpt_send_busy_ms", busy_ms(2)),
        plain("server.ckpt_recv_busy_ms", busy_ms(3)),
        plain("ckpt.rounds", ticks.len() as f64),
        plain("ckpt.tick_host_ms_p50", pick(&tick_ms, 0.50)),
        plain("ckpt.tick_host_ms_max", pick(&tick_ms, 1.0)),
        plain(
            "ckpt.stall_share",
            tick_ms.iter().sum::<f64>() / 1e3 / pass.steady.seg_secs.iter().sum::<f64>(),
        ),
        plain(
            "ckpt.compress_ratio",
            ck(|r| r.raw_len as f64) / ck(|r| r.compressed_len as f64).max(1.0),
        ),
        plain("ckpt.copy_xor_ms", ck(|r| r.copy_xor_us) / 1e3),
        plain("ckpt.compress_ms", ck(|r| r.compress_us) / 1e3),
        plain("ckpt.decompress_ms", ck(|r| r.decompress_us) / 1e3),
        plain("ckpt.apply_xor_ms", ck(|r| r.apply_xor_us) / 1e3),
        plain("codec.compress_sparse_gbps", probes.compress_sparse_gbps),
        plain(
            "codec.decompress_sparse_gbps",
            probes.decompress_sparse_gbps,
        ),
        plain("codec.compress_dense_gbps", probes.compress_dense_gbps),
        plain("erasure.xor_gbps", probes.xor_gbps),
        plain("erasure.xcode_encode_gbps", probes.xcode_encode_gbps),
        plain(
            "erasure.xcode_reconstruct2_gbps",
            probes.xcode_reconstruct2_gbps,
        ),
        plain("erasure.rs_encode_gbps", probes.rs_encode_gbps),
        plain("erasure.rs_reconstruct2_gbps", probes.rs_reconstruct2_gbps),
        plain("recovery.meta_ms", cyc(|r| r.read_meta_ms)),
        plain("recovery.ckpt_ms", cyc(|r| r.read_ckpt_ms)),
        plain("recovery.lblock_ms", cyc(|r| r.recover_lblock_ms)),
        plain("recovery.rblock_ms", cyc(|r| r.read_rblock_ms)),
        plain("recovery.scan_kv_ms", cyc(|r| r.scan_kv_ms)),
        plain("recovery.old_lblock_ms", cyc(|r| r.recover_old_lblock_ms)),
        plain("recovery.old_lblock_cpu_ms", cyc(|r| r.old_lblock_cpu_ms)),
        plain("recovery.parity_ms", cyc(|r| r.parity_ms)),
        plain(
            "recovery.net_bytes",
            cyc(|r| {
                (r.meta_bytes
                    + r.ckpt_bytes
                    + r.lblock_net_bytes
                    + r.rblock_net_bytes
                    + r.parity_net_bytes) as f64
            }),
        ),
        plain("recovery.kv_scanned", cyc(|r| r.kv_count as f64)),
        plain("recovery.lblocks", cyc(|r| r.lblock_count as f64)),
        plain("recovery.rblocks", cyc(|r| r.rblock_count as f64)),
        plain("recovery.unattributed_ms", unattributed),
        plain(
            "recovery.scrub_host_ms",
            median(&cycle_values(pass, |c| c.scrub_ms)),
        ),
        plain(
            "degraded.blocked_share",
            blocked as f64 / (served + blocked).max(1) as f64,
        ),
        plain("space.valid_bytes", space.valid as f64),
        plain("space.redundancy_bytes", space.redundancy as f64),
        plain("space.delta_bytes", space.delta as f64),
        plain("space.data_allocated_bytes", space.data_allocated as f64),
        plain(
            "driver.trace_overhead_pct",
            (untraced_kops - pass.host_kops()) / untraced_kops * 100.0,
        ),
        plain("driver.segment_spread_pct", iqr_share(&seg) * 100.0),
        plain("driver.drift_pct", drift_share(&seg) * 100.0),
        plain("driver.peak_rss_mb", peak_rss_mb()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        kind: OpKind,
        rtts: u32,
        cas: u32,
        batched: (u32, u32),
        bytes: (u32, u32),
    ) -> OpRecord {
        OpRecord {
            kind,
            rtts,
            verbs: rtts + batched.1,
            cas,
            rpcs: u32::from(cas > 1),
            read_bytes: bytes.0,
            write_bytes: bytes.1,
            retries: 0,
            batch_max: batched.1,
            batches: batched.0,
            batched_verbs: batched.1,
        }
    }

    fn demand(reads: u64, writes: u64, cas: u64, batched: u64, bytes: (u64, u64)) -> VerbSnapshot {
        VerbSnapshot {
            reads,
            writes,
            cas,
            faa: 0,
            rpcs: 0,
            read_bytes: bytes.0,
            write_bytes: bytes.1,
            batched,
        }
    }

    /// The recomputed bounds agree with the model on whichever resource
    /// binds: client round trips, IOPS, atomics, bandwidth.
    #[test]
    fn tightest_recomputed_bound_is_the_models_mops() {
        let cost = CostModel::default();
        let records: Vec<OpRecord> = (0..1000)
            .map(|i| {
                if i % 2 == 0 {
                    record(OpKind::Search, 1, 0, (1, 2), (1040, 0))
                } else {
                    record(OpKind::Update, 3, 1 + i % 3, (2, 5), (64, 1100))
                }
            })
            .collect();
        let cases = [
            // (clients, depth, node demand)
            (
                184,
                None,
                vec![demand(900, 800, 300, 1200, (500_000, 400_000)); 5],
            ), // atomics or iops
            (
                2,
                None,
                vec![demand(900, 800, 300, 1200, (500_000, 400_000)); 5],
            ), // client
            (
                1,
                Some(20.0),
                vec![demand(900, 800, 300, 1200, (500_000, 400_000)); 5],
            ),
            (
                184,
                None,
                vec![
                    demand(2000, 0, 0, 0, (900_000_000, 0)),
                    demand(10, 0, 0, 0, (1000, 0)),
                ],
            ), // bw
            (184, None, vec![demand(4_000_000, 0, 1, 0, (4_000_000, 0))]), // iops
        ];
        let mut binding = Vec::new();
        for (n_clients, pipeline_depth, node_fg) in cases {
            let m = PhaseMeasurement {
                n_clients,
                bg_bytes_per_sec: vec![1.0e8; node_fg.len()],
                node_fg,
                records: records.clone(),
                pipeline_depth,
            };
            let b = Bounds::compute(&cost, &m);
            let mops = cost.report(&m).mops;
            let tightest = b.client.min(b.iops).min(b.atomics).min(b.bw) / 1e6;
            assert!((tightest - mops).abs() <= mops * 1e-12, "{b:?} vs {mops}");
            binding.push(cost.report(&m).bottleneck.label());
        }
        binding.sort();
        binding.dedup();
        assert!(
            binding.len() >= 3,
            "cases should bind on several resources: {binding:?}"
        );
    }
}
