//! The benchmark's contract: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root is this
//! table rendered by `describe`; a unit test keeps the two equal.

use crate::json::{obj, Value};

/// Seconds one run measures for, frozen here because the modeled metrics
/// are a function of the op counts and the op counts scale with it.
pub const RUN_SECONDS: u64 = 8;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which clock a metric is read from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// Modeled or counted: a pure function of the seed on one commit, so
    /// two commits compare exactly; between seeds it moves a little.
    Exact,
    /// Host time of this Rust code; carries sandbox noise.
    Host,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Exact => "exact",
            Clock::Host => "host",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. At least three times the spread
    /// (IQR ÷ median over ten seeds) of the workload that scatters most.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        clock,
        bound,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 14] = [
    e2e("setup_s", "s", Lower, Clock::Host, 0.25),
    e2e("sim_mops", "Mops", Higher, Clock::Exact, 0.02),
    e2e("sim_p50_us", "sim_us", Lower, Clock::Exact, 0.07),
    e2e("sim_p99_us", "sim_us", Lower, Clock::Exact, 0.07),
    e2e("rtts_per_op", "count", Lower, Clock::Exact, 0.01),
    e2e("wire_bytes_per_op", "B", Lower, Clock::Exact, 0.01),
    e2e("host_kops", "kops/s", Higher, Clock::Host, 0.25),
    e2e("space_amp", "x", Lower, Clock::Exact, 0.10),
    e2e("recover_index_ms", "ms", Lower, Clock::Host, 0.25),
    e2e("recover_total_ms", "ms", Lower, Clock::Host, 0.25),
    e2e("recover_wall_ms", "ms", Lower, Clock::Host, 0.25),
    e2e("sim_recover_index_ms", "sim_ms", Lower, Clock::Exact, 0.01),
    e2e("degraded_sim_p50_us", "sim_us", Lower, Clock::Exact, 0.05),
    e2e("degraded_host_kops", "kops/s", Higher, Clock::Host, 0.25),
];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "read_hot",
        why: "YCSB-C, Zipf 0.99 over 2048 keys that fit the 4096-entry index cache: 1-RTT cached SEARCH; bypasses index probe, commit, alloc, erasure, codec",
    },
    Workload {
        name: "read_cold",
        why: "uniform reads over 100000 keys, 24x the index cache: nearly every op misses, probes two buckets and evicts; a cache gain must not show here",
    },
    Workload {
        name: "write_mix",
        why: "YCSB-A 50/50 over 20000 keys with driver-ticked checkpoints: commit, allocation, offline X-Code encoding, reclamation and the LZ codec all run",
    },
    Workload {
        name: "coro_mix",
        why: "the write_mix stream on 64 coroutine clients of one executor and one completion queue, each key with one writer: isolates aceso-rt and CQ cost",
    },
    Workload {
        name: "mn_recover",
        why: "update-only, with checkpoints, around nine cycles of kill, degraded reads, recover, full read-back and scrub: erasure decode, block scan, index rebuild",
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn l(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Per-layer metrics, `layer.metric`. `*_ns` and `*_gbps` are host-time
/// probes of a layer's public functions on fixed inputs; the rest are
/// counted (or, for `*_ms`/`*_host_*`, host-timed) in the traced pass.
pub const PER_LAYER: [Layer; 101] = [
    // aceso-rdma::verbs
    l("verbs.per_op", "count", Lower),
    l("verbs.batched_per_op", "count", Higher),
    l("verbs.batches_per_op", "count", Lower),
    l("verbs.cas_per_op", "count", Lower),
    l("verbs.rpcs_per_op", "count", Lower),
    l("verbs.read_bytes_per_op", "B", Lower),
    l("verbs.write_bytes_per_op", "B", Lower),
    l("verbs.hot_node_verbs_per_op", "count", Lower),
    l("verbs.hot_node_atomics_per_op", "count", Lower),
    l("verbs.hot_node_bytes_per_op", "B", Lower),
    l("verbs.read_1k_ns", "ns", Lower),
    l("verbs.write_1k_ns", "ns", Lower),
    l("verbs.cas_ns", "ns", Lower),
    l("verbs.read_256k_gbps", "GB/s", Higher),
    // aceso-rdma::cost
    l("cost.bound_client_mops", "Mops", Higher),
    l("cost.bound_iops_mops", "Mops", Higher),
    l("cost.bound_atomics_mops", "Mops", Higher),
    l("cost.bound_bw_mops", "Mops", Higher),
    l("cost.utilization", "ratio", Lower),
    l("cost.report_ns_per_record", "ns", Lower),
    // aceso-rdma::cq
    l("cq.depth", "count", Higher),
    l("cq.virtual_us_per_op", "sim_us", Lower),
    l("cq.advance_ns", "ns", Lower),
    // aceso-rt
    l("rt.polls_per_op", "count", Lower),
    l("rt.wakeups_per_op", "count", Lower),
    l("rt.peak_inflight", "count", Higher),
    l("rt.spawn_poll_ns", "ns", Lower),
    l("rt.run_host_ms", "ms", Lower),
    // aceso-index
    l("index.fingerprint_ns", "ns", Lower),
    l("index.scan_ns", "ns", Lower),
    l("index.read_slot_ns", "ns", Lower),
    l("index.cas_ns", "ns", Lower),
    l("index.snapshot_gbps", "GB/s", Higher),
    // aceso-core::cache
    l("cache.hit_rate", "ratio", Higher),
    l("cache.evictions_per_kop", "count", Lower),
    l("cache.invalidations_per_kop", "count", Lower),
    // aceso-core::client
    l("client.search_rtts", "count", Lower),
    l("client.update_rtts", "count", Lower),
    l("client.search_verbs", "count", Lower),
    l("client.update_verbs", "count", Lower),
    l("client.sim_search_p50_us", "sim_us", Lower),
    l("client.sim_search_p99_us", "sim_us", Lower),
    l("client.sim_update_p50_us", "sim_us", Lower),
    l("client.sim_update_p99_us", "sim_us", Lower),
    l("client.cas_retries_per_kop", "count", Lower),
    l("client.retry_exhausted", "count", Lower),
    l("client.degraded_reads", "count", Lower),
    l("client.search_host_p50_ns", "ns", Lower),
    l("client.search_host_p99_ns", "ns", Lower),
    l("client.update_host_p50_ns", "ns", Lower),
    l("client.update_host_p99_ns", "ns", Lower),
    l("client.est_fabric_ns_per_op", "ns", Lower),
    l("client.est_index_ns_per_op", "ns", Lower),
    l("client.residual_ns_per_op", "ns", Lower),
    // aceso-blockalloc + aceso-core::server
    l("alloc.rpcs_per_kop", "count", Lower),
    l("alloc.blocks_closed", "count", Lower),
    l("blockalloc.alloc_free_ns", "ns", Lower),
    l("server.rpc_busy_ms", "ms", Lower),
    l("server.encode_busy_ms", "ms", Lower),
    l("server.ckpt_send_busy_ms", "ms", Lower),
    l("server.ckpt_recv_busy_ms", "ms", Lower),
    // aceso-core::ckpt + aceso-codec
    l("ckpt.rounds", "count", Lower),
    l("ckpt.tick_host_ms_p50", "ms", Lower),
    l("ckpt.tick_host_ms_max", "ms", Lower),
    l("ckpt.stall_share", "ratio", Lower),
    l("ckpt.compress_ratio", "ratio", Higher),
    l("ckpt.copy_xor_ms", "ms", Lower),
    l("ckpt.compress_ms", "ms", Lower),
    l("ckpt.decompress_ms", "ms", Lower),
    l("ckpt.apply_xor_ms", "ms", Lower),
    l("codec.compress_sparse_gbps", "GB/s", Higher),
    l("codec.decompress_sparse_gbps", "GB/s", Higher),
    l("codec.compress_dense_gbps", "GB/s", Higher),
    // aceso-erasure
    l("erasure.xor_gbps", "GB/s", Higher),
    l("erasure.xcode_encode_gbps", "GB/s", Higher),
    l("erasure.xcode_reconstruct2_gbps", "GB/s", Higher),
    l("erasure.rs_encode_gbps", "GB/s", Higher),
    l("erasure.rs_reconstruct2_gbps", "GB/s", Higher),
    // aceso-core::recovery
    l("recovery.meta_ms", "ms", Lower),
    l("recovery.ckpt_ms", "ms", Lower),
    l("recovery.lblock_ms", "ms", Lower),
    l("recovery.rblock_ms", "ms", Lower),
    l("recovery.scan_kv_ms", "ms", Lower),
    l("recovery.old_lblock_ms", "ms", Lower),
    l("recovery.old_lblock_cpu_ms", "ms", Lower),
    l("recovery.parity_ms", "ms", Lower),
    l("recovery.net_bytes", "B", Lower),
    l("recovery.kv_scanned", "count", Lower),
    l("recovery.lblocks", "count", Lower),
    l("recovery.rblocks", "count", Lower),
    l("recovery.unattributed_ms", "ms", Lower),
    l("recovery.scrub_host_ms", "ms", Lower),
    l("degraded.blocked_share", "ratio", Lower),
    // aceso-core::store
    l("space.valid_bytes", "B", Higher),
    l("space.redundancy_bytes", "B", Lower),
    l("space.delta_bytes", "B", Lower),
    l("space.data_allocated_bytes", "B", Lower),
    // the benchmark driver itself
    l("driver.trace_overhead_pct", "%", Lower),
    l("driver.segment_spread_pct", "%", Lower),
    l("driver.drift_pct", "%", Lower),
    l("driver.peak_rss_mb", "MB", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let strs = |xs: &[&str]| Value::Arr(xs.iter().map(|s| Value::Str((*s).into())).collect());
    let doc = obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        obj([
                            ("name", Value::Str(w.name.into())),
                            ("why", Value::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Value::Str(m.name.into())),
                            ("unit", Value::Str(m.unit.into())),
                            ("better", Value::Str(m.better.label().into())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Value::Str(m.name.into())),
                            ("unit", Value::Str(m.unit.into())),
                            ("better", Value::Str(m.better.label().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    doc.render_pretty(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `BENCHMARK.json` is exactly what `describe` prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, benchmark_json(), "regenerate with `describe`");
    }

    /// The limits the driver refuses a file over, checked before it does.
    #[test]
    fn tables_respect_the_contract_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(COMMAND.len() <= 32 && (1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 << 10);
        let setup = end_to_end("setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
    }
}
