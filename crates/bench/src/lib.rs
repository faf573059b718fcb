//! Benchmark harness behind the `bench` binary: the CI-diffed slices and
//! the paper's tables and figures.
//!
//! Every performance figure follows the same recipe:
//!
//! 1. run a *real* multi-client phase against an engine through the
//!    `FtEngine` seam (all protocol code executes, contention and retries
//!    happen for real; the clients are logical and take turns on one
//!    thread, so the phase is a pure function of its streams),
//! 2. collect the measured verb profile (per-node demand + per-op records),
//! 3. feed it to the calibrated NIC cost model
//!    ([`aceso_rdma::CostModel`]), which converts it into the
//!    throughput/latency numbers the paper reports.
//!
//! The split makes figures deterministic and hardware-independent: the
//! *demand* is measured from real execution, the *capacity* is the modeled
//! ConnectX-3 NIC. `EXPERIMENTS.md` records the calibration.

#![forbid(unsafe_code)]

pub mod clients;
pub mod elastic;
pub mod figs;
pub mod harness;
pub mod quick;
pub mod skew;
pub mod table3;

pub use harness::{BenchScale, Phase};

/// One CI slice `bench <name>` can run.
pub struct Slice {
    /// CLI name.
    pub name: &'static str,
    /// Default output path.
    pub out: &'static str,
    /// One-paragraph help.
    pub about: &'static str,
    /// The flag without which the file is not written (`quick`'s `--json`);
    /// `None` writes it on every run.
    pub write_flag: Option<&'static str>,
    /// The run, from a seed to `(table printed, file body)`; both are pure
    /// functions of the seed.
    pub run: fn(u64) -> (String, String),
}

/// A slice whose file is the table it prints.
fn text(table: String) -> (String, String) {
    (table.clone(), table)
}

/// Every slice, in `usage` order.
pub const SLICES: &[Slice] = &[
    Slice {
        name: "quick",
        out: "BENCH_PR4.json",
        about: "Runs the deterministic YCSB-A slice + one MN-crash recovery and \
                prints the metrics snapshot; the file (modeled/counted values \
                only) is written only with --json.",
        write_flag: Some("--json"),
        run: |seed| {
            let q = quick::run_quick(seed);
            (q.render(), q.to_json())
        },
    },
    Slice {
        name: "clients",
        out: "results/clients.txt",
        about: "Sweeps coroutine clients per OS thread (doubling from 1) until \
                the modeled NIC binds.",
        write_flag: None,
        run: |seed| text(clients::clients_sweep(seed).render()),
    },
    Slice {
        name: "elastic",
        out: "results/elastic.txt",
        about: "Measures client throughput between every step of an online join \
                and drain migration.",
        write_flag: None,
        run: |seed| text(elastic::elastic_slice(seed).render()),
    },
    Slice {
        name: "skew",
        out: "results/skew.txt",
        about: "Sweeps the Zipfian skew of a read-only slice over the bounded \
                client index cache.",
        write_flag: None,
        run: |seed| text(skew::skew_sweep(seed).render()),
    },
    Slice {
        name: "table3",
        out: "results/table3.txt",
        about: "Runs the three-way fault-tolerance head-to-head (aceso vs fusee \
                vs swarm, plus r=2 budget rows) through the FtEngine seam.",
        write_flag: None,
        run: |seed| text(table3::table3_slice(seed).render()),
    },
];

/// Formats bytes in a human unit.
pub fn fmt_bytes(x: u64) -> String {
    if x >= 1 << 30 {
        format!("{:.2} GiB", x as f64 / (1u64 << 30) as f64)
    } else if x >= 1 << 20 {
        format!("{:.2} MiB", x as f64 / (1u64 << 20) as f64)
    } else if x >= 1 << 10 {
        format!("{:.2} KiB", x as f64 / (1u64 << 10) as f64)
    } else {
        format!("{x} B")
    }
}
