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
pub mod skew;
pub mod table3;

pub use clients::{clients_sweep, ClientsSweep, SweepRow};
pub use elastic::{elastic_slice, ElasticPhase, ElasticSlice};
pub use harness::{BenchScale, Phase};
pub use skew::{skew_sweep, SkewRow, SkewSweep};
pub use table3::{table3_slice, Table3Row, Table3Slice};

/// Formats a Mops number for tables.
pub fn fmt_mops(x: f64) -> String {
    format!("{x:7.2}")
}

/// Formats microseconds for tables.
pub fn fmt_us(x: f64) -> String {
    format!("{x:7.1}")
}

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
