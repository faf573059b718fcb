//! Figures 10 & 11 — macrobenchmarks: YCSB A–D and Twitter cluster mixes
//! (paper §4.3).

use crate::figs::FigureOutput;
use crate::harness::{self, BenchScale, System};
use aceso_workloads::twitter::TwitterWorkload;
use aceso_workloads::ycsb::YcsbKind;
use aceso_workloads::{Request, TwitterCluster, YcsbWorkload};

const THETA: f64 = 0.99;

/// Mops of `(aceso, fusee)` on the same per-client streams over a
/// preloaded YCSB keyspace; Aceso pays live checkpoint interference.
pub fn run_pair<W: Iterator<Item = Request>>(
    scale: BenchScale,
    make_stream: impl Fn(u32) -> W,
) -> (f64, f64) {
    let [a, f] =
        System::pair().map(|sys| harness::ycsb_phase(&sys, scale, &make_stream).report().mops);
    (a, f)
}

/// Figure 10: YCSB A/B/C/D throughput.
pub fn fig10(scale: BenchScale) -> FigureOutput {
    let mut text = String::from(
        "YCSB throughput (Mops), Zipfian θ=0.99\nworkload |   Aceso |   FUSEE | ratio\n",
    );
    for kind in YcsbKind::ALL {
        let (a, f) = run_pair(scale, |t| {
            YcsbWorkload::new(kind, scale.keys, THETA, scale.value_len, t, 42)
        });
        text.push_str(&format!(
            "{:8} | {:7.2} | {:7.2} | {:4.2}x\n",
            kind.name(),
            a,
            f,
            a / f
        ));
    }
    FigureOutput {
        id: "Figure 10",
        text,
    }
}

/// Figure 11: Twitter cluster mixes.
pub fn fig11(scale: BenchScale) -> FigureOutput {
    let mut text = String::from(
        "Twitter-trace throughput (Mops), synthetic cluster mixes\ncluster   |   Aceso |   FUSEE | ratio\n",
    );
    for cluster in TwitterCluster::ALL {
        let (a, f) = run_pair(scale, |t| {
            TwitterWorkload::new(cluster, scale.keys, THETA, scale.value_len, t, 42)
        });
        text.push_str(&format!(
            "{:9} | {:7.2} | {:7.2} | {:4.2}x\n",
            cluster.name(),
            a,
            f,
            a / f
        ));
    }
    FigureOutput {
        id: "Figure 11",
        text,
    }
}
