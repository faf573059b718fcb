//! Figure 1 — the motivation experiments (paper §2.4/§2.5).
//!
//! (a) FUSEE throughput and average CAS count per op as the index replica
//!     count grows 1 → 3: write ops degrade with each extra CAS.
//! (b) KV request throughput while the MNs periodically transmit index
//!     checkpoints of growing size: reads lose bandwidth.

use crate::figs::FigureOutput;
use crate::harness::{self, BenchScale, System};
use aceso_core::ClientTuning;
use aceso_engines::substrate::ReplConfig;
use aceso_workloads::Op;

const OPS: [Op; 4] = [Op::Insert, Op::Update, Op::Search, Op::Delete];

/// Figure 1(a): replica-count sweep on FUSEE.
pub fn fig1a(scale: BenchScale) -> FigureOutput {
    let mut text = String::from(
        "FUSEE microbenchmark vs index replica count (throughput Mops | avg CAS/op)\n",
    );
    text.push_str(
        "replicas |      INSERT       |      UPDATE       |      SEARCH       |      DELETE\n",
    );
    for r in 1..=3usize {
        let mut row = format!("{r:8} |");
        for op in OPS {
            let sys = System::fusee(ReplConfig {
                replicas: r,
                ..harness::bench_fusee_config()
            });
            let phase = harness::micro_phase(&sys, scale, op, |_| vec![]);
            let rep = phase.report();
            let avg_cas = phase.mean(None, |x| x.cas);
            row.push_str(&format!(" {:7.2} | {:4.2} cas |", rep.mops, avg_cas));
        }
        text.push_str(&row);
        text.push('\n');
    }
    FigureOutput {
        id: "Figure 1(a)",
        text,
    }
}

/// Figure 1(b): checkpoint-size interference sweep on the four op types.
pub fn fig1b(scale: BenchScale) -> FigureOutput {
    let mut text = String::from(
        "Aceso op throughput (Mops) while transmitting checkpoints of given size every 500 ms\n",
    );
    text.push_str("ckpt size |  INSERT |  UPDATE |  SEARCH |  DELETE\n");
    for ckpt_mb in [0u64, 64, 128, 256, 512] {
        // Synthetic interference: `ckpt_mb` MiB per 500 ms on each node.
        let rate = (ckpt_mb << 20) as f64 / 0.5;
        let mut row = format!("{ckpt_mb:6} MB |");
        for op in OPS {
            let sys = System::aceso(harness::bench_aceso_config(), ClientTuning::default());
            let phase = harness::micro_phase(&sys, scale, op, |s| vec![rate; s.eng().columns()]);
            row.push_str(&format!(" {:7.2} |", phase.report().mops));
        }
        text.push_str(&row);
        text.push('\n');
    }
    FigureOutput {
        id: "Figure 1(b)",
        text,
    }
}
