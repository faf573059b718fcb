//! Figures 8 & 9 — microbenchmark throughput and P50/P99 latency,
//! Aceso vs FUSEE, for INSERT / UPDATE / SEARCH / DELETE (paper §4.2).

use crate::figs::FigureOutput;
use crate::harness::{self, BenchScale, Phase, System};
use aceso_rdma::OpKind;
use aceso_workloads::Op;

fn op_kind(op: Op) -> OpKind {
    match op {
        Op::Insert => OpKind::Insert,
        Op::Update => OpKind::Update,
        Op::Search => OpKind::Search,
        Op::Delete => OpKind::Delete,
    }
}

/// Runs one micro phase per op type for both systems — the cyclic sweep,
/// cold for any cache once a client's keys outnumber its entries — then
/// UPDATE and SEARCH again on the hot stream ([`harness::hot_phase`]);
/// returns `(row label, op, aceso, fusee)` per row. Aceso runs with live
/// checkpoint interference at the default interval.
pub fn micro_phases(scale: BenchScale) -> Vec<(String, Op, Phase, Phase)> {
    let cold = [Op::Insert, Op::Update, Op::Search, Op::Delete].map(|op| (op, false));
    let hot = [Op::Update, Op::Search].map(|op| (op, true));
    cold.into_iter()
        .chain(hot)
        .map(|(op, hot)| {
            let [aceso, fusee] = System::pair().map(|sys| match hot {
                false => harness::micro_phase(&sys, scale, op, |s| s.ckpt_bg()),
                true => harness::hot_phase(&sys, scale, op),
            });
            let stream = if hot { " (hot)" } else { "" };
            (format!("{}{stream}", op_kind(op).name()), op, aceso, fusee)
        })
        .collect()
}

/// Figure 8: throughput with coefficients normalized to FUSEE.
pub fn fig8(scale: BenchScale) -> FigureOutput {
    let mut text = String::from(
        "Microbenchmark throughput (Mops): cyclic sweep, then Zipfian θ=0.99 (hot)\n\
         op           |   Aceso |   FUSEE | Aceso/FUSEE\n",
    );
    for (label, _, a, f) in micro_phases(scale) {
        let (ar, fr) = (a.report(), f.report());
        let prof = |p: &Phase| {
            format!(
                "verbs {:.1} cas {:.1} bytes {:.0} rtts {:.1}",
                p.mean(None, |x| x.verbs),
                p.mean(None, |x| x.cas),
                p.mean(None, |x| x.read_bytes + x.write_bytes),
                p.mean(None, |x| x.rtts),
            )
        };
        text.push_str(&format!(
            "{label:12} | {:7.2} | {:7.2} | {:10.2}x   [aceso {} @{} | fusee {} @{}]\n",
            ar.mops,
            fr.mops,
            ar.mops / fr.mops,
            prof(&a),
            ar.bottleneck.label(),
            prof(&f),
            fr.bottleneck.label(),
        ));
    }
    FigureOutput {
        id: "Figure 8",
        text,
    }
}

/// Figure 9: P50/P99 latencies.
pub fn fig9(scale: BenchScale) -> FigureOutput {
    let mut text = String::from(
        "Microbenchmark latency (µs): cyclic sweep, then Zipfian θ=0.99 (hot)\n\
         op           | Aceso P50 | Aceso P99 | FUSEE P50 | FUSEE P99\n",
    );
    for (label, op, a, f) in micro_phases(scale) {
        let (al, fl) = (a.latency_for(op_kind(op)), f.latency_for(op_kind(op)));
        text.push_str(&format!(
            "{label:12} | {:9.1} | {:9.1} | {:9.1} | {:9.1}\n",
            al.p50_us, al.p99_us, fl.p50_us, fl.p99_us
        ));
    }
    FigureOutput {
        id: "Figure 9",
        text,
    }
}
