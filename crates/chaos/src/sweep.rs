//! The crash-matrix axis: (operation × injection site × MN-kill timing ×
//! reclamation state), with a coverage report, phase timers, a
//! counterexample minimizer, and seeded soak schedules.

use crate::axis::{run_cell, Axis, Out, Report, Sink};
use crate::cell::{full_matrix, Cell, InjectionSite, KillTiming, ReclaimState};
use crate::invariants::INVARIANT_CLASSES;
use crate::runner::{self, SweepFacts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The crash-matrix axis (`chaos sweep`, `soak`, and bare `cell` ids).
pub struct Sweep;

impl Axis for Sweep {
    type Cell = Cell;
    type Facts = SweepFacts;
    const NAME: &'static str = "sweep";
    const CELLS_ARE: &'static str = "cells";
    const CLEAN: &'static str = "all invariants held in every explored cell";

    fn cells() -> Vec<Cell> {
        full_matrix()
    }

    /// `chaos analyze` traces the sweep's own schedule (the CI subset or
    /// the full matrix, with sweep-identical seeds), not a fixed slice.
    fn traced() -> Vec<Cell> {
        Vec::new()
    }

    fn run(cell: Cell, seed: u64, sink: Sink, out: &mut Out<Self>) -> Result<(), String> {
        runner::run(cell, seed, sink, out)
    }

    fn summary(o: &[Out<Self>]) -> String {
        let count = |f: fn(&SweepFacts) -> bool| o.iter().filter(|o| f(&o.facts)).count();
        format!(
            "injections fired: {}   MNs killed: {}   clients crashed: {}",
            count(|f| f.injection_fired),
            count(|f| f.mn_killed),
            count(|f| f.client_crashed)
        )
    }

    /// The coverage report: per-axis explored-cell counts, how often armed
    /// faults actually fired, and (wall-clock, so stdout only) where the
    /// time went.
    fn head(report: &Report<Self>, wall_clock: bool) -> String {
        let o = &report.outcomes;
        let mut s = format!("chaos report: {} cells, seed {:#x}", o.len(), report.seed);
        if wall_clock {
            let ms: u128 = o.iter().map(|o| o.duration_ms).sum();
            s.push_str(&format!(", {:.1}s", ms as f64 / 1000.0));
        }
        s.push_str(&format!("\n  {}\n", Self::summary(o)));

        let mut axis = |title: &str, key: fn(&Cell) -> String| {
            let mut counts: BTreeMap<String, (usize, usize)> = BTreeMap::new();
            for o in o {
                let e = counts.entry(key(&o.cell)).or_default();
                e.0 += 1;
                e.1 += usize::from(!o.ok());
            }
            s.push_str(&format!("  coverage by {title}:\n"));
            for (k, (run, bad)) in counts {
                s.push_str(&format!("    {k:<24} {run:>4} cells"));
                if bad > 0 {
                    s.push_str(&format!("  {bad} VIOLATING"));
                }
                s.push('\n');
            }
        };
        axis("operation", |c| c.op.to_string());
        axis("injection site", |c| c.site.to_string());
        axis("kill timing", |c| c.kill.to_string());
        axis("reclaim state", |c| c.reclaim.to_string());

        if wall_clock {
            let sum = |f: &dyn Fn(&runner::CellPhases) -> f64| -> f64 {
                o.iter().map(|o| f(&o.facts.phases)).sum()
            };
            s.push_str(&format!(
                "  phase wall-time: setup {:.1}s  ckpt {:.1}s  op {:.1}s  recovery {:.1}s\n",
                sum(&|p| p.setup_ms) / 1e3,
                sum(&|p| p.ckpt_ms) / 1e3,
                sum(&|p| p.op_ms) / 1e3,
                sum(&|p| p.recovery_ms) / 1e3,
            ));
            s.push_str("  invariant check wall-time:\n");
            let [oracle, liveness, ..] = INVARIANT_CLASSES;
            for (i, name) in [oracle, liveness, "engine check"].iter().enumerate() {
                s.push_str(&format!(
                    "    {name:<24} {:>8.1} ms\n",
                    sum(&|p| p.invariants_ms[i])
                ));
            }
        }
        s
    }

    /// Drop the ageing, then the injection, then the kill.
    fn simplify(cell: Cell) -> Vec<Cell> {
        let candidates = [
            Cell {
                reclaim: ReclaimState::Fresh,
                ..cell
            },
            Cell {
                site: InjectionSite::None,
                ..cell
            },
            Cell {
                kill: KillTiming::None,
                ..cell
            },
        ];
        candidates.into_iter().filter(|c| *c != cell).collect()
    }
}

/// Runs seeded random cells from the full matrix until `duration` elapses
/// (at least one cell always runs).
pub fn soak(seed: u64, duration: Duration, mut progress: impl FnMut(&Out<Sweep>)) -> Report<Sweep> {
    let matrix = full_matrix();
    let mut rng = StdRng::seed_from_u64(seed);
    let deadline = Instant::now() + duration;
    let mut outcomes = Vec::new();
    loop {
        let cell = matrix[rng.gen_range(0..matrix.len())];
        let out = run_cell::<Sweep>(cell, rng.next_u64(), None);
        progress(&out);
        outcomes.push(out);
        if Instant::now() >= deadline {
            break;
        }
    }
    Report::new(seed, outcomes)
}
