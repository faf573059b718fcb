//! `chaos analyze` — the happens-before race detector driven over the
//! executions the harness already produces.
//!
//! Four stages, all seeded from one master seed:
//!
//! 1. **Traced sweep** — every cell of the (CI or full) crash matrix runs
//!    under a fresh [`aceso_san::Detector`], with the identical per-cell
//!    seeds the plain `sweep` would use, so any reported race replays with
//!    `chaos cell <id> --seed <cell seed>`.
//! 2. **Multi-client YCSB-A trace** — four clients share one store and
//!    interleave a Zipfian 50/50 read/update mix; the detector checks that
//!    every cross-client handoff is ordered by a commit CAS, lock CAS,
//!    FAA, RPC, or barrier edge.
//! 3. **Axis slices** — every other axis' [`Axis::traced`] slice reruns
//!    under the detector (each slice's doc says what it is there to
//!    order): the runtime axis' round-trip-granular interleavings, the
//!    elastic migrator's fence/copy stream against client verbs, every
//!    engine's commit protocol across a fault, and the hot-cache fast
//!    path's revalidating re-reads against the recovery stream.
//! 4. **Liveness + lints** — the mutation self-tests
//!    ([`aceso_san::selftest`]) prove each ordering edge is actually
//!    checked (a weakened edge must produce a report), and the static
//!    protocol lints ([`aceso_san::lint`]) check layout constants and
//!    `CrashPoint` wiring.
//!
//! The run is clean only when all four stages are: zero races, zero
//! detector violations, every self-test live, zero lint findings — and the
//! traced cells still hold their invariants.

use crate::axis::{cell_seeds, chaos_config, run_cell, Axis, Ctx};
use crate::cell::Cell;
use crate::sweep::Sweep;
use aceso_core::AcesoStore;
use aceso_index::IndexWord;
use aceso_san::{lint, selftest, Annotator, Detector, SelftestOutcome};
use aceso_workloads::ycsb::YcsbKind;
use aceso_workloads::{value_for, Op, YcsbWorkload};
use std::sync::Arc;

/// Detector findings for one traced execution (a cell of any axis, or
/// the YCSB interleaving).
#[derive(Clone, Debug)]
pub struct Trace {
    /// What ran: a sweep cell id, `"<axis> <cell id>"`, or the workload.
    pub label: String,
    /// The seed it ran under.
    pub seed: u64,
    /// The axis' facts for the report line (ends in `", "` if non-empty).
    pub note: String,
    /// Events the detector processed.
    pub events: u64,
    /// Rendered races the detector reported.
    pub races: Vec<String>,
    /// Detector violations (misaligned atomics seen in the trace).
    pub detector_violations: Vec<String>,
    /// Invariant violations (or store errors) from the run itself.
    pub cell_violations: Vec<String>,
}

impl Trace {
    fn of(
        det: &Detector,
        label: String,
        seed: u64,
        note: String,
        cell_violations: Vec<String>,
    ) -> Self {
        Trace {
            label,
            seed,
            note,
            events: det.events(),
            races: det.races().iter().map(|r| r.to_string()).collect(),
            detector_violations: det.violations(),
            cell_violations,
        }
    }

    /// `true` when the execution raced nowhere and held its invariants.
    pub fn ok(&self) -> bool {
        self.races.is_empty()
            && self.detector_violations.is_empty()
            && self.cell_violations.is_empty()
    }

    fn findings(&self, indent: &str) -> String {
        let group = |kind: &str, items: &[String]| -> String {
            items
                .iter()
                .map(|i| format!("{indent}{kind}: {i}\n"))
                .collect()
        };
        group("race", &self.races)
            + &group("detector", &self.detector_violations)
            + &group("invariant", &self.cell_violations)
    }

    fn line(&self) -> String {
        format!(
            "  {}: {}{} events, {} races\n{}",
            self.label,
            self.note,
            self.events,
            self.races.len(),
            self.findings("    ")
        )
    }
}

/// Everything one `chaos analyze` run produced.
#[derive(Clone, Debug)]
pub struct AnalyzeReport {
    /// The master seed.
    pub seed: u64,
    /// Per-cell detector findings, in sweep order.
    pub cells: Vec<Trace>,
    /// The YCSB-A trace findings.
    pub ycsb: Trace,
    /// The other axes' traced slices, in axis order.
    pub slices: Vec<Trace>,
    /// Mutation self-test outcomes (detector liveness proof).
    pub selftests: Vec<SelftestOutcome>,
    /// Static protocol lint findings.
    pub lint_violations: Vec<String>,
}

impl AnalyzeReport {
    /// `true` when every stage came back clean.
    pub fn clean(&self) -> bool {
        let mut traces = self.cells.iter().chain([&self.ycsb]).chain(&self.slices);
        traces.all(Trace::ok)
            && self.selftests.iter().all(SelftestOutcome::ok)
            && self.lint_violations.is_empty()
    }

    /// Renders the analyze report.
    pub fn render(&self) -> String {
        let cell_events: u64 = self.cells.iter().map(|c| c.events).sum();
        let racy = self.cells.iter().filter(|c| !c.races.is_empty()).count();
        let broken = self
            .cells
            .iter()
            .filter(|c| !c.cell_violations.is_empty() || !c.detector_violations.is_empty())
            .count();
        let mut s = format!(
            "analyze report: seed {:#x}\n  sweep: {} cells traced, {} events, {} racy cells, {} otherwise-violating cells\n",
            self.seed,
            self.cells.len(),
            cell_events,
            racy,
            broken
        );
        for c in self.cells.iter().filter(|c| !c.ok()) {
            s.push_str(&format!("    cell {} (seed {:#x}):\n", c.label, c.seed));
            s.push_str(&c.findings("      "));
        }
        for t in [&self.ycsb].into_iter().chain(&self.slices) {
            s.push_str(&t.line());
        }
        s.push_str("  detector liveness (mutation self-tests):\n");
        for t in &self.selftests {
            if t.ok() {
                s.push_str(&format!("    {:<24} detected: {}\n", t.name, t.report));
            } else if !t.baseline_clean {
                s.push_str(&format!(
                    "    {:<24} FALSE POSITIVE in baseline: {}\n",
                    t.name, t.report
                ));
            } else {
                s.push_str(&format!("    {:<24} MUTATION UNDETECTED\n", t.name));
            }
        }
        if self.lint_violations.is_empty() {
            s.push_str("  protocol lints: clean\n");
        } else {
            s.push_str(&format!(
                "  protocol lints: {} violations\n",
                self.lint_violations.len()
            ));
            for v in &self.lint_violations {
                s.push_str(&format!("    - {v}\n"));
            }
        }
        s.push_str(if self.clean() {
            "  no unordered conflicting accesses in any traced execution\n"
        } else {
            "  ANALYSIS FOUND PROBLEMS (see above)\n"
        });
        s
    }
}

/// Maps a traced address to its protocol role, so race reports read as
/// "index slot Meta word g3/s12", not bare offsets. All chaos-store nodes
/// share one memory map.
fn annotator() -> Annotator {
    let map = chaos_config().memory_map();
    Box::new(move |_node, off| match map.index.classify_word(off) {
        IndexWord::Atomic { group, slot } => {
            Some(format!("index slot Atomic word g{group}/s{slot}"))
        }
        IndexWord::Meta { group, slot } => Some(format!("index slot Meta word g{group}/s{slot}")),
        IndexWord::IndexVersion => Some("Index Version word".into()),
        IndexWord::OutsideIndex => {
            if let Some((id, rel)) = map.blocks.locate(off) {
                Some(format!(
                    "block {id} +{rel:#x} ({:?})",
                    map.blocks.kind_of(id)
                ))
            } else if off >= map.blocks.meta_base
                && off < map.blocks.meta_base + map.blocks.meta_size()
            {
                Some("alloc-table record area".into())
            } else {
                None
            }
        }
    })
}

/// Runs each `(cell, seed)` of axis `A` under a fresh detector.
/// `progress` is called after each cell (CLI verbosity hook).
pub fn trace_cells<A: Axis>(
    cells: impl IntoIterator<Item = (A::Cell, u64)>,
    mut progress: impl FnMut(&Trace),
) -> Vec<Trace> {
    let traced = cells.into_iter().map(|(cell, seed)| {
        let det = Arc::new(if A::annotated(cell) {
            Detector::with_annotator(annotator())
        } else {
            Detector::new()
        });
        let out = run_cell::<A>(cell, seed, Some(det.clone()));
        let note = A::traced_note(&out);
        let trace = Trace::of(&det, cell.to_string(), seed, note, out.violations);
        progress(&trace);
        trace
    });
    traced.collect()
}

/// Axis `A`'s traced slice, every cell under the master seed.
pub fn trace_slice<A: Axis>(seed: u64) -> Vec<Trace> {
    let mut traces = trace_cells::<A>(A::traced().into_iter().map(|c| (c, seed)), |_| {});
    for t in &mut traces {
        t.label = format!("{} {}", A::NAME, t.label);
    }
    traces
}

const YCSB_CLIENTS: usize = 4;
const YCSB_KEYS: u64 = 200;
const YCSB_OPS: usize = 2000;
const YCSB_VALUE_LEN: usize = 64;

/// Four logical clients interleaving YCSB-A over one store, traced.
///
/// The interleaving is round-robin in a single thread so the schedule is
/// deterministic under the seed; each logical client is a distinct
/// [`aceso_core::AcesoClient`] (own DM client, own trace id), so every
/// cross-client handoff still has to be justified by a happens-before
/// edge. The keyspace and op count are sized to stay well inside fresh
/// blocks (no reclamation) and inside the CI time budget.
pub fn analyze_ycsb(seed: u64) -> Trace {
    let det = Arc::new(Detector::with_annotator(annotator()));
    let mut ops = 0;
    let errors = run_ycsb(&det, seed, &mut ops).unwrap_or_else(|e| vec![e]);
    let note = format!("{YCSB_CLIENTS} clients, {ops} ops, ");
    Trace::of(&det, YcsbKind::A.name().to_string(), seed, note, errors)
}

/// The store errors the interleaving hit (a clean trace has none); `Err`
/// is a setup failure.
fn run_ycsb(det: &Arc<Detector>, seed: u64, ops: &mut usize) -> Result<Vec<String>, String> {
    let store = AcesoStore::launch(chaos_config()).ctx("launch")?;
    store.cluster.install_trace_sink(det.clone());
    let mut clients = (0..YCSB_CLIENTS)
        .map(|_| store.client().ctx("client"))
        .collect::<Result<Vec<_>, _>>()?;
    for key in YcsbWorkload::preload_keys(YCSB_KEYS) {
        let val = value_for(&key, 0, YCSB_VALUE_LEN);
        clients[0].insert(&key, &val).ctx("preload")?;
    }
    store.cluster.trace_barrier();

    let mut errors = Vec::new();
    let mut streams: Vec<YcsbWorkload> = (0..YCSB_CLIENTS)
        .map(|i| YcsbWorkload::new(YcsbKind::A, YCSB_KEYS, 0.99, YCSB_VALUE_LEN, i as u32, seed))
        .collect();
    for opno in 0..YCSB_OPS {
        let i = opno % YCSB_CLIENTS;
        let req = streams[i].next().expect("ycsb streams are infinite");
        let val = value_for(&req.key, opno as u64, req.value_len);
        let res = match req.op {
            Op::Search => clients[i].search(&req.key).map(|_| ()),
            Op::Update => clients[i].update(&req.key, &val),
            Op::Insert => clients[i].insert(&req.key, &val),
            Op::Delete => clients[i].delete(&req.key).map(|_| ()),
        };
        if let Err(e) = res {
            errors.push(format!("op {opno} ({:?}): {e}", req.op));
            if errors.len() >= 8 {
                break;
            }
        }
        *ops += 1;
    }
    store.cluster.trace_barrier();
    store.shutdown();
    Ok(errors)
}

/// Runs all four stages. `progress` follows the traced sweep.
pub fn analyze(cells: &[Cell], seed: u64, progress: impl FnMut(&Trace)) -> AnalyzeReport {
    let seeds = cell_seeds(seed, cells.len());
    AnalyzeReport {
        seed,
        cells: trace_cells::<Sweep>(cells.iter().copied().zip(seeds), progress),
        ycsb: analyze_ycsb(seed),
        slices: crate::each_axis!(trace_slice(seed)).concat(),
        selftests: selftest::run_all(),
        lint_violations: lint::run_all(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{InjectionSite, KillTiming, OpType, ReclaimState};
    use aceso_core::client::CrashPoint;

    fn assert_traced(traces: &[Trace]) {
        for t in traces {
            assert!(t.ok(), "{}: {}", t.label, t.findings(""));
            assert!(t.events > 100, "{}: only {} events", t.label, t.events);
        }
    }

    /// One quiet cell and one crashing cell, both traced: no races, and
    /// the detector actually saw the execution.
    #[test]
    fn traced_cells_are_race_free_and_nonempty() {
        let cell = |op, site| Cell {
            op,
            site,
            kill: KillTiming::None,
            reclaim: ReclaimState::Fresh,
        };
        let cells = [
            cell(OpType::Update, InjectionSite::None),
            cell(
                OpType::Insert,
                InjectionSite::Client(CrashPoint::BeforeCommit),
            ),
        ];
        let seeds = cell_seeds(41, cells.len());
        assert_traced(&trace_cells::<Sweep>(cells.into_iter().zip(seeds), |_| {}));
    }

    /// Every axis' traced slice is race-free and holds its invariants:
    /// the detector orders every handoff although coroutine clients
    /// interleave at round-trip granularity on one thread (rt), the
    /// migrator's fence/copy stream interleaves with client verbs
    /// (elastic), FUSEE's write-then-CAS replication and SWARM's
    /// doorbell-batched commit cross torn writes and node kills
    /// (backends), and the hot cache revalidates against rebuilt memory
    /// (cache).
    #[test]
    fn traced_slices_are_race_free() {
        let slices = crate::each_axis!(trace_slice(crate::DEFAULT_SEED)).concat();
        assert_eq!(slices.len(), 2 + 3 + 4 + 3);
        assert_traced(&slices);
    }

    /// The multi-client YCSB-A interleaving is race-free and replays
    /// identically under the same seed.
    #[test]
    fn ycsb_trace_is_race_free_and_deterministic() {
        let a = analyze_ycsb(7);
        assert!(a.ok(), "{}", a.findings(""));
        assert_eq!(a.note, "4 clients, 2000 ops, ");
        assert!(a.events > 1000, "only {} events traced", a.events);
        assert_eq!(a.events, analyze_ycsb(7).events);
    }
}
