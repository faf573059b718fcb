//! The axis seam: everything a fault axis does *not* have to write.
//!
//! An axis implements [`Axis`]: its cell type (whose `Display` is the
//! stable id), `cells()`, the cell script `run`, a `Facts` struct with the
//! one `summary` sentence that prints it, and its traced slice. This
//! module supplies the rest exactly once: the [`Outcome`], the
//! sink-installing wrapper [`run_cell`], the seeded matrix runner
//! [`run_matrix`] with its [`Report`] (`clean` / `render`, including the
//! counterexample minimizer), id resolution for `chaos cell`
//! ([`find_cell`]), and the steps the scripts share: the seeded
//! [`Script`] over any [`FtEngine`] — launch, checkpoint, recovery —,
//! fail-fast tuning, seeded values, key names, error context. The op fold
//! and the judging tail ([`Script::judge`]) live in [`crate::invariants`];
//! the traced half in [`crate::analyze`].

use crate::invariants::{preload, Oracle};
use aceso_core::{AcesoConfig, AcesoEngine, AcesoStore, ClientTuning, FtEngine, RecoverySummary};
use aceso_engines::{launch, EngineKind};
use aceso_rdma::TraceSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// The race detector (or nothing) a cell run installs on its cluster.
pub type Sink = Option<Arc<dyn TraceSink>>;

/// One fault axis. See the module docs for what each item is for; a new
/// axis is these items plus its script (DESIGN.md has a skeleton).
pub trait Axis: Sized + 'static {
    /// One matrix cell; `to_string()` is its stable, unique id.
    type Cell: Copy + PartialEq + fmt::Debug + fmt::Display;
    /// What a run observes besides violations. Compared across runs by
    /// the determinism test, so it must be a function of `(cell, seed)`.
    type Facts: Clone + Default + PartialEq + fmt::Debug;
    /// CLI mode, report title, and `chaos cell` id prefix.
    const NAME: &'static str;
    /// What the banner calls the matrix ("kill-mid-rebalance cells").
    const CELLS_ARE: &'static str;
    /// Closing report line when every cell held its invariants.
    const CLEAN: &'static str;

    /// The full matrix, in report order.
    fn cells() -> Vec<Self::Cell>;

    /// The slice `chaos analyze` reruns under the race detector.
    fn traced() -> Vec<Self::Cell>;

    /// The cell script: launch, preload, inject, recover, judge. Invariant
    /// violations go to `out.violations`; an `Err` is an infrastructure
    /// failure, reported as a violation too (a cell that cannot set up is
    /// a finding, not a skip). A `sink`, when given, must be installed on
    /// the cluster before the first verb.
    fn run(cell: Self::Cell, seed: u64, sink: Sink, out: &mut Out<Self>) -> Result<(), String>;

    /// The one sentence summarizing the facts of a whole matrix run.
    fn summary(outcomes: &[Out<Self>]) -> String;

    /// Report lines above the violation list.
    fn head(report: &Report<Self>, _wall_clock: bool) -> String {
        let o = &report.outcomes;
        format!(
            "{} report: seed {:#x}\n  {} cells, {} failed, {}\n",
            Self::NAME,
            report.seed,
            o.len(),
            o.iter().filter(|o| !o.ok()).count(),
            Self::summary(o)
        )
    }

    /// The facts `chaos analyze` prints on a traced cell's line (ends in
    /// `", "` when non-empty).
    fn traced_note(_out: &Out<Self>) -> String {
        String::new()
    }

    /// Whether race reports of this cell read through the chaos store's
    /// memory map (false for engines with their own layout).
    fn annotated(_cell: Self::Cell) -> bool {
        true
    }

    /// Strictly simpler variants of `cell`, most aggressive first; the
    /// minimizer keeps a variant only if it still fails.
    fn simplify(_cell: Self::Cell) -> Vec<Self::Cell> {
        Vec::new()
    }
}

/// What one cell run observed.
#[derive(Clone, Debug)]
pub struct Outcome<C, F> {
    /// The cell that ran.
    pub cell: C,
    /// The seed its schedule was derived from.
    pub seed: u64,
    /// Invariant violations (empty = the cell passed).
    pub violations: Vec<String>,
    /// Wall-clock cost of the cell.
    pub duration_ms: u128,
    /// The axis' named facts.
    pub facts: F,
}

/// The [`Outcome`] of axis `A`.
pub type Out<A> = Outcome<<A as Axis>::Cell, <A as Axis>::Facts>;

impl<C, F> Outcome<C, F> {
    /// `true` when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one cell, with `sink` (if any) observing every verb it issues.
pub fn run_cell<A: Axis>(cell: A::Cell, seed: u64, sink: Sink) -> Out<A> {
    let start = Instant::now();
    let mut out = Outcome {
        cell,
        seed,
        violations: Vec::new(),
        duration_ms: 0,
        facts: A::Facts::default(),
    };
    if let Err(e) = A::run(cell, seed, sink, &mut out) {
        out.violations.push(format!("harness: {e}"));
    }
    out.duration_ms = start.elapsed().as_millis();
    out
}

/// Resolves an id printed by a report back to its cell.
pub fn find_cell<A: Axis>(id: &str) -> Option<A::Cell> {
    A::cells().into_iter().find(|c| c.to_string() == id)
}

/// Per-cell seeds are drawn from one master stream so a whole schedule
/// replays from a single number; `analyze` draws the same stream so it
/// traces the very schedules `sweep` runs.
pub fn cell_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| rng.next_u64()).collect()
}

/// Runs `cells` in order, each with a seed derived from `seed`.
/// `progress` is called after every cell (CLI verbosity hook).
pub fn run_matrix<A: Axis>(
    cells: &[A::Cell],
    seed: u64,
    mut progress: impl FnMut(&Out<A>),
) -> Report<A> {
    let outcomes = cells
        .iter()
        .zip(cell_seeds(seed, cells.len()))
        .map(|(&cell, cell_seed)| {
            let out = run_cell::<A>(cell, cell_seed, None);
            progress(&out);
            out
        })
        .collect();
    Report::new(seed, outcomes)
}

/// A minimized counterexample: the failing cell, the simplest variant of
/// it that still fails, and that variant's violations.
#[derive(Clone, Debug)]
pub struct Counterexample<C> {
    /// The cell the run caught.
    pub original: C,
    /// The simplest variant that still violates an invariant.
    pub minimized: C,
    /// The minimized variant's violations.
    pub violations: Vec<String>,
    /// The seed reproducing both.
    pub seed: u64,
}

/// Everything one matrix (or soak) run produced.
pub struct Report<A: Axis> {
    /// The master seed the schedule derived from.
    pub seed: u64,
    /// Per-cell outcomes, in execution order.
    pub outcomes: Vec<Out<A>>,
    /// Minimized counterexamples for the first few violating cells.
    pub counterexamples: Vec<Counterexample<A::Cell>>,
}

impl<A: Axis> Report<A> {
    /// Wraps `outcomes`, greedily minimizing the first few failures that
    /// have a simpler variant ([`Axis::simplify`]): each simplification is
    /// kept only if the cell still fails under the same seed, so the
    /// result is the smallest schedule a developer has to reason about.
    pub fn new(seed: u64, outcomes: Vec<Out<A>>) -> Self {
        const MAX_MINIMIZED: usize = 3;
        let counterexamples = outcomes
            .iter()
            .filter(|o| !o.ok() && !A::simplify(o.cell).is_empty())
            .take(MAX_MINIMIZED)
            .map(|o| {
                let (mut minimized, mut violations) = (o.cell, o.violations.clone());
                while let Some(rerun) = A::simplify(minimized)
                    .into_iter()
                    .map(|cand| run_cell::<A>(cand, o.seed, None))
                    .find(|rerun| !rerun.ok())
                {
                    (minimized, violations) = (rerun.cell, rerun.violations);
                }
                Counterexample {
                    original: o.cell,
                    minimized,
                    violations,
                    seed: o.seed,
                }
            })
            .collect();
        Report {
            seed,
            outcomes,
            counterexamples,
        }
    }

    /// `true` when every cell passed.
    pub fn clean(&self) -> bool {
        self.outcomes.iter().all(Outcome::ok)
    }

    /// Renders the report. `wall_clock = false` leaves out every line
    /// that differs between two runs of the same seed (the pinned
    /// `results/chaos/*.txt` form).
    pub fn render(&self, wall_clock: bool) -> String {
        let mut s = A::head(self, wall_clock);
        let bad = self.outcomes.iter().filter(|o| !o.ok()).count();
        if bad == 0 {
            s.push_str(&format!("  {}\n", A::CLEAN));
            return s;
        }
        s.push_str(&format!("  INVARIANT VIOLATIONS in {bad} cells:\n"));
        for o in self.outcomes.iter().filter(|o| !o.ok()) {
            s.push_str(&format!("    cell {} (seed {:#x}):\n", o.cell, o.seed));
            for v in &o.violations {
                s.push_str(&format!("      - {v}\n"));
            }
        }
        for cx in &self.counterexamples {
            s.push_str(&format!(
                "  minimized counterexample: {} (from {}, seed {:#x}):\n",
                cx.minimized, cx.original, cx.seed
            ));
            for v in &cx.violations {
                s.push_str(&format!("      - {v}\n"));
            }
        }
        s
    }
}

// ---- Script vocabulary ------------------------------------------------------

/// Store configuration for chaos cells: the `small()` topology shrunk
/// (fewer/smaller blocks, fewer index groups) so a full launch → preload →
/// crash → recover → scrub cycle stays well under a second.
pub fn chaos_config() -> AcesoConfig {
    AcesoConfig {
        block_size: 16 << 10,
        num_arrays: 4,
        num_delta: 12,
        index_groups: 128,
        bitmap_flush_every: 16,
        ..AcesoConfig::small()
    }
}

/// What a cell script carries from its setup to its tail: the engine
/// under test — an Aceso chaos store unless the axis names another
/// [`FtEngine`] —, the cell's seeded RNG, and the oracle.
pub struct Script<E: FtEngine + ?Sized = AcesoEngine> {
    /// The engine under test; Aceso axes reach the store through
    /// [`AcesoEngine::store`].
    pub eng: Box<E>,
    /// The cell's seeded RNG: keys, values and probes draw from it.
    pub rng: StdRng,
    /// What the engine should hold.
    pub oracle: Oracle,
}

/// An Aceso engine on the chaos geometry whose clients fail fast.
fn chaos_engine() -> Result<Box<AcesoEngine>, String> {
    let store = AcesoStore::launch(chaos_config()).ctx("launch")?;
    Ok(Box::new(AcesoEngine::with_tuning(store, fail_fast())))
}

impl Script<dyn FtEngine> {
    /// Launches an engine of `kind`: Aceso on the chaos geometry, the
    /// replication engines at their matched geometry (their verb errors
    /// fail fast by construction).
    pub fn launch_engine(kind: EngineKind, seed: u64, sink: Sink) -> Result<Self, String> {
        let eng: Box<dyn FtEngine> = match kind {
            EngineKind::Aceso => chaos_engine()?,
            _ => launch(kind).ctx("launch")?,
        };
        Ok(Script::new(eng, seed, sink))
    }
}

impl Script {
    /// Launches an Aceso chaos store; nothing is preloaded or
    /// checkpointed yet.
    pub fn launch(seed: u64, sink: Sink) -> Result<Self, String> {
        Ok(Script::new(chaos_engine()?, seed, sink))
    }

    /// The shared Aceso setup: launch, preload `keys` through a loader
    /// client, close its open blocks, then [`checkpoint`](Self::checkpoint).
    pub fn seeded(
        seed: u64,
        sink: Sink,
        keys: impl IntoIterator<Item = Vec<u8>>,
    ) -> Result<Self, String> {
        let mut s = Self::launch(seed, sink)?;
        let mut loader = s.eng.store().client().ctx("loader")?;
        preload(&mut loader, &mut s.oracle, &mut s.rng, keys)?;
        loader.close_open_blocks().ctx("preload close")?;
        s.checkpoint()?;
        Ok(s)
    }
}

impl<E: FtEngine + ?Sized> Script<E> {
    /// Seeds the RNG and installs `sink` (if any) before the first verb.
    fn new(eng: Box<E>, seed: u64, sink: Sink) -> Self {
        if let Some(s) = sink {
            eng.cluster().install_trace_sink(s);
        }
        Script {
            eng,
            rng: StdRng::seed_from_u64(seed),
            oracle: Oracle::default(),
        }
    }

    /// Two [`FtEngine::tick`]s between trace barriers (preload done,
    /// checkpoints done), so every Aceso column has a restorable
    /// checkpoint and a non-trivial Index Version to regress from.
    pub fn checkpoint(&mut self) -> Result<(), String> {
        self.eng.cluster().trace_barrier();
        for _ in 0..2 {
            self.eng.tick().ctx("ckpt")?;
        }
        self.eng.cluster().trace_barrier();
        Ok(())
    }

    /// [`FtEngine::recover`]s the `crashed` clients and every column whose
    /// node is down, in the engine's own order; returns how many columns
    /// it rebuilt and what they cost.
    pub fn recover(&self, crashed: &[u32]) -> Result<(usize, RecoverySummary), String> {
        let eng = &self.eng;
        let down = |&col: &usize| eng.cluster().node(eng.node_of(col)).is_err();
        let dead: Vec<usize> = (0..eng.columns()).filter(down).collect();
        let summary = eng.recover(crashed, &dead).ctx("recover")?;
        Ok((dead.len(), summary))
    }
}

/// Client tuning for the clients a fault may hit: they fail fast when a
/// column dies so a blocked operation costs a cell milliseconds, not the
/// production 10 s grace window. Budgets multiply — every commit retry
/// re-enters the index wait — so a blocked op costs at most
/// ~`max_retries × index_wait_ms`.
pub(crate) fn fail_fast() -> ClientTuning {
    ClientTuning {
        max_retries: 40,
        index_wait_ms: 5,
        ..ClientTuning::default()
    }
}

/// `format!("{what}: {e}")` on the error path of a script step.
pub(crate) trait Ctx<T> {
    fn ctx(self, what: &str) -> Result<T, String>;
}

impl<T, E: fmt::Display> Ctx<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Result<T, String> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// Milliseconds since `t`, resetting `t` to now (phase-clock helper).
pub(crate) fn take_ms(t: &mut Instant) -> f64 {
    let e = t.elapsed().as_secs_f64() * 1e3;
    *t = Instant::now();
    e
}

/// Deterministic value generator: length and bytes come from the cell's
/// seeded RNG, the first byte tags the generation for readable mismatches.
pub(crate) fn gen_value(rng: &mut StdRng, tag: u8) -> Vec<u8> {
    let len = rng.gen_range(24usize..96);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v[0] = tag;
    v
}

/// The `j`-th key of an axis. The prefix decides placement, and with it
/// every count in the axis' reports.
pub(crate) fn key(prefix: impl fmt::Display, j: usize) -> Vec<u8> {
    format!("{prefix}-{j:02}").into_bytes()
}

pub(crate) fn fmt_key(k: &[u8]) -> String {
    String::from_utf8_lossy(k).into_owned()
}

pub(crate) fn fmt_state(s: &Option<Vec<u8>>) -> String {
    match s {
        None => "absent".into(),
        Some(v) => format!("{}…[{}]", fmt_key(&v[..v.len().min(8)]), v.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A store-free axis: cell `n` fails iff `n >= 3`, and cell 7 cannot
    /// even set up. Simplifying halves the cell.
    struct Toy;

    impl Axis for Toy {
        type Cell = u32;
        type Facts = u64;
        const NAME: &'static str = "toy";
        const CELLS_ARE: &'static str = "toy cells";
        const CLEAN: &'static str = "every toy held";
        fn cells() -> Vec<u32> {
            (0..8).collect()
        }
        fn traced() -> Vec<u32> {
            Vec::new()
        }
        fn run(cell: u32, seed: u64, _: Sink, out: &mut Out<Self>) -> Result<(), String> {
            out.facts = seed % 100;
            if cell == 7 {
                return Err("no store".into());
            }
            out.violations
                .extend((cell >= 3).then(|| format!("{cell} is too big")));
            Ok(())
        }
        fn summary(o: &[Out<Self>]) -> String {
            format!("{} in all", o.iter().map(|o| o.facts).sum::<u64>())
        }
        fn simplify(cell: u32) -> Vec<u32> {
            [cell / 2].into_iter().filter(|c| *c != cell).collect()
        }
    }

    #[test]
    fn cell_seeds_are_stable() {
        assert_eq!(cell_seeds(5, 4), cell_seeds(5, 4));
        assert_ne!(cell_seeds(5, 4), cell_seeds(6, 4));
    }

    #[test]
    fn clean_matrix_renders_head_and_verdict() {
        let report = run_matrix::<Toy>(&[0, 1, 2], 9, |_| {});
        assert!(report.clean() && report.counterexamples.is_empty());
        let total: u64 = cell_seeds(9, 3).iter().map(|s| s % 100).sum();
        assert_eq!(
            report.render(false),
            format!(
                "toy report: seed 0x9\n  3 cells, 0 failed, {total} in all\n  every toy held\n"
            )
        );
    }

    #[test]
    fn failures_are_listed_and_minimized_and_setup_errors_are_findings() {
        let report = run_matrix::<Toy>(&[1, 6, 7], 9, |_| {});
        assert!(!report.clean());
        let rendered = report.render(false);
        let seed = cell_seeds(9, 3)[1];
        for line in [
            "  3 cells, 2 failed, ",
            "  INVARIANT VIOLATIONS in 2 cells:\n",
            &format!("    cell 6 (seed {seed:#x}):\n      - 6 is too big\n"),
            "      - harness: no store\n",
            // 6 → 3 still fails, 3 → 1 passes: 3 is the minimum. 7 → 3 too.
            &format!(
                "  minimized counterexample: 3 (from 6, seed {seed:#x}):\n      - 3 is too big\n"
            ),
            "  minimized counterexample: 3 (from 7, ",
        ] {
            assert!(rendered.contains(line), "missing {line:?} in:\n{rendered}");
        }
        assert!(!rendered.contains("every toy held"));
        assert_eq!(find_cell::<Toy>("6"), Some(6));
        assert_eq!(find_cell::<Toy>("8"), None);
    }
}
