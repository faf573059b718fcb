//! `bench elastic` — throughput during an online membership change.
//!
//! Drives one elastic migration (a capacity **join**, then a planned
//! **drain**) through its step machine boundary by boundary, running a
//! fixed window of deterministic YCSB-A client ops between every step —
//! the same interleaving the chaos elastic axis kills nodes inside, here
//! measured instead of crashed. Each window reports the ops that
//! committed and the modeled throughput over that window's verb records,
//! so the table shows what live traffic costs while blocks, parity cells
//! included, are being re-placed under it.
//!
//! Every number is counted or modeled (wall-clock stays out), so the
//! rendered table is a pure function of the seed.

use crate::harness;
use aceso_core::{
    scrub, AcesoConfig, AcesoEngine, AcesoStore, ElasticKind, ElasticStep, FtClient, FtError,
    StoreError,
};
use aceso_obs::Registry;
use aceso_workloads::ycsb::YcsbKind;
use aceso_workloads::YcsbWorkload;
use std::sync::Arc;

/// Logical clients driven round-robin in one thread.
const CLIENTS: usize = 4;
/// Keys preloaded before the migration begins.
const KEYS: u64 = 160;
/// Ops issued between consecutive migrator steps.
const WINDOW_OPS: usize = 120;
/// Value payload size.
const VALUE_LEN: usize = 64;
/// Column migrated onto the fresh node.
const MIG_COL: usize = 1;

/// One inter-step traffic window.
pub struct WindowRow {
    /// The migrator step that ran *before* this window (`baseline` for
    /// the pre-migration window).
    pub step: String,
    /// Ops that committed inside the window.
    pub committed: usize,
    /// Ops attempted (committed + commit-retry exhaustions).
    pub attempted: usize,
    /// Modeled throughput over this window's verb records.
    pub mops: f64,
}

/// One full migration measured window by window.
pub struct ElasticPhase {
    /// Join or drain.
    pub kind: ElasticKind,
    /// One row per window, in step order.
    pub rows: Vec<WindowRow>,
    /// `elastic.batches` — copy batches the migrator executed.
    pub batches: u64,
    /// `elastic.blocks_moved` — blocks copied, parity cells included.
    pub blocks_moved: u64,
    /// Whether the post-migration scrub found every invariant intact.
    pub scrub_clean: bool,
}

/// Both phases of the slice.
pub struct ElasticSlice {
    /// Seed the YCSB-A streams were derived from.
    pub seed: u64,
    /// The join phase followed by the drain phase.
    pub phases: Vec<ElasticPhase>,
}

/// Runs `WINDOW_OPS` round-robin ops, continuing at op number `*opno`,
/// and measures the window.
fn run_window(
    store: &AcesoStore,
    clients: &mut [Box<dyn FtClient>],
    streams: &mut [YcsbWorkload],
    opno: &mut usize,
    step: String,
) -> WindowRow {
    let ops = *opno..*opno + WINDOW_OPS;
    *opno = ops.end;
    let (mut committed, mut attempted) = (0usize, 0usize);
    let window = harness::window(&store.cluster, clients, |clients| {
        harness::turns(clients, streams, ops, |opno, c, req| {
            attempted += 1;
            match harness::dispatch(c, &req, opno as u64) {
                Ok(()) => committed += 1,
                // A fence storm right at a step boundary can exhaust one
                // op's commit budget; that is backpressure, not corruption —
                // the scrub below proves the store stayed intact. Only that
                // error: the seam also maps a `NodeUnreachable` verb to
                // `Unreachable`, and a client that lets one escape after
                // the free step retired the source node must panic here.
                Err(e) if e == FtError::from(StoreError::RetriesExhausted) => {}
                Err(e) => panic!("window '{step}' op ({:?}): {e}", req.op),
            }
        })
    });
    WindowRow {
        step,
        committed,
        attempted,
        mops: window
            .measured(harness::SIM_CLIENTS, vec![], None)
            .report()
            .mops,
    }
}

/// Measures one migration kind end to end.
pub(crate) fn run_phase(seed: u64, kind: ElasticKind) -> ElasticPhase {
    let store = AcesoStore::launch(AcesoConfig::small()).expect("launch");
    harness::preload_aceso(&store, YcsbWorkload::preload_keys(KEYS), VALUE_LEN);

    let registry = Registry::new();
    store.install_recorder(Arc::clone(&registry));
    let mut clients = harness::clients(&AcesoEngine::new(Arc::clone(&store)), CLIENTS);
    let mut streams: Vec<YcsbWorkload> = (0..CLIENTS)
        .map(|i| YcsbWorkload::new(YcsbKind::A, KEYS, 0.99, VALUE_LEN, i as u32, seed))
        .collect();
    let mut opno = 0usize;

    let mut window = |step: String| run_window(&store, &mut clients, &mut streams, &mut opno, step);
    let mut rows = vec![window("baseline".into())];
    let mut mig = match kind {
        ElasticKind::Join => store.begin_join(MIG_COL).expect("begin join"),
        ElasticKind::Drain => store.begin_drain(MIG_COL).expect("begin drain"),
    };
    loop {
        let step = mig.step().expect("migrator step");
        if step == ElasticStep::Done {
            break;
        }
        rows.push(window(step.to_string()));
    }
    for c in &mut clients {
        c.quiesce().expect("flush");
    }
    let scrub_clean = scrub(&store).expect("scrub").is_clean();
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let phase = ElasticPhase {
        kind,
        rows,
        batches: counter("elastic.batches"),
        blocks_moved: counter("elastic.blocks_moved"),
        scrub_clean,
    };
    store.shutdown();
    phase
}

/// Runs the full slice: a join migration, then a drain, each with live
/// traffic between every migrator step.
pub fn elastic_slice(seed: u64) -> ElasticSlice {
    ElasticSlice {
        seed,
        phases: [ElasticKind::Join, ElasticKind::Drain]
            .map(|kind| run_phase(seed, kind))
            .into(),
    }
}

impl ElasticSlice {
    /// Renders the slice as the `results/` table.
    pub fn render(&self) -> String {
        let mut s = format!(
            "elastic slice: YCSB-A between migrator steps, {KEYS} keys, \
             {WINDOW_OPS} ops/window over {CLIENTS} clients, col {MIG_COL}, seed {:#x}\n\
             kind  | step         | committed | attempted |  Mops\n",
            self.seed
        );
        for p in &self.phases {
            for r in &p.rows {
                s.push_str(&format!(
                    "{:<5} | {:<12} | {:9} | {:9} | {:5.2}\n",
                    p.kind.to_string(),
                    r.step,
                    r.committed,
                    r.attempted,
                    r.mops,
                ));
            }
            s.push_str(&format!(
                "{}: {} copy batches, {} blocks moved, scrub {}\n",
                p.kind,
                p.batches,
                p.blocks_moved,
                if p.scrub_clean { "clean" } else { "DIRTY" },
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Acceptance: every inter-step window — join *and* drain — commits
    /// client ops while the migration is in flight, and the store scrubs
    /// clean afterwards.
    #[test]
    fn every_window_commits_ops_for_both_kinds() {
        let slice = elastic_slice(0xace50);
        assert_eq!(slice.phases.len(), 2);
        for p in &slice.phases {
            assert!(p.scrub_clean, "{} phase left the store dirty", p.kind);
            assert!(p.batches > 0 && p.blocks_moved > 0);
            // baseline + announce + copy batches + publish + free.
            assert!(p.rows.len() >= 5, "only {} windows", p.rows.len());
            for r in &p.rows {
                assert!(
                    r.committed > 0,
                    "{} window '{}' committed no ops ({} attempted)",
                    p.kind,
                    r.step,
                    r.attempted
                );
                assert!(r.mops > 0.0, "window '{}' modeled zero throughput", r.step);
            }
        }
    }

    /// The same seed reproduces the same join phase bit for bit.
    #[test]
    fn phase_is_deterministic() {
        let a = run_phase(0xace50, ElasticKind::Join);
        let b = run_phase(0xace50, ElasticKind::Join);
        assert_eq!(a.rows.len(), b.rows.len());
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.step, rb.step);
            assert_eq!(ra.committed, rb.committed);
            assert_eq!(ra.mops.to_bits(), rb.mops.to_bits());
        }
        assert_eq!(a.blocks_moved, b.blocks_moved);
    }
}
