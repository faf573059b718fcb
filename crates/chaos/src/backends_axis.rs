//! `chaos backends` — the per-engine crash matrix over the
//! [`aceso_core::FtEngine`] seam.
//!
//! The main crash matrix ([`crate::runner`]) speaks Aceso's native
//! protocol: its injection sites and invariants are phrased in terms of
//! delta appends, parity stripes, and checkpoint epochs. That makes it
//! useless as a harness for the *other* fault-tolerance strategies behind
//! the seam. This axis is the engine-agnostic counterpart: every cell
//! runs the identical script against a [`FtEngine`] trait object —
//! preload, arm one fault on one victim client, run one target operation,
//! recover, sweep — so Aceso, FUSEE-style full replication, and the
//! SWARM-style 1-RTT engine face the same crashes and answer to the same
//! oracle.
//!
//! A cell is (engine × op × fault × skip):
//!
//! * [`BackendFault::CrashCn`] — a [`FaultAction::Fail`] rule kills the
//!   victim's (skip+1)-th verb; the client is written off mid-op.
//! * [`BackendFault::KillMn`] — a [`FaultAction::KillNode`] rule kills
//!   the target key's home node on the victim's (skip+1)-th verb to it,
//!   so the node dies mid-operation; when the op legitimately never
//!   addresses the node (the skip exceeds the op's verb count), the
//!   harness falls back to a direct kill at the op boundary and the cell
//!   degenerates to pure column-loss recovery.
//!
//! Recovery runs through the seam's two entry points, in the order each
//! strategy's commit-point argument requires: Aceso repairs the
//! interrupted client first (`recover_client` is its CN consistency pass,
//! designed to run against the still-dead column — the order the native
//! matrix tests), then rebuilds dead columns; the replication engines
//! rebuild the column first (the restored primary becomes the agreement
//! baseline) and then reconcile, since their `recover_client` rolls
//! run-ahead backups onto the primary's commit state.
//!
//! Post-conditions are strategy-blind: [`oracle_agreement`] with a commit
//! ambiguity window on the target key and a phantom key that must stay
//! absent, [`probe_liveness`] on the target, the engine's own
//! [`FtEngine::check`] (parity scrub for Aceso, replica agreement for the
//! replicated engines), and a populated space report.

use crate::axis::{fail_fast, fmt_key, gen_value, key, launch_store, Axis, Ctx, Out, Sink};
use crate::invariants::{oracle_agreement, preload, probe_liveness, Armed, Fold, Op, Oracle};
use aceso_core::{AcesoEngine, FtEngine};
use aceso_engines::{launch, EngineKind};
use aceso_rdma::{FaultAction, FaultPlan, FaultRule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// Preloaded keys per cell (small: one op is under test, not throughput).
const KEYS: usize = 24;

/// Verb-skip depths: the fault lands on the (skip+1)-th matching verb, so
/// the same op is interrupted at several protocol depths.
const SKIPS: [u64; 3] = [0, 2, 5];

/// Which fault interrupts the target operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendFault {
    /// Fail one victim verb: the client is written off mid-op.
    CrashCn,
    /// Kill the target key's home node on a victim verb to it.
    KillMn,
}

/// The operation under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendOp {
    /// Insert a fresh key.
    Insert,
    /// Update a preloaded key in place.
    Update,
    /// Delete a preloaded key.
    Delete,
}

/// One cell of the backends matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackendCell {
    /// The engine under test.
    pub engine: EngineKind,
    /// The operation interrupted by the fault.
    pub op: BackendOp,
    /// The fault armed on the victim client.
    pub fault: BackendFault,
    /// Matching verbs skipped before the fault fires.
    pub skip: u64,
}

impl fmt::Display for BackendCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fault = match self.fault {
            BackendFault::CrashCn => "crash-cn",
            BackendFault::KillMn => "kill-mn",
        };
        let op = format!("{:?}", self.op).to_lowercase();
        write!(f, "{}/{op}/{fault}/after{}", self.engine, self.skip)
    }
}

const fn cell(engine: EngineKind, op: BackendOp, fault: BackendFault, skip: u64) -> BackendCell {
    BackendCell {
        engine,
        op,
        fault,
        skip,
    }
}

/// What one backends cell observes besides its violations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BackendFacts {
    /// Whether the armed fault fired on a victim verb (mid-op).
    pub fired_at_verb: bool,
    /// Whether the MN kill fell back to a direct boundary kill.
    pub fallback_kill: bool,
    /// Whether the victim client was written off mid-op.
    pub written_off: bool,
    /// Columns rebuilt by [`FtEngine::recover_column`].
    pub recovered_cols: usize,
    /// Bytes moved by column recovery (modeled).
    pub recovery_bytes: u64,
}

/// The per-engine axis (`chaos backends`).
pub struct Backends;

impl Axis for Backends {
    type Cell = BackendCell;
    type Facts = BackendFacts;
    const NAME: &'static str = "backends";
    const CELLS_ARE: &'static str = "per-engine crash cells";
    const CLEAN: &'static str = "every engine held its invariants across the shared crash matrix";

    /// Engine-major: 3 engines × 3 ops × 2 faults × 3 skips.
    fn cells() -> Vec<BackendCell> {
        let mut cells = Vec::new();
        for engine in EngineKind::ALL {
            for op in [BackendOp::Insert, BackendOp::Update, BackendOp::Delete] {
                for fault in [BackendFault::CrashCn, BackendFault::KillMn] {
                    cells.extend(SKIPS.map(|skip| cell(engine, op, fault, skip)));
                }
            }
        }
        cells
    }

    /// One slice per strategy's commit protocol across a fault: Aceso
    /// through the seam (a home-node kill mid-update), FUSEE's
    /// write-then-CAS replication across a torn client write plus its
    /// reconcile pass, and SWARM's doorbell-batched commit across both
    /// fault kinds.
    fn traced() -> Vec<BackendCell> {
        use {BackendFault::*, BackendOp::*, EngineKind::*};
        vec![
            cell(Aceso, Update, KillMn, 0),
            cell(Fusee, Update, CrashCn, 0),
            cell(Swarm, Update, CrashCn, 2),
            cell(Swarm, Insert, KillMn, 0),
        ]
    }

    fn run(cell: BackendCell, seed: u64, sink: Sink, out: &mut Out<Self>) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let eng = launch_backend(cell.engine, sink)?;

        // ---- Preload --------------------------------------------------------
        let mut oracle = Oracle::default();
        {
            let mut loader = eng.client().ctx("loader")?;
            let keys = (0..KEYS).map(|j| key("bk", j));
            preload(loader.as_mut(), &mut oracle, &mut rng, keys)?;
            loader.quiesce().ctx("preload quiesce")?;
        }
        for _ in 0..2 {
            eng.tick().ctx("tick")?;
        }
        eng.cluster().trace_barrier();

        // ---- Arm the fault and run the target op ----------------------------
        let target = match cell.op {
            BackendOp::Insert => b"bk-new".to_vec(),
            _ => key("bk", rng.gen_range(0..KEYS)),
        };
        let home = eng.home_col(&target);
        let victim_node = eng.node_of(home);

        let mut victim = eng.client().ctx("victim")?;
        let rule = match cell.fault {
            BackendFault::CrashCn => FaultRule::new(FaultAction::Fail),
            BackendFault::KillMn => FaultRule::new(FaultAction::KillNode).on_node(victim_node),
        };
        let plan = FaultPlan::with_rules(vec![rule.after(cell.skip)]);
        victim.install_fault_plan(Arc::clone(&plan));

        let val = gen_value(&mut rng, b'T');
        let res = match cell.op {
            BackendOp::Insert => victim.insert(&target, &val).map(|()| None),
            BackendOp::Update => victim.update(&target, &val).map(|()| None),
            BackendOp::Delete => victim.delete(&target).map(|existed| {
                if !existed {
                    let k = fmt_key(&target);
                    out.violations
                        .push(format!("delete of preloaded {k} found nothing"));
                }
                None
            }),
        };
        out.facts.fired_at_verb = plan.fired_count() > 0;

        // Under the MN kill the home node died under the op and nobody has
        // recovered yet: written off as crashed-while-blocked.
        let armed = match cell.fault {
            BackendFault::CrashCn => Armed::Crash,
            BackendFault::KillMn => Armed::Blocked,
        };
        let op = Op::Write((cell.op != BackendOp::Delete).then_some(val));
        let fold = oracle.fold(&target, op, res, armed, &mut out.violations);
        out.facts.written_off = matches!(fold, Fold::Cut(_));

        // The skip can exceed the op's verb count to the victim node: fall
        // back to a direct kill at the op boundary so the cell still tests
        // column-loss recovery (now with no torn op).
        if cell.fault == BackendFault::KillMn && eng.cluster().node(victim_node).is_ok() {
            out.facts.fallback_kill = true;
            if !eng.kill_column(home) {
                out.violations.push(format!(
                    "fallback kill of col {home} reported node already dead"
                ));
            }
        }
        let victim_id = victim.id();
        drop(victim);
        eng.cluster().trace_barrier();

        // ---- Recovery -------------------------------------------------------
        // Strategy-ordered, per the module docs: Aceso's CN consistency pass
        // runs against the still-dead column; the replication engines
        // reconcile after the rebuilt primary is back as agreement baseline.
        // Each recovery stage is barrier-delimited: the real system quiesces
        // between tiers, and the detector needs the handoff edge (the column
        // copy is plain unpublished writes the next stage then reads).
        let cn_first = cell.engine == EngineKind::Aceso;
        if out.facts.written_off && cn_first {
            eng.recover_client(victim_id).ctx("recover_client")?;
            eng.cluster().trace_barrier();
        }
        for col in 0..eng.columns() {
            if eng.cluster().node(eng.node_of(col)).is_err() {
                let s = eng
                    .recover_column(col)
                    .ctx(&format!("recover_column {col}"))?;
                out.facts.recovered_cols += 1;
                out.facts.recovery_bytes += s.bytes;
            }
        }
        if out.facts.recovered_cols > 0 {
            eng.cluster().trace_barrier();
        }
        if out.facts.written_off && !cn_first {
            eng.recover_client(victim_id).ctx("recover_client")?;
        }
        eng.cluster().trace_barrier();

        // ---- Invariants -----------------------------------------------------
        // No lost acks, no phantom key, no abandoned lock or wedged slot on
        // the interrupted key.
        let mut sweep = eng.client().ctx("sweep client")?;
        let absent: [&[u8]; 2] = [&target, b"bk-phantom"];
        oracle_agreement(sweep.as_mut(), &oracle, &absent, &mut out.violations);
        probe_liveness(sweep.as_mut(), &target, &mut rng, &mut out.violations);

        // The engine's own integrity check (parity scrub / replica
        // agreement), after a quiesce so buffered client state is flushed.
        sweep.quiesce().ctx("sweep quiesce")?;
        drop(sweep);
        eng.cluster().trace_barrier();
        match eng.check() {
            Ok(problems) => out.violations.extend(problems),
            Err(e) => out.violations.push(format!("check: {e}")),
        }

        // Space accounting stays populated across the fault.
        let sp = eng.space();
        if sp.valid == 0 || sp.redundancy == 0 {
            out.violations
                .push(format!("space report degenerate after recovery: {sp:?}"));
        }

        // Accounting sanity on the injection machinery itself.
        if out.facts.fired_at_verb && plan.fired().is_empty() {
            out.violations.push("fired count and log disagree".into());
        }

        eng.shutdown();
        Ok(())
    }

    fn summary(o: &[Out<Self>]) -> String {
        let count = |f: fn(&BackendFacts) -> bool| o.iter().filter(|o| f(&o.facts)).count();
        let mut s = format!(
            "{} mid-op faults, {} clients written off, {} fallback kills, {} columns recovered",
            count(|f| f.fired_at_verb),
            count(|f| f.written_off),
            count(|f| f.fallback_kill),
            o.iter().map(|o| o.facts.recovered_cols).sum::<usize>()
        );
        for kind in EngineKind::ALL {
            let of_kind = o.iter().filter(|o| o.cell.engine == kind);
            let clean = of_kind.clone().filter(|o| o.ok()).count();
            s.push_str(&format!(
                "\n  {kind}: {clean}/{} cells clean",
                of_kind.count()
            ));
        }
        s
    }

    /// The replication engines have their own layouts, so their race
    /// reports run unannotated.
    fn annotated(cell: BackendCell) -> bool {
        cell.engine == EngineKind::Aceso
    }
}

/// Launches the cell's engine with `sink` on its cluster. Aceso runs on
/// the chaos geometry with the fail-fast client tuning every chaos axis
/// uses; the replication engines fail fast by construction (verb errors
/// propagate immediately).
fn launch_backend(kind: EngineKind, sink: Sink) -> Result<Box<dyn FtEngine>, String> {
    let eng: Box<dyn FtEngine> = match kind {
        EngineKind::Aceso => Box::new(AcesoEngine::with_tuning(launch_store(None)?, fail_fast())),
        _ => launch(kind).ctx("launch")?,
    };
    if let Some(s) = sink {
        eng.cluster().install_trace_sink(s);
    }
    Ok(eng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::run_cell;

    fn on_every_engine(op: BackendOp, fault: BackendFault, skip: u64, check: fn(&Out<Backends>)) {
        for engine in EngineKind::ALL {
            let cell = cell(engine, op, fault, skip);
            let out = run_cell::<Backends>(cell, crate::DEFAULT_SEED, None);
            assert!(out.ok(), "{cell}: {:?}", out.violations);
            check(&out);
        }
    }

    #[test]
    fn matrix_shape_covers_every_engine() {
        let cells = Backends::cells();
        assert_eq!(cells.len(), 54);
        for kind in EngineKind::ALL {
            assert_eq!(cells.iter().filter(|c| c.engine == kind).count(), 18);
        }
    }

    /// A mid-op client crash on an update holds the invariants on every
    /// engine behind the seam.
    #[test]
    fn crash_cn_update_holds_on_every_engine() {
        on_every_engine(BackendOp::Update, BackendFault::CrashCn, 0, |out| {
            assert!(out.facts.fired_at_verb, "{}: fault never fired", out.cell);
            assert!(
                out.facts.written_off,
                "{}: victim not written off",
                out.cell
            );
        });
    }

    /// Killing the home node mid-insert forces degraded service and a
    /// column rebuild on every engine.
    #[test]
    fn kill_mn_insert_recovers_on_every_engine() {
        on_every_engine(BackendOp::Insert, BackendFault::KillMn, 0, |out| {
            assert_eq!(
                out.facts.recovered_cols, 1,
                "{}: column not rebuilt",
                out.cell
            );
            assert!(out.facts.recovery_bytes > 0, "{}: empty recovery", out.cell);
        });
    }

    /// A deep-skip delete crash still converges (the fault may or may not
    /// fire depending on the engine's verb count — both paths must hold).
    #[test]
    fn deep_skip_delete_holds_on_every_engine() {
        on_every_engine(BackendOp::Delete, BackendFault::CrashCn, 5, |_| {});
    }
}
