//! `chaos backends` — the per-engine crash matrix over the
//! [`aceso_core::FtEngine`] seam.
//!
//! The main crash matrix ([`crate::runner`]) speaks Aceso's native
//! protocol: its injection sites are phrased in terms of delta appends,
//! crash points and recovery tiers. This axis is the engine-agnostic
//! counterpart: every cell runs the shared [`Script`] over a `dyn
//! FtEngine` — launch, preload, checkpoint, arm one fault on one victim
//! client, run one target operation, recover, judge — so Aceso,
//! FUSEE-style full replication, and the SWARM-style 1-RTT engine face the
//! same crashes and answer to the same oracle. Only the preload, the fault,
//! the target op, the fallback kill and the space and fired-count checks
//! are this axis' own.
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
//! Recovery is one [`Script::recover`]: the written-off victim and every
//! dead column go to the engine's `recover`, which repairs them in the
//! order its commit-point argument requires.
//!
//! Post-conditions are strategy-blind: [`Script::judge`] with a commit
//! ambiguity window on the target key and a phantom key that must stay
//! absent, a probe on the target, and the engine's own `check` (Aceso's
//! Index-Version, parity and degraded-window judge, replica agreement for
//! the replicated engines); plus a populated space report.

use crate::axis::{fmt_key, gen_value, key, Axis, Ctx, Out, Script, Sink};
use crate::invariants::{preload, Armed, Fold, Op};
use aceso_engines::EngineKind;
use aceso_rdma::{FaultAction, FaultPlan, FaultRule};
use rand::Rng;
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
    /// Columns rebuilt by [`Script::recover`].
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
        let mut s = Script::launch_engine(cell.engine, seed, sink)?;

        // ---- Preload --------------------------------------------------------
        {
            let mut loader = s.eng.client().ctx("loader")?;
            let keys = (0..KEYS).map(|j| key("bk", j));
            preload(loader.as_mut(), &mut s.oracle, &mut s.rng, keys)?;
            loader.quiesce().ctx("preload quiesce")?;
        }
        s.checkpoint()?;

        // ---- Arm the fault and run the target op ----------------------------
        let target = match cell.op {
            BackendOp::Insert => b"bk-new".to_vec(),
            _ => key("bk", s.rng.gen_range(0..KEYS)),
        };
        let home = s.eng.home_col(&target);
        let victim_node = s.eng.node_of(home);

        let mut victim = s.eng.client().ctx("victim")?;
        let rule = match cell.fault {
            BackendFault::CrashCn => FaultRule::new(FaultAction::Fail),
            BackendFault::KillMn => FaultRule::new(FaultAction::KillNode).on_node(victim_node),
        };
        let plan = FaultPlan::with_rules(vec![rule.after(cell.skip)]);
        victim.install_fault_plan(Arc::clone(&plan));

        let val = gen_value(&mut s.rng, b'T');
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
        if out.facts.fired_at_verb && plan.fired().is_empty() {
            out.violations.push("fired count and log disagree".into());
        }

        // Under the MN kill the home node died under the op and nobody has
        // recovered yet: written off as crashed-while-blocked.
        let armed = match cell.fault {
            BackendFault::CrashCn => Armed::Crash,
            BackendFault::KillMn => Armed::Blocked,
        };
        let op = Op::Write((cell.op != BackendOp::Delete).then_some(val));
        let fold = s.oracle.fold(&target, op, res, armed, &mut out.violations);
        out.facts.written_off = matches!(fold, Fold::Cut(_));

        // The skip can exceed the op's verb count to the victim node: fall
        // back to a direct kill at the op boundary so the cell still tests
        // column-loss recovery (now with no torn op).
        if cell.fault == BackendFault::KillMn && s.eng.cluster().node(victim_node).is_ok() {
            out.facts.fallback_kill = true;
            if !s.eng.kill_column(home) {
                out.violations.push(format!(
                    "fallback kill of col {home} reported node already dead"
                ));
            }
        }
        let crashed = out.facts.written_off.then_some(victim.id());
        drop(victim);

        // ---- Recovery, in the engine's own order ----------------------------
        let (cols, summary) = s.recover(crashed.as_slice())?;
        out.facts.recovered_cols = cols;
        out.facts.recovery_bytes = summary.bytes;

        // Space accounting stays populated across the fault.
        let sp = s.eng.space();
        if sp.valid == 0 || sp.redundancy == 0 {
            out.violations
                .push(format!("space report degenerate after recovery: {sp:?}"));
        }

        // ---- Invariants -----------------------------------------------------
        // No lost acks, no phantom key, no abandoned lock or wedged slot on
        // the interrupted key, and the engine's own integrity check.
        let absent: [&[u8]; 2] = [&target, b"bk-phantom"];
        s.judge(&absent, std::slice::from_ref(&target), &mut out.violations)?;
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
