//! `chaos elastic` — the kill-mid-rebalance fault axis.
//!
//! The crash matrix and the runtime axis kill nodes under a *static*
//! membership. This axis kills them while an elastic migration
//! ([`aceso_core::Migration`]) is re-homing a column onto a joining node
//! (or off a draining one): live client traffic interleaves with the
//! migrator, and at exactly one step boundary — announce, the first copy
//! batch, the last copy batch, epoch publish, or old-column free — a node
//! dies.
//!
//! Three kills × five boundaries = fifteen cells:
//!
//! * [`ElasticKill::JoinMn`] — the *joining* node (the migration target)
//!   dies. Pre-publish the migration aborts (the dual-write mirror kept
//!   the source byte-fresh, so no recovery is needed); post-publish the
//!   target is the column's serving node and ordinary MN recovery runs.
//! * [`ElasticKill::DrainMn`] — the *draining* node (the source) dies.
//!   Pre-publish the migration aborts and the column is rebuilt by
//!   ordinary MN recovery; post-publish the source holds nothing and the
//!   kill must be a pure no-op — a client verb addressed to it is itself
//!   a violation.
//! * [`ElasticKill::Cn`] — the traffic client crashes at a protocol
//!   crash point while the migration is mid-flight; CN recovery runs with
//!   the dual-write mirror still armed, and the migration then completes.
//!
//! The MN kills are armed as a phase-gated [`FaultRule`]
//! ([`FaultRule::in_phase`]): the harness advances the plan's phase at
//! every migrator step boundary, so the kill fires on the traffic
//! client's first verb to the victim *inside* the chosen boundary's
//! window — landing mid-operation whenever the client addresses the
//! victim at all, and falling back to a direct kill when it legitimately
//! does not (a stale snapshot never writes the join target before its
//! first fence bounce; nothing addresses a retired source post-publish).
//!
//! Post-conditions are [`crate::axis::Script::judge`] (with per-key
//! ambiguity windows, through a *fresh* client whose snapshot excludes
//! retired nodes) plus two elastic ones:
//!
//! 1. **Placement-epoch monotonicity** — the placement epoch strictly
//!    increases at every migrator step and never decreases across aborts
//!    or recovery.
//! 2. **No KV readable only via a retired column** — every node on the
//!    placement snapshot's `retired` list is dead, no directory entry
//!    serves one, and the fresh client's oracle sweep still reads
//!    everything.

use crate::axis::{fail_fast, gen_value, key, Axis, Ctx, Out, Script, Sink};
use crate::invariants::{Armed, Fold, Op};
use aceso_core::client::CrashPoint;
use aceso_core::{AcesoClient, ElasticStep};
use aceso_rdma::{FaultAction, FaultPlan, FaultRule};
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// Preloaded keys the traffic windows draw from.
const KEYS: usize = 24;
/// Client ops per boundary window (mutation-heavy so crash points and
/// verb-triggered kills fire early).
const OPS_PER_WINDOW: usize = 6;

/// Which participant dies mid-rebalance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElasticKill {
    /// Kill the joining node (the migration target).
    JoinMn,
    /// Kill the draining node (the migration source).
    DrainMn,
    /// Crash the traffic client at a protocol crash point.
    Cn,
}

/// The migrator step boundary the fault lands on, in step order (the
/// discriminant is the [`FaultPlan`] phase of the boundary's traffic
/// window). The fault fires in the window immediately *after* the named
/// step completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElasticBoundary {
    /// After the target joined and dual-write was armed.
    Announce,
    /// After the first placement-group copy batch: some groups moved,
    /// some not.
    Copy,
    /// After the last copy batch: every block, parity included, is on the
    /// target and nothing is published yet.
    LastCopy,
    /// After the column republished on the target.
    Publish,
    /// After the source node drained.
    Free,
}

impl ElasticBoundary {
    /// The boundary window a completed migrator step opens, for a
    /// migration of `groups` placement groups.
    fn of(step: ElasticStep, groups: usize) -> Self {
        match step {
            ElasticStep::Announce => ElasticBoundary::Announce,
            ElasticStep::CopyBatch(g) if g + 1 == groups => ElasticBoundary::LastCopy,
            ElasticStep::CopyBatch(_) => ElasticBoundary::Copy,
            ElasticStep::Publish => ElasticBoundary::Publish,
            ElasticStep::Free | ElasticStep::Done => ElasticBoundary::Free,
        }
    }
}

/// One cell of the elastic matrix: a kill at a step boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElasticCell {
    /// Which participant dies.
    pub kill: ElasticKill,
    /// At which migrator step boundary.
    pub boundary: ElasticBoundary,
}

impl fmt::Display for ElasticCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kill = match self.kill {
            ElasticKill::JoinMn => "kill-join-mn",
            ElasticKill::DrainMn => "kill-drain-mn",
            ElasticKill::Cn => "crash-cn",
        };
        write!(
            f,
            "{kill}@{}",
            format!("{:?}", self.boundary).to_lowercase()
        )
    }
}

/// What one elastic cell observes besides its violations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ElasticFacts {
    /// The column that was migrated.
    pub col: usize,
    /// Whether the MN kill fired on a traffic-client verb (mid-op) rather
    /// than by the direct fallback.
    pub kill_fired_at_verb: bool,
    /// Whether the migration was aborted (pre-publish MN kills).
    pub aborted: bool,
    /// Client ops that committed while the migration was in flight.
    pub committed_ops: usize,
    /// The placement epoch recorded after each migrator step.
    pub epochs: Vec<u64>,
}

/// The kill-mid-rebalance axis (`chaos elastic`).
pub struct Elastic;

impl Axis for Elastic {
    type Cell = ElasticCell;
    type Facts = ElasticFacts;
    const NAME: &'static str = "elastic";
    const CELLS_ARE: &'static str = "kill-mid-rebalance cells";
    const CLEAN: &'static str = "every kill-mid-rebalance cell held its invariants";

    /// Kill-major: 3 kills × 5 boundaries.
    fn cells() -> Vec<ElasticCell> {
        use ElasticBoundary::{Announce, Copy, Free, LastCopy, Publish};
        let mut cells = Vec::new();
        for kill in [ElasticKill::JoinMn, ElasticKill::DrainMn, ElasticKill::Cn] {
            for boundary in [Announce, Copy, LastCopy, Publish, Free] {
                cells.push(ElasticCell { kill, boundary });
            }
        }
        cells
    }

    /// The abort path (join target dies mid-copy), the rebuild path
    /// (drain source dies at announce), and a CN crash at the publish
    /// handover: client verbs interleave with the migrator's fence
    /// installs and copy RPCs, and the detector must order every
    /// stale-write → fence-bounce → refreshed-write handoff.
    fn traced() -> Vec<ElasticCell> {
        let cell = |kill, boundary| ElasticCell { kill, boundary };
        vec![
            cell(ElasticKill::JoinMn, ElasticBoundary::Copy),
            cell(ElasticKill::DrainMn, ElasticBoundary::Announce),
            cell(ElasticKill::Cn, ElasticBoundary::Publish),
        ]
    }

    #[allow(clippy::too_many_lines)]
    fn run(cell: ElasticCell, seed: u64, sink: Sink, out: &mut Out<Self>) -> Result<(), String> {
        // The setup closes (= erasure-codes) the open blocks, so the copy
        // batches have coded stripes, parity cells included, to move.
        let mut s = Script::seeded(seed, sink, (0..KEYS).map(|j| key("ek", j)))?;
        let store = Arc::clone(s.eng.store());
        let n = store.cfg.num_mns;

        // ---- Start the migration --------------------------------------------
        let col = s.rng.gen_range(0..n);
        out.facts.col = col;
        let mut mig = match cell.kill {
            ElasticKill::DrainMn => store.begin_drain(col),
            _ => store.begin_join(col),
        }
        .ctx("begin migration")?;
        let from = mig.from_node();

        // The client predates the announce, so it carries a pre-migration
        // placement snapshot into the first windows (the stale-client path).
        let mut client = store.client_with(fail_fast()).ctx("client")?;

        let mut plan: Option<Arc<FaultPlan>> = None;
        let mut victim = from;
        let mut prev_epoch = store.placement().epoch();
        let mut handled = false;
        let mut copy_seen = false;

        loop {
            let step = match mig.step() {
                Ok(s) => s,
                Err(e) => {
                    out.violations.push(format!("migrator step failed: {e}"));
                    break;
                }
            };
            if step == ElasticStep::Done {
                break;
            }

            // Elastic invariant 1 (during): the placement epoch strictly
            // advances at every migrator step.
            let epoch = store.placement().epoch();
            if epoch <= prev_epoch {
                out.violations.push(format!(
                    "placement epoch not monotone at {step}: {prev_epoch} -> {epoch}"
                ));
            }
            prev_epoch = epoch;
            out.facts.epochs.push(epoch);

            // The MN kill is armed right after the announce (the join target's
            // id exists from here on), phase-gated to the chosen boundary.
            if step == ElasticStep::Announce && cell.kill != ElasticKill::Cn {
                if cell.kill == ElasticKill::JoinMn {
                    victim = mig.to_node().ok_or("join target not announced")?;
                }
                let p = FaultPlan::with_rules(vec![FaultRule::new(FaultAction::KillNode)
                    .on_node(victim)
                    .in_phase(cell.boundary as u32)]);
                client.dm.install_fault_plan(Arc::clone(&p));
                plan = Some(p);
            }
            let window = ElasticBoundary::of(step, store.cfg.elastic_groups);
            if let Some(p) = &plan {
                p.set_phase(window as u32);
            }

            // The kill lands in the first window of its boundary (for Copy:
            // after the first batch, with groups split between the sides).
            let first_of_window = window != ElasticBoundary::Copy || !copy_seen;
            copy_seen |= window == ElasticBoundary::Copy;
            let at_kill = !handled && window == cell.boundary && first_of_window;
            let armed = match (at_kill, cell.kill) {
                (false, _) => Armed::Nothing,
                (true, ElasticKill::Cn) => Armed::Crash,
                (true, _) => Armed::Blocked,
            };
            if armed == Armed::Crash {
                client.crash_point = Some(CrashPoint::BeforeCommit);
            }

            let interrupted = run_window(&mut client, &mut s, out, armed);

            if !at_kill {
                continue;
            }
            handled = true;
            if cell.kill == ElasticKill::Cn {
                if !interrupted {
                    out.violations.push("CN crash point never fired".into());
                }
            } else {
                out.facts.kill_fired_at_verb = plan
                    .as_ref()
                    .is_some_and(|p| p.fired().iter().any(|f| f.action == FaultAction::KillNode));
                // Post-publish the source holds nothing: a traffic verb
                // addressed to it means a client resolved through a retired
                // column.
                let retired_source = cell.kill == ElasticKill::DrainMn
                    && matches!(
                        cell.boundary,
                        ElasticBoundary::Publish | ElasticBoundary::Free
                    );
                if retired_source && out.facts.kill_fired_at_verb {
                    out.violations
                        .push("client verb reached the retired source post-publish".into());
                }
                if !out.facts.kill_fired_at_verb {
                    // The client never addressed the victim in this window
                    // (stale snapshot, or a retired source): kill directly at
                    // the boundary. Killing through the directory keeps the
                    // server's liveness flag in sync when the victim is the
                    // column's serving node.
                    let was_alive = if store.directory().node_of(col) == victim {
                        store.kill_mn(col)
                    } else {
                        store.cluster.kill_node(victim)
                    };
                    // Only an already-drained source may ignore the kill.
                    let drained_source =
                        cell.kill == ElasticKill::DrainMn && cell.boundary == ElasticBoundary::Free;
                    if !(was_alive || drained_source) {
                        out.violations
                            .push(format!("kill of {victim:?} reported node already dead"));
                    }
                }
                // Pre-publish: abort first (placement reverts to the
                // directory, the half-filled target retires, the fences drop)
                // so CN repair does not dual-write into a dead mirror.
                if !mig.published() {
                    mig.abort();
                    out.facts.aborted = true;
                }
            }
            // ---- Tiered response: CN consistency, then MN recovery. A CN
            // crash is repaired with the migration (and its dual-write
            // mirror) still in flight.
            s.recover(interrupted.then_some(client.id()).as_slice())?;
            client = store.client_with(fail_fast()).ctx("post-fault client")?;
        }

        // ---- Post-fault liveness --------------------------------------------
        // One quiet window after the migration completed (or aborted): every
        // op must succeed against the settled membership.
        run_window(&mut client, &mut s, out, Armed::Nothing);
        drop(client);
        store.cluster.trace_barrier();

        if out.facts.committed_ops == 0 {
            out.violations
                .push("no client op committed during the migration".into());
        }

        // ---- Invariants -----------------------------------------------------
        // Elastic invariant 1 (after): no epoch regression across recovery.
        let final_epoch = store.placement().epoch();
        if final_epoch < prev_epoch {
            out.violations.push(format!(
                "placement epoch regressed after recovery: {prev_epoch} -> {final_epoch}"
            ));
        }

        // Elastic invariant 2: every retired node is dead, no directory entry
        // serves one, and the migration closed.
        let snap = store.placement().snapshot();
        if snap.migration.is_some() {
            out.violations
                .push("migration left open on the placement map".into());
        }
        for &r in &snap.retired {
            if store.cluster.node(r).is_ok() {
                out.violations
                    .push(format!("retired node {r:?} still alive"));
            }
            for c in (0..n).filter(|&c| store.directory().node_of(c) == r) {
                out.violations
                    .push(format!("directory serves col {c} from retired node {r:?}"));
            }
        }
        if out.facts.aborted {
            if snap.retired.contains(&from) {
                out.violations
                    .push("aborted migration retired its source".into());
            }
        } else if !snap.retired.contains(&from) {
            out.violations
                .push("completed migration did not retire its source".into());
        }

        // The fresh client's oracle sweep doubles as the readability half of
        // elastic invariant 2: a KV whose only copy sat on a retired column
        // cannot read back.
        let probes: Vec<Vec<u8>> = s.oracle.windows.keys().cloned().collect();
        s.judge(&[], &probes, &mut out.violations)?;
        Ok(())
    }

    fn summary(o: &[Out<Self>]) -> String {
        format!(
            "{} committed ops under migration, {} mid-op verb kills, {} aborts",
            o.iter().map(|o| o.facts.committed_ops).sum::<usize>(),
            o.iter().filter(|o| o.facts.kill_fired_at_verb).count(),
            o.iter().filter(|o| o.facts.aborted).count()
        )
    }

    fn traced_note(out: &Out<Self>) -> String {
        format!("{} ops under migration, ", out.facts.committed_ops)
    }
}

/// One traffic window: `OPS_PER_WINDOW` updates/searches against the
/// preloaded keys, each that completes counted in `committed_ops`. `armed`
/// is the cut the window's fault (if any) may cause; returns `true` when
/// it did (the caller writes the client off).
fn run_window(
    client: &mut AcesoClient,
    s: &mut Script,
    out: &mut Out<Elastic>,
    armed: Armed,
) -> bool {
    for opno in 0..OPS_PER_WINDOW {
        let key = key("ek", s.rng.gen_range(0..KEYS));
        // Mutation-heavy mix: reads every third op exercise the
        // mid-migration (possibly degraded/mirrored) read path, and pin
        // the state of a key an earlier interrupted op left ambiguous.
        let write = (opno % 3 != 2).then(|| gen_value(&mut s.rng, b'T'));
        let res = match &write {
            Some(val) => client.update(&key, val).map(|()| None),
            None => client.search(&key),
        };
        let op = write.map_or(Op::Read("search mismatch"), |v| Op::Write(Some(v)));
        match s.oracle.fold(&key, op, res, armed, &mut out.violations) {
            Fold::Done => out.facts.committed_ops += 1,
            Fold::Cut(_) => return true,
            Fold::Unexpected => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::run_cell;

    fn run(kill: ElasticKill, boundary: ElasticBoundary) -> Out<Elastic> {
        let cell = ElasticCell { kill, boundary };
        let out = run_cell::<Elastic>(cell, crate::DEFAULT_SEED, None);
        assert!(out.ok(), "{cell}: {:?}", out.violations);
        out
    }

    /// The joining node dies right after the first copy batch: the
    /// migration aborts, nothing needs recovery, and all invariants hold.
    #[test]
    fn join_target_killed_mid_copy_aborts_clean() {
        let out = run(ElasticKill::JoinMn, ElasticBoundary::Copy);
        assert!(out.facts.aborted);
        assert!(out.facts.committed_ops > 0);
    }

    /// The draining source dies at the announce boundary: abort + ordinary
    /// MN recovery rebuild the column.
    #[test]
    fn drain_source_killed_at_announce_recovers() {
        assert!(
            run(ElasticKill::DrainMn, ElasticBoundary::Announce)
                .facts
                .aborted
        );
    }

    /// A client crash at the publish boundary: CN recovery runs against
    /// the just-republished column and the migration still completes.
    #[test]
    fn cn_crash_at_publish_completes_migration() {
        let out = run(ElasticKill::Cn, ElasticBoundary::Publish);
        assert!(!out.facts.aborted, "CN crashes never abort the migration");
    }

    /// Post-publish the drained source must receive no client verbs: the
    /// phase-gated kill rule stays silent and the direct kill is a no-op
    /// at the free boundary.
    #[test]
    fn retired_source_receives_no_client_verbs() {
        for boundary in [ElasticBoundary::Publish, ElasticBoundary::Free] {
            let out = run(ElasticKill::DrainMn, boundary);
            assert!(
                !out.facts.kill_fired_at_verb,
                "{boundary:?}: verb reached retired source"
            );
            assert!(!out.facts.aborted);
        }
    }
}
