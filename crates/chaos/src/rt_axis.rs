//! `chaos rt` — the coroutine-runtime fault axis.
//!
//! The crash matrix kills nodes under a *single* blocking client. This
//! axis kills them under an [`aceso_rt::Executor`] multiplexing several
//! resumable client ops on one OS thread: the fault fires while N > 1
//! tasks are suspended mid-op at a fabric round trip, so recovery has to
//! cope with several half-finished commits from the *same* thread at
//! once — the failure mode the paper's client coroutines (§4.1) add on
//! top of the plain crash matrix.
//!
//! Two cells:
//!
//! * [`RtKill::Mn`] — a memory node dies at a fixed completion-queue
//!   step (so the kill lands between polls, with every in-flight task
//!   suspended at a round trip); the suspended tasks wake into an
//!   unreachable fabric and are written off as crashed-while-blocked.
//! * [`RtKill::Cn`] — one task's client crashes at a protocol crash
//!   point ([`CrashPoint::BeforeCommit`]) while its sibling tasks keep
//!   running on the same executor thread.
//!
//! Every task owns a disjoint key range, so the shared oracle stays
//! exact under interleaving; tasks interrupted mid-op contribute a
//! per-key commit ambiguity window instead. Post-conditions are
//! [`crate::axis::Script::judge`], probing every interrupted key.

use crate::axis::{fail_fast, gen_value, key, Axis, Ctx, Out, Script, Sink};
use crate::invariants::{Armed, Fold, Op, Oracle};
use aceso_core::client::CrashPoint;
use aceso_core::FtError;
use aceso_rdma::SimCq;
use aceso_rt::Executor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Coroutine tasks multiplexed on the one executor thread.
pub const RT_TASKS: usize = 6;
/// Keys each task owns (disjoint ranges keep the oracle exact).
const KEYS_PER_TASK: usize = 4;
/// Ops each task issues (alternating update / search).
const OPS_PER_TASK: usize = 6;
/// CQ advance step at which [`RtKill::Mn`] fires. Early enough that all
/// tasks are still mid-stream, late enough that commits are in flight.
const MN_KILL_STEP: u64 = 48;

/// Which side of the fabric dies under the runtime (the axis' cell).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtKill {
    /// Kill a memory node between executor polls.
    Mn,
    /// Crash one task's client at a protocol crash point.
    Cn,
}

impl fmt::Display for RtKill {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RtKill::Mn => "kill-mn",
            RtKill::Cn => "crash-cn",
        })
    }
}

/// What one runtime cell observes besides its violations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RtFacts {
    /// Tasks still mid-op when the fault fired (must be > 1).
    pub inflight_at_fault: usize,
    /// Tasks written off as crashed or blocked.
    pub crashed_tasks: usize,
}

/// The coroutine-runtime axis (`chaos rt`).
pub struct Rt;

impl Axis for Rt {
    type Cell = RtKill;
    type Facts = RtFacts;
    const NAME: &'static str = "rt";
    const CELLS_ARE: &'static str = "kill-under-runtime cells";
    const CLEAN: &'static str = "every kill under the coroutine runtime held its invariants";

    fn cells() -> Vec<RtKill> {
        vec![RtKill::Mn, RtKill::Cn]
    }

    /// Both cells: coroutine clients interleave at *round-trip*
    /// granularity on one OS thread, so per-client trace ids must survive
    /// the interleaving for the happens-before graph to stay sound.
    fn traced() -> Vec<RtKill> {
        Self::cells()
    }

    fn run(kill: RtKill, seed: u64, sink: Sink, out: &mut Out<Self>) -> Result<(), String> {
        let keys = (0..RT_TASKS)
            .flat_map(|t| (0..KEYS_PER_TASK).map(move |j| key(format_args!("rt-{t}"), j)));
        let mut s = Script::seeded(seed, sink, keys)?;
        let store = Arc::clone(s.eng.store());
        let shared = Rc::new(RefCell::new(SharedState {
            oracle: std::mem::take(&mut s.oracle),
            ..SharedState::default()
        }));

        // ---- Spawn the coroutine clients ------------------------------------
        // Fail-fast tuning matters doubly here: the retry sleeps run inline on
        // the executor thread, so they must stay short.
        let kill_col = s.rng.gen_range(0..store.cfg.num_mns);
        let mn_kill_planned = kill == RtKill::Mn;
        // A crash is always a task's to suffer; a dead node only in the MN cell.
        let armed = match kill {
            RtKill::Mn => Armed::Both,
            RtKill::Cn => Armed::Crash,
        };

        let cq = Arc::new(SimCq::new());
        let mut exec = Executor::new();
        for t in 0..RT_TASKS {
            let mut client = store.client_with(fail_fast()).ctx(&format!("client {t}"))?;
            client.dm.attach_cq(Arc::clone(&cq));
            if kill == RtKill::Cn && t == 0 {
                client.crash_point = Some(CrashPoint::BeforeCommit);
            }
            let shared = Rc::clone(&shared);
            let mut task_rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9e37_79b9));
            exec.spawn(async move {
                for opno in 0..OPS_PER_TASK {
                    let key = key(format_args!("rt-{t}"), task_rng.gen_range(0..KEYS_PER_TASK));
                    // Even ops mutate (so the CN crash point fires early),
                    // odd ops read back through the full search path.
                    let write = (opno % 2 == 0).then(|| gen_value(&mut task_rng, b'0' + t as u8));
                    let res = match &write {
                        Some(val) => client.update_async(&key, val).await.map(|()| None),
                        None => client.search_async(&key).await,
                    };
                    let complaint = format!("task {t}: search mismatch");
                    let op = write.map_or(Op::Read(&complaint), |v| Op::Write(Some(v)));
                    let st = &mut *shared.borrow_mut();
                    match st.oracle.fold(&key, op, res, armed, &mut st.violations) {
                        Fold::Done => continue,
                        // The armed crash point fired mid-commit — or the MN
                        // died under the op and nobody recovers it until the
                        // executor drains: written off as crashed-while-
                        // blocked, like the matrix runner.
                        Fold::Cut(e) => {
                            if matches!(e, FtError::Crashed(_)) {
                                st.sample_inflight();
                            }
                            st.crashed.push(client.id());
                        }
                        Fold::Unexpected => {}
                    }
                    break;
                }
                client.dm.detach_cq();
                shared.borrow_mut().finished += 1;
            });
        }

        // ---- Drive to idle, killing mid-suspension --------------------------
        // The drive closure only runs when the ready queue is empty, i.e.
        // every live task is suspended at a fabric round trip — exactly the
        // window the MN kill must land in.
        let mut steps = 0u64;
        let mut mn_killed = false;
        let stuck = exec.run_until_idle(|| {
            let advanced = cq.advance_next();
            steps += u64::from(advanced);
            if advanced && mn_kill_planned && steps == MN_KILL_STEP {
                mn_killed = store.kill_mn(kill_col);
                shared.borrow_mut().sample_inflight();
            }
            advanced
        });
        if stuck != 0 {
            out.violations
                .push(format!("executor wedged with {stuck} tasks in flight"));
        }
        if mn_kill_planned && !mn_killed {
            out.violations.push(format!(
                "MN kill never fired (run drained in {steps} < {MN_KILL_STEP} CQ steps)"
            ));
        }

        let st = shared.take();
        out.violations.extend(st.violations);
        out.facts.inflight_at_fault = st.inflight_at_fault.unwrap_or(0);
        out.facts.crashed_tasks = st.crashed.len();
        if out.facts.inflight_at_fault < 2 {
            out.violations.push(format!(
                "fault fired with {} tasks in flight (need > 1 suspended mid-op)",
                out.facts.inflight_at_fault
            ));
        }
        if kill == RtKill::Cn && st.crashed.is_empty() {
            out.violations.push("CN crash point never fired".into());
        }

        // ---- Tiered recovery (§3.4: CN consistency first, then MN) ----------
        s.recover(&st.crashed)?;

        // ---- Invariants -----------------------------------------------------
        let probes: Vec<Vec<u8>> = st.oracle.windows.keys().cloned().collect();
        s.oracle = st.oracle;
        s.judge(&[], &probes, &mut out.violations)?;
        Ok(())
    }

    fn summary(o: &[Out<Self>]) -> String {
        format!(
            "{RT_TASKS} tasks per cell on one executor thread, {} in flight at fault, {} written off",
            o.iter().map(|o| o.facts.inflight_at_fault).sum::<usize>(),
            o.iter().map(|o| o.facts.crashed_tasks).sum::<usize>()
        )
    }

    fn traced_note(out: &Out<Self>) -> String {
        format!(
            "{RT_TASKS} tasks (one thread), {} in flight at fault, ",
            out.facts.inflight_at_fault
        )
    }
}

/// State the tasks share through the single-threaded executor.
#[derive(Default)]
struct SharedState {
    /// Predicted store state (tasks own disjoint keys), with a window per
    /// interrupted op.
    oracle: Oracle,
    /// Client ids of tasks written off as crashed/blocked.
    crashed: Vec<u32>,
    /// Violations observed while the tasks ran.
    violations: Vec<String>,
    /// Tasks that ran to completion (or stopped) so far.
    finished: usize,
    /// `RT_TASKS - finished` sampled when the fault fired.
    inflight_at_fault: Option<usize>,
}

impl SharedState {
    fn sample_inflight(&mut self) {
        let inflight = RT_TASKS - self.finished;
        self.inflight_at_fault.get_or_insert(inflight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::run_cell;

    /// The MN dies between polls with several tasks suspended mid-op;
    /// every invariant holds after tiered recovery.
    #[test]
    fn mn_kill_under_runtime_passes() {
        let out = run_cell::<Rt>(RtKill::Mn, crate::DEFAULT_SEED, None);
        assert!(out.ok(), "{:?}", out.violations);
        assert!(out.facts.inflight_at_fault >= 2, "{:?}", out.facts);
    }

    /// One task's client crashes at a protocol crash point while its
    /// siblings keep running on the same executor thread.
    #[test]
    fn cn_crash_under_runtime_passes() {
        let out = run_cell::<Rt>(RtKill::Cn, crate::DEFAULT_SEED, None);
        assert!(out.ok(), "{:?}", out.violations);
        assert_eq!(out.facts.crashed_tasks, 1);
        assert!(out.facts.inflight_at_fault >= 2, "{:?}", out.facts);
    }
}
