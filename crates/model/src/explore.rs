//! The bounded DFS over schedules and crashes, with sleep-set pruning.
//!
//! A node of the search tree is a schedule *prefix*: the sequence of
//! completion deliveries chosen so far. Expanding a node costs one
//! execution ([`crate::exec::run`]) and yields three things at once: the
//! footprint of each replayed choice, the enabled set at the frontier,
//! and — because the execution then drains deterministically and judges
//! the oracles — the verdict of the terminal leaf "this prefix, then the
//! default schedule". On top of that, every node doubles as a crash
//! site: each enabled client is cancelled in place, the home memory node
//! of key 0 is killed, and both together, each in its own execution with
//! full recovery and oracle checking.
//!
//! Pruning is sleep-set DPOR driven by the sanitizer's happens-before
//! conflict relation ([`aceso_san::footprints_conflict`]): after
//! exploring child `c`, its sibling subtrees inherit `c` in their sleep
//! set until a conflicting step wakes it, so commuting interleavings are
//! enumerated once. Sleep sets only ever remove redundant interleavings —
//! every Mazurkiewicz trace up to the depth bound is still visited.

use crate::exec::{run, CrashSpec, RunResult};
use crate::scenario::{client_letter, Scenario};
use aceso_san::{footprints_conflict, Access};

/// Exploration counters (all deterministic; no wall-clock).
#[derive(Clone, Debug, Default)]
pub struct ExploreStats {
    /// Tree nodes expanded (each is one execution and one terminal leaf).
    pub nodes: usize,
    /// Crash leaves executed.
    pub crash_leaves: usize,
    /// Children skipped by the sleep set.
    pub pruned: usize,
    /// Total executions (nodes + crash leaves + minimization replays).
    pub executions: usize,
    /// Deepest prefix expanded.
    pub max_depth: usize,
    /// The execution budget ran out before the bounded space was covered.
    pub budget_exhausted: bool,
}

/// A failed execution, minimized and rendered.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Minimized schedule prefix (trace tags).
    pub prefix: Vec<u32>,
    /// Crash injected at the frontier, if any.
    pub crash: Option<CrashSpec>,
    /// Oracle messages from the minimized execution.
    pub messages: Vec<String>,
    /// Human-readable schedule, step by step.
    pub schedule: Vec<String>,
}

/// Outcome of exploring one scenario.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: &'static str,
    /// Counters.
    pub stats: ExploreStats,
    /// First violation found (exploration stops at it), minimized.
    pub violation: Option<Violation>,
}

struct Dfs<'a> {
    scenario: &'a Scenario,
    seed: u64,
    stats: ExploreStats,
}

enum Found {
    Violation(Vec<u32>, Option<CrashSpec>, Vec<String>),
    Budget,
}

impl Dfs<'_> {
    fn run_counted(
        &mut self,
        prefix: &[u32],
        crash: Option<&CrashSpec>,
    ) -> Result<RunResult, Found> {
        if self.stats.executions >= self.scenario.max_executions {
            self.stats.budget_exhausted = true;
            return Err(Found::Budget);
        }
        self.stats.executions += 1;
        Ok(run(self.scenario, self.seed, prefix, crash))
    }

    /// Expands the node `prefix`, whose own execution produced `res`.
    fn visit(
        &mut self,
        prefix: &mut Vec<u32>,
        res: RunResult,
        sleep: Vec<(u32, Vec<Access>)>,
    ) -> Result<(), Found> {
        self.stats.nodes += 1;
        self.stats.max_depth = self.stats.max_depth.max(prefix.len());
        if !res.ok() {
            return Err(Found::Violation(prefix.clone(), None, res.violations));
        }

        // Crash leaves: every enabled client, the MN, and both at once.
        let enabled_tasks: Vec<usize> = res
            .enabled
            .iter()
            .filter_map(|t| res.tag_task.get(t).copied())
            .collect();
        let mut crashes: Vec<CrashSpec> = enabled_tasks.iter().map(|&t| CrashSpec::Cn(t)).collect();
        if !enabled_tasks.is_empty() {
            crashes.push(CrashSpec::Mn);
            crashes.push(CrashSpec::CnAndMn(enabled_tasks[0]));
        }
        for crash in crashes {
            let leaf = self.run_counted(prefix, Some(&crash))?;
            self.stats.crash_leaves += 1;
            if !leaf.ok() {
                return Err(Found::Violation(
                    prefix.clone(),
                    Some(crash),
                    leaf.violations,
                ));
            }
        }

        // Children, in tag order, under the sleep set.
        if prefix.len() >= self.scenario.depth {
            return Ok(());
        }
        let mut taken: Vec<(u32, Vec<Access>)> = Vec::new();
        for &tag in &res.enabled {
            if sleep.iter().any(|(s, _)| *s == tag) {
                self.stats.pruned += 1;
                continue;
            }
            prefix.push(tag);
            let child = self.run_counted(prefix, None)?;
            let fp = child.step_fps.last().cloned().unwrap_or_default();
            let child_sleep: Vec<(u32, Vec<Access>)> = sleep
                .iter()
                .chain(taken.iter())
                .filter(|(_, sfp)| !footprints_conflict(sfp, &fp))
                .cloned()
                .collect();
            self.visit(prefix, child, child_sleep)?;
            prefix.pop();
            taken.push((tag, fp));
        }
        Ok(())
    }
}

/// Explores one scenario exhaustively to its depth bound. Deterministic:
/// same scenario + seed, same report.
pub fn explore(scenario: &Scenario, seed: u64) -> ScenarioReport {
    let mut dfs = Dfs {
        scenario,
        seed,
        stats: ExploreStats::default(),
    };
    let found = match dfs.run_counted(&[], None) {
        Ok(root) => dfs.visit(&mut Vec::new(), root, Vec::new()).err(),
        Err(f) => Some(f),
    };
    let violation = match found {
        None | Some(Found::Budget) => None,
        Some(Found::Violation(prefix, crash, messages)) => {
            Some(minimize(&mut dfs, prefix, crash, messages))
        }
    };
    ScenarioReport {
        name: scenario.name,
        stats: dfs.stats,
        violation,
    }
}

/// Shrinks a violating (prefix, crash) to the shortest prefix that still
/// reproduces a violation with the same crash, and renders the schedule.
fn minimize(
    dfs: &mut Dfs<'_>,
    prefix: Vec<u32>,
    crash: Option<CrashSpec>,
    messages: Vec<String>,
) -> Violation {
    let mut best_prefix = prefix.clone();
    let mut best_messages = messages;
    let mut best_res: Option<RunResult> = None;
    for k in 0..prefix.len() {
        // Minimization replays ignore the exploration budget: the
        // counterexample is already in hand and must be reported.
        dfs.stats.executions += 1;
        let r = run(dfs.scenario, dfs.seed, &prefix[..k], crash.as_ref());
        if !r.ok() {
            best_prefix = prefix[..k].to_vec();
            best_messages.clone_from(&r.violations);
            best_res = Some(r);
            break;
        }
    }
    let res = best_res.unwrap_or_else(|| {
        dfs.stats.executions += 1;
        run(dfs.scenario, dfs.seed, &best_prefix, crash.as_ref())
    });
    let schedule = render_schedule(&best_prefix, crash.as_ref(), &res);
    Violation {
        prefix: best_prefix,
        crash,
        messages: best_messages,
        schedule,
    }
}

fn render_schedule(prefix: &[u32], crash: Option<&CrashSpec>, res: &RunResult) -> Vec<String> {
    let mut lines = Vec::new();
    for (i, tag) in prefix.iter().enumerate() {
        let who = res
            .tag_task
            .get(tag)
            .map(|&t| client_letter(t).to_string())
            .unwrap_or_else(|| format!("tag{tag}"));
        let fp = res.step_fps.get(i);
        let detail = match fp {
            Some(f) if !f.is_empty() => {
                format!("{} verbs, first {}", f.len(), f[0])
            }
            _ => "no verbs".to_string(),
        };
        lines.push(format!("step {:>2}: deliver {who}  ({detail})", i + 1));
    }
    match crash {
        Some(c) => lines.push(format!("then  : {}", c.label())),
        None => lines.push("then  : no crash".to_string()),
    }
    lines.push("then  : drain to idle, recover, judge oracles".to_string());
    lines
}
