//! `chaos explore` — the bounded model-checking axis.
//!
//! Drives [`aceso_model`] end to end and renders a CI-stable report:
//!
//! 1. **Step-table drift** — every `.settle().await` in the async client
//!    must be inventoried in [`aceso_model::STEP_TABLE`]; an explored
//!    step space that silently lags the code is worthless.
//! 2. **Linearizability-checker self-tests** — known-good history
//!    accepted, stale read after an acknowledged update rejected, torn
//!    history rejected. A dead oracle fails the run.
//! 3. **Baseline exploration** — every interleaving (to the depth bound)
//!    and every crash of every scheduling point across the baseline
//!    scenarios must satisfy every oracle: zero violations.
//! 4. **Mutation self-tests** — each protocol mutation must make the
//!    explorer find a violation, which is minimized and printed step by
//!    step; a mutation the explorer shrugs off means the checker cannot
//!    see the very bug class it exists for.
//!
//! The report carries no wall-clock numbers, so two runs with the same
//! seed diff byte-identically.

use aceso_model::wgl::{check_key, KeyOp, KeyOpKind};
use aceso_model::{baseline_scenarios, explore, mutation_scenarios, ScenarioReport};

/// Outcome of the full `chaos explore` run.
#[derive(Clone, Debug, Default)]
pub struct ExploreCliReport {
    /// Seed the explorations derived from.
    pub seed: u64,
    /// Step-table drift messages (must be empty).
    pub drift: Vec<String>,
    /// Linearizability self-test failures (must be empty).
    pub wgl_failures: Vec<String>,
    /// Baseline scenario reports (violations must all be `None`).
    pub baseline: Vec<ScenarioReport>,
    /// Mutation scenario reports (violations must all be `Some`).
    pub mutations: Vec<ScenarioReport>,
}

impl ExploreCliReport {
    /// `true` when the whole stack held.
    pub fn clean(&self) -> bool {
        self.drift.is_empty()
            && self.wgl_failures.is_empty()
            && self
                .baseline
                .iter()
                .all(|r| r.violation.is_none() && !r.stats.budget_exhausted)
            && self.mutations.iter().all(|r| r.violation.is_some())
    }

    /// Renders the deterministic report body.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let push = |s: &mut String, line: String| {
            s.push_str(&line);
            s.push('\n');
        };
        push(&mut s, "== step table ==".to_string());
        if self.drift.is_empty() {
            push(
                &mut s,
                format!(
                    "ok: all {} suspension-point functions match the source",
                    aceso_model::STEP_TABLE.len()
                ),
            );
        }
        for d in &self.drift {
            push(&mut s, format!("DRIFT: {d}"));
        }
        push(&mut s, "== linearizability self-tests ==".to_string());
        if self.wgl_failures.is_empty() {
            push(
                &mut s,
                "ok: accepts good, rejects stale and torn".to_string(),
            );
        }
        for f in &self.wgl_failures {
            push(&mut s, format!("DEAD ORACLE: {f}"));
        }
        push(&mut s, "== baseline exploration ==".to_string());
        for r in &self.baseline {
            render_scenario(&mut s, r, false);
        }
        push(&mut s, "== mutation self-tests ==".to_string());
        for r in &self.mutations {
            render_scenario(&mut s, r, true);
        }
        let verdict = if self.clean() { "CLEAN" } else { "FAILED" };
        push(
            &mut s,
            format!("explore: {verdict} (seed {:#x})", self.seed),
        );
        s
    }
}

fn render_scenario(s: &mut String, r: &ScenarioReport, expect_violation: bool) {
    let stats = &r.stats;
    let verdict = match (&r.violation, expect_violation, stats.budget_exhausted) {
        (_, _, true) if r.violation.is_none() => "BUDGET-EXHAUSTED",
        (None, false, _) => "ok",
        (Some(_), true, _) => "caught",
        (Some(_), false, _) => "VIOLATION",
        (None, true, _) => "MISSED",
    };
    s.push_str(&format!(
        "{verdict:<9} {:<22} states={} crash-leaves={} pruned={} executions={} max-depth={}\n",
        r.name, stats.nodes, stats.crash_leaves, stats.pruned, stats.executions, stats.max_depth
    ));
    if let Some(v) = &r.violation {
        s.push_str(&format!(
            "  minimized counterexample ({} scheduling choices):\n",
            v.prefix.len()
        ));
        for line in &v.schedule {
            s.push_str(&format!("    {line}\n"));
        }
        for m in &v.messages {
            s.push_str(&format!("    | {m}\n"));
        }
    }
}

/// Runs the linearizability-checker self-tests (the satellite's three
/// cases). Returns failure messages; empty = the oracle is alive.
pub fn wgl_selftests() -> Vec<String> {
    let mut failures = Vec::new();
    let w = |v: &[u8], inv: u64, resp: Option<u64>| KeyOp {
        kind: KeyOpKind::Write(Some(v.to_vec())),
        inv,
        resp,
        who: "A".to_string(),
    };
    let r = |v: Option<&[u8]>, inv: u64, resp: u64| KeyOp {
        kind: KeyOpKind::Read(v.map(<[u8]>::to_vec)),
        inv,
        resp: Some(resp),
        who: "B".to_string(),
    };
    // 1. Known-good: overlapping read may land either side of the write.
    let good = [
        w(b"b", 0, Some(3)),
        r(Some(b"a"), 1, 2),
        r(Some(b"b"), 4, 5),
    ];
    if !check_key(Some(b"a"), &good) {
        failures.push("rejected a known-good concurrent history".to_string());
    }
    // 2. Stale read strictly after an acknowledged update.
    let stale = [w(b"b", 0, Some(1)), r(Some(b"a"), 2, 3)];
    if check_key(Some(b"a"), &stale) {
        failures.push("accepted a stale read after an acknowledged update".to_string());
    }
    // 3. Torn multi-op history: one write observed, then un-observed.
    let torn = [
        w(b"b", 0, Some(5)),
        r(Some(b"b"), 1, 2),
        r(Some(b"a"), 3, 4),
    ];
    if check_key(Some(b"a"), &torn) {
        failures.push("accepted a torn (observed-then-unobserved) history".to_string());
    }
    failures
}

/// Runs the full explore stack. `progress` is called once per finished
/// scenario.
pub fn run_explore(seed: u64, mut progress: impl FnMut(&ScenarioReport)) -> ExploreCliReport {
    let mut report = ExploreCliReport {
        seed,
        drift: aceso_model::check_step_table(),
        wgl_failures: wgl_selftests(),
        ..ExploreCliReport::default()
    };
    for s in baseline_scenarios() {
        let r = explore(&s, seed);
        progress(&r);
        report.baseline.push(r);
    }
    for s in mutation_scenarios() {
        let r = explore(&s, seed);
        progress(&r);
        report.mutations.push(r);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle self-tests hold.
    #[test]
    fn wgl_selftests_pass() {
        assert_eq!(wgl_selftests(), Vec::<String>::new());
    }

    /// The step table matches the source right now.
    #[test]
    fn no_step_table_drift() {
        assert_eq!(aceso_model::check_step_table(), Vec::<String>::new());
    }
}
