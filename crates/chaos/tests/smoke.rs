//! End-to-end smoke of the chaos harness: a small deterministic slice of
//! the CI matrix must run clean, reproduce identically, and actually
//! exercise the fault machinery (kills, injections, client crashes).

use aceso_chaos::cell::{ci_matrix, Cell, KillTiming};
use aceso_chaos::runner::SweepFacts;
use aceso_chaos::{run_matrix, Report, Sweep, DEFAULT_SEED};

fn outcome_fingerprint(report: &Report<Sweep>) -> Vec<(String, &Vec<String>, &SweepFacts)> {
    report
        .outcomes
        .iter()
        .map(|o| (o.cell.to_string(), &o.violations, &o.facts))
        .collect()
}

#[test]
fn ci_slice_is_clean_and_deterministic() {
    // A slice of the real CI profile, padded with a kill cell so the
    // smoke is guaranteed to cross the recovery path.
    let mut cells: Vec<Cell> = ci_matrix(DEFAULT_SEED, 6);
    if !cells.iter().any(|c| c.kill != KillTiming::None) {
        cells.extend(
            ci_matrix(DEFAULT_SEED, 120)
                .into_iter()
                .find(|c| c.kill != KillTiming::None),
        );
    }

    let a = run_matrix::<Sweep>(&cells, DEFAULT_SEED, |_| {});
    assert!(
        a.clean(),
        "smoke slice violated invariants:\n{}",
        a.render(true)
    );

    // Same seed, same cells: bit-identical schedules and outcomes.
    let b = run_matrix::<Sweep>(&cells, DEFAULT_SEED, |_| {});
    assert_eq!(outcome_fingerprint(&a), outcome_fingerprint(&b));

    // The slice must exercise the machinery, not just quiet cells.
    assert!(
        a.outcomes.iter().any(|o| o.facts.mn_killed),
        "no MN ever killed"
    );

    // The report renders a coverage section and the explored-cell count;
    // only the stdout form carries wall-clock lines.
    let rendered = a.render(true);
    assert!(rendered.contains("chaos report"));
    assert!(rendered.contains(&format!("{} cells", cells.len())));
    assert!(rendered.contains("wall-time") && !a.render(false).contains("wall-time"));
}
