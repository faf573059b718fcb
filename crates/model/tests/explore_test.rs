//! Exploration-level tests, kept cheap for `cargo test`: shallow depth
//! bounds on the baseline (full-depth exploration runs in CI via
//! `chaos explore --ci`), and the one mutation that needs no schedule.

use aceso_model::{baseline_scenarios, explore, mutation_scenarios};

const SEED: u64 = 0xACE50;

/// A shallow baseline exploration is clean: every interleaving to depth
/// 2 and every crash of those scheduling points passes all oracles.
#[test]
fn shallow_baseline_explores_clean() {
    let mut s = baseline_scenarios()
        .into_iter()
        .find(|s| s.name == "upd-srch")
        .unwrap();
    s.depth = 2;
    let r = explore(&s, SEED);
    assert!(r.violation.is_none(), "{:#?}", r.violation);
    assert!(!r.stats.budget_exhausted);
    assert!(r.stats.nodes >= 3, "{:?}", r.stats);
    assert!(r.stats.crash_leaves > 0, "{:?}", r.stats);
}

/// The skip-commit-CAS mutation is caught immediately (no crash, no
/// schedule): the acknowledged update never becomes visible.
#[test]
fn skip_commit_cas_is_caught_and_minimized() {
    let s = mutation_scenarios()
        .into_iter()
        .find(|s| s.name == "mut-skip-commit-cas")
        .unwrap();
    let r = explore(&s, SEED);
    let v = r.violation.expect("mutation must be caught");
    assert!(
        v.prefix.is_empty(),
        "minimal counterexample: {:?}",
        v.prefix
    );
    assert!(v.crash.is_none());
    assert!(
        v.messages.iter().any(|m| m.contains("non-linearizable")),
        "{:#?}",
        v.messages
    );
    assert!(!v.schedule.is_empty());
}

/// Same seed, same exploration: stats and violation render identically.
#[test]
fn exploration_is_deterministic() {
    let mut s = baseline_scenarios()
        .into_iter()
        .find(|s| s.name == "upd-upd")
        .unwrap();
    s.depth = 2;
    let a = explore(&s, SEED);
    let b = explore(&s, SEED);
    assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
    assert_eq!(format!("{:?}", a.violation), format!("{:?}", b.violation));
}

/// The sleep set actually prunes commuting siblings somewhere in a
/// 2-writer exploration.
#[test]
fn sleep_sets_prune() {
    let mut s = baseline_scenarios()
        .into_iter()
        .find(|s| s.name == "upd-srch")
        .unwrap();
    s.depth = 3;
    let r = explore(&s, SEED);
    assert!(r.violation.is_none(), "{:#?}", r.violation);
    assert!(r.stats.pruned > 0, "{:?}", r.stats);
}
