//! End-to-end smoke tests for the bounded checker: single executions,
//! determinism, and one full (tiny) exploration.

use aceso_model::exec::{run, CrashSpec};
use aceso_model::scenario::baseline_scenarios;

const SEED: u64 = 0xACE50;

#[test]
fn default_schedule_passes_cleanly() {
    let scenarios = baseline_scenarios();
    let s = &scenarios[1]; // upd-srch
    let res = run(s, SEED, &[], None);
    assert!(res.ok(), "{:#?}", res.violations);
}

#[test]
fn root_frontier_exposes_enabled_set() {
    let scenarios = baseline_scenarios();
    let s = &scenarios[0]; // upd-upd: two writers
                           // With an empty prefix the run pauses at the first quiescent point
                           // (every task suspended at its first round trip) before draining, so
                           // `enabled` is the root frontier: both writers pending.
    let r0 = run(s, SEED, &[], None);
    assert!(r0.ok(), "{:#?}", r0.violations);
    assert_eq!(r0.enabled.len(), 2, "{:?}", r0.enabled);
    // Delivering one choice re-arms the same client at its next settle.
    let r1 = run(s, SEED, &r0.enabled[..1], None);
    assert!(r1.ok(), "{:#?}", r1.violations);
    assert_eq!(r1.enabled.len(), 2, "{:?}", r1.enabled);
    assert_eq!(r1.step_fps.len(), 1);
}

#[test]
fn crash_at_root_frontier_recovers() {
    let scenarios = baseline_scenarios();
    let s = &scenarios[0];
    let r0 = run(s, SEED, &[], None);
    let tags = r0.enabled.clone();
    for crash in [CrashSpec::Cn(0), CrashSpec::Mn, CrashSpec::CnAndMn(0)] {
        let r = run(s, SEED, &tags[..1], Some(&crash));
        assert!(r.ok(), "{}: {:#?}", crash.label(), r.violations);
    }
}

#[test]
fn executions_are_deterministic() {
    let scenarios = baseline_scenarios();
    let s = &scenarios[0];
    let r0 = run(s, SEED, &[], None);
    let tags = r0.enabled.clone();
    let a = run(s, SEED, &tags[..1], Some(&CrashSpec::Mn));
    let b = run(s, SEED, &tags[..1], Some(&CrashSpec::Mn));
    assert_eq!(a.enabled, b.enabled);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.step_fps.len(), b.step_fps.len());
    for (x, y) in a.step_fps.iter().zip(&b.step_fps) {
        assert_eq!(x.len(), y.len());
        for (p, q) in x.iter().zip(y) {
            assert_eq!(format!("{p}"), format!("{q}"));
        }
    }
}
