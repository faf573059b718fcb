//! Engine conformance suite: every [`FtEngine`] implementation must pass
//! the identical script, so `bench table3` and `chaos backends` compare
//! strategies, not accidental API differences.
//!
//! The contract asserted here is the one documented on
//! [`aceso_core::FtClient`]: upsert inserts, `NotFound` on missing
//! update, `Ok(false)` on missing delete, deleted keys read as absent,
//! kill/recover round trips preserve data, `check()` is clean after a
//! quiesced workload, and space/ops reporting is populated.

use aceso_core::{FtEngine, FtError};
use aceso_engines::{launch, EngineKind};
use aceso_rdma::{FaultAction, FaultPlan, FaultRule};

fn each_engine(mut f: impl FnMut(Box<dyn FtEngine>)) {
    for kind in EngineKind::ALL {
        let eng = launch(kind).unwrap();
        f(eng);
    }
}

#[test]
fn crud_semantics_conform() {
    each_engine(|eng| {
        let kind = eng.kind();
        let mut c = eng.client().unwrap();
        assert_eq!(
            c.update(b"absent", b"x").unwrap_err(),
            FtError::NotFound,
            "[{kind}] update of a missing key"
        );
        assert!(
            !c.delete(b"absent").unwrap(),
            "[{kind}] delete of a missing key"
        );
        c.insert(b"k", b"v1").unwrap();
        assert_eq!(
            c.search(b"k").unwrap().as_deref(),
            Some(&b"v1"[..]),
            "[{kind}]"
        );
        c.insert(b"k", b"v2").unwrap(); // Upsert.
        assert_eq!(
            c.search(b"k").unwrap().as_deref(),
            Some(&b"v2"[..]),
            "[{kind}]"
        );
        c.update(b"k", b"v3-longer-value").unwrap(); // Size-class change.
        assert_eq!(
            c.search(b"k").unwrap().as_deref(),
            Some(&b"v3-longer-value"[..]),
            "[{kind}]"
        );
        assert!(c.delete(b"k").unwrap(), "[{kind}]");
        assert_eq!(
            c.search(b"k").unwrap(),
            None,
            "[{kind}] deleted key must read absent"
        );
        assert_eq!(
            c.update(b"k", b"x").unwrap_err(),
            FtError::NotFound,
            "[{kind}] update after delete"
        );
        c.insert(b"k", b"v4").unwrap(); // Reinsert after delete.
        assert_eq!(
            c.search(b"k").unwrap().as_deref(),
            Some(&b"v4"[..]),
            "[{kind}]"
        );
        eng.shutdown();
    });
}

#[test]
fn fresh_client_sees_existing_data() {
    each_engine(|eng| {
        let kind = eng.kind();
        let mut w = eng.client().unwrap();
        for i in 0..50u32 {
            w.insert(format!("cf-{i:02}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        let mut r = eng.client().unwrap();
        assert_ne!(w.id(), r.id(), "[{kind}] client ids must be distinct");
        for i in 0..50u32 {
            assert_eq!(
                r.search(format!("cf-{i:02}").as_bytes())
                    .unwrap()
                    .as_deref(),
                Some(format!("v{i}").as_bytes()),
                "[{kind}] cold client missed cf-{i:02}"
            );
        }
        eng.shutdown();
    });
}

#[test]
fn kill_and_recover_preserves_data() {
    each_engine(|eng| {
        let kind = eng.kind();
        let mut c = eng.client().unwrap();
        for i in 0..100u32 {
            c.insert(
                format!("kr-{i:03}").as_bytes(),
                format!("val-{i}").as_bytes(),
            )
            .unwrap();
        }
        c.quiesce().unwrap();
        eng.tick().unwrap();
        let col = eng.home_col(b"kr-000");
        assert!(col < eng.columns(), "[{kind}]");
        assert!(eng.kill_column(col), "[{kind}]");
        assert!(
            !eng.kill_column(col),
            "[{kind}] second kill must report dead"
        );
        let s = eng.recover(&[], &[col]).unwrap();
        assert!(
            s.bytes > 0 && s.net_ms > 0.0,
            "[{kind}] empty recovery summary: {s:?}"
        );
        for i in 0..100u32 {
            assert_eq!(
                c.search(format!("kr-{i:03}").as_bytes())
                    .unwrap()
                    .as_deref(),
                Some(format!("val-{i}").as_bytes()),
                "[{kind}] kr-{i:03} lost across kill/recover"
            );
        }
        c.update(b"kr-000", b"post-recovery").unwrap();
        assert!(
            eng.check().unwrap().is_empty(),
            "[{kind}] integrity check dirty"
        );
        eng.shutdown();
    });
}

#[test]
fn recovering_a_quiescent_client_is_safe() {
    each_engine(|eng| {
        let kind = eng.kind();
        let mut c = eng.client().unwrap();
        for i in 0..20u32 {
            c.insert(format!("rc-{i:02}").as_bytes(), b"payload")
                .unwrap();
        }
        c.quiesce().unwrap();
        let id = c.id();
        drop(c);
        eng.recover(&[id], &[]).unwrap();
        assert!(eng.check().unwrap().is_empty(), "[{kind}]");
        let mut again = eng.client().unwrap();
        assert_eq!(
            again.search(b"rc-00").unwrap().as_deref(),
            Some(&b"payload"[..]),
            "[{kind}]"
        );
        eng.shutdown();
    });
}

/// A client cut mid-UPDATE and its key's home column lost are recovered
/// by one call, in the engine's own order: the key then reads its pre- or
/// its post-state, and the engine's integrity check is clean.
#[test]
fn one_recover_call_heals_a_torn_update_and_a_dead_column() {
    each_engine(|eng| {
        let kind = eng.kind();
        let mut c = eng.client().unwrap();
        for i in 0..20u32 {
            c.insert(format!("tu-{i:02}").as_bytes(), b"pre").unwrap();
        }
        c.quiesce().unwrap();
        eng.tick().unwrap();
        let mut victim = eng.client().unwrap();
        let fail = FaultRule::new(FaultAction::Fail).after(1);
        victim.install_fault_plan(FaultPlan::with_rules(vec![fail]));
        let err = victim.update(b"tu-07", b"post").unwrap_err();
        assert!(matches!(err, FtError::Crashed(_)), "[{kind}] {err:?}");
        let id = victim.id();
        drop(victim);
        let col = eng.home_col(b"tu-07");
        assert!(eng.kill_column(col), "[{kind}]");
        eng.recover(&[id], &[col]).unwrap();
        let got = eng.client().unwrap().search(b"tu-07").unwrap();
        assert!(
            matches!(got.as_deref(), Some(b"pre" | b"post")),
            "[{kind}] torn key reads {got:?}"
        );
        assert_eq!(eng.check().unwrap(), Vec::<String>::new(), "[{kind}]");
        eng.shutdown();
    });
}

#[test]
fn space_reports_populate_and_rank() {
    let mut factors = std::collections::BTreeMap::new();
    each_engine(|eng| {
        let kind = eng.kind();
        let mut c = eng.client().unwrap();
        // Enough data that Aceso's block-granular parity and checkpoint
        // overheads amortize (Table 3 compares loaded stores, not empty
        // ones).
        for i in 0..3000u32 {
            c.insert(format!("sp-{i:04}").as_bytes(), &[5u8; 128])
                .unwrap();
        }
        c.quiesce().unwrap();
        eng.tick().unwrap();
        let sp = eng.space();
        assert!(sp.valid > 3000 * 128, "[{kind}] valid bytes missing");
        assert!(sp.redundancy > 0, "[{kind}] redundancy not accounted");
        assert!(sp.overhead_factor() > 1.0, "[{kind}]");
        factors.insert(kind.to_string(), sp.overhead_factor());
        eng.shutdown();
    });
    // The paper's Table 3 ordering at equal two-failure tolerance: hybrid
    // checkpoint+erasure stays well under 3-way replication.
    let aceso = factors["aceso"];
    for repl in ["fusee", "swarm"] {
        assert!(
            aceso < factors[repl],
            "aceso overhead {aceso:.2}x not below {repl} {:.2}x",
            factors[repl]
        );
        assert!(
            factors[repl] > 2.5,
            "{repl} r=3 overhead should approach 3x, got {:.2}x",
            factors[repl]
        );
    }
}

#[test]
fn ops_are_recorded_per_operation() {
    each_engine(|eng| {
        let kind = eng.kind();
        let mut c = eng.client().unwrap();
        c.insert(b"ops-key", b"aaaaaaaa").unwrap();
        c.reset_stats();
        c.update(b"ops-key", b"bbbbbbbb").unwrap();
        c.search(b"ops-key").unwrap();
        let ops = c.take_ops();
        assert_eq!(ops.records.len(), 2, "[{kind}] one record per op");
        assert!(ops.records.iter().all(|r| r.rtts >= 1), "[{kind}]");
        if kind == "swarm" {
            assert_eq!(
                ops.records[0].rtts, 1,
                "[swarm] cached same-class update must be one round trip"
            );
        }
        assert!(
            c.take_ops().records.is_empty(),
            "[{kind}] take_ops must drain"
        );
        eng.shutdown();
    });
}
