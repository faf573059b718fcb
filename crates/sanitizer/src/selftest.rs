//! Mutation self-tests: prove the detector is live, not vacuous.
//!
//! Each scenario scripts a miniature protocol on a real cluster twice:
//! once *correct* (the detector must stay silent) and once with exactly one
//! ordering edge deliberately weakened (the detector must report a race
//! naming the offending verb pair and addresses). The four weakened edges
//! mirror the bugs Aceso's protocols are designed to exclude:
//!
//! 1. `skip-commit-cas` — publish a slot with a plain write instead of the
//!    commit CAS (Algorithm 1's release edge disappears).
//! 2. `commit-before-write` — commit the slot CAS *before* the KV write
//!    lands (release happens too early; readers can tear the KV).
//! 3. `skip-lock-cas` — a second writer updates a lock-protected range
//!    without taking the epoch lock (lost update).
//! 4. `skip-recovery-barrier` — recovery reads a crashed client's block
//!    without the quiescence barrier.

use crate::detect::Detector;
use aceso_index::IndexLayout;
use aceso_rdma::{Cluster, ClusterConfig, CostModel, GlobalAddr, NodeId};
use std::sync::Arc;

/// Result of one scenario: both halves of the liveness proof.
#[derive(Clone, Debug)]
pub struct SelftestOutcome {
    /// Scenario name (the weakened edge).
    pub name: &'static str,
    /// The unmutated protocol produced zero reports.
    pub baseline_clean: bool,
    /// The mutated protocol produced at least one report.
    pub mutation_detected: bool,
    /// The first race the mutation produced (verb pair + addresses).
    pub report: String,
}

impl SelftestOutcome {
    /// Whether this scenario proves the corresponding edge is checked.
    pub fn ok(&self) -> bool {
        self.baseline_clean && self.mutation_detected
    }
}

fn fresh() -> (Arc<Cluster>, Arc<Detector>) {
    let cluster = Cluster::new(ClusterConfig {
        num_mns: 1,
        region_len: 1 << 16,
        cost: CostModel::default(),
    });
    let layout = IndexLayout::new(0, 8);
    let detector = Arc::new(Detector::with_annotator(Box::new(
        move |_, off| match layout.classify_word(off) {
            aceso_index::IndexWord::Atomic { group, slot } => {
                Some(format!("slot Atomic word g{group}/s{slot}"))
            }
            aceso_index::IndexWord::Meta { group, slot } => {
                Some(format!("slot Meta word g{group}/s{slot}"))
            }
            aceso_index::IndexWord::IndexVersion => Some("Index Version word".into()),
            aceso_index::IndexWord::OutsideIndex => Some("block area".into()),
        },
    )));
    cluster.install_trace_sink(detector.clone());
    (cluster, detector)
}

/// The index geometry all scenarios share: slot words come from a real
/// [`IndexLayout`] so the traced addresses are the protocol's addresses.
fn layout() -> IndexLayout {
    IndexLayout::new(0, 8)
}

fn run(name: &'static str, scenario: impl Fn(&Arc<Cluster>, bool)) -> SelftestOutcome {
    let (cluster, detector) = fresh();
    scenario(&cluster, false);
    let baseline_clean = detector.is_clean();

    let (cluster, detector) = fresh();
    scenario(&cluster, true);
    let races = detector.races();
    SelftestOutcome {
        name,
        baseline_clean,
        mutation_detected: !races.is_empty(),
        report: races
            .first()
            .map(|r| r.to_string())
            .unwrap_or_else(|| "(no race reported)".into()),
    }
}

/// Scenario 1: the writer publishes a slot via plain write instead of the
/// commit CAS of Algorithm 1.
pub fn skip_commit_cas() -> SelftestOutcome {
    run("skip-commit-cas", |cluster, mutate| {
        let l = layout();
        let slot = GlobalAddr::new(NodeId(0), l.slot_offset(1, 0, 3));
        let kv = GlobalAddr::new(NodeId(0), 8192);
        let writer = cluster.client();
        let reader = cluster.client();
        writer.write(kv, &[7u8; 64]).unwrap();
        if mutate {
            // MUTATION: a plain 8-byte write is atomic on the fabric but is
            // not a release — readers get no happens-before edge.
            writer.write(slot, &1u64.to_le_bytes()).unwrap();
        } else {
            writer.cas(slot, 0, 1).unwrap();
        }
        let _ = reader.read_u64(slot).unwrap();
        let _ = reader.read_vec(kv, 64).unwrap();
    })
}

/// Scenario 2: the commit CAS lands before the KV write it publishes.
pub fn commit_before_write() -> SelftestOutcome {
    run("commit-before-write", |cluster, mutate| {
        let l = layout();
        let slot = GlobalAddr::new(NodeId(0), l.slot_offset(2, 1, 5));
        let kv = GlobalAddr::new(NodeId(0), 12288);
        let writer = cluster.client();
        let reader = cluster.client();
        if mutate {
            // MUTATION: release precedes the write, so the write stays
            // unpublished and an acquired reader still tears.
            writer.cas(slot, 0, 1).unwrap();
            writer.write(kv, &[9u8; 64]).unwrap();
        } else {
            writer.write(kv, &[9u8; 64]).unwrap();
            writer.cas(slot, 0, 1).unwrap();
        }
        let _ = reader.read_u64(slot).unwrap();
        let _ = reader.read_vec(kv, 64).unwrap();
    })
}

/// Scenario 3: a second writer skips the Meta-word epoch lock.
pub fn skip_lock_cas() -> SelftestOutcome {
    run("skip-lock-cas", |cluster, mutate| {
        let l = layout();
        // The epoch lock is the slot's Meta word (addr + 8), as taken by
        // `RemoteIndex::cas_meta`.
        let lock = GlobalAddr::new(NodeId(0), l.slot_offset(3, 0, 0) + 8);
        let buf = GlobalAddr::new(NodeId(0), 16384);
        let a = cluster.client();
        let b = cluster.client();
        // A: lock (epoch 0 -> 1), write, unlock (1 -> 2).
        a.cas(lock, 0, 1).unwrap();
        a.write(buf, &[1u8; 64]).unwrap();
        a.cas(lock, 1, 2).unwrap();
        // B: same update; the mutation skips the lock acquisition.
        if !mutate {
            b.cas(lock, 2, 3).unwrap();
        }
        b.write(buf, &[2u8; 64]).unwrap();
        if !mutate {
            b.cas(lock, 3, 4).unwrap();
        }
    })
}

/// Scenario 4: recovery reads a crashed client's block without the
/// quiescence barrier.
pub fn skip_recovery_barrier() -> SelftestOutcome {
    run("skip-recovery-barrier", |cluster, mutate| {
        let crashed = cluster.client();
        let kv = GlobalAddr::new(NodeId(0), 20480);
        // The client wrote its KV but crashed before the commit CAS.
        crashed.write(kv, &[3u8; 128]).unwrap();
        if !mutate {
            // Recovery begins only after the membership service quiesces
            // the epoch — the harness models that as a barrier.
            cluster.trace_barrier();
        }
        let recovery = cluster.background_client();
        let _ = recovery.read_vec(kv, 256).unwrap();
    })
}

/// Runs all scenarios.
pub fn run_all() -> Vec<SelftestOutcome> {
    vec![
        skip_commit_cas(),
        commit_before_write(),
        skip_lock_cas(),
        skip_recovery_barrier(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_weakened_edge_is_detected() {
        for outcome in run_all() {
            assert!(
                outcome.baseline_clean,
                "{}: baseline reported a race: {}",
                outcome.name, outcome.report
            );
            assert!(
                outcome.mutation_detected,
                "{}: mutation went undetected",
                outcome.name
            );
        }
    }

    #[test]
    fn reports_name_verb_pair_and_addresses() {
        let o = skip_commit_cas();
        assert!(o.report.contains("WRITE"), "{}", o.report);
        assert!(o.report.contains("READ"), "{}", o.report);
        assert!(o.report.contains("0x2000"), "{}", o.report);

        let o = skip_lock_cas();
        assert!(o.report.contains("WRITE/WRITE"), "{}", o.report);
        assert!(o.report.contains("0x4000"), "{}", o.report);
    }
}
