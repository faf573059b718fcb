//! The crash-matrix vocabulary: one [`Cell`] per combination of
//! (operation × injection site × MN-kill timing × reclamation state).
//!
//! The injection-site axis shares its vocabulary with the rest of the
//! workspace instead of inventing a parallel one: client-protocol sites
//! are [`aceso_core::client::CrashPoint`] and fabric sites are
//! [`aceso_rdma::VerbKind`], so a counterexample printed by the harness
//! names the exact hook that fired in the production crates.

use aceso_core::client::CrashPoint;
use aceso_rdma::VerbKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// The store operation a cell injects into.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpType {
    /// INSERT of a fresh key.
    Insert,
    /// UPDATE of a preloaded key.
    Update,
    /// DELETE of a preloaded key.
    Delete,
    /// SEARCH of a preloaded key (read-only: no ambiguity window).
    Search,
    /// SEARCH of a key planted with an earlier colliding-fingerprint twin
    /// in the same bucket, run cache-cold, with the kill axis aimed at the
    /// column holding the *twin's* KV block: the candidate scan must step
    /// past the twin (a collision, §3.4.1) instead of misreading it as a
    /// tombstone when its block is degraded or unreachable.
    SearchCollide,
    /// UPDATE of a preloaded key from a client that never touched it —
    /// empty index cache, no open block — with the kill axis aimed at the
    /// column holding the key's *KV block*. The write batch of a cold
    /// UPDATE carries the identity read of its one fingerprint candidate:
    /// a degraded kill makes that read unreadable (one refuted
    /// speculation, then the verified path through reconstruction), and
    /// the verb and client sites cut the speculative batch between its
    /// identity read, KV, deltas and CAS.
    UpdateCold,
}

impl OpType {
    /// All operations, in protocol order.
    pub const ALL: [OpType; 6] = [
        OpType::Insert,
        OpType::Update,
        OpType::Delete,
        OpType::Search,
        OpType::SearchCollide,
        OpType::UpdateCold,
    ];
}

impl fmt::Display for OpType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpType::Insert => "insert",
            OpType::Update => "update",
            OpType::Delete => "delete",
            OpType::Search => "search",
            OpType::SearchCollide => "search-collide",
            OpType::UpdateCold => "update-cold",
        })
    }
}

/// Where the fault is injected, if anywhere.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InjectionSite {
    /// No injection: the cell exercises the kill/reclaim axes alone.
    None,
    /// The client aborts at a protocol step ([`CrashPoint`] hook).
    Client(CrashPoint),
    /// The `skip`-th-plus-one verb of this class fails with
    /// [`aceso_rdma::RdmaError::Injected`], crashing the client mid-verb.
    Verb {
        /// Verb class to fail.
        kind: VerbKind,
        /// Matching verbs let through before the failure.
        skip: u64,
    },
}

impl fmt::Display for InjectionSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectionSite::None => f.write_str("none"),
            InjectionSite::Client(cp) => write!(f, "client-{cp}"),
            InjectionSite::Verb { kind, skip } => write!(f, "verb-{kind}-{skip}"),
        }
    }
}

/// The injection-site axis: no-fault, every client protocol step, and a
/// spread of verb-level failures (first and a later occurrence of each
/// verb class the client issues; FAA is server-side only, so it has no
/// client cell).
pub fn injection_sites() -> Vec<InjectionSite> {
    let mut sites = vec![InjectionSite::None];
    sites.extend(CrashPoint::ALL.map(InjectionSite::Client));
    for (kind, skip) in [
        (VerbKind::Read, 0),
        (VerbKind::Read, 2),
        (VerbKind::Write, 0),
        (VerbKind::Write, 1),
        (VerbKind::Cas, 0),
        (VerbKind::Rpc, 0),
    ] {
        sites.push(InjectionSite::Verb { kind, skip });
    }
    sites
}

/// When (and whether) the key's home MN is fail-stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KillTiming {
    /// The MN stays alive.
    None,
    /// Kill before the op, run full tiered recovery, then op against the
    /// replacement.
    BeforeOp,
    /// Kill before the op, recover the Index tier only, run the op
    /// *degraded* (old blocks still lost), complete recovery afterwards.
    BeforeOpDegraded,
    /// Kill after the `skip`-th-plus-one verb the op sends to the home
    /// node ([`aceso_rdma::FaultAction::KillNode`]), recover afterwards.
    AtVerb {
        /// Verbs to the home node let through before the kill.
        skip: u64,
    },
}

impl fmt::Display for KillTiming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KillTiming::None => f.write_str("none"),
            KillTiming::BeforeOp => f.write_str("before-op"),
            KillTiming::BeforeOpDegraded => f.write_str("degraded"),
            KillTiming::AtVerb { skip } => write!(f, "at-verb-{skip}"),
        }
    }
}

/// The kill-timing axis.
pub fn kill_timings() -> Vec<KillTiming> {
    vec![
        KillTiming::None,
        KillTiming::BeforeOp,
        KillTiming::BeforeOpDegraded,
        KillTiming::AtVerb { skip: 1 },
        KillTiming::AtVerb { skip: 4 },
    ]
}

/// Whether the preload leaves reclamation-relevant state behind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReclaimState {
    /// Plain preload: blocks filling, no obsolete slots.
    Fresh,
    /// Preload then delete a third of the keys, flush bitmaps, and insert
    /// a second wave: obsolete slots, flushed bitmaps, and reuse
    /// candidates exist when the fault hits.
    Aged,
}

impl fmt::Display for ReclaimState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReclaimState::Fresh => "fresh",
            ReclaimState::Aged => "aged",
        })
    }
}

/// One crash-matrix cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cell {
    /// Operation under test.
    pub op: OpType,
    /// Injected fault, if any.
    pub site: InjectionSite,
    /// MN kill timing, if any.
    pub kill: KillTiming,
    /// Store age when the fault hits.
    pub reclaim: ReclaimState,
}

/// The stable human-readable id, e.g. `update/verb-write-0/at-verb-1/aged`
/// (`chaos cell` resolves it back through the full matrix).
impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}",
            self.op, self.site, self.kill, self.reclaim
        )
    }
}

/// The full cartesian matrix, in axis order (op outermost).
pub fn full_matrix() -> Vec<Cell> {
    let mut cells = Vec::new();
    for op in OpType::ALL {
        for site in injection_sites() {
            for kill in kill_timings() {
                for reclaim in [ReclaimState::Fresh, ReclaimState::Aged] {
                    cells.push(Cell {
                        op,
                        site,
                        kill,
                        reclaim,
                    });
                }
            }
        }
    }
    cells
}

/// A deterministic CI-sized subset: a seeded Fisher–Yates shuffle of the
/// full matrix truncated to `limit` cells. The same seed always yields
/// the same cells in the same order.
pub fn ci_matrix(seed: u64, limit: usize) -> Vec<Cell> {
    let mut cells = full_matrix();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..cells.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        cells.swap(i, j);
    }
    cells.truncate(limit);
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_dimensions() {
        assert_eq!(full_matrix().len(), 6 * 12 * 5 * 2);
    }

    /// Every client crash point is exercised by the matrix — the runtime
    /// half of aceso-san's `lint_crash_points` (which checks the source
    /// wiring): a new `CrashPoint` variant that never appears as an
    /// injection site would silently escape the sweep.
    #[test]
    fn every_crash_point_is_a_matrix_site() {
        let m = full_matrix();
        for cp in aceso_core::client::CrashPoint::ALL {
            assert!(
                m.iter().any(|c| c.site == InjectionSite::Client(cp)),
                "CrashPoint::{cp:?} missing from the crash matrix"
            );
        }
    }

    #[test]
    fn ci_subset_is_deterministic() {
        let a = ci_matrix(7, 120);
        let b = ci_matrix(7, 120);
        assert_eq!(a, b);
        assert_eq!(a.len(), 120);
        let c = ci_matrix(8, 120);
        assert_ne!(a, c);
    }
}
