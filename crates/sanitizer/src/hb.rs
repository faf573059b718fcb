//! Exported happens-before conflict relation — the dependence oracle for
//! DPOR-style schedule pruning.
//!
//! [`detect::Detector`](crate::detect::Detector) derives ordering from
//! three per-node edge sources: sync words (CAS/FAA targets, acquired by
//! overlapping reads), the serial RPC handoff clock, and barriers. Two
//! trace segments whose accesses touch *none* of the same edge sources in
//! a conflicting way commute: executing them in either order reaches the
//! same state, so an exhaustive schedule explorer (`aceso-model`) only
//! needs one of the two interleavings.
//!
//! This module exports that dependence relation as a standalone predicate
//! over [`Access`] footprints. It is deliberately *conservative* (a
//! superset of the detector's real edges): a failed CAS is still treated
//! as a mutation, and byte ranges are widened to the fabric's 8-byte
//! atomicity grain — over-approximating dependence only costs pruning,
//! never soundness.

use crate::detect::Access;
use aceso_rdma::TraceOp;

/// Whether the access can change remote state (or, for a CAS, whether its
/// outcome depends on remote state that writes change).
fn is_mutation(op: &TraceOp) -> bool {
    matches!(
        op,
        TraceOp::Write | TraceOp::Cas { .. } | TraceOp::Faa | TraceOp::Rpc
    )
}

/// The 8-byte-grain word span `[lo, end)` of a memory access.
fn word_span(offset: u64, len: usize) -> (u64, u64) {
    let lo = offset & !7;
    let end = (offset + len as u64).next_multiple_of(8).max(lo + 8);
    (lo, end)
}

/// Whether two traced accesses are *dependent*: reordering them across
/// each other could change either one's outcome or any later read.
///
/// The rules mirror the detector's happens-before edge sources:
///
/// * accesses to different nodes never conflict (every edge is per-node);
/// * two RPCs to the same node conflict (the server handles them serially
///   — a mutex handoff whose order is observable);
/// * an RPC never conflicts with a one-sided verb (the RPC clock is
///   disjoint from the word clocks);
/// * memory accesses conflict when their 8-byte word spans overlap and at
///   least one is a mutation (Write / CAS / FAA); read–read pairs always
///   commute;
/// * a barrier conflicts with everything on principle (it joins all
///   clocks) — barriers are harness punctuation and should not appear
///   inside explored segments.
pub fn accesses_conflict(a: &Access, b: &Access) -> bool {
    if matches!(a.op, TraceOp::Barrier) || matches!(b.op, TraceOp::Barrier) {
        return true;
    }
    if a.node != b.node {
        return false;
    }
    let rpc_a = matches!(a.op, TraceOp::Rpc);
    let rpc_b = matches!(b.op, TraceOp::Rpc);
    if rpc_a || rpc_b {
        return rpc_a && rpc_b;
    }
    if !is_mutation(&a.op) && !is_mutation(&b.op) {
        return false;
    }
    let (alo, aend) = word_span(a.offset, a.len);
    let (blo, bend) = word_span(b.offset, b.len);
    alo < bend && blo < aend
}

/// Whether any access of footprint `a` conflicts with any access of
/// footprint `b` — the segment-level dependence used for sleep-set
/// pruning. Empty footprints conflict with nothing.
pub fn footprints_conflict(a: &[Access], b: &[Access]) -> bool {
    a.iter().any(|x| b.iter().any(|y| accesses_conflict(x, y)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_rdma::TraceOp;

    fn acc(op: TraceOp, node: u16, offset: u64, len: usize) -> Access {
        Access {
            client: 0,
            seq: 0,
            op,
            node,
            offset,
            len,
        }
    }

    #[test]
    fn same_word_cas_conflicts() {
        let a = acc(TraceOp::Cas { success: true }, 1, 0x100, 8);
        let b = acc(TraceOp::Cas { success: false }, 1, 0x100, 8);
        assert!(accesses_conflict(&a, &b));
        // Different words commute.
        let c = acc(TraceOp::Cas { success: true }, 1, 0x108, 8);
        assert!(!accesses_conflict(&a, &c));
        // Different nodes commute even on the same offset.
        let d = acc(TraceOp::Cas { success: true }, 2, 0x100, 8);
        assert!(!accesses_conflict(&a, &d));
    }

    #[test]
    fn ranged_write_conflicts_with_overlapping_read() {
        let w = acc(TraceOp::Write, 0, 0x200, 128);
        let r = acc(TraceOp::Read, 0, 0x240, 16);
        assert!(accesses_conflict(&w, &r));
        assert!(accesses_conflict(&r, &w));
        let far = acc(TraceOp::Read, 0, 0x400, 16);
        assert!(!accesses_conflict(&w, &far));
    }

    #[test]
    fn reads_commute() {
        let a = acc(TraceOp::Read, 0, 0x200, 64);
        let b = acc(TraceOp::Read, 0, 0x210, 64);
        assert!(!accesses_conflict(&a, &b));
    }

    #[test]
    fn sub_word_accesses_widen_to_the_atomicity_grain() {
        let w = acc(TraceOp::Write, 0, 0x204, 2);
        let r = acc(TraceOp::Read, 0, 0x200, 4);
        assert!(accesses_conflict(&w, &r));
    }

    #[test]
    fn rpcs_serialize_per_node_only() {
        let a = acc(TraceOp::Rpc, 3, 0, 0);
        let b = acc(TraceOp::Rpc, 3, 0, 0);
        let c = acc(TraceOp::Rpc, 4, 0, 0);
        let w = acc(TraceOp::Write, 3, 0, 64);
        assert!(accesses_conflict(&a, &b));
        assert!(!accesses_conflict(&a, &c));
        assert!(!accesses_conflict(&a, &w));
    }

    #[test]
    fn footprints_conflict_is_any_pair() {
        let fa = vec![
            acc(TraceOp::Read, 0, 0x100, 8),
            acc(TraceOp::Cas { success: true }, 0, 0x300, 8),
        ];
        let fb = vec![acc(TraceOp::Write, 0, 0x300, 8)];
        assert!(footprints_conflict(&fa, &fb));
        let fc = vec![acc(TraceOp::Write, 0, 0x500, 8)];
        assert!(!footprints_conflict(&fa, &fc));
        assert!(!footprints_conflict(&[], &fb));
    }
}
