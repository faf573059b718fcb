//! The two store-level invariants that [`crate::exec`]'s oracles 3 and 4
//! share with the `aceso-chaos` invariant library (which re-exports them
//! under the same names): one definition and one violation string each,
//! judged identically by the model checker and by every chaos axis.

use aceso_core::{scrub, AcesoClient, AcesoStore};
use std::sync::Arc;

/// **iv-monotonicity** — no column's Index Version moves backwards across
/// a kill and its recovery. Captured once every column has a restorable
/// checkpoint, checked after recovery completes; columns are stable across
/// elastic migrations (the directory re-homes them), so the comparison is
/// per column.
#[derive(Clone, Debug)]
pub struct IvWatch(pub Vec<u64>);

impl IvWatch {
    fn read(store: &AcesoStore) -> Vec<u64> {
        (0..store.cfg.num_mns)
            .map(|col| {
                let s = store.server(col);
                s.index.local_index_version(&s.node.region)
            })
            .collect()
    }

    /// Records every column's current Index Version.
    pub fn capture(store: &AcesoStore) -> Self {
        IvWatch(Self::read(store))
    }

    /// Pushes one violation per column whose Index Version is now below
    /// the captured one.
    pub fn check(&self, store: &AcesoStore, violations: &mut Vec<String>) {
        for (col, (pre, post)) in self.0.iter().zip(Self::read(store)).enumerate() {
            if post < *pre {
                violations.push(format!(
                    "index version regressed on col {col}: {pre} -> {post}"
                ));
            }
        }
    }
}

/// **parity-scrub** — after full recovery [`aceso_core::scrub()`] finds
/// every parity equation and delta pair clean. `client`'s buffered bitmaps
/// are flushed first so the scrub sees the truth, and the flush is fenced
/// from the scrub's reads by a trace barrier.
pub fn parity_scrub(
    store: &Arc<AcesoStore>,
    client: &mut AcesoClient,
    violations: &mut Vec<String>,
) {
    if let Err(e) = client.flush_bitmaps() {
        violations.push(format!("final flush: {e}"));
    }
    store.cluster.trace_barrier();
    match scrub(store) {
        Ok(r) if r.is_clean() => {}
        Ok(r) => violations.push(format!("scrub dirty: {r:?}")),
        Err(e) => violations.push(format!("scrub: {e}")),
    }
}
