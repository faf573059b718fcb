//! The named invariant library: what "the store survived" means, written
//! once and judged identically by every axis.
//!
//! [`INVARIANT_CLASSES`] names the five invariants; [`judge_store`] checks
//! all of them against a settled Aceso store. Engines behind the
//! [`aceso_core::FtEngine`] seam are judged through the same
//! [`oracle_agreement`] and [`probe_liveness`] (the [`Kv`] trait erases the
//! client type) plus their own `check()`. The violation strings are part
//! of the interface: reports, DESIGN.md and the negative tests in
//! `tests/invariants.rs` quote them.

use crate::axis::{fmt_key, fmt_state, gen_value, take_ms, Ctx};
use aceso_core::{AcesoClient, AcesoStore, FtClient};
pub use aceso_model::invariants::{parity_scrub, IvWatch};
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// The invariants, in the order [`judge_store`] checks (and times) them:
///
/// 0. **oracle-agreement** — every key reads back exactly what the
///    [`Oracle`] predicts; a key whose mutation a fault interrupted may be
///    in its pre-op or its intended post-op state (the commit protocol's
///    ambiguity [`Window`]), never anything else; a key never inserted
///    stays absent.
/// 1. **meta-lock-liveness** — a probe write on every interrupted key gets
///    through (breaking any lock the crashed client abandoned) and reads
///    back.
/// 2. **iv-monotonicity** — [`IvWatch`].
/// 3. **parity-scrub** — [`parity_scrub`].
/// 4. **no-open-degraded-window** — once recovery has completed no column
///    is left in the window between its Index tier and its Block tier.
pub const INVARIANT_CLASSES: [&str; 5] = [
    "oracle-agreement",
    "meta-lock-liveness",
    "iv-monotonicity",
    "parity-scrub",
    "no-open-degraded-window",
];

/// The read/write surface the oracle and probe checks need, so one
/// implementation judges a native client and an engine client alike.
pub trait Kv {
    /// Reads `key` (`None` = absent).
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, String>;
    /// Upserts `key`.
    fn put(&mut self, key: &[u8], val: &[u8]) -> Result<(), String>;
}

impl Kv for AcesoClient {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        self.search(key).map_err(|e| e.to_string())
    }
    fn put(&mut self, key: &[u8], val: &[u8]) -> Result<(), String> {
        self.insert(key, val).map_err(|e| e.to_string())
    }
}

impl Kv for Box<dyn FtClient> {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        self.search(key).map_err(|e| e.to_string())
    }
    fn put(&mut self, key: &[u8], val: &[u8]) -> Result<(), String> {
        self.insert(key, val).map_err(|e| e.to_string())
    }
}

/// The commit ambiguity window of an interrupted mutation: (pre-op state,
/// intended post-op state); either may legitimately survive recovery.
pub type Window = (Option<Vec<u8>>, Option<Vec<u8>>);

/// What a script predicts the store holds.
#[derive(Clone, Debug, Default)]
pub struct Oracle {
    /// Exact predicted state outside the windows.
    pub state: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Keys whose last mutation was interrupted.
    pub windows: BTreeMap<Vec<u8>, Window>,
}

impl Oracle {
    /// The exact predicted state of `key`.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.state.get(key).cloned()
    }

    /// `key` is now known to be `post` (an acknowledged mutation, or a
    /// read that pinned an ambiguous key): closes its window.
    pub fn commit(&mut self, key: &[u8], post: Option<Vec<u8>>) {
        self.windows.remove(key);
        match post {
            Some(v) => self.state.insert(key.to_vec(), v),
            None => self.state.remove(key),
        };
    }

    /// An op on `key` intending `post` was cut short: opens its window.
    pub fn interrupt(&mut self, key: &[u8], post: Option<Vec<u8>>) {
        self.windows.insert(key.to_vec(), (self.get(key), post));
    }

    /// Judges one read of `key`: `None` when `got` is allowed, else the
    /// violation. `complaint` names an exact-state disagreement ("oracle
    /// mismatch" in the final sweep).
    pub fn judge(&self, key: &[u8], got: &Option<Vec<u8>>, complaint: &str) -> Option<String> {
        let (k, g) = (fmt_key(key), fmt_state(got));
        match self.windows.get(key) {
            Some((pre, post)) if got == pre || got == post => None,
            Some((pre, post)) => Some(format!(
                "key {k} outside ambiguity window: got {g} allowed {} | {}",
                fmt_state(pre),
                fmt_state(post)
            )),
            None if *got == self.get(key) => None,
            None => Some(format!(
                "{complaint} on {k}: got {g} want {}",
                fmt_state(&self.get(key))
            )),
        }
    }

    /// [`judge`](Self::judge)s a read a script made along the way; an
    /// allowed read of an ambiguous key pins its collapsed state, so later
    /// checks compare against it exactly.
    pub fn observe(
        &mut self,
        key: &[u8],
        got: Option<Vec<u8>>,
        complaint: &str,
        violations: &mut Vec<String>,
    ) {
        match self.judge(key, &got, complaint) {
            Some(v) => violations.push(v),
            None if self.windows.contains_key(key) => self.commit(key, got),
            None => {}
        }
    }
}

/// Inserts `keys` with seeded values through `kv`, recording them in
/// `oracle`.
pub(crate) fn preload(
    kv: &mut dyn Kv,
    oracle: &mut Oracle,
    rng: &mut StdRng,
    keys: impl IntoIterator<Item = Vec<u8>>,
) -> Result<(), String> {
    for k in keys {
        let v = gen_value(rng, b'A');
        kv.put(&k, &v).ctx(&format!("preload {}", fmt_key(&k)))?;
        oracle.state.insert(k, v);
    }
    Ok(())
}

/// Two checkpoint rounds between trace barriers (preload done,
/// checkpoints done), so every column has a restorable checkpoint and a
/// non-trivial Index Version to regress from; returns the watch on it.
pub(crate) fn checkpoint_twice(store: &AcesoStore) -> Result<IvWatch, String> {
    store.cluster.trace_barrier();
    for _ in 0..2 {
        store.checkpoint_tick().ctx("ckpt")?;
    }
    store.cluster.trace_barrier();
    Ok(IvWatch::capture(store))
}

/// **oracle-agreement**: sweeps every key the oracle knows, plus `absent`
/// (keys it may not know: a deleted target, a never-inserted phantom).
pub fn oracle_agreement(
    kv: &mut dyn Kv,
    oracle: &Oracle,
    absent: &[&[u8]],
    violations: &mut Vec<String>,
) {
    let known = oracle.state.keys().chain(oracle.windows.keys());
    let keys: BTreeSet<&[u8]> = known
        .map(Vec::as_slice)
        .chain(absent.iter().copied())
        .collect();
    for k in keys {
        match kv.get(k) {
            Ok(got) => violations.extend(oracle.judge(k, &got, "oracle mismatch")),
            Err(e) => violations.push(format!("oracle search {}: {e}", fmt_key(k))),
        }
    }
}

/// **meta-lock-liveness** on one key.
pub fn probe_liveness(kv: &mut dyn Kv, key: &[u8], rng: &mut StdRng, violations: &mut Vec<String>) {
    let k = fmt_key(key);
    let probe = gen_value(rng, b'P');
    match kv.put(key, &probe) {
        Ok(()) => match kv.get(key) {
            Ok(Some(got)) if got == probe => {}
            Ok(got) => violations.push(format!(
                "probe readback mismatch on {k}: got {}",
                fmt_state(&got)
            )),
            Err(e) => violations.push(format!("probe readback {k}: {e}")),
        },
        Err(e) => violations.push(format!(
            "probe insert on {k} blocked (stale meta lock?): {e}"
        )),
    }
}

/// **no-open-degraded-window**.
pub fn no_open_degraded_window(store: &AcesoStore, violations: &mut Vec<String>) {
    let degraded = store.degraded_columns();
    if !degraded.is_empty() {
        violations.push(format!("degraded windows left open: {degraded:?}"));
    }
}

/// Judges a settled store against all of [`INVARIANT_CLASSES`] through a
/// fresh client (cold cache, current placement): the oracle sweep (with
/// `absent`), a probe on each of `probes`, then the three store-level
/// checks. Returns the wall-clock milliseconds each class took.
pub fn judge_store(
    store: &Arc<AcesoStore>,
    oracle: &Oracle,
    absent: &[&[u8]],
    probes: &[Vec<u8>],
    iv: &IvWatch,
    rng: &mut StdRng,
    violations: &mut Vec<String>,
) -> Result<[f64; 5], String> {
    let mut fresh = store.client().ctx("sweep client")?;
    let mut clock = Instant::now();
    let mut ms = [0.0; 5];
    oracle_agreement(&mut fresh, oracle, absent, violations);
    ms[0] = take_ms(&mut clock);
    for k in probes {
        probe_liveness(&mut fresh, k, rng, violations);
    }
    ms[1] = take_ms(&mut clock);
    iv.check(store, violations);
    ms[2] = take_ms(&mut clock);
    parity_scrub(store, &mut fresh, violations);
    ms[3] = take_ms(&mut clock);
    no_open_degraded_window(store, violations);
    ms[4] = take_ms(&mut clock);
    Ok(ms)
}
