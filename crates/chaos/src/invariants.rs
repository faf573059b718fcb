//! The named invariant library: what "the store survived" means, written
//! once and judged identically by every axis.
//!
//! [`INVARIANT_CLASSES`] names the six invariants; [`Script::judge`]
//! checks all of them against a settled engine: the first two through a
//! fresh client ([`oracle_agreement`] and [`probe_liveness`] take any
//! [`FtClient`]), the rest inside the engine's own
//! [`FtEngine::check`] — [`aceso_core::AcesoEngine`]'s for Aceso,
//! replica agreement for the replication engines. The violation strings
//! are part of the interface: reports, DESIGN.md and the negative tests in
//! `tests/invariants.rs` quote them.

use crate::axis::{fmt_key, fmt_state, gen_value, take_ms, Ctx, Script};
use aceso_core::{FtClient, FtEngine, FtError};
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// The invariants, in the order [`Script::judge`] checks them:
///
/// 0. **oracle-agreement** — every key reads back exactly what the
///    [`Oracle`] predicts; a key whose mutation a fault interrupted may be
///    in its pre-op or its intended post-op state (the commit protocol's
///    ambiguity [`Window`]), never anything else; a key never inserted
///    stays absent.
/// 1. **meta-lock-liveness** — a probe write on every interrupted key gets
///    through (breaking any lock the crashed client abandoned) and reads
///    back.
/// 2. **iv-monotonicity** — [`aceso_core::IvWatch`].
/// 3. **parity-scrub** — [`aceso_core::parity_scrub`].
/// 4. **meta-replica-agreement** — [`aceso_core::replica_agreement`].
/// 5. **no-open-degraded-window** — once recovery has completed no column
///    is left in the window between its Index tier and its Block tier.
///
/// Classes 2–5 are Aceso's [`FtEngine::check`], timed as one.
pub const INVARIANT_CLASSES: [&str; 6] = [
    "oracle-agreement",
    "meta-lock-liveness",
    "iv-monotonicity",
    "parity-scrub",
    "meta-replica-agreement",
    "no-open-degraded-window",
];

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

    /// Folds one script op on `key` into the oracle. `Ok` commits a
    /// write's post-state or [`observe`](Self::observe)s a read. An error
    /// `armed` accepts opens the op's window — a cut read's at the current
    /// state — and comes back as [`Fold::Cut`]. Any other error is one
    /// `op on <key>: unexpected error: …` violation.
    pub fn fold<E: Into<FtError>>(
        &mut self,
        key: &[u8],
        op: Op<'_>,
        res: Result<Option<Vec<u8>>, E>,
        armed: Armed,
        violations: &mut Vec<String>,
    ) -> Fold {
        let e = match res.map_err(Into::into) {
            Err(e) => e,
            Ok(got) => {
                match op {
                    Op::Write(post) => self.commit(key, post),
                    Op::Read(complaint) => self.observe(key, got, complaint, violations),
                }
                return Fold::Done;
            }
        };
        if !armed.accepts(&e) {
            violations.push(format!("op on {}: unexpected error: {e}", fmt_key(key)));
            return Fold::Unexpected;
        }
        let post = match op {
            Op::Write(post) => post,
            Op::Read(_) => self.get(key),
        };
        self.interrupt(key, post);
        Fold::Cut(e)
    }
}

/// One script op, as [`Oracle::fold`] records it.
#[derive(Clone, Debug)]
pub enum Op<'a> {
    /// A mutation intending this post-state (`None`: deleted).
    Write(Option<Vec<u8>>),
    /// A read; a mismatch is reported as `<complaint> on <key>: …`.
    Read(&'a str),
}

/// How [`Oracle::fold`] settled an op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fold {
    /// It completed: committed (a write) or observed (a read).
    Done,
    /// An armed fault cut it short; its window is open.
    Cut(FtError),
    /// It failed in a way no armed fault explains (one violation).
    Unexpected,
}

/// The fault classes a script accepts as the cause of a cut-short op,
/// classified through [`FtError`]: a client crash — a crash point or an
/// injected verb failure ([`FtError::Crashed`]) — and a node the op needs
/// dying with nobody recovering it yet ([`FtError::Unreachable`]), which
/// writes the client off as crashed-while-blocked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Armed {
    /// No fault: every error is unexpected.
    Nothing,
    /// Only a client crash.
    Crash,
    /// Only a dead node.
    Blocked,
    /// Either.
    Both,
}

impl Armed {
    /// Whether `e` is a cut this script armed.
    pub fn accepts(self, e: &FtError) -> bool {
        match e {
            FtError::Crashed(_) => matches!(self, Armed::Crash | Armed::Both),
            FtError::Unreachable(_) => matches!(self, Armed::Blocked | Armed::Both),
            _ => false,
        }
    }
}

/// Inserts `keys` with seeded values through `kv`, recording them in
/// `oracle`.
pub(crate) fn preload(
    kv: &mut dyn FtClient,
    oracle: &mut Oracle,
    rng: &mut StdRng,
    keys: impl IntoIterator<Item = Vec<u8>>,
) -> Result<(), String> {
    for k in keys {
        let v = gen_value(rng, b'A');
        kv.insert(&k, &v).ctx(&format!("preload {}", fmt_key(&k)))?;
        oracle.state.insert(k, v);
    }
    Ok(())
}

/// **oracle-agreement**: sweeps every key the oracle knows, plus `absent`
/// (keys it may not know: a deleted target, a never-inserted phantom).
pub fn oracle_agreement(
    kv: &mut dyn FtClient,
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
        match kv.search(k) {
            Ok(got) => violations.extend(oracle.judge(k, &got, "oracle mismatch")),
            Err(e) => violations.push(format!("oracle search {}: {e}", fmt_key(k))),
        }
    }
}

/// **meta-lock-liveness** on one key.
pub fn probe_liveness(
    kv: &mut dyn FtClient,
    key: &[u8],
    rng: &mut StdRng,
    violations: &mut Vec<String>,
) {
    let k = fmt_key(key);
    let probe = gen_value(rng, b'P');
    match kv.insert(key, &probe) {
        Ok(()) => match kv.search(key) {
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

impl<E: FtEngine + ?Sized> Script<E> {
    /// The shared tail: judges the settled engine against all of
    /// [`INVARIANT_CLASSES`] through a fresh client (cold cache, current
    /// placement) — the oracle sweep (with `absent`), a probe on each of
    /// `probes` — then flushes that client, fences the flush with a trace
    /// barrier, runs the engine's own check, and shuts the engine down.
    /// Returns the wall-clock milliseconds of the sweep, the probes and
    /// the check.
    pub fn judge(
        mut self,
        absent: &[&[u8]],
        probes: &[Vec<u8>],
        violations: &mut Vec<String>,
    ) -> Result<[f64; 3], String> {
        let mut fresh = self.eng.client().ctx("sweep client")?;
        let mut clock = Instant::now();
        let mut ms = [0.0; 3];
        oracle_agreement(fresh.as_mut(), &self.oracle, absent, violations);
        ms[0] = take_ms(&mut clock);
        for k in probes {
            probe_liveness(fresh.as_mut(), k, &mut self.rng, violations);
        }
        ms[1] = take_ms(&mut clock);
        if let Err(e) = fresh.quiesce() {
            violations.push(format!("final flush: {e}"));
        }
        self.eng.cluster().trace_barrier();
        match self.eng.check() {
            Ok(problems) => violations.extend(problems),
            Err(e) => violations.push(format!("check: {e}")),
        }
        ms[2] = take_ms(&mut clock);
        self.eng.shutdown();
        Ok(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `k` holds `pre`; nothing is ambiguous yet.
    fn oracle() -> Oracle {
        let mut o = Oracle::default();
        o.commit(b"k", Some(b"pre".to_vec()));
        o
    }

    /// Folds one op ending in `res` under `armed` into a fresh oracle.
    fn folded(
        op: Op<'_>,
        res: Result<Option<Vec<u8>>, FtError>,
        armed: Armed,
    ) -> (Fold, Oracle, Vec<String>) {
        let (mut o, mut violations) = (oracle(), Vec::new());
        let fold = o.fold(b"k", op, res, armed, &mut violations);
        (fold, o, violations)
    }

    /// The outcome table over every error class and every accept set the
    /// axes pass. An error is a cut exactly when its class is armed — so
    /// `Unreachable` with only a crash armed is a violation, not a window
    /// — and any other error is one violation that leaves the oracle
    /// untouched. A cut write may or may not have landed; a cut read
    /// changed nothing, so its window opens at the current state.
    #[test]
    fn fold_cuts_only_what_is_armed() {
        let (pre, post) = (Some(b"pre".to_vec()), Some(b"post".to_vec()));
        let table = [
            (
                FtError::Crashed("injected".into()),
                [false, true, false, true],
            ),
            (
                FtError::Unreachable("node down".into()),
                [false, false, true, true],
            ),
            (FtError::NotFound, [false; 4]),
            (FtError::Other("out of blocks".into()), [false; 4]),
        ];
        let ops = [
            (Op::Write(post.clone()), post.clone()),
            (Op::Read("search mismatch"), pre.clone()),
        ];
        for (e, cut) in table {
            let armed = [Armed::Nothing, Armed::Crash, Armed::Blocked, Armed::Both];
            for (armed, cut) in armed.into_iter().zip(cut) {
                for (op, window_post) in ops.clone() {
                    let case = format!("{e:?} under {armed:?} on {op:?}");
                    let (fold, o, violations) = folded(op, Err(e.clone()), armed);
                    if cut {
                        assert_eq!(fold, Fold::Cut(e.clone()), "{case}");
                        assert_eq!(violations, Vec::<String>::new(), "{case}");
                        let window = (pre.clone(), window_post);
                        assert_eq!(o.windows.get(&b"k"[..]), Some(&window), "{case}");
                    } else {
                        assert_eq!(fold, Fold::Unexpected, "{case}");
                        let v = format!("op on k: unexpected error: {e}");
                        assert_eq!(violations, [v], "{case}");
                        assert!(o.windows.is_empty() && o.get(b"k") == pre, "{case}");
                    }
                }
            }
        }
    }

    /// `Ok` commits a write, and judges (then pins) a read.
    #[test]
    fn completed_ops_commit_or_observe() {
        let (fold, o, violations) = folded(Op::Write(None), Ok(None), Armed::Nothing);
        assert_eq!((fold, o.get(b"k"), violations.len()), (Fold::Done, None, 0));

        let read = Op::Read("search mismatch");
        let (fold, _, violations) = folded(read.clone(), Ok(None), Armed::Nothing);
        assert_eq!(fold, Fold::Done);
        let v = "search mismatch on k: got absent want pre…[3]";
        assert_eq!(violations, [v]);

        let mut o = oracle();
        o.interrupt(b"k", Some(b"post".to_vec()));
        let (got, mut violations) = (Ok::<_, FtError>(Some(b"post".to_vec())), Vec::new());
        o.fold(b"k", read, got, Armed::Nothing, &mut violations);
        assert!(violations.is_empty() && o.windows.is_empty());
        assert_eq!(o.get(b"k"), Some(b"post".to_vec()));
    }
}
