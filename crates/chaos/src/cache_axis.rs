//! `chaos cache` — the stale-index-cache fault axis.
//!
//! The crash matrix arms its faults *inside* one operation; this axis
//! attacks the gap the client index cache opens *between* operations: a
//! cache entry is filled, the node it points at dies (or the client
//! itself crashes with a hot cache), recovery re-homes the data — and
//! only then is the entry used. Before PR 10 nothing exercised that
//! fill→kill→recover→use window end to end.
//!
//! Two kills × the cache-consulting operations:
//!
//! * [`CacheKill::Mn`] — the index column of a cached key is killed
//!   **between cache fill and use**. The victim client then runs one
//!   operation against the dead column through its stale entry (it may
//!   fail fast — that is written off like a blocked client in the
//!   matrix), CN consistency recovery runs if it was interrupted, and MN
//!   recovery rebuilds the column.
//! * [`CacheKill::Cn`] — a client **with a hot cache** crashes at
//!   [`CrashPoint::BeforeCommit`] mid-mutation and CN recovery repairs
//!   its in-flight op.
//!
//! Post-conditions are [`crate::axis::Script::judge`] (with an
//! ambiguity window on the interrupted key) plus the axis-defining one:
//!
//! * **No stale read after recovery** — a *second* client whose cache
//!   was filled before the kill and never touched again until recovery
//!   completed sweeps every key. Each cached slot address on the
//!   recovered column is now wrong or re-homed; every read must still
//!   return exactly the oracle value (the entry must revalidate or
//!   invalidate, never serve the pre-recovery image).

use crate::axis::{fail_fast, gen_value, key, Axis, Ctx, Out, Script, Sink};
use crate::invariants::{Armed, Fold, Op};
use aceso_core::client::CrashPoint;
use aceso_index::route_hash;
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// Preloaded keys (every one cached by both clients before the kill).
const KEYS: usize = 24;

/// Which participant dies between cache fill and use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheKill {
    /// Kill the index column of the target key after the caches are hot.
    Mn,
    /// Crash the hot-cache client at a protocol crash point mid-op.
    Cn,
}

/// The cache-consulting operation run through the stale entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOp {
    /// SEARCH through the cached slot address (the 1-RTT fast path).
    Search,
    /// UPDATE speculating on the cached Atomic/Meta words.
    Update,
    /// DELETE (tombstone commit) through the cached slot address.
    Delete,
}

/// One cell of the cache matrix: a kill in the fill→use window × the op
/// that then consumes the stale entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheCell {
    /// Which participant dies.
    pub kill: CacheKill,
    /// The operation run through the stale cache.
    pub op: CacheOp,
}

impl fmt::Display for CacheCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kill = match self.kill {
            CacheKill::Mn => "kill-mn",
            CacheKill::Cn => "crash-cn",
        };
        write!(f, "{kill}@{}", format!("{:?}", self.op).to_lowercase())
    }
}

/// What one cache cell observes besides its violations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CacheFacts {
    /// The killed (MN cells) or target (CN cells) index column.
    pub col: usize,
    /// Entries the sweep client held when the kill landed.
    pub warm_entries: usize,
    /// Whether the victim client's op was interrupted by the fault.
    pub interrupted: bool,
}

/// The stale-index-cache axis (`chaos cache`, appended to `sweep --ci`).
pub struct Cache;

impl Axis for Cache {
    type Cell = CacheCell;
    type Facts = CacheFacts;
    const NAME: &'static str = "cache";
    const CELLS_ARE: &'static str = "stale-cache cells";
    const CLEAN: &'static str = "no stale read survived any fill-kill-recover-use window";

    /// CN crash points live in the commit path, so the CN kill pairs only
    /// with the mutating ops.
    fn cells() -> Vec<CacheCell> {
        let cell = |kill, op| CacheCell { kill, op };
        vec![
            cell(CacheKill::Mn, CacheOp::Search),
            cell(CacheKill::Mn, CacheOp::Update),
            cell(CacheKill::Mn, CacheOp::Delete),
            cell(CacheKill::Cn, CacheOp::Update),
            cell(CacheKill::Cn, CacheOp::Delete),
        ]
    }

    /// The stale-cache SEARCH fast path, the stale-cache UPDATE
    /// speculation, and the hot-cache CN crash: the detector must order
    /// the sweeper's revalidating slot re-reads against the recovery
    /// stream that rebuilt (or repaired) the memory they land on.
    fn traced() -> Vec<CacheCell> {
        let cells = Self::cells();
        vec![cells[0], cells[1], cells[3]]
    }

    fn run(cell: CacheCell, seed: u64, sink: Sink, out: &mut Out<Self>) -> Result<(), String> {
        let keys: Vec<Vec<u8>> = (0..KEYS).map(|j| key("ck", j)).collect();
        let mut s = Script::seeded(seed, sink, keys.iter().cloned())?;
        let store = Arc::clone(s.eng.store());

        // ---- Cache fill -----------------------------------------------------
        // Two hot-cache clients. `victim` runs the op through its stale entry;
        // `sweeper` stays idle across the kill and performs the no-stale-read
        // sweep after recovery.
        let mut victim = store.client_with(fail_fast()).ctx("victim client")?;
        let mut sweeper = store.client_with(fail_fast()).ctx("sweeper client")?;
        for k in &keys {
            for (who, cli) in [("victim", &mut victim), ("sweeper", &mut sweeper)] {
                let complaint = format!("{who} fill mismatch");
                let (read, res) = (Op::Read(&complaint), cli.search(k));
                s.oracle
                    .fold(k, read, res, Armed::Nothing, &mut out.violations);
            }
        }
        out.facts.warm_entries = sweeper.cache_len();
        if out.facts.warm_entries == 0 {
            out.violations.push("sweeper cache never filled".into());
        }

        // The target key's index column is the MN victim, so both clients
        // hold a cached slot address that dies under them.
        let target = keys[s.rng.gen_range(0..KEYS)].clone();
        let col = (route_hash(&target) % store.cfg.num_mns as u64) as usize;
        out.facts.col = col;

        // ---- Kill between fill and use --------------------------------------
        store.cluster.trace_barrier();
        // Under the MN kill the victim dies under the op and nobody has
        // recovered yet: written off as crashed-while-blocked, like the matrix.
        let armed = match cell.kill {
            CacheKill::Mn => {
                if !store.kill_mn(col) {
                    out.violations
                        .push(format!("kill of col {col} found it already dead"));
                }
                Armed::Blocked
            }
            CacheKill::Cn => {
                victim.crash_point = Some(CrashPoint::BeforeCommit);
                Armed::Crash
            }
        };
        store.cluster.trace_barrier();

        // ---- The op through the stale entry ---------------------------------
        let (res, op) = match cell.op {
            // A successful read against the dead column (degraded path) must
            // already be stale-free.
            CacheOp::Search => (victim.search(&target), Op::Read("degraded search mismatch")),
            CacheOp::Update => {
                let v = gen_value(&mut s.rng, b'U');
                (
                    victim.update(&target, &v).map(|()| None),
                    Op::Write(Some(v)),
                )
            }
            CacheOp::Delete => (victim.delete(&target).map(|_| None), Op::Write(None)),
        };
        let fold = s.oracle.fold(&target, op, res, armed, &mut out.violations);
        out.facts.interrupted = matches!(fold, Fold::Cut(_));
        if fold == Fold::Done && cell.kill == CacheKill::Cn {
            out.violations.push("CN crash point never fired".into());
        }
        let crashed = out.facts.interrupted.then_some(victim.id());
        drop(victim);

        // ---- Tiered recovery ------------------------------------------------
        s.recover(crashed.as_slice())?;

        // ---- No stale read after recovery -----------------------------------
        // The axis-defining check: the sweeper's cache was filled before the
        // kill and is consulted for the first time now. Every entry on the
        // recovered column points at pre-recovery memory; each read must
        // revalidate or invalidate it — never serve the old image. A read of
        // the interrupted key pins its collapsed state for the checks below.
        for k in &keys {
            let (read, res) = (Op::Read("stale read after recovery"), sweeper.search(k));
            s.oracle
                .fold(k, read, res, Armed::Nothing, &mut out.violations);
        }
        if sweeper.cache_len() == 0 {
            out.violations
                .push("sweeper cache empty after the sweep (caching disabled?)".into());
        }

        // ---- Matrix invariants (the cold-cache sweep double-checks the hot one)
        let probes = Vec::from_iter(out.facts.interrupted.then(|| target.clone()));
        s.judge(&[&target], &probes, &mut out.violations)?;
        Ok(())
    }

    fn summary(o: &[Out<Self>]) -> String {
        format!(
            "{} interrupted ops, {} warm entries at kill time",
            o.iter().filter(|o| o.facts.interrupted).count(),
            o.iter().map(|o| o.facts.warm_entries).sum::<usize>()
        )
    }

    fn traced_note(out: &Out<Self>) -> String {
        format!("{} warm entries at kill, ", out.facts.warm_entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::{run_cell, run_matrix};

    fn run(kill: CacheKill, op: CacheOp) -> Out<Cache> {
        let out = run_cell::<Cache>(CacheCell { kill, op }, crate::DEFAULT_SEED, None);
        assert!(out.ok(), "{:?}", out.violations);
        out
    }

    /// The index column of a cached key dies between fill and use: the
    /// hot-cache SEARCH either degrades correctly or fails fast, MN
    /// recovery rebuilds the column, and the idle hot-cache client reads
    /// nothing stale afterwards.
    #[test]
    fn mn_killed_between_fill_and_use_serves_no_stale_search() {
        let out = run(CacheKill::Mn, CacheOp::Search);
        assert!(out.facts.warm_entries > 0, "cache was never hot");
    }

    /// Same window, but the stale entry feeds an UPDATE speculation: the
    /// interrupted mutation collapses inside its ambiguity window and the
    /// post-recovery sweep sees exactly one of its two allowed states.
    #[test]
    fn mn_killed_before_update_recovers_clean() {
        run(CacheKill::Mn, CacheOp::Update);
    }

    /// A client with a hot cache crashes at the commit crash point; CN
    /// recovery repairs the in-flight op and the surviving hot-cache
    /// client reads nothing stale.
    #[test]
    fn cn_crash_with_hot_cache_recovers_clean() {
        let out = run(CacheKill::Cn, CacheOp::Update);
        assert!(
            out.facts.interrupted,
            "the crash point must interrupt the op"
        );
    }

    /// The whole matrix holds its invariants under the default seed (the
    /// profile `chaos sweep --ci` runs).
    #[test]
    fn cache_matrix_is_clean() {
        let report = run_matrix::<Cache>(&Cache::cells(), crate::DEFAULT_SEED, |_| {});
        assert!(report.clean(), "{}", report.render(false));
        assert_eq!(report.outcomes.len(), 5);
    }
}
