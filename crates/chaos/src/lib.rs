//! Fault-injection harness for the Aceso reproduction: five fault axes on
//! one seam.
//!
//! An [`Axis`] is a matrix of crash scenarios plus the script that runs
//! one cell of it against a live engine: preload, arm the fault
//! ([`aceso_rdma::FaultPlan`] for verb-level faults,
//! [`aceso_core::client::CrashPoint`] for client-protocol crashes), run
//! the traffic, recover, then judge the engine with the named
//! [`invariants`] (oracle agreement with ambiguity windows, meta-lock
//! liveness, Index-Version monotonicity, parity scrub, no open degraded
//! window). Every script runs on one [`axis::Script`] over an
//! [`aceso_core::FtEngine`] — an Aceso store for four axes, any engine for
//! [`Backends`] — whose launch, checkpoint, recovery and judging steps
//! are the same for all; the engine decides the order it recovers in.
//! Everything else — the [`Outcome`], the sink-installing [`run_cell`],
//! the seeded [`run_matrix`] and its [`Report`], the race detector's
//! [`analyze::Trace`], the CLI — exists once, in [`axis`], [`analyze`] and
//! `main.rs`.
//!
//! The axes, each a `chaos <name> [--ci] [--seed N] [--limit N]
//! [--verbose]` mode (`--ci` additionally rewrites
//! `results/chaos/<name>.txt`, the pinned tier-1 baseline):
//!
//! * [`Sweep`] — (operation × injection site × MN-kill timing ×
//!   reclamation state), 720 cells; `--ci` is a seeded 120-cell subset
//!   plus the cache axis. `chaos soak --seconds N` draws random cells of
//!   it until a deadline.
//! * [`Rt`] — kill a memory node (or crash one client) while several
//!   resumable ops are suspended mid round-trip on one
//!   [`aceso_rt::Executor`] thread.
//! * [`Elastic`] — the joining MN, the draining MN, or a CN dies at every
//!   migrator step boundary of an online column migration.
//! * [`Cache`] — the index column of a cached key (or the client itself)
//!   dies *between cache fill and use*; a hot-cache client that slept
//!   through the kill must read nothing stale afterwards.
//! * [`Backends`] — one strategy-blind (op × fault × skip) script against
//!   every [`aceso_core::FtEngine`]: Aceso, FUSEE-style full replication,
//!   the SWARM-style 1-RTT engine.
//!
//! Three more modes reuse them: `chaos cell [<axis>:]<id> --seed N`
//! replays any cell a report printed; `chaos analyze` reruns the sweep
//! schedule, a multi-client YCSB-A interleaving, and every axis' traced
//! slice under the [`aceso_san`] happens-before race detector (see
//! [`analyze`]); `chaos explore` drives the [`aceso_model`] bounded model
//! checker (see [`explore`]).
//!
//! Every schedule derives from one `u64` seed; the same seed replays the
//! identical schedule.

pub mod analyze;
pub mod axis;
pub mod backends_axis;
pub mod cache_axis;
pub mod cell;
pub mod elastic_axis;
pub mod explore;
pub mod invariants;
pub mod rt_axis;
pub mod runner;
pub mod sweep;

pub use axis::{cell_seeds, find_cell, run_cell, run_matrix, Axis, Out, Outcome, Report};
pub use backends_axis::Backends;
pub use cache_axis::Cache;
pub use elastic_axis::Elastic;
pub use rt_axis::Rt;
pub use sweep::Sweep;

/// Default master seed so bare CLI invocations are reproducible without
/// any flags.
pub const DEFAULT_SEED: u64 = 0xACE50;

/// Cell budget of the sweep's `--ci` profile: large enough to touch every
/// axis value many times, small enough to finish within the tier-1 minute.
pub const CI_CELLS: usize = 120;

/// Calls a function generic over [`Axis`] once per axis, in report
/// order, collecting the results: `each_axis!(f(a, b))` is
/// `[f::<Sweep>(a, b), f::<Rt>(a, b), …]`. The one list of axes — the
/// CLI, `chaos cell`, `chaos analyze` and the cross-axis tests all walk
/// it.
#[macro_export]
macro_rules! each_axis {
    ($f:ident ( $($arg:expr),* )) => {
        [
            $f::<$crate::Sweep>($($arg),*),
            $f::<$crate::Rt>($($arg),*),
            $f::<$crate::Elastic>($($arg),*),
            $f::<$crate::Backends>($($arg),*),
            $f::<$crate::Cache>($($arg),*),
        ]
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn ids_resolve<A: Axis>() {
        let cells = A::cells();
        let ids: BTreeSet<String> = cells.iter().map(|c| c.to_string()).collect();
        assert_eq!(ids.len(), cells.len(), "{}: duplicate cell ids", A::NAME);
        for cell in cells {
            assert_eq!(find_cell::<A>(&cell.to_string()), Some(cell), "{cell}");
        }
        assert_eq!(find_cell::<A>("nope/none/none/fresh"), None);
    }

    /// Every id a report can print is unique within its axis and resolves
    /// back to its cell (what `chaos cell` relies on).
    #[test]
    fn ids_round_trip_through_parse() {
        each_axis!(ids_resolve());
        assert_eq!(find_cell::<Sweep>("update/verb-write-0/at-verb-1"), None);
    }

    fn runs_twice_alike<A: Axis>() {
        let cells = A::cells();
        let cell = cells[cells.len() / 2];
        let (a, b) = (run_cell::<A>(cell, 77, None), run_cell::<A>(cell, 77, None));
        assert_eq!(a.violations, b.violations, "{}:{cell}", A::NAME);
        assert_eq!(a.facts, b.facts, "{}:{cell}", A::NAME);
    }

    /// Same seed, same schedule, same outcome — on every axis.
    #[test]
    fn same_seed_reproduces_identical_outcome() {
        each_axis!(runs_twice_alike());
    }
}
