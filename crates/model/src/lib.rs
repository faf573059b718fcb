//! `aceso-model` — a deterministic bounded model checker for the Aceso
//! client protocol.
//!
//! The chaos matrix samples crash points; this crate *enumerates*. It
//! drives 2–3 coroutine clients ([`aceso_rt::Executor`]) over a tiny
//! store geometry and explores every interleaving of their fabric round
//! trips up to a depth bound: each `DmClient::settle` suspension is a
//! scheduling point (the completion can be delivered out of deadline
//! order via `SimCq::deliver_seq`), and every scheduling point is also a
//! crash point — the suspended client is cancelled in place, the home
//! memory node of the contended key is killed, or both, followed by full
//! tiered recovery and re-checking.
//!
//! The pieces:
//!
//! * [`scenario`] — the small-scope workloads (2–3 clients, 2–3 keys)
//!   and the mutation self-tests that prove the checker alive.
//! * [`exec`] — one stateless execution: replay a schedule prefix,
//!   crash, drain, recover, judge.
//! * [`mod@explore`] — the bounded DFS with sleep-set DPOR pruning driven by
//!   the sanitizer's happens-before conflict relation
//!   ([`aceso_san::footprints_conflict`]).
//! * [`wgl`] — a Wing&Gong-style linearizability checker over the
//!   committed INSERT/UPDATE/SEARCH/DELETE history.
//! * [`step_table`] — the reviewed inventory of every suspension point
//!   in the async client, drift-checked against the source.
//!
//! `chaos explore --ci` wires it all into the verification stack:
//! seed-stable, wall-clock-free output, non-zero exit on any
//! non-linearizable history, step-table drift, or dead mutation
//! self-test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod explore;
pub mod scenario;
pub mod step_table;
pub mod wgl;

pub use exec::{run, CrashSpec, RunResult};
pub use explore::{explore, ExploreStats, ScenarioReport, Violation};
pub use scenario::{baseline_scenarios, model_config, mutation_scenarios, Scenario, ScriptOp};
pub use step_table::{check_step_table, STEP_TABLE};
pub use wgl::{check_key, KeyOp, KeyOpKind};
