//! The explorer's step table: every suspension point of the async client.
//!
//! The bounded checker's scheduling granularity is `DmClient::settle` —
//! each `.settle().await` under `aceso-core/src/client/` is one point
//! where a coroutine client suspends at a fabric round trip, i.e. one
//! place the explorer can reorder deliveries or inject a crash. This
//! table pins the full inventory, per client function, so the explored
//! step space is an explicit reviewed artifact: adding or removing a
//! suspension point without updating the table fails
//! [`check_step_table`], which `cargo test` (`step_table_matches_source`)
//! and `chaos explore --ci` run. It goes through the sanitizer's one
//! scanner (`aceso_san::lint::check_settle_table`), which walks every
//! module file of the client.

/// `(function, settle_sites, what suspends there)` for every function
/// under `crates/core/src/client/` containing a `.settle().await`.
pub const STEP_TABLE: &[(&str, usize, &str)] = &[
    // mod.rs — the API wrappers and the write retry loop.
    ("delete_async", 1, "latency an early exit left unsettled (error path, backoff)"),
    ("insert_async", 1, "latency an early exit left unsettled (error path, backoff)"),
    ("search_async", 1, "latency an early exit left unsettled (error path, backoff)"),
    ("update_async", 1, "latency an early exit left unsettled (error path, backoff)"),
    ("upsert", 1, "trailing flush of invalidations no write batch carried"),
    // locate.rs — key to slot.
    // A lone candidate of an UPDATE/DELETE leaves here unverified (its KV
    // identity read rides in `write_batch`).
    ("locate_slot", 2, "cached-slot re-read; two-bucket scan"),
    (
        "verify_kv",
        1,
        "the fallback state's identity read of one candidate (degraded: search.rs's reconstruct)",
    ),
    // commit.rs — the commit machine.
    (
        "commit",
        3,
        "Meta unlock CAS; Meta length write; bitmap-flush RPC when due",
    ),
    ("enter_bracket", 2, "lock probe slot read (x50); Meta lock CAS"),
    (
        "publish",
        4,
        "slot reservation (block open/close RPCs); pre-NotFound invalidation flush;          commit CAS; in-bracket invalidation flush after a lost CAS",
    ),
    (
        "write_batch",
        1,
        "piggyback read (slot revalidation or KV identity) + queued invalidations + KV + 2 delta writes",
    ),
    ("flush_deferred_deltas", 1, "mutation-held delta write batch"),
    ("unwind_fenced_place", 1, "fence rollback write batch"),
    // search.rs — the read path.
    (
        "search_via_cache",
        1,
        "cached KV read (a known-down node's: its first chain) + slot re-read batch",
    ),
    ("search_value_cache", 1, "cached KV read + two-bucket scan batch"),
    ("search_query", 1, "two-bucket scan"),
    ("search_candidates", 1, "batched candidate KV reads"),
    ("read_and_verify", 1, "SEARCH's candidate KV read"),
    (
        "classify_kv_read",
        1,
        "re-read of a KV its stale advisory length truncated",
    ),
    (
        "reconstruct",
        2,
        "parity-chain doorbell (record head + parity + cells); DELTA-block doorbell",
    ),
];

/// Scans the client source and reports every drift between the real
/// `.settle().await` sites and [`STEP_TABLE`]: a function added, removed,
/// or whose site count changed. Empty = the explored step space matches
/// the code.
pub fn check_step_table() -> Vec<String> {
    aceso_san::lint::check_settle_table(STEP_TABLE.iter().map(|&(name, sites, _)| (name, sites)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table matches the code right now (the same check `chaos
    /// explore --ci` runs).
    #[test]
    fn step_table_matches_source() {
        let problems = check_step_table();
        assert!(problems.is_empty(), "{problems:#?}");
    }

    /// Every table entry names a distinct function (no duplicate rows).
    #[test]
    fn step_table_has_no_duplicates() {
        let mut names: Vec<&str> = STEP_TABLE.iter().map(|&(n, _, _)| n).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
