//! Static protocol lints: invariants the type system can't enforce.
//!
//! Each lint returns a list of violations (empty = clean). They come in two
//! flavours:
//!
//! * **Layout lints** probe the real layout types (`index::layout`,
//!   `blockalloc::layout`, `engines::layout`, `core::config::memory_map`)
//!   and check alignment and mutual consistency: every word a protocol
//!   CASes or FAAs is 8-byte aligned, the three index geometries agree,
//!   and the per-MN memory map has no overlapping areas.
//! * **Source lints** walk the workspace source (resolved relative to this
//!   crate's manifest) for invariants that live in the text: every
//!   `CrashPoint` variant is wired into `maybe_crash` call sites,
//!   hardcoded layout literals match the constants they mirror, every
//!   `ElasticStep` migrator boundary has kill coverage in the
//!   `chaos elastic` axis, the store, the fabric, the replication engines
//!   and the bench harness start no thread beyond the two inventoried
//!   sites (MN servers run on their callers' threads), and every std hash
//!   container in the store, the fabric, the engines and the kernels is
//!   allow-listed with the reason its iteration order cannot reach
//!   behaviour.
//!
//! The `#[test]`s at the bottom make `cargo test` the lint driver; `chaos
//! analyze` runs [`run_all`] too so the CI line exercises them. The
//! `.settle().await` scanner [`check_settle_table`] is not in [`run_all`]:
//! the model checker calls it with its own `STEP_TABLE`.

use aceso_blockalloc::{BlockId, BlockLayout, CellKind, RECORD_TABLES};
use aceso_core::client::CrashPoint;
use aceso_core::config::AcesoConfig;
use aceso_engines::layout::FuseeLayout;
use aceso_index::layout::{
    BUCKET_BYTES, BUCKET_SLOTS, COMBINED_BYTES, COMBINED_SLOTS, GROUP_BUCKETS, GROUP_BYTES,
};
use aceso_index::{IndexLayout, IndexWord, SLOT_BYTES};
use aceso_rdma::{GlobalAddr, NodeId};
use std::path::{Path, PathBuf};

/// Workspace root, resolved from this crate's manifest directory.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

fn read_source(violations: &mut Vec<String>, rel: &str) -> Option<String> {
    let path = workspace_root().join(rel);
    match std::fs::read_to_string(&path) {
        Ok(s) => Some(s),
        Err(e) => {
            violations.push(format!("source lint cannot read {}: {e}", path.display()));
            None
        }
    }
}

/// Reads every `.rs` file directly under `dir` as `(workspace-relative
/// path, source)`, in file-name order.
fn read_sources(violations: &mut Vec<String>, dir: &str) -> Vec<(String, String)> {
    let entries = match std::fs::read_dir(workspace_root().join(dir)) {
        Ok(e) => e,
        Err(e) => {
            violations.push(format!("source lint cannot list {dir}: {e}"));
            return Vec::new();
        }
    };
    let mut files: Vec<String> = entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|f| f.ends_with(".rs"))
        .collect();
    files.sort();
    files
        .into_iter()
        .filter_map(|file| {
            let rel = format!("{dir}/{file}");
            let src = read_source(violations, &rel)?;
            Some((rel, src))
        })
        .collect()
}

/// The async client: one module per layer, all of them scanned by the
/// crash-point and settle-site lints.
const CLIENT_DIR: &str = "crates/core/src/client";

/// Index layout: constants mutually consistent, every atomic word aligned.
pub fn lint_index_layout() -> Vec<String> {
    let mut v = Vec::new();
    if BUCKET_BYTES != BUCKET_SLOTS * SLOT_BYTES {
        v.push(format!(
            "index BUCKET_BYTES {BUCKET_BYTES} != BUCKET_SLOTS*SLOT_BYTES"
        ));
    }
    if GROUP_BYTES != GROUP_BUCKETS * BUCKET_BYTES {
        v.push(format!(
            "index GROUP_BYTES {GROUP_BYTES} != GROUP_BUCKETS*BUCKET_BYTES"
        ));
    }
    if COMBINED_BYTES != 2 * BUCKET_BYTES || COMBINED_SLOTS != 2 * BUCKET_SLOTS {
        v.push("index combined-bucket geometry is not two buckets".into());
    }
    // Every slot Atomic and Meta word of a sample layout must be 8-aligned
    // (they are CAS targets) and classified consistently.
    let l = IndexLayout::new(128, 7);
    for g in 0..7 {
        for c in 0..2 {
            for s in 0..COMBINED_SLOTS {
                let atomic = l.slot_offset(g, c, s);
                let meta = atomic + 8;
                for (name, off) in [("Atomic", atomic), ("Meta", meta)] {
                    if off % 8 != 0 {
                        v.push(format!(
                            "slot {name} word {off:#x} (g{g} c{c} s{s}) unaligned"
                        ));
                    }
                }
                if !matches!(l.classify_word(atomic), IndexWord::Atomic { .. }) {
                    v.push(format!("classify_word({atomic:#x}) is not Atomic"));
                }
                if !matches!(l.classify_word(meta), IndexWord::Meta { .. }) {
                    v.push(format!("classify_word({meta:#x}) is not Meta"));
                }
            }
        }
    }
    if !l.index_version_offset().is_multiple_of(8) {
        v.push("Index Version word unaligned".into());
    }
    v
}

/// FUSEE layout: same 3-bucket geometry at half the slot width, aligned
/// slot words.
pub fn lint_fusee_geometry() -> Vec<String> {
    let mut v = Vec::new();
    // Probe fusee's (private) group size via the public index_size():
    // adding one group to one partition adds exactly one group of bytes.
    let size = |groups| FuseeLayout::new(1, groups, 4096, 4).index_size();
    let fusee_group = size(9) - size(8);
    // FUSEE uses 8-byte slots in the same 3-buckets-of-8 shape as Aceso's
    // 16-byte slots, so each group is exactly half the byte size.
    if fusee_group * 2 != GROUP_BYTES {
        v.push(format!(
            "fusee group bytes {fusee_group} is not half of index GROUP_BYTES {GROUP_BYTES}"
        ));
    }
    if fusee_group != GROUP_BUCKETS * BUCKET_SLOTS * 8 {
        v.push(format!(
            "fusee group bytes {fusee_group} != 3 buckets x 8 slots x 8 B"
        ));
    }
    v
}

/// Block/Meta area layout: block offsets aligned and in the Block Area,
/// every id's kind naming the id back, records for exactly the stripe
/// cells, aligned and back to back, table after table, filling the Meta
/// Area, which ends before the Block Area.
pub fn lint_blockalloc_layout() -> Vec<String> {
    let mut v = Vec::new();
    let l = BlockLayout {
        n: 5,
        block_size: 16 << 10,
        num_arrays: 4,
        num_delta: 12,
        meta_base: 4096,
        block_base: 1 << 20,
    };
    let area = l.block_base..l.block_base + l.block_area_size();
    for id in 0..l.blocks_per_node() as BlockId {
        let blk = l.block_offset(id);
        if !blk.is_multiple_of(64) || !area.contains(&blk) {
            v.push(format!("block {id} at {blk:#x} misplaced"));
        }
        let (kind, has_record) = (l.kind_of(id), l.record_ids().contains(&id));
        let back = match kind {
            CellKind::Data { array, row } | CellKind::Parity { array, row } => {
                (array < l.num_arrays).then(|| l.cell_block_id(array, row))
            }
            CellKind::Delta { pool_index } => Some(l.delta_block_id(pool_index)),
        };
        if back != Some(id) || has_record == matches!(kind, CellKind::Delta { .. }) {
            v.push(format!("id {id}: {kind:?}, {back:?}, record {has_record}"));
        }
    }
    let mut end = l.meta_base;
    for table in 0..RECORD_TABLES {
        for id in l.record_ids() {
            let rec = l.record_offset_in(table, id);
            if rec != end || !rec.is_multiple_of(8) {
                v.push(format!("record {table}.{id} at {rec:#x}, not {end:#x}"));
            }
            end = rec + l.record_bytes();
        }
    }
    if end != l.meta_base + l.meta_size() || end > l.block_base {
        v.push(format!("record tables end at {end:#x}"));
    }
    v
}

/// Per-MN memory maps of the stock configurations: index, meta, block and
/// checkpoint areas must not overlap and must fit the region, the Meta Area
/// must hold all [`RECORD_TABLES`] record tables, and the Checkpoint Area
/// must hold an index-sized copy with its Index Version word aligned.
pub fn lint_memory_maps() -> Vec<String> {
    let mut v = Vec::new();
    for (name, cfg) in [
        ("small", AcesoConfig::small()),
        ("bench", AcesoConfig::bench()),
    ] {
        let map = cfg.memory_map();
        let index_end = map.index.base + map.index.size_bytes();
        if index_end > map.blocks.meta_base {
            v.push(format!("{name}: Index Area overlaps Meta Area"));
        }
        // The own table and both copies, a record per stripe cell each, are
        // the Meta Area, and it ends before the Block Area begins.
        let tables_end =
            map.blocks.record_offset_in(RECORD_TABLES - 1, 0) + map.blocks.table_size();
        if tables_end != map.blocks.meta_base + map.blocks.meta_size()
            || tables_end > map.blocks.block_base
        {
            v.push(format!("{name}: record tables overrun the Meta Area"));
        }
        let end = map.blocks.block_base + map.blocks.block_area_size();
        if end > map.region_len as u64 {
            v.push(format!("{name}: Block Area exceeds the region"));
        }
        if map.blocks.block_base % map.blocks.block_size != 0 {
            v.push(format!("{name}: Block Area base not block-aligned"));
        }
        if map.index.index_version_offset() % 8 != 0 {
            v.push(format!("{name}: Index Version word unaligned"));
        }
        let ckpt = map.ckpt;
        if ckpt.base < end {
            v.push(format!("{name}: Checkpoint Area overlaps the Block Area"));
        }
        if ckpt.base + ckpt.size_bytes() > map.region_len as u64 {
            v.push(format!("{name}: Checkpoint Area exceeds the region"));
        }
        if ckpt.size_bytes() != map.index.size_bytes() {
            v.push(format!("{name}: Checkpoint Area is not index-sized"));
        }
        if ckpt.index_version_offset() % 8 != 0 {
            v.push(format!("{name}: checkpoint's Index Version word unaligned"));
        }
    }
    v
}

/// `pack48` must roundtrip every 64-aligned block offset the maps produce
/// (slot addresses store 38 bits of offset).
pub fn lint_pack48() -> Vec<String> {
    let mut v = Vec::new();
    let map = AcesoConfig::small().memory_map();
    let last = (map.blocks.blocks_per_node() - 1) as BlockId;
    for off in [
        map.blocks.block_base,
        map.blocks.block_offset(last),
        map.blocks.block_offset(last) + map.blocks.block_size - 64,
    ] {
        for node in [0u16, 4] {
            let a = GlobalAddr::new(NodeId(node), off);
            let rt = GlobalAddr::unpack48(a.pack48());
            if rt.node != a.node || rt.offset != a.offset {
                v.push(format!(
                    "pack48 roundtrip failed for {node} offset {off:#x}"
                ));
            }
        }
    }
    v
}

/// Source lint: every `CrashPoint` variant declared in the client
/// (`core/client/mod.rs`) must appear in `CrashPoint::ALL` and be wired to
/// at least one protocol site in some client module (a
/// `maybe_crash`/comparison use beyond the declaration itself).
pub fn lint_crash_points() -> Vec<String> {
    let mut v = Vec::new();
    let src: String = read_sources(&mut v, CLIENT_DIR)
        .into_iter()
        .map(|(_, src)| src)
        .collect();
    // Parse the enum declaration's variant names.
    let Some(decl) = src
        .split("pub enum CrashPoint {")
        .nth(1)
        .and_then(|rest| rest.split('}').next())
    else {
        v.push(format!(
            "cannot find `pub enum CrashPoint` under {CLIENT_DIR}"
        ));
        return v;
    };
    let variants: Vec<&str> = decl
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .filter_map(|l| l.strip_suffix(','))
        .collect();
    if variants.len() != CrashPoint::ALL.len() {
        v.push(format!(
            "CrashPoint declares {} variants but ALL lists {}",
            variants.len(),
            CrashPoint::ALL.len()
        ));
    }
    for var in &variants {
        let qualified = format!("CrashPoint::{var}");
        // ALL + Display + >=1 protocol site = at least 3 qualified uses.
        let uses = src.matches(qualified.as_str()).count();
        if uses < 3 {
            v.push(format!(
                "{qualified} has {uses} uses under {CLIENT_DIR}; expected ALL + Display + a protocol site"
            ));
        }
    }
    v
}

/// Source lint: every `ElasticStep` variant the migrator declares in
/// `core/elastic.rs` must be mapped in the `chaos elastic` axis
/// (`chaos/src/elastic_axis.rs`), so a newly added migration step
/// boundary cannot ship without kill coverage. `Done` is the terminal
/// no-op state; it needs no kill cell but must still be mapped if the
/// axis matches on it.
pub fn lint_elastic_steps() -> Vec<String> {
    let mut v = Vec::new();
    let Some(core_src) = read_source(&mut v, "crates/core/src/elastic.rs") else {
        return v;
    };
    let Some(axis_src) = read_source(&mut v, "crates/chaos/src/elastic_axis.rs") else {
        return v;
    };
    let Some(decl) = core_src
        .split("pub enum ElasticStep {")
        .nth(1)
        .and_then(|rest| rest.split('}').next())
    else {
        v.push("cannot find `pub enum ElasticStep` in core/elastic.rs".into());
        return v;
    };
    let variants: Vec<&str> = decl
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .filter_map(|l| l.strip_suffix(','))
        .map(|l| l.split('(').next().unwrap_or(l))
        .collect();
    if variants.is_empty() {
        v.push("ElasticStep declares no variants?".into());
    }
    for var in &variants {
        if *var == "Done" {
            // Terminal state: nothing left to kill at its boundary.
            continue;
        }
        let qualified = format!("ElasticStep::{var}");
        if !axis_src.contains(qualified.as_str()) {
            v.push(format!(
                "migrator step {qualified} has no kill coverage in chaos/src/elastic_axis.rs"
            ));
        }
    }
    v
}

/// Counts `.settle().await` occurrences per enclosing `fn` in client
/// source. Line-based: a line declaring `fn name(` switches the current
/// function; comment lines are skipped.
fn settle_sites_per_fn(src: &str) -> Vec<(String, usize)> {
    let mut counts: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    let mut cur: Option<String> = None;
    for line in src.lines() {
        let mut t = line.trim_start();
        if t.starts_with("//") {
            continue;
        }
        for prefix in ["pub(crate) ", "pub(super) ", "pub ", "async "] {
            t = t.strip_prefix(prefix).unwrap_or(t);
        }
        if let Some(rest) = t.strip_prefix("fn ") {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                cur = Some(name);
            }
        }
        if line.contains(".settle().await") {
            let name = cur.clone().unwrap_or_else(|| "<toplevel>".to_string());
            *counts.entry(name).or_insert(0) += 1;
        }
    }
    counts.into_iter().collect()
}

/// Checks a `(function, settle_sites)` inventory against the real
/// `.settle().await` sites of the async client — every `.rs` file under
/// `crates/core/src/client/` — and reports every drift: a function
/// missing from the inventory, listed but gone, or whose exact site count
/// differs. The scanner behind the model checker's `check_step_table`,
/// which `cargo test` and `chaos explore --ci` run.
pub fn check_settle_table<'a>(table: impl IntoIterator<Item = (&'a str, usize)>) -> Vec<String> {
    let mut v = Vec::new();
    let mut actual: Vec<(String, usize, String)> = Vec::new();
    for (rel, src) in read_sources(&mut v, CLIENT_DIR) {
        for (name, sites) in settle_sites_per_fn(&src) {
            // Rows are keyed by bare function name: it must name one place.
            if let Some((_, _, other)) = actual.iter().find(|(n, _, _)| *n == name) {
                v.push(format!(
                    "`{name}` suspends in both {other} and {rel}; STEP_TABLE keys rows by function name"
                ));
            }
            actual.push((name, sites, rel.clone()));
        }
    }
    let table: Vec<(&str, usize)> = table.into_iter().collect();
    for (name, sites, rel) in &actual {
        match table.iter().find(|(n, _)| n == name) {
            None => v.push(format!(
                "`{name}` ({rel}) has {sites} .settle().await site(s) but no STEP_TABLE row"
            )),
            Some((_, listed)) if listed != sites => v.push(format!(
                "`{name}` ({rel}) has {sites} .settle().await site(s) but STEP_TABLE lists {listed}"
            )),
            Some(_) => {}
        }
    }
    for (name, listed) in &table {
        if !actual.iter().any(|(n, _, _)| n == name) {
            v.push(format!(
                "STEP_TABLE lists `{name}` ({listed} sites) but {CLIENT_DIR} has no such suspension point"
            ));
        }
    }
    v
}

/// The only places non-test code of [`THREAD_FREE_DIRS`] may start a
/// thread: `(file, pattern, occurrences)`.
const THREAD_SITES: &[(&str, &str, usize)] = &[
    // The optional auto-checkpoint loop.
    ("crates/core/src/store.rs", "thread::spawn", 1),
];

/// The directories [`lint_thread_free`] walks.
const THREAD_FREE_DIRS: &[&str] = &[
    "crates/core/src",
    CLIENT_DIR,
    "crates/rdma/src",
    "crates/engines/src",
    "crates/bench/src",
    "crates/bench/src/bin",
    "crates/bench/src/figs",
];

/// The lines outside comments in the non-test part of `src` (everything
/// before its `#[cfg(test)]` module).
fn code_lines(src: &str) -> impl Iterator<Item = &str> {
    let code = src.split("#[cfg(test)]").next().unwrap_or(src);
    code.lines().filter(|l| !l.trim_start().starts_with("//"))
}

/// Thread-starting calls in [`code_lines`] of `src`, as `(pattern, count)`.
fn thread_starts(src: &str) -> Vec<(&'static str, usize)> {
    ["thread::spawn", "thread::scope", "thread::Builder"]
        .into_iter()
        .map(|pat| {
            let n = code_lines(src).map(|l| l.matches(pat).count()).sum();
            (pat, n)
        })
        .filter(|&(_, n)| n != 0)
        .collect()
}

/// Source lint: the store, the fabric, the replication engines and the
/// bench harness stay thread-free. MN servers are caller-runs endpoints
/// (`aceso_rdma::rpc`), so what a store does is a function of its
/// driver's schedule; a `thread::spawn` creeping back into
/// `crates/core/src` or `crates/rdma/src` would make cast delivery, chaos
/// reports and host timings depend on the OS scheduler again, and one in
/// `crates/engines/src` or `crates/bench/src` would do the same to every
/// figure (`bench fig` output is a pure function of the seed). Only the
/// sites in `THREAD_SITES` are allowed.
pub fn lint_thread_free() -> Vec<String> {
    let mut v = Vec::new();
    for dir in THREAD_FREE_DIRS {
        for (rel, src) in read_sources(&mut v, dir) {
            for (pat, n) in thread_starts(&src) {
                let allowed = THREAD_SITES
                    .iter()
                    .find(|(f, p, _)| *f == rel && *p == pat)
                    .map_or(0, |s| s.2);
                if n > allowed {
                    v.push(format!(
                        "{rel} starts threads: {n} x `{pat}` in non-test code, {allowed} allowed \
                         (MN servers run on the caller's thread; see aceso_rdma::rpc)"
                    ));
                }
            }
        }
    }
    v
}

/// The only std hash containers non-test code of [`HASH_DIRS`] may name:
/// `(file, occurrences of HashMap / HashSet in its code lines, reason)`.
/// Each is lookup-only, or iterated only where the order cannot reach
/// behaviour; every other map or set is a `BTreeMap` / `BTreeSet`.
const HASH_SITES: &[(&str, usize, &str)] = &[
    (
        "crates/core/src/cache.rs",
        3,
        "`map`: key -> ring position, fixed hasher, lookup-only; the ring carries every order",
    ),
    (
        "crates/core/src/recovery.rs",
        6,
        "`rank_of`: lookup by cell; `key_at`: lookup by address; `cells`: read-through by cell, \
         then iterated into `Scan`, whose winner does not depend on arrival order \
         (pinned by scan_winner_does_not_depend_on_arrival_order)",
    ),
    (
        "crates/core/src/server.rs",
        3,
        "`old_copies`: get / insert / remove by block; nothing iterates it",
    ),
    (
        "crates/core/src/stripe.rs",
        3,
        "`parity`: built once per book, looked up by (array, parity row, parity col), never iterated",
    ),
    (
        "crates/engines/src/substrate.rs",
        5,
        "`open`, `free`: get / insert / remove by (primary column, size class), never iterated",
    ),
];

/// The directories [`lint_hash_containers`] walks: the store, the fabric,
/// the replication engines and the kernels under them.
const HASH_DIRS: &[&str] = &[
    "crates/core/src",
    CLIENT_DIR,
    "crates/engines/src",
    "crates/rdma/src",
    "crates/index/src",
    "crates/blockalloc/src",
    "crates/erasure/src",
];

/// Judges `(workspace-relative path, source)` pairs against [`HASH_SITES`]:
/// a file whose [`code_lines`] name `HashMap` / `HashSet` a different
/// number of times than its row allows (0 without a row) is reported.
fn check_hash_sites(files: impl IntoIterator<Item = (String, String)>) -> Vec<String> {
    let mut v = Vec::new();
    for (rel, src) in files {
        let n: usize = code_lines(&src)
            .map(|l| l.matches("HashMap").count() + l.matches("HashSet").count())
            .sum();
        let allowed = HASH_SITES.iter().find(|s| s.0 == rel).map_or(0, |s| s.1);
        if n != allowed {
            v.push(format!(
                "{rel} names a std hash container {n} x in non-test code, HASH_SITES allows \
                 {allowed} (iteration order follows hasher state: allow-list a lookup-only \
                 site with its reason, or use a BTreeMap)"
            ));
        }
    }
    v
}

/// Source lint: no `HashMap` / `HashSet` order reaches behaviour. Twice a
/// hash container's per-process iteration order leaked into what the store
/// does (the client's block maps, a server's list of Meta Area replicas),
/// and pinned baselines catch that only when one process's seed happens to
/// expose it; so in the store, the fabric, the engines and the kernels
/// every std hash container is a `HASH_SITES` row with a reason, and a new
/// one fails `cargo test` and `chaos analyze --ci` until it has one or
/// becomes a `BTreeMap`.
pub fn lint_hash_containers() -> Vec<String> {
    let mut v = Vec::new();
    let files: Vec<_> = HASH_DIRS
        .iter()
        .flat_map(|d| read_sources(&mut v, d))
        .collect();
    v.extend(check_hash_sites(files));
    v
}

/// Runs every lint; empty result = the protocol invariants hold.
pub fn run_all() -> Vec<String> {
    let mut v = Vec::new();
    v.extend(lint_index_layout());
    v.extend(lint_fusee_geometry());
    v.extend(lint_blockalloc_layout());
    v.extend(lint_memory_maps());
    v.extend(lint_pack48());
    v.extend(lint_crash_points());
    v.extend(lint_elastic_steps());
    v.extend(lint_thread_free());
    v.extend(lint_hash_containers());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_layout_is_consistent() {
        assert_eq!(lint_index_layout(), Vec::<String>::new());
    }

    #[test]
    fn fusee_geometry_matches_index() {
        assert_eq!(lint_fusee_geometry(), Vec::<String>::new());
    }

    #[test]
    fn blockalloc_layout_is_consistent() {
        assert_eq!(lint_blockalloc_layout(), Vec::<String>::new());
    }

    #[test]
    fn memory_maps_do_not_overlap() {
        assert_eq!(lint_memory_maps(), Vec::<String>::new());
    }

    #[test]
    fn pack48_roundtrips_block_offsets() {
        assert_eq!(lint_pack48(), Vec::<String>::new());
    }

    #[test]
    fn crash_points_are_wired() {
        assert_eq!(lint_crash_points(), Vec::<String>::new());
    }

    #[test]
    fn elastic_steps_are_covered() {
        assert_eq!(lint_elastic_steps(), Vec::<String>::new());
    }

    #[test]
    fn store_and_fabric_start_no_threads() {
        assert_eq!(lint_thread_free(), Vec::<String>::new());
    }

    #[test]
    fn hash_containers_are_allow_listed() {
        assert_eq!(lint_hash_containers(), Vec::<String>::new());
    }

    /// An unlisted container is reported; comments and the test module do
    /// not count, and a listed file passes at exactly its row's count.
    #[test]
    fn hash_scanner_reports_an_unlisted_container() {
        let fixture = "// a HashMap in a comment\n\
                       use std::collections::HashMap;\n\
                       struct S { m: HashMap<u64, u64> }\n\
                       #[cfg(test)]\n\
                       mod tests { fn t() { let _ = std::collections::HashSet::<u8>::new(); } }\n";
        let found = check_hash_sites([("crates/core/src/fixture.rs".to_string(), fixture.into())]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].contains("fixture.rs names a std hash container 2 x"),
            "{found:?}"
        );
        let (rel, n, _) = HASH_SITES[0];
        let listed = "use std::collections::HashMap;\n".repeat(n);
        assert_eq!(
            check_hash_sites([(rel.to_string(), listed)]),
            Vec::<String>::new()
        );
    }

    /// The thread scanner skips comments and the test module.
    #[test]
    fn thread_scanner_reads_non_test_code_only() {
        let src = "// std::thread::spawn in a comment\n\
                   fn a() { std::thread::spawn(|| ()); thread::scope(|_| ()); }\n\
                   #[cfg(test)]\n\
                   mod tests { fn b() { std::thread::spawn(|| ()); } }\n";
        assert_eq!(
            thread_starts(src),
            vec![("thread::spawn", 1), ("thread::scope", 1)]
        );
    }

    /// The settle scanner attributes sites to the enclosing fn.
    #[test]
    fn settle_scanner_attributes_sites() {
        let src = "pub(crate) async fn alpha(&self) {\n\
                   \x20   self.dm.settle().await?;\n\
                   }\n\
                   fn beta() {}\n\
                   // a comment naming .settle().await is not a site\n\
                   pub(super) async fn gamma(&self) {\n\
                   \x20   a.settle().await;\n\
                   \x20   b.settle().await;\n\
                   }\n";
        assert_eq!(
            settle_sites_per_fn(src),
            vec![("alpha".to_string(), 1), ("gamma".to_string(), 2)]
        );
    }
}
