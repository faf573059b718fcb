//! Small-scope scenarios: the bounded checker's workloads.
//!
//! Each scenario is 2–3 scripted coroutine clients over 2–3 keys on a
//! tiny store geometry — small enough that the explorer can enumerate
//! every interleaving (to its depth bound) and crash every scheduling
//! point, large enough to cross the protocol's interesting windows
//! (commit CAS races, out-of-place writes, delete tombstones, version
//! rollover).

use aceso_core::{AcesoConfig, ModelMutation};
use std::sync::OnceLock;

/// One scripted client operation over a scenario key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScriptOp {
    /// INSERT the key (fresh value).
    Insert(usize),
    /// UPDATE the key (fresh value).
    Update(usize),
    /// SEARCH the key.
    Search(usize),
    /// DELETE the key.
    Delete(usize),
}

impl ScriptOp {
    /// The scenario key the op touches.
    pub fn key(&self) -> usize {
        match self {
            ScriptOp::Insert(k)
            | ScriptOp::Update(k)
            | ScriptOp::Search(k)
            | ScriptOp::Delete(k) => *k,
        }
    }
}

/// One bounded-exploration workload.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable name (report key).
    pub name: &'static str,
    /// Per-client op scripts (client 0 = task A, 1 = B, …).
    pub clients: Vec<Vec<ScriptOp>>,
    /// Keys preloaded before exploration (by key id); others start absent.
    pub preload: Vec<usize>,
    /// Extra blocking UPDATEs on key 0 before exploration — drives the
    /// slot version toward the 0xFF rollover so explored updates take the
    /// epoch-lock path.
    pub warmup_updates: usize,
    /// Protocol mutation injected into every scripted client (`None` for
    /// baseline scenarios, which must explore clean).
    pub mutation: Option<ModelMutation>,
    /// Whether the post-recovery lock-liveness probe client also carries
    /// the mutation (a mutation models a code bug, which every client in
    /// the fleet would share).
    pub probe_mutation: bool,
    /// Scheduling-choice depth bound: interleavings are enumerated
    /// exhaustively up to this many choices, then drained deterministically.
    pub depth: usize,
    /// Hard cap on executions (a wedged exploration fails loudly instead
    /// of burning the CI budget).
    pub max_executions: usize,
}

/// Scenario keys 3 and 4 are *twins*: one fingerprint, one index column
/// and one first bucket group under [`model_config`], so each is a
/// fingerprint candidate in the other's bucket scan — the collision only
/// a KV identity read can tell apart.
pub const TWINS: [usize; 2] = [3, 4];

/// The first colliding pair among `mc-t0`, `mc-t1`, ….
fn twin_keys() -> &'static (Vec<u8>, Vec<u8>) {
    static KEYS: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    KEYS.get_or_init(|| {
        let cfg = model_config();
        let candidates = (0u32..).map(|i| format!("mc-t{i}").into_bytes());
        (cfg.memory_map().index)
            .first_twins(cfg.num_mns as u64, None, candidates)
            .expect("the key space is unbounded")
    })
}

/// The byte name of scenario key `k`.
pub fn key_bytes(k: usize) -> Vec<u8> {
    let (first, second) = twin_keys();
    match TWINS.iter().position(|&t| t == k) {
        Some(0) => first.clone(),
        Some(_) => second.clone(),
        None => format!("mc-k{k}").into_bytes(),
    }
}

/// Human label of scenario key `k`.
pub fn key_name(k: usize) -> String {
    String::from_utf8_lossy(&key_bytes(k)).into_owned()
}

/// Client letter for reports (task 0 = "A").
pub fn client_letter(task: usize) -> char {
    (b'A' + task as u8) as char
}

/// The tiny store geometry every exploration run launches. Smallest
/// legal shape: 3 memory nodes (XCode needs a prime ≥ 3), two block
/// arrays, a handful of delta slots.
pub fn model_config() -> AcesoConfig {
    AcesoConfig {
        num_mns: 3,
        block_size: 4 << 10,
        num_arrays: 2,
        num_delta: 8,
        index_groups: 32,
        bitmap_flush_every: 8,
        elastic_groups: 2,
        ..AcesoConfig::small()
    }
}

/// Baseline scenarios: every interleaving and every crash must satisfy
/// every oracle.
pub fn baseline_scenarios() -> Vec<Scenario> {
    vec![
        // Two writers race their commit CAS on one key: the loser must
        // retry, never clobber.
        Scenario {
            name: "upd-upd",
            clients: vec![vec![ScriptOp::Update(0)], vec![ScriptOp::Update(0)]],
            preload: vec![0, 1],
            warmup_updates: 0,
            mutation: None,
            probe_mutation: false,
            depth: 6,
            max_executions: 1200,
        },
        // Writer vs reader on the same key, reader also covers a quiet
        // key: reads must see pre- or post-state, never a torn value.
        Scenario {
            name: "upd-srch",
            clients: vec![
                vec![ScriptOp::Update(0)],
                vec![ScriptOp::Search(0), ScriptOp::Search(1)],
            ],
            preload: vec![0, 1],
            warmup_updates: 0,
            mutation: None,
            probe_mutation: false,
            depth: 6,
            max_executions: 1200,
        },
        // Insert of a fresh key races a delete of an existing one:
        // allocation vs tombstone paths.
        Scenario {
            name: "ins-del",
            clients: vec![vec![ScriptOp::Insert(2)], vec![ScriptOp::Delete(0)]],
            preload: vec![0, 1],
            warmup_updates: 0,
            mutation: None,
            probe_mutation: false,
            depth: 6,
            max_executions: 1200,
        },
    ]
}

/// Mutation self-tests: each weakens one protocol edge; the explorer must
/// find a violation (and minimize it) or the checker is dead.
pub fn mutation_scenarios() -> Vec<Scenario> {
    vec![
        // Pretend the commit CAS landed without issuing it: the update is
        // acknowledged but the index still points at the old KV — the
        // verifier read contradicts the ack with no crash needed.
        Scenario {
            name: "mut-skip-commit-cas",
            clients: vec![vec![ScriptOp::Update(0)], vec![ScriptOp::Search(0)]],
            preload: vec![0, 1],
            warmup_updates: 0,
            mutation: Some(ModelMutation::SkipCommitCas),
            probe_mutation: false,
            depth: 4,
            max_executions: 1200,
        },
        // Defer the delta writes past the commit CAS: a crash in the
        // window leaves a committed slot whose deltas were never written,
        // so CN recovery cannot reconstruct a consistent image and the
        // key is lost — a verifier read of "absent" that no write in the
        // history explains.
        Scenario {
            name: "mut-reorder-delta",
            clients: vec![vec![ScriptOp::Update(0)], vec![ScriptOp::Search(0)]],
            preload: vec![0, 1],
            warmup_updates: 0,
            mutation: Some(ModelMutation::ReorderDeltaPastCommit),
            probe_mutation: false,
            depth: 16,
            max_executions: 2500,
        },
        // Never break an abandoned epoch lock: crash the writer inside
        // the version-rollover critical section and the post-recovery
        // probe update wedges forever.
        Scenario {
            name: "mut-skip-lock-break",
            clients: vec![vec![ScriptOp::Update(0)], vec![ScriptOp::Search(1)]],
            preload: vec![0, 1],
            warmup_updates: 254,
            mutation: Some(ModelMutation::SkipLockBreak),
            probe_mutation: true,
            depth: 14,
            max_executions: 2500,
        },
        // Commit on a lone fingerprint candidate without judging the KV
        // identity read that rode in the write batch: a cold update of an
        // absent key lands on its twin's slot and the twin — preloaded,
        // never deleted — reads back absent.
        Scenario {
            name: "mut-skip-identity-judge",
            clients: vec![
                vec![ScriptOp::Update(TWINS[1])],
                vec![ScriptOp::Search(TWINS[0])],
            ],
            preload: vec![0, 1, TWINS[0]],
            warmup_updates: 0,
            mutation: Some(ModelMutation::SkipIdentityJudge),
            probe_mutation: false,
            depth: 4,
            max_executions: 1200,
        },
    ]
}
