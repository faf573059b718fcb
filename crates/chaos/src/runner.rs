//! The crash-matrix cell script: one [`Cell`] against a live store.
//!
//! Every cell runs the same script: launch a store, preload it
//! (optionally ageing it into a reclamation-relevant state), arm the
//! cell's injection and kill, run the operation, drive tiered recovery,
//! then judge the store with [`crate::axis::Script::judge`]. The
//! injected key may be in either its pre-op or intended post-op state;
//! it is always probed for meta-lock liveness.

use crate::axis::{fail_fast, fmt_key, gen_value, take_ms, Ctx, Out, Script, Sink};
use crate::cell::{Cell, InjectionSite, KillTiming, OpType, ReclaimState};
use crate::invariants::{preload, Armed, Fold, Op};
use crate::sweep::Sweep;
use aceso_core::client::CrashPoint;
use aceso_core::config::unpack_col;
use aceso_core::{AcesoStore, FtError, RecoveryTier};
use aceso_index::{fingerprint, route_hash, RemoteIndex};
use aceso_rdma::{FaultAction, FaultPlan, FaultRule};
use rand::Rng;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock breakdown of one cell run, summed by the sweep summary so
/// slow invariant checks are visible without profiling.
#[derive(Clone, Copy, Default)]
pub struct CellPhases {
    /// Store launch, preload, and optional ageing.
    pub setup_ms: f64,
    /// The two checkpoint rounds.
    pub ckpt_ms: f64,
    /// Arming + running the operation (includes a pre-op kill/recovery
    /// when the cell's kill timing asks for one).
    pub op_ms: f64,
    /// Post-crash tiered recovery (CN consistency, then MN tiers).
    pub recovery_ms: f64,
    /// [`crate::axis::Script::judge`]'s time: the oracle sweep, the
    /// probes, and the engine's check (classes 2–5 of
    /// [`crate::invariants::INVARIANT_CLASSES`]).
    pub invariants_ms: [f64; 3],
}

/// Wall-clock is never evidence that two runs diverged.
impl PartialEq for CellPhases {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for CellPhases {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let judge: f64 = self.invariants_ms.iter().sum();
        write!(
            f,
            "setup {:.1} + ckpt {:.1} + op {:.1} + recovery {:.1} + judge {judge:.1} ms",
            self.setup_ms, self.ckpt_ms, self.op_ms, self.recovery_ms
        )
    }
}

/// What a crash-matrix cell observes besides its violations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepFacts {
    /// Whether the armed injection actually fired.
    pub injection_fired: bool,
    /// Whether the home MN actually died.
    pub mn_killed: bool,
    /// Whether the client crashed (or was written off as blocked) mid-op.
    pub client_crashed: bool,
    /// Commit retries of the op, if it ran to completion.
    pub op_retries: u32,
    /// Where the cell's wall-clock went.
    pub phases: CellPhases,
}

fn numbered(
    prefix: &'static str,
    js: impl Iterator<Item = usize>,
) -> impl Iterator<Item = Vec<u8>> {
    js.map(move |j| format!("{prefix}-{j:03}").into_bytes())
}

/// Two keys with equal fingerprint, equal home column, and equal primary
/// bucket group ([`aceso_index::IndexLayout::first_twins`]), so a SEARCH of
/// the second must step past the first's slot in the candidate scan (a
/// true fp collision, not a synthetic one). Coordinates already taken by
/// preload keys are skipped, leaving the shared bucket holding exactly the
/// two twins.
fn collision_twins(store: &Arc<AcesoStore>) -> Result<(Vec<u8>, Vec<u8>), String> {
    let preload = numbered("key", 0..36).chain(numbered("aged", 0..12));
    let candidates = (0..100_000u32).map(|i| format!("twin-{i:05}").into_bytes());
    let n = store.cfg.num_mns as u64;
    (store.map.index.first_twins(n, preload, candidates))
        .ok_or_else(|| "no colliding twin pair in 100k candidates".into())
}

/// Column holding the KV block of `key`, taken from the first fingerprint
/// match in its buckets. For the earlier twin that is the twin itself
/// (the pair excludes preload coordinates and it is inserted first); for a
/// preload key a colliding neighbour in front of it would only mis-aim
/// the kill, not unsettle the cell.
fn kv_col(store: &Arc<AcesoStore>, key: &[u8]) -> Result<usize, String> {
    let col = (route_hash(key) % store.cfg.num_mns as u64) as usize;
    let index = RemoteIndex::new(store.directory().node_of(col), store.map.index);
    let dm = store.cluster.background_client();
    let scan = index.scan(&dm, key, fingerprint(key)).ctx("kv scan")?;
    let slot = scan.matches.first().ok_or("slot missing from index")?;
    Ok(unpack_col(slot.atomic.addr48).0)
}

/// The script. The runner marks its phase boundaries (preload done,
/// checkpoints done, crash quiesced, recovery done, pre-scrub) with
/// [`aceso_rdma::Cluster::trace_barrier`] — the membership-service
/// quiescence points Aceso's recovery protocol (§3.4) relies on. Barriers
/// are no-ops when no sink is installed.
#[allow(clippy::too_many_lines)]
pub(crate) fn run(cell: Cell, seed: u64, sink: Sink, out: &mut Out<Sweep>) -> Result<(), String> {
    let mut clock = Instant::now();
    let mut s = Script::launch(seed, sink)?;
    let store = Arc::clone(s.eng.store());
    let n = store.cfg.num_mns;
    let mut client = store.client_with(fail_fast()).ctx("client")?;

    // ---- Preload ---------------------------------------------------------
    let (oracle, rng) = (&mut s.oracle, &mut s.rng);
    match cell.reclaim {
        ReclaimState::Fresh => preload(&mut client, oracle, rng, numbered("key", 0..24))?,
        ReclaimState::Aged => {
            preload(&mut client, oracle, rng, numbered("key", 0..36))?;
            client.close_open_blocks().ctx("preload close")?;
            for k in numbered("key", (0..36).step_by(3)) {
                client
                    .delete(&k)
                    .ctx(&format!("preload delete {}", fmt_key(&k)))?;
                oracle.commit(&k, None);
            }
            client.flush_bitmaps().ctx("preload flush")?;
            preload(&mut client, oracle, rng, numbered("aged", 0..12))?;
        }
    }
    // Colliding-fingerprint cells plant the twin pair from a throwaway
    // client, so the op client runs cache-cold and must walk the candidate
    // scan past the earlier twin instead of short-circuiting on its cache.
    let twins = if cell.op == OpType::SearchCollide {
        let (a, b) = collision_twins(&store)?;
        let mut planter = store.client().ctx("planter")?;
        preload(&mut planter, oracle, rng, [a.clone(), b.clone()])?;
        // Close (= erasure-code) every open block before the checkpoint
        // rounds: the index-tier-only window loses closed, checkpointed
        // blocks, while open blocks — and every closed block sharing a
        // stripe array with one — are reconstructed during the Index
        // tier, which would leave nothing degraded to read.
        planter.close_open_blocks().ctx("plant close")?;
        client.close_open_blocks().ctx("preload close")?;
        Some((a, b))
    } else {
        None
    };
    if cell.op == OpType::UpdateCold {
        // Closed for the same reason, then the op client is swapped for
        // one that has seen nothing: empty index cache, no open block.
        client.close_open_blocks().ctx("preload close")?;
        client = store.client_with(fail_fast()).ctx("cold client")?;
    }
    out.facts.phases.setup_ms = take_ms(&mut clock);

    s.checkpoint()?;
    out.facts.phases.ckpt_ms = take_ms(&mut clock);
    let (oracle, rng) = (&mut s.oracle, &mut s.rng);

    // ---- Arm the cell ----------------------------------------------------
    let op_key: Vec<u8> = match (cell.op, &twins) {
        (OpType::Insert, _) => b"probe-new".to_vec(),
        (OpType::SearchCollide, Some((_, b))) => b.clone(),
        _ => {
            let keys: Vec<&Vec<u8>> = oracle.state.keys().collect();
            keys[rng.gen_range(0..keys.len())].clone()
        }
    };
    let new_val = gen_value(rng, b'N');
    // The kill axis normally aims at the op key's home column; for the
    // collision cells it aims at the column holding the *earlier* twin's
    // KV block, so degraded kills turn that candidate into a
    // reconstructed read that must classify as a collision, not a
    // tombstone; for the cold-update cells at the column holding the op
    // key's own KV block, so they make the batch's identity read
    // unreadable.
    let home_col = match &twins {
        Some((a, _)) => kv_col(&store, a)?,
        None if cell.op == OpType::UpdateCold => kv_col(&store, &op_key)?,
        None => (route_hash(&op_key) % n as u64) as usize,
    };
    let home_node = store.directory().node_of(home_col);

    // `BeforeOp` recovers the column in full; `BeforeOpDegraded` holds the
    // recovery between its Index and Block tiers: the op runs degraded,
    // with old blocks still lost.
    let mut held = None;
    if matches!(
        cell.kill,
        KillTiming::BeforeOp | KillTiming::BeforeOpDegraded
    ) {
        if !store.kill_mn(home_col) {
            out.violations
                .push("kill_mn reported node already dead".into());
        }
        out.facts.mn_killed = true;
        let mut recovery = store.begin_recovery(home_col).ctx("recover_mn(pre)")?;
        if cell.kill == KillTiming::BeforeOp {
            recovery.run().ctx("recover_mn(pre)")?;
        } else {
            recovery
                .run_to(RecoveryTier::Block)
                .ctx("recover_mn(pre)")?;
            held = Some(recovery);
        }
    }
    store.cluster.trace_barrier();

    let mut rules = Vec::new();
    if let InjectionSite::Verb { kind, skip } = cell.site {
        rules.push(FaultRule::new(FaultAction::Fail).on_kind(kind).after(skip));
    }
    if let KillTiming::AtVerb { skip } = cell.kill {
        rules.push(
            FaultRule::new(FaultAction::KillNode)
                .on_node(home_node)
                .after(skip),
        );
    }
    let plan = FaultPlan::with_rules(rules);
    client.dm.install_fault_plan(Arc::clone(&plan));
    if let InjectionSite::Client(cp) = cell.site {
        client.crash_point = Some(cp);
    }

    // ---- Run the operation -----------------------------------------------
    // WhileMetaLocked only triggers on a slot-version rollover, so those
    // cells repeat the mutation until the version wraps and the crash
    // fires (a SEARCH never takes the lock and legitimately survives).
    let needs_rollover = cell.site == InjectionSite::Client(CrashPoint::WhileMetaLocked)
        && !matches!(cell.op, OpType::Search | OpType::SearchCollide);
    let attempts = if needs_rollover { 300 } else { 1 };
    // A crash is always the cell's to cause; a dead node only when it
    // plans a kill.
    let armed = match cell.kill {
        KillTiming::None => Armed::Crash,
        _ => Armed::Both,
    };
    let mut cut = None;
    for _ in 0..attempts {
        let write = |res: Result<(), _>| (res.map(|()| None), Op::Write(Some(new_val.clone())));
        let (res, op) = match cell.op {
            OpType::Insert => write(client.insert(&op_key, &new_val)),
            OpType::Update | OpType::UpdateCold => write(client.update(&op_key, &new_val)),
            // Alternate with re-inserts so every delete has a live target
            // while the version climbs toward rollover.
            OpType::Delete if needs_rollover && oracle.get(&op_key).is_none() => {
                write(client.insert(&op_key, &new_val))
            }
            OpType::Delete => (client.delete(&op_key).map(|_| None), Op::Write(None)),
            OpType::Search | OpType::SearchCollide => {
                (client.search(&op_key), Op::Read("search mismatch"))
            }
        };
        match oracle.fold(&op_key, op, res, armed, &mut out.violations) {
            Fold::Done => {
                let ops = client.dm.take_ops();
                out.facts.op_retries = ops.records.last().map_or(0, |r| r.retries);
            }
            Fold::Cut(e) => {
                cut = Some(e);
                break;
            }
            Fold::Unexpected => break,
        }
    }

    let fired = |action| plan.fired().iter().any(|f| f.action == action);
    let kill_fired_at_verb = fired(FaultAction::KillNode);
    out.facts.client_crashed = cut.is_some();
    out.facts.mn_killed |= kill_fired_at_verb;
    out.facts.injection_fired = match cell.site {
        InjectionSite::None => false,
        InjectionSite::Client(_) => matches!(cut, Some(FtError::Crashed(_))),
        InjectionSite::Verb { .. } => fired(FaultAction::Fail),
    };
    // An op speculates on an unverified candidate at most once. Where no
    // fault can strike mid-op, a cold UPDATE's only legitimate retry is
    // that one refuted speculation (the identity read of a degraded cell);
    // a second would mean it is re-posted against a column that cannot
    // answer it.
    let quiet = cell.site == InjectionSite::None && !matches!(cell.kill, KillTiming::AtVerb { .. });
    if cell.op == OpType::UpdateCold && quiet && out.facts.op_retries > 1 {
        out.violations.push(format!(
            "cold update retried {} times with no fault mid-op: speculated more than once",
            out.facts.op_retries
        ));
    }
    out.facts.phases.op_ms = take_ms(&mut clock);

    // ---- Tiered recovery (§3.4: CN consistency first, then MN) -----------
    // The crash is quiesced before recovery begins (the membership service
    // fences the failed epoch), and recovery completes before the sweep:
    // both are barrier edges in the verb trace.
    let crashed = cut.map(|_| client.id());
    drop(client);
    s.recover(crashed.as_slice())?;
    if let Some(mut recovery) = held {
        // The op ran against an index-only replacement; finish the Block
        // and Parity tiers so the parity invariant is checkable.
        recovery.run().ctx("recover_mn(block tier)")?;
        store.cluster.trace_barrier();
    }
    out.facts.phases.recovery_ms = take_ms(&mut clock);

    // ---- Invariants ------------------------------------------------------
    let absent: [&[u8]; 2] = [&op_key, b"never-inserted-key"];
    let probes = std::slice::from_ref(&op_key);
    out.facts.phases.invariants_ms = s.judge(&absent, probes, &mut out.violations)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::axis::{find_cell, run_cell, Out};
    use crate::sweep::Sweep;

    fn run(id: &str, seed: u64) -> Out<Sweep> {
        let out = run_cell::<Sweep>(find_cell::<Sweep>(id).expect(id), seed, None);
        assert!(out.ok(), "{id}: {:?}", out.violations);
        out
    }

    #[test]
    fn quiet_cell_passes() {
        let out = run("update/none/none/fresh", 11);
        assert!(!out.facts.injection_fired);
        assert!(!out.facts.mn_killed);
        assert!(!out.facts.client_crashed);
    }

    #[test]
    fn verb_fault_crashes_client_and_recovers() {
        let out = run("update/verb-write-0/none/fresh", 12);
        assert!(out.facts.injection_fired);
        assert!(out.facts.client_crashed);
    }

    /// The degraded colliding-fingerprint cell (§3.4.1): the earlier
    /// twin's block is lost (index-tier-only recovery), so its candidate
    /// is read via reconstruction and must classify as a collision the
    /// scan steps past — misreading it as a tombstone made the later
    /// twin's SEARCH return "absent".
    #[test]
    fn degraded_collision_cell_passes() {
        assert!(run("search-collide/none/degraded/fresh", 5).facts.mn_killed);
    }

    /// The same twin pair with the column healthy: the collision is
    /// classified off the direct read path.
    #[test]
    fn healthy_collision_cell_passes() {
        assert!(!run("search-collide/none/none/aged", 6).facts.mn_killed);
    }

    /// The degraded cold-update cell: the key's KV block is lost, so the
    /// identity read in the speculative batch comes back unwritten — one
    /// refuted speculation, then the verified path commits. Healthy, the
    /// same op commits on its first try.
    #[test]
    fn cold_update_cells_speculate_at_most_once() {
        let degraded = run("update-cold/none/degraded/fresh", 7);
        assert!(degraded.facts.mn_killed && !degraded.facts.client_crashed);
        assert_eq!(degraded.facts.op_retries, 1);
        assert_eq!(run("update-cold/none/none/fresh", 7).facts.op_retries, 0);
    }
}
