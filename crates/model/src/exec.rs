//! One deterministic execution of a scenario under an explicit schedule
//! prefix, an optional crash at the frontier, and full recovery + oracle
//! checking.
//!
//! The explorer is *stateless*: it never snapshots the store. Each tree
//! node costs one fresh execution — launch the tiny store, replay the
//! schedule prefix by delivering tagged completions in the requested
//! order, then either crash at the frontier or drain deterministically.
//! Every execution ends with the full oracle stack: linearizability of
//! the recorded history ([`crate::wgl`]), a lock-liveness probe, Index
//! Version monotonicity, a parity scrub and Meta Area replica agreement.
//!
//! Replay is exact because the whole run phase is single-threaded: the
//! only sources of scheduling freedom are the completion deliveries the
//! explorer itself chooses, so `(scenario, seed, prefix, crash)` names
//! one execution.

use crate::scenario::{client_letter, key_bytes, key_name, model_config, Scenario, ScriptOp};
use crate::wgl::{check_key, render_history, KeyOp, KeyOpKind};
use aceso_core::{parity_scrub, replica_agreement, AcesoStore, ClientTuning, IvWatch, StoreError};
use aceso_index::route_hash;
use aceso_rdma::{SimCq, TraceEvent, TraceSink};
use aceso_rt::Executor;
use aceso_san::Access;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// What dies at the frontier — the quiescent point right after the last
/// replayed scheduling choice, with every live task suspended at a fabric
/// round trip.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CrashSpec {
    /// Cancel one client task in place: a CN crash with no flush, no
    /// unwind — the future is dropped mid-`await`.
    Cn(usize),
    /// Kill the home memory node of scenario key 0.
    Mn,
    /// Both at once (the paper's mixed-failure case).
    CnAndMn(usize),
}

impl CrashSpec {
    /// Report label.
    pub fn label(&self) -> String {
        match self {
            CrashSpec::Cn(t) => format!("crash-cn({})", client_letter(*t)),
            CrashSpec::Mn => "kill-mn".to_string(),
            CrashSpec::CnAndMn(t) => format!("crash-cn({})+kill-mn", client_letter(*t)),
        }
    }
}

/// What one execution reported back to the explorer.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Trace tags with a pending completion at the frontier, ascending —
    /// the enabled scheduling choices.
    pub enabled: Vec<u32>,
    /// Trace tag → task index, for rendering.
    pub tag_task: BTreeMap<u32, usize>,
    /// Sanitizer footprint of each replayed choice: every verb traced
    /// between its delivery and the next quiescent point.
    pub step_fps: Vec<Vec<Access>>,
    /// Oracle violations (empty = the execution passed).
    pub violations: Vec<String>,
}

impl RunResult {
    /// `true` when every oracle held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Buffers the verb trace so choice footprints can be sliced out of it.
/// The run phase is single-threaded (one executor, servers idle unless
/// RPC'd synchronously), so slice boundaries are deterministic.
#[derive(Default)]
struct FootprintSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl FootprintSink {
    fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    fn slice(&self, range: core::ops::Range<usize>) -> Vec<Access> {
        self.events.lock().unwrap()[range]
            .iter()
            .map(|ev| Access {
                client: ev.client,
                seq: ev.seq,
                op: ev.op,
                node: ev.node.0,
                offset: ev.offset,
                len: ev.len,
            })
            .collect()
    }
}

impl TraceSink for FootprintSink {
    fn record(&self, ev: TraceEvent) {
        self.events.lock().unwrap().push(ev);
    }
}

/// One invocation/response record; reads fill `read` at response time.
struct HistEntry {
    key: usize,
    /// `Some(v)` for writes (`v = None` is a delete); `None` for reads.
    write: Option<Option<Vec<u8>>>,
    /// Observed value, for completed reads.
    read: Option<Option<Vec<u8>>>,
    inv: u64,
    resp: Option<u64>,
    who: String,
}

#[derive(Default)]
struct SharedState {
    stamp: u64,
    hist: Vec<HistEntry>,
    /// Client ids needing CN recovery (cut by a kill).
    crashed: Vec<u32>,
    /// Set once a memory node was killed: fabric errors become expected.
    mn_killed: bool,
    violations: Vec<String>,
}

impl SharedState {
    fn begin(&mut self, key: usize, write: Option<Option<Vec<u8>>>, who: String) -> usize {
        let inv = self.stamp;
        self.stamp += 1;
        self.hist.push(HistEntry {
            key,
            write,
            read: None,
            inv,
            resp: None,
            who,
        });
        self.hist.len() - 1
    }

    fn finish(&mut self, idx: usize, read: Option<Option<Vec<u8>>>) {
        let resp = self.stamp;
        self.stamp += 1;
        self.hist[idx].resp = Some(resp);
        self.hist[idx].read = read;
    }
}

fn pad_val(s: String) -> Vec<u8> {
    format!("{s:-<16}").into_bytes()
}

/// The value a scripted write op carries (unique per op).
fn op_value(task: usize, opno: usize) -> Vec<u8> {
    pad_val(format!("v-{}{opno}", client_letter(task)))
}

/// Runs one execution. `prefix` is a sequence of trace tags: at each
/// quiescent point the pending completion of that tag is delivered (out
/// of deadline order if needed). When the prefix is exhausted the run
/// pauses at the frontier, applies `crash` if any, then drains on the
/// default lowest-deadline policy, recovers, and judges the oracles.
pub fn run(scenario: &Scenario, seed: u64, prefix: &[u32], crash: Option<&CrashSpec>) -> RunResult {
    let mut out = RunResult::default();
    if let Err(e) = run_inner(scenario, seed, prefix, crash, &mut out) {
        out.violations.push(format!("harness: {e}"));
    }
    out
}

fn run_inner(
    scenario: &Scenario,
    seed: u64,
    prefix: &[u32],
    crash: Option<&CrashSpec>,
    out: &mut RunResult,
) -> Result<(), String> {
    let store = AcesoStore::launch(model_config()).map_err(|e| format!("launch: {e}"))?;
    let sink = Arc::new(FootprintSink::default());
    store.cluster.install_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let n = store.cfg.num_mns;
    let victim_col = (route_hash(&key_bytes(0)) % n as u64) as usize;

    // ---- Preload + warmup (blocking, pre-schedule) -----------------------
    let mut initial: BTreeMap<usize, Option<Vec<u8>>> = BTreeMap::new();
    {
        let mut loader = store.client().map_err(|e| format!("loader: {e}"))?;
        for &k in &scenario.preload {
            let v = pad_val(format!("init-k{k}-{seed:x}"));
            loader
                .insert(&key_bytes(k), &v)
                .map_err(|e| format!("preload k{k}: {e}"))?;
            initial.insert(k, Some(v));
        }
        for i in 0..scenario.warmup_updates {
            let v = pad_val(format!("w{i:03}"));
            loader
                .update(&key_bytes(0), &v)
                .map_err(|e| format!("warmup {i}: {e}"))?;
            initial.insert(0, Some(v));
        }
        loader
            .close_open_blocks()
            .map_err(|e| format!("preload close: {e}"))?;
    }
    store.cluster.trace_barrier();
    for _ in 0..2 {
        store.checkpoint_tick().map_err(|e| format!("ckpt: {e}"))?;
    }
    store.cluster.trace_barrier();
    let iv = IvWatch::capture(&store);

    // ---- Spawn the scripted coroutine clients ----------------------------
    let tuning = ClientTuning {
        max_retries: 40,
        index_wait_ms: 5,
        ..ClientTuning::default()
    };
    let shared = Rc::new(RefCell::new(SharedState::default()));
    let cq = Arc::new(SimCq::new());
    let mut exec = Executor::new();
    let mut handles = Vec::new();
    let mut cli_ids = Vec::new();
    for (t, script) in scenario.clients.iter().enumerate() {
        let mut client = store
            .client_with(tuning)
            .map_err(|e| format!("client {t}: {e}"))?;
        client.dm.attach_cq(Arc::clone(&cq));
        client.mutation = scenario.mutation;
        out.tag_task.insert(client.dm.trace_id(), t);
        cli_ids.push(client.id());
        let shared = Rc::clone(&shared);
        let script = script.clone();
        handles.push(exec.spawn(async move {
            let cli_id = client.id();
            let who = client_letter(t).to_string();
            for (opno, op) in script.iter().enumerate() {
                let key = op.key();
                let kb = key_bytes(key);
                let (idx, res) = match op {
                    ScriptOp::Insert(_) | ScriptOp::Update(_) => {
                        let v = op_value(t, opno);
                        let idx =
                            shared
                                .borrow_mut()
                                .begin(key, Some(Some(v.clone())), who.clone());
                        let res = match op {
                            ScriptOp::Insert(_) => client.insert_async(&kb, &v).await,
                            _ => client.update_async(&kb, &v).await,
                        };
                        (idx, res.map(|_| None))
                    }
                    ScriptOp::Delete(_) => {
                        let idx = shared.borrow_mut().begin(key, Some(None), who.clone());
                        (idx, client.delete_async(&kb).await.map(|_| None))
                    }
                    ScriptOp::Search(_) => {
                        let idx = shared.borrow_mut().begin(key, None, who.clone());
                        (idx, client.search_async(&kb).await.map(Some))
                    }
                };
                match res {
                    Ok(read) => shared.borrow_mut().finish(idx, read),
                    Err(e) => {
                        let mut st = shared.borrow_mut();
                        if st.mn_killed {
                            // Cut down by the injected fault: the op stays
                            // pending and the client needs CN recovery.
                            st.crashed.push(cli_id);
                        } else {
                            st.violations
                                .push(format!("task {who} op {opno}: unexpected error: {e}"));
                        }
                        break;
                    }
                }
            }
            client.dm.detach_cq();
        }));
    }

    // ---- Replay the schedule prefix to the frontier ----------------------
    struct DriveState {
        next: usize,
        marks: Vec<usize>,
        frontier_len: Option<usize>,
        enabled: Vec<u32>,
        diverged: Option<String>,
    }
    let ds = Rc::new(RefCell::new(DriveState {
        next: 0,
        marks: Vec::new(),
        frontier_len: None,
        enabled: Vec::new(),
        diverged: None,
    }));
    {
        let ds = Rc::clone(&ds);
        let cq = Arc::clone(&cq);
        let sink = Arc::clone(&sink);
        exec.run_until_idle(move || {
            let mut st = ds.borrow_mut();
            if st.next >= prefix.len() {
                st.frontier_len = Some(sink.len());
                let tags: BTreeSet<u32> = cq.pending_entries().iter().map(|&(_, t)| t).collect();
                st.enabled = tags.into_iter().collect();
                return false;
            }
            let tag = prefix[st.next];
            match cq.pending_entries().iter().find(|&&(_, t)| t == tag) {
                Some(&(seq, _)) => {
                    st.marks.push(sink.len());
                    st.next += 1;
                    cq.deliver_seq(seq)
                }
                None => {
                    st.diverged = Some(format!(
                        "replay diverged at choice {}: tag {tag} not pending",
                        st.next
                    ));
                    false
                }
            }
        });
    }
    {
        let st = ds.borrow();
        if let Some(d) = &st.diverged {
            return Err(d.clone());
        }
        if st.next < prefix.len() {
            return Err(format!(
                "replay ended after {} of {} choices (tasks drained early)",
                st.next,
                prefix.len()
            ));
        }
        let frontier = st.frontier_len.unwrap_or_else(|| sink.len());
        for (i, &start) in st.marks.iter().enumerate() {
            let end = st.marks.get(i + 1).copied().unwrap_or(frontier);
            out.step_fps.push(sink.slice(start..end));
        }
        out.enabled.clone_from(&st.enabled);
    }

    // ---- Crash at the frontier -------------------------------------------
    let mut cancelled: Vec<usize> = Vec::new();
    let mut mn_killed = false;
    if let Some(c) = crash {
        match c {
            CrashSpec::Cn(t) => cancelled.push(*t),
            CrashSpec::Mn => mn_killed = true,
            CrashSpec::CnAndMn(t) => {
                cancelled.push(*t);
                mn_killed = true;
            }
        }
    }
    for &t in &cancelled {
        if exec.cancel(handles[t].id()) {
            shared.borrow_mut().crashed.push(cli_ids[t]);
        }
    }
    if mn_killed {
        store.kill_mn(victim_col);
        shared.borrow_mut().mn_killed = true;
    }

    // ---- Drain on the default lowest-deadline policy ---------------------
    let stuck = exec.run_until_idle(|| cq.advance_next());
    if stuck != 0 {
        out.violations
            .push(format!("executor wedged with {stuck} tasks in flight"));
    }

    // ---- Tiered recovery (CN consistency first, then MN) -----------------
    let crashed: Vec<u32> = {
        let mut st = shared.borrow_mut();
        out.violations.append(&mut st.violations);
        let mut ids = std::mem::take(&mut st.crashed);
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let dead = mn_killed.then_some(victim_col);
    store
        .recover(&crashed, dead.as_slice())
        .map_err(|e| format!("recover: {e}"))?;

    // ---- Oracle 1: linearizability of the recorded history ---------------
    let touched: BTreeSet<usize> = scenario
        .preload
        .iter()
        .copied()
        .chain(scenario.clients.iter().flatten().map(|op| op.key()))
        .collect();
    let mut verifier = store.client().map_err(|e| format!("verifier: {e}"))?;
    {
        let mut st = shared.borrow_mut();
        for &k in &touched {
            let idx = st.begin(k, None, "V".to_string());
            match verifier.search(&key_bytes(k)) {
                Ok(got) => st.finish(idx, Some(got)),
                Err(e) => st
                    .violations
                    .push(format!("verifier search k{k}: {e}")),
            }
        }
        out.violations.append(&mut st.violations);
    }
    {
        let st = shared.borrow();
        for &k in &touched {
            let init = initial.get(&k).cloned().flatten();
            let ops: Vec<KeyOp> = st
                .hist
                .iter()
                .filter(|h| h.key == k)
                .filter_map(|h| match (&h.write, h.resp) {
                    (Some(v), resp) => Some(KeyOp {
                        kind: KeyOpKind::Write(v.clone()),
                        inv: h.inv,
                        resp,
                        who: h.who.clone(),
                    }),
                    (None, Some(resp)) => Some(KeyOp {
                        kind: KeyOpKind::Read(h.read.clone().flatten()),
                        inv: h.inv,
                        resp: Some(resp),
                        who: h.who.clone(),
                    }),
                    // A read cut down mid-flight constrains nothing.
                    (None, None) => None,
                })
                .collect();
            if !check_key(init.as_deref(), &ops) {
                out.violations
                    .push(format!("non-linearizable history for {}", key_name(k)));
                out.violations
                    .extend(render_history(&key_name(k), init.as_deref(), &ops));
            }
        }
    }

    // ---- Oracle 2: lock liveness — a probe write must get through --------
    let mut probe = store
        .client_with(tuning)
        .map_err(|e| format!("probe: {e}"))?;
    if scenario.probe_mutation {
        probe.mutation = scenario.mutation;
    }
    for &k in &touched {
        let pv = pad_val(format!("probe-k{k}"));
        match probe.update(&key_bytes(k), &pv) {
            Ok(()) => match probe.search(&key_bytes(k)) {
                Ok(Some(got)) if got == pv => {}
                Ok(got) => out.violations.push(format!(
                    "probe readback mismatch on {}: got {got:?}",
                    key_name(k)
                )),
                Err(e) => out
                    .violations
                    .push(format!("probe readback {}: {e}", key_name(k))),
            },
            // Absent key: the probe's point is lock liveness, not presence.
            Err(StoreError::NotFound) => {}
            Err(e) => out.violations.push(format!(
                "lock liveness: probe update on {} wedged: {e}",
                key_name(k)
            )),
        }
    }

    // ---- Oracles 3 to 5: iv-monotonicity, parity-scrub, replica agreement -
    iv.check(&store, &mut out.violations);
    if let Err(e) = verifier.flush_bitmaps() {
        out.violations.push(format!("final flush: {e}"));
    }
    store.cluster.trace_barrier();
    parity_scrub(&store, &mut out.violations);
    replica_agreement(&store, &mut out.violations);

    store.shutdown();
    Ok(())
}
