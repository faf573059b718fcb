//! The happens-before race detector over DM verb traces.
//!
//! A [`Detector`] is a [`TraceSink`]: install it on a cluster and every
//! memory-effective verb flows through [`Detector::record`]. It maintains
//! one vector clock per trace client (one `DmClient` = one logical thread)
//! and derives happens-before edges from the synchronization the Aceso
//! protocols actually use on the fabric:
//!
//! * **CAS acquire/release.** Every CAS'd word is a sync variable. A
//!   successful CAS both acquires (joins the word's clock) and releases
//!   (stores the client's clock into the word) — it is Algorithm 1's commit
//!   point and the index epoch lock. A failed CAS still acquires: the
//!   client observed the word.
//! * **FAA ordering.** FAA always lands, so it is always acquire+release
//!   (Index Version bumps, counters).
//! * **Atomic loads.** Regions serve reads with per-word `Acquire` loads,
//!   so any READ overlapping a sync word acquires that word's clock — this
//!   is exactly how clients observe a committed slot before dereferencing
//!   it.
//! * **RPC request/reply.** Each node's server handles RPCs serially
//!   (under its endpoint's execution lock, on the caller's thread); an
//!   RPC verb acquires+releases a per-node sync variable (orders block
//!   hand-offs: the old owner's `DataFilled` precedes the next owner's
//!   `AllocData`).
//! * **Recovery barriers.** A [`TraceOp::Barrier`] event joins every known
//!   client clock into a global barrier clock and back — the harness emits
//!   one at phase boundaries (crash → recovery → verification), where the
//!   real system guarantees quiescence.
//!
//! **Word atomicity.** The fabric (like the paper's RNICs) serves 8-byte
//! aligned accesses atomically, so *word accesses* — aligned, ≤ 8 bytes —
//! can never tear and are exempt from conflict checks (`write_meta`,
//! `invalidate_kv` patches). Only *ranged* accesses (anything wider) can
//! produce a torn read or a lost update.
//!
//! **Publication.** A write is *published* once its client performs any
//! release (successful CAS, FAA, RPC) after it — e.g. a KV write followed
//! by the commit CAS. A ranged READ is racy only against an *unpublished*
//! write it is unordered with: reading a block that a concurrent writer has
//! touched but not yet committed is precisely a torn read, while re-reading
//! a neighbour's committed-but-unordered slot is the protocol's benign
//! over-read discipline (the version/checksum validation handles staleness).
//! WRITE/WRITE conflicts are flagged regardless of publication — two
//! unordered ranged writes to the same words are a lost update whether or
//! not they commit.

use crate::vc::VectorClock;
use aceso_rdma::{TraceEvent, TraceOp, TraceSink};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Cap on recorded races: one bad edge floods every subsequent access, and
/// the first few pairs carry all the signal.
const MAX_RACES: usize = 64;

/// Annotates `(node, offset)` with a human-readable location (e.g. "slot
/// Atomic word, group 3" or "block 17"). Installed by the harness, which
/// knows the memory map.
pub type Annotator = Box<dyn Fn(u16, u64) -> Option<String> + Send + Sync>;

/// One side of a race: a traced access.
#[derive(Clone, Copy, Debug)]
pub struct Access {
    /// Trace client id.
    pub client: u32,
    /// Per-client sequence number of the event.
    pub seq: u64,
    /// Verb class and outcome.
    pub op: TraceOp,
    /// Target node.
    pub node: u16,
    /// Byte offset of the access.
    pub offset: u64,
    /// Access length in bytes.
    pub len: usize,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "c{}#{} {} n{}@[{:#x}, +{})",
            self.client, self.seq, self.op, self.node, self.offset, self.len
        )
    }
}

/// The flavour of an unordered conflicting pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaceKind {
    /// Two unordered ranged writes overlap: a lost update.
    WriteWrite,
    /// A ranged read overlaps an unordered, unpublished write: a torn read.
    WriteRead,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceKind::WriteWrite => write!(f, "WRITE/WRITE"),
            RaceKind::WriteRead => write!(f, "WRITE/READ"),
        }
    }
}

/// An unordered conflicting access pair reported by the detector.
#[derive(Clone, Debug)]
pub struct Race {
    /// Conflict flavour.
    pub kind: RaceKind,
    /// The earlier (shadowed) write.
    pub first: Access,
    /// The later access that observed the conflict.
    pub second: Access,
    /// Optional memory-map annotation of the overlap.
    pub note: Option<String>,
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unordered {}: {} vs {}",
            self.kind, self.first, self.second
        )?;
        if let Some(n) = &self.note {
            write!(f, " ({n})")?;
        }
        Ok(())
    }
}

struct ClientState {
    vc: VectorClock,
    /// This client's clock at its last release (successful CAS, FAA, RPC).
    /// Writes with a larger clock are unpublished.
    published: u64,
}

#[derive(Clone, Copy)]
struct WriteRec {
    client: u32,
    /// Writer's own clock component when the write landed.
    clock: u64,
    seq: u64,
    offset: u64,
    len: usize,
}

#[derive(Default)]
struct State {
    clients: HashMap<u32, ClientState>,
    /// Per-node, per-8B-word sync-variable clocks (every CAS/FAA target).
    sync: HashMap<u16, BTreeMap<u64, VectorClock>>,
    /// Per-node RPC serialization clock.
    rpc_sync: HashMap<u16, VectorClock>,
    /// The global barrier clock.
    barrier: VectorClock,
    /// Per-node, per-8B-word shadow of the last *ranged* write covering it.
    shadow: HashMap<u16, BTreeMap<u64, WriteRec>>,
    races: Vec<Race>,
    /// (writer client, writer seq, reader client) pairs already reported.
    reported: HashSet<(u32, u64, u32)>,
    /// Protocol violations that are not races (misaligned atomics).
    violations: Vec<String>,
    events: u64,
}

/// The happens-before checker; see the module docs for the model.
pub struct Detector {
    state: Mutex<State>,
    annotate: Option<Annotator>,
}

impl Default for Detector {
    fn default() -> Self {
        Self::new()
    }
}

/// Whether an access is served atomically by the fabric (8-byte aligned,
/// at most one word) and therefore cannot tear.
fn word_atomic(offset: u64, len: usize) -> bool {
    offset.is_multiple_of(8) && len <= 8
}

impl Detector {
    /// A detector with no memory-map annotations.
    pub fn new() -> Self {
        Detector {
            state: Mutex::new(State::default()),
            annotate: None,
        }
    }

    /// A detector whose race reports carry `annotate(node, offset)` labels.
    pub fn with_annotator(annotate: Annotator) -> Self {
        Detector {
            state: Mutex::new(State::default()),
            annotate: Some(annotate),
        }
    }

    /// Races found so far, in detection order.
    pub fn races(&self) -> Vec<Race> {
        self.state.lock().races.clone()
    }

    /// Non-race protocol violations (misaligned atomics in the trace).
    pub fn violations(&self) -> Vec<String> {
        self.state.lock().violations.clone()
    }

    /// Whether no race and no violation was detected.
    pub fn is_clean(&self) -> bool {
        let st = self.state.lock();
        st.races.is_empty() && st.violations.is_empty()
    }

    /// Number of trace events processed.
    pub fn events(&self) -> u64 {
        self.state.lock().events
    }

    fn note(&self, node: u16, offset: u64) -> Option<String> {
        self.annotate.as_ref().and_then(|f| f(node, offset))
    }

    fn handle(&self, st: &mut State, ev: TraceEvent) {
        st.events += 1;

        if matches!(ev.op, TraceOp::Barrier) {
            // Quiescent phase boundary: everything before orders before
            // everything after. Join all clients into the barrier clock and
            // the barrier clock back into all clients; clients created later
            // start from the barrier clock.
            let mut barrier = std::mem::take(&mut st.barrier);
            for c in st.clients.values() {
                barrier.join(&c.vc);
            }
            for c in st.clients.values_mut() {
                c.vc.join(&barrier);
            }
            st.barrier = barrier;
            return;
        }

        let node = ev.node.0;
        // Tick the issuing client's clock (creating it at the barrier clock
        // if this is its first event).
        let barrier = &st.barrier;
        let cl = st.clients.entry(ev.client).or_insert_with(|| ClientState {
            vc: barrier.clone(),
            published: 0,
        });
        let clock = cl.vc.bump(ev.client);

        match ev.op {
            TraceOp::Cas { .. } | TraceOp::Faa => {
                if !ev.offset.is_multiple_of(8) {
                    if st.violations.len() < MAX_RACES {
                        st.violations.push(format!(
                            "misaligned atomic in trace: c{}#{} {} n{}@{:#x}",
                            ev.client, ev.seq, ev.op, node, ev.offset
                        ));
                    }
                    return;
                }
                let landed = !matches!(ev.op, TraceOp::Cas { success: false });
                let wvc = st
                    .sync
                    .entry(node)
                    .or_default()
                    .entry(ev.offset)
                    .or_default();
                // Acquire: the atomic observed the word's last release.
                cl.vc.join(wvc);
                if landed {
                    // Release: publish this client's history into the word.
                    *wvc = cl.vc.clone();
                    cl.published = clock;
                }
            }
            TraceOp::Rpc => {
                // The server handles RPCs serially: acquire+release on the
                // node's RPC clock, like a mutex handoff.
                let rvc = st.rpc_sync.entry(node).or_default();
                cl.vc.join(rvc);
                *rvc = cl.vc.clone();
                cl.published = clock;
            }
            TraceOp::Read => {
                let lo = ev.offset & !7;
                let end = ev.offset + ev.len as u64;
                // Any read acquires every sync word it overlaps (per-word
                // Acquire loads on the fabric).
                if let Some(words) = st.sync.get(&node) {
                    for (_, wvc) in words.range(lo..end) {
                        cl.vc.join(wvc);
                    }
                }
                if word_atomic(ev.offset, ev.len) {
                    return;
                }
                // Ranged read: racy against overlapping unordered,
                // unpublished writes.
                let mut found: Vec<WriteRec> = Vec::new();
                if let Some(shadow) = st.shadow.get(&node) {
                    for (_, w) in shadow.range(lo..end) {
                        if w.client != ev.client && cl.vc.get(w.client) < w.clock {
                            found.push(*w);
                        }
                    }
                }
                for w in found {
                    let unpublished = st
                        .clients
                        .get(&w.client)
                        .map(|c| c.published < w.clock)
                        .unwrap_or(true);
                    if unpublished {
                        self.report(st, RaceKind::WriteRead, &w, ev);
                    }
                }
            }
            TraceOp::Write => {
                if word_atomic(ev.offset, ev.len) {
                    // Aligned single-word writes cannot tear; they are the
                    // protocol's in-place patches. They neither race nor
                    // release (a plain write is NOT a publication — that is
                    // what makes a skipped commit CAS detectable).
                    return;
                }
                let lo = ev.offset & !7;
                let end = ev.offset + ev.len as u64;
                let mut found: Vec<WriteRec> = Vec::new();
                if let Some(shadow) = st.shadow.get(&node) {
                    for (_, w) in shadow.range(lo..end) {
                        if w.client != ev.client && cl.vc.get(w.client) < w.clock {
                            found.push(*w);
                        }
                    }
                }
                for w in found {
                    // Lost update regardless of publication.
                    self.report(st, RaceKind::WriteWrite, &w, ev);
                }
                let rec = WriteRec {
                    client: ev.client,
                    clock,
                    seq: ev.seq,
                    offset: ev.offset,
                    len: ev.len,
                };
                let shadow = st.shadow.entry(node).or_default();
                let mut word = lo;
                while word < end {
                    shadow.insert(word, rec);
                    word += 8;
                }
            }
            TraceOp::Barrier => unreachable!("handled above"),
        }
    }

    fn report(&self, st: &mut State, kind: RaceKind, w: &WriteRec, ev: TraceEvent) {
        if !st.reported.insert((w.client, w.seq, ev.client)) || st.races.len() >= MAX_RACES {
            return;
        }
        let note = self.note(ev.node.0, w.offset.max(ev.offset));
        st.races.push(Race {
            kind,
            first: Access {
                client: w.client,
                seq: w.seq,
                op: TraceOp::Write,
                node: ev.node.0,
                offset: w.offset,
                len: w.len,
            },
            second: Access {
                client: ev.client,
                seq: ev.seq,
                op: ev.op,
                node: ev.node.0,
                offset: ev.offset,
                len: ev.len,
            },
            note,
        });
    }
}

impl TraceSink for Detector {
    fn record(&self, ev: TraceEvent) {
        let mut st = self.state.lock();
        self.handle(&mut st, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_rdma::NodeId;

    fn ev(client: u32, seq: u64, op: TraceOp, offset: u64, len: usize) -> TraceEvent {
        TraceEvent {
            client,
            seq,
            node: NodeId(0),
            op,
            offset,
            len,
        }
    }

    fn barrier() -> TraceEvent {
        TraceEvent {
            client: TraceEvent::BARRIER_CLIENT,
            seq: 0,
            node: NodeId(0),
            op: TraceOp::Barrier,
            offset: 0,
            len: 0,
        }
    }

    #[test]
    fn published_write_then_acquired_read_is_clean() {
        let d = Detector::new();
        // Writer: ranged write, then commit CAS (release).
        d.record(ev(0, 0, TraceOp::Write, 256, 64));
        d.record(ev(0, 1, TraceOp::Cas { success: true }, 0, 8));
        // Reader: observes the word (acquire), then reads the range.
        d.record(ev(1, 0, TraceOp::Read, 0, 8));
        d.record(ev(1, 1, TraceOp::Read, 256, 64));
        assert!(d.is_clean(), "{:?}", d.races());
    }

    #[test]
    fn unpublished_write_read_is_a_torn_read() {
        let d = Detector::new();
        d.record(ev(0, 0, TraceOp::Write, 256, 64));
        d.record(ev(1, 0, TraceOp::Read, 256, 64));
        let races = d.races();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, RaceKind::WriteRead);
        assert_eq!(races[0].first.client, 0);
        assert_eq!(races[0].second.client, 1);
        assert_eq!(races[0].first.offset, 256);
    }

    #[test]
    fn published_but_unordered_read_is_benign_overread() {
        let d = Detector::new();
        // Writer commits (publishes) but the reader never acquires the
        // commit word: the protocol's neighbour-slot over-read.
        d.record(ev(0, 0, TraceOp::Write, 256, 64));
        d.record(ev(0, 1, TraceOp::Cas { success: true }, 0, 8));
        d.record(ev(1, 0, TraceOp::Read, 256, 64));
        assert!(d.is_clean(), "{:?}", d.races());
    }

    #[test]
    fn unordered_writes_are_a_lost_update_even_if_published() {
        let d = Detector::new();
        d.record(ev(0, 0, TraceOp::Write, 256, 64));
        d.record(ev(0, 1, TraceOp::Cas { success: true }, 0, 8));
        // Second writer never touches the sync word.
        d.record(ev(1, 0, TraceOp::Write, 288, 64));
        let races = d.races();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn lock_handoff_orders_writers() {
        let d = Detector::new();
        let lock = 8;
        // A: lock, write, unlock.
        d.record(ev(0, 0, TraceOp::Cas { success: true }, lock, 8));
        d.record(ev(0, 1, TraceOp::Write, 256, 64));
        d.record(ev(0, 2, TraceOp::Cas { success: true }, lock, 8));
        // B: lock (acquires A's history), write, unlock.
        d.record(ev(1, 0, TraceOp::Cas { success: true }, lock, 8));
        d.record(ev(1, 1, TraceOp::Write, 256, 64));
        d.record(ev(1, 2, TraceOp::Cas { success: true }, lock, 8));
        assert!(d.is_clean(), "{:?}", d.races());
    }

    #[test]
    fn failed_cas_still_acquires() {
        let d = Detector::new();
        d.record(ev(0, 0, TraceOp::Write, 256, 64));
        d.record(ev(0, 1, TraceOp::Cas { success: true }, 0, 8));
        // B's CAS loses, but losing still observes the word.
        d.record(ev(1, 0, TraceOp::Cas { success: false }, 0, 8));
        d.record(ev(1, 1, TraceOp::Read, 256, 64));
        assert!(d.is_clean(), "{:?}", d.races());
    }

    #[test]
    fn word_atomic_accesses_never_race() {
        let d = Detector::new();
        // 8-byte aligned single-word patches from two clients: the fabric
        // serves them atomically.
        d.record(ev(0, 0, TraceOp::Write, 256, 8));
        d.record(ev(1, 0, TraceOp::Write, 256, 8));
        d.record(ev(1, 1, TraceOp::Read, 256, 8));
        assert!(d.is_clean(), "{:?}", d.races());
    }

    #[test]
    fn faa_orders_like_cas() {
        let d = Detector::new();
        d.record(ev(0, 0, TraceOp::Write, 256, 64));
        d.record(ev(0, 1, TraceOp::Faa, 16, 8));
        d.record(ev(1, 0, TraceOp::Faa, 16, 8));
        d.record(ev(1, 1, TraceOp::Read, 256, 64));
        assert!(d.is_clean(), "{:?}", d.races());
    }

    #[test]
    fn rpc_serialization_orders_handoffs() {
        let d = Detector::new();
        // Old owner fills a block, then tells the server (DataFilled).
        d.record(ev(0, 0, TraceOp::Write, 4096, 128));
        d.record(ev(0, 1, TraceOp::Rpc, 0, 64));
        // New owner allocates (AllocData) and reuses the block.
        d.record(ev(1, 0, TraceOp::Rpc, 0, 64));
        d.record(ev(1, 1, TraceOp::Write, 4096, 128));
        assert!(d.is_clean(), "{:?}", d.races());
    }

    #[test]
    fn barrier_orders_crashed_writers() {
        let d = Detector::new();
        // Crashed client left an uncommitted ranged write.
        d.record(ev(0, 0, TraceOp::Write, 4096, 128));
        d.record(barrier());
        // Recovery reads the block wholesale — ordered by the barrier.
        d.record(ev(1, 0, TraceOp::Read, 4096, 128));
        assert!(d.is_clean(), "{:?}", d.races());
    }

    #[test]
    fn client_born_after_barrier_inherits_it() {
        let d = Detector::new();
        d.record(ev(0, 0, TraceOp::Write, 4096, 128));
        d.record(barrier());
        // Client 5 has never been seen before the barrier.
        d.record(ev(5, 0, TraceOp::Read, 4096, 128));
        assert!(d.is_clean(), "{:?}", d.races());
    }

    #[test]
    fn read_overlapping_sync_word_acquires_without_exact_address() {
        let d = Detector::new();
        d.record(ev(0, 0, TraceOp::Write, 256, 64));
        d.record(ev(0, 1, TraceOp::Cas { success: true }, 264, 8));
        // Reader scans a 128-byte range that *contains* the sync word
        // (bucket scan) rather than loading it exactly.
        d.record(ev(1, 0, TraceOp::Read, 192, 128));
        d.record(ev(1, 1, TraceOp::Read, 256, 64));
        assert!(d.is_clean(), "{:?}", d.races());
    }

    #[test]
    fn commit_after_write_publishes_but_commit_before_write_does_not() {
        // Write → CAS: clean (tested above). CAS → write: the write is
        // after the last release, so a subsequent acquired read still races.
        let d = Detector::new();
        d.record(ev(0, 0, TraceOp::Cas { success: true }, 0, 8));
        d.record(ev(0, 1, TraceOp::Write, 256, 64));
        d.record(ev(1, 0, TraceOp::Read, 0, 8));
        d.record(ev(1, 1, TraceOp::Read, 256, 64));
        let races = d.races();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, RaceKind::WriteRead);
    }

    #[test]
    fn misaligned_atomic_is_a_violation() {
        let d = Detector::new();
        d.record(ev(0, 0, TraceOp::Faa, 12, 8));
        assert!(!d.is_clean());
        assert_eq!(d.races().len(), 0);
        assert_eq!(d.violations().len(), 1);
    }

    #[test]
    fn race_reports_carry_verb_pair_and_addresses() {
        let d = Detector::with_annotator(Box::new(|n, off| {
            Some(format!("node {n} block area word {off:#x}"))
        }));
        d.record(ev(0, 0, TraceOp::Write, 4096, 64));
        d.record(ev(1, 0, TraceOp::Read, 4096, 256));
        let races = d.races();
        assert_eq!(races.len(), 1);
        let s = races[0].to_string();
        assert!(s.contains("WRITE/READ"), "{s}");
        assert!(s.contains("WRITE"), "{s}");
        assert!(s.contains("READ"), "{s}");
        assert!(s.contains("0x1000"), "{s}");
        assert!(s.contains("block area word"), "{s}");
    }

    #[test]
    fn duplicate_pairs_are_reported_once() {
        let d = Detector::new();
        d.record(ev(0, 0, TraceOp::Write, 4096, 64));
        // Two reads of the same racy write by the same client: one report.
        d.record(ev(1, 0, TraceOp::Read, 4096, 64));
        d.record(ev(1, 1, TraceOp::Read, 4096, 64));
        assert_eq!(d.races().len(), 1);
    }
}
