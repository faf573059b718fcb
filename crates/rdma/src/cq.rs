//! Simulated completion queue: the async submission surface of the fabric.
//!
//! Real RDMA clients overlap work by posting verbs and polling a
//! *completion queue* (CQ) instead of blocking per verb. This module is the
//! simulation's equivalent: a [`SimCq`] carries a **virtual clock** (ns) and
//! a min-heap of pending completion deadlines. A [`DmClient`] with an
//! attached CQ (see [`DmClient::attach_cq`]) keeps executing every verb's
//! *memory effect* synchronously — so linearizability, traces and fault
//! injection are untouched — but *accrues* each verb's modeled latency
//! instead of accounting it as blocking time. An async operation then calls
//! [`DmClient::settle`] at every point where the real protocol would wait
//! for a round trip; `settle` converts the accrued microseconds into a
//! pending [`Completion`] on the CQ and suspends until the virtual clock
//! reaches its deadline.
//!
//! Whoever owns the executor drives the clock with [`SimCq::advance_next`]:
//! pop the earliest deadline, advance virtual time to it, wake the waiting
//! task. With many client tasks multiplexed on one OS thread this yields
//! exactly the coroutine pipelining of the paper's client: while one op's
//! round trip is "in flight" (its deadline pending), other ops run. The
//! achieved overlap is measurable: [`SimCq::busy_us`] (total charged wait)
//! divided by [`SimCq::now_us`] (virtual elapsed) is the *effective
//! pipeline depth* that the cost model's client bound uses via
//! [`crate::PhaseMeasurement::pipeline_depth`].
//!
//! Everything is deterministic: deadlines are ordered by (time, submission
//! sequence), so equal deadlines resolve in submission order and the same
//! schedule replays bit-for-bit.
//!
//! [`DmClient`]: crate::DmClient
//! [`DmClient::attach_cq`]: crate::DmClient::attach_cq
//! [`DmClient::settle`]: crate::DmClient::settle

use parking_lot::Mutex;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// Completion state shared between a [`Completion`] future and the CQ.
#[derive(Default)]
struct CompletionState {
    done: AtomicBool,
    waker: Mutex<Option<Waker>>,
}

/// A heap entry: min-ordered by `(deadline_ns, seq)` so simultaneous
/// completions resolve deterministically in submission order.
struct Entry {
    deadline_ns: u64,
    seq: u64,
    tag: u32,
    state: Arc<CompletionState>,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        (self.deadline_ns, self.seq) == (other.deadline_ns, other.seq)
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest deadline.
        (other.deadline_ns, other.seq).cmp(&(self.deadline_ns, self.seq))
    }
}

struct CqInner {
    now_ns: u64,
    seq: u64,
    busy_ns: u64,
    heap: BinaryHeap<Entry>,
}

/// A simulated completion queue with a virtual clock (see module docs).
///
/// One `SimCq` is shared by every client task multiplexed on one executor
/// thread; the executor's driver closure calls [`SimCq::advance_next`]
/// whenever all tasks are suspended.
pub struct SimCq {
    inner: Mutex<CqInner>,
}

impl Default for SimCq {
    fn default() -> Self {
        Self::new()
    }
}

impl SimCq {
    /// A fresh CQ with the virtual clock at zero.
    pub fn new() -> Self {
        SimCq {
            inner: Mutex::new(CqInner {
                now_ns: 0,
                seq: 0,
                busy_ns: 0,
                heap: BinaryHeap::new(),
            }),
        }
    }

    /// Posts a completion `us` microseconds of modeled fabric time from
    /// now; the returned future resolves when [`SimCq::advance_next`] has
    /// moved the virtual clock past its deadline.
    pub fn complete_in(&self, us: f64) -> Completion {
        self.complete_in_tagged(us, 0)
    }

    /// [`SimCq::complete_in`] with a submitter tag attached to the pending
    /// entry. Tags let a scheduler that drives the clock attribute each
    /// pending completion to the task that posted it (a `DmClient` tags
    /// with its trace id): [`SimCq::pending_entries`] exposes `(seq, tag)`
    /// pairs and [`SimCq::deliver_seq`] delivers a chosen one. Delivery
    /// order and the virtual clock are unaffected by the tag itself.
    pub fn complete_in_tagged(&self, us: f64, tag: u32) -> Completion {
        self.complete_on_link(us, tag, &mut 0, 0).0
    }

    /// [`SimCq::complete_in_tagged`] for a transfer on a link that carries
    /// one transfer at a time and is busy until `*link_free_ns` (virtual
    /// ns): it starts when the link frees, or now, and completes no earlier
    /// than `not_before_ns`. The link is then busy until the returned
    /// deadline.
    pub fn complete_on_link(
        &self,
        us: f64,
        tag: u32,
        link_free_ns: &mut u64,
        not_before_ns: u64,
    ) -> (Completion, u64) {
        let state = Arc::new(CompletionState::default());
        let wait_ns = (us * 1000.0).round().max(0.0) as u64;
        let mut g = self.inner.lock();
        let deadline_ns = (g.now_ns.max(*link_free_ns) + wait_ns).max(not_before_ns);
        *link_free_ns = deadline_ns;
        g.seq += 1;
        g.busy_ns += deadline_ns - g.now_ns;
        let entry = Entry {
            deadline_ns,
            seq: g.seq,
            tag,
            state: Arc::clone(&state),
        };
        g.heap.push(entry);
        (Completion { state }, deadline_ns)
    }

    /// Delivers the earliest pending completion: advances the virtual
    /// clock to its deadline, marks it done and wakes its waiter. Returns
    /// `false` if nothing was pending (the clock does not move).
    pub fn advance_next(&self) -> bool {
        let entry = {
            let mut g = self.inner.lock();
            let Some(e) = g.heap.pop() else {
                return false;
            };
            g.now_ns = g.now_ns.max(e.deadline_ns);
            e
        };
        entry.state.done.store(true, Ordering::Release);
        if let Some(w) = entry.state.waker.lock().take() {
            w.wake();
        }
        true
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> f64 {
        self.now_ns() as f64 / 1000.0
    }

    /// Current virtual time in nanoseconds, the clock's own unit.
    pub fn now_ns(&self) -> u64 {
        self.inner.lock().now_ns
    }

    /// Total modeled wait charged across all completions ever posted, in
    /// microseconds. `busy_us / now_us` is the effective overlap depth of
    /// the schedule (≈ 1.0 for a single blocking client, ≫ 1 for many
    /// pipelined tasks).
    pub fn busy_us(&self) -> f64 {
        self.inner.lock().busy_ns as f64 / 1000.0
    }

    /// Number of completions currently pending delivery.
    pub fn pending(&self) -> usize {
        self.inner.lock().heap.len()
    }

    /// `(seq, tag)` of every pending completion, in submission order.
    ///
    /// This is the *enabled set* a model checker branches on: each entry is
    /// one suspended task's next wake-up, and [`SimCq::deliver_seq`] picks
    /// which of them the virtual fabric "finishes" first.
    pub fn pending_entries(&self) -> Vec<(u64, u32)> {
        let g = self.inner.lock();
        let mut v: Vec<(u64, u32)> = g.heap.iter().map(|e| (e.seq, e.tag)).collect();
        v.sort_unstable();
        v
    }

    /// Delivers the pending completion with submission sequence `seq`,
    /// regardless of its deadline — the virtual-clock *fork* used by the
    /// exhaustive explorer. The clock advances to the entry's deadline if
    /// that is later than now (it never moves backwards), modelling a
    /// fabric where any in-flight round trip may finish first. Returns
    /// `false` if no pending entry has that sequence number.
    pub fn deliver_seq(&self, seq: u64) -> bool {
        let entry = {
            let mut g = self.inner.lock();
            let mut rest: Vec<Entry> = Vec::with_capacity(g.heap.len());
            let mut found = None;
            while let Some(e) = g.heap.pop() {
                if e.seq == seq && found.is_none() {
                    found = Some(e);
                } else {
                    rest.push(e);
                }
            }
            for e in rest {
                g.heap.push(e);
            }
            let Some(e) = found else {
                return false;
            };
            g.now_ns = g.now_ns.max(e.deadline_ns);
            e
        };
        entry.state.done.store(true, Ordering::Release);
        if let Some(w) = entry.state.waker.lock().take() {
            w.wake();
        }
        true
    }
}

/// Future returned by [`SimCq::complete_in`]; resolves once the virtual
/// clock has reached the completion's deadline.
pub struct Completion {
    state: Arc<CompletionState>,
}

impl Future for Completion {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.state.done.load(Ordering::Acquire) {
            return Poll::Ready(());
        }
        *self.state.waker.lock() = Some(cx.waker().clone());
        // Re-check: a wake between the first check and storing the waker
        // must not be lost (the stored waker would never fire again).
        if self.state.done.load(Ordering::Acquire) {
            return Poll::Ready(());
        }
        Poll::Pending
    }
}

/// Runs a future to completion on the current thread, driving `cq`'s
/// virtual clock whenever the future suspends.
///
/// This is how the *blocking* client API wraps the async one: a lone
/// blocking op owns the whole clock, so its modeled latency is identical
/// to the pre-async accounting (overlap depth 1).
///
/// # Panics
///
/// Panics if the future suspends while `cq` is `None` or has no pending
/// completion — the future is waiting on an event nobody can deliver.
///
/// ```
/// use aceso_rdma::cq::{block_on, SimCq};
/// use std::sync::Arc;
///
/// let cq = Arc::new(SimCq::new());
/// let c = cq.complete_in(3.0);
/// block_on(Some(Arc::clone(&cq)), c);
/// assert_eq!(cq.now_us(), 3.0);
/// assert_eq!(block_on(None, async { 7 }), 7);
/// ```
pub fn block_on<F: Future>(cq: Option<Arc<SimCq>>, fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    // Wakes are irrelevant: the loop polls again after every clock advance.
    let mut cx = Context::from_waker(Waker::noop());
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => {
                let advanced = cq.as_ref().is_some_and(|c| c.advance_next());
                assert!(
                    advanced,
                    "future suspended with no pending completion to drive"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completions_deliver_in_deadline_order() {
        let cq = SimCq::new();
        let _late = cq.complete_in(10.0);
        let early = cq.complete_in(2.0);
        assert_eq!(cq.pending(), 2);
        assert!(cq.advance_next());
        assert_eq!(cq.now_us(), 2.0);
        // The early completion resolved; the late one is still pending.
        block_on_ready(early);
        assert!(cq.advance_next());
        assert_eq!(cq.now_us(), 10.0);
        assert!(!cq.advance_next());
        assert_eq!(cq.busy_us(), 12.0);
    }

    #[test]
    fn equal_deadlines_resolve_in_submission_order() {
        let cq = SimCq::new();
        let a = cq.complete_in(5.0);
        let b = cq.complete_in(5.0);
        assert!(cq.advance_next());
        assert!(a.state.done.load(Ordering::Acquire));
        assert!(!b.state.done.load(Ordering::Acquire));
    }

    #[test]
    fn block_on_drives_chained_completions() {
        let cq = Arc::new(SimCq::new());
        let cq2 = Arc::clone(&cq);
        let v = block_on(Some(Arc::clone(&cq)), async move {
            cq2.complete_in(1.5).await;
            cq2.complete_in(2.5).await;
            42
        });
        assert_eq!(v, 42);
        assert_eq!(cq.now_us(), 4.0);
    }

    #[test]
    fn deliver_seq_forks_the_deadline_order() {
        let cq = SimCq::new();
        let late = cq.complete_in_tagged(10.0, 7);
        let early = cq.complete_in_tagged(2.0, 9);
        assert_eq!(cq.pending_entries(), vec![(1, 7), (2, 9)]);
        // Deliver the *late* completion first: the clock jumps to its
        // deadline and the early one stays pending.
        assert!(cq.deliver_seq(1));
        assert_eq!(cq.now_us(), 10.0);
        block_on_ready(late);
        assert_eq!(cq.pending_entries(), vec![(2, 9)]);
        // Delivering the early one now must not move the clock backwards.
        assert!(cq.deliver_seq(2));
        assert_eq!(cq.now_us(), 10.0);
        block_on_ready(early);
        assert!(!cq.deliver_seq(2));
        assert!(cq.pending_entries().is_empty());
    }

    #[test]
    #[should_panic(expected = "no pending completion")]
    fn block_on_panics_when_stuck() {
        let cq = Arc::new(SimCq::new());
        block_on(Some(cq), std::future::pending::<()>());
    }

    /// Polls a future that must already be ready.
    fn block_on_ready<F: Future>(fut: F) -> F::Output {
        block_on(None, fut)
    }
}
