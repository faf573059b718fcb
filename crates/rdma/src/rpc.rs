//! Typed RPC standing in for RDMA UD send/recv queue pairs: caller-runs
//! server endpoints.
//!
//! Aceso's clients talk to MN servers over RDMA unreliable-datagram RPC for
//! coarse-grained management (block allocation, block-filled notifications,
//! free-bitmap flushes). The paper's model charges that RPC a round trip
//! and nothing else, so the stand-in costs a function call: there is no
//! server thread and no channel. An [`RpcClient`] is a handle on the
//! server's *endpoint* — an execution lock, the server's [`RpcHandler`]
//! and an inbox — and a call runs the handler on the caller's thread
//! under the execution lock. Cost accounting, fault injection and tracing
//! happen in [`crate::verbs::DmClient::rpc`], not here.
//!
//! * **One MN core.** The execution lock is what the single server thread
//!   used to be: handlers of one endpoint never overlap.
//! * **Liveness.** Every request is checked against
//!   [`RpcHandler::alive`] under the lock; a dead endpoint answers
//!   [`RdmaError::RpcClosed`] and never runs its handler.
//! * **Casts never wait for another server.** Servers replicate to their
//!   right neighbours from inside their handlers; if a cast blocked on the
//!   neighbour's execution lock, n servers driven by n threads would form
//!   a lock ring. [`RpcClient::cast`] therefore only `try_lock`s: on
//!   success it runs the handler in place, otherwise it queues the request
//!   on the inbox. Every lock holder drains the inbox before it handles
//!   its own request and again before releasing, and re-checks it after
//!   releasing, so one sender's cast-then-call order is kept, a cast is
//!   applied by the time the sender's next call to that endpoint returns,
//!   and no cast is stranded behind a holder that was just leaving.
//! * **Panics.** A panicking handler unwinds into the caller that ran it
//!   (it used to kill a server thread silently); the lock is released on
//!   the way out and the endpoint keeps serving.

use crate::error::{RdmaError, Result};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// The server side of an endpoint: what runs, on the caller's thread, for
/// every request.
pub trait RpcHandler<Req, Resp>: Send + Sync {
    /// Whether the server (and the node it lives on) still serves. Checked
    /// under the execution lock before every request.
    fn alive(&self) -> bool;

    /// Handles one request. Never runs concurrently with itself on one
    /// endpoint.
    fn handle(&self, req: Req) -> Resp;
}

struct Endpoint<Req, Resp> {
    /// Held while a handler runs: the server's single core.
    exec: Mutex<()>,
    /// Casts that found `exec` taken, in arrival order.
    inbox: Mutex<VecDeque<Req>>,
    handler: Box<dyn RpcHandler<Req, Resp>>,
}

impl<Req, Resp> Endpoint<Req, Resp> {
    /// Runs every queued cast. The caller holds `exec`. The inbox lock is
    /// released before each handler runs: a handler may cast to a server
    /// whose own handler casts back here.
    fn drain(&self) {
        loop {
            let Some(req) = self.inbox.lock().pop_front() else {
                return;
            };
            if self.handler.alive() {
                self.handler.handle(req);
            }
        }
    }

    /// Queued casts, then `req`, then casts queued meanwhile. The caller
    /// holds `exec`. `None` if the endpoint is dead.
    fn run(&self, req: Req) -> Option<Resp> {
        self.drain();
        let resp = self.handler.alive().then(|| self.handler.handle(req));
        self.drain();
        resp
    }

    /// Runs after every release of `exec`: a cast queued between the
    /// holder's last drain and its unlock must not wait for the next
    /// caller. If the lock is taken again, that holder drains (and runs
    /// this after its own release).
    fn pump(&self) {
        while !self.inbox.lock().is_empty() {
            let Some(_exec) = self.exec.try_lock() else {
                return;
            };
            self.drain();
        }
    }
}

/// A cheap, clonable handle on a server endpoint.
pub struct RpcClient<Req, Resp>(Arc<Endpoint<Req, Resp>>);

impl<Req, Resp> Clone for RpcClient<Req, Resp> {
    fn clone(&self) -> Self {
        RpcClient(Arc::clone(&self.0))
    }
}

impl<Req, Resp> RpcClient<Req, Resp> {
    /// Creates the endpoint of a server and returns the handle clients
    /// (and peer servers) call it through.
    pub fn serve(handler: impl RpcHandler<Req, Resp> + 'static) -> Self {
        RpcClient(Arc::new(Endpoint {
            exec: Mutex::new(()),
            inbox: Mutex::new(VecDeque::new()),
            handler: Box::new(handler),
        }))
    }

    /// Runs the server's handler for `req` on this thread, after any
    /// queued casts, and returns its reply.
    pub fn call(&self, req: Req) -> Result<Resp> {
        let ep = &*self.0;
        let resp = {
            let _exec = ep.exec.lock();
            ep.run(req)
        };
        ep.pump();
        resp.ok_or(RdmaError::RpcClosed)
    }

    /// Fire-and-forget request: no reply, and no waiting for the server's
    /// execution lock. Used for asynchronous replication flows that on
    /// real hardware are one-sided `RDMA_WRITE`s (Meta Area replication,
    /// §3.1). Handled in place when the server is idle, otherwise queued
    /// for whoever holds the lock; either way before the sender's next
    /// request to this endpoint.
    pub fn cast(&self, req: Req) -> Result<()> {
        let ep = &*self.0;
        let served = match ep.exec.try_lock() {
            Some(_exec) => ep.run(req).is_some(),
            None => {
                let alive = ep.handler.alive();
                if alive {
                    ep.inbox.lock().push_back(req);
                }
                alive
            }
        };
        ep.pump();
        served.then_some(()).ok_or(RdmaError::RpcClosed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// A handler from a closure, with a liveness switch and a run count.
    struct Fake<F> {
        alive: AtomicBool,
        runs: AtomicUsize,
        f: F,
    }

    impl<F> Fake<F> {
        fn new(f: F) -> Arc<Self> {
            Arc::new(Fake {
                alive: AtomicBool::new(true),
                runs: AtomicUsize::new(0),
                f,
            })
        }
    }

    impl<Req, Resp, F: Fn(Req) -> Resp + Send + Sync> RpcHandler<Req, Resp> for Arc<Fake<F>> {
        fn alive(&self) -> bool {
            self.alive.load(Ordering::SeqCst)
        }
        fn handle(&self, req: Req) -> Resp {
            self.runs.fetch_add(1, Ordering::SeqCst);
            (self.f)(req)
        }
    }

    #[test]
    fn call_runs_the_handler_on_the_callers_thread() {
        let cl = RpcClient::serve(Fake::new(|v: u32| (v * 2, std::thread::current().id())));
        assert_eq!(cl.call(21).unwrap(), (42, std::thread::current().id()));
    }

    #[test]
    fn dead_endpoint_answers_closed_without_running_the_handler() {
        let fake = Fake::new(|v: u32| v);
        let cl = RpcClient::serve(Arc::clone(&fake));
        assert_eq!(cl.call(1).unwrap(), 1);
        fake.alive.store(false, Ordering::SeqCst);
        assert!(matches!(cl.call(2), Err(RdmaError::RpcClosed)));
        assert!(matches!(cl.cast(3), Err(RdmaError::RpcClosed)));
        assert_eq!(fake.runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn handlers_of_one_endpoint_never_overlap() {
        let inside = Arc::new(AtomicUsize::new(0));
        let overlaps = Arc::new(AtomicUsize::new(0));
        let fake = {
            let (inside, overlaps) = (Arc::clone(&inside), Arc::clone(&overlaps));
            Fake::new(move |v: u64| {
                if inside.fetch_add(1, Ordering::SeqCst) != 0 {
                    overlaps.fetch_add(1, Ordering::SeqCst);
                }
                std::thread::yield_now();
                inside.fetch_sub(1, Ordering::SeqCst);
                v
            })
        };
        let cl = RpcClient::serve(Arc::clone(&fake));
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (cl, start) = (cl.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..20_000 {
                        // Casts too: they run in place or on the other
                        // thread's drain, still under the lock.
                        if i % 3 == 0 {
                            cl.cast(i).unwrap();
                        } else {
                            assert_eq!(cl.call(t << 32 | i).unwrap(), t << 32 | i);
                        }
                    }
                });
            }
        });
        assert_eq!(overlaps.load(Ordering::SeqCst), 0);
        assert_eq!(fake.runs.load(Ordering::SeqCst), 40_000);
    }

    #[test]
    fn cast_then_call_are_handled_in_that_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let (entered_tx, entered_rx) = mpsc::channel();
        let (leave_tx, leave_rx) = mpsc::channel::<()>();
        let fake = {
            let log = Arc::clone(&log);
            let (entered_tx, leave_rx) = (Mutex::new(entered_tx), Mutex::new(leave_rx));
            Fake::new(move |v: u32| {
                if v == 0 {
                    // The blocker: hold the execution lock until told.
                    entered_tx.lock().send(()).unwrap();
                    leave_rx.lock().recv().unwrap();
                }
                log.lock().push(v);
            })
        };
        let cl = RpcClient::serve(Arc::clone(&fake));

        // Idle endpoint: the cast is handled in place.
        cl.cast(1).unwrap();
        cl.call(2).unwrap();
        assert_eq!(*log.lock(), [1, 2]);

        // Busy endpoint: the casts take the inbox path and return at once;
        // the sender's call then waits for the lock and must find both
        // casts handled before it, in order.
        std::thread::scope(|s| {
            let blocker = cl.clone();
            s.spawn(move || blocker.call(0).unwrap());
            entered_rx.recv().unwrap();
            cl.cast(3).unwrap();
            cl.cast(4).unwrap();
            assert_eq!(*log.lock(), [1, 2], "casts must not wait for the lock");
            leave_tx.send(()).unwrap();
            cl.call(5).unwrap();
        });
        assert_eq!(*log.lock(), [1, 2, 0, 3, 4, 5]);
    }

    /// What the ring's endpoints exchange.
    enum Ring {
        /// A client call: the handler replicates to both right neighbours.
        Put,
        /// The replication cast.
        Note,
    }

    struct RingServer {
        col: usize,
        peers: Arc<std::sync::OnceLock<Vec<RpcClient<Ring, ()>>>>,
        notes: Arc<AtomicU64>,
    }

    impl RpcHandler<Ring, ()> for RingServer {
        fn alive(&self) -> bool {
            true
        }
        fn handle(&self, req: Ring) {
            match req {
                Ring::Put => {
                    let peers = self.peers.get().expect("ring built");
                    for d in [1, 2] {
                        peers[(self.col + d) % peers.len()]
                            .cast(Ring::Note)
                            .unwrap();
                    }
                }
                Ring::Note => {
                    self.notes.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
    }

    #[test]
    fn ring_of_casting_servers_terminates_with_every_cast_handled_once() {
        const N: usize = 5;
        const CALLS: u64 = 10_000;
        let peers = Arc::new(std::sync::OnceLock::new());
        let notes: Vec<Arc<AtomicU64>> = (0..N).map(|_| Arc::default()).collect();
        let ring: Vec<RpcClient<Ring, ()>> = (0..N)
            .map(|col| {
                RpcClient::serve(RingServer {
                    col,
                    peers: Arc::clone(&peers),
                    notes: Arc::clone(&notes[col]),
                })
            })
            .collect();
        assert!(peers.set(ring.clone()).is_ok());

        let (done_tx, done_rx) = mpsc::channel();
        let workers: Vec<_> = (0..N)
            .map(|col| {
                let (cl, done_tx) = (ring[col].clone(), done_tx.clone());
                std::thread::spawn(move || {
                    for _ in 0..CALLS {
                        cl.call(Ring::Put).unwrap();
                    }
                    done_tx.send(()).unwrap();
                })
            })
            .collect();
        for _ in 0..N {
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("ring deadlocked: a cast waited for an execution lock");
        }
        for w in workers {
            w.join().unwrap();
        }
        // Every thread has returned, so every holder has pumped: nothing
        // may be left in an inbox, and each endpoint saw the casts of its
        // two left neighbours exactly once.
        for (col, n) in notes.iter().enumerate() {
            assert!(ring[col].0.inbox.lock().is_empty());
            assert_eq!(n.load(Ordering::SeqCst), 2 * CALLS, "endpoint {col}");
        }
    }
}
