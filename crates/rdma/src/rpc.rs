//! Typed RPC standing in for RDMA UD send/recv queue pairs: caller-runs
//! server endpoints.
//!
//! Aceso's clients talk to MN servers over RDMA unreliable-datagram RPC for
//! coarse-grained management (block allocation, block-filled notifications,
//! free-bitmap flushes). The paper's model charges that RPC a round trip
//! and nothing else, so the stand-in costs a function call: there is no
//! server thread and no channel. An [`RpcClient`] is a handle on the
//! server's *endpoint* — an execution lock and the server's
//! [`RpcHandler`] — and a call runs the handler on the caller's thread
//! under the execution lock. Cost accounting, fault injection and tracing
//! happen in [`crate::verbs::DmClient::rpc`], not here.
//!
//! * **One MN core.** The execution lock is what the single server thread
//!   used to be: handlers of one endpoint never overlap.
//! * **Liveness.** Every request is checked against
//!   [`RpcHandler::alive`] under the lock; a dead endpoint answers
//!   [`RdmaError::RpcClosed`] and never runs its handler.
//! * **No lock ring.** A handler may call another server (a checkpoint
//!   round sends its delta to the right neighbour, one column at a time),
//!   but what servers push to each other on every record change — the
//!   Meta Area replicas — are one-sided WRITEs, which take no execution
//!   lock.
//! * **Panics.** A panicking handler unwinds into the caller that ran it
//!   (it used to kill a server thread silently); the lock is released on
//!   the way out and the endpoint keeps serving.

use crate::error::{RdmaError, Result};
use parking_lot::Mutex;
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
    handler: Box<dyn RpcHandler<Req, Resp>>,
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
            handler: Box::new(handler),
        }))
    }

    /// Runs the server's handler for `req` on this thread and returns its
    /// reply.
    pub fn call(&self, req: Req) -> Result<Resp> {
        let ep = &*self.0;
        let _exec = ep.exec.lock();
        let resp = ep.handler.alive().then(|| ep.handler.handle(req));
        resp.ok_or(RdmaError::RpcClosed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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
                        assert_eq!(cl.call(t << 32 | i).unwrap(), t << 32 | i);
                    }
                });
            }
        });
        assert_eq!(overlaps.load(Ordering::SeqCst), 0);
        assert_eq!(fake.runs.load(Ordering::SeqCst), 40_000);
    }
}
