//! The reliable master and its lease-based membership service.
//!
//! Following the paper (§2.1, §3.4), a reliable master maintains a
//! membership view of all memory nodes, detects fail-stop crashes, and
//! disseminates failure notifications to clients. Master fault tolerance
//! (state-machine replication) is out of scope, as in the paper.

use crate::addr::NodeId;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::mpsc::{channel, Receiver, Sender};

/// A membership change broadcast to subscribers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureEvent {
    /// A memory node crashed (fail-stop: its memory contents are lost).
    NodeFailed(NodeId),
    /// A fresh memory node joined (e.g. the recovery target).
    NodeJoined(NodeId),
    /// A memory node was retired after a planned drain: its contents were
    /// re-encoded elsewhere first, so subscribers must *not* trigger
    /// recovery (contrast [`FailureEvent::NodeFailed`]).
    NodeDrained(NodeId),
}

/// A point-in-time view of cluster membership.
#[derive(Clone, Debug)]
pub struct MembershipView {
    /// Monotone view number; bumped on every membership change.
    pub epoch: u64,
    /// Ids of currently alive memory nodes, ascending.
    pub alive: Vec<NodeId>,
}

struct MasterInner {
    epoch: u64,
    alive: BTreeSet<NodeId>,
    subscribers: Vec<Sender<FailureEvent>>,
}

/// The cluster master: tracks which memory nodes hold a live lease and
/// notifies subscribed clients of failures.
pub struct Master {
    inner: Mutex<MasterInner>,
}

impl Default for Master {
    fn default() -> Self {
        Self::new()
    }
}

impl Master {
    /// Creates a master with an empty membership.
    pub fn new() -> Self {
        Master {
            inner: Mutex::new(MasterInner {
                epoch: 0,
                alive: BTreeSet::new(),
                subscribers: Vec::new(),
            }),
        }
    }

    /// Registers a node as alive (called by the cluster on node start).
    pub fn register(&self, node: NodeId) {
        let mut g = self.inner.lock();
        if g.alive.insert(node) {
            g.epoch += 1;
            g.subscribers
                .retain(|s| s.send(FailureEvent::NodeJoined(node)).is_ok());
        }
    }

    /// Marks a node's lease as expired and broadcasts the failure.
    pub fn mark_failed(&self, node: NodeId) {
        let mut g = self.inner.lock();
        if g.alive.remove(&node) {
            g.epoch += 1;
            g.subscribers
                .retain(|s| s.send(FailureEvent::NodeFailed(node)).is_ok());
        }
    }

    /// Retires a node's lease after a planned drain and broadcasts
    /// [`FailureEvent::NodeDrained`]. Like a failure the node leaves the
    /// alive set and the epoch advances, but the event tells subscribers
    /// the contents were moved, not lost.
    pub fn mark_drained(&self, node: NodeId) {
        let mut g = self.inner.lock();
        if g.alive.remove(&node) {
            g.epoch += 1;
            g.subscribers
                .retain(|s| s.send(FailureEvent::NodeDrained(node)).is_ok());
        }
    }

    /// Returns whether `node` currently holds a lease.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.inner.lock().alive.contains(&node)
    }

    /// Returns the current membership view.
    pub fn view(&self) -> MembershipView {
        let g = self.inner.lock();
        MembershipView {
            epoch: g.epoch,
            alive: g.alive.iter().copied().collect(),
        }
    }

    /// Subscribes to future membership events.
    ///
    /// Events that occurred before the subscription are not replayed; callers
    /// should reconcile against [`Master::view`] after subscribing.
    pub fn subscribe(&self) -> Receiver<FailureEvent> {
        let (tx, rx) = channel();
        self.inner.lock().subscribers.push(tx);
        rx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_fail() {
        let m = Master::new();
        m.register(NodeId(0));
        m.register(NodeId(1));
        assert!(m.is_alive(NodeId(0)));
        let v = m.view();
        assert_eq!(v.alive.len(), 2);

        m.mark_failed(NodeId(0));
        assert!(!m.is_alive(NodeId(0)));
        assert!(m.is_alive(NodeId(1)));
        assert!(m.view().epoch > v.epoch);
    }

    #[test]
    fn double_fail_is_idempotent() {
        let m = Master::new();
        m.register(NodeId(0));
        let e1 = m.view().epoch;
        m.mark_failed(NodeId(0));
        let e2 = m.view().epoch;
        m.mark_failed(NodeId(0));
        assert_eq!(m.view().epoch, e2);
        assert!(e2 > e1);
    }

    #[test]
    fn drain_retires_lease_with_distinct_event() {
        let m = Master::new();
        let rx = m.subscribe();
        m.register(NodeId(2));
        let e1 = m.view().epoch;
        m.mark_drained(NodeId(2));
        assert!(!m.is_alive(NodeId(2)));
        assert!(m.view().epoch > e1);
        // Idempotent, like mark_failed.
        let e2 = m.view().epoch;
        m.mark_drained(NodeId(2));
        assert_eq!(m.view().epoch, e2);
        assert_eq!(rx.recv().unwrap(), FailureEvent::NodeJoined(NodeId(2)));
        assert_eq!(rx.recv().unwrap(), FailureEvent::NodeDrained(NodeId(2)));
    }

    #[test]
    fn subscribers_receive_events() {
        let m = Master::new();
        let rx = m.subscribe();
        m.register(NodeId(7));
        m.mark_failed(NodeId(7));
        assert_eq!(rx.recv().unwrap(), FailureEvent::NodeJoined(NodeId(7)));
        assert_eq!(rx.recv().unwrap(), FailureEvent::NodeFailed(NodeId(7)));
    }
}
