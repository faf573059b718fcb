//! Verb accounting: the raw material of the performance model.
//!
//! Every verb issued through a [`crate::verbs::DmClient`] is counted twice:
//! once in the issuing client's current [`OpRecord`] (to build
//! per-operation profiles and latency distributions) and once against the
//! target memory node (to model NIC saturation and the interference of
//! background traffic such as checkpoint transmission). The [`crate::cost`] module consumes these
//! counters; nothing here touches wall-clock time, so results are
//! deterministic under a fixed seed.

use std::sync::atomic::{AtomicU64, Ordering};

/// The kind of KV operation a profile record describes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// Insert of a fresh key.
    Insert,
    /// Update of an existing key.
    Update,
    /// Point lookup.
    Search,
    /// Deletion.
    Delete,
}

impl OpKind {
    /// All four kinds, in the paper's figure order.
    pub const ALL: [OpKind; 4] = [
        OpKind::Insert,
        OpKind::Update,
        OpKind::Search,
        OpKind::Delete,
    ];

    /// The paper's label for the operation.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Insert => "INSERT",
            OpKind::Update => "UPDATE",
            OpKind::Search => "SEARCH",
            OpKind::Delete => "DELETE",
        }
    }
}

/// Monotonic counters of verbs and bytes, shared by reference.
///
/// One instance exists per memory node; background (server-initiated)
/// traffic is kept in a separate instance per node so the cost model can
/// subtract it from foreground capacity.
#[derive(Default)]
pub struct VerbCounters {
    /// Number of one-sided READ verbs.
    pub reads: AtomicU64,
    /// Number of one-sided WRITE verbs.
    pub writes: AtomicU64,
    /// Number of CAS verbs.
    pub cas: AtomicU64,
    /// Number of FAA verbs.
    pub faa: AtomicU64,
    /// Number of RPC round trips (two-sided).
    pub rpcs: AtomicU64,
    /// Bytes moved node→client.
    pub read_bytes: AtomicU64,
    /// Bytes moved client→node (including RPC payloads).
    pub write_bytes: AtomicU64,
    /// Of the small verbs (reads + writes + faa), how many were posted
    /// inside a doorbell batch. Batched WQEs amortize posting overhead, so
    /// the cost model charges them a discounted IOPS cost.
    pub batched: AtomicU64,
}

impl VerbCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets every counter to zero (start of a measurement phase).
    pub fn reset(&self) {
        for c in [
            &self.reads,
            &self.writes,
            &self.cas,
            &self.faa,
            &self.rpcs,
            &self.read_bytes,
            &self.write_bytes,
            &self.batched,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Takes a plain-value snapshot of the counters.
    pub fn snapshot(&self) -> VerbSnapshot {
        VerbSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            cas: self.cas.load(Ordering::Relaxed),
            faa: self.faa.load(Ordering::Relaxed),
            rpcs: self.rpcs.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
            batched: self.batched.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`VerbCounters`].
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct VerbSnapshot {
    /// Number of one-sided READ verbs.
    pub reads: u64,
    /// Number of one-sided WRITE verbs.
    pub writes: u64,
    /// Number of CAS verbs.
    pub cas: u64,
    /// Number of FAA verbs.
    pub faa: u64,
    /// Number of RPC round trips.
    pub rpcs: u64,
    /// Bytes moved node→client.
    pub read_bytes: u64,
    /// Bytes moved client→node.
    pub write_bytes: u64,
    /// Small verbs (reads + writes + faa) posted inside a doorbell batch.
    pub batched: u64,
}

impl VerbSnapshot {
    /// Total small-verb count (reads + writes + faa; CAS is counted in its
    /// own, scarcer resource pool — PCIe read-modify-write transactions).
    pub fn verbs(&self) -> u64 {
        self.reads + self.writes + self.faa
    }

    /// Total bytes in both directions.
    pub fn bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Element-wise difference `self - earlier` (for phase deltas).
    pub fn since(&self, earlier: &VerbSnapshot) -> VerbSnapshot {
        VerbSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            cas: self.cas - earlier.cas,
            faa: self.faa - earlier.faa,
            rpcs: self.rpcs - earlier.rpcs,
            read_bytes: self.read_bytes - earlier.read_bytes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            batched: self.batched - earlier.batched,
        }
    }

    /// Element-wise sum.
    pub fn plus(&self, other: &VerbSnapshot) -> VerbSnapshot {
        VerbSnapshot {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            cas: self.cas + other.cas,
            faa: self.faa + other.faa,
            rpcs: self.rpcs + other.rpcs,
            read_bytes: self.read_bytes + other.read_bytes,
            write_bytes: self.write_bytes + other.write_bytes,
            batched: self.batched + other.batched,
        }
    }
}

/// Profile of one completed KV operation, recorded by the issuing client.
///
/// `rtts` counts *sequential* network round trips: verbs issued inside a
/// doorbell batch share one round trip, retries add more. The latency model
/// multiplies this by the base RTT and adds queueing delay.
#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    /// Which API call this was.
    pub kind: OpKind,
    /// Sequential round trips (includes retries).
    pub rtts: u32,
    /// Total verbs issued (reads + writes + cas + faa).
    pub verbs: u32,
    /// CAS verbs issued.
    pub cas: u32,
    /// RPC round trips issued.
    pub rpcs: u32,
    /// Bytes read.
    pub read_bytes: u32,
    /// Bytes written.
    pub write_bytes: u32,
    /// Commit retries caused by CAS conflicts.
    pub retries: u32,
    /// Deepest doorbell batch issued by this operation (verbs in the
    /// largest single [`crate::verbs::DmClient::batch`] section; 0 when
    /// the op never batched). Observability surfaces this per span.
    pub batch_max: u32,
    /// Number of doorbell batches this operation posted (each contributes
    /// exactly one sequential round trip regardless of its verb count).
    pub batches: u32,
    /// Total verbs posted inside those batches. Together with `batches`,
    /// this lets the cost model charge chained WQEs a per-post overhead
    /// instead of a full round trip each.
    pub batched_verbs: u32,
}

/// Per-client accumulation of operation profiles for one measurement phase.
#[derive(Default)]
pub struct OpStats {
    /// All completed operation records, in completion order.
    pub records: Vec<OpRecord>,
}

impl OpStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears accumulated records.
    pub fn reset(&mut self) {
        self.records.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta() {
        let c = VerbCounters::new();
        c.reads.store(10, Ordering::Relaxed);
        c.read_bytes.store(1000, Ordering::Relaxed);
        let a = c.snapshot();
        c.reads.store(15, Ordering::Relaxed);
        c.read_bytes.store(1600, Ordering::Relaxed);
        let d = c.snapshot().since(&a);
        assert_eq!(d.reads, 5);
        assert_eq!(d.read_bytes, 600);
    }

    #[test]
    fn reset_zeroes() {
        let c = VerbCounters::new();
        c.cas.store(3, Ordering::Relaxed);
        c.reset();
        assert_eq!(c.snapshot(), VerbSnapshot::default());
    }

    // The cost model sums per-node counters across concurrent clients; these
    // tests pin down that accounting under real thread interleavings.
    mod concurrent {
        use super::*;
        use crate::addr::{GlobalAddr, NodeId};
        use crate::cluster::{Cluster, ClusterConfig};
        use crate::cost::CostModel;
        use std::sync::Arc;

        const CLIENTS: usize = 4;
        const ROUNDS: u64 = 50;

        fn cluster() -> Arc<Cluster> {
            Cluster::new(ClusterConfig {
                num_mns: 2,
                region_len: 1 << 16,
                cost: CostModel::default(),
            })
        }

        /// Node counters sum what every client issued, verb by verb and
        /// byte by byte, when clients hammer both nodes in parallel.
        #[test]
        fn node_counters_sum_client_counters() {
            let c = cluster();
            std::thread::scope(|s| {
                for i in 0..CLIENTS {
                    let c = Arc::clone(&c);
                    s.spawn(move || {
                        let cl = c.client();
                        // Each client gets a private 512-byte lane so the
                        // verbs are conflict-free data races aside.
                        let lane = (i as u64) * 512;
                        for n in 0..2u16 {
                            let base = GlobalAddr::new(NodeId(n), lane);
                            for r in 0..ROUNDS {
                                cl.write(base, &[r as u8; 32]).unwrap();
                                let _ = cl.read_vec(base, 32).unwrap();
                                let _ = cl.faa(base.add(64), 1).unwrap();
                                let _ = cl.cas(base.add(72), r, r + 1).unwrap();
                            }
                        }
                    });
                }
            });

            let node_total = c.nodes().iter().fold(VerbSnapshot::default(), |acc, n| {
                acc.plus(&n.traffic.snapshot())
            });
            let verbs_per_client = 2 * ROUNDS; // writes per node
            assert_eq!(node_total.writes, CLIENTS as u64 * verbs_per_client);
            assert_eq!(node_total.reads, CLIENTS as u64 * verbs_per_client);
            assert_eq!(node_total.faa, CLIENTS as u64 * verbs_per_client);
            assert_eq!(node_total.cas, CLIENTS as u64 * verbs_per_client);
            assert_eq!(
                node_total.write_bytes,
                CLIENTS as u64 * verbs_per_client * (32 + 8 + 8)
            );
            assert_eq!(
                node_total.read_bytes,
                CLIENTS as u64 * verbs_per_client * (32 + 8 + 8)
            );
        }

        /// Per-operation profiles (round trips = dependency depth, batched
        /// verbs share one RTT) stay exact per client under concurrency.
        #[test]
        fn op_profiles_stay_per_client_under_concurrency() {
            let c = cluster();
            std::thread::scope(|s| {
                for i in 0..CLIENTS {
                    let c = Arc::clone(&c);
                    s.spawn(move || {
                        let cl = c.client();
                        let base = GlobalAddr::new(NodeId(0), (i as u64) * 512);
                        for _ in 0..ROUNDS {
                            cl.begin_op();
                            // One doorbell batch (1 RTT) + one dependent CAS
                            // (1 RTT): dependency depth 2.
                            cl.batch(|cl| {
                                cl.write(base, &[1u8; 64]).unwrap();
                                cl.write(base.add(64), &[2u8; 64]).unwrap();
                            });
                            let _ = cl.cas(base.add(128), 0, 1).unwrap();
                            cl.end_op(OpKind::Update);
                        }
                        let ops = cl.take_ops();
                        assert_eq!(ops.records.len(), ROUNDS as usize);
                        for r in &ops.records {
                            assert_eq!(r.rtts, 2, "batch + dependent CAS");
                            assert_eq!(r.verbs, 3);
                            assert_eq!(r.cas, 1);
                            assert_eq!(r.write_bytes, 64 + 64 + 8);
                            assert_eq!(r.batch_max, 2, "two writes in the doorbell batch");
                            assert_eq!((r.batches, r.batched_verbs), (1, 2));
                        }
                    });
                }
            });
        }

        /// Background clients never leak into foreground counters (and vice
        /// versa) even when both hit the same node concurrently.
        #[test]
        fn foreground_background_split_is_exact() {
            let c = cluster();
            std::thread::scope(|s| {
                let fg = {
                    let c = Arc::clone(&c);
                    s.spawn(move || {
                        let cl = c.client();
                        for r in 0..ROUNDS {
                            cl.write(GlobalAddr::new(NodeId(0), 0), &[r as u8; 16])
                                .unwrap();
                        }
                    })
                };
                let bg = {
                    let c = Arc::clone(&c);
                    s.spawn(move || {
                        let cl = c.background_client();
                        for _ in 0..ROUNDS {
                            let _ = cl.read_vec(GlobalAddr::new(NodeId(0), 1024), 256).unwrap();
                        }
                    })
                };
                fg.join().unwrap();
                bg.join().unwrap();
            });
            let node = c.node(NodeId(0)).unwrap();
            let t = node.traffic.snapshot();
            let b = node.background.snapshot();
            assert_eq!((t.writes, t.reads), (ROUNDS, 0));
            assert_eq!((b.writes, b.reads), (0, ROUNDS));
            assert_eq!(t.write_bytes, ROUNDS * 16);
            assert_eq!(b.read_bytes, ROUNDS * 256);
        }
    }
}
