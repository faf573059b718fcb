//! Analytic NIC cost model: turns measured verb profiles into figures.
//!
//! The paper's performance arguments are *resource-bound* arguments:
//!
//! * small writes and atomics are bound by the RNIC's IOPS and PCIe
//!   read-modify-write budget (its Figure 1a shows write throughput falling
//!   as the replica count multiplies the CAS count);
//! * large reads are bound by NIC bandwidth (its §2.4 notes the pronounced
//!   read/write asymmetry);
//! * background checkpoint transmission steals bandwidth from foreground
//!   SEARCHes (its Figure 1b).
//!
//! Accordingly, throughput is computed as the tightest of four bounds, each
//! evaluated from the *measured* per-operation demand of a benchmark phase:
//!
//! 1. per-node small-verb IOPS,
//! 2. per-node atomic-verb (CAS/FAA) rate — scarcer than plain verbs because
//!    each atomic serializes a PCIe RMW transaction on the host bridge,
//! 3. per-node NIC bandwidth net of background traffic,
//! 4. the clients' closed-loop round-trip bound (coroutines × clients / mean
//!    operation latency).
//!
//! Latency percentiles come from the per-operation profile distribution
//! (sequential round trips including CAS retries) plus an M/M/1-style
//! queueing term whose randomness is a deterministic hash of the operation
//! index, so every report is reproducible bit-for-bit.
//!
//! Calibration: the default constants approximate one 56 Gbps ConnectX-3
//! port (the paper's testbed). They were fixed once against the paper's
//! Figure 1 and are shared by every other figure; see `EXPERIMENTS.md`.

use crate::stats::{OpKind, OpRecord, VerbSnapshot};

/// NIC and client performance constants.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Base one-sided verb round trip in microseconds.
    pub rtt_us: f64,
    /// Two-sided RPC round trip in microseconds.
    pub rpc_rtt_us: f64,
    /// Per-MN NIC bandwidth in bytes/second.
    pub node_bw: f64,
    /// Per-MN small-verb capacity (READ/WRITE/FAA) in verbs/second.
    pub node_iops: f64,
    /// Per-MN atomic capacity (CAS/FAA PCIe RMW) in verbs/second.
    pub node_atomic_iops: f64,
    /// Outstanding operations per client (coroutine depth).
    pub client_pipeline: f64,
    /// Utilization cap applied in the latency queueing term. Closed-loop
    /// clients cannot build unbounded queues, so waiting time is evaluated
    /// at `min(utilization, queue_cap)`.
    pub queue_cap: f64,
    /// Per-WQE posting overhead inside a doorbell batch, in microseconds.
    /// Verbs chained behind the first WQE of a batch skip the full round
    /// trip but still pay this SQ-processing cost, so batch latency grows
    /// gently with depth instead of staying flat.
    pub post_us: f64,
    /// IOPS cost of a doorbell-batched verb relative to a singly-posted
    /// one (0..=1). One doorbell rings for the whole chain, so the NIC
    /// amortizes descriptor fetch across the batch; 1.0 disables the
    /// discount.
    pub batched_verb_cost: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            rtt_us: 3.0,
            rpc_rtt_us: 8.0,
            node_bw: 6.9e9,
            node_iops: 19.0e6,
            node_atomic_iops: 2.6e6,
            client_pipeline: 4.0,
            queue_cap: 0.85,
            post_us: 0.15,
            batched_verb_cost: 0.6,
        }
    }
}

/// Which resource limited a phase's throughput.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Bottleneck {
    /// Closed-loop client round trips.
    ClientRtt,
    /// Small-verb IOPS on the given node (cluster index).
    NodeIops(usize),
    /// Atomic-verb rate on the given node.
    NodeAtomics(usize),
    /// NIC bandwidth on the given node.
    NodeBandwidth(usize),
}

impl Bottleneck {
    /// Short human-readable label.
    pub fn label(&self) -> String {
        match self {
            Bottleneck::ClientRtt => "client-rtt".into(),
            Bottleneck::NodeIops(n) => format!("iops@mn{n}"),
            Bottleneck::NodeAtomics(n) => format!("atomics@mn{n}"),
            Bottleneck::NodeBandwidth(n) => format!("bw@mn{n}"),
        }
    }
}

/// Latency percentiles for a set of operations, in microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyReport {
    /// Mean latency.
    pub mean_us: f64,
    /// Median latency.
    pub p50_us: f64,
    /// 99th-percentile latency.
    pub p99_us: f64,
}

/// Everything measured during one benchmark phase.
pub struct PhaseMeasurement {
    /// Number of client threads driving load.
    pub n_clients: usize,
    /// Foreground verb demand accumulated at each node during the phase.
    pub node_fg: Vec<VerbSnapshot>,
    /// Sustained background traffic per node in bytes/second (checkpoint
    /// transmission, offline encoding reads, recovery), subtracted from the
    /// bandwidth bound.
    pub bg_bytes_per_sec: Vec<f64>,
    /// Concatenated per-operation profiles from all clients.
    pub records: Vec<OpRecord>,
    /// Measured overlap depth per client thread, when the phase ran on the
    /// coroutine runtime (`aceso-rt`): total modeled fabric wait divided by
    /// virtual elapsed time (see `aceso_rdma::cq::SimCq::busy_us`). `None`
    /// falls back to the calibrated [`CostModel::client_pipeline`]
    /// constant, keeping legacy phases bit-identical.
    pub pipeline_depth: Option<f64>,
}

impl PhaseMeasurement {
    /// Number of profiled operations.
    pub fn ops(&self) -> u64 {
        self.records.len() as u64
    }
}

/// The model's verdict on a phase: throughput, bottleneck, latency.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// Achievable throughput in million operations per second.
    pub mops: f64,
    /// The binding resource.
    pub bottleneck: Bottleneck,
    /// Utilization of the most loaded NIC resource at the operating point
    /// (1.0 when a NIC resource is itself the bottleneck).
    pub utilization: f64,
    /// Latency over all operations in the phase.
    pub latency: LatencyReport,
}

/// SplitMix64: deterministic per-index randomness for the queueing term.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform in (0, 1] from a hash.
fn unit(x: u64) -> f64 {
    ((splitmix64(x) >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

impl CostModel {
    /// Base (uncontended) latency of one profiled operation in µs.
    ///
    /// A doorbell batch counts one round trip; every WQE chained behind the
    /// first adds [`CostModel::post_us`] of SQ processing on top.
    fn base_latency_us(&self, r: &OpRecord) -> f64 {
        let transfer = (r.read_bytes as f64 + r.write_bytes as f64) / self.node_bw * 1e6;
        let chained = r.batched_verbs.saturating_sub(r.batches) as f64;
        r.rtts as f64 * self.rtt_us
            + r.rpcs as f64 * self.rpc_rtt_us
            + chained * self.post_us
            + transfer
    }

    /// Small-verb demand with the doorbell discount applied: batched verbs
    /// cost [`CostModel::batched_verb_cost`] of a singly-posted one.
    fn effective_verbs(&self, d: &VerbSnapshot) -> f64 {
        let batched = d.batched.min(d.verbs()) as f64;
        d.verbs() as f64 - batched * (1.0 - self.batched_verb_cost)
    }

    /// Computes throughput bounds and picks the tightest.
    fn bounds(&self, m: &PhaseMeasurement) -> (f64, Bottleneck, f64) {
        let ops = m.ops().max(1) as f64;
        let mut best = f64::INFINITY;
        let mut which = Bottleneck::ClientRtt;

        for (i, d) in m.node_fg.iter().enumerate() {
            let verbs_per_op = self.effective_verbs(d) / ops;
            let atomics_per_op = (d.cas + d.faa) as f64 / ops;
            let bytes_per_op = d.bytes() as f64 / ops;
            let bg = m.bg_bytes_per_sec.get(i).copied().unwrap_or(0.0);
            let bw_avail = (self.node_bw - bg).max(self.node_bw * 0.02);

            if verbs_per_op > 0.0 {
                let x = self.node_iops / verbs_per_op;
                if x < best {
                    best = x;
                    which = Bottleneck::NodeIops(i);
                }
            }
            if atomics_per_op > 0.0 {
                let x = self.node_atomic_iops / atomics_per_op;
                if x < best {
                    best = x;
                    which = Bottleneck::NodeAtomics(i);
                }
            }
            if bytes_per_op > 0.0 {
                let x = bw_avail / bytes_per_op;
                if x < best {
                    best = x;
                    which = Bottleneck::NodeBandwidth(i);
                }
            }
        }

        // Client closed-loop bound at base (uncontended) latency.
        let mean_base = if m.records.is_empty() {
            self.rtt_us
        } else {
            m.records
                .iter()
                .map(|r| self.base_latency_us(r))
                .sum::<f64>()
                / m.records.len() as f64
        };
        let depth = m.pipeline_depth.unwrap_or(self.client_pipeline);
        let client_bound = m.n_clients as f64 * depth / (mean_base * 1e-6);
        if client_bound < best {
            best = client_bound;
            which = Bottleneck::ClientRtt;
        }

        // Utilization of the most loaded NIC resource at the operating point.
        let mut util: f64 = 0.0;
        for (i, d) in m.node_fg.iter().enumerate() {
            let bg = m.bg_bytes_per_sec.get(i).copied().unwrap_or(0.0);
            let u_iops = best * (self.effective_verbs(d) / ops) / self.node_iops;
            let u_atom = best * ((d.cas + d.faa) as f64 / ops) / self.node_atomic_iops;
            let u_bw = (best * (d.bytes() as f64 / ops) + bg) / self.node_bw;
            util = util.max(u_iops).max(u_atom).max(u_bw);
        }
        (best, which, util.min(1.0))
    }

    /// Full report for a phase.
    pub fn report(&self, m: &PhaseMeasurement) -> PhaseReport {
        let (x, which, util) = self.bounds(m);
        PhaseReport {
            mops: x / 1e6,
            bottleneck: which,
            utilization: util,
            latency: self.latency(m, None),
        }
    }

    /// Latency percentiles for operations of `filter` (or all operations).
    ///
    /// Per-op latency = base (round trips + transfer) + an exponential
    /// queueing term with mean `ρ/(1−ρ) · base_mean`, where ρ is the phase's
    /// NIC utilization capped at [`CostModel::queue_cap`]. The exponential
    /// draw is a deterministic hash of the operation index.
    pub fn latency(&self, m: &PhaseMeasurement, filter: Option<OpKind>) -> LatencyReport {
        let lat = self.latency_samples(m, filter);
        if lat.is_empty() {
            return LatencyReport::default();
        }
        let pick = |q: f64| lat[((lat.len() - 1) as f64 * q) as usize];
        LatencyReport {
            mean_us: lat.iter().sum::<f64>() / lat.len() as f64,
            p50_us: pick(0.50),
            p99_us: pick(0.99),
        }
    }

    /// The full modeled per-operation latency distribution behind
    /// [`CostModel::latency`], sorted ascending, in µs. Callers wanting
    /// percentiles beyond the standard report (e.g. p999 in `bench quick`)
    /// index this directly; the queueing draw is a deterministic hash of
    /// the operation index, so the samples are reproducible bit-for-bit.
    pub fn latency_samples(&self, m: &PhaseMeasurement, filter: Option<OpKind>) -> Vec<f64> {
        let sel: Vec<(usize, &OpRecord)> = m
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| filter.is_none_or(|k| r.kind == k))
            .collect();
        if sel.is_empty() {
            return Vec::new();
        }
        let (_, _, util) = self.bounds(m);
        let rho = util.min(self.queue_cap);
        let mean_base = sel
            .iter()
            .map(|(_, r)| self.base_latency_us(r))
            .sum::<f64>()
            / sel.len() as f64;
        let wait_mean = mean_base * rho / (1.0 - rho);

        let mut lat: Vec<f64> = sel
            .iter()
            .map(|(i, r)| {
                let w = -unit(*i as u64).ln() * wait_mean;
                self.base_latency_us(r) + w
            })
            .collect();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        lat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: OpKind, rtts: u32, cas: u32, rd: u32, wr: u32) -> OpRecord {
        OpRecord {
            kind,
            rtts,
            verbs: rtts,
            cas,
            rpcs: 0,
            read_bytes: rd,
            write_bytes: wr,
            retries: 0,
            batch_max: 0,
            batches: 0,
            batched_verbs: 0,
        }
    }

    fn demand(reads: u64, writes: u64, cas: u64, rd_b: u64, wr_b: u64) -> VerbSnapshot {
        VerbSnapshot {
            reads,
            writes,
            cas,
            faa: 0,
            rpcs: 0,
            read_bytes: rd_b,
            write_bytes: wr_b,
            batched: 0,
        }
    }

    /// A CAS-heavy phase must be atomic-bound and scale inversely with the
    /// CAS count per op — the paper's Figure 1a effect.
    #[test]
    fn cas_count_halves_throughput() {
        let model = CostModel::default();
        let mk = |cas_per_op: u64| PhaseMeasurement {
            n_clients: 200,
            node_fg: vec![demand(0, 1000, cas_per_op * 1000, 0, 1_024_000)],
            bg_bytes_per_sec: vec![0.0],
            records: (0..1000)
                .map(|_| {
                    rec(
                        OpKind::Update,
                        1 + cas_per_op as u32,
                        cas_per_op as u32,
                        0,
                        1024,
                    )
                })
                .collect(),
            pipeline_depth: None,
        };
        let r1 = model.report(&mk(1));
        let r3 = model.report(&mk(3));
        assert!(matches!(r3.bottleneck, Bottleneck::NodeAtomics(0)));
        let ratio = r1.mops / r3.mops;
        assert!((2.0..4.0).contains(&ratio), "ratio {ratio}");
    }

    /// Background checkpoint traffic must eat into a bandwidth-bound phase —
    /// the paper's Figure 1b effect.
    #[test]
    fn background_traffic_degrades_reads() {
        let model = CostModel::default();
        let mk = |bg: f64| PhaseMeasurement {
            n_clients: 200,
            node_fg: vec![demand(1000, 0, 0, 2_048_000, 0)],
            bg_bytes_per_sec: vec![bg],
            records: (0..1000)
                .map(|_| rec(OpKind::Search, 2, 0, 2048, 0))
                .collect(),
            pipeline_depth: None,
        };
        let quiet = model.report(&mk(0.0));
        let busy = model.report(&mk(2.0e9));
        assert!(matches!(quiet.bottleneck, Bottleneck::NodeBandwidth(0)));
        assert!(
            busy.mops < quiet.mops * 0.85,
            "{} vs {}",
            busy.mops,
            quiet.mops
        );
    }

    /// More sequential round trips means strictly higher latency.
    #[test]
    fn latency_tracks_rtts() {
        let model = CostModel::default();
        let m = PhaseMeasurement {
            n_clients: 8,
            node_fg: vec![demand(10, 10, 10, 1000, 1000)],
            bg_bytes_per_sec: vec![0.0],
            records: (0..500)
                .map(|i| {
                    if i % 2 == 0 {
                        rec(OpKind::Search, 2, 0, 1024, 0)
                    } else {
                        rec(OpKind::Update, 5, 3, 0, 1024)
                    }
                })
                .collect(),
            pipeline_depth: None,
        };
        let s = model.latency(&m, Some(OpKind::Search));
        let u = model.latency(&m, Some(OpKind::Update));
        assert!(u.p50_us > s.p50_us);
        assert!(u.p99_us >= u.p50_us);
        assert!(s.p99_us >= s.p50_us);
    }

    /// The report is deterministic: same inputs, same numbers.
    #[test]
    fn deterministic() {
        let model = CostModel::default();
        let mk = || PhaseMeasurement {
            n_clients: 16,
            node_fg: vec![demand(100, 100, 50, 100_000, 50_000)],
            bg_bytes_per_sec: vec![1e8],
            records: (0..200)
                .map(|i| rec(OpKind::Update, 2 + (i % 3), 1, 0, 1024))
                .collect(),
            pipeline_depth: None,
        };
        let a = model.report(&mk());
        let b = model.report(&mk());
        assert_eq!(a.mops, b.mops);
        assert_eq!(a.latency.p99_us, b.latency.p99_us);
        // The raw sample vector is sorted, complete, and agrees with the
        // percentiles the report picked from it.
        let s = model.latency_samples(&mk(), None);
        assert_eq!(s.len(), 200);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(s[(199.0 * 0.99) as usize], a.latency.p99_us);
    }

    /// Coalescing dependent writes into a doorbell batch must lower modeled
    /// latency (fewer sequential round trips, small per-post tax) and relax
    /// an IOPS-bound phase (batched verbs cost less than singly-posted ones).
    #[test]
    fn doorbell_batching_cuts_latency_and_iops_demand() {
        let model = CostModel::default();
        // Serial schedule: 3 dependent small writes, 3 RTTs, nothing batched.
        let serial = |_: u64| rec(OpKind::Update, 3, 0, 0, 192);
        // Batched schedule: the same 3 writes in one doorbell, 1 RTT.
        let batched = |_: u64| OpRecord {
            batches: 1,
            batched_verbs: 3,
            batch_max: 3,
            ..rec(OpKind::Update, 1, 0, 0, 192)
        };
        let mk = |f: &dyn Fn(u64) -> OpRecord, batched_demand: u64| PhaseMeasurement {
            n_clients: 200,
            node_fg: vec![VerbSnapshot {
                batched: batched_demand,
                ..demand(0, 3000, 0, 0, 192_000)
            }],
            bg_bytes_per_sec: vec![0.0],
            records: (0..1000).map(f).collect(),
            pipeline_depth: None,
        };
        let s = mk(&serial, 0);
        let b = mk(&batched, 3000);
        let ls = model.latency(&s, None);
        let lb = model.latency(&b, None);
        assert!(lb.p50_us < ls.p50_us, "{} vs {}", lb.p50_us, ls.p50_us);
        assert!(lb.p99_us < ls.p99_us, "{} vs {}", lb.p99_us, ls.p99_us);
        // The chained WQEs still cost something: deeper than 1 RTT flat.
        let one = mk(&|_| rec(OpKind::Update, 1, 0, 0, 1024), 0);
        assert!(model.latency(&one, None).p50_us < lb.p50_us);
        // Effective IOPS demand shrinks by the batched-verb discount.
        let rs = model.report(&s);
        let rb = model.report(&b);
        assert!(rb.mops > rs.mops, "{} vs {}", rb.mops, rs.mops);
    }

    /// A measured overlap depth must replace the calibrated pipelining
    /// constant in the client bound: doubling the depth doubles a
    /// client-bound phase's throughput, and `None` reproduces the legacy
    /// constant exactly.
    #[test]
    fn measured_pipeline_depth_overrides_constant() {
        let model = CostModel::default();
        let mk = |depth: Option<f64>| PhaseMeasurement {
            n_clients: 1,
            node_fg: vec![demand(100, 0, 0, 100_000, 0)],
            bg_bytes_per_sec: vec![0.0],
            records: (0..100).map(|_| rec(OpKind::Search, 2, 0, 1024, 0)).collect(),
            pipeline_depth: depth,
        };
        let legacy = model.report(&mk(None));
        let same = model.report(&mk(Some(model.client_pipeline)));
        assert!(matches!(legacy.bottleneck, Bottleneck::ClientRtt));
        assert_eq!(legacy.mops, same.mops);
        let deep = model.report(&mk(Some(model.client_pipeline * 2.0)));
        assert!((deep.mops / legacy.mops - 2.0).abs() < 1e-9);
        let serial = model.report(&mk(Some(1.0)));
        assert!(serial.mops < legacy.mops);
    }

    /// Empty phases do not divide by zero.
    #[test]
    fn empty_phase_is_safe() {
        let model = CostModel::default();
        let m = PhaseMeasurement {
            n_clients: 1,
            node_fg: vec![],
            bg_bytes_per_sec: vec![],
            records: vec![],
            pipeline_depth: None,
        };
        let r = model.report(&m);
        assert!(r.mops.is_finite());
        assert_eq!(r.latency.p50_us, 0.0);
    }
}
