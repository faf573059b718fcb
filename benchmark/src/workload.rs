//! The five workloads: their fixed sizes and their request streams.
//!
//! Every size here is a constant. Modeled and counted metrics are a pure
//! function of `(seed, seconds)` only because the amount of work is: a
//! run executes `ops_per_second × seconds` measured ops in a fixed number
//! of equal segments however fast the host is, so `--seconds` sets the
//! work, and the rates below were chosen so that work takes about that
//! long in the reference sandbox (pinned to one CPU, see `sandbox.rs`).

use aceso_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Equal-op segments of the measured phase, which give `host_kops` its
/// scatter and drift. Scaling a run changes the ops per segment, never
/// this count.
pub const SEGMENTS: usize = 24;
/// Rounds per run. A round is a fault block (a store of its own, killed and
/// recovered `Params::cycles` times, then dropped), then one complete, timed
/// set-up of a fresh store, then that store's equal share of the measured
/// segments; `setup_s` is the median of the set-ups and the recovery metrics
/// compare the blocks with each other. The sandbox's CPU changes speed by a
/// third for seconds at a time, so samples taken within one second of each
/// other agree and still mislead: the rounds spread every kind of sample
/// over the whole run. A fourth round would steady the medians by a fifth
/// more and cost a tenth more time, which the driver's limit on all its
/// runs together does not leave. Divides `SEGMENTS`.
const ROUNDS: usize = 3;
/// One op in this many gets a root span and a host latency sample.
pub const OP_SAMPLE: u64 = 64;

/// What the read-back after each recovery covers.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ReadBack {
    /// Every key of the workload.
    Full,
    /// This many keys, spread evenly over the key space.
    Sample(u32),
}

#[derive(Clone, Debug)]
pub struct Params {
    pub name: &'static str,
    pub keys: u32,
    /// Zipf exponent of the key choice; `None` is uniform.
    pub theta: Option<f64>,
    /// Share of UPDATEs; the rest are SEARCHes.
    pub update_share: f64,
    /// Coroutine clients on one executor; 0 is one synchronous client.
    pub coroutines: usize,
    /// Run one checkpoint round at the start of every measured segment.
    pub checkpoints: bool,
    /// Measured ops per second of `--seconds` (see the module comment).
    pub ops_per_second: u64,
    /// Discarded ops run before measuring, part of set-up.
    pub warmup_ops: u64,
    /// Kill/recover cycles per fault block; cycle `j` kills column `j mod 5`
    /// in every block, so cycle `j` of one block repeats cycle `j` of another.
    /// Sized so a block takes one to two seconds and, with the node every
    /// kill leaves behind, stays under 450 MB.
    pub cycles: usize,
    /// SEARCHes issued while the column is down, per cycle.
    pub degraded_reads: u32,
    pub read_back: ReadBack,
    /// Updates issued before the first crash and after each recovery.
    pub burst_ops: u32,
    /// Stripe arrays, DELTA blocks and index bucket groups per MN.
    pub num_arrays: u64,
    pub num_delta: u64,
    pub index_groups: u64,
    /// Rounds per pass (see `ROUNDS`).
    pub rounds: usize,
    /// Divisor of every op count and probe length (1, or 100 for `--smoke`).
    pub ops_div: u64,
}

impl Params {
    /// The same workload at a size that runs in about a second: a
    /// hundredth of the ops, a tenth of the keys, one round. Every code
    /// path still runs; the numbers mean nothing.
    pub fn smoke(self) -> Params {
        Params {
            keys: self.keys / 10,
            rounds: 1,
            ops_div: 100,
            ..self
        }
    }
}

pub fn params(name: &str) -> Option<Params> {
    let base = Params {
        name: "",
        keys: 20_000,
        theta: Some(0.99),
        update_share: 0.0,
        coroutines: 0,
        checkpoints: false,
        ops_per_second: 0,
        warmup_ops: 0,
        cycles: 4,
        degraded_reads: 12_000,
        read_back: ReadBack::Sample(4_000),
        burst_ops: 0,
        num_arrays: 16,
        num_delta: 32,
        index_groups: 1024,
        rounds: ROUNDS,
        ops_div: 1,
    };
    Some(match name {
        "read_hot" => Params {
            name: "read_hot",
            keys: 2_048,
            ops_per_second: 650_000,
            warmup_ops: 20_000,
            cycles: 8,
            degraded_reads: 40_000,
            num_arrays: 4,
            num_delta: 16,
            index_groups: 256,
            ..base
        },
        "read_cold" => Params {
            name: "read_cold",
            keys: 100_000,
            theta: None,
            ops_per_second: 160_000,
            warmup_ops: 20_000,
            cycles: 2,
            num_arrays: 28,
            num_delta: 16,
            index_groups: 4096,
            ..base
        },
        // The pool holds three times the live data, so reclamation (free
        // ratio under 0.25) has begun and cycled before warm-up ends.
        "write_mix" => Params {
            name: "write_mix",
            update_share: 0.5,
            checkpoints: true,
            ops_per_second: 105_000,
            warmup_ops: 120_000,
            burst_ops: 4_000,
            ..base
        },
        // Each coroutine client pins one open DATA block and two DELTA
        // blocks (on two other columns), so the pools are sized for 64 of
        // them on top of the data.
        "coro_mix" => Params {
            name: "coro_mix",
            update_share: 0.5,
            coroutines: 64,
            ops_per_second: 100_000,
            warmup_ops: 120_000,
            cycles: 3,
            burst_ops: 4_000,
            num_arrays: 24,
            num_delta: 48,
            ..base
        },
        "mn_recover" => Params {
            name: "mn_recover",
            theta: None,
            update_share: 1.0,
            checkpoints: true,
            ops_per_second: 58_000,
            warmup_ops: 20_000,
            cycles: 3,
            read_back: ReadBack::Full,
            burst_ops: 8_000,
            num_arrays: 24,
            ..base
        },
        _ => return None,
    })
}

/// One pre-generated request: the store only ever sees the key bytes and
/// the value bytes derived from it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Req {
    pub key: u32,
    pub update: bool,
}

/// Every request of one run, generated from the seed before any timer.
pub struct Requests {
    pub warmup: Vec<Req>,
    /// `SEGMENTS` equal slices.
    pub steady: Vec<Req>,
    /// Per fault block and cycle: keys read while the column is down.
    pub degraded: Vec<Vec<Vec<u32>>>,
    /// Per fault block: keys updated before the first crash, then after
    /// each recovery.
    pub burst: Vec<Vec<Vec<u32>>>,
}

impl Requests {
    pub fn generate(p: &Params, seed: u64, seconds: u64) -> Self {
        let scale = |n: u64| n.div_ceil(p.ops_div);
        // Whole segments, and in each segment a whole round of coroutines.
        let quantum = (SEGMENTS * p.coroutines.max(1)) as u64;
        let steady_ops = scale(p.ops_per_second * seconds).div_ceil(quantum) * quantum;
        let warmup_ops = scale(p.warmup_ops).div_ceil(quantum) * quantum;

        let salt = p
            .name
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131) ^ b as u64);
        let mut rng = StdRng::seed_from_u64(seed ^ salt);
        let zipf = p.theta.map(|t| Zipf::new(p.keys as u64, t));
        let owners = p.coroutines as u32;
        let stream = |n: u64, rng: &mut StdRng| -> Vec<Req> {
            (0..n)
                .map(|i| {
                    let update = rng.gen::<f64>() < p.update_share;
                    let mut key = match &zipf {
                        Some(z) => z.sample(rng) as u32,
                        None => rng.gen_range(0..p.keys),
                    };
                    // Request `i` goes to coroutine `i mod owners`. An
                    // UPDATE is moved to the key of the same 64-key block
                    // that this coroutine owns, so no key ever has two
                    // writers (see the README on contended commits).
                    if update && owners > 0 {
                        key = key - key % owners + (i % owners as u64) as u32;
                        if key >= p.keys {
                            key -= owners;
                        }
                    }
                    Req { key, update }
                })
                .collect()
        };
        let mut warmup = stagger(p);
        warmup.extend(stream(warmup_ops, &mut rng));
        let steady = stream(steady_ops, &mut rng);
        let mut uniform = |sets: usize, n: u64| -> Vec<Vec<u32>> {
            (0..sets)
                .map(|_| (0..n).map(|_| rng.gen_range(0..p.keys)).collect())
                .collect()
        };
        let degraded = (0..p.rounds)
            .map(|_| uniform(p.cycles, scale(p.degraded_reads as u64)))
            .collect();
        let burst = (0..p.rounds)
            .map(|_| uniform(p.cycles + 1, scale(p.burst_ops as u64)))
            .collect();
        Requests {
            warmup,
            steady,
            degraded,
            burst,
        }
    }
}

/// KV slots per 256 KB block at the 1 KB size class.
const SLOTS_PER_BLOCK: usize = 256;

/// A warm-up prefix that puts the coroutine clients out of phase. Dealt
/// round-robin they all fill their open blocks at the same rate, so
/// without it all 64 close a block (two server-side encodes each) in the
/// same few milliseconds, every 256 updates, and segments alternate
/// between fast and stalled. In round `r` of the prefix coroutine `t`
/// updates a key it owns if `r < 4t` and reads it otherwise, which
/// spreads the fill levels evenly over a block.
fn stagger(p: &Params) -> Vec<Req> {
    let n = p.coroutines;
    if n == 0 {
        return Vec::new();
    }
    let step = SLOTS_PER_BLOCK / n;
    let rounds = (step * (n - 1)).div_ceil(SEGMENTS) * SEGMENTS;
    (0..rounds * n)
        .map(|i| Req {
            key: (i % n) as u32,
            update: i / n < step * (i % n),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn every_declared_workload_has_parameters() {
        for w in &WORKLOADS {
            let p = params(w.name).expect("declared workload");
            assert_eq!(p.name, w.name);
            assert!(p.ops_per_second > 0);
        }
        assert!(params("nope").is_none());
    }

    #[test]
    fn requests_are_a_function_of_the_seed() {
        let p = params("write_mix").unwrap();
        let p = p.smoke();
        let a = Requests::generate(&p, 7, 1);
        let b = Requests::generate(&p, 7, 1);
        let c = Requests::generate(&p, 8, 1);
        assert_eq!(a.steady, b.steady);
        assert_eq!(a.degraded, b.degraded);
        assert_ne!(a.steady, c.steady);
        assert_eq!(a.steady.len() % SEGMENTS, 0);
        let updates = a.steady.iter().filter(|r| r.update).count();
        assert!(updates > a.steady.len() / 3 && updates < a.steady.len() * 2 / 3);
        assert!(a.steady.iter().all(|r| r.key < p.keys));
    }

    #[test]
    fn coroutine_segments_hold_whole_rounds_and_keys_have_one_writer() {
        let p = params("coro_mix").unwrap().smoke();
        let r = Requests::generate(&p, 1, 1);
        assert_eq!(r.steady.len() % (SEGMENTS * p.coroutines), 0);
        assert_eq!(r.warmup.len() % (SEGMENTS * p.coroutines), 0);
        let prefix = stagger(&p);
        for t in 0..p.coroutines {
            let updates = prefix
                .iter()
                .skip(t)
                .step_by(p.coroutines)
                .filter(|r| r.update)
                .count();
            assert_eq!(updates, t * SLOTS_PER_BLOCK / p.coroutines);
        }
        for (i, req) in r.warmup.iter().chain(&r.steady).enumerate() {
            assert!(req.key < p.keys);
            if req.update {
                assert_eq!(req.key as usize % p.coroutines, i % p.coroutines);
            }
        }
    }
}
