//! Workload generators for the Aceso evaluation (paper §4.1).
//!
//! Three families, matching the paper:
//!
//! * **Microbenchmarks** — single-op-type streams where keys are unique per
//!   client, so there are no concurrent conflicts.
//! * **YCSB core workloads** A–D over 1 M keys with the default Zipfian
//!   skew (θ = 0.99).
//! * **Twitter cluster mixes** — synthetic stand-ins for the production
//!   traces of [Yang et al., ToS'21]: STORAGE is read-dominated, COMPUTE is
//!   modification-heavy, TRANSIENT churns short-lived keys with frequent
//!   inserts and deletes. The real traces are not redistributable; the
//!   generators reproduce the op mixes the paper describes
//!   (see `DESIGN.md`, substitutions).
//!
//! Everything is deterministic under a seed.

#![forbid(unsafe_code)]

pub mod twitter;
pub mod ycsb;
pub mod zipf;

pub use twitter::TwitterCluster;
pub use ycsb::YcsbWorkload;
pub use zipf::Zipf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A KV operation kind, in workload terms.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// Insert a fresh key.
    Insert,
    /// Update an existing key.
    Update,
    /// Point lookup.
    Search,
    /// Delete a key.
    Delete,
}

/// One generated request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Request {
    /// Operation to perform.
    pub op: Op,
    /// Key bytes.
    pub key: Vec<u8>,
    /// Value length in bytes (ignored for SEARCH/DELETE).
    pub value_len: usize,
}

/// Renders key number `id` as a YCSB-style key (`user` + zero-padded id).
pub fn key_bytes(id: u64) -> Vec<u8> {
    format!("user{id:012}").into_bytes()
}

/// The first key id `client` INSERTs over a `keys`-key preload; its next
/// inserts count up from there. Each client owns a range of 10⁸ ids above
/// the preload, so for every client below 9 000 and a preload below 10¹⁰
/// an inserted id stays under 10¹², and [`key_bytes`] renders it in the
/// preloaded keys' 16 B: an INSERTed pair lands in the same size class as
/// the pairs it sits among.
pub fn first_insert_id(keys: u64, client: u32) -> u64 {
    keys + (client as u64 + 1) * 100_000_000
}

/// Renders a per-client-unique microbenchmark key: 16 B like
/// [`key_bytes`], so a micro pair and a YCSB pair of one value length fall
/// in the same size class in every engine.
pub fn micro_key(client: u32, seq: u64) -> Vec<u8> {
    format!("c{client:04}-{seq:010}").into_bytes()
}

/// Deterministic value bytes for a key at a given version (tests verify
/// store contents against this).
pub fn value_for(key: &[u8], version: u64, len: usize) -> Vec<u8> {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ version.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (0..len)
        .map(|i| {
            let x = h.wrapping_mul(i as u64 + 1);
            ((x >> 32) ^ x) as u8
        })
        .collect()
}

/// An operation mix: fractions summing to 1.
#[derive(Clone, Copy, Debug)]
pub struct OpMix {
    /// SEARCH fraction.
    pub search: f64,
    /// UPDATE fraction.
    pub update: f64,
    /// INSERT fraction.
    pub insert: f64,
    /// DELETE fraction.
    pub delete: f64,
}

impl OpMix {
    /// Pure single-op mixes.
    pub fn only(op: Op) -> Self {
        let mut m = OpMix {
            search: 0.0,
            update: 0.0,
            insert: 0.0,
            delete: 0.0,
        };
        match op {
            Op::Search => m.search = 1.0,
            Op::Update => m.update = 1.0,
            Op::Insert => m.insert = 1.0,
            Op::Delete => m.delete = 1.0,
        }
        m
    }

    /// Samples an op kind.
    pub fn sample(&self, rng: &mut impl Rng) -> Op {
        let x: f64 = rng.gen();
        if x < self.search {
            Op::Search
        } else if x < self.search + self.update {
            Op::Update
        } else if x < self.search + self.update + self.insert {
            Op::Insert
        } else {
            Op::Delete
        }
    }
}

/// Microbenchmark stream: one op type, per-client-unique keys
/// (paper §4.2: "keys across different clients are unique, ensuring no
/// concurrent conflicts").
pub struct MicroWorkload {
    client: u32,
    op: Op,
    keys: u64,
    value_len: usize,
    seq: u64,
}

impl MicroWorkload {
    /// A stream of `op` over `keys` per-client keys with `value_len` values.
    pub fn new(client: u32, op: Op, keys: u64, value_len: usize) -> Self {
        MicroWorkload {
            client,
            op,
            keys,
            value_len,
            seq: 0,
        }
    }

    /// The key ids this client will touch (for preloading).
    pub fn preload_keys(&self) -> impl Iterator<Item = Vec<u8>> + '_ {
        (0..self.keys).map(move |i| micro_key(self.client, i))
    }
}

impl Iterator for MicroWorkload {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let key = micro_key(self.client, self.seq % self.keys);
        self.seq += 1;
        Some(Request {
            op: self.op,
            key,
            value_len: self.value_len,
        })
    }
}

/// A generic mixed stream over a Zipfian keyspace (used for the
/// update-ratio sweep of Figure 15).
pub struct MixedWorkload {
    mix: OpMix,
    zipf: Zipf,
    rng: StdRng,
    value_len: usize,
    next_insert: u64,
}

impl MixedWorkload {
    /// Builds a stream over `keys` preloaded keys with the given mix; new
    /// inserts take ids from `keys` upward, partitioned by client.
    pub fn new(
        mix: OpMix,
        keys: u64,
        theta: f64,
        value_len: usize,
        client: u32,
        seed: u64,
    ) -> Self {
        MixedWorkload {
            mix,
            zipf: Zipf::new(keys, theta),
            rng: StdRng::seed_from_u64(seed ^ ((client as u64) << 32)),
            value_len,
            next_insert: first_insert_id(keys, client),
        }
    }
}

impl Iterator for MixedWorkload {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let op = self.mix.sample(&mut self.rng);
        let key = match op {
            Op::Insert => {
                let id = self.next_insert;
                self.next_insert += 1;
                key_bytes(id)
            }
            _ => key_bytes(self.zipf.sample(&mut self.rng)),
        };
        Some(Request {
            op,
            key,
            value_len: self.value_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_keys_unique_per_client() {
        let a: Vec<_> = MicroWorkload::new(1, Op::Update, 10, 64).take(10).collect();
        let b: Vec<_> = MicroWorkload::new(2, Op::Update, 10, 64).take(10).collect();
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.key, y.key);
            assert_eq!(x.op, Op::Update);
        }
    }

    #[test]
    fn micro_and_ycsb_keys_are_16_bytes() {
        for (client, seq) in [(0, 0), (7, 19_999), (1_000, 99_999), (9_999, 9_999_999_999)] {
            assert_eq!(micro_key(client, seq).len(), 16);
        }
        assert_eq!(key_bytes(0).len(), 16);
        assert_eq!(key_bytes(999_999_999_999).len(), 16);
    }

    #[test]
    fn micro_wraps_around() {
        let reqs: Vec<_> = MicroWorkload::new(0, Op::Search, 3, 64).take(7).collect();
        assert_eq!(reqs[0].key, reqs[3].key);
        assert_eq!(reqs[2].key, reqs[5].key);
        assert_ne!(reqs[0].key, reqs[1].key);
    }

    #[test]
    fn value_is_deterministic_and_version_sensitive() {
        assert_eq!(value_for(b"k", 1, 32), value_for(b"k", 1, 32));
        assert_ne!(value_for(b"k", 1, 32), value_for(b"k", 2, 32));
        assert_ne!(value_for(b"k", 1, 32), value_for(b"j", 1, 32));
    }

    #[test]
    fn opmix_sampling_respects_fractions() {
        let mix = OpMix {
            search: 0.5,
            update: 0.5,
            insert: 0.0,
            delete: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mut searches = 0;
        for _ in 0..10_000 {
            match mix.sample(&mut rng) {
                Op::Search => searches += 1,
                Op::Update => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!((4_500..5_500).contains(&searches));
    }

    #[test]
    fn mixed_workload_inserts_use_fresh_keys() {
        let mix = OpMix {
            search: 0.0,
            update: 0.0,
            insert: 1.0,
            delete: 0.0,
        };
        let keys: Vec<_> = MixedWorkload::new(mix, 100, 0.99, 64, 3, 7)
            .take(50)
            .map(|r| r.key)
            .collect();
        let unique: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len());
    }

    /// Every stream that INSERTs renders its new keys in the preloaded
    /// keys' length, up to the largest client count a bench launches
    /// (`bench clients` doubles to 1 024 tasks) over the paper's 1 M keys.
    #[test]
    fn inserted_keys_have_the_preloaded_length() {
        let keys = 1_000_000;
        let preloaded = key_bytes(keys - 1).len();
        let insert_only = OpMix::only(Op::Insert);
        for client in [0, 3, 1_023] {
            let ycsb_d = YcsbWorkload::new(ycsb::YcsbKind::D, keys, 0.99, 64, client, 1);
            let transient =
                twitter::TwitterWorkload::new(TwitterCluster::Transient, keys, 0.99, 64, client, 1);
            let mixed = MixedWorkload::new(insert_only, keys, 0.99, 64, client, 1);
            let all = ycsb_d
                .take(2_000)
                .chain(transient.take(2_000))
                .chain(mixed.take(100));
            let inserted: Vec<_> = all.filter(|r| r.op == Op::Insert).collect();
            assert!(inserted.len() > 100);
            for r in inserted {
                assert_eq!(r.key.len(), preloaded, "client {client}: {:?}", r.key);
            }
        }
    }
}
