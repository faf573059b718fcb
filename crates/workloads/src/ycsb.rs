//! YCSB core workloads A–D (paper §4.1/§4.3).
//!
//! * A — 50% SEARCH, 50% UPDATE
//! * B — 95% SEARCH, 5% UPDATE
//! * C — 100% SEARCH
//! * D — 95% SEARCH, 5% INSERT
//!
//! One million keys by default, Zipfian θ = 0.99, as in the paper.

use crate::zipf::Zipf;
use crate::{first_insert_id, key_bytes, Op, OpMix, Request};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which YCSB core workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum YcsbKind {
    /// 50/50 read/update.
    A,
    /// 95/5 read/update.
    B,
    /// Read-only.
    C,
    /// 95/5 read/insert (reads skew to recent keys; approximated with the
    /// same Zipfian over the growing keyspace, as common in re-implementations).
    D,
}

impl YcsbKind {
    /// The op mix of this workload.
    pub fn mix(&self) -> OpMix {
        match self {
            YcsbKind::A => OpMix {
                search: 0.5,
                update: 0.5,
                insert: 0.0,
                delete: 0.0,
            },
            YcsbKind::B => OpMix {
                search: 0.95,
                update: 0.05,
                insert: 0.0,
                delete: 0.0,
            },
            YcsbKind::C => OpMix {
                search: 1.0,
                update: 0.0,
                insert: 0.0,
                delete: 0.0,
            },
            YcsbKind::D => OpMix {
                search: 0.95,
                update: 0.0,
                insert: 0.05,
                delete: 0.0,
            },
        }
    }

    /// Paper label.
    pub fn name(&self) -> &'static str {
        match self {
            YcsbKind::A => "YCSB-A",
            YcsbKind::B => "YCSB-B",
            YcsbKind::C => "YCSB-C",
            YcsbKind::D => "YCSB-D",
        }
    }

    /// All four workloads in figure order.
    pub const ALL: [YcsbKind; 4] = [YcsbKind::A, YcsbKind::B, YcsbKind::C, YcsbKind::D];
}

/// A per-client YCSB request stream.
pub struct YcsbWorkload {
    mix: OpMix,
    zipf: Zipf,
    rng: StdRng,
    value_len: usize,
    next_insert: u64,
}

impl YcsbWorkload {
    /// Builds the stream for `client` over `keys` preloaded keys.
    pub fn new(
        kind: YcsbKind,
        keys: u64,
        theta: f64,
        value_len: usize,
        client: u32,
        seed: u64,
    ) -> Self {
        YcsbWorkload {
            mix: kind.mix(),
            zipf: Zipf::new(keys, theta),
            rng: StdRng::seed_from_u64(seed ^ 0xFACE ^ ((client as u64) << 24)),
            value_len,
            next_insert: first_insert_id(keys, client),
        }
    }

    /// The dense preload key ids all clients share.
    pub fn preload_keys(keys: u64) -> impl Iterator<Item = Vec<u8>> {
        (0..keys).map(key_bytes)
    }
}

impl Iterator for YcsbWorkload {
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
    fn workload_c_is_read_only() {
        let w = YcsbWorkload::new(YcsbKind::C, 100, 0.99, 64, 0, 1);
        for r in w.take(1000) {
            assert_eq!(r.op, Op::Search);
        }
    }

    #[test]
    fn workload_a_is_half_updates() {
        let w = YcsbWorkload::new(YcsbKind::A, 100, 0.99, 64, 0, 1);
        let ups = w.take(10_000).filter(|r| r.op == Op::Update).count();
        assert!((4_500..5_500).contains(&ups), "ups={ups}");
    }

    #[test]
    fn workload_d_inserts_fresh_keys() {
        let w = YcsbWorkload::new(YcsbKind::D, 100, 0.99, 64, 2, 1);
        let inserted: Vec<_> = w
            .take(10_000)
            .filter(|r| r.op == Op::Insert)
            .map(|r| r.key)
            .collect();
        assert!(!inserted.is_empty());
        let preloaded: std::collections::HashSet<_> = YcsbWorkload::preload_keys(100).collect();
        for k in &inserted {
            assert!(!preloaded.contains(k));
        }
        let unique: std::collections::HashSet<_> = inserted.iter().collect();
        assert_eq!(unique.len(), inserted.len());
    }

    #[test]
    fn clients_get_different_streams() {
        let a: Vec<_> = YcsbWorkload::new(YcsbKind::A, 100, 0.99, 64, 0, 1)
            .take(20)
            .collect();
        let b: Vec<_> = YcsbWorkload::new(YcsbKind::A, 100, 0.99, 64, 1, 1)
            .take(20)
            .collect();
        assert_ne!(a, b);
    }
}
