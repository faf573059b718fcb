//! Synthetic stand-ins for Twitter's production cache traces (paper §4.3).
//!
//! The paper replays traces from three cluster types [Yang et al., ToS'21]:
//!
//! * **STORAGE** — fronts slow storage; read-dominated.
//! * **COMPUTE** — caches computation results; modification-heavy.
//! * **TRANSIENT** — short-lived data; frequent inserts and deletions.
//!
//! The traces themselves are not redistributable, so these generators
//! reproduce the *mix shape* the paper describes (read-dominated vs
//! write-heavy vs churn-heavy), with Zipfian key popularity as observed in
//! the trace study. See `DESIGN.md` (substitutions table).

use crate::zipf::Zipf;
use crate::{first_insert_id, key_bytes, Op, OpMix, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which Twitter cluster mix to synthesize.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TwitterCluster {
    /// Read-dominated (≈ 94% reads).
    Storage,
    /// Modification-heavy (≈ 55% writes).
    Compute,
    /// Churn-heavy: inserts and deletes of short-lived keys.
    Transient,
}

impl TwitterCluster {
    /// The op mix of this cluster family.
    pub fn mix(&self) -> OpMix {
        match self {
            TwitterCluster::Storage => OpMix {
                search: 0.94,
                update: 0.05,
                insert: 0.01,
                delete: 0.0,
            },
            TwitterCluster::Compute => OpMix {
                search: 0.45,
                update: 0.50,
                insert: 0.05,
                delete: 0.0,
            },
            TwitterCluster::Transient => OpMix {
                search: 0.30,
                update: 0.30,
                insert: 0.20,
                delete: 0.20,
            },
        }
    }

    /// Paper label.
    pub fn name(&self) -> &'static str {
        match self {
            TwitterCluster::Storage => "STORAGE",
            TwitterCluster::Compute => "COMPUTE",
            TwitterCluster::Transient => "TRANSIENT",
        }
    }

    /// All clusters in figure order.
    pub const ALL: [TwitterCluster; 3] = [
        TwitterCluster::Storage,
        TwitterCluster::Compute,
        TwitterCluster::Transient,
    ];
}

/// A per-client synthetic Twitter trace.
///
/// DELETEs target keys this client previously inserted (short-lived data),
/// so the stream never deletes another client's keys.
pub struct TwitterWorkload {
    mix: OpMix,
    zipf: Zipf,
    rng: StdRng,
    value_len: usize,
    next_insert: u64,
    live_inserted: Vec<u64>,
}

impl TwitterWorkload {
    /// Builds the stream for `client` over `keys` preloaded keys.
    pub fn new(
        cluster: TwitterCluster,
        keys: u64,
        theta: f64,
        value_len: usize,
        client: u32,
        seed: u64,
    ) -> Self {
        TwitterWorkload {
            mix: cluster.mix(),
            zipf: Zipf::new(keys, theta),
            rng: StdRng::seed_from_u64(seed ^ 0x7717 ^ ((client as u64) << 20)),
            value_len,
            next_insert: first_insert_id(keys, client),
            live_inserted: Vec::new(),
        }
    }
}

impl Iterator for TwitterWorkload {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let mut op = self.mix.sample(&mut self.rng);
        if op == Op::Delete && self.live_inserted.is_empty() {
            op = Op::Insert; // Nothing of ours to delete yet.
        }
        let key = match op {
            Op::Insert => {
                let id = self.next_insert;
                self.next_insert += 1;
                self.live_inserted.push(id);
                key_bytes(id)
            }
            Op::Delete => {
                let i = self.rng.gen_range(0..self.live_inserted.len());
                let id = self.live_inserted.swap_remove(i);
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
    fn storage_is_read_dominated() {
        let w = TwitterWorkload::new(TwitterCluster::Storage, 100, 0.99, 64, 0, 1);
        let reads = w.take(10_000).filter(|r| r.op == Op::Search).count();
        assert!(reads > 9_000, "reads={reads}");
    }

    #[test]
    fn compute_is_write_heavy() {
        let w = TwitterWorkload::new(TwitterCluster::Compute, 100, 0.99, 64, 0, 1);
        let writes = w.take(10_000).filter(|r| r.op != Op::Search).count();
        assert!(writes > 5_000, "writes={writes}");
    }

    #[test]
    fn transient_deletes_only_own_inserts() {
        let w = TwitterWorkload::new(TwitterCluster::Transient, 100, 0.99, 64, 0, 1);
        let mut inserted = std::collections::HashSet::new();
        for r in w.take(10_000) {
            match r.op {
                Op::Insert => {
                    assert!(inserted.insert(r.key));
                }
                Op::Delete => {
                    assert!(inserted.remove(&r.key), "delete of key never inserted");
                }
                _ => {}
            }
        }
    }
}
