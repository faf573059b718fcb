//! The correctness oracle: what every SEARCH is allowed to return.
//!
//! A value is `version (8 bytes LE) ‖ body`, where the body is a
//! pseudo-random stream seeded by the key alone. The oracle keeps one
//! 64-bit hash of each key's body, computed before any timer starts, and
//! the versions each key may currently hold, so a returned value is
//! checked by its length, its version and the hash of its body — never
//! by asking the store. Bodies are generated, not stored: a table of
//! 100 000 values would be a tenth of a gigabyte the run does not need.
//!
//! With one synchronous client exactly one version is acceptable. With
//! coroutine clients, updates of one key overlap, so the oracle applies
//! the register rule of linearizability: a read may return any write
//! that was issued before the read ended and that was not certainly
//! overwritten before the read began.

use crate::stats::hash64;
use aceso_workloads::key_bytes;

/// The paper's 1 KB KV pair: 16 B header + 16 B key + value + trailer.
pub const VALUE_LEN: usize = 991;
const VERSION_BYTES: usize = 8;

struct KeyState {
    /// Highest version handed to an update.
    issued: u32,
    /// Every version up to here has completed.
    contiguous: u32,
    /// Completed versions above `contiguous`.
    stragglers: Vec<u32>,
    /// Lowest version a read starting now may still return.
    floor: u32,
}

/// The versions one read may return: `floor` is taken before the SEARCH
/// is issued, `ceil` when it has returned.
#[derive(Clone, Copy)]
pub struct ReadTicket {
    floor: u32,
    ceil: u32,
}

/// An update's ticket, taken before the UPDATE is issued.
#[derive(Clone, Copy)]
pub struct WriteTicket {
    pub version: u32,
    /// `contiguous` when the update was issued: everything at or below it
    /// had completed first, so this update's completion overwrites it.
    settled_before: u32,
}

pub struct Oracle {
    keys: Vec<Vec<u8>>,
    body_hash: Vec<u64>,
    state: Vec<KeyState>,
}

/// Appends the body of key number `k`: SplitMix64 words from a seed that
/// only `k` determines, cut to the value length.
fn push_body(k: u32, buf: &mut Vec<u8>) {
    let mut x = (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    while buf.len() < VALUE_LEN {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        buf.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    buf.truncate(VALUE_LEN);
}

impl Oracle {
    /// Builds keys `0..n` at version 0 (the preloaded state).
    pub fn new(n: u32) -> Self {
        let keys: Vec<Vec<u8>> = (0..n as u64).map(key_bytes).collect();
        let mut value = Vec::new();
        let body_hash = (0..n)
            .map(|k| {
                value.clear();
                value.resize(VERSION_BYTES, 0);
                push_body(k, &mut value);
                hash64(&value[VERSION_BYTES..])
            })
            .collect();
        let mut oracle = Oracle {
            keys,
            body_hash,
            state: Vec::new(),
        };
        oracle.reset();
        oracle
    }

    /// Back to the preloaded state: every key at version 0.
    pub fn reset(&mut self) {
        self.state.clear();
        self.state.extend((0..self.keys.len()).map(|_| KeyState {
            issued: 0,
            contiguous: 0,
            stragglers: Vec::new(),
            floor: 0,
        }));
    }

    pub fn key(&self, k: u32) -> &[u8] {
        &self.keys[k as usize]
    }

    /// Writes the value of key `k` at `version` into `buf`.
    pub fn fill_value(&self, k: u32, version: u32, buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(&(version as u64).to_le_bytes());
        push_body(k, buf);
    }

    pub fn begin_read(&self, k: u32) -> ReadTicket {
        ReadTicket {
            floor: self.state[k as usize].floor,
            ceil: u32::MAX,
        }
    }

    pub fn end_read(&self, k: u32, t: ReadTicket) -> ReadTicket {
        ReadTicket {
            ceil: self.state[k as usize].issued,
            ..t
        }
    }

    pub fn begin_write(&mut self, k: u32) -> WriteTicket {
        let s = &mut self.state[k as usize];
        s.issued += 1;
        WriteTicket {
            version: s.issued,
            settled_before: s.contiguous,
        }
    }

    pub fn end_write(&mut self, k: u32, t: WriteTicket) {
        let s = &mut self.state[k as usize];
        s.stragglers.push(t.version);
        while let Some(i) = s.stragglers.iter().position(|&v| v == s.contiguous + 1) {
            s.stragglers.swap_remove(i);
            s.contiguous += 1;
        }
        // Everything settled before this update began is now overwritten.
        s.floor = s.floor.max(t.settled_before + 1);
    }

    /// Checks the value a read returned, after the read has ended.
    pub fn check(&self, k: u32, t: ReadTicket, got: Option<&[u8]>) -> Result<(), String> {
        let Some(v) = got else {
            return Err(format!("key {k}: not found"));
        };
        if v.len() != VALUE_LEN {
            return Err(format!("key {k}: length {} != {VALUE_LEN}", v.len()));
        }
        let version = u64::from_le_bytes(v[..VERSION_BYTES].try_into().expect("8 bytes"));
        if version < t.floor as u64 || version > t.ceil as u64 {
            return Err(format!(
                "key {k}: version {version} outside [{}, {}]",
                t.floor, t.ceil
            ));
        }
        if hash64(&v[VERSION_BYTES..]) != self.body_hash[k as usize] {
            return Err(format!("key {k}: body hash mismatch at version {version}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(o: &Oracle, k: u32, version: u32) -> Vec<u8> {
        let mut v = Vec::new();
        o.fill_value(k, version, &mut v);
        v
    }

    /// A read that begins and ends with nothing in between.
    fn read(o: &Oracle, k: u32) -> ReadTicket {
        o.end_read(k, o.begin_read(k))
    }

    #[test]
    fn sequential_client_accepts_exactly_the_last_version() {
        let mut o = Oracle::new(4);
        assert!(o.check(1, read(&o, 1), Some(&value(&o, 1, 0))).is_ok());
        let w = o.begin_write(1);
        o.end_write(1, w);
        let r = read(&o, 1);
        assert!(o.check(1, r, Some(&value(&o, 1, 1))).is_ok());
        assert!(o.check(1, r, Some(&value(&o, 1, 0))).is_err(), "stale");
        assert!(
            o.check(1, r, Some(&value(&o, 1, 2))).is_err(),
            "never issued"
        );
        assert!(
            o.check(1, r, Some(&value(&o, 2, 1))).is_err(),
            "wrong key's body"
        );
        assert!(
            o.check(1, r, Some(&value(&o, 1, 1)[..900])).is_err(),
            "short"
        );
        assert!(o.check(1, r, None).is_err(), "missing");
    }

    #[test]
    fn overlapping_updates_leave_either_order_acceptable() {
        let mut o = Oracle::new(1);
        let w1 = o.begin_write(0);
        let w2 = o.begin_write(0); // overlaps w1
        o.end_write(0, w2);
        o.end_write(0, w1);
        // Both completed, neither certainly overwrote the other; the
        // preload (version 0) is certainly gone.
        let r = read(&o, 0);
        assert!(o.check(0, r, Some(&value(&o, 0, 1))).is_ok());
        assert!(o.check(0, r, Some(&value(&o, 0, 2))).is_ok());
        assert!(o.check(0, r, Some(&value(&o, 0, 0))).is_err());
        // A third update issued after both completed overwrites both.
        let w3 = o.begin_write(0);
        let during = o.begin_read(0);
        o.end_write(0, w3);
        let during = o.end_read(0, during);
        assert!(
            o.check(0, during, Some(&value(&o, 0, 2))).is_ok(),
            "read began first"
        );
        assert!(o.check(0, during, Some(&value(&o, 0, 3))).is_ok());
        let after = read(&o, 0);
        assert!(o.check(0, after, Some(&value(&o, 0, 2))).is_err());
        assert!(o.check(0, after, Some(&value(&o, 0, 3))).is_ok());
    }
}
