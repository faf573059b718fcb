//! On-block KV pair format.
//!
//! A DATA block of size class `c` is an array of `block_size / (64·c)`
//! slots. Each slot holds one KV pair:
//!
//! ```text
//! 0        Write Version (u8; 1 ⇄ 2 toggling per overwrite, 0 = never
//!          written) — §3.4.2
//! 1        flags (bit 0: tombstone — DELETE writes a zero-length value
//!          "used solely for logging", §4.2)
//! 2..4     key length (u16)
//! 4..8     value length (u32)
//! 8..16    Slot Version (u64; epoch≪8|ver, u64::MAX = invalidated after a
//!          lost commit race, Algorithm 1 line 18)
//! 16..     key bytes, then value bytes
//! last     Write Version trailer (must equal byte 0 once fully written)
//! ```
//!
//! The header/trailer pair detects torn writes after a client crash: RDMA
//! writes are delivered in order, so `header == trailer ≠ 0` proves the
//! whole slot landed. The same format is used for delta slots (a delta is
//! the XOR of old and new slot contents, so its "fields" are XOR images;
//! only its header/trailer pair is inspected directly).

use crate::StoreError;

/// Fixed header bytes before the key.
pub const KV_HEADER: usize = 16;
/// Byte offset of the Slot Version field (invalidation patches this word).
pub const SLOT_VER_OFF: usize = 8;
/// Slot Version value marking an invalidated (lost-race) KV pair.
pub const INVALID_SLOT_VERSION: u64 = u64::MAX;

/// Smallest size class (in 64 B units) that fits `key_len + val_len`.
pub fn class_for(key_len: usize, val_len: usize) -> Result<u8, StoreError> {
    let total = KV_HEADER + key_len + val_len + 1;
    let class = total.div_ceil(64);
    if key_len > u16::MAX as usize || class > u8::MAX as usize {
        return Err(StoreError::TooLarge);
    }
    Ok(class as u8)
}

/// Serializes a KV pair into a zeroed slot buffer of its class size.
///
/// # Panics
///
/// Panics if the buffer is too small for the pair (class mismatch is a
/// client bug, not input-dependent).
pub fn encode(
    buf: &mut [u8],
    write_version: u8,
    slot_version: u64,
    key: &[u8],
    value: &[u8],
    tombstone: bool,
) {
    let class_bytes = (KV_HEADER + key.len() + value.len() + 1).div_ceil(64) * 64;
    assert!(class_bytes <= buf.len(), "slot overflow");
    debug_assert!(write_version == 1 || write_version == 2);
    buf.fill(0);
    buf[0] = write_version;
    buf[1] = u8::from(tombstone);
    buf[2..4].copy_from_slice(&(key.len() as u16).to_le_bytes());
    buf[4..8].copy_from_slice(&(value.len() as u32).to_le_bytes());
    buf[8..16].copy_from_slice(&slot_version.to_le_bytes());
    buf[16..16 + key.len()].copy_from_slice(key);
    buf[16 + key.len()..16 + key.len() + value.len()].copy_from_slice(value);
    // The trailer sits at the end of the *derived* size class, so readers
    // that over-fetch still find it.
    buf[class_bytes - 1] = write_version;
}

/// A decoded view into a slot buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodedKv<'a> {
    /// Write Version (1 or 2).
    pub write_version: u8,
    /// DELETE tombstone?
    pub tombstone: bool,
    /// Logical Slot Version recorded at commit time.
    pub slot_version: u64,
    /// Key bytes.
    pub key: &'a [u8],
    /// Value bytes.
    pub value: &'a [u8],
}

impl DecodedKv<'_> {
    /// Whether this KV lost its commit race and was invalidated.
    pub fn is_invalidated(&self) -> bool {
        self.slot_version == INVALID_SLOT_VERSION
    }
}

/// The one header parse behind [`decode`], [`classify`] and
/// [`judge_lines`]: a slot's write version, key and value lengths, and the
/// bytes of the size class those lengths pin — the Write Version trailer is
/// the last of them. `None` if `head` is shorter than [`KV_HEADER`] or starts
/// with a write version no writer uses (0 = never written).
fn header(head: &[u8]) -> Option<(u8, usize, usize, usize)> {
    let wv = *head.first()?;
    if !(1..=2).contains(&wv) || head.len() < KV_HEADER {
        return None;
    }
    let key_len = u16::from_le_bytes(head[2..4].try_into().unwrap()) as usize;
    let val_len = u32::from_le_bytes(head[4..8].try_into().unwrap()) as usize;
    let class_bytes = (KV_HEADER + key_len + val_len + 1).div_ceil(64) * 64;
    Some((wv, key_len, val_len, class_bytes))
}

/// Decodes a slot buffer; `None` if the slot is empty, torn, or malformed.
///
/// The buffer may be *longer* than the slot (readers over-fetch when the
/// advisory length is unknown): the trailer position is derived from the
/// header's own lengths, which pin the slot's size class.
pub fn decode(buf: &[u8]) -> Option<DecodedKv<'_>> {
    let (wv, key_len, val_len, class_bytes) = header(buf)?;
    if class_bytes > buf.len() || buf[class_bytes - 1] != wv {
        return None;
    }
    Some(DecodedKv {
        write_version: wv,
        tombstone: buf[1] & 1 == 1,
        slot_version: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
        key: &buf[16..16 + key_len],
        value: &buf[16 + key_len..16 + key_len + val_len],
    })
}

/// Judges a slot from its 64 B lines, which `line(i, dst)` copies into the
/// buffer `slot` (the slot's size, at least one line), reading only the
/// lines the verdict depends on: line 0 (the header, and the key when it
/// fits), the trailer's line once the header parses, and the key's other
/// lines once the trailer matches (routing a KV takes its whole key). Then
/// [`decode`] judges that buffer, so the verdict is `decode`'s on the whole
/// slot — all but the value, whose lines are never read.
pub fn judge_lines(
    slot: &mut [u8],
    mut line: impl FnMut(usize, &mut [u8]),
) -> Option<DecodedKv<'_>> {
    line(0, &mut slot[..64]);
    let (wv, key_len, _, class_bytes) = header(slot).filter(|h| h.3 <= slot.len())?;
    let trailer = (class_bytes - 1) / 64;
    if trailer > 0 {
        line(trailer, &mut slot[64 * trailer..64 * trailer + 64]);
    }
    if slot[class_bytes - 1] != wv {
        return None;
    }
    for i in (1..(KV_HEADER + key_len).div_ceil(64)).filter(|&i| i != trailer) {
        line(i, &mut slot[64 * i..64 * i + 64]);
    }
    decode(slot)
}

/// Whose KV a slot holds, as far as its first [`identity_len`] bytes tell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Identity {
    /// The key's KV: a value, or a DELETE tombstone.
    Ours {
        /// DELETE tombstone?
        tombstone: bool,
    },
    /// Someone else's: another key length, other key bytes, a KV that lost
    /// its commit race (Slot Version = −1), a write version no writer uses.
    Foreign,
    /// Never written (write version 0): a lost block, or a zeroed,
    /// not-yet-restored one on a replacement MN.
    Unwritten,
}

/// Bytes an identity read of `key` fetches: the header and the key.
pub fn identity_len(key: &[u8]) -> usize {
    KV_HEADER + key.len()
}

/// Judges the first [`identity_len`]`(key)` bytes of a slot: is the KV
/// `key`'s, and live? This is all a write asks of the KV it is about to
/// replace, and all recovery asks of the KV a restored slot points at — the
/// value and the trailer stay where they are. No trailer is needed because
/// the index only ever points at a KV whose commit CAS followed its
/// completed write batch (DESIGN.md "Identity reads").
pub fn identity(prefix: &[u8], key: &[u8]) -> Identity {
    let wv = prefix.first().copied().unwrap_or(0);
    if wv == 0 {
        return Identity::Unwritten;
    }
    let len = identity_len(key);
    if wv > 2 || prefix.len() < len {
        return Identity::Foreign;
    }
    let key_len = u16::from_le_bytes(prefix[2..4].try_into().unwrap()) as usize;
    let slot_version = u64::from_le_bytes(prefix[8..16].try_into().unwrap());
    if key_len != key.len()
        || &prefix[KV_HEADER..len] != key
        || slot_version == INVALID_SLOT_VERSION
    {
        return Identity::Foreign;
    }
    Identity::Ours {
        tombstone: prefix[1] & 1 == 1,
    }
}

/// Bytes SEARCH fetches for a KV whose index slot advertises `len64` size
/// units. (Only SEARCH: it wants the value. An identity read asks
/// [`identity`] with [`identity_len`] bytes and never looks at `len64`.)
///
/// The Meta word's length is advisory: it is written one round trip after
/// the commit CAS (and never, if the writer crashes in between), so an
/// INSERT's is 0 and a grown UPDATE's is the old class until then. SEARCH
/// over-fetches small KVs and [`classify`] says what came back.
pub fn read_hint(len64: u8) -> usize {
    len64.max(4) as usize * 64
}

/// What the bytes SEARCH read at a KV's address by an advisory length hold.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KvRead<'a> {
    /// A complete KV pair.
    Whole(DecodedKv<'a>),
    /// A plausible header — valid write version, a size class that exists —
    /// whose own lengths need this many bytes, more than were read: the
    /// advisory length was stale. Re-read at this size.
    Truncated(usize),
    /// Never written (write version 0): a zeroed, not-yet-recovered block
    /// on a replacement MN.
    Unwritten,
    /// Torn, stale or foreign content: not a live KV pair.
    Foreign,
}

/// Classifies a KV read of `read_hint(len64)` bytes — SEARCH's judgement of
/// "the advisory length lied".
pub fn classify(buf: &[u8]) -> KvRead<'_> {
    if let Some(d) = decode(buf) {
        return KvRead::Whole(d);
    }
    if buf.first().is_none_or(|&wv| wv == 0) {
        return KvRead::Unwritten;
    }
    if let Some((_, key_len, val_len, _)) = header(buf) {
        if let Ok(class) = class_for(key_len, val_len) {
            if class as usize * 64 > buf.len() {
                return KvRead::Truncated(class as usize * 64);
            }
        }
    }
    KvRead::Foreign
}

/// Whether a slot buffer is *completely* written (header/trailer agree and
/// are non-zero). Used on raw delta slots too, where field decoding is
/// meaningless.
pub fn is_complete(buf: &[u8]) -> bool {
    !buf.is_empty() && buf[0] != 0 && buf[0] == buf[buf.len() - 1]
}

/// The next write version after `old` (0 → 1 → 2 → 1 …).
pub fn next_write_version(old: u8) -> u8 {
    if old == 1 {
        2
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        // Exact class-size buffer ("key" + "value bytes" → one 64 B unit).
        let mut buf = vec![0u8; 64];
        encode(&mut buf, 1, 0x1234, b"key", b"value bytes", false);
        let d = decode(&buf).unwrap();
        assert_eq!(d.write_version, 1);
        assert!(!d.tombstone);
        assert_eq!(d.slot_version, 0x1234);
        assert_eq!(d.key, b"key");
        assert_eq!(d.value, b"value bytes");
        assert!(!d.is_invalidated());
        assert!(is_complete(&buf));
    }

    #[test]
    fn tombstone_roundtrip() {
        let mut buf = vec![0u8; 64];
        encode(&mut buf, 2, 7, b"gone", b"", true);
        let d = decode(&buf).unwrap();
        assert!(d.tombstone);
        assert!(d.value.is_empty());
    }

    #[test]
    fn empty_slot_decodes_none() {
        assert!(decode(&[0u8; 64]).is_none());
        assert!(!is_complete(&[0u8; 64]));
    }

    #[test]
    fn torn_write_detected() {
        let mut buf = vec![0u8; 64];
        encode(&mut buf, 1, 3, b"k", b"v", false);
        let last = buf.len() - 1;
        buf[last] = 0; // Trailer never landed.
        assert!(decode(&buf).is_none());
        assert!(!is_complete(&buf));
        buf[last] = 2; // Trailer from a different write.
        assert!(decode(&buf).is_none());
    }

    #[test]
    fn invalidation_marks() {
        let mut buf = vec![0u8; 64];
        encode(&mut buf, 1, 5, b"k", b"v", false);
        buf[SLOT_VER_OFF..SLOT_VER_OFF + 8].copy_from_slice(&INVALID_SLOT_VERSION.to_le_bytes());
        let d = decode(&buf).unwrap();
        assert!(d.is_invalidated());
    }

    #[test]
    fn class_for_sizes() {
        // 16 + 3 + 44 + 1 = 64 → one unit.
        assert_eq!(class_for(3, 44).unwrap(), 1);
        assert_eq!(class_for(3, 45).unwrap(), 2);
        // The paper's 1024 B KV (12 B key): 16+12+996+1 = 1025 → 17 units.
        assert_eq!(class_for(12, 996).unwrap(), 17);
        assert!(class_for(100_000, 0).is_err());
        assert!(class_for(8, 20_000).is_err());
    }

    #[test]
    fn malformed_lengths_rejected() {
        let mut buf = vec![0u8; 64];
        encode(&mut buf, 1, 1, b"abc", b"xy", false);
        buf[4..8].copy_from_slice(&1000u32.to_le_bytes()); // Lie about val_len.
        assert!(decode(&buf).is_none());
    }

    #[test]
    fn classify_tells_a_stale_length_from_foreign_bytes() {
        let value = vec![7u8; 991];
        let class = class_for(3, value.len()).unwrap() as usize;
        let mut buf = vec![0u8; class * 64];
        encode(&mut buf, 1, 9, b"key", &value, false);
        assert!(matches!(classify(&buf), KvRead::Whole(d) if d.value == value));
        // Read by the hint of a Meta word that was never refreshed.
        assert_eq!(
            classify(&buf[..read_hint(0)]),
            KvRead::Truncated(class * 64)
        );
        assert_eq!(classify(&[0u8; 256]), KvRead::Unwritten);
        assert_eq!(classify(&[]), KvRead::Unwritten);
        // A torn trailer, a bad write version, lengths no class can hold.
        let mut torn = buf.clone();
        torn[class * 64 - 1] = 2;
        assert_eq!(classify(&torn), KvRead::Foreign);
        let mut bad = buf[..256].to_vec();
        bad[0] = 3;
        assert_eq!(classify(&bad), KvRead::Foreign);
        let mut huge = buf[..256].to_vec();
        huge[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(classify(&huge), KvRead::Foreign);
    }

    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Over random pairs, `identity` on the prefix agrees with `decode` on
    /// the whole slot on everything it reports, and tells the stored key
    /// from its strict prefixes and extensions.
    #[test]
    fn identity_agrees_with_decode() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut key = vec![0; rng.gen_range(1..40)];
            rng.fill_bytes(&mut key);
            let mut value = vec![0; rng.gen_range(0..300)];
            rng.fill_bytes(&mut value);
            let (tombstone, wv, invalidated) = (rng.gen(), rng.gen_range(1..3), rng.gen());
            let sv = if invalidated {
                INVALID_SLOT_VERSION
            } else {
                0x0123_4567
            };
            let mut slot = vec![0u8; class_for(key.len(), value.len()).unwrap() as usize * 64];
            encode(&mut slot, wv, sv, &key, &value, tombstone);
            let d = decode(&slot).unwrap();
            let want = if d.key == key && !d.is_invalidated() {
                Identity::Ours {
                    tombstone: d.tombstone,
                }
            } else {
                Identity::Foreign
            };
            let shorter = &key[..key.len() - 1];
            let longer = [&key[..], &b"x"[..]].concat();
            // Over-fetched is fine, under-fetched is never ours.
            for (prefix, k, w) in [
                (identity_len(&key), &key[..], want),
                (slot.len(), &key[..], want),
                (identity_len(&key) - 1, &key[..], Identity::Foreign),
                (identity_len(shorter), shorter, Identity::Foreign),
                (identity_len(&longer), &longer[..], Identity::Foreign),
            ] {
                assert_eq!(identity(&slot[..prefix], k), w, "seed {seed}, {prefix} B");
            }
        }
    }

    /// One slot judgement, two readers: over random key and value lengths
    /// (keys that fit line 0 and keys that do not), both write versions,
    /// tombstones, invalidated slots, torn trailers, all-zero slots and
    /// lengths that overrun the slot, `judge_lines` — fed only the lines it
    /// asks for, into a buffer full of junk — agrees with `decode` on the
    /// whole slot on everything but the value, and asks for line 0, then
    /// the trailer's line, then the key's other lines, each once and no
    /// other.
    #[test]
    fn judge_lines_agrees_with_decode() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut key = vec![0; rng.gen_range(1..140)];
            rng.fill_bytes(&mut key);
            let mut value = vec![0; rng.gen_range(0..400)];
            rng.fill_bytes(&mut value);
            let (tombstone, wv, invalidated) = (rng.gen(), rng.gen_range(1..3), rng.gen());
            let (spare, damage, junk) = (rng.gen_range(0..3), rng.gen_range(0..4), rng.gen());
            let sv = if invalidated {
                INVALID_SLOT_VERSION
            } else {
                0x0123_4567
            };
            let class_bytes = class_for(key.len(), value.len()).unwrap() as usize * 64;
            let mut slot = vec![0u8; class_bytes + spare * 64];
            encode(&mut slot, wv, sv, &key, &value, tombstone);
            let overrun = (slot.len() as u32).to_le_bytes();
            match damage {
                1 => slot[class_bytes - 1] = 3 - wv, // The other write's trailer.
                2 => slot.fill(0),
                3 => slot[4..8].copy_from_slice(&overrun), // Lengths past the slot.
                _ => {}
            }
            let mut buf = vec![junk; slot.len()];
            let mut asked = Vec::new();
            let got = judge_lines(&mut buf, |i, dst| {
                asked.push(i);
                dst.copy_from_slice(&slot[64 * i..64 * i + 64]);
            });
            let judged =
                |d: DecodedKv| (d.write_version, d.tombstone, d.slot_version, d.key.to_vec());
            let want = decode(&slot);
            assert_eq!(got.map(judged), want.map(judged), "seed {seed}");

            let trailer = (class_bytes - 1) / 64;
            let mut lines = vec![0];
            if damage == 0 || damage == 1 {
                lines.extend((trailer > 0).then_some(trailer));
            }
            if damage == 0 {
                let key_lines = 1..(KV_HEADER + key.len()).div_ceil(64);
                lines.extend(key_lines.filter(|&i| i != trailer));
            }
            assert_eq!(asked, lines, "seed {seed}");
        }
    }

    #[test]
    fn identity_of_unwritten_and_unused_write_versions() {
        assert_eq!(
            identity(&[0u8; 32], b"sixteen-byte-key"),
            Identity::Unwritten
        );
        assert_eq!(identity(&[], b"key"), Identity::Unwritten);
        let mut slot = vec![0u8; 64];
        encode(&mut slot, 2, 7, b"key", b"v", false);
        let live = Identity::Ours { tombstone: false };
        assert_eq!(identity(&slot[..identity_len(b"key")], b"key"), live);
        slot[0] = 3;
        assert_eq!(
            identity(&slot[..identity_len(b"key")], b"key"),
            Identity::Foreign
        );
    }

    #[test]
    fn write_version_toggles() {
        assert_eq!(next_write_version(0), 1);
        assert_eq!(next_write_version(1), 2);
        assert_eq!(next_write_version(2), 1);
    }
}
