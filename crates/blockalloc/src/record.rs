//! The per-block metadata record (paper Figure 5).
//!
//! Every stripe cell of the Block Area — DATA or PARITY — has one
//! fixed-size record in the Meta Area. A DELTA-pool block has none: the
//! Delta Addr of the PARITY record it is folded into registers it. The
//! Meta Area is fault-tolerant by plain replication to the next two MNs
//! (§3.1), and readers fetch records from it one-sided, so a record is a
//! run of little-endian 8 B words, each field in a word this module names
//! once:
//!
//! ```text
//! word    field
//! 0       the head word (`head_word`): byte 0 Role (0 free, 1 data,
//!         2 parity), byte 1 Valid, byte 2 XOR ID — row of the cell within
//!         its column —, byte 3 slot len (64 B units) — the block's KV size
//!         class —, bytes 4..8 CLI ID (u32) — owning client
//! 1       Index Version, stamped when the block fills (§3.2.3)
//!           (`INDEX_VERSION_WORD`)
//! 2       stripe array index (`STRIPE_ARRAY_WORD`)
//! 3       XOR Map, low 16 bits (`XOR_MAP_WORD`) — parity blocks: bit k
//!         set ⇔ the k-th data position of this parity's equation has been
//!         encoded
//! 4..20   Delta Addr (16 words, `DELTA_ADDR_WORD + k`) — parity blocks:
//!         packed global address of the DELTA block covering the k-th data
//!         position (0 = none); the head ends here, at RECORD_HEAD_BYTES
//! 32..    Free Bitmap (≤ 128 words, `BITMAP_WORD + s / 64`) — data
//!         blocks: obsolete-KV bits, slot s at bit s % 64
//! ```
//!
//! The MN server changes a record by writing only the span of words a
//! change touches, into its own table and the same span into both copies;
//! every field outside the head word has a word to itself, and only a
//! grant writes the head word. [`BlockRecord`] is the decoded form for
//! readers: [`BlockRecord::encode`] and [`BlockRecord::decode`] go through
//! the same word names.
//!
//! The Free Bitmap holds one bit per KV slot, and a slot is at least 64 B,
//! so a record of a block of `block_size` is [`record_bytes`] long: 1280 B
//! at the paper's 2 MB block, 768 B at 256 KB, 384 B at 64 KB. KV slots
//! per block are bounded at 8192 — i.e. the smallest supported size class
//! is `block_size / 8192` (256 B at the default 2 MB block, matching the
//! paper's footnote that extremely small KVs are out of scope).

use crate::bitmap::Bitmap;

/// The Index Version's word. Word 0, the head word, holds Role, Valid,
/// XOR ID, slot len and CLI ID ([`head_word`] packs it, [`role_of`] and
/// [`slot_len_of`] read it); every other field has a word of its own,
/// named here once.
pub const INDEX_VERSION_WORD: usize = 1;
/// The stripe array index's word.
pub const STRIPE_ARRAY_WORD: usize = 2;
/// The XOR Map's word (its low 16 bits).
pub const XOR_MAP_WORD: usize = 3;
/// The 8 B word of a record holding Delta Addr 0: Delta Addr `k` is word
/// `DELTA_ADDR_WORD + k`.
pub const DELTA_ADDR_WORD: usize = 4;
/// The Free Bitmap's first word: slot `s` is bit `s % 64` of word
/// `BITMAP_WORD + s / 64`.
pub const BITMAP_WORD: usize = 32;
/// Maximum KV slots per block (bitmap width).
pub const MAX_SLOTS: usize = 8192;
/// Maximum data positions per parity equation (X-Code `n − 2 ≤ 16`).
pub const MAX_POSITIONS: usize = 16;
/// Length of the record *head*: everything up to and including Delta Addr.
/// A degraded SEARCH reads exactly these bytes of a parity block's record
/// with a one-sided READ (see [`BlockRecord::decode_head`]).
pub const RECORD_HEAD_BYTES: usize = 8 * (DELTA_ADDR_WORD + MAX_POSITIONS);

/// Serialized size in bytes of the record of a block of `block_size`: the
/// head and its padding, then a Free Bitmap wide enough for the most
/// slots such a block can have — one per 64 B, at most [`MAX_SLOTS`] — in
/// whole 8 B words, so every record of a table stays word-aligned.
pub fn record_bytes(block_size: u64) -> u64 {
    8 * (BITMAP_WORD as u64 + (block_size / 64).min(MAX_SLOTS as u64).div_ceil(64))
}

/// The Role field (paper Figure 5).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Role {
    /// Unallocated.
    #[default]
    Free = 0,
    /// Holds KV pairs.
    Data = 1,
    /// Holds erasure parity.
    Parity = 2,
}

/// Decoded form of one block's metadata record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockRecord {
    /// Block type.
    pub role: Role,
    /// Whether the block's bytes are currently trustworthy (may be false
    /// transiently during failures, §3.3.1).
    pub valid: bool,
    /// Row of the cell within its column (`XOR ID`).
    pub xor_id: u8,
    /// KV slot size in 64 B units (the block's size class); 0 when unset.
    pub slot_len64: u8,
    /// Owning client id (`CLI ID`).
    pub cli_id: u32,
    /// Index Version stamped when the block filled; 0 = unfilled (§3.2.3).
    pub index_version: u64,
    /// Stripe array this cell belongs to.
    pub stripe_array: u64,
    /// Parity blocks: bit `k` set ⇔ data position `k` encoded (`XOR Map`).
    pub xor_map: u16,
    /// Parity blocks: packed address of the DELTA block per data position
    /// (`Delta Addr`); 0 = none.
    pub delta_addr: [u64; MAX_POSITIONS],
    /// Data blocks: obsolete-KV bits (`Free Bitmap`).
    pub bitmap: Bitmap,
}

impl BlockRecord {
    /// A fresh FREE record (bitmap width 0 until a size class is assigned).
    pub fn free() -> Self {
        BlockRecord {
            role: Role::Free,
            valid: true,
            xor_id: 0,
            slot_len64: 0,
            cli_id: 0,
            index_version: 0,
            stripe_array: 0,
            xor_map: 0,
            delta_addr: [0; MAX_POSITIONS],
            bitmap: Bitmap::new(0),
        }
    }

    /// Number of KV slots a block of `block_size` has in this size class.
    pub fn slots(&self, block_size: u64) -> usize {
        if self.slot_len64 == 0 {
            0
        } else {
            (block_size / (self.slot_len64 as u64 * 64)) as usize
        }
    }

    /// Width of the Free Bitmap: one bit per KV slot for a DATA block, none
    /// for any other role. The allocating server and [`BlockRecord::decode`]
    /// both size it here.
    pub fn bitmap_bits(&self, block_size: u64) -> usize {
        match self.role {
            Role::Data => self.slots(block_size).min(MAX_SLOTS),
            _ => 0,
        }
    }

    /// Serializes into [`record_bytes`]`(block_size)` bytes, word by word.
    pub fn encode(&self, block_size: u64) -> Vec<u8> {
        let (r, mut words) = (self, vec![0; record_bytes(block_size) as usize / 8]);
        words[0] = head_word(r.role, r.valid, r.xor_id, r.slot_len64, r.cli_id);
        words[INDEX_VERSION_WORD] = r.index_version;
        words[STRIPE_ARRAY_WORD] = r.stripe_array;
        words[XOR_MAP_WORD] = r.xor_map as u64;
        words[DELTA_ADDR_WORD..][..MAX_POSITIONS].copy_from_slice(&r.delta_addr);
        let mut b: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let bm = r.bitmap.as_bytes();
        b[8 * BITMAP_WORD..][..bm.len()].copy_from_slice(bm);
        b
    }

    /// Decodes `(xor_map, delta_addr)` from the first
    /// [`RECORD_HEAD_BYTES`] of a serialized record — all a reader of one
    /// parity chain needs to know which cells to fold.
    ///
    /// Clients read these bytes straight out of the Meta Area, where the
    /// record lives: the owning server changes it there, in its own record
    /// table, and keeps no other copy.
    pub fn decode_head(bytes: &[u8]) -> (u16, [u64; MAX_POSITIONS]) {
        assert!(bytes.len() >= RECORD_HEAD_BYTES);
        let delta_addr = std::array::from_fn(|k| word_of(bytes, DELTA_ADDR_WORD + k));
        (word_of(bytes, XOR_MAP_WORD) as u16, delta_addr)
    }

    /// Deserializes from record bytes; `block_size` fixes the bitmap width.
    pub fn decode(bytes: &[u8], block_size: u64) -> Self {
        assert!(bytes.len() >= record_bytes(block_size) as usize);
        let (xor_map, delta_addr) = Self::decode_head(bytes);
        let head = word_of(bytes, 0);
        let [_, valid, xor_id, ..] = head.to_le_bytes();
        let mut rec = BlockRecord {
            role: role_of(head),
            valid: valid != 0,
            xor_id,
            slot_len64: slot_len_of(head),
            cli_id: (head >> 32) as u32,
            index_version: word_of(bytes, INDEX_VERSION_WORD),
            stripe_array: word_of(bytes, STRIPE_ARRAY_WORD),
            xor_map,
            delta_addr,
            bitmap: Bitmap::new(0),
        };
        rec.bitmap = Bitmap::from_bytes(rec.bitmap_bits(block_size), &bytes[8 * BITMAP_WORD..]);
        rec
    }
}

/// Word `i` of the serialized record `bytes`.
fn word_of(bytes: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("an 8 B word"))
}

/// A record's word 0: Role, Valid, XOR ID and slot len in its low four
/// bytes, CLI ID in its high four.
pub fn head_word(role: Role, valid: bool, xor_id: u8, slot_len64: u8, cli_id: u32) -> u64 {
    let low = [role as u8, valid as u8, xor_id, slot_len64];
    u32::from_le_bytes(low) as u64 | (cli_id as u64) << 32
}

/// The Role of a record whose word 0 is `head`: Role is its low byte, so
/// one load tells a FREE record from the rest.
pub fn role_of(head: u64) -> Role {
    match head as u8 {
        1 => Role::Data,
        2 => Role::Parity,
        _ => Role::Free,
    }
}

/// The slot len (size class, 64 B units) of a record whose word 0 is
/// `head`.
pub fn slot_len_of(head: u64) -> u8 {
    (head >> 24) as u8
}

/// How many of its `slots` KV slots a record marks obsolete, read through
/// `word(i)`, its `i`-th 8 B word: the head's first two and the Free
/// Bitmap's, and nothing decoded. `None` unless the record is a filled
/// DATA block (Index Version ≠ 0) of size class `slot_len64`.
pub fn obsolete_slots(word: impl Fn(usize) -> u64, slot_len64: u8, slots: usize) -> Option<usize> {
    let (head, filled) = (word(0), word(INDEX_VERSION_WORD) != 0);
    if role_of(head) != Role::Data || slot_len_of(head) != slot_len64 || !filled {
        return None;
    }
    let words = BITMAP_WORD..BITMAP_WORD + slots.min(MAX_SLOTS).div_ceil(64);
    Some(words.map(|i| word(i).count_ones() as usize).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_data_record() {
        let mut r = BlockRecord::free();
        r.role = Role::Data;
        r.xor_id = 2;
        r.slot_len64 = 16; // 1024 B KVs.
        r.cli_id = 42;
        r.index_version = 7;
        r.stripe_array = 3;
        r.bitmap = Bitmap::new(64);
        r.bitmap.set(5, true);
        r.bitmap.set(63, true);
        let bytes = r.encode(64 * 1024);
        assert_eq!(bytes.len(), 256 + 1024 / 8);
        let d = BlockRecord::decode(&bytes, 64 * 1024);
        assert_eq!(d, r);
        assert_eq!(d.slots(64 * 1024), 64);
    }

    #[test]
    fn words_read_what_decode_reads() {
        let mut r = BlockRecord::free();
        (r.role, r.xor_id, r.slot_len64, r.cli_id) = (Role::Data, 2, 16, 0xdead_beef);
        (r.index_version, r.stripe_array, r.xor_map) = (7, 3, 0b1010);
        r.bitmap = Bitmap::new(64);
        for slot in [0, 5, 63] {
            r.bitmap.set(slot, true);
        }
        let read = |r: &BlockRecord| {
            let bytes = r.encode(64 * 1024);
            move |i: usize| word_of(&bytes, i)
        };
        assert_eq!(role_of(read(&r)(0)), Role::Data);
        assert_eq!(obsolete_slots(read(&r), 16, 64), Some(3));
        assert_eq!(obsolete_slots(read(&r), 8, 128), None, "another class");
        let d = BlockRecord::decode(&r.encode(64 * 1024), 64 * 1024);
        let head = head_word(d.role, d.valid, d.xor_id, d.slot_len64, d.cli_id);
        assert_eq!(read(&r)(0), head, "the head word");
        assert_eq!(slot_len_of(read(&r)(0)), d.slot_len64);
        assert_eq!(read(&r)(INDEX_VERSION_WORD), d.index_version);
        assert_eq!(read(&r)(STRIPE_ARRAY_WORD), d.stripe_array);
        assert_eq!(read(&r)(XOR_MAP_WORD), d.xor_map as u64);
        let bitmap = read(&r)(BITMAP_WORD).to_le_bytes();
        assert_eq!(&bitmap[..], d.bitmap.as_bytes(), "the Bitmap's first word");
        r.index_version = 0;
        assert_eq!(obsolete_slots(read(&r), 16, 64), None, "not filled");
        assert_eq!(role_of(read(&BlockRecord::free())(0)), Role::Free);
        r.delta_addr[2] = 0x1234;
        assert_eq!(read(&r)(DELTA_ADDR_WORD + 2), 0x1234);
    }

    #[test]
    fn roundtrip_parity_record() {
        let mut r = BlockRecord::free();
        r.role = Role::Parity;
        r.xor_map = 0b101;
        r.delta_addr[0] = 0xABCD;
        r.delta_addr[2] = 0x1234;
        let bytes = r.encode(2 << 20);
        assert_eq!(
            BlockRecord::decode_head(&bytes[..RECORD_HEAD_BYTES]),
            (r.xor_map, r.delta_addr),
            "the head alone carries XOR Map and Delta Addr"
        );
        let d = BlockRecord::decode(&bytes, 2 << 20);
        assert_eq!(d.role, Role::Parity);
        assert_eq!(d.xor_map, 0b101);
        assert_eq!(d.delta_addr[0], 0xABCD);
        assert_eq!(d.delta_addr[1], 0);
        assert_eq!(d.delta_addr[2], 0x1234);
    }

    #[test]
    fn free_record_is_all_default() {
        let d = BlockRecord::decode(&BlockRecord::free().encode(2 << 20), 2 << 20);
        assert_eq!(d.role, Role::Free);
        assert!(d.valid);
        assert_eq!(d.index_version, 0);
        assert_eq!(d.slots(2 << 20), 0);
    }

    #[test]
    fn bitmap_width_follows_size_class() {
        let mut r = BlockRecord::free();
        r.role = Role::Data;
        r.slot_len64 = 4; // 256 B KVs.
        r.bitmap = Bitmap::new((2 << 20) / 256);
        assert_eq!(r.bitmap.len(), 8192);
        let bytes = r.encode(2 << 20);
        assert_eq!(bytes.len(), 1280, "the widest record");
        let d = BlockRecord::decode(&bytes, 2 << 20);
        assert_eq!(d.bitmap.len(), 8192);
    }

    #[test]
    fn record_bytes_follow_the_block_size() {
        let sizes = [(16 << 10, 288), (64 << 10, 384), (256 << 10, 768)];
        let sizes = sizes.into_iter().chain([(2 << 20, 1280), (4 << 20, 1280)]);
        let sizes = sizes.chain([(1000 * 64, 256 + 128), (4096, 264)]);
        for (block_size, bytes) in sizes {
            assert_eq!(record_bytes(block_size), bytes, "{block_size} B blocks");
        }
    }
}
