//! Registered memory regions backing each memory node.
//!
//! A region is a fixed-size array of [`AtomicU64`] words accessed at byte
//! granularity. This mirrors how an RNIC exposes host memory: ordinary
//! READ/WRITE verbs move bytes with no atomicity guarantee beyond the bus
//! word, while CAS/FAA are atomic PCIe read-modify-write transactions on
//! naturally aligned 8-byte words. Protocols that need torn-read detection
//! (the KV pair `Write Version` pairs, checkpoint snapshots of 8 B slot
//! halves) get exactly the guarantees they would get from real hardware.
//!
//! # Ordering contract
//!
//! The bulk kernels ([`Region::read`], [`Region::write`], [`Region::zero`],
//! [`Region::xor_from`], [`Region::xor_slice`], [`Region::copy_from`]) touch every word with one
//! `Relaxed` atomic access — a word is never torn — and order the call as a
//! whole with fences: one `Release` fence before a call's first store, one
//! `Acquire` fence after its last load. A call that observes any word
//! another call stored therefore synchronizes with that call (fence–fence
//! synchronization), and the same holds against the single-word atomics
//! ([`Region::cas64`], [`Region::faa64`], [`Region::load64`],
//! [`Region::store64`]), which keep their own `Acquire`/`Release` orderings:
//! a KV written with `write` and published by `cas64` is visible to whoever
//! reads it after an acquiring load of the published word. Words of one
//! call are *not* ordered among themselves, exactly like the payload of one
//! DMA transfer.

use crate::error::{RdmaError, Result};
use crate::NodeId;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// A registered memory region: `len` bytes backed by 8-byte atomic words.
pub struct Region {
    words: Box<[AtomicU64]>,
    len: usize,
    node: NodeId,
}

/// Bytes `[shift, shift + len)` of one word: the partial first or last
/// word of a byte range (`len < 8`).
struct Edge<'a> {
    word: &'a AtomicU64,
    shift: usize,
    len: usize,
}

impl Edge<'_> {
    /// Mask of the covered bytes in the little-endian word.
    fn mask(&self) -> u64 {
        ((1u64 << (8 * self.len)) - 1) << (8 * self.shift)
    }

    /// Copies the covered bytes of the word into `dst`.
    fn load_into(&self, dst: &mut [u8]) {
        let word = self.word.load(Ordering::Relaxed).to_le_bytes();
        dst.copy_from_slice(&word[self.shift..self.shift + self.len]);
    }

    /// `bytes` placed at the covered position of an otherwise zero word.
    fn place(&self, bytes: &[u8]) -> u64 {
        let mut word = [0u8; 8];
        word[self.shift..self.shift + self.len].copy_from_slice(bytes);
        u64::from_le_bytes(word)
    }

    /// Replaces the covered bytes with those of `val`, atomically, so
    /// concurrent atomics on the word's other bytes are not clobbered.
    fn merge(&self, val: u64) {
        let mask = self.mask();
        let _ = self
            .word
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                Some((old & !mask) | (val & mask))
            });
    }
}

/// A checked byte range as the kernels walk it: an optional partial first
/// word, a run of whole words, an optional partial last word.
struct Span<'a> {
    head: Option<Edge<'a>>,
    body: &'a [AtomicU64],
    tail: Option<Edge<'a>>,
}

impl Span<'_> {
    /// The partial words, first then last.
    fn edges(&self) -> impl Iterator<Item = &Edge<'_>> {
        self.head.iter().chain(&self.tail)
    }

    /// Splits a byte buffer of the span's length into the parts matching
    /// `head`, `body` and `tail`.
    fn split<'b>(&self, buf: &'b [u8]) -> (&'b [u8], &'b [u8], &'b [u8]) {
        let (head, rest) = buf.split_at(self.head.as_ref().map_or(0, |e| e.len));
        let (body, tail) = rest.split_at(self.body.len() * 8);
        (head, body, tail)
    }

    /// [`Span::split`] for a buffer being filled.
    fn split_mut<'b>(&self, buf: &'b mut [u8]) -> (&'b mut [u8], &'b mut [u8], &'b mut [u8]) {
        let (head, rest) = buf.split_at_mut(self.head.as_ref().map_or(0, |e| e.len));
        let (body, tail) = rest.split_at_mut(self.body.len() * 8);
        (head, body, tail)
    }
}

impl Region {
    /// Allocates a zeroed region of `len` bytes on behalf of `node`.
    ///
    /// `len` is rounded up to a multiple of 8.
    pub fn new(node: NodeId, len: usize) -> Self {
        let words = len.div_ceil(8);
        let mut v = Vec::with_capacity(words);
        v.resize_with(words, || AtomicU64::new(0));
        Region {
            words: v.into_boxed_slice(),
            len: words * 8,
            node,
        }
    }

    /// Takes `node` as the id its errors name: a standby region is built
    /// before the node it becomes has an id.
    pub(crate) fn claim(&mut self, node: NodeId) {
        self.node = node;
    }

    /// Size of the region in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the region has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn check(&self, offset: u64, len: usize) -> Result<usize> {
        let off = offset as usize;
        if off.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(RdmaError::OutOfBounds {
                node: self.node,
                offset,
                len,
                region: self.len,
            });
        }
        Ok(off)
    }

    /// Bounds-checks `[offset, offset + len)` and splits it at word
    /// boundaries.
    fn span(&self, offset: u64, len: usize) -> Result<Span<'_>> {
        let off = self.check(offset, len)?;
        let shift = off % 8;
        let head_len = if shift == 0 { 0 } else { (8 - shift).min(len) };
        let body_words = (len - head_len) / 8;
        let tail_len = (len - head_len) % 8;
        let first = off / 8 + usize::from(head_len > 0);
        Ok(Span {
            head: (head_len > 0).then(|| Edge {
                word: &self.words[off / 8],
                shift,
                len: head_len,
            }),
            body: &self.words[first..first + body_words],
            tail: (tail_len > 0).then(|| Edge {
                word: &self.words[first + body_words],
                shift: 0,
                len: tail_len,
            }),
        })
    }

    /// Reads `dst.len()` bytes starting at `offset` into `dst`.
    ///
    /// Each underlying 8-byte word is loaded atomically, matching the
    /// per-bus-word atomicity of a real RNIC DMA read. Reads racing with
    /// concurrent writes may observe a mix of old and new words but never a
    /// torn word (see the module docs for the ordering contract).
    pub fn read(&self, offset: u64, dst: &mut [u8]) -> Result<()> {
        let span = self.span(offset, dst.len())?;
        let (head, body, tail) = span.split_mut(dst);
        if let Some(e) = &span.head {
            e.load_into(head);
        }
        for (word, out) in span.body.iter().zip(body.chunks_exact_mut(8)) {
            out.copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
        }
        if let Some(e) = &span.tail {
            e.load_into(tail);
        }
        fence(Ordering::Acquire);
        Ok(())
    }

    /// Writes `src` starting at `offset`.
    ///
    /// Whole words are stored atomically; partial edge words are merged
    /// with an atomic read-modify-write so concurrent atomics on
    /// neighbouring bytes are not clobbered.
    pub fn write(&self, offset: u64, src: &[u8]) -> Result<()> {
        let span = self.span(offset, src.len())?;
        let (head, body, tail) = span.split(src);
        fence(Ordering::Release);
        if let Some(e) = &span.head {
            e.merge(e.place(head));
        }
        for (word, chunk) in span.body.iter().zip(body.chunks_exact(8)) {
            let bytes: [u8; 8] = chunk.try_into().expect("chunks_exact(8)");
            word.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
        }
        if let Some(e) = &span.tail {
            e.merge(e.place(tail));
        }
        Ok(())
    }

    /// Atomically compare-and-swaps the 8-byte word at `offset`.
    ///
    /// Returns the value observed before the operation; the swap succeeded
    /// iff the returned value equals `expected`, exactly like `RDMA_CAS`.
    pub fn cas64(&self, offset: u64, expected: u64, new: u64) -> Result<u64> {
        if !offset.is_multiple_of(8) {
            return Err(RdmaError::Unaligned(offset));
        }
        let off = self.check(offset, 8)?;
        match self.words[off / 8].compare_exchange(
            expected,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(prev) => Ok(prev),
            Err(prev) => Ok(prev),
        }
    }

    /// Atomically fetch-and-adds `delta` to the 8-byte word at `offset`.
    ///
    /// Returns the pre-add value, like `RDMA_FAA`.
    pub fn faa64(&self, offset: u64, delta: u64) -> Result<u64> {
        if !offset.is_multiple_of(8) {
            return Err(RdmaError::Unaligned(offset));
        }
        let off = self.check(offset, 8)?;
        Ok(self.words[off / 8].fetch_add(delta, Ordering::AcqRel))
    }

    /// Atomically loads the 8-byte word at `offset`.
    pub fn load64(&self, offset: u64) -> Result<u64> {
        if !offset.is_multiple_of(8) {
            return Err(RdmaError::Unaligned(offset));
        }
        let off = self.check(offset, 8)?;
        Ok(self.words[off / 8].load(Ordering::Acquire))
    }

    /// Atomically stores the 8-byte word at `offset`.
    pub fn store64(&self, offset: u64, value: u64) -> Result<()> {
        if !offset.is_multiple_of(8) {
            return Err(RdmaError::Unaligned(offset));
        }
        let off = self.check(offset, 8)?;
        self.words[off / 8].store(value, Ordering::Release);
        Ok(())
    }

    /// Copies `len` bytes at `offset` into a fresh vector.
    pub fn read_vec(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut v = vec![0u8; len];
        self.read(offset, &mut v)?;
        Ok(v)
    }

    /// Zeroes `len` bytes starting at `offset` (used when blocks are freed).
    pub fn zero(&self, offset: u64, len: usize) -> Result<()> {
        let span = self.span(offset, len)?;
        fence(Ordering::Release);
        if let Some(e) = &span.head {
            e.merge(0);
        }
        for word in span.body {
            word.store(0, Ordering::Relaxed);
        }
        if let Some(e) = &span.tail {
            e.merge(0);
        }
        Ok(())
    }

    /// Bounds-checks a region-to-region transfer of `len` bytes from
    /// `src[src_offset..]` to `self[offset..]` and splits both ranges.
    /// The two offsets must be congruent modulo 8 (every block, slot and
    /// area offset of the store is), so the ranges split identically and
    /// words map to words; otherwise [`RdmaError::Unaligned`].
    fn span_pair<'a>(
        &'a self,
        offset: u64,
        src: &'a Region,
        src_offset: u64,
        len: usize,
    ) -> Result<(Span<'a>, Span<'a>)> {
        if offset % 8 != src_offset % 8 {
            return Err(RdmaError::Unaligned(src_offset));
        }
        Ok((self.span(offset, len)?, src.span(src_offset, len)?))
    }

    /// XORs `len` bytes of `src` starting at `src_offset` into this region
    /// starting at `offset`, in place: the MN server's DELTA → PARITY fold
    /// (paper §3.3.2) without a staging copy.
    ///
    /// Whole destination words are updated by a load and a store, not one
    /// atomic read-modify-write: the destination range must have no
    /// concurrent writer (a parity block is written only by the server
    /// that owns it). Readers may race and see old or new words, never a
    /// torn one. `src` may be this region; the ranges must then not
    /// overlap.
    pub fn xor_from(&self, offset: u64, src: &Region, src_offset: u64, len: usize) -> Result<()> {
        let (dst, src) = self.span_pair(offset, src, src_offset, len)?;
        fence(Ordering::Release);
        for (d, s) in dst.edges().zip(src.edges()) {
            d.word
                .fetch_xor(s.word.load(Ordering::Relaxed) & s.mask(), Ordering::Relaxed);
        }
        for (d, s) in dst.body.iter().zip(src.body) {
            let folded = d.load(Ordering::Relaxed) ^ s.load(Ordering::Relaxed);
            d.store(folded, Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        Ok(())
    }

    /// XORs `src` into this region starting at `offset`, in place: an MN
    /// server applying a received checkpoint delta to the Checkpoint Area
    /// (paper §3.2.1) without reading the area out first.
    ///
    /// The concurrency contract is [`Region::xor_from`]'s: whole words are
    /// updated by a load and a store, so the range must have no concurrent
    /// writer; partial edge words are XORed atomically.
    pub fn xor_slice(&self, offset: u64, src: &[u8]) -> Result<()> {
        let span = self.span(offset, src.len())?;
        let (head, body, tail) = span.split(src);
        fence(Ordering::Release);
        if let Some(e) = &span.head {
            e.word.fetch_xor(e.place(head), Ordering::Relaxed);
        }
        if let Some(e) = &span.tail {
            e.word.fetch_xor(e.place(tail), Ordering::Relaxed);
        }
        for (word, chunk) in span.body.iter().zip(body.chunks_exact(8)) {
            let bytes: [u8; 8] = chunk.try_into().expect("chunks_exact(8)");
            let folded = word.load(Ordering::Relaxed) ^ u64::from_le_bytes(bytes);
            word.store(folded, Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        Ok(())
    }

    /// Copies `len` bytes of `src` starting at `src_offset` into this
    /// region starting at `offset`, word by word, without a staging
    /// buffer. `src` may be this region; the ranges must then not overlap.
    pub fn copy_from(&self, offset: u64, src: &Region, src_offset: u64, len: usize) -> Result<()> {
        let (dst, src) = self.span_pair(offset, src, src_offset, len)?;
        fence(Ordering::Release);
        for (d, s) in dst.edges().zip(src.edges()) {
            d.merge(s.word.load(Ordering::Relaxed));
        }
        for (d, s) in dst.body.iter().zip(src.body) {
            d.store(s.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn region(len: usize) -> Region {
        Region::new(NodeId(0), len)
    }

    // The byte-wise loops the word-bulk kernels replaced, kept as the
    // reference the kernels are checked against.

    fn ref_read(r: &Region, offset: u64, dst: &mut [u8]) -> Result<()> {
        let off = r.check(offset, dst.len())?;
        let mut pos = 0usize;
        while pos < dst.len() {
            let byte = off + pos;
            let widx = byte / 8;
            let shift = byte % 8;
            let take = (8 - shift).min(dst.len() - pos);
            let word = r.words[widx].load(Ordering::Acquire).to_le_bytes();
            dst[pos..pos + take].copy_from_slice(&word[shift..shift + take]);
            pos += take;
        }
        Ok(())
    }

    fn ref_write(r: &Region, offset: u64, src: &[u8]) -> Result<()> {
        let off = r.check(offset, src.len())?;
        let mut pos = 0usize;
        while pos < src.len() {
            let byte = off + pos;
            let widx = byte / 8;
            let shift = byte % 8;
            let take = (8 - shift).min(src.len() - pos);
            if take == 8 {
                let mut w = [0u8; 8];
                w.copy_from_slice(&src[pos..pos + 8]);
                r.words[widx].store(u64::from_le_bytes(w), Ordering::Release);
            } else {
                let mut mask = [0u8; 8];
                let mut val = [0u8; 8];
                for i in 0..take {
                    mask[shift + i] = 0xFF;
                    val[shift + i] = src[pos + i];
                }
                let mask = u64::from_le_bytes(mask);
                let val = u64::from_le_bytes(val);
                let _ = r.words[widx].fetch_update(Ordering::AcqRel, Ordering::Acquire, |old| {
                    Some((old & !mask) | val)
                });
            }
            pos += take;
        }
        Ok(())
    }

    fn ref_zero(r: &Region, offset: u64, len: usize) -> Result<()> {
        let off = r.check(offset, len)?;
        let mut pos = 0usize;
        while pos < len {
            let byte = off + pos;
            if byte.is_multiple_of(8) && len - pos >= 8 {
                r.words[byte / 8].store(0, Ordering::Release);
                pos += 8;
            } else {
                let take = (8 - byte % 8).min(len - pos);
                ref_write(r, byte as u64, &vec![0u8; take])?;
                pos += take;
            }
        }
        Ok(())
    }

    fn ref_xor_slice(r: &Region, offset: u64, src: &[u8]) -> Result<()> {
        let mut into = vec![0u8; src.len()];
        ref_read(r, offset, &mut into)?;
        into.iter_mut().zip(src).for_each(|(i, s)| *i ^= s);
        ref_write(r, offset, &into)
    }

    /// Region-to-region reference: stage through byte buffers.
    fn ref_combine(
        dst: &Region,
        offset: u64,
        src: &Region,
        src_offset: u64,
        len: usize,
        xor: bool,
    ) -> Result<()> {
        let mut from = vec![0u8; len];
        ref_read(src, src_offset, &mut from)?;
        if xor {
            let mut into = vec![0u8; len];
            ref_read(dst, offset, &mut into)?;
            from.iter_mut().zip(into).for_each(|(f, i)| *f ^= i);
        }
        ref_write(dst, offset, &from)
    }

    /// A region of `len` bytes holding a position-dependent pattern with no
    /// zero and no repeated neighbouring byte.
    fn patterned(len: usize, salt: usize) -> Region {
        let r = region(len);
        let bytes: Vec<u8> = (0..len)
            .map(|i| ((i * 37 + salt) % 251 + 1) as u8)
            .collect();
        ref_write(&r, 0, &bytes).unwrap();
        r
    }

    fn contents(r: &Region) -> Vec<u8> {
        let mut v = vec![0u8; r.len()];
        ref_read(r, 0, &mut v).unwrap();
        v
    }

    /// Runs every kernel and its reference on equal regions over
    /// `[offset, offset + len)` and compares the whole regions afterwards,
    /// so bytes next to the range are checked as well as those inside.
    fn check_against_reference(region_len: usize, offset: usize, len: usize) {
        let ctx = format!("offset {offset} len {len}");
        let src = patterned(region_len, 3);
        let data: Vec<u8> = (0..len).map(|i| (i * 13 + 7) as u8).collect();
        // The source range starts 16 bytes further in: same alignment,
        // different words.
        let src_offset = offset as u64 + 16;
        let offset = offset as u64;

        let (fast, slow) = (patterned(region_len, 0), patterned(region_len, 0));
        let (mut a, mut b) = (vec![0u8; len], vec![0xEEu8; len]);
        fast.read(offset, &mut a).unwrap();
        ref_read(&slow, offset, &mut b).unwrap();
        assert_eq!(a, b, "read {ctx}");

        fast.write(offset, &data).unwrap();
        ref_write(&slow, offset, &data).unwrap();
        assert_eq!(contents(&fast), contents(&slow), "write {ctx}");

        fast.xor_from(offset, &src, src_offset, len).unwrap();
        ref_combine(&slow, offset, &src, src_offset, len, true).unwrap();
        assert_eq!(contents(&fast), contents(&slow), "xor_from {ctx}");

        fast.xor_slice(offset, &data).unwrap();
        ref_xor_slice(&slow, offset, &data).unwrap();
        assert_eq!(contents(&fast), contents(&slow), "xor_slice {ctx}");

        fast.zero(offset, len).unwrap();
        ref_zero(&slow, offset, len).unwrap();
        assert_eq!(contents(&fast), contents(&slow), "zero {ctx}");

        fast.copy_from(offset, &src, src_offset, len).unwrap();
        ref_combine(&slow, offset, &src, src_offset, len, false).unwrap();
        assert_eq!(contents(&fast), contents(&slow), "copy_from {ctx}");
    }

    #[test]
    fn kernels_match_bytewise_reference_at_every_alignment() {
        for offset in 8..24 {
            for len in 0..=80 {
                check_against_reference(128, offset, len);
            }
        }
    }

    #[test]
    fn kernels_match_bytewise_reference_on_a_block() {
        const BLOCK: usize = 256 << 10;
        check_against_reference(BLOCK + 64, 16, BLOCK);
        check_against_reference(BLOCK + 64, 13, BLOCK - 3);
    }

    #[test]
    fn region_to_region_kernels_within_one_region() {
        let r = patterned(256, 0);
        let slow = patterned(256, 0);
        r.xor_from(8, &r, 128, 40).unwrap();
        ref_combine(&slow, 8, &slow, 128, 40, true).unwrap();
        r.copy_from(64, &r, 200, 19).unwrap();
        ref_combine(&slow, 64, &slow, 200, 19, false).unwrap();
        assert_eq!(contents(&r), contents(&slow));
    }

    #[test]
    fn kernel_bounds_errors_match_reference() {
        let r = region(64);
        let other = region(32);
        let mut buf = [0u8; 16];
        for (offset, len) in [(56u64, 16usize), (64, 1), (u64::MAX, 1), (65, 0)] {
            let want = ref_read(&r, offset, &mut buf[..len]).unwrap_err();
            assert!(matches!(want, RdmaError::OutOfBounds { .. }));
            assert_eq!(r.read(offset, &mut buf[..len]), Err(want.clone()));
            assert_eq!(r.write(offset, &buf[..len]), Err(want.clone()));
            assert_eq!(r.zero(offset, len), Err(want.clone()));
            assert_eq!(r.xor_slice(offset, &buf[..len]), Err(want.clone()));
            assert_eq!(
                r.xor_from(offset, &other, offset % 8, len),
                Err(want.clone())
            );
            assert_eq!(r.copy_from(offset, &other, offset % 8, len), Err(want));
        }
        // The source side is checked too, and reports its own region.
        let want = ref_read(&other, 24, &mut buf).unwrap_err();
        assert_eq!(r.xor_from(0, &other, 24, 16), Err(want.clone()));
        assert_eq!(r.copy_from(0, &other, 24, 16), Err(want));
        // Offsets that do not split alike are rejected before any access.
        assert_eq!(r.xor_from(0, &other, 3, 8), Err(RdmaError::Unaligned(3)));
        assert_eq!(r.copy_from(5, &other, 0, 8), Err(RdmaError::Unaligned(0)));
        assert_eq!(contents(&r), vec![0u8; 64]);
        // The exact end of the region is in bounds.
        r.write(48, &buf).unwrap();
        r.zero(64, 0).unwrap();
    }

    #[test]
    fn racing_reader_never_sees_a_torn_word() {
        const WORDS: usize = 64;
        const PATTERNS: [u64; 2] = [0x1111_1111_1111_1111, 0xEEEE_EEEE_EEEE_EEEE];
        const ROUNDS: usize = 2_000;
        let r = region(WORDS * 8 + 16);
        let images = PATTERNS.map(|p| p.to_le_bytes().repeat(WORDS));
        r.write(8, &images[0]).unwrap();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for round in 0..ROUNDS {
                    r.write(8, &images[(round + 1) % 2]).unwrap();
                }
            });
            s.spawn(|| {
                let mut buf = vec![0u8; WORDS * 8];
                start.wait();
                for _ in 0..ROUNDS {
                    r.read(8, &mut buf).unwrap();
                    for word in buf.chunks_exact(8) {
                        let word = u64::from_le_bytes(word.try_into().unwrap());
                        assert!(PATTERNS.contains(&word), "torn word {word:#018x}");
                    }
                }
            });
        });
    }

    #[test]
    fn write_read_roundtrip_aligned() {
        let r = region(64);
        let data: Vec<u8> = (0..32).collect();
        r.write(8, &data).unwrap();
        assert_eq!(r.read_vec(8, 32).unwrap(), data);
    }

    #[test]
    fn write_read_roundtrip_unaligned() {
        let r = region(64);
        let data: Vec<u8> = (10..31).collect();
        r.write(3, &data).unwrap();
        assert_eq!(r.read_vec(3, data.len()).unwrap(), data);
    }

    #[test]
    fn unaligned_write_preserves_neighbours() {
        let r = region(32);
        r.write(0, &[0xAA; 32]).unwrap();
        r.write(5, &[0x11, 0x22]).unwrap();
        let v = r.read_vec(0, 32).unwrap();
        assert_eq!(v[4], 0xAA);
        assert_eq!(v[5], 0x11);
        assert_eq!(v[6], 0x22);
        assert_eq!(v[7], 0xAA);
    }

    #[test]
    fn cas_semantics() {
        let r = region(16);
        r.store64(8, 7).unwrap();
        assert_eq!(r.cas64(8, 7, 9).unwrap(), 7);
        assert_eq!(r.load64(8).unwrap(), 9);
        // Failed CAS returns the observed value and leaves memory unchanged.
        assert_eq!(r.cas64(8, 7, 11).unwrap(), 9);
        assert_eq!(r.load64(8).unwrap(), 9);
    }

    #[test]
    fn faa_semantics() {
        let r = region(16);
        assert_eq!(r.faa64(0, 5).unwrap(), 0);
        assert_eq!(r.faa64(0, 5).unwrap(), 5);
        assert_eq!(r.load64(0).unwrap(), 10);
    }

    #[test]
    fn atomics_reject_unaligned() {
        let r = region(16);
        assert!(matches!(r.cas64(4, 0, 1), Err(RdmaError::Unaligned(4))));
        assert!(matches!(r.faa64(1, 1), Err(RdmaError::Unaligned(1))));
    }

    #[test]
    fn bounds_checked() {
        let r = region(16);
        assert!(r.read_vec(8, 16).is_err());
        assert!(r.write(16, &[1]).is_err());
        assert!(r.load64(16).is_err());
        // Offset overflow must not wrap.
        assert!(r.read_vec(u64::MAX, 1).is_err());
    }

    #[test]
    fn zero_clears_range() {
        let r = region(64);
        r.write(0, &[0xFF; 64]).unwrap();
        r.zero(5, 20).unwrap();
        let v = r.read_vec(0, 64).unwrap();
        assert!(v[5..25].iter().all(|&b| b == 0));
        assert_eq!(v[4], 0xFF);
        assert_eq!(v[25], 0xFF);
    }

    #[test]
    fn concurrent_cas_is_exclusive() {
        let r = Arc::new(region(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let mut wins = 0u64;
                    for _ in 0..10_000 {
                        let cur = r.load64(0).unwrap();
                        if r.cas64(0, cur, cur + 1).unwrap() == cur {
                            wins += 1;
                        }
                    }
                    wins
                })
            })
            .collect();
        let total: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(r.load64(0).unwrap(), total);
    }

    #[test]
    fn concurrent_faa_counts_exactly() {
        let r = Arc::new(region(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        r.faa64(0, 1).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.load64(0).unwrap(), 80_000);
    }
}
