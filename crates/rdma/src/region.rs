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
//! # Chunks
//!
//! The words live in a fixed table of equal 64 KiB chunks (`CHUNK`), and a
//! chunk is allocated zeroed by the first verb that writes into it:
//! [`Region::write`], [`Region::store64`], [`Region::cas64`],
//! [`Region::faa64`], [`Region::xor_slice`], and the destination side of
//! [`Region::xor_from`] and [`Region::copy_from`]. An absent chunk reads as
//! zeros. [`Region::zero`], and a copy or XOR whose source chunk is absent,
//! allocate nothing. So a region costs the memory its store wrote to, as a
//! page of an OS mapping costs nothing until first touched;
//! [`Region::populate`] allocates every chunk up front.
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
//!
//! A chunk is published through its `OnceLock`: the zeroing that allocates
//! it happens-before every access that finds it present, so an access sees
//! either the absent chunk's zeros — the value every word holds before its
//! first store — or the chunk's words, never uninitialized memory. A range
//! inside one chunk is one lookup followed by the contiguous-array kernel;
//! a longer range runs that kernel once per chunk it crosses, between the
//! call's two fences.

use crate::error::{RdmaError, Result};
use crate::NodeId;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Bytes per chunk: sixteen pages. Page-sized chunks cost the store's
/// append-heavy write paths a zeroed allocation per 4 KiB first written,
/// and a table sixteen times as large; 64 KiB stays below glibc's default
/// mmap threshold, so every chunk is carved from the heap alike.
pub(crate) const CHUNK: usize = 64 << 10;

/// Words per chunk.
const CHUNK_WORDS: usize = CHUNK / 8;

/// One chunk's words.
type Chunk = [AtomicU64; CHUNK_WORDS];

/// A registered memory region: `len` bytes backed by 8-byte atomic words,
/// held in chunks allocated on first write.
pub struct Region {
    chunks: Box<[OnceLock<Box<Chunk>>]>,
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

/// A byte range inside one chunk as the kernels walk it: an optional
/// partial first word, a run of whole words, an optional partial last word.
struct Span<'a> {
    head: Option<Edge<'a>>,
    body: &'a [AtomicU64],
    tail: Option<Edge<'a>>,
}

impl<'a> Span<'a> {
    /// Splits bytes `[at, at + len)` of `words` at word boundaries.
    fn new(words: &'a Chunk, at: usize, len: usize) -> Self {
        let shift = at % 8;
        let head_len = if shift == 0 { 0 } else { (8 - shift).min(len) };
        let body_words = (len - head_len) / 8;
        let tail_len = (len - head_len) % 8;
        let first = at / 8 + usize::from(head_len > 0);
        Span {
            head: (head_len > 0).then(|| Edge {
                word: &words[at / 8],
                shift,
                len: head_len,
            }),
            body: &words[first..first + body_words],
            tail: (tail_len > 0).then(|| Edge {
                word: &words[first + body_words],
                shift: 0,
                len: tail_len,
            }),
        }
    }

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

    fn read(&self, dst: &mut [u8]) {
        let (head, body, tail) = self.split_mut(dst);
        if let Some(e) = &self.head {
            e.load_into(head);
        }
        for (word, out) in self.body.iter().zip(body.chunks_exact_mut(8)) {
            out.copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
        }
        if let Some(e) = &self.tail {
            e.load_into(tail);
        }
    }

    fn write(&self, src: &[u8]) {
        let (head, body, tail) = self.split(src);
        if let Some(e) = &self.head {
            e.merge(e.place(head));
        }
        for (word, chunk) in self.body.iter().zip(body.chunks_exact(8)) {
            let bytes: [u8; 8] = chunk.try_into().expect("chunks_exact(8)");
            word.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
        }
        if let Some(e) = &self.tail {
            e.merge(e.place(tail));
        }
    }

    fn zero(&self) {
        for e in self.edges() {
            e.merge(0);
        }
        for word in self.body {
            word.store(0, Ordering::Relaxed);
        }
    }

    fn xor_slice(&self, src: &[u8]) {
        let (head, body, tail) = self.split(src);
        if let Some(e) = &self.head {
            e.word.fetch_xor(e.place(head), Ordering::Relaxed);
        }
        if let Some(e) = &self.tail {
            e.word.fetch_xor(e.place(tail), Ordering::Relaxed);
        }
        for (word, chunk) in self.body.iter().zip(body.chunks_exact(8)) {
            let bytes: [u8; 8] = chunk.try_into().expect("chunks_exact(8)");
            let folded = word.load(Ordering::Relaxed) ^ u64::from_le_bytes(bytes);
            word.store(folded, Ordering::Relaxed);
        }
    }

    /// XORs `src`, a span split alike, into this one.
    fn xor_from(&self, src: &Span<'_>) {
        for (d, s) in self.edges().zip(src.edges()) {
            d.word
                .fetch_xor(s.word.load(Ordering::Relaxed) & s.mask(), Ordering::Relaxed);
        }
        for (d, s) in self.body.iter().zip(src.body) {
            let folded = d.load(Ordering::Relaxed) ^ s.load(Ordering::Relaxed);
            d.store(folded, Ordering::Relaxed);
        }
    }

    /// Copies `src`, a span split alike, into this one.
    fn copy_from(&self, src: &Span<'_>) {
        for (d, s) in self.edges().zip(src.edges()) {
            d.merge(s.word.load(Ordering::Relaxed));
        }
        for (d, s) in self.body.iter().zip(src.body) {
            d.store(s.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

/// One step of a walk over a byte range: `len` bytes that start `pos`
/// bytes into the range, at byte `at` of chunk `chunk` on the destination
/// side and at byte `src_at` of chunk `src_chunk` on the source side.
struct Piece {
    pos: usize,
    len: usize,
    chunk: usize,
    at: usize,
    src_chunk: usize,
    src_at: usize,
}

/// Calls `f` on each piece of a transfer of `len` bytes from byte
/// `src_off` to byte `off`, cut at every chunk boundary of either side; a
/// one-sided kernel passes its offset twice. A range inside one chunk on
/// both sides is one piece, found without a loop. Chunks are whole words,
/// so when the offsets are congruent modulo 8 every cut falls on a word
/// boundary of both sides: only the first piece can start inside a word
/// and only the last can end inside one.
#[inline(always)]
fn for_each_piece(off: usize, src_off: usize, len: usize, mut f: impl FnMut(Piece)) {
    let piece = |pos: usize, len: usize| {
        let (d, s) = (off + pos, src_off + pos);
        Piece {
            pos,
            len,
            chunk: d / CHUNK,
            at: d % CHUNK,
            src_chunk: s / CHUNK,
            src_at: s % CHUNK,
        }
    };
    if len == 0 {
        return;
    }
    if off % CHUNK + len <= CHUNK && src_off % CHUNK + len <= CHUNK {
        return f(piece(0, len));
    }
    let mut pos = 0;
    while pos < len {
        let (d, s) = (off + pos, src_off + pos);
        let n = (CHUNK - d % CHUNK).min(CHUNK - s % CHUNK).min(len - pos);
        f(piece(pos, n));
        pos += n;
    }
}

/// A freshly allocated chunk of zero words.
fn zeroed() -> Box<Chunk> {
    Box::new([const { AtomicU64::new(0) }; CHUNK_WORDS])
}

impl Region {
    /// A zeroed region of `len` bytes on behalf of `node`: a table of
    /// absent chunks, each allocated by the first verb that writes into it.
    ///
    /// `len` is rounded up to a multiple of 8.
    pub fn new(node: NodeId, len: usize) -> Self {
        let len = len.div_ceil(8) * 8;
        Region {
            chunks: (0..len.div_ceil(CHUNK)).map(|_| OnceLock::new()).collect(),
            len,
            node,
        }
    }

    /// Allocates every chunk not yet allocated, so that no later verb pays
    /// for a first touch: what a standby or joining node's memory costs
    /// before the node is handed out.
    pub fn populate(&self) {
        for chunk in &self.chunks {
            chunk.get_or_init(zeroed);
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

    /// Chunk `i`, if a write has allocated it.
    #[inline]
    fn chunk(&self, i: usize) -> Option<&Chunk> {
        self.chunks[i].get().map(|c| &**c)
    }

    /// Chunk `i`, allocated zeroed if no write has yet.
    #[inline]
    fn chunk_or_alloc(&self, i: usize) -> &Chunk {
        self.chunks[i].get_or_init(zeroed)
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

    /// Checks an 8-byte atomic's offset: aligned and in bounds.
    fn check_word(&self, offset: u64) -> Result<usize> {
        if !offset.is_multiple_of(8) {
            return Err(RdmaError::Unaligned(offset));
        }
        self.check(offset, 8)
    }

    /// The word at byte `off`, its chunk allocated if need be.
    fn word(&self, off: usize) -> &AtomicU64 {
        &self.chunk_or_alloc(off / CHUNK)[off % CHUNK / 8]
    }

    /// Reads `dst.len()` bytes starting at `offset` into `dst`.
    ///
    /// Each underlying 8-byte word is loaded atomically, matching the
    /// per-bus-word atomicity of a real RNIC DMA read. Reads racing with
    /// concurrent writes may observe a mix of old and new words but never a
    /// torn word (see the module docs for the ordering contract).
    pub fn read(&self, offset: u64, dst: &mut [u8]) -> Result<()> {
        let off = self.check(offset, dst.len())?;
        for_each_piece(off, off, dst.len(), |p| {
            let out = &mut dst[p.pos..p.pos + p.len];
            match self.chunk(p.chunk) {
                Some(words) => Span::new(words, p.at, p.len).read(out),
                None => out.fill(0),
            }
        });
        fence(Ordering::Acquire);
        Ok(())
    }

    /// Writes `src` starting at `offset`.
    ///
    /// Whole words are stored atomically; partial edge words are merged
    /// with an atomic read-modify-write so concurrent atomics on
    /// neighbouring bytes are not clobbered.
    pub fn write(&self, offset: u64, src: &[u8]) -> Result<()> {
        let off = self.check(offset, src.len())?;
        fence(Ordering::Release);
        for_each_piece(off, off, src.len(), |p| {
            Span::new(self.chunk_or_alloc(p.chunk), p.at, p.len).write(&src[p.pos..p.pos + p.len]);
        });
        Ok(())
    }

    /// Atomically compare-and-swaps the 8-byte word at `offset`.
    ///
    /// Returns the value observed before the operation; the swap succeeded
    /// iff the returned value equals `expected`, exactly like `RDMA_CAS`.
    pub fn cas64(&self, offset: u64, expected: u64, new: u64) -> Result<u64> {
        let off = self.check_word(offset)?;
        match self
            .word(off)
            .compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(prev) => Ok(prev),
            Err(prev) => Ok(prev),
        }
    }

    /// Atomically fetch-and-adds `delta` to the 8-byte word at `offset`.
    ///
    /// Returns the pre-add value, like `RDMA_FAA`.
    pub fn faa64(&self, offset: u64, delta: u64) -> Result<u64> {
        let off = self.check_word(offset)?;
        Ok(self.word(off).fetch_add(delta, Ordering::AcqRel))
    }

    /// Atomically loads the 8-byte word at `offset`.
    pub fn load64(&self, offset: u64) -> Result<u64> {
        let off = self.check_word(offset)?;
        Ok(self
            .chunk(off / CHUNK)
            .map_or(0, |words| words[off % CHUNK / 8].load(Ordering::Acquire)))
    }

    /// Atomically stores the 8-byte word at `offset`.
    pub fn store64(&self, offset: u64, value: u64) -> Result<()> {
        let off = self.check_word(offset)?;
        self.word(off).store(value, Ordering::Release);
        Ok(())
    }

    /// Copies `len` bytes at `offset` into a fresh vector.
    pub fn read_vec(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut v = vec![0u8; len];
        self.read(offset, &mut v)?;
        Ok(v)
    }

    /// Zeroes `len` bytes starting at `offset` (used when blocks are freed).
    /// An absent chunk is zero already and stays absent.
    pub fn zero(&self, offset: u64, len: usize) -> Result<()> {
        let off = self.check(offset, len)?;
        fence(Ordering::Release);
        for_each_piece(off, off, len, |p| {
            if let Some(words) = self.chunk(p.chunk) {
                Span::new(words, p.at, p.len).zero();
            }
        });
        Ok(())
    }

    /// Bounds-checks a region-to-region transfer of `len` bytes from
    /// `src[src_offset..]` to `self[offset..]`. The two offsets must be
    /// congruent modulo 8 (every block, slot and area offset of the store
    /// is), so the ranges split identically and words map to words;
    /// otherwise [`RdmaError::Unaligned`].
    fn check_pair(
        &self,
        offset: u64,
        src: &Region,
        src_offset: u64,
        len: usize,
    ) -> Result<(usize, usize)> {
        if offset % 8 != src_offset % 8 {
            return Err(RdmaError::Unaligned(src_offset));
        }
        Ok((self.check(offset, len)?, src.check(src_offset, len)?))
    }

    /// XORs `len` bytes of `src` starting at `src_offset` into this region
    /// starting at `offset`, in place: the MN server's DELTA → PARITY fold
    /// (paper §3.3.2) without a staging copy. Where the source chunk is
    /// absent, XOR with its zeros changes nothing and nothing is touched.
    ///
    /// Whole destination words are updated by a load and a store, not one
    /// atomic read-modify-write: the destination range must have no
    /// concurrent writer (a parity block is written only by the server
    /// that owns it). Readers may race and see old or new words, never a
    /// torn one. `src` may be this region; the ranges must then not
    /// overlap.
    pub fn xor_from(&self, offset: u64, src: &Region, src_offset: u64, len: usize) -> Result<()> {
        let (off, src_off) = self.check_pair(offset, src, src_offset, len)?;
        fence(Ordering::Release);
        for_each_piece(off, src_off, len, |p| {
            if let Some(from) = src.chunk(p.src_chunk) {
                Span::new(self.chunk_or_alloc(p.chunk), p.at, p.len)
                    .xor_from(&Span::new(from, p.src_at, p.len));
            }
        });
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
        let off = self.check(offset, src.len())?;
        fence(Ordering::Release);
        for_each_piece(off, off, src.len(), |p| {
            Span::new(self.chunk_or_alloc(p.chunk), p.at, p.len)
                .xor_slice(&src[p.pos..p.pos + p.len]);
        });
        fence(Ordering::Acquire);
        Ok(())
    }

    /// Copies `len` bytes of `src` starting at `src_offset` into this
    /// region starting at `offset`, word by word, without a staging
    /// buffer. Where the source chunk is absent this is [`Region::zero`].
    /// `src` may be this region; the ranges must then not overlap.
    pub fn copy_from(&self, offset: u64, src: &Region, src_offset: u64, len: usize) -> Result<()> {
        let (off, src_off) = self.check_pair(offset, src, src_offset, len)?;
        fence(Ordering::Release);
        for_each_piece(off, src_off, len, |p| match src.chunk(p.src_chunk) {
            Some(from) => Span::new(self.chunk_or_alloc(p.chunk), p.at, p.len)
                .copy_from(&Span::new(from, p.src_at, p.len)),
            None => {
                if let Some(words) = self.chunk(p.chunk) {
                    Span::new(words, p.at, p.len).zero();
                }
            }
        });
        fence(Ordering::Acquire);
        Ok(())
    }

    /// Number of chunks allocated so far.
    #[cfg(test)]
    pub(crate) fn chunks_allocated(&self) -> usize {
        self.chunks.iter().filter(|c| c.get().is_some()).count()
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
    // reference the kernels are checked against. They reach word `i`
    // through `load` (zero where the chunk is absent, allocating nothing)
    // and `word_mut` (allocating), so the kernels' cuts at word and chunk
    // boundaries are what is checked.

    fn load(r: &Region, i: usize) -> u64 {
        r.chunk(i / CHUNK_WORDS)
            .map_or(0, |words| words[i % CHUNK_WORDS].load(Ordering::Acquire))
    }

    fn word_mut(r: &Region, i: usize) -> &AtomicU64 {
        &r.chunk_or_alloc(i / CHUNK_WORDS)[i % CHUNK_WORDS]
    }

    fn ref_read(r: &Region, offset: u64, dst: &mut [u8]) -> Result<()> {
        let off = r.check(offset, dst.len())?;
        let mut pos = 0usize;
        while pos < dst.len() {
            let byte = off + pos;
            let widx = byte / 8;
            let shift = byte % 8;
            let take = (8 - shift).min(dst.len() - pos);
            let word = load(r, widx).to_le_bytes();
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
                word_mut(r, widx).store(u64::from_le_bytes(w), Ordering::Release);
            } else {
                let mut mask = [0u8; 8];
                let mut val = [0u8; 8];
                for i in 0..take {
                    mask[shift + i] = 0xFF;
                    val[shift + i] = src[pos + i];
                }
                let mask = u64::from_le_bytes(mask);
                let val = u64::from_le_bytes(val);
                let _ =
                    word_mut(r, widx).fetch_update(Ordering::AcqRel, Ordering::Acquire, |old| {
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
                word_mut(r, byte / 8).store(0, Ordering::Release);
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
    /// zero and no repeated neighbouring byte: in every chunk, or with
    /// `sparse` in the even chunks only, the odd ones left absent.
    fn patterned(len: usize, salt: usize, sparse: bool) -> Region {
        let r = region(len);
        let bytes: Vec<u8> = (0..len)
            .map(|i| ((i * 37 + salt) % 251 + 1) as u8)
            .collect();
        for (i, piece) in bytes.chunks(CHUNK).enumerate() {
            if !sparse || i % 2 == 0 {
                ref_write(&r, (i * CHUNK) as u64, piece).unwrap();
            }
        }
        r
    }

    fn contents(r: &Region) -> Vec<u8> {
        let mut v = vec![0u8; r.len()];
        ref_read(r, 0, &mut v).unwrap();
        v
    }

    /// Runs every kernel and its reference on equal regions over
    /// `[offset, offset + len)`, the region-to-region ones from
    /// `[src_offset, src_offset + len)` of a third region, and compares the
    /// whole regions afterwards, so bytes next to the range are checked as
    /// well as those inside. With `sparse`, the odd chunks of all three
    /// regions start absent.
    fn check_against_reference(
        region_len: usize,
        offset: usize,
        src_offset: usize,
        len: usize,
        sparse: bool,
    ) {
        let ctx = format!("offset {offset} src {src_offset} len {len} sparse {sparse}");
        let src = patterned(region_len, 3, sparse);
        let data: Vec<u8> = (0..len).map(|i| (i * 13 + 7) as u8).collect();
        let (offset, src_offset) = (offset as u64, src_offset as u64);

        let (fast, slow) = (
            patterned(region_len, 0, sparse),
            patterned(region_len, 0, sparse),
        );
        let (mut a, mut b) = (vec![0u8; len], vec![0xEEu8; len]);
        fast.read(offset, &mut a).unwrap();
        ref_read(&slow, offset, &mut b).unwrap();
        assert_eq!(a, b, "read {ctx}");

        // Zero before the first write, so a zeroed absent chunk is checked.
        fast.zero(offset, len).unwrap();
        ref_zero(&slow, offset, len).unwrap();
        assert_eq!(contents(&fast), contents(&slow), "zero {ctx}");

        fast.copy_from(offset, &src, src_offset, len).unwrap();
        ref_combine(&slow, offset, &src, src_offset, len, false).unwrap();
        assert_eq!(contents(&fast), contents(&slow), "copy_from {ctx}");

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
                // The source range starts 16 bytes further in: same
                // alignment, different words.
                check_against_reference(128, offset, offset + 16, len, false);
            }
        }
    }

    #[test]
    fn kernels_match_bytewise_reference_on_a_block() {
        const BLOCK: usize = 256 << 10;
        check_against_reference(BLOCK + 64, 16, 32, BLOCK, false);
        check_against_reference(BLOCK + 64, 13, 29, BLOCK - 3, false);
    }

    #[test]
    fn kernels_match_bytewise_reference_across_a_chunk_boundary() {
        for sparse in [false, true] {
            for offset in CHUNK - 20..CHUNK + 4 {
                for len in [0, 1, 7, 8, 9, 20, 21, 40, 79] {
                    check_against_reference(CHUNK + 128, offset, offset + 16, len, sparse);
                }
            }
            // Two boundaries inside one range.
            check_against_reference(3 * CHUNK, CHUNK - 5, CHUNK + 11, CHUNK + 10, sparse);
        }
    }

    #[test]
    fn kernels_match_bytewise_reference_on_absent_chunks() {
        const BLOCK: usize = 256 << 10;
        check_against_reference(BLOCK + 2 * CHUNK, 16, 32, BLOCK, true);
        check_against_reference(BLOCK + 2 * CHUNK, 13, 29, BLOCK - 3, true);
    }

    #[test]
    fn region_to_region_kernels_at_different_chunk_phases() {
        // Offsets congruent modulo 8 but not modulo the chunk, so the
        // destination and the source cross chunk boundaries at different
        // points of the range.
        for gap in [8, CHUNK / 2 + 8, CHUNK - 8, CHUNK + 24] {
            for sparse in [false, true] {
                check_against_reference(4 * CHUNK, 1005, 1005 + gap, 2 * CHUNK + 50, sparse);
                check_against_reference(4 * CHUNK, 1005 + gap, 1005, 2 * CHUNK + 50, sparse);
            }
        }
    }

    #[test]
    fn only_writes_allocate_chunks() {
        let r = region(8 * CHUNK);
        let absent = region(8 * CHUNK);
        // Reads see zeros; zeroing, and copying or XORing absent source
        // chunks, leave the chunks absent.
        assert_eq!(r.read_vec(0, 8 * CHUNK).unwrap(), vec![0u8; 8 * CHUNK]);
        assert_eq!(r.load64(CHUNK as u64).unwrap(), 0);
        r.zero(3, 8 * CHUNK - 3).unwrap();
        r.copy_from(8, &absent, 16, 8 * CHUNK - 16).unwrap();
        r.xor_from(8, &absent, 16, 8 * CHUNK - 16).unwrap();
        r.copy_from(0, &r, 4 * CHUNK as u64, 4 * CHUNK).unwrap();
        assert_eq!((r.chunks_allocated(), absent.chunks_allocated()), (0, 0));
        // Each writing verb allocates exactly the chunks it covers: a write
        // across a boundary two, each single-word verb one.
        r.write(CHUNK as u64 - 4, &[1; 8]).unwrap();
        assert_eq!(r.chunks_allocated(), 2);
        r.store64(2 * CHUNK as u64, 1).unwrap();
        r.cas64(3 * CHUNK as u64, 1, 2).unwrap();
        r.faa64(4 * CHUNK as u64 + 8, 1).unwrap();
        r.xor_slice(5 * CHUNK as u64, &[0; 3]).unwrap();
        assert_eq!(r.chunks_allocated(), 6);
        // A copy or XOR allocates the destination chunks whose source is
        // present; where the source is absent, a copy zeroes a present
        // destination and allocates nothing.
        let c = CHUNK as u64;
        r.copy_from(6 * c, &r, 0, CHUNK).unwrap();
        assert_eq!(r.chunks_allocated(), 7);
        assert_eq!(r.read_vec(7 * c - 4, 4).unwrap(), [1; 4]);
        r.copy_from(7 * c - 8, &r, 7 * c, 8).unwrap();
        assert_eq!(r.read_vec(7 * c - 8, 8).unwrap(), [0; 8]);
        r.xor_from(7 * c - 8, &r, c - 8, 8).unwrap();
        assert_eq!(r.read_vec(7 * c - 8, 8).unwrap(), [0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(r.chunks_allocated(), 7);
        r.populate();
        assert_eq!(r.chunks_allocated(), 8);
    }

    #[test]
    fn region_to_region_kernels_within_one_region() {
        let r = patterned(256, 0, false);
        let slow = patterned(256, 0, false);
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

    /// A writer alternates two images over one range while a reader polls
    /// it; every word the reader sees is one the writer stored, or zero
    /// before the first store. With `fresh`, the range lies in a chunk the
    /// writer's first store allocates while the reader polls it.
    fn race_reader_against_writer(fresh: bool) {
        const WORDS: usize = 64;
        const PATTERNS: [u64; 2] = [0x1111_1111_1111_1111, 0xEEEE_EEEE_EEEE_EEEE];
        const ROUNDS: usize = 2_000;
        let r = region(2 * CHUNK);
        let at = if fresh { CHUNK as u64 + 8 } else { 8 };
        let images = PATTERNS.map(|p| p.to_le_bytes().repeat(WORDS));
        if !fresh {
            r.write(at, &images[0]).unwrap();
        }
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for round in 0..ROUNDS {
                    r.write(at, &images[(round + 1) % 2]).unwrap();
                }
            });
            s.spawn(|| {
                let mut buf = vec![0u8; WORDS * 8];
                start.wait();
                for _ in 0..ROUNDS {
                    r.read(at, &mut buf).unwrap();
                    for word in buf.chunks_exact(8) {
                        let word = u64::from_le_bytes(word.try_into().unwrap());
                        assert!(
                            PATTERNS.contains(&word) || (fresh && word == 0),
                            "torn word {word:#018x}"
                        );
                    }
                }
            });
        });
        assert_eq!(r.chunks_allocated(), 1);
    }

    #[test]
    fn racing_reader_never_sees_a_torn_word() {
        race_reader_against_writer(false);
    }

    #[test]
    fn racing_reader_never_sees_a_torn_word_in_a_fresh_chunk() {
        race_reader_against_writer(true);
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
