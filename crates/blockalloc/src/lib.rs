//! Block Area layout, stripe geometry and Meta Area records (paper §3.3.1).
//!
//! Each memory node's region is carved by `aceso-core` into an Index Area,
//! a Meta Area and a Block Area. This crate owns the latter two:
//!
//! * [`layout`] — the Block Area is divided into fixed-size memory blocks
//!   (2 MB by default). Blocks are organized as X-Code stripe arrays: array
//!   `a`, column `j` (= the `j`-th MN of the coding group), row `r` is one
//!   cell; rows `0..n−2` are DATA cells handed to clients, rows `n−2, n−1`
//!   are the column's PARITY cells. A separate per-MN pool provides DELTA
//!   blocks, placed on the MN holding the dependent PARITY block.
//! * [`record`] — the per-block metadata record (paper Figure 5): Role,
//!   Valid, XOR ID, Index Version, CLI ID, Free Bitmap, and for PARITY
//!   blocks the XOR Map plus per-position Delta Addr.
//! * [`bitmap`] — the Free Bitmap utilities used by delta-based space
//!   reclamation.
//! * [`allocator`] — a DELTA-pool free list the repo benchmark probes. The
//!   server keeps none: it grants DATA cells, fresh or reused, and DELTA
//!   blocks off its record table.

#![forbid(unsafe_code)]

pub mod allocator;
pub mod bitmap;
pub mod layout;
pub mod record;

pub use allocator::Allocator;
pub use bitmap::Bitmap;
pub use layout::{BlockId, BlockLayout, CellKind, RECORD_TABLES};
pub use record::{BlockRecord, Role, RECORD_HEAD_BYTES};
