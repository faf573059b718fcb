//! Aceso: efficient fault tolerance for memory-disaggregated KV stores.
//!
//! This is the facade crate of the workspace, re-exporting the public API of
//! every subsystem. Reproduction of Hu et al., *"Aceso: Achieving Efficient
//! Fault Tolerance in Memory-Disaggregated Key-Value Stores"*, SOSP 2024.
//!
//! # Quickstart
//!
//! ```
//! use aceso::core::{AcesoConfig, AcesoStore};
//!
//! let store = AcesoStore::launch(AcesoConfig::small()).unwrap();
//! let mut client = store.client().unwrap();
//! client.insert(b"greeting", b"hello, disaggregated world").unwrap();
//! assert_eq!(
//!     client.search(b"greeting").unwrap().as_deref(),
//!     Some(&b"hello, disaggregated world"[..])
//! );
//! store.shutdown();
//! ```

#![forbid(unsafe_code)]

pub use aceso_blockalloc as blockalloc;
pub use aceso_codec as codec;
pub use aceso_core as core;
pub use aceso_engines as engines;
pub use aceso_engines::fusee;
pub use aceso_erasure as erasure;
pub use aceso_index as index;
pub use aceso_obs as obs;
pub use aceso_rdma as rdma;
pub use aceso_workloads as workloads;
