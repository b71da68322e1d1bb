//! # redsoc-mem — memory-hierarchy substrate
//!
//! The cache model backing the ReDSOC reproduction's out-of-order core:
//! a two-level hierarchy (64 kB L1 + 2 MB L2 with stride prefetching, per
//! the paper's Table I) over a fixed-latency DRAM.
//!
//! The model is *tags-only*: data correctness belongs to the functional
//! interpreter in the trace-driven methodology; this crate answers only
//! "where does this access hit, and how long does it take?" — which is what
//! distinguishes the paper's `MEM-HL` (L1-miss) from `MEM-LL` operation
//! categories (Fig. 10) and throttles ReDSOC's gains on memory-bound
//! applications (§VI-C).
//!
//! ## Example
//!
//! ```
//! use redsoc_mem::{AccessOutcome, MemoryHierarchy};
//!
//! let mut mem = MemoryHierarchy::paper_default();
//! let first = mem.access(0x40, 0x1000, false);
//! assert_eq!(first.outcome, AccessOutcome::Memory); // cold miss
//! let second = mem.access(0x40, 0x1000, false);
//! assert_eq!(second.outcome, AccessOutcome::L1Hit);
//! assert!(second.latency_cycles < first.latency_cycles);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod contended;
pub mod hierarchy;
pub mod model;
pub mod prefetch;

pub use cache::{Cache, CacheConfig, CacheConfigError, CacheStats};
pub use contended::{ContendedConfig, ContendedHierarchy};
pub use hierarchy::{AccessOutcome, AccessResult, HierarchyStats, MemLatencies, MemoryHierarchy};
pub use model::{
    build_memory_model, ClassicHierarchy, ContentionStats, MemModelConfig, MemReject, MemResponse,
    MemoryModel,
};
pub use prefetch::{PrefetchStats, PrefetchTargets, StridePrefetcher};
