//! Spatial access methods for the MaxRank reproduction.
//!
//! The paper assumes the dataset is indexed by an R\*-tree residing on disk
//! (4 KB pages) and charges one I/O per node access.  This crate provides
//! that substrate from scratch:
//!
//! * [`rstar`] — an aggregate R\*-tree (R\*-tree insertion with forced
//!   reinsertion, STR bulk loading, and per-entry record counts in the style
//!   of the aggregate R-tree of Papadias et al.), with range / count /
//!   dominator queries and page-access accounting,
//! * [`bbs`] — the Branch-and-Bound Skyline algorithm (BBS) extended with
//!   *deferral buckets*, which realises the "reuse of the BBS search heap"
//!   that AA's implicit-subsumption strategy relies on (paper §6.2),
//! * [`topk`] — top-k evaluation over the index (best-first search) and
//!   rank/order counting used by oracles and the appendix experiment,
//! * [`iostats`] — the per-thread page-access counter.

#![warn(missing_docs)]

pub mod bbs;
pub mod iostats;
pub mod rstar;
pub mod skyband;
pub mod topk;

pub use bbs::IncrementalSkyline;
pub use iostats::{count_reads, PAGE_SIZE_BYTES};
pub use rstar::{RStarConfig, RStarTree};
pub use skyband::{k_skyband, k_skyband_incomparable};
pub use topk::{order_of, top_k, TopKResult};
