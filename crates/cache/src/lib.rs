//! Cache array substrate for the Vantage reproduction.
//!
//! This crate implements the hardware structures that the Vantage paper
//! (Sanchez & Kozyrakis, ISCA 2011) builds on:
//!
//! * [`hash`] — H3 universal hash functions, used to index hashed
//!   set-associative caches, skew-associative caches and zcaches.
//! * [`array`](mod@array) — the [`CacheArray`] abstraction: a container of physical
//!   *frames* that can look up lines and produce *replacement candidate
//!   walks*. Implementations:
//!   [`SetAssocArray`] (optionally hashed), [`SkewArray`],
//!   [`ZArray`] (zcache with multi-level candidate walks and relocation),
//!   and [`RandomArray`] (an idealized array returning uniformly random
//!   candidates, used to validate the analytical models).
//! * [`replacement`] — replacement policy building blocks: coarse-timestamp
//!   LRU ([`TsLru`]) and the RRIP family ([`RripPolicy`], with SRRIP / BRRIP
//!   / DRRIP / thread-aware DRRIP variants).
//!
//! The crate deliberately stops below the level of a full cache: partitioned
//! last-level caches are composed from these pieces by the `vantage` and
//! `vantage-partitioning` crates.
//!
//! # Example
//!
//! Build a Z4/52 zcache array (4 ways, 52 replacement candidates) and run a
//! replacement:
//!
//! ```
//! use vantage_cache::{CacheArray, LineAddr, Walk, ZArray};
//!
//! // 1024 frames, 4 ways, up to 52 candidates per replacement.
//! let mut array = ZArray::new(1024, 4, 52, 0xC0FFEE);
//! let mut walk = Walk::new();
//!
//! let addr = LineAddr(0x42);
//! assert!(array.lookup(addr).is_none());
//!
//! // Miss: get candidates, pick one (here the first), install the line.
//! array.walk(addr, &mut walk);
//! let mut moves = Vec::new();
//! let frame = array.install(addr, &walk, 0, &mut moves);
//! assert_eq!(array.lookup(addr), Some(frame));
//! ```

pub mod array;
pub mod hash;
pub mod ownership;
pub mod part_id;
pub mod random_array;
pub mod replacement;
pub mod set_assoc;
pub mod skew;
pub mod tagmeta;
pub mod zarray;

pub use array::{
    prefetch_slice, CacheArray, Frame, LineAddr, Walk, WalkNode, INVALID_FRAME, MAX_PROBE_WAYS,
};
pub use hash::H3Hasher;
pub use ownership::{Ownership, ShareMode};
pub use part_id::PartitionId;
pub use random_array::RandomArray;
pub use replacement::lru::TsLru;
pub use replacement::rrip::{RripConfig, RripMode, RripPolicy};
pub use set_assoc::SetAssocArray;
pub use skew::SkewArray;
pub use tagmeta::{TagMeta, TAG_UNMANAGED};
pub use zarray::ZArray;
