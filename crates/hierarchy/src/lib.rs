//! Prefix hierarchies and generalization lattices for hierarchical heavy
//! hitters (HHH).
//!
//! The paper (*Constant Time Updates in Hierarchical Heavy Hitters*, SIGCOMM
//! 2017) treats packet header fields as hierarchical domains: a fully
//! specified IP address sits at the bottom, and each prefix generalizes it
//! (`181.7.20.6` is generalized by `181.7.20.*`, `181.7.*`, …). In two
//! dimensions the source × destination prefixes form a *lattice* (Table 1 of
//! the paper) where each node has up to two parents.
//!
//! This crate provides:
//!
//! * [`KeyBits`] — packed fixed-width integer keys (`u32`/`u64`/`u128`) with
//!   the bit operations needed to apply prefix masks in a single AND, exactly
//!   like Algorithm 1 line 4 (`Prefix p = x & HH[d].mask`).
//! * [`Lattice`] — the full hierarchy: one node per prefix pattern, each with
//!   a precomputed mask, a level (distance from fully specified), parent and
//!   child edges, and greatest-lower-bound (glb) resolution per
//!   Definition 12.
//! * [`Prefix`] — a (masked key, lattice node) pair with the generalization
//!   relation `≼` of Definition 1 and glb of concrete prefixes.
//! * Preset constructors for every hierarchy the paper evaluates
//!   (1D bytes H=5, 1D bits H=33, 2D bytes H=25) plus IPv6 variants that the
//!   paper motivates ("the transition to IPv6 is expected to increase
//!   hierarchies' sizes").
//!
//! # Example
//!
//! ```
//! use hhh_hierarchy::{Lattice, pack2};
//!
//! // The paper's 2D source/destination byte lattice: H = 25 nodes.
//! let lat = Lattice::ipv4_src_dst_bytes();
//! assert_eq!(lat.num_nodes(), 25);
//! assert_eq!(lat.depth(), 8); // L = 8 generalization steps
//!
//! let key = pack2(u32::from(std::net::Ipv4Addr::new(181, 7, 20, 6)),
//!                 u32::from(std::net::Ipv4Addr::new(208, 67, 222, 222)));
//! // Fully-general node masks everything away.
//! let root = lat.root();
//! assert_eq!(lat.mask_key(root, key), 0);
//! ```

mod key;
mod lattice;
mod parse;
mod prefix;
mod presets;

pub use key::{pack2, shard_of, split2, KeyBits};
pub use lattice::{FieldSpec, Lattice, NodeId};
pub use parse::PrefixParseError;
pub use prefix::Prefix;
