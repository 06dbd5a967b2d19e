//! The generalization lattice.
//!
//! A hierarchy is described by one [`FieldSpec`] per dimension (bit width of
//! the field and the generalization step — 1 bit or 8 bits for the paper's
//! configurations). Every combination of per-dimension prefix lengths is a
//! *lattice node*; the paper's `H` is the number of nodes and `L`
//! ([`Lattice::depth`]) is the number of generalization steps from fully
//! specified to fully general (Definition 7).
//!
//! Nodes are identified by dense [`NodeId`]s in mixed-radix order so that the
//! algorithms can index per-node state (e.g. one Space Saving instance per
//! node) with a plain array.

use crate::key::KeyBits;

/// One dimension of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FieldSpec {
    /// Width of the field in bits (32 for IPv4, 128 for IPv6).
    pub width: u32,
    /// Generalization granularity in bits (8 = byte level, 1 = bit level).
    pub step: u32,
}

impl FieldSpec {
    /// Creates a field spec, validating that `step` divides `width`.
    ///
    /// # Panics
    ///
    /// Panics when `step` is zero or does not divide `width`.
    #[must_use]
    pub fn new(width: u32, step: u32) -> Self {
        assert!(step > 0, "generalization step must be positive");
        assert!(
            width > 0 && width.is_multiple_of(step),
            "step {step} must divide field width {width}"
        );
        Self { width, step }
    }

    /// Number of generalization choices for this field: `width/step + 1`
    /// (from fully general `*` to fully specified).
    #[must_use]
    pub fn choices(&self) -> u32 {
        self.width / self.step + 1
    }

    /// Maximum number of specified steps (the fully-specified prefix length
    /// in steps).
    #[must_use]
    pub fn max_steps(&self) -> u32 {
        self.width / self.step
    }
}

/// Dense identifier of a lattice node. The fully-general node (`*` in every
/// dimension) always has id 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NodeId(pub u16);

impl NodeId {
    /// The node id as a usize index.
    #[inline(always)]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct Node<K> {
    mask: K,
    /// Specified steps per dimension (`0` = `*`, `max_steps` = fully
    /// specified).
    spec: Vec<u32>,
    /// Distance from fully specified: `Σ_d (max_steps_d − spec_d)`.
    level: u32,
    parents: Vec<NodeId>,
    children: Vec<NodeId>,
}

/// A full generalization lattice over a packed key type `K`.
///
/// Construct via the presets ([`Lattice::ipv4_src_bytes`] and friends) or
/// [`Lattice::new`] for custom hierarchies.
#[derive(Debug, Clone)]
pub struct Lattice<K> {
    fields: Vec<FieldSpec>,
    nodes: Vec<Node<K>>,
    /// Node ids grouped by level; `levels[0]` is the fully-specified node.
    levels: Vec<Vec<NodeId>>,
    /// Mixed-radix strides for `spec -> id` lookup.
    strides: Vec<usize>,
    name: String,
}

impl<K: KeyBits> Lattice<K> {
    /// Builds the lattice for the given dimensions.
    ///
    /// Dimension 0 occupies the most significant bits of `K`; the sum of
    /// field widths must not exceed `K::BITS`.
    ///
    /// # Panics
    ///
    /// Panics when the fields do not fit in `K`, when there are no fields, or
    /// when the lattice would exceed `u16::MAX` nodes.
    #[must_use]
    pub fn new(name: impl Into<String>, fields: Vec<FieldSpec>) -> Self {
        assert!(!fields.is_empty(), "a lattice needs at least one dimension");
        let total_width: u32 = fields.iter().map(|f| f.width).sum();
        assert!(
            total_width <= K::BITS,
            "fields occupy {total_width} bits but the key has only {} bits",
            K::BITS
        );

        let num_nodes: usize = fields.iter().map(|f| f.choices() as usize).product();
        assert!(
            num_nodes <= usize::from(u16::MAX),
            "lattice with {num_nodes} nodes exceeds the NodeId range"
        );

        // Mixed-radix strides: id = Σ spec_d · stride_d, with the last
        // dimension fastest-varying.
        let mut strides = vec![0usize; fields.len()];
        let mut acc = 1usize;
        for d in (0..fields.len()).rev() {
            strides[d] = acc;
            acc *= fields[d].choices() as usize;
        }

        // Bit offset (from LSB) of each field within the packed key.
        let mut offsets = vec![0u32; fields.len()];
        let mut lo = 0u32;
        for d in (0..fields.len()).rev() {
            offsets[d] = lo;
            lo += fields[d].width;
        }

        let max_level: u32 = fields.iter().map(FieldSpec::max_steps).sum();
        let mut nodes = Vec::with_capacity(num_nodes);
        let mut levels: Vec<Vec<NodeId>> = vec![Vec::new(); max_level as usize + 1];

        let mut spec = vec![0u32; fields.len()];
        for id in 0..num_nodes {
            // Decode the mixed-radix id into a spec vector.
            let mut rest = id;
            for d in 0..fields.len() {
                spec[d] = (rest / strides[d]) as u32;
                rest %= strides[d];
            }

            let mut mask = K::zero();
            let mut level = 0u32;
            for d in 0..fields.len() {
                let f = fields[d];
                let bits = spec[d] * f.step;
                // The prefix occupies the most significant `bits` of the
                // field.
                mask = mask.or(K::range_mask(offsets[d] + f.width - bits, bits));
                level += f.max_steps() - spec[d];
            }

            let node_id = NodeId(id as u16);
            levels[level as usize].push(node_id);

            // Parents generalize by one step in exactly one dimension
            // (spec_d − 1); children specialize (spec_d + 1).
            let mut parents = Vec::new();
            let mut children = Vec::new();
            for d in 0..fields.len() {
                if spec[d] > 0 {
                    parents.push(NodeId((id - strides[d]) as u16));
                }
                if spec[d] < fields[d].max_steps() {
                    children.push(NodeId((id + strides[d]) as u16));
                }
            }

            nodes.push(Node {
                mask,
                spec: spec.clone(),
                level,
                parents,
                children,
            });
        }

        Self {
            fields,
            nodes,
            levels,
            strides,
            name: name.into(),
        }
    }

    /// Human-readable name of the hierarchy (e.g. `"ipv4-2d-bytes"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The hierarchy size `H` — the number of lattice nodes (and of
    /// heavy-hitter instances the algorithms maintain).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The hierarchy depth `L` of Definition 7 — the number of single-step
    /// generalizations from fully specified to fully general.
    #[must_use]
    pub fn depth(&self) -> u32 {
        (self.levels.len() - 1) as u32
    }

    /// Number of dimensions.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.fields.len()
    }

    /// Field specification of dimension `d`.
    #[must_use]
    pub fn field(&self, d: usize) -> FieldSpec {
        self.fields[d]
    }

    /// The fully-general node `(*, …, *)`.
    #[must_use]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// The fully-specified node.
    #[must_use]
    pub fn bottom(&self) -> NodeId {
        NodeId((self.nodes.len() - 1) as u16)
    }

    /// The prefix mask of a node.
    #[inline(always)]
    #[must_use]
    pub fn mask(&self, node: NodeId) -> K {
        self.nodes[node.index()].mask
    }

    /// Applies the node's mask to a fully-specified key — Algorithm 1 line 4.
    #[inline(always)]
    #[must_use]
    pub fn mask_key(&self, node: NodeId, key: K) -> K {
        key.and(self.mask(node))
    }

    /// Level of a node (0 = fully specified, [`Self::depth`] = fully
    /// general).
    #[inline]
    #[must_use]
    pub fn level(&self, node: NodeId) -> u32 {
        self.nodes[node.index()].level
    }

    /// Specified steps per dimension for a node.
    #[must_use]
    pub fn spec(&self, node: NodeId) -> &[u32] {
        &self.nodes[node.index()].spec
    }

    /// Direct parents (one-step generalizations) of a node.
    #[must_use]
    pub fn parents(&self, node: NodeId) -> &[NodeId] {
        &self.nodes[node.index()].parents
    }

    /// Direct children (one-step specializations) of a node.
    #[must_use]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.nodes[node.index()].children
    }

    /// All node ids at a given level.
    #[must_use]
    pub fn nodes_at_level(&self, level: u32) -> &[NodeId] {
        &self.levels[level as usize]
    }

    /// Iterator over all node ids, from fully general (id 0) upward.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId(i as u16))
    }

    /// Looks up the node with the given per-dimension specified steps.
    ///
    /// # Panics
    ///
    /// Panics when `spec` has the wrong arity or a step count exceeds the
    /// dimension's maximum.
    #[must_use]
    pub fn node_by_spec(&self, spec: &[u32]) -> NodeId {
        assert_eq!(spec.len(), self.fields.len(), "spec arity mismatch");
        let mut id = 0usize;
        for (d, &s) in spec.iter().enumerate() {
            assert!(
                s <= self.fields[d].max_steps(),
                "dimension {d} allows at most {} steps, got {s}",
                self.fields[d].max_steps()
            );
            id += s as usize * self.strides[d];
        }
        NodeId(id as u16)
    }

    /// Whether node `a` generalizes node `b` (`a ≼ b` on patterns): every
    /// dimension of `a` is at most as specified as in `b`.
    #[must_use]
    pub fn node_generalizes(&self, a: NodeId, b: NodeId) -> bool {
        self.nodes[a.index()]
            .spec
            .iter()
            .zip(&self.nodes[b.index()].spec)
            .all(|(sa, sb)| sa <= sb)
    }

    /// The meet (greatest lower bound) of two node *patterns*: per-dimension
    /// maximum specificity. This is the node of Definition 12's glb.
    #[must_use]
    pub fn glb_node(&self, a: NodeId, b: NodeId) -> NodeId {
        self.combine_specs(a, b, u32::max)
    }

    /// The join (least upper bound) of two node patterns: per-dimension
    /// minimum specificity.
    #[must_use]
    pub fn lub_node(&self, a: NodeId, b: NodeId) -> NodeId {
        self.combine_specs(a, b, u32::min)
    }

    /// The node whose spec picks, per dimension, `pick` of the two nodes'
    /// steps (both in range, so the result is too).
    fn combine_specs(&self, a: NodeId, b: NodeId, pick: fn(u32, u32) -> u32) -> NodeId {
        let id: usize = self.nodes[a.index()]
            .spec
            .iter()
            .zip(&self.nodes[b.index()].spec)
            .zip(&self.strides)
            .map(|((&sa, &sb), stride)| pick(sa, sb) as usize * stride)
            .sum();
        NodeId(id as u16)
    }

    /// Formats a masked key at the given node in a human-readable way:
    /// dotted-quad with `/len` for 32-bit fields, hex groups for wider
    /// fields, `*` for fully-general dimensions.
    #[must_use]
    pub fn format(&self, node: NodeId, key: K) -> String {
        let mut out = String::new();
        let mut lo_from_msb = 0u32;
        for (d, f) in self.fields.iter().enumerate() {
            if d > 0 {
                out.push(',');
            }
            let spec_bits = self.nodes[node.index()].spec[d] * f.step;
            // Extract the field: shift so the field's MSB-aligned value sits
            // in the low `width` bits.
            let shift = K::BITS - lo_from_msb - f.width;
            let field = key.shr(shift);
            if spec_bits == 0 {
                out.push('*');
            } else if f.width == 32 {
                let v = (field.low_u64() & 0xFFFF_FFFF) as u32;
                out.push_str(&format!(
                    "{}.{}.{}.{}/{}",
                    v >> 24,
                    (v >> 16) & 0xFF,
                    (v >> 8) & 0xFF,
                    v & 0xFF,
                    spec_bits
                ));
            } else if f.width <= 64 {
                let v = field.low_u64() & ones_u64(f.width);
                out.push_str(&format!("{v:#x}/{spec_bits}"));
            } else {
                // Wide fields (IPv6): print as 16-bit colon groups from the
                // most significant end, assembling byte by byte so fields
                // wider than 64 bits are not truncated.
                let bytes = (f.width / 8) as usize;
                for i in 0..bytes {
                    let b = field.shr(f.width - 8 - (i as u32) * 8).low_u64() as u8;
                    if i > 0 && i % 2 == 0 {
                        out.push(':');
                    }
                    out.push_str(&format!("{b:02x}"));
                }
                out.push_str(&format!("/{spec_bits}"));
            }
            lo_from_msb += f.width;
        }
        out
    }
}

/// A `u64` with the low `bits` bits set (`bits <= 64`).
fn ones_u64(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::pack2;

    #[test]
    fn one_dim_byte_lattice_shape() {
        let lat = Lattice::<u32>::new("1d-bytes", vec![FieldSpec::new(32, 8)]);
        assert_eq!(lat.num_nodes(), 5); // H = 5 per the paper
        assert_eq!(lat.depth(), 4);
        assert_eq!(lat.dims(), 1);
        // Level 0 holds the fully-specified node, level 4 the root.
        assert_eq!(lat.nodes_at_level(0), &[lat.bottom()]);
        assert_eq!(lat.nodes_at_level(4), &[lat.root()]);
    }

    #[test]
    fn one_dim_bit_lattice_shape() {
        let lat = Lattice::<u32>::new("1d-bits", vec![FieldSpec::new(32, 1)]);
        assert_eq!(lat.num_nodes(), 33); // H = 33
        assert_eq!(lat.depth(), 32);
    }

    #[test]
    fn two_dim_byte_lattice_shape() {
        let lat = Lattice::<u64>::new(
            "2d-bytes",
            vec![FieldSpec::new(32, 8), FieldSpec::new(32, 8)],
        );
        assert_eq!(lat.num_nodes(), 25); // H = 25
        assert_eq!(lat.depth(), 8); // L = 8
                                    // Levels of the 5x5 lattice have sizes 1,2,3,4,5,4,3,2,1.
        let sizes: Vec<usize> = (0..=8).map(|l| lat.nodes_at_level(l).len()).collect();
        assert_eq!(sizes, vec![1, 2, 3, 4, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn masks_are_prefix_masks() {
        let lat = Lattice::<u32>::new("1d-bytes", vec![FieldSpec::new(32, 8)]);
        let masks: Vec<u32> = lat.node_ids().map(|n| lat.mask(n)).collect();
        assert_eq!(
            masks,
            vec![0, 0xFF00_0000, 0xFFFF_0000, 0xFFFF_FF00, 0xFFFF_FFFF]
        );
    }

    #[test]
    fn two_dim_masks_combine_fields() {
        let lat = Lattice::<u64>::new(
            "2d-bytes",
            vec![FieldSpec::new(32, 8), FieldSpec::new(32, 8)],
        );
        // Node (src /8, dst /16).
        let node = lat.node_by_spec(&[1, 2]);
        assert_eq!(lat.mask(node), 0xFF00_0000_FFFF_0000);
        let key = pack2(0xC0A8_0101, 0x0A00_0001);
        assert_eq!(lat.mask_key(node, key), 0xC000_0000_0A00_0000);
    }

    #[test]
    fn node_spec_roundtrip() {
        let lat = Lattice::<u64>::new(
            "2d-bytes",
            vec![FieldSpec::new(32, 8), FieldSpec::new(32, 8)],
        );
        for id in lat.node_ids() {
            let spec = lat.spec(id).to_vec();
            assert_eq!(lat.node_by_spec(&spec), id);
        }
    }

    #[test]
    fn parent_child_symmetry_and_levels() {
        let lat = Lattice::<u64>::new(
            "2d-bytes",
            vec![FieldSpec::new(32, 8), FieldSpec::new(32, 8)],
        );
        for id in lat.node_ids() {
            for &p in lat.parents(id) {
                assert_eq!(lat.level(p), lat.level(id) + 1);
                assert!(lat.children(p).contains(&id));
                assert!(lat.node_generalizes(p, id));
            }
            for &c in lat.children(id) {
                assert_eq!(lat.level(c) + 1, lat.level(id));
                assert!(lat.parents(c).contains(&id));
            }
        }
        // Interior nodes of a 2D lattice have exactly two parents, as the
        // paper describes.
        let interior = lat.node_by_spec(&[2, 2]);
        assert_eq!(lat.parents(interior).len(), 2);
        assert!(lat.parents(lat.root()).is_empty());
        assert!(lat.children(lat.bottom()).is_empty());
    }

    #[test]
    fn glb_and_lub_are_bounds() {
        let lat = Lattice::<u64>::new(
            "2d-bytes",
            vec![FieldSpec::new(32, 8), FieldSpec::new(32, 8)],
        );
        let a = lat.node_by_spec(&[3, 1]);
        let b = lat.node_by_spec(&[1, 4]);
        let glb = lat.glb_node(a, b);
        let lub = lat.lub_node(a, b);
        assert_eq!(lat.spec(glb), &[3, 4]);
        assert_eq!(lat.spec(lub), &[1, 1]);
        assert!(lat.node_generalizes(a, glb) && lat.node_generalizes(b, glb));
        assert!(lat.node_generalizes(lub, a) && lat.node_generalizes(lub, b));
    }

    #[test]
    fn generalization_is_a_partial_order() {
        let lat = Lattice::<u64>::new(
            "2d-bytes",
            vec![FieldSpec::new(32, 8), FieldSpec::new(32, 8)],
        );
        let ids: Vec<NodeId> = lat.node_ids().collect();
        for &a in &ids {
            assert!(lat.node_generalizes(a, a)); // reflexive
            for &b in &ids {
                if lat.node_generalizes(a, b) && lat.node_generalizes(b, a) {
                    assert_eq!(a, b); // antisymmetric
                }
                for &c in &ids {
                    if lat.node_generalizes(a, b) && lat.node_generalizes(b, c) {
                        assert!(lat.node_generalizes(a, c)); // transitive
                    }
                }
            }
        }
    }

    #[test]
    fn root_generalizes_everything() {
        let lat = Lattice::<u32>::new("1d-bits", vec![FieldSpec::new(32, 1)]);
        for id in lat.node_ids() {
            assert!(lat.node_generalizes(lat.root(), id));
            assert!(lat.node_generalizes(id, lat.bottom()));
        }
    }

    #[test]
    fn format_renders_dotted_quads() {
        let lat = Lattice::<u64>::new(
            "2d-bytes",
            vec![FieldSpec::new(32, 8), FieldSpec::new(32, 8)],
        );
        let key = pack2(
            u32::from_be_bytes([181, 7, 20, 6]),
            u32::from_be_bytes([208, 67, 222, 222]),
        );
        let node = lat.node_by_spec(&[3, 4]);
        let masked = lat.mask_key(node, key);
        assert_eq!(lat.format(node, masked), "181.7.20.0/24,208.67.222.222/32");
        let root = lat.root();
        assert_eq!(lat.format(root, 0), "*,*");
    }

    #[test]
    #[should_panic(expected = "must divide field width")]
    fn rejects_non_dividing_step() {
        let _ = FieldSpec::new(32, 5);
    }

    #[test]
    #[should_panic(expected = "fields occupy")]
    fn rejects_oversized_fields() {
        let _ = Lattice::<u32>::new("bad", vec![FieldSpec::new(32, 8), FieldSpec::new(32, 8)]);
    }
}
