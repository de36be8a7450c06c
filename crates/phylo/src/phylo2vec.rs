//! phylo2vec-style integer-vector encoding of binary unrooted trees.
//!
//! A binary unrooted tree on taxa `t0 < t1 < … < t_{n-1}` is written as the
//! integer vector of its *canonical insertion trace*: starting from the
//! unique tree on `{t0, t1}`, taxon `t_i` (`i ≥ 2`) is inserted on edge
//! `code[i-2]` of the partial tree, where edges are numbered in allocation
//! order (the order [`Tree::insert_leaf_on_edge`] assigns ids on a fresh
//! arena — a partial tree on `k` leaves has exactly the contiguous edge ids
//! `0 .. 2k-3`). The trace is unique, so `encode ∘ decode ≡ id` on codes
//! and `decode ∘ encode` reproduces the topology exactly. Both directions
//! are linear in `n`: decoding makes `n - 2` insertions, and [`Encoder`]
//! reads the trace back in one rooted pass, because the edge ids decoding
//! assigns are fixed by each edge's upper node and slot.
//!
//! Properties the stand container relies on (per the phylo2vec paper):
//!
//! * **O(n) integers per tree** instead of an O(n·label) Newick string;
//! * element `code[i]` is bounded by `2i+1`, so varints stay at one byte
//!   for all but the deepest insertions;
//! * trees that share the insertion history of their first `k` taxa share
//!   the first `k-2` vector entries — sibling stand trees emitted by the
//!   depth-first search differ only in a short suffix, which the container
//!   exploits with prefix-delta compression;
//! * the vector is trivially hashable, giving a cheap cross-shard
//!   topology key.

use crate::taxa::TaxonId;
use crate::tree::{EdgeId, NodeId, Tree};

/// Errors from encoding or decoding a tree vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum P2vError {
    /// The tree is not binary unrooted (required for `n ≥ 3` leaves).
    NotBinary,
    /// `code` has the wrong length for the taxon list (`n-2` entries).
    LengthMismatch {
        /// Number of taxa supplied.
        taxa: usize,
        /// Number of code entries supplied.
        code: usize,
    },
    /// A code entry addresses an edge beyond the partial tree.
    OutOfRange {
        /// Index into the code vector.
        index: usize,
        /// The offending value.
        value: u32,
        /// Exclusive bound (`2·index + 1`).
        bound: u32,
    },
    /// The taxon list is not strictly ascending.
    TaxaNotSorted,
    /// A taxon id is outside the declared universe.
    TaxonOutOfUniverse {
        /// The offending taxon id.
        taxon: u32,
        /// The universe size.
        universe: usize,
    },
    /// An internal invariant failed (defensive; indicates a bug).
    Internal(&'static str),
}

impl std::fmt::Display for P2vError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            P2vError::NotBinary => write!(f, "tree is not binary unrooted"),
            P2vError::LengthMismatch { taxa, code } => {
                write!(
                    f,
                    "{taxa} taxa need {} code entries, got {code}",
                    taxa.saturating_sub(2)
                )
            }
            P2vError::OutOfRange {
                index,
                value,
                bound,
            } => write!(f, "code[{index}] = {value} out of range (< {bound})"),
            P2vError::TaxaNotSorted => write!(f, "taxon list is not strictly ascending"),
            P2vError::TaxonOutOfUniverse { taxon, universe } => {
                write!(f, "taxon {taxon} outside universe of {universe}")
            }
            P2vError::Internal(m) => write!(f, "internal phylo2vec error: {m}"),
        }
    }
}

impl std::error::Error for P2vError {}

/// A tree as its present-taxa list (strictly ascending) plus the canonical
/// insertion-trace code (`taxa.len().saturating_sub(2)` entries).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TreeVector {
    /// Taxa present in the tree, ascending.
    pub taxa: Vec<TaxonId>,
    /// Edge index chosen for each taxon from the third onward.
    pub code: Vec<u32>,
}

impl TreeVector {
    /// Rebuilds the tree over a universe of `universe` taxa.
    pub fn decode(&self, universe: usize) -> Result<Tree, P2vError> {
        decode(universe, &self.taxa, &self.code)
    }
}

/// Encodes one tree (allocates fresh scratch; use [`Encoder`] when encoding
/// many trees in a row).
pub fn encode(tree: &Tree) -> Result<TreeVector, P2vError> {
    Encoder::new().encode(tree)
}

/// Rebuilds a tree from its taxon list and insertion-trace code.
///
/// `taxa` must be strictly ascending and within `universe`; `code` must
/// have `taxa.len().saturating_sub(2)` entries with `code[i] < 2i + 1`.
pub fn decode(universe: usize, taxa: &[TaxonId], code: &[u32]) -> Result<Tree, P2vError> {
    for w in taxa.windows(2) {
        if w[0] >= w[1] {
            return Err(P2vError::TaxaNotSorted);
        }
    }
    if let Some(t) = taxa.iter().find(|t| t.index() >= universe) {
        return Err(P2vError::TaxonOutOfUniverse {
            taxon: t.0,
            universe,
        });
    }
    let n = taxa.len();
    if code.len() != n.saturating_sub(2) {
        return Err(P2vError::LengthMismatch {
            taxa: n,
            code: code.len(),
        });
    }
    match n {
        0 => return Ok(Tree::new(universe)),
        1 => {
            let mut t = Tree::new(universe);
            t.add_node(Some(taxa[0]));
            return Ok(t);
        }
        _ => {}
    }
    let mut tree = Tree::two_leaf(universe, taxa[0], taxa[1]);
    for (j, (&c, &t)) in code.iter().zip(taxa.iter().skip(2)).enumerate() {
        // The partial tree has j + 2 leaves and therefore 2(j+2) - 3 =
        // 2j + 1 edges, with contiguous ids (fresh arena, no removals).
        // arith: node/edge ids are u32-backed, so a decodable tree has
        // fewer than `u32::MAX / 2` leaves; the assert pins the cast.
        debug_assert!(j <= (u32::MAX as usize - 1) / 2);
        let bound = 2 * j as u32 + 1;
        if c >= bound {
            return Err(P2vError::OutOfRange {
                index: j,
                value: c,
                bound,
            });
        }
        tree.insert_leaf_on_edge(t, EdgeId(c));
    }
    Ok(tree)
}

/// Reusable-scratch encoder: amortizes its flat per-node buffers across
/// many [`Encoder::encode`] calls (the stand container encodes every
/// emitted tree on the worker hot path).
///
/// Encoding is one linear pass over the tree rooted at the leaf of `t0`,
/// resting on the edge ids [`decode`] assigns. Every edge's `a` endpoint
/// is the one nearer `t0`, and inserting taxon `t_i` on edge `c` keeps id
/// `c` on the upper half, then allocates the far half (`2i-3`) and the
/// pendant (`2i-2`). So an edge's final id is fixed by its upper node and
/// its slot: `0` below the root leaf, `2i-3` to the far child and `2i-2`
/// to the pendant child of the node created by rank `i`. That node is the
/// one whose two subtrees have minimum ranks `m < i` (far) and `i`
/// (pendant), and `code[i-2]` is the id of the edge leaving its nearest
/// ancestor created before rank `i` toward it.
#[derive(Default)]
pub struct Encoder {
    /// Rank of each present taxon in ascending taxon order, by taxon id.
    rank_of: Vec<u32>,
    /// Node id at each visit position; positions are a breadth-first
    /// order from the `t0` leaf (position 0), so parents precede children.
    node: Vec<u32>,
    /// Visit position of each node's parent (0 for the root).
    parent: Vec<u32>,
    /// Minimum taxon rank in each node's subtree.
    min: Vec<u32>,
    /// Rank whose insertion created each internal node; 0 at leaves, so
    /// the root leaf is smaller than every internal node.
    rank: Vec<u32>,
    /// Position of each internal node's nearest ancestor of smaller rank.
    nsa: Vec<u32>,
    /// Id of the edge leaving that ancestor toward the node.
    up: Vec<u32>,
}

impl Encoder {
    /// A fresh encoder (buffers grow on first use).
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Encodes `tree` into its canonical [`TreeVector`].
    pub fn encode(&mut self, tree: &Tree) -> Result<TreeVector, P2vError> {
        // arith: taxon ids originate from the universe's u32-backed
        // `TaxonId`s, so the round-trip through `usize` cannot truncate.
        let taxa: Vec<TaxonId> = tree.taxa().iter().map(|t| TaxonId(t as u32)).collect();
        let n = taxa.len();
        if n <= 2 {
            return Ok(TreeVector {
                taxa,
                code: Vec::new(),
            });
        }
        if !tree.is_binary_unrooted() {
            return Err(P2vError::NotBinary);
        }
        let root = tree
            .leaf(taxa[0])
            .ok_or(P2vError::Internal("present taxon has no leaf"))?;
        if self.rank_of.len() < tree.universe() {
            self.rank_of.resize(tree.universe(), 0);
        }
        for (r, t) in taxa.iter().enumerate() {
            // arith: a rank is below the taxon count, itself bounded by
            // the u32-backed universe.
            self.rank_of[t.index()] = r as u32;
        }

        // Visit order from the root leaf, with each subtree's minimum
        // seeded at its leaves. A binary tree on n leaves has 2n - 2
        // nodes; more would mean a cycle.
        let nodes = 2 * n - 2;
        let (node, parent, min, rank) = (
            &mut self.node,
            &mut self.parent,
            &mut self.min,
            &mut self.rank,
        );
        node.clear();
        parent.clear();
        min.clear();
        rank.clear();
        node.push(root.0);
        parent.push(0);
        min.push(0);
        rank.push(0);
        let mut head = 0;
        while head < node.len() {
            let v = NodeId(node[head]);
            let from = if head == 0 {
                u32::MAX
            } else {
                node[parent[head] as usize]
            };
            for &e in tree.adjacent_edges(v) {
                let w = tree.opposite(e, v);
                if w.0 == from {
                    continue;
                }
                if node.len() == nodes {
                    return Err(P2vError::Internal("tree has a cycle"));
                }
                node.push(w.0);
                // arith: positions are below 2n - 2, and n is bounded by
                // the u32-backed universe.
                parent.push(head as u32);
                min.push(tree.taxon(w).map_or(u32::MAX, |t| self.rank_of[t.index()]));
                rank.push(0);
            }
            // arith: `head` stays below `node.len()`, at most 2n - 2.
            head += 1;
        }
        if node.len() != nodes {
            return Err(P2vError::Internal("tree is not connected"));
        }

        // Children before parents: fold each subtree minimum into its
        // parent. The second child to arrive fixes the parent's creation
        // rank, the larger of the two minima. Position 1 is the root
        // leaf's only child, and the root keeps rank 0.
        for w in (2..nodes).rev() {
            let (m, p) = (min[w], parent[w] as usize);
            if min[p] == u32::MAX {
                min[p] = m;
            } else {
                rank[p] = min[p].max(m);
                min[p] = min[p].min(m);
            }
        }

        // Parents before children: each internal node's code entry is the
        // edge leaving its nearest smaller-rank ancestor toward it, found
        // by jumping along the ancestors' own nearest-smaller links. A node
        // is jumped over at most once (only its far-child path can hold a
        // smaller rank), so the pass stays linear.
        self.nsa.resize(nodes, 0);
        self.up.resize(nodes, 0);
        debug_assert!(n <= u32::MAX as usize / 2);
        let mut code = vec![0u32; n - 2];
        for w in 1..nodes {
            let r = rank[w];
            if r == 0 {
                continue;
            }
            let p = parent[w] as usize;
            let mut edge = match rank[p] {
                0 => 0,
                rp if min[w] == rp => 2 * rp - 2,
                rp => 2 * rp - 3,
            };
            let mut a = p;
            while rank[a] > r {
                edge = self.up[a];
                a = self.nsa[a] as usize;
            }
            // arith: `a` is a visit position, below 2n - 2.
            self.nsa[w] = a as u32;
            self.up[w] = edge;
            code[r as usize - 2] = edge;
        }
        Ok(TreeVector { taxa, code })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::newick::{parse_forest, to_newick};

    fn roundtrip(nwk: &str) {
        let (taxa, trees) = parse_forest([nwk]).unwrap();
        let tv = encode(&trees[0]).unwrap();
        let back = tv.decode(taxa.len()).unwrap();
        assert_eq!(
            to_newick(&back, &taxa),
            to_newick(&trees[0], &taxa),
            "code {:?}",
            tv.code
        );
    }

    #[test]
    fn tiny_trees_roundtrip() {
        roundtrip("(A,B);");
        roundtrip("((A,B),C);");
        roundtrip("((A,B),(C,D));");
        roundtrip("((A,C),(B,D));");
        roundtrip("((A,D),(B,C));");
    }

    #[test]
    fn caterpillar_and_balanced_roundtrip() {
        roundtrip("(((((A,B),C),D),E),F);");
        roundtrip("(((A,B),(C,D)),((E,F),(G,H)));");
    }

    #[test]
    fn degenerate_sizes() {
        let tv = encode(&Tree::new(5)).unwrap();
        assert!(tv.taxa.is_empty() && tv.code.is_empty());
        assert_eq!(tv.decode(5).unwrap().leaf_count(), 0);

        let mut one = Tree::new(5);
        one.add_node(Some(TaxonId(3)));
        let tv = encode(&one).unwrap();
        assert_eq!(tv.taxa, vec![TaxonId(3)]);
        assert!(tv.decode(5).unwrap().leaf(TaxonId(3)).is_some());
    }

    #[test]
    fn third_taxon_code_is_always_zero() {
        let (_taxa, trees) = parse_forest(["((A,B),C);"]).unwrap();
        let tv = encode(&trees[0]).unwrap();
        assert_eq!(tv.code, vec![0]);
    }

    #[test]
    fn code_enumerates_distinct_topologies() {
        // The 1·1·3·5·…·(2n-5) in-bounds codes for n ≤ 8 (10,395 at n = 8)
        // are exactly the unrooted binary topologies: decode each,
        // re-encode, and the code must come back unchanged (bijectivity on
        // the code side).
        let mut enc = Encoder::new();
        for n in 3..=8usize {
            let taxa: Vec<TaxonId> = (0..n as u32).map(TaxonId).collect();
            let mut code = vec![0u32; n - 2];
            let mut count = 0usize;
            loop {
                let tree = decode(n, &taxa, &code).unwrap();
                assert_eq!(enc.encode(&tree).unwrap().code, code);
                count += 1;
                // Odometer over code[j] < 2j + 1.
                let Some(j) = (0..code.len()).rev().find(|&j| code[j] < 2 * j as u32) else {
                    break;
                };
                code[j] += 1;
                code[j + 1..].iter_mut().for_each(|c| *c = 0);
            }
            assert_eq!(
                count,
                (1..2 * n - 4).step_by(2).product::<usize>(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn multifurcating_tree_is_not_binary() {
        for nwk in ["(A,B,C,D);", "((A,B,C),D,(E,F));"] {
            let (_taxa, trees) = parse_forest([nwk]).unwrap();
            assert_eq!(encode(&trees[0]), Err(P2vError::NotBinary), "{nwk}");
            assert_eq!(Encoder::new().encode(&trees[0]), Err(P2vError::NotBinary));
        }
    }

    #[test]
    fn decode_rejects_bad_input() {
        let taxa: Vec<TaxonId> = (0..4).map(TaxonId).collect();
        assert!(matches!(
            decode(4, &taxa, &[0]),
            Err(P2vError::LengthMismatch { .. })
        ));
        assert!(matches!(
            decode(4, &taxa, &[0, 3]),
            Err(P2vError::OutOfRange { .. })
        ));
        assert!(matches!(
            decode(4, &[TaxonId(1), TaxonId(0)], &[]),
            Err(P2vError::TaxaNotSorted)
        ));
        assert!(matches!(
            decode(2, &taxa, &[0, 0]),
            Err(P2vError::TaxonOutOfUniverse { .. })
        ));
        assert!(matches!(
            decode(4, &taxa, &[1, 0]),
            Err(P2vError::OutOfRange { .. })
        ));
    }

    #[test]
    fn encoder_reuse_matches_fresh() {
        let mut enc = Encoder::new();
        let inputs = [
            "((A,B),(C,D));",
            "(((((A,B),C),D),E),F);",
            "((A,E),(B,(C,D)));",
        ];
        for nwk in inputs {
            let (taxa, trees) = parse_forest([nwk]).unwrap();
            let reused = enc.encode(&trees[0]).unwrap();
            let fresh = encode(&trees[0]).unwrap();
            assert_eq!(reused, fresh);
            let back = reused.decode(taxa.len()).unwrap();
            assert_eq!(to_newick(&back, &taxa), to_newick(&trees[0], &taxa));
        }
    }

    #[test]
    fn random_trees_roundtrip() {
        use crate::generate::{random_tree_on_n, ShapeModel};
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let taxa = crate::taxa::TaxonSet::with_synthetic(40);
        let mut enc = Encoder::new();
        for n in [3usize, 4, 7, 13, 25, 40] {
            for _ in 0..8 {
                let t = random_tree_on_n(n, ShapeModel::Yule, &mut rng);
                let tv = enc.encode(&t).unwrap();
                assert_eq!(tv.taxa.len(), n);
                assert_eq!(tv.code.len(), n - 2);
                let back = tv.decode(t.universe()).unwrap();
                assert_eq!(to_newick(&back, &taxa), to_newick(&t, &taxa));
            }
        }
    }
}
