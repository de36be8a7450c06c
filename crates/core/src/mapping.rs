//! Attachment projections — our realization of the paper's *double-edge
//! mapping* (§II-A and the Gentrius supplement).
//!
//! For an agile tree `A` on taxa `W` and a constraint tree `T` on `Y`, let
//! `C = W ∩ Y` be the common taxa. The invariant maintained by the search is
//! `A|C = T|C` (the *common subtree*). Every edge of `A` *projects* onto the
//! edge of the common subtree that a leaf inserted on it would subdivide;
//! the same projection computed on `T` tells, for each taxon `t ∈ Y \ W`,
//! which common-subtree edge `b̂(t)` it must subdivide. A branch of `A` is
//! then admissible for `t` (w.r.t. this constraint) iff it projects onto
//! `b̂(t)`.
//!
//! Two representations of a common-subtree edge live here:
//!
//! * the reference functions ([`attachment_map`],
//!   [`missing_taxon_targets`]) name it by its canonical **split of `C`**
//!   (`Arc<Split>` bitsets) — the `Recompute` oracle;
//! * the edge-indexed functions ([`project_edges_into`],
//!   [`project_targets_into`]) name it by its [`CladeKey`]: with both trees
//!   rooted at the leaf of `min C`, the (smallest taxon, number of taxa)
//!   of the `C`-clade below it — a `u32` computed by a bitset-free fold.
//!
//! Either way, projections computed independently on `A` and `T` are
//! directly comparable.
//!
//! ### Why the projection is total and single-valued
//!
//! Root the tree at a `C`-leaf and consider the Steiner (minimal spanning)
//! subtree of the `C`-leaves. An edge whose below-set of `C`-taxa is
//! non-empty lies on a path of the Steiner tree and projects to that path's
//! common-subtree edge (its split). An edge with an empty below-set hangs
//! off the Steiner tree; in a **binary** tree nothing can hang off a Steiner
//! *branching* vertex (it already has degree 3 inside the Steiner tree), so
//! the hanging point is always interior to exactly one path — the edge
//! inherits that path's split. Hence for `|C| ≥ 2` every edge of the tree
//! projects to exactly one common-subtree edge; for `|C| ≤ 1` the common
//! subtree has no edges and every branch is admissible.

use phylo::bitset::BitSet;
use phylo::split::Split;
use phylo::taxa::TaxonId;
use phylo::tree::{EdgeId, NodeId, Tree};
use std::sync::Arc;

/// The attachment projection of every edge of a tree onto the common
/// subtree with taxon set `C`.
#[derive(Clone, Debug)]
pub enum AttachMap {
    /// `|C| ≤ 1`: the common subtree has no edges; every branch of the
    /// tree is admissible for any taxon of this constraint.
    AllAdmissible,
    /// `|C| ≥ 2`: `map[e]` is the canonical `C`-split of the common-subtree
    /// edge that edge `e` projects onto (`None` for dead edge ids). Splits
    /// are shared (`Arc`) across the many edges projecting onto the same
    /// common-subtree edge — building the map allocates one split per
    /// *Steiner* edge instead of one per tree edge.
    Projected(Vec<Option<Arc<Split>>>),
}

impl AttachMap {
    /// Looks up the projection of a live edge. Returns `None` in the
    /// `AllAdmissible` case (no projection exists / not needed).
    pub fn get(&self, e: EdgeId) -> Option<&Split> {
        match self {
            AttachMap::AllAdmissible => None,
            AttachMap::Projected(v) => v[e.index()].as_deref(),
        }
    }

    /// True if the map is the degenerate all-admissible case.
    pub fn all_admissible(&self) -> bool {
        matches!(self, AttachMap::AllAdmissible)
    }
}

/// Computes the attachment projection of `tree` w.r.t. the common taxon set
/// `c` (which must be a subset of `tree`'s leaf set).
pub fn attachment_map(tree: &Tree, c: &BitSet) -> AttachMap {
    debug_assert!(c.is_subset(tree.taxa()), "C must be common taxa");
    if c.count() < 2 {
        return AttachMap::AllAdmissible;
    }
    // Root at the C-leaf with the smallest taxon id (deterministic).
    let root_taxon = TaxonId(c.min_member().unwrap() as u32);
    let root = tree.leaf(root_taxon).expect("C-taxon missing from tree");
    let order = tree.preorder(root);

    // Bottom-up: C-taxa below each node's parent edge.
    let mut below: Vec<BitSet> = (0..tree.node_id_bound())
        .map(|_| BitSet::new(tree.universe()))
        .collect();
    for &(v, _) in &order {
        if let Some(t) = tree.taxon(v) {
            if c.contains(t.index()) {
                below[v.index()].insert(t.index());
            }
        }
    }
    for &(v, pe) in order.iter().rev() {
        if let Some(pe) = pe {
            let parent = tree.opposite(pe, v);
            let child_set = below[v.index()].clone();
            below[parent.index()].union_with(&child_set);
        }
    }

    // Top-down: Steiner edges get their own split; hanging edges inherit
    // (and share) the split of the nearest ancestor Steiner edge.
    let mut map: Vec<Option<Arc<Split>>> = vec![None; tree.edge_id_bound()];
    let mut inherit: Vec<Option<Arc<Split>>> = vec![None; tree.node_id_bound()];
    for &(v, pe) in &order {
        let Some(pe) = pe else { continue };
        let parent = tree.opposite(pe, v);
        let split = if below[v.index()].is_empty() {
            inherit[parent.index()]
                .clone()
                .expect("hanging edge with no Steiner ancestor")
        } else {
            Arc::new(Split::canonical(below[v.index()].clone(), c))
        };
        map[pe.index()] = Some(Arc::clone(&split));
        inherit[v.index()] = Some(split);
    }
    AttachMap::Projected(map)
}

/// For a constraint tree `T` and common taxa `c`, returns for each taxon in
/// `T`'s leaf set *outside* `c` the common-subtree edge (as a `C`-split) it
/// attaches to — the `b̂(t)` of the admissibility test. Output is indexed by
/// taxon id (`None` for taxa that are in `c`, absent, or when `|c| ≤ 1`).
pub fn missing_taxon_targets(tree: &Tree, c: &BitSet) -> Vec<Option<Split>> {
    let mut out: Vec<Option<Split>> = vec![None; tree.universe()];
    let map = attachment_map(tree, c);
    let AttachMap::Projected(map) = map else {
        return out;
    };
    for (leaf, taxon) in tree.leaves() {
        if c.contains(taxon.index()) {
            continue;
        }
        let pendant = tree.adjacent_edges(leaf)[0];
        out[taxon.index()] = map[pendant.index()].as_deref().cloned();
    }
    out
}

/// A common-subtree edge named without a bitset: root the tree at
/// `r = min C`; the edge is then one clade of `C \ {r}` (the `C`-taxa below
/// it), and the key is that clade's smallest taxon and size, packed as
/// `min·(U+1) + count` for a taxon universe of size `U`.
///
/// The clades of a rooted tree are nested or disjoint, so two distinct
/// clades with the same smallest taxon are nested and differ in size: the
/// key names the edge exactly. Both the agile tree and a constraint tree
/// display `T|C` rooted at the same `r`, so keys computed on either are
/// directly comparable, and equal keys mean equal splits of `C`.
///
/// The key is the canonical side of the split (the side without `min C`)
/// reduced to `(min, count)`, which is how the conformance tests derive it
/// from a `Recompute` [`Split`] independently of the projection code.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct CladeKey(u32);

impl CladeKey {
    /// Sentinel for "no edge" (dead edge slot, taxon without a target).
    /// Kept out of `Option` so edge-indexed maps stay flat `u32` vectors;
    /// [`CladeKey::pack`] never returns it.
    pub const NONE: CladeKey = CladeKey(u32::MAX);

    /// The largest taxon universe whose keys all pack into a `u32`: a
    /// clade excludes the root taxon, so its smallest taxon and its size
    /// are both at most `universe - 1`, and `(U-1)·(U+1) + U-1` stays
    /// below [`CladeKey::NONE`] exactly for `U ≤ 65,535`
    /// (`key_packing_is_checked_at_the_u32_bound` pins this on
    /// [`CladeKey::pack`]).
    pub const MAX_UNIVERSE: usize = 65_535;

    /// True if this is the [`CladeKey::NONE`] sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self == CladeKey::NONE
    }

    /// Packs a clade with smallest taxon `min` and `count` taxa in a
    /// universe of `universe` taxa as `min·(universe+1) + count`. Checked,
    /// never wrapped: `None` unless `min` and `count` are below `universe`
    /// and the packed value fits a `u32` without equalling
    /// [`CladeKey::NONE`].
    #[inline]
    pub fn pack(min: usize, count: usize, universe: usize) -> Option<CladeKey> {
        if min >= universe || count >= universe {
            return None;
        }
        let key = (min as u64)
            .checked_mul(universe as u64 + 1)?
            .checked_add(count as u64)?;
        match u32::try_from(key) {
            Ok(k) if k != u32::MAX => Some(CladeKey(k)),
            _ => None,
        }
    }

    /// True if every clade key over a universe of `universe` taxa packs.
    pub fn fits(universe: usize) -> bool {
        universe <= CladeKey::MAX_UNIVERSE
    }

    /// The key of a canonical split of `C` (its side excludes `min C`),
    /// derived from the split itself rather than from a projection.
    /// `None` for an empty side or a universe whose keys do not fit.
    #[cfg(test)]
    pub(crate) fn of_split(split: &Split) -> Option<CladeKey> {
        let side = split.side();
        CladeKey::pack(side.min_member()?, side.count(), side.universe())
    }
}

/// Reusable buffers for [`project_edges_into`] / [`project_targets_into`].
///
/// One instance lives inside the edge-indexed kernel and is threaded
/// through every rebuild, so the steady-state explore loop performs no
/// heap allocation: the per-node `(min, count)` fold, the inherit vector
/// and the traversal buffers are all recycled across rebuilds.
pub struct ProjectionScratch {
    /// `fold[v]` = (smallest `C`-taxon, number of `C`-taxa) below node
    /// `v`'s parent edge; `(u32::MAX, 0)` when there are none.
    fold: Vec<(u32, u32)>,
    /// Nearest-Steiner-ancestor key per node (top-down inherit pass).
    inherit: Vec<CladeKey>,
    order: Vec<(NodeId, Option<EdgeId>)>,
    stack: Vec<(NodeId, Option<EdgeId>)>,
}

impl ProjectionScratch {
    /// Creates empty scratch; buffers grow on first use and are reused.
    pub fn new() -> Self {
        ProjectionScratch {
            fold: Vec::new(),
            inherit: Vec::new(),
            order: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Default for ProjectionScratch {
    fn default() -> Self {
        ProjectionScratch::new()
    }
}

/// Edge-indexed variant of [`attachment_map`]: writes the [`CladeKey`] of
/// the common-subtree edge that every live edge of `tree` projects onto
/// into `map` (indexed by `EdgeId`, dead slots are [`CladeKey::NONE`]).
/// Returns `false` for the degenerate `|C| ≤ 1` case (every branch
/// admissible; `map` contents are then meaningless).
///
/// One preorder from the leaf of `min C`, a bottom-up `(min, count)` fold
/// and a top-down pass in which hanging edges inherit the key of their
/// nearest Steiner ancestor; no allocation once the buffers have grown.
/// The universe must satisfy [`CladeKey::fits`], which
/// [`StandProblem`](crate::StandProblem) guarantees for every tree it holds.
pub fn project_edges_into(
    tree: &Tree,
    c: &BitSet,
    scratch: &mut ProjectionScratch,
    map: &mut Vec<CladeKey>,
) -> bool {
    debug_assert!(c.is_subset(tree.taxa()), "C must be common taxa");
    if c.count() < 2 {
        return false;
    }
    // Root at the C-leaf with the smallest taxon id (deterministic). The
    // subset assertion above guarantees the leaf exists; degrade to
    // all-admissible rather than panic if the contract is ever broken.
    let Some(root) = c.min_member().and_then(|m| tree.leaf(TaxonId(m as u32))) else {
        debug_assert!(false, "C-taxon missing from tree");
        return false;
    };
    tree.preorder_into(root, &mut scratch.stack, &mut scratch.order);

    // Bottom-up: (smallest C-taxon, C-taxon count) below each node's
    // parent edge. The root's own entry is never read.
    let nodes = tree.node_id_bound();
    if scratch.fold.len() < nodes {
        scratch.fold.resize(nodes, (u32::MAX, 0));
    }
    for &(v, _) in &scratch.order {
        scratch.fold[v.index()] = match tree.taxon(v) {
            Some(t) if c.contains(t.index()) => (t.0, 1),
            _ => (u32::MAX, 0),
        };
    }
    for &(v, pe) in scratch.order.iter().rev() {
        if let Some(pe) = pe {
            let (min, count) = scratch.fold[v.index()];
            let p = &mut scratch.fold[tree.opposite(pe, v).index()];
            p.0 = p.0.min(min);
            p.1 += count;
        }
    }

    // Top-down: Steiner edges get their clade's key; hanging edges inherit
    // the key of the nearest ancestor Steiner edge.
    let universe = tree.universe();
    map.clear();
    map.resize(tree.edge_id_bound(), CladeKey::NONE);
    scratch.inherit.clear();
    scratch.inherit.resize(nodes, CladeKey::NONE);
    for &(v, pe) in &scratch.order {
        let Some(pe) = pe else { continue };
        let key = match scratch.fold[v.index()] {
            (_, 0) => {
                let inherited = scratch.inherit[tree.opposite(pe, v).index()];
                debug_assert!(
                    !inherited.is_none(),
                    "hanging edge with no Steiner ancestor"
                );
                inherited
            }
            (min, count) => CladeKey::pack(min as usize, count as usize, universe)
                // xlint: allow(panic-freedom) — StandProblem rejects universes whose keys do not fit; an aliased key would admit wrong branches
                .expect("clade key does not fit the taxon universe"),
        };
        map[pe.index()] = key;
        scratch.inherit[v.index()] = key;
    }
    true
}

/// Edge-indexed variant of [`missing_taxon_targets`]: fills `out` (indexed
/// by taxon id over the whole universe) with the [`CladeKey`] of the
/// common-subtree edge each taxon of `tree`'s leaf set outside `c` must
/// subdivide — [`CladeKey::NONE`] for taxa in `c`, absent taxa, or when
/// `|C| ≤ 1` (in which case `false` is returned). `cons_map` is scratch for
/// the constraint tree's own edge projection. Keys are rooted at the same
/// `min C` as the agile projection, so targets and projections compare
/// directly.
pub fn project_targets_into(
    tree: &Tree,
    c: &BitSet,
    scratch: &mut ProjectionScratch,
    cons_map: &mut Vec<CladeKey>,
    out: &mut Vec<CladeKey>,
) -> bool {
    out.clear();
    out.resize(tree.universe(), CladeKey::NONE);
    if !project_edges_into(tree, c, scratch, cons_map) {
        return false;
    }
    for (leaf, taxon) in tree.leaves() {
        if c.contains(taxon.index()) {
            continue;
        }
        let pendant = tree.adjacent_edges(leaf)[0];
        out[taxon.index()] = cons_map[pendant.index()];
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::newick::parse_forest;
    use phylo::ops::{displays, restrict};
    use phylo::split::topo_eq;

    /// Reference implementation of admissibility by definition: insert `t`
    /// on edge `e` of `agile` and check `A'|(C∪{t}) = T|(C∪{t})`.
    fn admissible_by_definition(agile: &Tree, constraint: &Tree, t: TaxonId, e: EdgeId) -> bool {
        let mut a = agile.clone();
        a.insert_leaf_on_edge(t, e);
        let mut cu = agile.taxa().intersection(constraint.taxa());
        cu.insert(t.index());
        topo_eq(&restrict(&a, &cu), &restrict(constraint, &cu))
    }

    /// Admissibility via the projection machinery.
    fn admissible_by_projection(agile: &Tree, constraint: &Tree, t: TaxonId, e: EdgeId) -> bool {
        let c = agile.taxa().intersection(constraint.taxa());
        let targets = missing_taxon_targets(constraint, &c);
        let Some(target) = &targets[t.index()] else {
            return true; // |C| <= 1 → every edge admissible
        };
        let map = attachment_map(agile, &c);
        map.get(e) == Some(target)
    }

    #[test]
    fn projection_matches_definition_small() {
        // Agile on {A,B,C,D}; constraint on {A,B,C,E}; insert E.
        let (taxa, trees) = parse_forest(["((A,B),(C,D));", "((A,B),(C,E));"]).unwrap();
        let agile = &trees[0];
        let cons = &trees[1];
        let e_id = taxa.get("E").unwrap();
        let mut n_adm = 0;
        for e in agile.edges() {
            let d = admissible_by_definition(agile, cons, e_id, e);
            let p = admissible_by_projection(agile, cons, e_id, e);
            assert_eq!(d, p, "mismatch on edge {e:?}");
            n_adm += usize::from(d);
        }
        // E must end up sister to C among {A,B,C}: admissible are C's
        // pendant edge, the internal edge, and D's pendant (D is not in the
        // constraint, so (C,(D,E)) also restricts to (C,E)).
        assert_eq!(n_adm, 3);
    }

    #[test]
    fn hanging_subtree_edges_inherit() {
        // Agile has a whole subtree with no common taxa; all of its edges
        // plus the path edges they hang off must be admissible together.
        let (taxa, trees) = parse_forest([
            "((A,B),((X,Y),(C,D)));", // agile; X,Y not in constraint
            "((A,B),(C,E));",         // constraint: E next to C
        ])
        .unwrap();
        let agile = &trees[0];
        let cons = &trees[1];
        let e_id = taxa.get("E").unwrap();
        for e in agile.edges() {
            assert_eq!(
                admissible_by_definition(agile, cons, e_id, e),
                admissible_by_projection(agile, cons, e_id, e),
                "mismatch on edge {e:?}"
            );
        }
    }

    #[test]
    fn all_admissible_when_overlap_tiny() {
        let (taxa, trees) = parse_forest(["((A,B),(C,D));", "((E,F),(G,A));"]).unwrap();
        let agile = &trees[0];
        let cons = &trees[1];
        // Common taxa = {A} → |C| = 1 → every edge admissible for E/F/G.
        let c = agile.taxa().intersection(cons.taxa());
        assert_eq!(c.count(), 1);
        assert!(attachment_map(agile, &c).all_admissible());
        let e_id = taxa.get("E").unwrap();
        for e in agile.edges() {
            assert!(admissible_by_projection(agile, cons, e_id, e));
        }
    }

    #[test]
    fn projection_randomized_against_definition() {
        use phylo::generate::{random_tree, ShapeModel};
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let universe = 12usize;
        for trial in 0..40 {
            // Source tree on all taxa; agile = restriction to a subset W;
            // constraint = restriction to a subset Y; test every missing
            // taxon of Y on every agile edge.
            let ids: Vec<TaxonId> = (0..universe as u32).map(TaxonId).collect();
            let source = random_tree(universe, &ids, ShapeModel::Uniform, &mut rng);
            use rand::seq::SliceRandom;
            use rand::Rng;
            let mut shuffled = ids.clone();
            shuffled.shuffle(&mut rng);
            let w_size = rng.gen_range(3..=8);
            let y_size = rng.gen_range(4..=9);
            let w = BitSet::from_iter(universe, shuffled[..w_size].iter().map(|t| t.index()));
            shuffled.shuffle(&mut rng);
            let y = BitSet::from_iter(universe, shuffled[..y_size].iter().map(|t| t.index()));
            let agile = restrict(&source, &w);
            let cons = restrict(&source, &y);
            debug_assert!(displays(&source, &agile));
            for t in y.difference(&w).iter() {
                let t = TaxonId(t as u32);
                for e in agile.edges() {
                    assert_eq!(
                        admissible_by_definition(&agile, &cons, t, e),
                        admissible_by_projection(&agile, &cons, t, e),
                        "trial {trial}: taxon {t:?} edge {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn edge_indexed_projection_matches_arc_machinery() {
        use phylo::generate::{random_tree, ShapeModel};
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let universe = 12usize;
        let mut scratch = ProjectionScratch::new();
        let (mut map, mut cons_map, mut targets) = (Vec::new(), Vec::new(), Vec::new());
        let key_of = |s: Option<&Split>| s.map(|s| CladeKey::of_split(s).unwrap());
        for trial in 0..40 {
            let ids: Vec<TaxonId> = (0..universe as u32).map(TaxonId).collect();
            let source = random_tree(universe, &ids, ShapeModel::Uniform, &mut rng);
            let mut shuffled = ids.clone();
            shuffled.shuffle(&mut rng);
            let w_size = rng.gen_range(3..=8);
            let y_size = rng.gen_range(4..=9);
            let w = BitSet::from_iter(universe, shuffled[..w_size].iter().map(|t| t.index()));
            shuffled.shuffle(&mut rng);
            let y = BitSet::from_iter(universe, shuffled[..y_size].iter().map(|t| t.index()));
            let agile = restrict(&source, &w);
            let cons = restrict(&source, &y);
            let c = agile.taxa().intersection(cons.taxa());

            let reference = attachment_map(&agile, &c);
            let projected = project_edges_into(&agile, &c, &mut scratch, &mut map);
            assert_eq!(projected, !reference.all_admissible(), "trial {trial}");
            if projected {
                for e in agile.edges() {
                    assert_eq!(
                        Some(map[e.index()]),
                        key_of(reference.get(e)),
                        "trial {trial}, edge {e:?}"
                    );
                }
            }

            let ref_targets = missing_taxon_targets(&cons, &c);
            let has_targets =
                project_targets_into(&cons, &c, &mut scratch, &mut cons_map, &mut targets);
            assert_eq!(has_targets, projected, "trial {trial}");
            for t in 0..universe {
                let via_key = Some(targets[t]).filter(|k| !k.is_none());
                assert_eq!(
                    via_key,
                    key_of(ref_targets[t].as_ref()),
                    "trial {trial}, taxon {t}"
                );
            }
        }
    }

    #[test]
    fn key_packing_is_checked_at_the_u32_bound() {
        let max = CladeKey::MAX_UNIVERSE;
        assert!(CladeKey::fits(max));
        assert!(!CladeKey::fits(max + 1));
        assert!(CladeKey::fits(0) && CladeKey::fits(1));
        // The largest key of the largest universe stays below the sentinel.
        let top = CladeKey::pack(max - 1, max - 1, max).unwrap();
        assert!(top < CladeKey::NONE);
        assert_eq!(
            top.0 as u64,
            (max as u64 - 1) * (max as u64 + 1) + max as u64 - 1
        );
        // One taxon more and the same clade would wrap: refused, not wrapped.
        assert_eq!(CladeKey::pack(max, max, max + 1), None);
        // (65535, 0) in a 65536-taxon universe would pack to exactly NONE.
        assert_eq!(CladeKey::pack(max, 0, max + 1), None);
        // Out-of-range parts are refused whatever the universe.
        assert_eq!(CladeKey::pack(5, 1, 5), None);
        assert_eq!(CladeKey::pack(1, 5, 5), None);
        assert_eq!(CladeKey::pack(0, 0, 0), None);
        // Distinct (min, count) pairs never collide within one universe.
        let u = 9;
        let mut seen = std::collections::HashSet::new();
        for min in 0..u {
            for count in 0..u {
                assert!(seen.insert(CladeKey::pack(min, count, u).unwrap()));
            }
        }
    }

    #[test]
    fn targets_only_for_missing_taxa() {
        let (taxa, trees) = parse_forest(["((A,B),(C,D));", "((A,B),(C,E));"]).unwrap();
        let c = trees[0].taxa().intersection(trees[1].taxa());
        let targets = missing_taxon_targets(&trees[1], &c);
        assert!(targets[taxa.get("A").unwrap().index()].is_none());
        assert!(targets[taxa.get("E").unwrap().index()].is_some());
        assert!(targets[taxa.get("D").unwrap().index()].is_none()); // not in constraint
    }
}
