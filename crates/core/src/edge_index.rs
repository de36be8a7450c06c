//! Edge-indexed admissibility kernels — flat projections named by clade
//! keys.
//!
//! The paper's implementation keeps the double-edge mappings alive across
//! taxon insertions and removals and patches them ("After each taxon
//! insertion or removal, these mappings are updated", §II-A); §V measures
//! that upkeep at 15–30% of total runtime. This module is that engine,
//! built so the admissibility test `map[e] == b̂(t)` never compares split
//! bitsets:
//!
//! * per constraint, every common-subtree edge is named by its
//!   [`CladeKey`] — (smallest `C`-taxon below it, number of `C`-taxa below
//!   it) with both trees rooted at `min C` — so a projection is a plain
//!   `Vec<CladeKey>` indexed by `EdgeId` and the targets a plain
//!   `Vec<CladeKey>` indexed by taxon id. The admissibility test is a
//!   single `u32` compare per (edge, constraint), and no id space has to
//!   be shared or interned: keys from the agile and the constraint tree
//!   compare directly;
//! * rebuilds reuse the fold/traversal scratch of [`ProjectionScratch`]
//!   and recycle retired key vectors through a pool, so the steady-state
//!   explore loop allocates nothing per node;
//! * inserting taxon `t` on edge `e` splits `e` into a near half (keeps
//!   the id), a far half and a pendant. A constraint not containing `t`
//!   keeps its common taxa, so all three edges project to whatever `e`
//!   projected to: an O(1) three-slot `u32` patch, undone for free (the
//!   slots of freed edge ids are never read and are rewritten before
//!   reuse). A constraint containing `t` gains a common taxon — every
//!   ancestor clade of `t` grows, and the root moves when `t < min C` —
//!   and gets a rebuild, with the old vectors pushed onto the undo stack.
//!   Per state, only the constraints containing the inserted taxon pay a
//!   rebuild.
//!
//! [`crate::config::MappingMode::Recompute`] stays available as the oracle
//! the conformance matrix checks every kernel against.

use crate::mapping::{project_edges_into, project_targets_into, CladeKey, ProjectionScratch};
use crate::problem::StandProblem;
use phylo::bitset::BitSet;
use phylo::ops::compatible;
use phylo::taxa::TaxonId;
use phylo::tree::{EdgeId, Insertion, Tree};

/// Flat projection state for one constraint tree.
#[derive(Clone)]
struct EdgeKernel {
    /// `C = W ∩ Y_i`, kept in sync with the agile tree's taxa.
    c: BitSet,
    /// `|C| ≤ 1`: no common subtree edges; every branch is admissible and
    /// `map`/`targets` contents are meaningless.
    all: bool,
    /// Projection of agile edges onto the common subtree, by `EdgeId`.
    map: Vec<CladeKey>,
    /// `b̂(t)` for each taxon (by taxon id; `NONE` when absent).
    targets: Vec<CladeKey>,
}

/// Undo record for one constraint rebuilt by an insertion.
struct UndoEntry {
    constraint: u32,
    all: bool,
    map: Vec<CladeKey>,
    targets: Vec<CladeKey>,
}

/// The live edge-indexed projections for every constraint plus the LIFO
/// undo stack and the recycled scratch buffers.
pub struct EdgeIndexedMaps {
    per: Vec<EdgeKernel>,
    undo: Vec<Vec<UndoEntry>>,
    scratch: ProjectionScratch,
    /// Scratch for the constraint tree's own edge projection.
    cons_map: Vec<CladeKey>,
    /// Retired `Vec<CladeKey>` buffers, recycled across rebuilds.
    pool: Vec<Vec<CladeKey>>,
    /// Retired undo frames, recycled across insertions.
    frame_pool: Vec<Vec<UndoEntry>>,
}

impl EdgeIndexedMaps {
    /// Builds the kernels for the root state.
    ///
    /// `agile` must be compatible with every constraint (`A|C = T|C`):
    /// clade keys name an edge only relative to that shared restriction,
    /// and on an incompatible tree distinct splits can share a key. Every
    /// entry point checks this before building a search state.
    pub fn new(problem: &StandProblem, agile: &Tree) -> Self {
        debug_assert!(
            problem
                .constraints()
                .iter()
                .all(|cons| compatible(agile, cons)),
            "edge-indexed kernels need an agile tree compatible with every constraint"
        );
        let mut scratch = ProjectionScratch::new();
        let mut cons_map = Vec::new();
        let per = problem
            .constraints()
            .iter()
            .map(|cons| {
                let c = agile.taxa().intersection(cons.taxa());
                let mut map = Vec::new();
                let mut targets = Vec::new();
                let projected = project_edges_into(agile, &c, &mut scratch, &mut map);
                if projected {
                    project_targets_into(cons, &c, &mut scratch, &mut cons_map, &mut targets);
                }
                EdgeKernel {
                    all: !projected,
                    c,
                    map,
                    targets,
                }
            })
            .collect();
        EdgeIndexedMaps {
            per,
            undo: Vec::new(),
            scratch,
            cons_map,
            pool: Vec::new(),
            frame_pool: Vec::new(),
        }
    }

    /// True if constraint `ci` admits every branch (`|C| ≤ 1`).
    #[inline]
    pub fn all_admissible(&self, ci: usize) -> bool {
        self.per[ci].all
    }

    /// The target key `b̂(t)` of `taxon` under constraint `ci`, or `NONE`
    /// when the constraint admits every branch or does not pin the taxon.
    #[inline]
    pub fn target_id(&self, ci: usize, taxon: TaxonId) -> CladeKey {
        let k = &self.per[ci];
        if k.all {
            return CladeKey::NONE;
        }
        k.targets
            .get(taxon.index())
            .copied()
            .unwrap_or(CladeKey::NONE)
    }

    /// The projection key of live edge `e` under constraint `ci`.
    #[inline]
    pub fn projection_id(&self, ci: usize, e: EdgeId) -> CladeKey {
        self.per[ci]
            .map
            .get(e.index())
            .copied()
            .unwrap_or(CladeKey::NONE)
    }

    /// The common taxa `C` tracked for constraint `ci` (tests).
    pub fn common(&self, ci: usize) -> &BitSet {
        &self.per[ci].c
    }

    /// Records a no-op frame for an insertion whose maps will never be
    /// queried (tree completion: the stand is emitted and undone without
    /// any admissibility query, so patching would be pure waste).
    pub fn after_insert_unqueried(&mut self) {
        self.undo.push(self.frame_pool.pop().unwrap_or_default());
    }

    /// Patches the kernels after `agile` gained the insertion `ins`.
    pub fn after_insert(&mut self, problem: &StandProblem, agile: &Tree, ins: &Insertion) {
        let t = ins.taxon.index();
        let mut frame = self.frame_pool.pop().unwrap_or_default();
        for (ci, k) in self.per.iter_mut().enumerate() {
            let cons = &problem.constraints()[ci];
            if cons.taxa().contains(t) {
                // C grows: every ancestor clade of `t` gains it (and the
                // key root moves if `t < min C`), so rebuild into recycled
                // buffers and keep the old vectors for undo.
                k.c.insert(t);
                let mut new_map = self.pool.pop().unwrap_or_default();
                let mut new_targets = self.pool.pop().unwrap_or_default();
                let projected = project_edges_into(agile, &k.c, &mut self.scratch, &mut new_map);
                if projected {
                    project_targets_into(
                        cons,
                        &k.c,
                        &mut self.scratch,
                        &mut self.cons_map,
                        &mut new_targets,
                    );
                }
                frame.push(UndoEntry {
                    constraint: ci as u32,
                    all: k.all,
                    map: std::mem::replace(&mut k.map, new_map),
                    targets: std::mem::replace(&mut k.targets, new_targets),
                });
                k.all = !projected;
            } else if !k.all {
                // C unchanged: the three edges around the subdivision all
                // project to whatever the subdivided edge projected to.
                // Undo needs no repair — the slots of freed edge ids are
                // never read while dead and are rewritten on id reuse.
                let hi = ins.far_half.index().max(ins.pendant.index());
                if k.map.len() <= hi {
                    k.map.resize(hi + 1, CladeKey::NONE);
                }
                let key = k.map[ins.edge.index()];
                k.map[ins.far_half.index()] = key;
                k.map[ins.pendant.index()] = key;
            }
        }
        self.undo.push(frame);
    }

    /// Clones the *live* kernel state only — common taxa, projections and
    /// targets — with empty undo stacks and pools. Sound for task handoff
    /// because a resumed task never undoes below its resume point: the undo
    /// frames it pushes from here on are exactly the ones it will pop.
    pub fn fork_live(&self) -> Self {
        EdgeIndexedMaps {
            per: self.per.clone(),
            undo: Vec::new(),
            scratch: ProjectionScratch::new(),
            cons_map: Vec::new(),
            pool: Vec::new(),
            frame_pool: Vec::new(),
        }
    }

    /// Reverts the most recent [`EdgeIndexedMaps::after_insert`]. Call
    /// *before* removing the insertion from the tree (LIFO discipline).
    pub fn before_remove(&mut self, ins: &Insertion) {
        // xlint: allow(panic-freedom) — undo underflow means the LIFO discipline broke; continuing would enumerate wrong stands
        let mut frame = self.undo.pop().expect("undo stack underflow");
        for entry in frame.drain(..) {
            let k = &mut self.per[entry.constraint as usize];
            k.c.remove(ins.taxon.index());
            k.all = entry.all;
            self.pool.push(std::mem::replace(&mut k.map, entry.map));
            self.pool
                .push(std::mem::replace(&mut k.targets, entry.targets));
        }
        self.frame_pool.push(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{attachment_map, missing_taxon_targets};
    use phylo::newick::parse_forest;
    use phylo::split::Split;

    fn problem(newicks: &[&str]) -> StandProblem {
        let (_, trees) = parse_forest(newicks.iter().copied()).unwrap();
        StandProblem::from_constraints(trees).unwrap()
    }

    /// The key of a recomputed split, derived from the split itself: the
    /// min and the count of its canonical side (the one without `min C`).
    fn key_of(split: Option<&Split>) -> CladeKey {
        split.map_or(CladeKey::NONE, |s| CladeKey::of_split(s).unwrap())
    }

    /// Compares the edge-indexed kernels against freshly recomputed
    /// Arc-based projections, edge by edge and target by target.
    fn assert_matches_recompute(ei: &EdgeIndexedMaps, problem: &StandProblem, agile: &Tree) {
        for (ci, cons) in problem.constraints().iter().enumerate() {
            let c = agile.taxa().intersection(cons.taxa());
            assert_eq!(ei.common(ci), &c, "C of {ci}");
            let fresh_map = attachment_map(agile, &c);
            assert_eq!(
                ei.all_admissible(ci),
                fresh_map.all_admissible(),
                "all_admissible flag of {ci}"
            );
            if !ei.all_admissible(ci) {
                for e in agile.edges() {
                    assert_eq!(
                        ei.projection_id(ci, e),
                        key_of(fresh_map.get(e)),
                        "constraint {ci}, edge {e:?}"
                    );
                }
            }
            let fresh_targets = missing_taxon_targets(cons, &c);
            for (t, fresh) in fresh_targets.iter().enumerate() {
                assert_eq!(
                    ei.target_id(ci, TaxonId(t as u32)),
                    key_of(fresh.as_ref()),
                    "constraint {ci}, taxon {t}"
                );
            }
        }
    }

    fn pendant(agile: &Tree, t: u32) -> EdgeId {
        agile.adjacent_edges(agile.leaf(TaxonId(t)).unwrap())[0]
    }

    #[test]
    fn insert_remove_tracks_recompute() {
        let p = problem(&["((A,B),(C,D));", "((C,D),(E,F));", "((A,F),(G,B));"]);
        let mut agile = p.constraints()[0].clone();
        let mut ei = EdgeIndexedMaps::new(&p, &agile);
        assert_matches_recompute(&ei, &p, &agile);

        let e_taxon = TaxonId(4);
        let g_taxon = TaxonId(6);
        let edges: Vec<_> = agile.edges().collect();
        let ins1 = agile.insert_leaf_on_edge(e_taxon, edges[2]);
        ei.after_insert(&p, &agile, &ins1);
        assert_matches_recompute(&ei, &p, &agile);

        let edges: Vec<_> = agile.edges().collect();
        let ins2 = agile.insert_leaf_on_edge(g_taxon, edges[5]);
        ei.after_insert(&p, &agile, &ins2);
        assert_matches_recompute(&ei, &p, &agile);

        ei.before_remove(&ins2);
        agile.remove_insertion(&ins2);
        assert_matches_recompute(&ei, &p, &agile);

        ei.before_remove(&ins1);
        agile.remove_insertion(&ins1);
        assert_matches_recompute(&ei, &p, &agile);
    }

    #[test]
    fn reinsertion_after_undo_is_consistent() {
        let p = problem(&["((A,B),(C,D));", "((C,D),(E,F));"]);
        let mut agile = p.constraints()[0].clone();
        let mut ei = EdgeIndexedMaps::new(&p, &agile);
        let e_taxon = TaxonId(4);
        let edges: Vec<_> = agile.edges().collect();
        for &edge in &edges {
            let ins = agile.insert_leaf_on_edge(e_taxon, edge);
            ei.after_insert(&p, &agile, &ins);
            assert_matches_recompute(&ei, &p, &agile);
            ei.before_remove(&ins);
            agile.remove_insertion(&ins);
            assert_matches_recompute(&ei, &p, &agile);
        }
    }

    #[test]
    fn tiny_overlap_transitions_all_admissible_flag() {
        // Constraint 1 shares only taxon A with the agile tree at the root
        // (all-admissible); inserting E (in constraint 1) grows C to two
        // taxa and must flip the flag — and undo must flip it back.
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));"]);
        let mut agile = p.constraints()[0].clone();
        let mut ei = EdgeIndexedMaps::new(&p, &agile);
        assert!(ei.all_admissible(1));
        let edges: Vec<_> = agile.edges().collect();
        let ins = agile.insert_leaf_on_edge(TaxonId(4), edges[0]);
        ei.after_insert(&p, &agile, &ins);
        assert!(!ei.all_admissible(1));
        assert_matches_recompute(&ei, &p, &agile);
        // |C| = 2: the common subtree is one edge, rooted at A it is the
        // clade {E}, and every agile edge and every target projects onto it.
        let e_key = CladeKey::pack(4, 1, p.universe()).unwrap();
        assert!(agile.edges().all(|e| ei.projection_id(1, e) == e_key));
        assert_eq!(ei.target_id(1, TaxonId(5)), e_key);
        ei.before_remove(&ins);
        agile.remove_insertion(&ins);
        assert!(ei.all_admissible(1));
        assert_matches_recompute(&ei, &p, &agile);
    }

    #[test]
    fn key_root_moves_when_inserting_below_min_c() {
        // Ids by first appearance: A0 B1 C2 D3 F4 E5. The agile tree is
        // constraint 1, so constraint 0's C = {B, C, D} is rooted at B.
        // Inserting A (id 0, in constraint 0) moves the key root to A.
        let p = problem(&["((A,B),(C,(D,F)));", "((B,C),(D,E));"]);
        let u = p.universe();
        let mut agile = p.constraints()[1].clone();
        let mut ei = EdgeIndexedMaps::new(&p, &agile);
        assert_matches_recompute(&ei, &p, &agile);
        let b_pendant = pendant(&agile, 1);
        // Rooted at B, B's pendant edge has every other C-taxon below it.
        assert_eq!(
            ei.projection_id(0, b_pendant),
            CladeKey::pack(2, 2, u).unwrap()
        );
        // A must be sister to B with respect to {C, D}.
        let branches: Vec<EdgeId> = agile
            .edges()
            .filter(|&e| ei.projection_id(0, e) == ei.target_id(0, TaxonId(0)))
            .collect();
        assert!(branches.contains(&b_pendant));
        let ins = agile.insert_leaf_on_edge(TaxonId(0), b_pendant);
        ei.after_insert(&p, &agile, &ins);
        assert_eq!(ei.common(0).min_member(), Some(0));
        assert_matches_recompute(&ei, &p, &agile);
        // Rooted at A, B's pendant edge now holds just {B}.
        assert_eq!(
            ei.projection_id(0, pendant(&agile, 1)),
            CladeKey::pack(1, 1, u).unwrap()
        );
        ei.before_remove(&ins);
        agile.remove_insertion(&ins);
        assert_matches_recompute(&ei, &p, &agile);
        assert_eq!(
            ei.projection_id(0, b_pendant),
            CladeKey::pack(2, 2, u).unwrap()
        );
    }

    #[test]
    fn hanging_subtree_edges_inherit_the_path_key() {
        // Ids: A0 B1 X2 Y3 C4 D5 E6. X, Y and D are outside constraint 1,
        // so (X,Y) and D hang off the Steiner path to C: all of their
        // edges carry the key of the clade {C}.
        let p = problem(&["((A,B),((X,Y),(C,D)));", "((A,B),(C,E));"]);
        let u = p.universe();
        let mut agile = p.constraints()[0].clone();
        let mut ei = EdgeIndexedMaps::new(&p, &agile);
        assert_matches_recompute(&ei, &p, &agile);
        let c_key = CladeKey::pack(4, 1, u).unwrap();
        for t in [2, 3, 4, 5] {
            assert_eq!(ei.projection_id(1, pendant(&agile, t)), c_key, "taxon {t}");
        }
        let xy = agile.endpoints(pendant(&agile, 2));
        let xy_node = if agile.taxon(xy.0).is_some() {
            xy.1
        } else {
            xy.0
        };
        for &e in agile.adjacent_edges(xy_node) {
            assert_eq!(ei.projection_id(1, e), c_key);
        }
        assert_eq!(ei.target_id(1, TaxonId(6)), c_key);
        // Inserting E inside the hanging subtree rebuilds constraint 1 and
        // undo restores the inherited keys.
        let ins = agile.insert_leaf_on_edge(TaxonId(6), pendant(&agile, 2));
        ei.after_insert(&p, &agile, &ins);
        assert_matches_recompute(&ei, &p, &agile);
        ei.before_remove(&ins);
        agile.remove_insertion(&ins);
        assert_matches_recompute(&ei, &p, &agile);
        for t in [2, 3, 4, 5] {
            assert_eq!(ei.projection_id(1, pendant(&agile, t)), c_key, "taxon {t}");
        }
    }
}
