//! Edge-indexed admissibility kernels — flat, arena-backed projections.
//!
//! The paper's implementation keeps the double-edge mappings alive across
//! taxon insertions and removals and patches them ("After each taxon
//! insertion or removal, these mappings are updated", §II-A); §V measures
//! that upkeep at 15–30% of total runtime. This module is that engine,
//! built so the admissibility test `map[e] == b̂(t)` never compares split
//! bitsets:
//!
//! * per constraint, every split is interned into a [`SplitArena`] so a
//!   projection is a plain `Vec<SplitId>` indexed by `EdgeId` and the
//!   targets a plain `Vec<SplitId>` indexed by taxon id — the admissibility
//!   test is a single `u32` compare per (edge, constraint);
//! * rebuilds reuse the bitset/traversal scratch of
//!   [`ProjectionScratch`] and recycle retired id vectors through a pool,
//!   so the steady-state explore loop allocates nothing per node;
//! * inserting taxon `t` on edge `e` splits `e` into a near half (keeps
//!   the id), a far half and a pendant. A constraint not containing `t`
//!   keeps its common taxa, so all three edges project to whatever `e`
//!   projected to: an O(1) three-slot `u32` patch, undone for free (the
//!   slots of freed edge ids are never read and are rewritten before
//!   reuse). A constraint containing `t` gains a common taxon and gets a
//!   rebuild, with the old vectors (plus an arena checkpoint) pushed onto
//!   the undo stack. Per state, only the constraints containing the
//!   inserted taxon pay a rebuild.
//!
//! [`crate::config::MappingMode::Recompute`] stays available as the oracle
//! the conformance matrix checks every kernel against.

use crate::mapping::{project_edges_into, project_targets_into, ProjectionScratch};
use crate::problem::StandProblem;
use phylo::bitset::BitSet;
use phylo::split::{Split, SplitArena, SplitId};
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
    map: Vec<SplitId>,
    /// `b̂(t)` for each taxon (by taxon id; `NONE` when absent).
    targets: Vec<SplitId>,
    /// Interns both the agile projection and the targets, so the two id
    /// spaces are directly comparable.
    arena: SplitArena,
}

/// Undo record for one constraint rebuilt by an insertion.
struct UndoEntry {
    constraint: u32,
    all: bool,
    map: Vec<SplitId>,
    targets: Vec<SplitId>,
    arena_mark: usize,
}

/// The live edge-indexed projections for every constraint plus the LIFO
/// undo stack and the recycled scratch buffers.
pub struct EdgeIndexedMaps {
    per: Vec<EdgeKernel>,
    undo: Vec<Vec<UndoEntry>>,
    scratch: ProjectionScratch,
    /// Scratch for the constraint tree's own edge projection.
    cons_map: Vec<SplitId>,
    /// Retired `Vec<SplitId>` buffers, recycled across rebuilds.
    pool: Vec<Vec<SplitId>>,
    /// Retired undo frames, recycled across insertions.
    frame_pool: Vec<Vec<UndoEntry>>,
}

impl EdgeIndexedMaps {
    /// Builds the kernels for the root state.
    pub fn new(problem: &StandProblem, agile: &Tree) -> Self {
        let mut scratch = ProjectionScratch::new();
        let mut cons_map = Vec::new();
        let per = problem
            .constraints()
            .iter()
            .map(|cons| {
                let c = agile.taxa().intersection(cons.taxa());
                let mut arena = SplitArena::new(agile.universe());
                let mut map = Vec::new();
                let mut targets = Vec::new();
                let projected = project_edges_into(agile, &c, &mut arena, &mut scratch, &mut map);
                if projected {
                    project_targets_into(
                        cons,
                        &c,
                        &mut arena,
                        &mut scratch,
                        &mut cons_map,
                        &mut targets,
                    );
                }
                EdgeKernel {
                    all: !projected,
                    c,
                    map,
                    targets,
                    arena,
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

    /// The target id `b̂(t)` of `taxon` under constraint `ci`, or `NONE`
    /// when the constraint admits every branch or does not pin the taxon.
    #[inline]
    pub fn target_id(&self, ci: usize, taxon: TaxonId) -> SplitId {
        let k = &self.per[ci];
        if k.all {
            return SplitId::NONE;
        }
        k.targets
            .get(taxon.index())
            .copied()
            .unwrap_or(SplitId::NONE)
    }

    /// The projection id of live edge `e` under constraint `ci`.
    #[inline]
    pub fn projection_id(&self, ci: usize, e: EdgeId) -> SplitId {
        self.per[ci]
            .map
            .get(e.index())
            .copied()
            .unwrap_or(SplitId::NONE)
    }

    /// Resolves an id from constraint `ci`'s arena (diagnostics/tests).
    pub fn resolve(&self, ci: usize, id: SplitId) -> Option<&Split> {
        self.per[ci].arena.get(id)
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
                // C grows: full rebuild into recycled buffers, with undo.
                // The checkpoint is taken first so rolling back on undo
                // drops exactly the splits this rebuild interned; the old
                // vectors only reference ids below the mark.
                k.c.insert(t);
                let arena_mark = k.arena.checkpoint();
                let mut new_map = self.pool.pop().unwrap_or_default();
                let mut new_targets = self.pool.pop().unwrap_or_default();
                let projected =
                    project_edges_into(agile, &k.c, &mut k.arena, &mut self.scratch, &mut new_map);
                if projected {
                    project_targets_into(
                        cons,
                        &k.c,
                        &mut k.arena,
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
                    arena_mark,
                });
                k.all = !projected;
            } else if !k.all {
                // C unchanged: the three edges around the subdivision all
                // project to whatever the subdivided edge projected to.
                // Undo needs no repair — the slots of freed edge ids are
                // never read while dead and are rewritten on id reuse.
                let hi = ins.far_half.index().max(ins.pendant.index());
                if k.map.len() <= hi {
                    k.map.resize(hi + 1, SplitId::NONE);
                }
                let sid = k.map[ins.edge.index()];
                k.map[ins.far_half.index()] = sid;
                k.map[ins.pendant.index()] = sid;
            }
        }
        self.undo.push(frame);
    }

    /// Clones the *live* kernel state only — projections, targets and
    /// arenas — with empty undo stacks and pools. Sound for task handoff
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
            k.arena.rollback(entry.arena_mark);
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

    fn problem(newicks: &[&str]) -> StandProblem {
        let (_, trees) = parse_forest(newicks.iter().copied()).unwrap();
        StandProblem::from_constraints(trees).unwrap()
    }

    /// Compares the edge-indexed kernels against freshly recomputed
    /// Arc-based projections, split by split.
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
            for e in agile.edges() {
                let via_kernel = if ei.all_admissible(ci) {
                    None
                } else {
                    ei.resolve(ci, ei.projection_id(ci, e)).map(|s| s.side())
                };
                assert_eq!(
                    via_kernel,
                    fresh_map.get(e).map(|s| s.side()),
                    "constraint {ci}, edge {e:?}"
                );
            }
            let fresh_targets = missing_taxon_targets(cons, &c);
            for (t, fresh) in fresh_targets.iter().enumerate() {
                let via_kernel = ei
                    .resolve(ci, ei.target_id(ci, TaxonId(t as u32)))
                    .map(|s| s.side());
                assert_eq!(
                    via_kernel,
                    fresh.as_ref().map(|s| s.side()),
                    "constraint {ci}, taxon {t}"
                );
            }
        }
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
        ei.before_remove(&ins);
        agile.remove_insertion(&ins);
        assert!(ei.all_admissible(1));
        assert_matches_recompute(&ei, &p, &agile);
    }
}
