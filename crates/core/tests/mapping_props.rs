//! Property tests of the edge-indexed admissibility kernels: on random
//! trees and constraints the flat clade-key kernels must agree with the
//! definitional admissibility test for every (taxon, edge) pair, and an
//! apply/undo round trip must restore the exact observable projection
//! state at every depth.

use gentrius_core::edge_index::EdgeIndexedMaps;
use gentrius_core::mapping::{attachment_map, missing_taxon_targets, CladeKey};
use gentrius_core::StandProblem;
use phylo::bitset::BitSet;
use phylo::generate::{random_tree, ShapeModel};
use phylo::ops::{compatible, restrict};
use phylo::split::{topo_eq, Split};
use phylo::taxa::TaxonId;
use phylo::tree::{EdgeId, Tree};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const UNIVERSE: usize = 11;

/// A random instance: an agile tree and 2–3 constraint trees, all
/// restrictions of one random source tree (so they are pairwise
/// compatible and form a well-posed stand problem).
fn random_instance(seed: u64) -> (Tree, StandProblem) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ids: Vec<TaxonId> = (0..UNIVERSE as u32).map(TaxonId).collect();
    let source = random_tree(UNIVERSE, &ids, ShapeModel::Uniform, &mut rng);
    let subset = |rng: &mut ChaCha8Rng, lo: usize, hi: usize| {
        let mut shuffled = ids.clone();
        shuffled.shuffle(rng);
        let size = rng.gen_range(lo..=hi);
        BitSet::from_iter(UNIVERSE, shuffled[..size].iter().map(|t| t.index()))
    };
    let agile = restrict(&source, &subset(&mut rng, 4, 7));
    let n_cons = rng.gen_range(2..=3);
    let constraints: Vec<Tree> = (0..n_cons)
        .map(|_| restrict(&source, &subset(&mut rng, 4, 9)))
        .collect();
    let problem = StandProblem::from_constraints(constraints).unwrap();
    (agile, problem)
}

/// §II-A admissibility from first principles: insert `t` on `e`, restrict
/// both trees to the common taxa plus `t`, compare topologies.
fn admissible_by_definition(agile: &Tree, constraint: &Tree, t: TaxonId, e: EdgeId) -> bool {
    let mut a = agile.clone();
    a.insert_leaf_on_edge(t, e);
    let mut cu = agile.taxa().intersection(constraint.taxa());
    cu.insert(t.index());
    topo_eq(&restrict(&a, &cu), &restrict(constraint, &cu))
}

/// The kernels' answer for one (constraint, taxon, edge) triple.
fn admissible_by_kernel(ei: &EdgeIndexedMaps, ci: usize, t: TaxonId, e: EdgeId) -> bool {
    if ei.all_admissible(ci) {
        return true;
    }
    let target = ei.target_id(ci, t);
    if target.is_none() {
        return true; // constraint does not pin the taxon
    }
    ei.projection_id(ci, e) == target
}

/// Everything a kernel exposes: common taxa, the all-admissible flag, and
/// (when projected) the key of every live edge and every taxon's target.
/// Keys are values, not ids into a per-run table, so snapshots taken at
/// different times compare directly.
type KernelSnapshot = Vec<(BitSet, bool, Vec<CladeKey>, Vec<CladeKey>)>;

fn snapshot(ei: &EdgeIndexedMaps, problem: &StandProblem, agile: &Tree) -> KernelSnapshot {
    (0..problem.constraints().len())
        .map(|ci| {
            let all = ei.all_admissible(ci);
            let map: Vec<CladeKey> = if all {
                Vec::new()
            } else {
                agile.edges().map(|e| ei.projection_id(ci, e)).collect()
            };
            let targets: Vec<CladeKey> = (0..UNIVERSE)
                .map(|t| ei.target_id(ci, TaxonId(t as u32)))
                .collect();
            (ei.common(ci).clone(), all, map, targets)
        })
        .collect()
}

/// The key of a recomputed split, derived independently of the kernels:
/// the smallest taxon and the size of the side that does not contain
/// `min C` (the canonical side).
fn key_of(split: Option<&Split>) -> CladeKey {
    split.map_or(CladeKey::NONE, |s| {
        let side = s.side();
        CladeKey::pack(side.min_member().unwrap(), side.count(), side.universe()).unwrap()
    })
}

/// Asserts the kernels match freshly recomputed Arc-based projections:
/// every edge key and every target equals the key derived from the
/// Recompute split. Where the agile tree displays the constraint's common
/// subtree (`A|C = T|C`, which every state the search reaches satisfies),
/// two keys over all agile edges and targets of a constraint are also
/// equal exactly when their splits are.
fn matches_recompute(
    ei: &EdgeIndexedMaps,
    problem: &StandProblem,
    agile: &Tree,
) -> Result<(), TestCaseError> {
    for (ci, cons) in problem.constraints().iter().enumerate() {
        let c = agile.taxa().intersection(cons.taxa());
        prop_assert_eq!(ei.common(ci), &c, "C of constraint {}", ci);
        let fresh = attachment_map(agile, &c);
        prop_assert_eq!(
            ei.all_admissible(ci),
            fresh.all_admissible(),
            "all flag of constraint {}",
            ci
        );
        if ei.all_admissible(ci) {
            continue;
        }
        let mut labelled: Vec<(CladeKey, Split)> = Vec::new();
        for e in agile.edges() {
            let via_kernel = ei.projection_id(ci, e);
            prop_assert_eq!(
                via_kernel,
                key_of(fresh.get(e)),
                "constraint {}, edge {:?}",
                ci,
                e
            );
            labelled.extend(fresh.get(e).map(|s| (via_kernel, s.clone())));
        }
        let fresh_targets = missing_taxon_targets(cons, &c);
        for (t, fresh) in fresh_targets.iter().enumerate() {
            let via_kernel = ei.target_id(ci, TaxonId(t as u32));
            prop_assert_eq!(
                via_kernel,
                key_of(fresh.as_ref()),
                "constraint {}, taxon {}",
                ci,
                t
            );
            labelled.extend(fresh.iter().map(|s| (via_kernel, s.clone())));
        }
        if !compatible(agile, cons) {
            continue; // keys name splits only under A|C = T|C
        }
        for (i, (ka, sa)) in labelled.iter().enumerate() {
            for (kb, sb) in &labelled[i + 1..] {
                prop_assert_eq!(
                    ka == kb,
                    sa == sb,
                    "constraint {}: keys {:?}/{:?} vs splits {:?}/{:?}",
                    ci,
                    ka,
                    kb,
                    sa,
                    sb
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn edge_kernel_agrees_with_definition(seed in 0u64..u64::MAX) {
        let (agile, problem) = random_instance(seed);
        let ei = EdgeIndexedMaps::new(&problem, &agile);
        matches_recompute(&ei, &problem, &agile)?;
        for (ci, cons) in problem.constraints().iter().enumerate() {
            let c = agile.taxa().intersection(cons.taxa());
            for t in cons.taxa().difference(agile.taxa()).iter() {
                let t = TaxonId(t as u32);
                for e in agile.edges() {
                    let kernel = admissible_by_kernel(&ei, ci, t, e);
                    if c.count() <= 1 {
                        // |C| ≤ 1: every edge is admissible by definition
                        // and the kernel must say so via the all flag.
                        prop_assert!(ei.all_admissible(ci));
                        prop_assert!(kernel);
                    } else {
                        prop_assert_eq!(
                            kernel,
                            admissible_by_definition(&agile, cons, t, e),
                            "constraint {}, taxon {:?}, edge {:?}",
                            ci, t, e
                        );
                    }
                }
            }
            // Taxa the constraint does not contain are never pinned by it.
            for t in 0..UNIVERSE {
                if !cons.taxa().contains(t) {
                    prop_assert!(ei.target_id(ci, TaxonId(t as u32)).is_none());
                }
            }
        }
    }

    #[test]
    fn apply_undo_roundtrip_restores_projection_state(seed in 0u64..u64::MAX) {
        let (mut agile, problem) = random_instance(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD1CE);
        let mut ei = EdgeIndexedMaps::new(&problem, &agile);

        // Insert every missing taxon (random order, random edges),
        // snapshotting the observable kernel state before each step and
        // checking live agreement with the recompute machinery after it.
        let mut missing: Vec<TaxonId> = problem
            .all_taxa()
            .difference(agile.taxa())
            .iter()
            .map(|t| TaxonId(t as u32))
            .collect();
        missing.shuffle(&mut rng);
        let mut trail = Vec::new();
        for t in missing {
            let edges: Vec<EdgeId> = agile.edges().collect();
            let e = edges[rng.gen_range(0..edges.len())];
            let snap = snapshot(&ei, &problem, &agile);
            let ins = agile.insert_leaf_on_edge(t, e);
            ei.after_insert(&problem, &agile, &ins);
            matches_recompute(&ei, &problem, &agile)?;
            trail.push((ins, snap));
        }

        // Unwind: each undo must restore the exact pre-insert snapshot.
        while let Some((ins, snap)) = trail.pop() {
            ei.before_remove(&ins);
            agile.remove_insertion(&ins);
            prop_assert_eq!(snapshot(&ei, &problem, &agile), snap);
            matches_recompute(&ei, &problem, &agile)?;
        }
    }

    #[test]
    fn keys_name_splits_along_admissible_insertions(seed in 0u64..u64::MAX) {
        // Inserting only on admissible edges, as the search does, keeps
        // A|C = T|C for every constraint: the invariant under which equal
        // keys must mean equal splits. The walk stops at a dead end.
        let (mut agile, problem) = random_instance(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC1AD);
        let mut ei = EdgeIndexedMaps::new(&problem, &agile);
        let mut missing: Vec<TaxonId> = problem
            .all_taxa()
            .difference(agile.taxa())
            .iter()
            .map(|t| TaxonId(t as u32))
            .collect();
        missing.shuffle(&mut rng);
        let mut trail = Vec::new();
        for t in missing {
            let n_cons = problem.constraints().len();
            let admissible: Vec<EdgeId> = agile
                .edges()
                .filter(|&e| (0..n_cons).all(|ci| admissible_by_kernel(&ei, ci, t, e)))
                .collect();
            for e in agile.edges() {
                let by_definition = problem.constraints().iter().all(|cons| {
                    !cons.taxa().contains(t.index()) || admissible_by_definition(&agile, cons, t, e)
                });
                prop_assert_eq!(admissible.contains(&e), by_definition, "taxon {:?}, edge {:?}", t, e);
            }
            if admissible.is_empty() {
                break; // a dead end: the search would backtrack here
            }
            let e = admissible[rng.gen_range(0..admissible.len())];
            let ins = agile.insert_leaf_on_edge(t, e);
            ei.after_insert(&problem, &agile, &ins);
            for cons in problem.constraints() {
                prop_assert!(compatible(&agile, cons));
            }
            matches_recompute(&ei, &problem, &agile)?;
            trail.push(ins);
        }
        while let Some(ins) = trail.pop() {
            ei.before_remove(&ins);
            agile.remove_insertion(&ins);
            matches_recompute(&ei, &problem, &agile)?;
        }
    }
}
