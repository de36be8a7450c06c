//! Snapshot-handoff conservation: the property the parallel engine's task
//! model rests on, tested directly at the Explorer level against the
//! serial oracle.
//!
//! A stolen task carries an owned [`StateSnapshot`] of the donor's state
//! plus the stolen half of its top frame; the thief resumes the snapshot
//! without replaying any insertion. At random points of random
//! explorations — whose prefixes interleave containing and non-containing
//! inserts, completions and dead ends arbitrarily — splitting work off
//! into snapshot-resumed thieves, including thieves robbed in turn, must
//! conserve the undisturbed run exactly: the same counters and the same
//! stand multiset, under both mapping engines.
//!
//! [`StateSnapshot`]: gentrius_core::state::StateSnapshot

use gentrius_core::config::{MappingMode, TaxonOrderRule};
use gentrius_core::explore::{Explorer, StepEvent};
use gentrius_core::problem::StandProblem;
use gentrius_core::sink::CollectNewick;
use gentrius_core::state::SearchState;
use phylo::bitset::BitSet;
use phylo::generate::{random_tree_on_n, ShapeModel};
use phylo::ops::restrict;
use phylo::taxa::TaxonSet;
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const CAP: usize = 1_000_000;

fn random_problem(seed: u64) -> (TaxonSet, StandProblem) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rng.gen_range(8..=12);
    let taxa = TaxonSet::with_synthetic(n);
    loop {
        let source = random_tree_on_n(n, ShapeModel::Uniform, &mut rng);
        let m = rng.gen_range(2..=4);
        let mut covered = BitSet::new(n);
        let mut cols = Vec::new();
        for _ in 0..m {
            let k = rng.gen_range(4..=n.min(7));
            let mut s = BitSet::new(n);
            while s.count() < k {
                s.insert(rng.gen_range(0..n));
            }
            covered.union_with(&s);
            cols.push(s);
        }
        if covered.count() != n {
            continue;
        }
        let constraints: Vec<_> = cols.iter().map(|c| restrict(&source, c)).collect();
        if let Ok(p) = StandProblem::from_constraints(constraints) {
            return (taxa, p);
        }
    }
}

fn fresh_state<'p>(problem: &'p StandProblem, mode: MappingMode) -> SearchState<'p> {
    let mut s = SearchState::new(problem, 0, &TaxonOrderRule::Dynamic).expect("root state");
    s.enable_mapping(mode);
    s
}

type Work = (u64, u64, u64);

/// Counts one event into `(trees, states, dead ends)`; false on `Finished`.
fn count(ev: StepEvent, work: &mut Work) -> bool {
    match ev {
        StepEvent::Entered => work.1 += 1,
        StepEvent::StandTree => work.0 += 1,
        StepEvent::DeadEnd => {
            work.1 += 1;
            work.2 += 1;
        }
        StepEvent::Backtracked => {}
        StepEvent::Finished => return false,
    }
    true
}

fn drain(ex: &mut Explorer<'_>, sink: &mut CollectNewick<'_>) -> Work {
    let mut work = (0, 0, 0);
    while count(ex.step(sink), &mut work) {}
    work
}

/// One explorer of a split run: the donor or a thief.
struct Part<'p> {
    ex: Explorer<'p>,
    sink: CollectNewick<'p>,
    work: Work,
    /// Insertions between the root state and this explorer's start state.
    depth: usize,
}

const MODES: [MappingMode; 2] = [MappingMode::Recompute, MappingMode::EdgeIndexed];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Up to three split points per mode: the first robs the donor, the
    /// second the newest thief (a nested steal), the third a random part.
    /// Each split resumes a snapshot of the robbed part's state over the
    /// stolen half-frame. The parts' work must sum to the undisturbed
    /// run's counters, and their stand trees to its stand multiset.
    #[test]
    fn snapshot_splits_conserve_the_serial_run(seed in 0u64..u64::MAX) {
        for mode in MODES {
            let (taxa, problem) = random_problem(seed);
            let mut reference = Explorer::new_root(fresh_state(&problem, mode));
            let mut ref_sink = CollectNewick::with_cap(&taxa, CAP);
            let full = drain(&mut reference, &mut ref_sink);
            let root_remaining = problem.num_taxa() - problem.constraints()[0].taxa().count();

            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5157);
            let mut parts = vec![Part {
                ex: Explorer::new_root(fresh_state(&problem, mode)),
                sink: CollectNewick::with_cap(&taxa, CAP),
                work: (0, 0, 0),
                depth: 0,
            }];
            for split in 0..3 {
                let victim = match split {
                    0 => 0,
                    1 => parts.len() - 1,
                    _ => rng.gen_range(0..parts.len()),
                };
                let v = &mut parts[victim];
                // Walk a random stretch, so the state below the split point
                // is an arbitrary interleaving of the explorer's events.
                for _ in 0..rng.gen_range(1..25) {
                    if !count(v.ex.step(&mut v.sink), &mut v.work) {
                        break;
                    }
                }
                let Some(stolen) = v.ex.split_top() else {
                    continue; // finished, or top frame not splittable here
                };
                let taxon = v.ex.top().expect("a split leaves a frame").taxon;
                let depth = v.depth + v.ex.applied_depth();
                let snap = v.ex.state().snapshot();
                prop_assert_eq!(
                    snap.remaining_count() + depth,
                    root_remaining,
                    "snapshot depth accounting broken"
                );
                parts.push(Part {
                    ex: Explorer::for_task(SearchState::resume(&problem, snap), taxon, stolen),
                    sink: CollectNewick::with_cap(&taxa, CAP),
                    work: (0, 0, 0),
                    depth,
                });
            }

            let mut work = (0, 0, 0);
            let mut stand = Vec::new();
            for mut part in parts {
                let rest = drain(&mut part.ex, &mut part.sink);
                work.0 += part.work.0 + rest.0;
                work.1 += part.work.1 + rest.1;
                work.2 += part.work.2 + rest.2;
                stand.extend(part.sink.out);
            }
            prop_assert_eq!(work, full, "mode {:?}: counters not conserved", mode);
            stand.sort();
            ref_sink.out.sort();
            prop_assert_eq!(stand, ref_sink.out, "mode {:?}: stand multiset changed", mode);
        }
    }

    /// A depth-0 snapshot (taken before any insertion) resumed over the
    /// root frame must reproduce the whole enumeration — the degenerate
    /// case the engine's initial-split injection relies on.
    #[test]
    fn depth_zero_snapshot_reproduces_the_full_enumeration(seed in 0u64..u64::MAX) {
        for mode in MODES {
            let (taxa, problem) = random_problem(seed);
            // Reference: an undisturbed run from the root.
            let mut reference = Explorer::new_root(fresh_state(&problem, mode));
            let mut ref_sink = CollectNewick::with_cap(&taxa, CAP);
            let full = drain(&mut reference, &mut ref_sink);

            // Snapshot the virgin root state, then resume it over the same
            // root frame a fresh explorer opens at construction.
            let root = fresh_state(&problem, mode);
            let snap = root.snapshot();
            let donor = Explorer::new_root(root);
            let Some(top) = donor.top() else {
                continue; // root state already complete (single-tree stand)
            };
            let (taxon, branches) = (top.taxon, top.branches.clone());
            let mut resumer = Explorer::for_task(SearchState::resume(&problem, snap), taxon, branches);
            let mut resume_sink = CollectNewick::with_cap(&taxa, CAP);
            let work = drain(&mut resumer, &mut resume_sink);
            prop_assert_eq!(work, full, "mode {:?}: depth-0 counters diverged", mode);
            ref_sink.out.sort();
            resume_sink.out.sort();
            prop_assert_eq!(resume_sink.out, ref_sink.out.clone(), "mode {:?}", mode);
        }
    }
}
