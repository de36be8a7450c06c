//! Task depths count insertions past the initial-split state `I_0`, not
//! past the root: the initial-split chunks sit at depth 0 however long
//! the serial prefix that reached `I_0` was.

#![cfg(not(loom))]

use gentrius_core::config::{GentriusConfig, InitialTreeRule};
use gentrius_core::problem::StandProblem;
use gentrius_parallel::{run_parallel, ParallelConfig};
use phylo::newick::parse_forest;

#[test]
fn initial_split_chunks_start_at_depth_zero() {
    // From the first tree, E has a single admissible branch (the second
    // tree pins it), so the prefix enters one state before F and G open
    // the initial split.
    let (_, trees) =
        parse_forest(["((A,B),(C,D));", "(((A,B),E),(C,D));", "((A,F),(C,G));"]).unwrap();
    let problem = StandProblem::from_constraints(trees).unwrap();
    let config = GentriusConfig {
        initial_tree: InitialTreeRule::Index(0),
        ..GentriusConfig::exhaustive()
    };
    let mut pcfg = ParallelConfig::with_threads(1);
    pcfg.trace = true;
    let r = run_parallel(&problem, &config, &pcfg).unwrap();
    assert!(r.complete());
    assert!(
        r.prefix.intermediate_states > 0,
        "premise: the prefix inserts taxa before I_0"
    );
    let spans: Vec<_> = r.workers.iter().flat_map(|w| &w.spans).collect();
    assert!(!spans.is_empty(), "a traced run records its tasks");
    for span in spans {
        assert_eq!(span.snapshot_depth, 0, "{span:?}");
    }
}
