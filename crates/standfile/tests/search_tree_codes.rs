//! phylo2vec codes of stand trees taken straight from a search.
//!
//! The search edits one agile tree in place, so the trees it emits carry
//! arena ids in parse-and-recycle order rather than the allocation order
//! `phylo2vec::decode` produces. A code must depend on the topology only:
//! re-encoding the decoded tree gives the same code, and the round trip
//! keeps the canonical Newick.

use gentrius_core::config::{GentriusConfig, StoppingRules};
use gentrius_core::{run_serial, CollectTrees};
use gentrius_datagen::scenario::long_runner;
use phylo::newick::to_newick;
use phylo::phylo2vec::Encoder;

#[test]
fn search_trees_encode_like_their_round_trip() {
    let dataset = long_runner(0);
    let problem = dataset.problem().expect("long-runner-0 builds");
    let config = GentriusConfig {
        stopping: StoppingRules::counts(2_000, 10_000_000),
        ..GentriusConfig::default()
    };
    let mut sink = CollectTrees::with_cap(2_000);
    run_serial(&problem, &config, &mut sink).expect("serial run");
    assert_eq!(sink.trees.len(), 2_000);

    let mut enc = Encoder::new();
    let mut recycled = 0usize;
    for tree in &sink.trees {
        let tv = enc.encode(tree).expect("stand tree encodes");
        let back = tv.decode(tree.universe()).expect("own code decodes");
        assert_eq!(enc.encode(&back).expect("round trip encodes"), tv);
        assert_eq!(
            to_newick(&back, &dataset.taxa),
            to_newick(tree, &dataset.taxa)
        );
        if tree.dump_arena() != back.dump_arena() {
            recycled += 1;
        }
    }
    // The property is only interesting if the arenas really differ.
    assert_eq!(recycled, sink.trees.len());
}
