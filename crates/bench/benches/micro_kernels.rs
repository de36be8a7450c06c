//! M1 — criterion micro-benchmarks of the hot kernels.
//!
//! Covers the operations that dominate a Gentrius run: the tree edit pair
//! (insert/undo), the attachment projection (the mapping kernel the paper
//! profiles at 15–30% of runtime), restriction, Newick and phylo2vec
//! round-trips, and end-to-end serial state throughput (the paper's
//! "hundreds of thousands of states per second").

use criterion::{criterion_group, criterion_main, Criterion};
use gentrius_core::mapping::attachment_map;
use gentrius_core::{CountOnly, GentriusConfig, StoppingRules};
use gentrius_datagen::scenario::heuristics_showcase;
use gentrius_parallel::counters::{FlushThresholds, GlobalCounters, LocalCounters};
use gentrius_parallel::pool::TaskPool;
use gentrius_parallel::task::Task;
use phylo::bitset::BitSet;
use phylo::generate::{random_tree, random_tree_on_n, ShapeModel};
use phylo::newick::{parse_newick, to_newick};
use phylo::ops::restrict;
use phylo::phylo2vec::Encoder;
use phylo::taxa::{TaxonId, TaxonSet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Duration;

/// A 200-leaf tree over a 201-taxon universe (taxon 200 left free so it
/// can be inserted/removed in the edit benchmark).
fn tree_200() -> phylo::Tree {
    let ids: Vec<TaxonId> = (0..200).map(TaxonId).collect();
    random_tree(
        201,
        &ids,
        ShapeModel::Uniform,
        &mut ChaCha8Rng::seed_from_u64(11),
    )
}

fn bench_tree_edits(c: &mut Criterion) {
    let mut tree = tree_200();
    let edge = tree.edges().nth(137).expect("edge exists");
    c.bench_function("tree/insert_plus_remove_200_taxa", |b| {
        b.iter(|| {
            let ins = tree.insert_leaf_on_edge(TaxonId(200), black_box(edge));
            tree.remove_insertion(&ins);
        })
    });
}

fn bench_attachment_map(c: &mut Criterion) {
    let tree = tree_200();
    let c100 = BitSet::from_iter(201, (0..200).step_by(2));
    c.bench_function("mapping/attachment_map_200_taxa_c100", |b| {
        b.iter(|| black_box(attachment_map(&tree, black_box(&c100))))
    });
    let c10 = BitSet::from_iter(201, (0..200).step_by(20));
    c.bench_function("mapping/attachment_map_200_taxa_c10", |b| {
        b.iter(|| black_box(attachment_map(&tree, black_box(&c10))))
    });
}

fn bench_restrict(c: &mut Criterion) {
    let tree = tree_200();
    let keep = BitSet::from_iter(201, (0..200).step_by(2));
    c.bench_function("ops/restrict_200_to_100", |b| {
        b.iter(|| black_box(restrict(&tree, black_box(&keep))))
    });
}

fn bench_newick(c: &mut Criterion) {
    let taxa = TaxonSet::with_synthetic(201);
    let tree = tree_200();
    let s = to_newick(&tree, &taxa);
    c.bench_function("newick/write_200_taxa", |b| {
        b.iter(|| black_box(to_newick(&tree, &taxa)))
    });
    c.bench_function("newick/parse_200_taxa", |b| {
        b.iter(|| black_box(parse_newick(black_box(&s), &taxa).expect("parses")))
    });
}

fn bench_phylo2vec(c: &mut Criterion) {
    let tree = tree_200();
    let mut enc = Encoder::new();
    let tv = enc.encode(&tree).expect("binary tree encodes");
    c.bench_function("p2v/encode_200_taxa", |b| {
        b.iter(|| black_box(enc.encode(black_box(&tree)).expect("encodes")))
    });
    c.bench_function("p2v/decode_200_taxa", |b| {
        b.iter(|| black_box(tv.decode(tree.universe()).expect("decodes")))
    });
}

fn bench_state_throughput(c: &mut Criterion) {
    let dataset = heuristics_showcase();
    let problem = dataset.problem().expect("valid");
    let cfg = GentriusConfig {
        stopping: StoppingRules::counts(100_000, 20_000),
        ..GentriusConfig::default()
    };
    let mut group = c.benchmark_group("gentrius");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    group.bench_function("serial_20k_states", |b| {
        b.iter(|| {
            black_box(gentrius_core::run_serial(&problem, &cfg, &mut CountOnly).expect("run"))
        })
    });
    group.finish();
}

fn bench_parallel_primitives(c: &mut Criterion) {
    // Owner-side deque push+pop (the §III-A communication cost on the
    // fast path: no lock, no syscall).
    c.bench_function("pool/push_pop", |b| {
        let pool = TaskPool::new(1, 64);
        let worker = pool.worker(0);
        // A phantom in-flight task keeps the pool from declaring itself
        // drained between iterations (termination detection is one-shot).
        pool.preregister_active(1);
        let task = Task::probe(TaxonId(0), vec![phylo::EdgeId(3), phylo::EdgeId(7)]);
        b.iter(|| {
            worker.try_push(black_box(task.clone())).expect("room");
            let t = worker.next_task().expect("just pushed");
            worker.task_done();
            black_box(t)
        })
    });
    // Cross-worker steal (the FIFO end of the Chase–Lev deque).
    c.bench_function("pool/push_steal", |b| {
        let pool = TaskPool::new(2, 64);
        let owner = pool.worker(0);
        let thief = pool.worker(1);
        pool.preregister_active(1);
        let task = Task::probe(TaxonId(0), vec![phylo::EdgeId(3), phylo::EdgeId(7)]);
        b.iter(|| {
            owner.try_push(black_box(task.clone())).expect("room");
            let t = thief.next_task().expect("just pushed");
            thief.task_done();
            black_box(t)
        })
    });
    // Batched vs unbatched counter increments (the §III-B cost).
    let rules = gentrius_core::StoppingRules::unlimited();
    c.bench_function("counters/batched_increment", |b| {
        let global = GlobalCounters::new(rules.clone());
        let mut local = LocalCounters::new(&global, FlushThresholds::paper_defaults());
        b.iter(|| local.intermediate_state())
    });
    c.bench_function("counters/unbatched_increment", |b| {
        let global = GlobalCounters::new(rules.clone());
        let mut local = LocalCounters::new(&global, FlushThresholds::unbatched());
        b.iter(|| local.intermediate_state())
    });
}

fn bench_superb(c: &mut Criterion) {
    use gentrius_core::StandProblem;
    // SUPERB counting on a comprehensive-core instance.
    let params = gentrius_datagen::SimulatedParams {
        taxa: (16, 16),
        loci: (4, 4),
        missing: (0.35, 0.45),
        pattern: gentrius_datagen::MissingPattern::ComprehensiveCore,
        shape: ShapeModel::Uniform,
    };
    let d = gentrius_datagen::simulated_dataset(&params, 4242, 0);
    let p: StandProblem = d.problem().expect("valid");
    if gentrius_superb::comprehensive_taxon(&p).is_some() {
        c.bench_function("superb/count_16_taxa", |b| {
            b.iter(|| black_box(gentrius_superb::superb_count(black_box(&p))))
        });
    }
}

fn bench_random_generation(c: &mut Criterion) {
    c.bench_function("generate/random_tree_200", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        b.iter(|| black_box(random_tree_on_n(200, ShapeModel::Uniform, &mut rng)))
    });
}

criterion_group!(
    benches,
    bench_tree_edits,
    bench_attachment_map,
    bench_restrict,
    bench_newick,
    bench_phylo2vec,
    bench_state_throughput,
    bench_parallel_primitives,
    bench_superb,
    bench_random_generation
);
criterion_main!(benches);
