//! Container write/read round-trips, random access across block
//! boundaries, segment merging, and hostile-label headers.

use gentrius_core::StandSink;
use gentrius_standfile::{
    merge_segments, Container, ContainerSink, ContainerWriter, StandfileError,
};
use phylo::generate::{random_tree_on_n, ShapeModel};
use phylo::newick::to_newick;
use phylo::phylo2vec;
use phylo::taxa::TaxonSet;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("standfile-tests");
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir.join(format!("{}-{name}", std::process::id()))
}

/// `count` random trees on `n` taxa plus their canonical Newick strings.
fn random_trees(n: usize, count: usize, seed: u64) -> (TaxonSet, Vec<phylo::Tree>, Vec<String>) {
    let taxa = TaxonSet::with_synthetic(n);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let trees: Vec<phylo::Tree> = (0..count)
        .map(|i| {
            let model = if i % 2 == 0 {
                ShapeModel::Uniform
            } else {
                ShapeModel::Yule
            };
            random_tree_on_n(n, model, &mut rng)
        })
        .collect();
    let newicks = trees.iter().map(|t| to_newick(t, &taxa)).collect();
    (taxa, trees, newicks)
}

#[test]
fn roundtrip_across_block_boundaries() {
    // Block capacity 7 with 100 trees forces 15 blocks, the last partial.
    let (taxa, trees, newicks) = random_trees(12, 100, 41);
    let path = tmp("roundtrip.stand");
    let mut w = ContainerWriter::with_capacity(&path, &taxa, 7).expect("create");
    for t in &trees {
        let tv = phylo2vec::encode(t).expect("encode");
        w.push_code(&tv.code).expect("push");
    }
    let summary = w.finish().expect("finish");
    assert_eq!(summary.trees, 100);
    assert_eq!(summary.blocks, 15);

    let mut c = Container::open(&path).expect("open");
    assert_eq!(c.len(), 100);
    assert_eq!(c.block_count(), 15);
    assert_eq!(c.taxa().len(), 12);

    // Sequential scan reproduces the exact Newick sequence.
    let mut seen = Vec::new();
    c.for_each_newick(0, u64::MAX, |i, nwk| {
        assert_eq!(i as usize, seen.len());
        seen.push(nwk.to_string());
        Ok(())
    })
    .expect("scan");
    assert_eq!(seen, newicks);

    // Random access, deliberately hopping across blocks and backwards.
    for &i in &[99u64, 0, 55, 7, 6, 13, 14, 98, 42] {
        assert_eq!(
            c.newick(i).expect("newick"),
            newicks[i as usize],
            "tree {i}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn sink_streams_and_reader_pages_ranges() {
    let (taxa, trees, newicks) = random_trees(9, 50, 77);
    let path = tmp("sink.stand");
    let mut sink = ContainerSink::with_capacity(&path, &taxa, 8);
    for t in &trees {
        sink.stand_tree(t);
    }
    assert!(!sink.failed());
    assert_eq!(sink.pushed(), 50);
    let summary = sink.finish().expect("finish");
    assert_eq!(summary.trees, 50);

    let mut c = Container::open(&path).expect("open");
    // Paged reads: [10, 20) and a clamped over-long tail.
    let mut page = Vec::new();
    c.for_each_newick(10, 20, |_, nwk| {
        page.push(nwk.to_string());
        Ok(())
    })
    .expect("page");
    assert_eq!(page, newicks[10..20]);
    let mut tail = Vec::new();
    c.for_each_newick(45, 10_000, |i, nwk| {
        tail.push((i, nwk.to_string()));
        Ok(())
    })
    .expect("tail");
    assert_eq!(tail.len(), 5);
    assert_eq!(tail[0].0, 45);
    assert_eq!(tail[4].1, newicks[49]);
    std::fs::remove_file(&path).ok();
}

#[test]
fn merge_concatenates_segments_in_order_and_deletes_them() {
    let (taxa, trees, newicks) = random_trees(10, 60, 5);
    let seg_paths: Vec<PathBuf> = (0..4).map(|i| tmp(&format!("merge.seg{i}"))).collect();
    // Segment 2 stays empty-but-present, segment 3 is never created
    // (worker that produced nothing) — both must be handled.
    for (s, chunk) in trees.chunks(30).enumerate() {
        let mut sink = ContainerSink::with_capacity(&seg_paths[s], &taxa, 9);
        for t in chunk {
            sink.stand_tree(t);
        }
        sink.finish().expect("segment finish");
    }
    ContainerSink::with_capacity(&seg_paths[2], &taxa, 9)
        .finish()
        .expect("empty segment finish");

    let dest = tmp("merge.stand");
    let summary = merge_segments(&dest, &taxa, &seg_paths).expect("merge");
    assert_eq!(summary.trees, 60);
    for p in &seg_paths[..3] {
        assert!(!p.exists(), "segment {} should be deleted", p.display());
    }

    let mut c = Container::open(&dest).expect("open merged");
    assert_eq!(c.len(), 60);
    let mut seen = Vec::new();
    c.for_each_newick(0, u64::MAX, |_, nwk| {
        seen.push(nwk.to_string());
        Ok(())
    })
    .expect("scan merged");
    assert_eq!(seen, newicks, "merge preserves segment order");
    std::fs::remove_file(&dest).ok();
}

#[test]
fn merge_of_a_lone_segment_moves_it_into_place() {
    let (taxa, trees, newicks) = random_trees(10, 40, 11);
    let seg_paths: Vec<PathBuf> = (0..3).map(|i| tmp(&format!("lone.seg{i}"))).collect();
    let mut sink = ContainerSink::create(&seg_paths[1], &taxa);
    for t in &trees {
        sink.stand_tree(t);
    }
    sink.finish().expect("segment finish");
    let bytes = std::fs::read(&seg_paths[1]).expect("read segment");

    // The copying merge of the same segment writes the same bytes.
    let copy_seg = tmp("lone-copy.seg");
    std::fs::write(&copy_seg, &bytes).expect("write copy");
    let other = tmp("lone-other.seg");
    ContainerSink::create(&other, &taxa)
        .finish()
        .expect("empty segment finish");
    let copied = tmp("lone-copied.stand");
    merge_segments(&copied, &taxa, &[copy_seg, other]).expect("copying merge");

    let dest = tmp("lone.stand");
    let summary = merge_segments(&dest, &taxa, &seg_paths).expect("merge");
    assert_eq!(summary.trees, 40);
    assert!(!seg_paths[1].exists(), "the lone segment was moved");
    assert_eq!(std::fs::read(&dest).expect("read merged"), bytes);
    assert_eq!(std::fs::read(&copied).expect("read copied"), bytes);
    let mut c = Container::open(&dest).expect("open merged");
    assert_eq!(summary.blocks, c.block_count() as u64);
    assert_eq!(c.newick(39).expect("newick"), newicks[39]);
    std::fs::remove_file(&dest).ok();
    std::fs::remove_file(&copied).ok();
}

#[test]
fn merge_rejects_mismatched_taxa() {
    let (taxa_a, trees, _) = random_trees(8, 3, 1);
    let taxa_b = TaxonSet::with_synthetic(9);
    let seg = tmp("mismatch.seg0");
    let mut sink = ContainerSink::create(&seg, &taxa_a);
    for t in &trees {
        sink.stand_tree(t);
    }
    sink.finish().expect("segment finish");
    let dest = tmp("mismatch.stand");
    let err = merge_segments(&dest, &taxa_b, std::slice::from_ref(&seg));
    assert!(
        matches!(err, Err(StandfileError::TaxaMismatch(_))),
        "got {err:?}"
    );
    std::fs::remove_file(&seg).ok();
    std::fs::remove_file(&dest).ok();
}

#[test]
fn hostile_labels_survive_the_header() {
    let mut taxa = TaxonSet::new();
    for name in [
        "plain",
        "with space",
        "quo'te",
        "par(en),comma;colon:",
        "uni-τάξον-🌲",
        "_under_",
        "7",
    ] {
        taxa.intern(name);
    }
    let (_, trees, _) = {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let trees: Vec<phylo::Tree> = (0..10)
            .map(|_| random_tree_on_n(7, ShapeModel::Uniform, &mut rng))
            .collect();
        (0, trees, 0)
    };
    let newicks: Vec<String> = trees.iter().map(|t| to_newick(t, &taxa)).collect();
    let path = tmp("hostile.stand");
    let mut sink = ContainerSink::with_capacity(&path, &taxa, 3);
    for t in &trees {
        sink.stand_tree(t);
    }
    sink.finish().expect("finish");

    let mut c = Container::open(&path).expect("open");
    assert_eq!(
        c.taxa_names(),
        taxa.iter().map(|(_, n)| n.to_string()).collect::<Vec<_>>()
    );
    for (i, expect) in newicks.iter().enumerate() {
        assert_eq!(&c.newick(i as u64).expect("newick"), expect);
    }
    std::fs::remove_file(&path).ok();
}

/// A header longer than the reader's first chunk (64 KiB) is read again
/// in full, not cut short.
#[test]
fn header_longer_than_the_first_read_opens() {
    let mut taxa = TaxonSet::new();
    for i in 0..200 {
        taxa.intern(&format!("{i:03}-{}", "x".repeat(1000)));
    }
    let (_, trees, _) = random_trees(200, 3, 7);
    let newicks: Vec<String> = trees.iter().map(|t| to_newick(t, &taxa)).collect();
    let path = tmp("long-header.stand");
    let mut sink = ContainerSink::create(&path, &taxa);
    for t in &trees {
        sink.stand_tree(t);
    }
    sink.finish().expect("finish");
    assert!(std::fs::metadata(&path).expect("stat").len() > 128 << 10);

    let mut c = Container::open(&path).expect("open");
    assert_eq!(c.taxa().len(), 200);
    for (i, expect) in newicks.iter().enumerate() {
        assert_eq!(&c.newick(i as u64).expect("newick"), expect);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn open_rejects_garbage_and_truncation() {
    let path = tmp("garbage.stand");
    std::fs::write(&path, b"definitely not a container").expect("write");
    assert!(matches!(
        Container::open(&path),
        Err(StandfileError::Format { .. })
    ));

    // A valid container with the footer chopped off must be rejected, not
    // misread.
    let (taxa, trees, _) = random_trees(8, 20, 123);
    let mut sink = ContainerSink::with_capacity(&path, &taxa, 4);
    for t in &trees {
        sink.stand_tree(t);
    }
    sink.finish().expect("finish");
    let bytes = std::fs::read(&path).expect("read");
    std::fs::write(&path, &bytes[..bytes.len() - 10]).expect("truncate");
    assert!(matches!(
        Container::open(&path),
        Err(StandfileError::Format { .. })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn out_of_bounds_and_wrong_universe_are_typed_errors() {
    let (taxa, trees, _) = random_trees(6, 5, 9);
    let path = tmp("bounds.stand");
    let mut sink = ContainerSink::create(&path, &taxa);
    for t in &trees {
        sink.stand_tree(t);
    }
    sink.finish().expect("finish");
    let mut c = Container::open(&path).expect("open");
    assert!(matches!(
        c.newick(5),
        Err(StandfileError::OutOfBounds { index: 5, len: 5 })
    ));

    // A sink over a 10-taxon universe fed 6-taxon trees latches an error
    // instead of writing a corrupt file.
    let big = TaxonSet::with_synthetic(10);
    let path2 = tmp("universe.stand");
    let mut sink = ContainerSink::create(&path2, &big);
    sink.stand_tree(&trees[0]);
    assert!(sink.failed());
    assert!(matches!(
        sink.finish(),
        Err(StandfileError::TaxaMismatch(_))
    ));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&path2).ok();
}

#[test]
fn prefix_delta_compresses_sibling_runs() {
    // Enumeration-order trees share long code prefixes; verify the format
    // actually exploits that: a run of trees differing only in the last
    // code entry must stay well under one byte per code entry.
    let taxa = TaxonSet::with_synthetic(32);
    let universe = taxa.len();
    let ids: Vec<phylo::TaxonId> = (0..universe as u32).map(phylo::TaxonId).collect();
    let base: Vec<u32> = (0..30u32).map(|j| (2 * j) % (2 * j + 1)).collect();
    let path = tmp("delta.stand");
    let mut w = ContainerWriter::with_capacity(&path, &taxa, 1024).expect("create");
    let mut count = 0u64;
    for last in 0..500u32 {
        let mut code = base.clone();
        code[29] = last % 59; // bound for j = 29 is 2*29+1 = 59
                              // Sanity: the codes must decode (i.e. be valid trees).
        phylo2vec::decode(universe, &ids, &code).expect("valid code");
        w.push_code(&code).expect("push");
        count += 1;
    }
    let summary = w.finish().expect("finish");
    assert_eq!(summary.trees, count);
    let size = std::fs::metadata(&path).expect("meta").len();
    let naive = count * 30; // one byte per entry, ignoring framing
    assert!(
        size < naive / 4,
        "delta coding should beat naive packing 4x on sibling runs: {size} vs {naive}"
    );
    std::fs::remove_file(&path).ok();
}
