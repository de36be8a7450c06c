//! Pins the exact bytes of a serial `.stand` container.
//!
//! `run_serial` on the `long-runner-0` scenario, capped at a few thousand
//! stand trees, streams into a [`ContainerSink`]; the file's length and
//! FNV-1a 64 digest are compared against constants. Any change to the
//! phylo2vec codes, the block layout or the header shows up here, so an
//! encoder rewrite that claims identical output must leave this test
//! untouched.

use gentrius_core::config::{GentriusConfig, StoppingRules};
use gentrius_core::run_serial;
use gentrius_datagen::scenario::long_runner;
use gentrius_standfile::ContainerSink;

/// Stand-tree cap of the pinned run (rule 1).
const MAX_TREES: u64 = 3_000;
/// Trees the capped run emits.
const GOLDEN_TREES: u64 = 3_000;
/// Length of the container file in bytes.
const GOLDEN_LEN: u64 = 52_414;
/// FNV-1a 64 of the whole container file.
const GOLDEN_FNV: u64 = 0xea7c_ebf8_33cd_0002;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn serial_long_runner_container_bytes_are_pinned() {
    let dataset = long_runner(0);
    let problem = dataset.problem().expect("long-runner-0 builds");
    let config = GentriusConfig {
        stopping: StoppingRules::counts(MAX_TREES, 10_000_000),
        ..GentriusConfig::default()
    };
    let dir = std::env::temp_dir().join("standfile-tests");
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let path = dir.join(format!("{}-golden.stand", std::process::id()));

    let mut sink = ContainerSink::create(&path, &dataset.taxa);
    let result = run_serial(&problem, &config, &mut sink).expect("serial run");
    let summary = sink.finish().expect("finish container");
    let bytes = std::fs::read(&path).expect("read container");
    std::fs::remove_file(&path).ok();

    assert_eq!(result.stats.stand_trees, GOLDEN_TREES);
    assert_eq!(summary.trees, GOLDEN_TREES);
    assert_eq!(
        (bytes.len() as u64, fnv1a(&bytes)),
        (GOLDEN_LEN, GOLDEN_FNV),
        "container bytes moved: (len, fnv1a) = ({}, {:#018x})",
        bytes.len(),
        fnv1a(&bytes)
    );
}
