//! `datagen fuzz` — seeded constraint-set mutation fuzzing under the
//! 2-mode × thread-count conformance matrix.
//!
//! ```text
//! cargo run --release -p gentrius-datagen --bin fuzz -- \
//!     [--seed N] [--seconds N] [--iterations N] [--corpus-dir DIR] [--threads a,b]
//! ```
//!
//! Every iteration derives a mutant purely from `(seed, iteration)`, so a
//! reported failure replays with the same seed. Minimized failures are
//! written to the corpus directory (default `tests/corpus/`) in the
//! gentrius dataset v1 text format, where `tests/fuzz_corpus.rs` pins
//! them forever. Exits non-zero when any divergence was found.

use gentrius_datagen::fuzz::{run_fuzz, FuzzConfig};
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    let mut seed = 20260808u64;
    let mut seconds: Option<u64> = None;
    let mut iterations: Option<u64> = None;
    let mut corpus_dir: Option<PathBuf> = Some(PathBuf::from("tests/corpus"));
    let mut threads = vec![2usize, 4];

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("missing value after {}", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--seed" => {
                seed = need(i).parse().expect("--seed takes a u64");
                i += 2;
            }
            "--seconds" => {
                seconds = Some(need(i).parse().expect("--seconds takes a u64"));
                i += 2;
            }
            "--iterations" => {
                iterations = Some(need(i).parse().expect("--iterations takes a u64"));
                i += 2;
            }
            "--corpus-dir" => {
                let v = need(i);
                corpus_dir = if v == "none" {
                    None
                } else {
                    Some(PathBuf::from(v))
                };
                i += 2;
            }
            "--threads" => {
                threads = need(i)
                    .split(',')
                    .map(|s| s.parse().expect("--threads takes a,b,..."))
                    .collect();
                i += 2;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if seconds.is_none() && iterations.is_none() {
        seconds = Some(60);
    }

    let mut cfg = FuzzConfig::new(seed);
    cfg.max_iterations = iterations;
    cfg.time_box = seconds.map(Duration::from_secs);
    cfg.threads = threads;

    println!(
        "fuzz: seed={seed} time_box={:?} iterations={:?} threads={:?}",
        cfg.time_box, cfg.max_iterations, cfg.threads
    );
    let report = run_fuzz(&cfg, corpus_dir.as_deref()).expect("corpus write failed");
    println!(
        "fuzz: {} iterations, {} checked, {} skipped, {} failures",
        report.iterations,
        report.checked,
        report.skipped,
        report.failures.len()
    );
    for f in &report.failures {
        println!(
            "  FAILURE iteration={} name={} reason={}",
            f.iteration, f.dataset.name, f.reason
        );
    }
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}
