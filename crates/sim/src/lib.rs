//! # gentrius-sim — virtual-time simulator of parallel Gentrius
//!
//! The paper evaluates its parallelization on a 48-core Xeon; this
//! reproduction's host may have only a couple of cores, so wall-clock
//! speedups cannot demonstrate 16–48-way scaling. Every effect §IV reports,
//! however — linear speedups, plateaus caused by unbalanced branch-and-
//! bound trees (Fig. 5a), super-linear speedups from the parallel descent
//! interacting with the stopping rules (Fig. 5b, Fig. 8), and the *adapted
//! speedup* under the time limit (Table I) — is a property of the
//! *scheduler policy applied to the workflow tree*, not of the silicon.
//!
//! This crate therefore re-runs the exact policy of `gentrius-parallel`
//! (initial split, bounded queue, work stealing of the engine's own
//! snapshot `Task`s, batched counter flushes, stopping rules) as a
//! deterministic lock-step discrete-event simulation where one *tick* =
//! one state transition on one logical core, and reports virtual makespans
//! from which speedups at any thread count are computed — bit-for-bit
//! reproducibly. A picked-up task is charged the paper's path replay in
//! ticks (`CostModel::replay_per_insertion` per insertion of its depth);
//! replay is modelled, not executed.
//!
//! ```
//! use gentrius_core::{GentriusConfig, StandProblem};
//! use gentrius_sim::{simulate, SimConfig};
//! use phylo::newick::parse_forest;
//!
//! let (_, trees) = parse_forest(["((A,B),(C,D));", "((A,E),(F,G));"]).unwrap();
//! let problem = StandProblem::from_constraints(trees).unwrap();
//! let serial = simulate(&problem, &GentriusConfig::exhaustive(), &SimConfig::with_threads(1)).unwrap();
//! let par = simulate(&problem, &GentriusConfig::exhaustive(), &SimConfig::with_threads(8)).unwrap();
//! assert_eq!(serial.stats, par.stats);
//! assert!(par.speedup_vs(&serial) >= 1.0);
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod engine;
pub mod gw;
pub mod metrics;
pub mod trace;

pub use cost::CostModel;
pub use engine::{simulate, SimConfig, SimResult};
pub use gw::{profile_search, CountPrediction, GwModel, SearchProfile};
pub use metrics::Summary;
pub use trace::{Segment, Timeline};
