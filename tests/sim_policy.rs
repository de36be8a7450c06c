//! Scheduler-policy tests of the virtual-time simulator: the paper's task
//! restrictions (queue capacity rule, ≥3-remaining-taxa cut-off) must
//! behave as designed, and results must be invariant to them — under
//! every mapping engine. The simulator replays the scheduler policy on
//! top of the real kernels, so each test runs the full Recompute /
//! EdgeIndexed matrix: a policy invariant that holds only
//! under one kernel is not an invariant.

use gentrius_core::{GentriusConfig, MappingMode, StandProblem, StoppingRules};
use gentrius_datagen::adversarial::{interaction_showcase, interaction_stopping};
use gentrius_datagen::{simulated_dataset, InteractionParams, MissingPattern, SimulatedParams};
use gentrius_parallel::counters::FlushThresholds;
use gentrius_sim::{simulate, CostModel, SimConfig};
use phylo::generate::ShapeModel;

const MODES: [MappingMode; 2] = [MappingMode::Recompute, MappingMode::EdgeIndexed];

fn medium_instance() -> StandProblem {
    let params = SimulatedParams {
        taxa: (20, 20),
        loci: (5, 5),
        missing: (0.45, 0.5),
        pattern: MissingPattern::Uniform,
        shape: ShapeModel::Uniform,
    };
    // Search a deterministic index with a non-trivial serial cost.
    for i in 0..40 {
        let d = simulated_dataset(&params, 31_337, i);
        let Ok(p) = d.problem() else { continue };
        let cfg = GentriusConfig {
            stopping: StoppingRules::counts(100_000, 100_000),
            ..GentriusConfig::default()
        };
        let s = simulate(&p, &cfg, &SimConfig::with_threads(1)).unwrap();
        if s.complete() && s.makespan > 4_000 {
            return p;
        }
    }
    panic!("no medium instance found in the seeded family");
}

fn config(mapping: MappingMode) -> GentriusConfig {
    GentriusConfig {
        mapping,
        stopping: StoppingRules::counts(100_000, 100_000),
        ..GentriusConfig::default()
    }
}

#[test]
fn results_invariant_to_all_policy_knobs() {
    let p = medium_instance();
    let mut reference = None;
    for mode in MODES {
        let cfg = config(mode);
        let serial = simulate(&p, &cfg, &SimConfig::with_threads(1)).unwrap();
        // The counters may not depend on the mapping engine either.
        let reference = reference.get_or_insert(serial.stats);
        assert_eq!(&serial.stats, reference, "{mode}: serial counters drifted");
        for threads in [2usize, 8] {
            for capacity in [Some(1usize), Some(4), None] {
                for min_remaining in [2usize, 3, 6] {
                    for stealing in [true, false] {
                        let mut sc = SimConfig::with_threads(threads);
                        sc.queue_capacity = capacity;
                        sc.min_remaining_for_split = min_remaining;
                        sc.stealing = stealing;
                        let r = simulate(&p, &cfg, &sc).unwrap();
                        assert_eq!(
                            &r.stats, reference,
                            "{mode} threads={threads} cap={capacity:?} \
                             min={min_remaining} steal={stealing}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn zero_capacity_queue_disables_stealing() {
    let p = medium_instance();
    for mode in MODES {
        let cfg = config(mode);
        let mut with_queue = SimConfig::with_threads(8);
        with_queue.cost = CostModel::ideal();
        let mut no_queue = with_queue.clone();
        no_queue.queue_capacity = Some(0);
        let a = simulate(&p, &cfg, &with_queue).unwrap();
        let b = simulate(&p, &cfg, &no_queue).unwrap();
        assert_eq!(
            b.tasks_stolen, 0,
            "{mode}: capacity 0 must prevent submissions"
        );
        assert!(
            a.tasks_stolen > 0,
            "{mode}: default capacity should allow stealing"
        );
        assert!(a.makespan <= b.makespan, "{mode}: stealing must not hurt");
        // A zero-capacity queue is exactly the static-split mode.
        let mut static_mode = with_queue.clone();
        static_mode.stealing = false;
        let c = simulate(&p, &cfg, &static_mode).unwrap();
        assert_eq!(b.makespan, c.makespan, "{mode}");
    }
}

#[test]
fn larger_min_remaining_reduces_task_traffic() {
    let p = medium_instance();
    for mode in MODES {
        let cfg = config(mode);
        let stolen = |min: usize| {
            let mut sc = SimConfig::with_threads(8);
            sc.min_remaining_for_split = min;
            simulate(&p, &cfg, &sc).unwrap().tasks_stolen
        };
        let loose = stolen(2);
        let paper = stolen(3);
        let strict = stolen(8);
        assert!(loose >= paper, "{mode}: loose {loose} < paper {paper}");
        assert!(paper >= strict, "{mode}: paper {paper} < strict {strict}");
    }
}

#[test]
fn makespan_never_below_critical_work_over_threads() {
    // Sanity: T_N >= T_1 / N on the ideal machine (no superlinear gains
    // without stopping rules).
    let p = medium_instance();
    for mode in MODES {
        let cfg = config(mode);
        let mut base = SimConfig::with_threads(1);
        base.cost = CostModel::ideal();
        let serial = simulate(&p, &cfg, &base).unwrap();
        for threads in [2usize, 4, 8, 16, 32] {
            let mut sc = SimConfig::with_threads(threads);
            sc.cost = CostModel::ideal();
            let r = simulate(&p, &cfg, &sc).unwrap();
            let lower = serial.makespan / threads as u64;
            assert!(
                r.makespan >= lower,
                "{mode} threads {threads}: {} < {lower}",
                r.makespan
            );
            assert!(r.makespan <= serial.makespan, "{mode} threads {threads}");
        }
    }
}

/// Every field of one `SimResult` on one line,
/// `case tN cost full|ticks | trees states dead-ends stop | makespan
/// prefix-ticks submitted-tasks | fingerprint`, where the FNV-1a
/// fingerprint covers the per-worker vectors: busy ticks, steal counts
/// and timeline segments.
fn golden_line(case: &str, cost: &str, limited: bool, r: &gentrius_sim::SimResult) -> String {
    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            fp = (fp ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let tl = r.timeline.as_ref().expect("golden runs are traced");
    mix(r.threads as u64);
    r.busy.iter().chain(&r.steals).for_each(|&x| mix(x));
    for segs in &tl.workers {
        mix(segs.len() as u64);
        for s in segs {
            mix(s.start);
            mix(s.end);
            mix(s.task as u64);
        }
    }
    let stop = r.stop.map_or("-".to_string(), |c| format!("{c:?}"));
    format!(
        "{case} t{} {cost} {} | {} {} {} {stop} | {} {} {} | {fp:016x}",
        r.threads,
        if limited { "ticks" } else { "full" },
        r.stats.stand_trees,
        r.stats.intermediate_states,
        r.stats.dead_ends,
        r.makespan,
        r.prefix_ticks,
        r.tasks_stolen,
    )
}

/// Exact simulator output, pinned: the scheduler model may only change on
/// purpose. On mismatch the failure message prints the whole actual table.
const GOLDEN: &[&str] = &[
    "heuristics t1 paper full | 8385 510 0 - | 9432 3 0 | ad3f45759f6e20d2",
    "heuristics t1 paper ticks | 1316 85 0 TimeLimit | 1500 3 0 | ab5e57410d435b0e",
    "heuristics t1 replay4 full | 8385 510 0 - | 9432 3 0 | ad3f45759f6e20d2",
    "heuristics t2 paper full | 8385 510 0 - | 4949 3 13 | afa4fa88439f44d1",
    "heuristics t2 paper ticks | 2602 167 0 TimeLimit | 1500 3 6 | fab749a33c9b8522",
    "heuristics t2 replay4 full | 8385 510 0 - | 4982 3 13 | 8367ba29d76253d0",
    "heuristics t4 paper full | 8385 510 0 - | 2659 3 25 | 1b8060c60de7c9a8",
    "heuristics t4 paper ticks | 5063 311 0 TimeLimit | 1500 3 19 | c8adfd118e8cb3b0",
    "heuristics t4 replay4 full | 8385 510 0 - | 2716 3 25 | 7478a51a00f31946",
    "heuristics t8 paper full | 8385 510 0 - | 1334 3 27 | 0e6d54713cbf7bc6",
    "heuristics t8 paper ticks | 8385 510 0 - | 1334 3 27 | 0e6d54713cbf7bc6",
    "heuristics t8 replay4 full | 8385 510 0 - | 1437 3 27 | 760de6ea1cb6347e",
    "heuristics t48 paper full | 8385 510 0 - | 1334 3 27 | fd09ceb4648f7745",
    "heuristics t48 paper ticks | 8385 510 0 - | 1334 3 27 | fd09ceb4648f7745",
    "heuristics t48 replay4 full | 8385 510 0 - | 1334 3 27 | 53308b0e9bf0fd02",
    "plateau3 t1 paper full | 13065 204 0 - | 13501 6 0 | 81d86915ed4aad10",
    "plateau3 t1 paper ticks | 1428 29 0 TimeLimit | 1500 6 0 | 050975c5bdcc08aa",
    "plateau3 t1 replay4 full | 13065 204 0 - | 13501 6 0 | 81d86915ed4aad10",
    "plateau3 t2 paper full | 13065 204 0 - | 9010 6 0 | 608175304852d24c",
    "plateau3 t2 paper ticks | 2856 52 0 TimeLimit | 1500 6 0 | de87bbb4a1545a52",
    "plateau3 t2 replay4 full | 13065 204 0 - | 9010 6 0 | 608175304852d24c",
    "plateau3 t4 paper full | 13065 204 0 - | 4519 6 0 | 067a6447a44f6c6e",
    "plateau3 t4 paper ticks | 4284 75 0 TimeLimit | 1500 6 0 | 82fa20d1ee88199c",
    "plateau3 t4 replay4 full | 13065 204 0 - | 4519 6 0 | 067a6447a44f6c6e",
    "plateau3 t8 paper full | 13065 204 0 - | 4519 6 0 | d17671a01bc57aba",
    "plateau3 t8 paper ticks | 4284 75 0 TimeLimit | 1500 6 0 | d893318c213ac800",
    "plateau3 t8 replay4 full | 13065 204 0 - | 4519 6 0 | d17671a01bc57aba",
    "plateau3 t48 paper full | 13065 204 0 - | 4519 6 0 | 3d1d158aa56aeb42",
    "plateau3 t48 paper ticks | 4284 75 0 TimeLimit | 1500 6 0 | e4cae5e412bf9b78",
    "plateau3 t48 replay4 full | 13065 204 0 - | 4519 6 0 | 3d1d158aa56aeb42",
    "interaction t1 paper full | 63 100 56 StateLimit | 376 14 0 | c058eea1361225aa",
    "interaction t1 paper ticks | 21 39 16 TimeLimit | 150 14 0 | fa781c344b93cbba",
    "interaction t1 replay4 full | 63 100 56 StateLimit | 376 14 0 | c058eea1361225aa",
    "interaction t2 paper full | 112 100 42 StateLimit | 272 14 6 | 7ddb81fb32628dda",
    "interaction t2 paper ticks | 46 55 17 TimeLimit | 150 14 6 | 8c2f94ee4f2c3686",
    "interaction t2 replay4 full | 112 100 42 StateLimit | 272 14 6 | 7ddb81fb32628dda",
    "interaction t4 paper full | 62 100 35 StateLimit | 150 14 21 | 7db29f14eb0104f8",
    "interaction t4 paper ticks | 62 100 35 StateLimit | 150 14 21 | 7db29f14eb0104f8",
    "interaction t4 replay4 full | 63 100 34 StateLimit | 151 14 21 | 94d41e03a6333c76",
    "interaction t8 paper full | 52 100 15 StateLimit | 111 14 37 | e22733abd0d623ca",
    "interaction t8 paper ticks | 52 100 15 StateLimit | 111 14 37 | e22733abd0d623ca",
    "interaction t8 replay4 full | 51 100 17 StateLimit | 113 14 37 | 9f176399609d504e",
    "interaction t48 paper full | 8 100 3 StateLimit | 92 14 62 | e8ca0cac030fc3f4",
    "interaction t48 paper ticks | 8 100 3 StateLimit | 92 14 62 | e8ca0cac030fc3f4",
    "interaction t48 replay4 full | 14 100 7 StateLimit | 101 14 56 | 8c4b7556b5792336",
    "sim9 t1 paper full | 387 176 0 - | 759 2 0 | 914a3ccb7cd765bc",
    "sim9 t1 paper ticks | 149 68 0 TimeLimit | 300 2 0 | 8d52db26bf7a7242",
    "sim9 t1 replay4 full | 387 176 0 - | 759 2 0 | 914a3ccb7cd765bc",
    "sim9 t2 paper full | 387 176 0 - | 517 2 8 | 593b2e9b4cdcd2dc",
    "sim9 t2 paper ticks | 231 114 0 TimeLimit | 300 2 7 | 5b5d2d05f314cf8d",
    "sim9 t2 replay4 full | 387 176 0 - | 547 2 8 | fe5b2bfdddca4d2d",
    "sim9 t4 paper full | 387 176 0 - | 297 2 12 | 52c457521308d5da",
    "sim9 t4 paper ticks | 387 176 0 - | 297 2 12 | 52c457521308d5da",
    "sim9 t4 replay4 full | 387 176 0 - | 315 2 12 | 579e9232223a5280",
    "sim9 t8 paper full | 387 176 0 - | 167 2 12 | 6ddbde93e41956aa",
    "sim9 t8 paper ticks | 387 176 0 - | 167 2 12 | 6ddbde93e41956aa",
    "sim9 t8 replay4 full | 387 176 0 - | 185 2 12 | 138abcf75cf2899c",
    "sim9 t48 paper full | 387 176 0 - | 159 2 12 | 3d025d4def78bbb4",
    "sim9 t48 paper ticks | 387 176 0 - | 159 2 12 | 3d025d4def78bbb4",
    "sim9 t48 replay4 full | 387 176 0 - | 159 2 12 | 8c9b90061ed02044",
    "sim13 t1 paper full | 4455 190 0 - | 4859 2 0 | ac315362f3ee2914",
    "sim13 t1 paper ticks | 1360 62 0 TimeLimit | 1500 2 0 | 832a5dbadc3c52ba",
    "sim13 t1 replay4 full | 4455 190 0 - | 4859 2 0 | ac315362f3ee2914",
    "sim13 t2 paper full | 4455 190 0 - | 2671 2 6 | 46fb013811f49f1b",
    "sim13 t2 paper ticks | 2627 118 0 TimeLimit | 1500 2 6 | 589a0580dea016c7",
    "sim13 t2 replay4 full | 4455 190 0 - | 2683 2 6 | 72095d3a2944c6b5",
    "sim13 t4 paper full | 4455 190 0 - | 1365 2 6 | 3a95a0503fa881f1",
    "sim13 t4 paper ticks | 4455 190 0 - | 1365 2 6 | 3a95a0503fa881f1",
    "sim13 t4 replay4 full | 4455 190 0 - | 1377 2 6 | c4624bf189cf4746",
    "sim13 t8 paper full | 4455 190 0 - | 1330 2 6 | d86908a6ef73d6ef",
    "sim13 t8 paper ticks | 4455 190 0 - | 1330 2 6 | d86908a6ef73d6ef",
    "sim13 t8 replay4 full | 4455 190 0 - | 1330 2 6 | 4158395cf7de31e8",
    "sim13 t48 paper full | 4455 190 0 - | 1330 2 6 | 300b89f2e48dacb3",
    "sim13 t48 paper ticks | 4455 190 0 - | 1330 2 6 | 300b89f2e48dacb3",
    "sim13 t48 replay4 full | 4455 190 0 - | 1330 2 6 | c4e27477c7ab13bc",
];

#[test]
fn simulator_output_is_pinned_exactly() {
    let scenario = |key| gentrius_datagen::scenario::scenario_by_key(key).unwrap();
    let small = SimulatedParams {
        taxa: (16, 18),
        loci: (5, 6),
        missing: (0.45, 0.5),
        pattern: MissingPattern::Uniform,
        shape: ShapeModel::Uniform,
    };
    // The Fig. 5b class rules at a debug-build-sized state budget; with
    // unbatched flushes the budget binds exactly.
    let (interaction, _) = interaction_showcase();
    let interaction_rules = interaction_stopping(&InteractionParams {
        state_budget: 100,
        ..InteractionParams::zoo()
    });
    let batched = FlushThresholds::paper_defaults();
    // (name, dataset, stopping rules, flush thresholds, tick limit)
    let cases = [
        (
            "heuristics",
            scenario("heuristics-showcase"),
            StoppingRules::default(),
            batched,
            1_500,
        ),
        (
            "plateau3",
            scenario("plateau-3"),
            StoppingRules::default(),
            batched,
            1_500,
        ),
        (
            "interaction",
            interaction,
            interaction_rules,
            FlushThresholds::unbatched(),
            150,
        ),
        (
            "sim9",
            simulated_dataset(&small, 4242, 9),
            StoppingRules::default(),
            batched,
            300,
        ),
        (
            "sim13",
            simulated_dataset(&small, 4242, 13),
            StoppingRules::default(),
            batched,
            1_500,
        ),
    ];
    // Replay charged per insertion of a task's depth: with any split-off
    // task (always at depth >= 1) this model's makespans differ.
    let heavy_replay = CostModel {
        replay_per_insertion: 4,
        ..CostModel::paper_like()
    };
    let mut actual = Vec::new();
    for (case, dataset, stopping, flush, tick_limit) in &cases {
        let p = dataset.problem().unwrap();
        for threads in [1usize, 2, 4, 8, 48] {
            // Both cost models unlimited, plus the tick limit under the
            // paper model.
            for (cost_name, cost, limited) in [
                ("paper", CostModel::paper_like(), false),
                ("paper", CostModel::paper_like(), true),
                ("replay4", heavy_replay, false),
            ] {
                let run = |mapping| {
                    let cfg = GentriusConfig {
                        mapping,
                        stopping: stopping.clone(),
                        ..GentriusConfig::default()
                    };
                    let mut sc = SimConfig::with_threads(threads);
                    sc.cost = cost;
                    sc.flush = *flush;
                    sc.trace = true;
                    sc.max_ticks = limited.then_some(*tick_limit);
                    golden_line(case, cost_name, limited, &simulate(&p, &cfg, &sc).unwrap())
                };
                let line = run(MappingMode::EdgeIndexed);
                // The schedule may not depend on the mapping engine; one
                // thread count per case checks that.
                if threads == 4 && !limited {
                    assert_eq!(
                        run(MappingMode::Recompute),
                        line,
                        "mapping engine changed it"
                    );
                }
                actual.push(line);
            }
        }
    }
    let rendered = actual
        .iter()
        .map(|l| format!("    \"{l}\",\n"))
        .collect::<String>();
    assert!(
        actual.iter().map(String::as_str).eq(GOLDEN.iter().copied()),
        "simulator output drifted from the pinned table; actual:\n{rendered}"
    );
}
