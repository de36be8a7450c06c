//! Deterministic lock-step simulation of the parallel Gentrius scheduler.
//!
//! The evaluation machine of the paper (48-core Xeon) is replaced by a
//! discrete-event model: `N_t` logical workers advance in lock step, one
//! virtual *tick* per state transition (see [`CostModel`](crate::cost)),
//! with the exact scheduling policy of `gentrius-parallel` — serial prefix
//! to the initial-split state `I_0`, initial chunks routed through a
//! global injector, per-worker steal deques (LIFO for the owner, FIFO for
//! thieves) bounded by the per-deque capacity (`N_t+1` / `N_t/2`),
//! randomized victim selection (seeded via [`SimConfig::victim_seed`]),
//! the ≥3-remaining-taxa submission rule, snapshot-resumed tasks charged
//! the paper's path-replay cost, batched counter flushes, and stopping
//! rules evaluated in virtual-time order.
//! Every speedup phenomenon reported in §IV — linear scaling, plateaus
//! from unbalanced workflow trees, super-linear speedups from
//! stopping-rule interaction, adapted speedups under the time limit — is a
//! property of this interaction and therefore reproducible here,
//! bit-for-bit deterministically, on any host.

use crate::cost::CostModel;
use crate::trace::{Segment, Timeline};
use gentrius_core::config::{GentriusConfig, StopCause};
use gentrius_core::explore::{Explorer, StepEvent};
use gentrius_core::problem::{ProblemError, StandProblem};
use gentrius_core::sink::CountOnly;
use gentrius_core::state::SearchState;
use gentrius_core::stats::RunStats;
use gentrius_parallel::counters::FlushThresholds;
use gentrius_parallel::task::{paper_queue_capacity, partition_branches, Task};
use phylo::ops::compatible;
use std::collections::VecDeque;

/// Virtual-machine configuration for one simulation.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of simulated worker threads (`N_t`).
    pub threads: usize,
    /// Tick charges.
    pub cost: CostModel,
    /// Counter-flush batching (visibility of counts to the stopping rules).
    pub flush: FlushThresholds,
    /// Per-worker deque capacity; `None` = the paper rule.
    pub queue_capacity: Option<usize>,
    /// Minimum remaining taxa for task submission (paper: 3).
    pub min_remaining_for_split: usize,
    /// Work stealing on (the paper's engine) or off (static initial split
    /// only — the load-imbalance baseline of Fig. 3).
    pub stealing: bool,
    /// Seed for the randomized victim-selection policy (which deque an
    /// idle worker probes first). Results must be invariant under it; the
    /// schedule (makespan, per-worker loads) may vary.
    pub victim_seed: u64,
    /// Stopping rule 3 in virtual ticks (`None` = no time limit). Rules 1
    /// and 2 come from the algorithmic config's `StoppingRules`.
    pub max_ticks: Option<u64>,
    /// Record a per-worker execution [`Timeline`] (small overhead; off by
    /// default).
    pub trace: bool,
    /// Per-worker slowdown periods: worker `w` needs `periods[w]` ticks
    /// per unit of work (`1` = full speed). `None` = homogeneous cores.
    /// Models heterogeneous machines / stragglers — a robustness study the
    /// paper's homogeneous Xeon could not ask.
    pub speed_periods: Option<Vec<u64>>,
}

impl SimConfig {
    /// Paper-faithful simulated machine with `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        SimConfig {
            threads,
            cost: CostModel::paper_like(),
            flush: FlushThresholds::paper_defaults(),
            queue_capacity: None,
            min_remaining_for_split: 3,
            stealing: true,
            victim_seed: 0,
            max_ticks: None,
            trace: false,
            speed_periods: None,
        }
    }

    /// Slowdown period of worker `w` (1 = full speed).
    fn period(&self, w: usize) -> u64 {
        self.speed_periods
            .as_ref()
            .and_then(|p| p.get(w).copied())
            .unwrap_or(1)
            .max(1)
    }

    fn capacity(&self) -> usize {
        self.queue_capacity
            .unwrap_or_else(|| paper_queue_capacity(self.threads))
    }
}

/// Outcome of one simulation.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Exact totals of the work performed (overshoot semantics as in the
    /// real engine: limits are enforced at flush granularity).
    pub stats: RunStats,
    /// Which stopping rule fired, if any.
    pub stop: Option<StopCause>,
    /// Virtual completion time (the parallel makespan, in ticks).
    pub makespan: u64,
    /// Ticks spent in the serial prefix (included in `makespan`).
    pub prefix_ticks: u64,
    /// Per-worker busy ticks (load-balance diagnostics).
    pub busy: Vec<u64>,
    /// Tasks submitted through worker deques (split-off work).
    pub tasks_stolen: usize,
    /// Per-worker count of tasks taken from *another* worker's deque
    /// (the victim-selection policy's actual traffic).
    pub steals: Vec<u64>,
    /// Simulated thread count.
    pub threads: usize,
    /// Per-worker execution timeline (only when `SimConfig::trace`).
    pub timeline: Option<Timeline>,
}

impl SimResult {
    /// True if the stand was fully enumerated.
    pub fn complete(&self) -> bool {
        self.stop.is_none()
    }

    /// Classic speedup vs a (1-thread) baseline: `T_1 / T_N`.
    pub fn speedup_vs(&self, serial: &SimResult) -> f64 {
        serial.makespan as f64 / self.makespan.max(1) as f64
    }

    /// The paper's *adapted speedup* (§IV-A):
    /// `ASP_N = (ST_N / T_N) / (ST_1 / T_1)` — throughput of stand trees
    /// relative to the serial run, fair when stopping rules truncate runs
    /// differently.
    pub fn adapted_speedup_vs(&self, serial: &SimResult) -> f64 {
        let tn = self.makespan.max(1) as f64;
        let t1 = serial.makespan.max(1) as f64;
        let stn = self.stats.stand_trees as f64;
        let st1 = serial.stats.stand_trees.max(1) as f64;
        (stn / tn) / (st1 / t1)
    }
}

struct Counters {
    global: RunStats,
    rules_trees: Option<u64>,
    rules_states: Option<u64>,
    stop: Option<StopCause>,
}

impl Counters {
    fn raise(&mut self, cause: StopCause) {
        if self.stop.is_none() {
            self.stop = Some(cause);
        }
    }

    fn flush(&mut self, pending: &mut RunStats) {
        self.global.merge(pending);
        *pending = RunStats::new();
        if let Some(max) = self.rules_trees {
            if self.global.stand_trees >= max {
                self.raise(StopCause::StandTreeLimit);
            }
        }
        if let Some(max) = self.rules_states {
            if self.global.intermediate_states >= max {
                self.raise(StopCause::StateLimit);
            }
        }
    }
}

struct Worker<'p> {
    /// The task being explored; `None` while idle.
    ex: Option<Explorer<'p>>,
    /// Depth of the current task's snapshot past `I_0`.
    task_depth: usize,
    cooldown: u64,
    busy: u64,
    pending: RunStats,
    /// Tick at which the current task started (tracing only).
    seg_start: Option<(u64, usize)>,
}

/// Runs the simulation. The algorithmic configuration (`config`) supplies
/// the heuristics, the mapping engine and stopping rules 1–2; rule 3 (time)
/// is `sim.max_ticks` in virtual time (`config.stopping.max_time` is
/// ignored — wall clocks do not exist here).
pub fn simulate(
    problem: &StandProblem,
    config: &GentriusConfig,
    sim: &SimConfig,
) -> Result<SimResult, ProblemError> {
    assert!(sim.threads >= 1);
    let initial = problem.initial_tree_index(&config.initial_tree)?;
    // The root state; building it surfaces order-rule problems.
    let mut root = SearchState::new(problem, initial, &config.taxon_order)
        .map_err(ProblemError::BadTaxonOrder)?;
    let cost = sim.cost;
    let mut counters = Counters {
        global: RunStats::new(),
        rules_trees: config.stopping.max_stand_trees,
        rules_states: config.stopping.max_intermediate_states,
        stop: None,
    };

    // Root invariant check, as in the real engines.
    let agile0 = &problem.constraints()[initial];
    if problem.constraints().iter().any(|c| !compatible(agile0, c)) {
        return Ok(SimResult {
            stats: RunStats::new(),
            stop: None,
            makespan: 0,
            prefix_ticks: 0,
            busy: vec![0; sim.threads],
            tasks_stolen: 0,
            steals: vec![0; sim.threads],
            threads: sim.threads,
            timeline: None,
        });
    }
    // Kernels are built only on a compatible root, which they assume.
    root.enable_mapping(config.mapping);

    // ---------------- Phase 1: serial prefix ----------------
    let mut sink = CountOnly;
    let mut prefix_ex = Explorer::new_root(root);
    let mut prefix_pending = RunStats::new();
    let mut prefix_ticks: u64 = 0;
    loop {
        if counters.stop.is_some() {
            break;
        }
        if let Some(max) = sim.max_ticks {
            if prefix_ticks >= max {
                counters.raise(StopCause::TimeLimit);
                break;
            }
        }
        if prefix_ex.finished() {
            break;
        }
        if prefix_ex.top().map(|f| f.pending()).unwrap_or(0) >= 2 {
            break;
        }
        let ev = prefix_ex.step(&mut sink);
        prefix_ticks += cost.step;
        record(
            ev,
            &mut prefix_pending,
            &sim.flush,
            &mut counters,
            &mut prefix_ticks,
            cost,
        );
    }
    counters.flush(&mut prefix_pending);

    if prefix_ex.finished() || counters.stop.is_some() {
        return Ok(SimResult {
            stats: counters.global,
            stop: counters.stop,
            makespan: prefix_ticks,
            prefix_ticks,
            busy: vec![0; sim.threads],
            tasks_stolen: 0,
            steals: vec![0; sim.threads],
            threads: sim.threads,
            timeline: None,
        });
    }

    // ---------------- Phase 2: initial split ----------------
    // Every chunk resumes one snapshot of `I_0`, at depth 0.
    let frame = prefix_ex.top().expect("I_0 frame");
    let split_taxon = frame.taxon;
    let split_branches: Vec<_> = frame.branches[frame.cursor..].to_vec();
    let split_snapshot = prefix_ex.state().snapshot();
    drop(prefix_ex);

    let stealing = sim.stealing && sim.threads > 1;
    let capacity = sim.capacity();
    // The two-level scheduler model, mirroring `gentrius-parallel`:
    // initial chunks go through a global injector; split-off tasks land on
    // the submitting worker's own deque (owner end = back, steal end =
    // front); idle workers pop their own deque LIFO, then steal FIFO from
    // a randomized victim, then fall back to the injector.
    let mut injector: VecDeque<(Task, usize)> = partition_branches(&split_branches, sim.threads)
        .into_iter()
        .map(|branches| Task::new(split_snapshot.clone(), split_taxon, branches, 0))
        .zip(0..)
        .collect();
    drop(split_snapshot);
    let n_chunks = injector.len();
    let mut deques: Vec<VecDeque<(Task, usize)>> =
        (0..sim.threads).map(|_| VecDeque::new()).collect();
    let mut victim_rng: Vec<u64> = (0..sim.threads)
        .map(|w| splitmix64(sim.victim_seed ^ (w as u64 + 1)) | 1)
        .collect();
    let mut steals = vec![0u64; sim.threads];

    let mut workers: Vec<Worker<'_>> = (0..sim.threads)
        .map(|_| Worker {
            ex: None,
            task_depth: 0,
            cooldown: 0,
            busy: 0,
            pending: RunStats::new(),
            seg_start: None,
        })
        .collect();
    let mut tasks_stolen = 0usize;
    let mut timeline = sim.trace.then(|| Timeline::new(sim.threads));

    // ---------------- Phase 3: lock-step execution ----------------
    let mut tick = prefix_ticks;
    loop {
        if counters.stop.is_some() {
            break;
        }
        if workers.iter().all(|w| w.ex.is_none())
            && injector.is_empty()
            && deques.iter().all(VecDeque::is_empty)
        {
            break;
        }
        if let Some(max) = sim.max_ticks {
            if tick >= max {
                counters.raise(StopCause::TimeLimit);
                break;
            }
        }
        #[allow(clippy::needless_range_loop)] // wi also tags trace segments
        for wi in 0..workers.len() {
            let w = &mut workers[wi];
            let period = sim.period(wi);
            let Some(ex) = w.ex.as_mut() else {
                // Acquisition order of `TaskPool::next_task`: own deque
                // (LIFO), randomized-victim steal (FIFO), injector.
                let mut grabbed = deques[wi].pop_back();
                if grabbed.is_none() && stealing {
                    let start = (next_rand(&mut victim_rng[wi]) % sim.threads as u64) as usize;
                    for k in 0..sim.threads {
                        let v = (start + k) % sim.threads;
                        if v == wi {
                            continue;
                        }
                        if let Some(x) = deques[v].pop_front() {
                            steals[wi] += 1;
                            grabbed = Some(x);
                            break;
                        }
                    }
                }
                if grabbed.is_none() {
                    grabbed = injector.pop_front();
                }
                if let Some((task, task_id)) = grabbed {
                    // The engine resumes the snapshot; the paper's thief
                    // replays the path from `I_0`, which this model charges.
                    w.cooldown = (cost.task_overhead
                        + cost.replay_per_insertion * task.depth as u64)
                        * period;
                    w.task_depth = task.depth;
                    let state = SearchState::resume(problem, task.snapshot);
                    w.ex = Some(Explorer::for_task(state, task.taxon, task.branches));
                    w.seg_start = Some((tick, task_id));
                }
                continue;
            };
            w.busy += 1;
            if w.cooldown > 0 {
                w.cooldown -= 1;
                continue;
            }
            if counters.stop.is_some() {
                continue;
            }
            let ev = ex.step(&mut sink);
            if ev == StepEvent::Finished {
                w.ex = None;
                counters.flush(&mut w.pending);
                if let (Some(tl), Some((start, id))) = (&mut timeline, w.seg_start.take()) {
                    tl.workers[wi].push(Segment {
                        start,
                        end: tick + 1,
                        task: id,
                    });
                }
                continue;
            }
            let mut extra = 0u64;
            record(
                ev,
                &mut w.pending,
                &sim.flush,
                &mut counters,
                &mut extra,
                cost,
            );
            w.cooldown += extra + (cost.step * period - 1);
            if ev == StepEvent::Entered
                && stealing
                && deques[wi].len() < capacity
                && ex.remaining_taxa() >= sim.min_remaining_for_split
                && ex.top().map(|f| f.pending()).unwrap_or(0) >= 2
            {
                if let Some(branches) = ex.split_top() {
                    // Published exactly as `maybe_submit` does in the
                    // engine.
                    let task = Task::new(
                        ex.state().snapshot(),
                        ex.top().expect("frame after split").taxon,
                        branches,
                        w.task_depth + ex.applied_depth(),
                    );
                    deques[wi].push_back((task, n_chunks + tasks_stolen));
                    tasks_stolen += 1;
                    w.cooldown += cost.submit_overhead;
                }
            }
        }
        tick += 1;
    }

    // Interrupted tasks are simply dropped; flush everything.
    for (wi, w) in workers.iter_mut().enumerate() {
        counters.flush(&mut w.pending);
        if let (Some(tl), Some((start, id))) = (&mut timeline, w.seg_start.take()) {
            tl.workers[wi].push(Segment {
                start,
                end: tick,
                task: id,
            });
        }
    }

    Ok(SimResult {
        stats: counters.global,
        stop: counters.stop,
        makespan: tick,
        prefix_ticks,
        busy: workers.iter().map(|w| w.busy).collect(),
        tasks_stolen,
        steals,
        threads: sim.threads,
        timeline,
    })
}

/// SplitMix64 seed expansion for the per-worker victim-selection streams
/// (same scheme as `gentrius_parallel::pool`).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xorshift64 step for victim selection.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Counts one event into a pending buffer, flushing (and charging flush
/// cost into `*extra_cost`) whenever a batching threshold is crossed —
/// the virtual analogue of `LocalCounters`.
fn record(
    ev: StepEvent,
    pending: &mut RunStats,
    flush: &FlushThresholds,
    counters: &mut Counters,
    extra_cost: &mut u64,
    cost: CostModel,
) {
    match ev {
        StepEvent::Entered => pending.intermediate_states += 1,
        StepEvent::StandTree => pending.stand_trees += 1,
        StepEvent::DeadEnd => {
            pending.intermediate_states += 1;
            pending.dead_ends += 1;
        }
        StepEvent::Backtracked | StepEvent::Finished => return,
    }
    if pending.stand_trees >= flush.stand_trees
        || pending.intermediate_states >= flush.intermediate_states
        || pending.dead_ends >= flush.dead_ends
    {
        counters.flush(pending);
        *extra_cost += cost.flush;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gentrius_core::driver::run_serial;
    use gentrius_core::sink::CountOnly;
    use phylo::newick::parse_forest;

    fn problem(newicks: &[&str]) -> StandProblem {
        let (_, trees) = parse_forest(newicks.iter().copied()).unwrap();
        StandProblem::from_constraints(trees).unwrap()
    }

    #[test]
    fn sim_counts_match_real_serial() {
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));", "((C,F),(H,I));"]);
        let real = run_serial(&p, &GentriusConfig::exhaustive(), &mut CountOnly).unwrap();
        for threads in [1, 2, 4, 16] {
            let r = simulate(
                &p,
                &GentriusConfig::exhaustive(),
                &SimConfig::with_threads(threads),
            )
            .unwrap();
            assert!(r.complete());
            assert_eq!(r.stats, real.stats, "threads={threads}");
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));", "((C,F),(H,I));"]);
        let a = simulate(
            &p,
            &GentriusConfig::exhaustive(),
            &SimConfig::with_threads(4),
        )
        .unwrap();
        let b = simulate(
            &p,
            &GentriusConfig::exhaustive(),
            &SimConfig::with_threads(4),
        )
        .unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.busy, b.busy);
        assert_eq!(a.tasks_stolen, b.tasks_stolen);
    }

    #[test]
    fn more_threads_do_not_slow_down_ideal_machine() {
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));", "((C,F),(H,I));"]);
        let mut cfgs: Vec<SimConfig> = [1usize, 2, 4, 8]
            .iter()
            .map(|&t| {
                let mut c = SimConfig::with_threads(t);
                c.cost = CostModel::ideal();
                c
            })
            .collect();
        cfgs[0].stealing = false;
        let times: Vec<u64> = cfgs
            .iter()
            .map(|c| {
                simulate(&p, &GentriusConfig::exhaustive(), c)
                    .unwrap()
                    .makespan
            })
            .collect();
        for pair in times.windows(2) {
            assert!(pair[1] <= pair[0], "makespans not monotone: {times:?}");
        }
        // And real speedup is achieved at 4 threads on this instance.
        let s = times[0] as f64 / times[2] as f64;
        assert!(
            s > 1.5,
            "expected >1.5x at 4 threads, got {s:.2} ({times:?})"
        );
    }

    #[test]
    fn stealing_beats_static_split_on_unbalanced_instances() {
        // The second constraint pins most of the work under few branches;
        // static split strands threads on tiny subtrees.
        let p = problem(&[
            "(((A,B),(C,D)),(E,F));",
            "((A,G),(H,(I,(J,K))));",
            "((C,L),(M,B));",
        ]);
        let mut steal = SimConfig::with_threads(8);
        steal.cost = CostModel::ideal();
        let mut stat = steal.clone();
        stat.stealing = false;
        let r_steal = simulate(&p, &GentriusConfig::exhaustive(), &steal).unwrap();
        let r_static = simulate(&p, &GentriusConfig::exhaustive(), &stat).unwrap();
        assert_eq!(r_steal.stats, r_static.stats);
        assert!(
            r_steal.makespan <= r_static.makespan,
            "stealing {} vs static {}",
            r_steal.makespan,
            r_static.makespan
        );
    }

    #[test]
    fn results_invariant_under_victim_seed() {
        // The victim-selection policy may reshuffle who executes what (and
        // thus the makespan), but the enumerated stand is a set: exact
        // totals must not depend on the steal order.
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));", "((C,F),(H,I));"]);
        let base = simulate(
            &p,
            &GentriusConfig::exhaustive(),
            &SimConfig::with_threads(4),
        )
        .unwrap();
        let mut total_steals = 0u64;
        for seed in [1u64, 7, 42, 12345] {
            let mut cfg = SimConfig::with_threads(4);
            cfg.victim_seed = seed;
            let r = simulate(&p, &GentriusConfig::exhaustive(), &cfg).unwrap();
            assert_eq!(r.stats, base.stats, "seed={seed}");
            assert!(r.complete());
            assert_eq!(r.steals.len(), 4);
            total_steals += r.steals.iter().sum::<u64>();
        }
        // Work moved between workers in at least one of the runs.
        assert!(total_steals > 0, "no steal traffic across any seed");
    }

    #[test]
    fn steals_are_zero_without_stealing() {
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));", "((C,F),(H,I));"]);
        let mut cfg = SimConfig::with_threads(4);
        cfg.stealing = false;
        let r = simulate(&p, &GentriusConfig::exhaustive(), &cfg).unwrap();
        assert_eq!(r.steals, vec![0, 0, 0, 0]);
        assert_eq!(r.tasks_stolen, 0);
    }

    #[test]
    fn virtual_time_limit_fires() {
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));", "((C,F),(H,I));"]);
        let mut cfg = SimConfig::with_threads(2);
        cfg.max_ticks = Some(10);
        let r = simulate(&p, &GentriusConfig::exhaustive(), &cfg).unwrap();
        assert_eq!(r.stop, Some(StopCause::TimeLimit));
        assert!(r.makespan <= 11);
    }

    #[test]
    fn tree_limit_respects_flush_granularity() {
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));", "((C,F),(H,I));"]);
        let full = simulate(
            &p,
            &GentriusConfig::exhaustive(),
            &SimConfig::with_threads(2),
        )
        .unwrap();
        assert!(full.stats.stand_trees > 100);
        let cfg = GentriusConfig {
            stopping: gentrius_core::StoppingRules::counts(100, u64::MAX),
            ..GentriusConfig::default()
        };
        let mut sc = SimConfig::with_threads(2);
        sc.flush = FlushThresholds::unbatched();
        let r = simulate(&p, &cfg, &sc).unwrap();
        assert_eq!(r.stop, Some(StopCause::StandTreeLimit));
        assert!(r.stats.stand_trees >= 100);
        assert!(r.stats.stand_trees <= 102); // tight with unbatched flushes
    }

    #[test]
    fn timeline_matches_busy_accounting() {
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));", "((C,F),(H,I));"]);
        let mut cfg = SimConfig::with_threads(4);
        cfg.trace = true;
        let r = simulate(&p, &GentriusConfig::exhaustive(), &cfg).unwrap();
        let tl = r.timeline.as_ref().expect("trace was requested");
        assert_eq!(tl.workers.len(), 4);
        // Every segment fits inside the run and segments don't overlap
        // within a worker.
        for segs in &tl.workers {
            for s in segs {
                assert!(s.start < s.end);
                assert!(s.end <= r.makespan + 1);
            }
            for w in segs.windows(2) {
                assert!(w[0].end <= w[1].start, "overlapping segments");
            }
        }
        // Rendering produces one row per worker.
        let rendered = tl.render(r.makespan, 40);
        assert_eq!(rendered.lines().count(), 4);
        // Untraced runs carry no timeline.
        let r2 = simulate(
            &p,
            &GentriusConfig::exhaustive(),
            &SimConfig::with_threads(4),
        )
        .unwrap();
        assert!(r2.timeline.is_none());
        assert_eq!(r2.stats, r.stats);
    }

    #[test]
    fn stragglers_are_absorbed_by_stealing() {
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));", "((C,F),(H,I));"]);
        // Worker 0 runs at half speed among 4 workers.
        let periods = vec![2u64, 1, 1, 1];
        let mut steal = SimConfig::with_threads(4);
        steal.cost = CostModel::ideal();
        steal.speed_periods = Some(periods.clone());
        let mut stat = steal.clone();
        stat.stealing = false;
        let rs = simulate(&p, &GentriusConfig::exhaustive(), &steal).unwrap();
        let rt = simulate(&p, &GentriusConfig::exhaustive(), &stat).unwrap();
        assert_eq!(rs.stats, rt.stats);
        assert!(
            rs.makespan <= rt.makespan,
            "stealing {} vs static {}",
            rs.makespan,
            rt.makespan
        );
        // The homogeneous run is a lower bound for both.
        let mut homo = SimConfig::with_threads(4);
        homo.cost = CostModel::ideal();
        let rh = simulate(&p, &GentriusConfig::exhaustive(), &homo).unwrap();
        assert!(rh.makespan <= rs.makespan);
    }

    #[test]
    fn busy_ticks_partition_roughly_evenly_with_stealing() {
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));", "((C,F),(H,I));"]);
        let mut cfg = SimConfig::with_threads(4);
        cfg.cost = CostModel::ideal();
        let r = simulate(&p, &GentriusConfig::exhaustive(), &cfg).unwrap();
        let max = *r.busy.iter().max().unwrap() as f64;
        let min = *r.busy.iter().min().unwrap() as f64;
        assert!(min > 0.0);
        assert!(max / min < 3.0, "imbalance too high: {:?}", r.busy);
    }
}
