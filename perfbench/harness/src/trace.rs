//! The traced pass: calls each layer's public functions in-process on the
//! very Newick files handed to the binary and times them from outside.
//!
//! The workload (`--workload`) selects the phases. Each is a span tagged
//! with its layer:
//!
//! * setup — `parse_forest`, `StandProblem::from_constraints` and
//!   `initial_tree_index`, repeated and reported as medians;
//! * kernel — `Explorer::step` driven to completion (or to the input's
//!   count limit) and classified by `StepEvent`, with sink time subtracted;
//!   on `parallel-count` also `SearchState::snapshot` /
//!   `SearchState::resume` on sampled split-eligible states (snapshot
//!   layer), and on `serial-deadend` a second pass under
//!   `MappingMode::Recompute` (the paper's mapping-upkeep check);
//! * scheduler (`parallel-count`) — `run_parallel_with_sinks` with
//!   `ParallelConfig::trace`;
//! * emission and checkpoint (`stand-roundtrip`) — a serial pass through
//!   `Encoder::encode` + `ContainerWriter::push_code` checked byte for byte
//!   against `ContainerSink`, then the checkpointed write through
//!   `run_parallel_epoch` with timed per-worker sinks, `Checkpoint::
//!   write_atomic`, `merge_segments`, and the read side through
//!   `Container::open` and `for_each_newick`.

use crate::inputs::{self, Digest, Input};
use crate::spans::Tracer;
use crate::{stop_name, Args};
use gentrius_core::explore::{Explorer, StepEvent};
use gentrius_core::state::SearchState;
use gentrius_core::{
    run_serial, BatchingSink, CountOnly, GentriusConfig, MappingMode, RunStats, StandProblem,
    StandSink, StopCause,
};
use gentrius_parallel::{
    run_parallel_epoch, run_parallel_with_sinks, ParallelConfig, ParallelRunResult, ResumeFrontier,
    Task,
};
use gentrius_standfile::ckpt::{problem_hash, Checkpoint, CkptTask};
use gentrius_standfile::container::{merge_segments, Container, ContainerWriter};
use gentrius_standfile::ContainerSink;
use phylo::newick::{parse_forest, to_newick};
use phylo::phylo2vec::{self, Encoder};
use phylo::taxa::TaxonId;
use phylo::tree::Tree;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Checkpoint cadence of `stand-roundtrip`, in seconds. `perfbench-harness
/// params` prints it, so the binary runs at the same cadence.
pub const CKPT_EVERY_S: f64 = 1.0;

/// Every this many entered states (with at least three taxa left), the
/// `parallel-count` kernel pass samples a snapshot and a resume.
const SNAPSHOT_EVERY: u64 = 64;

/// The phases of the traced pass on one workload, beyond setup and kernel.
struct Phases {
    snapshot_every: u64,
    mapping_check: bool,
    scheduler: bool,
    roundtrip: bool,
}

impl Phases {
    fn of(workload: &str) -> Result<Phases, String> {
        let none = Phases {
            snapshot_every: 0,
            mapping_check: false,
            scheduler: false,
            roundtrip: false,
        };
        match workload {
            "serial-deadend" => Ok(Phases {
                mapping_check: true,
                ..none
            }),
            "parallel-count" => Ok(Phases {
                snapshot_every: SNAPSHOT_EVERY,
                scheduler: true,
                ..none
            }),
            "stand-roundtrip" => Ok(Phases {
                roundtrip: true,
                ..none
            }),
            other => Err(format!("unknown workload '{other}'")),
        }
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// A benchmark input as passed on the command line:
/// `NAME:PATH:MAX_TREES:MAX_STATES`.
struct Spec {
    name: String,
    path: PathBuf,
    max_trees: u64,
    max_states: u64,
}

impl Spec {
    fn parse(s: &str) -> Result<Spec, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let [name, path, trees, states] = parts[..] else {
            return Err(format!(
                "--input '{s}': expected NAME:PATH:MAX_TREES:MAX_STATES"
            ));
        };
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("--input '{s}': bad '{v}'"))
        };
        Ok(Spec {
            name: name.to_string(),
            path: PathBuf::from(path),
            max_trees: num(trees)?,
            max_states: num(states)?,
        })
    }

    fn config(&self) -> GentriusConfig {
        inputs::config(self.max_trees, self.max_states)
    }
}

/// Forwards to `inner` and accumulates the time spent in it.
struct TimedSink<S> {
    inner: S,
    ns: u64,
    trees: u64,
}

impl<S> TimedSink<S> {
    fn new(inner: S) -> Self {
        TimedSink {
            inner,
            ns: 0,
            trees: 0,
        }
    }
}

impl<S: StandSink> StandSink for TimedSink<S> {
    fn stand_tree(&mut self, tree: &Tree) {
        let t = Instant::now();
        self.inner.stand_tree(tree);
        self.ns += ns(t.elapsed());
        self.trees += 1;
    }
}

/// Per-step tallies of one kernel pass.
#[derive(Default)]
struct Kernel {
    entered: u64,
    dead_ends: u64,
    stand_trees: u64,
    backtracks: u64,
    entered_ns: u64,
    dead_end_ns: u64,
    stand_tree_ns: u64,
    backtrack_ns: u64,
    other_ns: u64,
    snapshot_ns: u64,
    resume_ns: u64,
    samples: u64,
}

impl Kernel {
    fn self_ns(&self) -> u64 {
        self.entered_ns + self.dead_end_ns + self.stand_tree_ns + self.backtrack_ns + self.other_ns
    }

    fn add(&mut self, o: &Kernel) {
        self.entered += o.entered;
        self.dead_ends += o.dead_ends;
        self.stand_trees += o.stand_trees;
        self.backtracks += o.backtracks;
        self.entered_ns += o.entered_ns;
        self.dead_end_ns += o.dead_end_ns;
        self.stand_tree_ns += o.stand_tree_ns;
        self.backtrack_ns += o.backtrack_ns;
        self.other_ns += o.other_ns;
        self.snapshot_ns += o.snapshot_ns;
        self.resume_ns += o.resume_ns;
        self.samples += o.samples;
    }

    fn states(&self) -> u64 {
        self.entered + self.dead_ends
    }
}

/// Drives `Explorer::step` exactly as `run_serial` does (same root check,
/// same stopping-rule checks), timing every step. Every `snapshot_every`-th
/// entered state with at least three taxa left (where the engine may
/// split) is snapshotted and resumed, outside the step timings.
fn kernel_pass(
    problem: &StandProblem,
    config: &GentriusConfig,
    snapshot_every: u64,
) -> Result<(Kernel, RunStats, Option<StopCause>), String> {
    let mut k = Kernel::default();
    let mut stats = RunStats::new();
    let initial = problem
        .initial_tree_index(&config.initial_tree)
        .map_err(|e| e.to_string())?;
    let agile0 = &problem.constraints()[initial];
    if problem
        .constraints()
        .iter()
        .any(|c| !phylo::ops::compatible(agile0, c))
    {
        return Ok((k, stats, None));
    }
    let mut state =
        SearchState::new(problem, initial, &config.taxon_order).map_err(|e| e.to_string())?;
    state.enable_mapping(config.mapping);
    let mut ex = Explorer::new_root(state);
    let mut sink = TimedSink::new(CountOnly);
    let mut stop = None;
    loop {
        let before = sink.ns;
        let t = Instant::now();
        let ev = ex.step(&mut sink);
        let dt = ns(t.elapsed()).saturating_sub(sink.ns - before);
        match ev {
            StepEvent::Entered => {
                k.entered += 1;
                k.entered_ns += dt;
                stats.intermediate_states += 1;
                if snapshot_every > 0
                    && k.entered.is_multiple_of(snapshot_every)
                    && ex.state().remaining_count() >= 3
                {
                    let t = Instant::now();
                    let snap = black_box(ex.state().snapshot());
                    k.snapshot_ns += ns(t.elapsed());
                    let t = Instant::now();
                    let resumed = black_box(SearchState::resume(problem, snap));
                    k.resume_ns += ns(t.elapsed());
                    drop(resumed);
                    k.samples += 1;
                }
            }
            StepEvent::StandTree => {
                k.stand_trees += 1;
                k.stand_tree_ns += dt;
                stats.stand_trees += 1;
            }
            StepEvent::DeadEnd => {
                k.dead_ends += 1;
                k.dead_end_ns += dt;
                stats.intermediate_states += 1;
                stats.dead_ends += 1;
            }
            StepEvent::Backtracked => {
                k.backtracks += 1;
                k.backtrack_ns += dt;
            }
            StepEvent::Finished => {
                k.other_ns += dt;
                break;
            }
        }
        if config
            .stopping
            .max_stand_trees
            .is_some_and(|m| stats.stand_trees >= m)
        {
            stop = Some(StopCause::StandTreeLimit);
            break;
        }
        if config
            .stopping
            .max_intermediate_states
            .is_some_and(|m| stats.intermediate_states >= m)
        {
            stop = Some(StopCause::StateLimit);
            break;
        }
    }
    Ok((k, stats, stop))
}

/// Scheduler tallies summed over engine runs.
#[derive(Default)]
struct Engine {
    runs: u64,
    busy_s: f64,
    capacity_s: f64,
    tasks: u64,
    splits: u64,
    steals: u64,
    failed_steals: u64,
    parks: u64,
    deque_grows: u64,
    imbalance: f64,
    prefix_states: u64,
    overshoot: u64,
    ticks: u64,
    dropped: u64,
}

impl Engine {
    fn add(&mut self, r: &ParallelRunResult, overshoot: u64) {
        self.runs += 1;
        self.busy_s += r
            .workers
            .iter()
            .flat_map(|w| w.spans.iter())
            .map(|s| s.end - s.start)
            .sum::<f64>();
        self.capacity_s += r.threads as f64 * r.elapsed.as_secs_f64();
        let s = &r.scheduler;
        self.tasks += s.executed;
        self.splits += s.splits;
        self.steals += s.steals;
        self.failed_steals += s.failed_steals;
        self.parks += s.parks;
        self.deque_grows += s.deque_grows;
        let events: Vec<f64> = r
            .workers
            .iter()
            .map(|w| (w.stats.stand_trees + w.stats.intermediate_states) as f64)
            .collect();
        let mean = events.iter().sum::<f64>() / events.len().max(1) as f64;
        let max = events.iter().cloned().fold(0.0, f64::max);
        self.imbalance = self.imbalance.max(ratio(max, mean));
        self.prefix_states += r.prefix.intermediate_states;
        self.overshoot += overshoot;
        self.ticks += r.monitor.ticks;
        self.dropped += r.monitor.dropped_heartbeats;
    }

    fn idle_s(&self) -> f64 {
        (self.capacity_s - self.busy_s).max(0.0)
    }
}

/// Counters of one input on one leg, for the cross-check against the binary.
struct Counted {
    name: String,
    leg: &'static str,
    stats: RunStats,
    stop: Option<StopCause>,
}

fn overshoot(stats: &RunStats, stop: Option<StopCause>, spec: &Spec) -> u64 {
    match stop {
        Some(StopCause::StandTreeLimit) => stats.stand_trees.saturating_sub(spec.max_trees),
        Some(StopCause::StateLimit) => stats.intermediate_states.saturating_sub(spec.max_states),
        _ => 0,
    }
}

/// Serializes a checkpoint the way `gentrius stand` does.
fn checkpoint(
    input: &Input,
    config: &GentriusConfig,
    r: &ParallelRunResult,
    generation: u64,
    output: &Path,
    segments: &[PathBuf],
    tasks: &[Task],
) -> Checkpoint {
    let taxa: Vec<String> = input.taxa.iter().map(|(_, n)| n.to_string()).collect();
    let constraints: Vec<String> = input
        .problem
        .constraints()
        .iter()
        .map(|t| to_newick(t, &input.taxa))
        .collect();
    Checkpoint {
        problem_hash: problem_hash(&taxa, &constraints),
        mapping: config.mapping,
        order_code: tasks.first().map(|t| t.snapshot.order_code()).unwrap_or(0),
        threads: r.threads,
        initial_tree: r.initial_tree,
        stopping: config.stopping.clone(),
        stats: r.stats,
        generation,
        output: output.display().to_string(),
        taxa,
        constraints,
        segments: segments.iter().map(|p| p.display().to_string()).collect(),
        tasks: tasks
            .iter()
            .map(|t| CkptTask {
                taxon: t.taxon.0,
                branches: t.branches.iter().map(|e| e.0).collect(),
                depth: t.depth as u64,
                remaining: t.snapshot.remaining().iter().map(|x| x.0).collect(),
                tree: t.snapshot.agile().dump_arena(),
            })
            .collect(),
    }
}

/// Emission and checkpoint tallies of the round trip.
#[derive(Default)]
struct RoundTrip {
    serial_trees: u64,
    encode_ns: u64,
    push_ns: u64,
    sink_ns: u64,
    sink_trees: u64,
    merge_s: f64,
    bytes: u64,
    trees: u64,
    epochs: u64,
    pause_s: f64,
    write_s: f64,
    ckpt_bytes: u64,
    ckpt_files: u64,
    frontier_tasks: u64,
    open_s: f64,
    read_s: f64,
    decode_ns: u64,
    pass_wall_s: f64,
    digest: Digest,
}

/// Serial pass through `Encoder::encode` + `ContainerWriter::push_code`,
/// timed separately; a second serial pass through `ContainerSink` must
/// produce a byte-identical container.
fn encode_split(
    t: &mut Tracer,
    input: &Input,
    config: &GentriusConfig,
    dir: &Path,
    rt: &mut RoundTrip,
) -> Result<(), String> {
    struct Direct {
        enc: Encoder,
        writer: ContainerWriter,
        encode_ns: u64,
        push_ns: u64,
        err: Option<String>,
    }
    impl StandSink for Direct {
        fn stand_tree(&mut self, tree: &Tree) {
            if self.err.is_some() {
                return;
            }
            let t0 = Instant::now();
            let code = self.enc.encode(tree);
            let t1 = Instant::now();
            let pushed = code.map_err(|e| e.to_string()).and_then(|tv| {
                self.writer
                    .push_code(&black_box(tv).code)
                    .map_err(|e| e.to_string())
            });
            self.encode_ns += ns(t1 - t0);
            self.push_ns += ns(t1.elapsed());
            if let Err(e) = pushed {
                self.err = Some(e);
            }
        }
    }
    let direct_path = dir.join("split-direct.stand");
    let sink_path = dir.join("split-sink.stand");
    t.span("serial encode/push split", Some("emission"), |_| {
        let mut d = Direct {
            enc: Encoder::new(),
            writer: ContainerWriter::create(&direct_path, &input.taxa)
                .map_err(|e| e.to_string())?,
            encode_ns: 0,
            push_ns: 0,
            err: None,
        };
        let r = run_serial(&input.problem, config, &mut d).map_err(|e| e.to_string())?;
        if let Some(e) = d.err {
            return Err(e);
        }
        d.writer.finish().map_err(|e| e.to_string())?;
        rt.serial_trees += r.stats.stand_trees;
        rt.encode_ns += d.encode_ns;
        rt.push_ns += d.push_ns;
        Ok(())
    })?;
    t.span("serial ContainerSink pass", Some("emission"), |_| {
        let mut sink = ContainerSink::create(&sink_path, &input.taxa);
        run_serial(&input.problem, config, &mut sink).map_err(|e| e.to_string())?;
        sink.finish().map_err(|e| e.to_string()).map(|_| ())
    })?;
    let a = std::fs::read(&direct_path).map_err(|e| e.to_string())?;
    let b = std::fs::read(&sink_path).map_err(|e| e.to_string())?;
    if a != b {
        return Err("direct encode/push container differs from ContainerSink's".into());
    }
    for p in [&direct_path, &sink_path] {
        std::fs::remove_file(p).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The checkpointed parallel write (what `gentrius stand --output X.stand
/// --checkpoint-every S` does), then the full read back.
#[allow(clippy::too_many_arguments)]
fn write_and_read(
    t: &mut Tracer,
    spec: &Spec,
    input: &Input,
    threads: usize,
    dir: &Path,
    rt: &mut RoundTrip,
    engine: &mut Engine,
    counted: &mut Vec<Counted>,
) -> Result<(), String> {
    let config = spec.config();
    let out = dir.join("roundtrip.stand");
    let ckpt_path = dir.join("roundtrip.standckpt");
    let mut segments: Vec<PathBuf> = Vec::new();
    let mut frontier: Option<Vec<Task>> = None;
    let mut base = RunStats::new();
    let mut gen = 0u64;
    let pass = Instant::now();
    loop {
        let mut pcfg = ParallelConfig::with_threads(threads);
        pcfg.trace = true;
        if let Some(m) = &mut pcfg.monitor {
            m.checkpoint_every = Some(Duration::from_secs_f64(CKPT_EVERY_S));
        }
        let g = gen;
        let seg = |i: usize| dir.join(format!("roundtrip.stand.g{g}.seg{i}"));
        let resume = frontier.take().map(|tasks| ResumeFrontier { tasks, base });
        let (r, sinks, captured) = t.span(format!("epoch {gen}"), Some("scheduler"), |_| {
            run_parallel_epoch(
                &input.problem,
                &config,
                &pcfg,
                |i| {
                    BatchingSink::new(
                        TimedSink::new(ContainerSink::create(&seg(i), &input.taxa)),
                        64,
                    )
                },
                resume,
                true,
            )
            .map_err(|e| e.to_string())
        })?;
        rt.epochs += 1;
        let boundary = Instant::now();
        t.span(
            "finish segments",
            Some("emission"),
            |_| -> Result<(), String> {
                for (i, s) in sinks.into_iter().enumerate() {
                    let timed = s.into_inner();
                    rt.sink_ns += timed.ns;
                    rt.sink_trees += timed.trees;
                    let summary = timed.inner.finish().map_err(|e| e.to_string())?;
                    if summary.trees > 0 {
                        segments.push(seg(i));
                    } else {
                        std::fs::remove_file(seg(i)).map_err(|e| e.to_string())?;
                    }
                }
                Ok(())
            },
        )?;
        base = r.stats;
        let count_stop = matches!(
            r.stop,
            Some(StopCause::StandTreeLimit | StopCause::StateLimit)
        );
        if captured.is_empty() || count_stop {
            engine.add(&r, overshoot(&r.stats, r.stop, spec));
            counted.push(Counted {
                name: spec.name.clone(),
                leg: "roundtrip-write",
                stats: r.stats,
                stop: r.stop,
            });
            let m = Instant::now();
            let summary = t.span("merge_segments", Some("emission"), |_| {
                merge_segments(&out, &input.taxa, &segments).map_err(|e| e.to_string())
            })?;
            rt.merge_s += m.elapsed().as_secs_f64();
            rt.trees += summary.trees;
            break;
        }
        engine.add(&r, 0);
        gen += 1;
        let ck = checkpoint(input, &config, &r, gen, &out, &segments, &captured);
        let w = Instant::now();
        t.span("Checkpoint::write_atomic", Some("checkpoint"), |_| {
            ck.write_atomic(&ckpt_path).map_err(|e| e.to_string())
        })?;
        rt.write_s += w.elapsed().as_secs_f64();
        rt.ckpt_bytes += std::fs::metadata(&ckpt_path)
            .map_err(|e| e.to_string())?
            .len();
        rt.ckpt_files += 1;
        rt.frontier_tasks += captured.len() as u64;
        rt.pause_s += boundary.elapsed().as_secs_f64();
        frontier = Some(captured);
    }
    if ckpt_path.exists() {
        std::fs::remove_file(&ckpt_path).map_err(|e| e.to_string())?;
    }
    rt.bytes += std::fs::metadata(&out).map_err(|e| e.to_string())?.len();

    let o = Instant::now();
    let mut c = t.span("Container::open", Some("emission"), |_| {
        Container::open(&out).map_err(|e| e.to_string())
    })?;
    rt.open_s += o.elapsed().as_secs_f64();
    let rd = Instant::now();
    let digest = &mut rt.digest;
    t.span("for_each_newick", Some("emission"), |_| {
        c.for_each_newick(0, u64::MAX, |_, nwk| {
            digest.add(nwk);
            Ok(())
        })
        .map_err(|e| e.to_string())
    })?;
    rt.read_s += rd.elapsed().as_secs_f64();
    rt.pass_wall_s += pass.elapsed().as_secs_f64();

    // Decode on its own: block decoding outside, phylo2vec decode timed.
    let universe = c.taxa().len();
    let ids: Vec<TaxonId> = (0..universe as u32).map(TaxonId).collect();
    t.span(
        "phylo2vec decode",
        Some("emission"),
        |_| -> Result<(), String> {
            for i in 0..c.len() {
                let code = c.code(i).map_err(|e| e.to_string())?;
                let d = Instant::now();
                let tree = phylo2vec::decode(universe, &ids, &code).map_err(|e| e.to_string())?;
                rt.decode_ns += ns(d.elapsed());
                black_box(tree);
            }
            Ok(())
        },
    )?;
    drop(c);
    std::fs::remove_file(&out).map_err(|e| e.to_string())
}

/// The median of `v` (the upper one for an even length).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else {
        v[v.len() / 2]
    }
}

pub fn cmd_trace(a: &Args) -> Result<String, String> {
    let threads: usize = a.parsed("threads", 1)?;
    let dir = PathBuf::from(a.req("workdir")?);
    let Phases {
        snapshot_every,
        mapping_check,
        scheduler,
        roundtrip,
    } = Phases::of(a.req("workload")?)?;
    let specs: Vec<Spec> = a
        .all("input")
        .iter()
        .map(|s| Spec::parse(s))
        .collect::<Result<_, _>>()?;
    if specs.is_empty() {
        return Err("trace needs at least one --input".into());
    }

    let mut t = Tracer::new();
    let root = t.begin("traced pass", None);

    // Setup layer: the binary's load path, step by step.
    const REPS: usize = 5;
    let (mut parse, mut build, mut initial) = (Vec::new(), Vec::new(), Vec::new());
    let mut loaded: Vec<Input> = Vec::new();
    t.span("setup", None, |t| -> Result<(), String> {
        for rep in 0..REPS {
            let (mut p_s, mut b_s, mut i_s) = (0.0, 0.0, 0.0);
            for spec in &specs {
                let (taxa, trees) = t.span("parse_forest", Some("setup"), |_| {
                    let s = Instant::now();
                    let text = std::fs::read_to_string(&spec.path)
                        .map_err(|e| format!("{}: {e}", spec.path.display()))?;
                    let r = parse_forest(text.lines()).map_err(|e| e.to_string());
                    p_s += s.elapsed().as_secs_f64();
                    r
                })?;
                let problem = t.span("StandProblem::from_constraints", Some("setup"), |_| {
                    let s = Instant::now();
                    let r = StandProblem::from_constraints(trees).map_err(|e| e.to_string());
                    b_s += s.elapsed().as_secs_f64();
                    r
                })?;
                t.span("initial_tree_index", Some("setup"), |_| {
                    let s = Instant::now();
                    let r = problem.initial_tree_index(&spec.config().initial_tree);
                    i_s += s.elapsed().as_secs_f64();
                    r.map_err(|e| e.to_string())
                })?;
                if rep == 0 {
                    loaded.push(Input { taxa, problem });
                }
            }
            parse.push(p_s);
            build.push(b_s);
            initial.push(i_s);
        }
        Ok(())
    })?;

    // Kernel layer (and sampled snapshots), per input.
    let mut kernel = Kernel::default();
    let mut per_input: Vec<(String, Kernel)> = Vec::new();
    let mut counted: Vec<Counted> = Vec::new();
    let kernel_start = Instant::now();
    for (spec, input) in specs.iter().zip(&loaded) {
        let id = t.begin(format!("Explorer::step loop {}", spec.name), Some("kernel"));
        let (k, stats, stop) = kernel_pass(&input.problem, &spec.config(), snapshot_every)?;
        t.add_extra(id, "snapshot", k.snapshot_ns + k.resume_ns);
        t.end(id);
        kernel.add(&k);
        per_input.push((spec.name.clone(), k));
        counted.push(Counted {
            name: spec.name.clone(),
            leg: "kernel",
            stats,
            stop,
        });
    }
    let kernel_wall_s = kernel_start.elapsed().as_secs_f64();

    // The paper's mapping-upkeep check: the same kernel under Recompute.
    let mut recompute = Kernel::default();
    if mapping_check {
        for (spec, input) in specs.iter().zip(&loaded) {
            let mut cfg = spec.config();
            cfg.mapping = MappingMode::Recompute;
            let (k, stats, stop) = t.span(
                format!("Explorer::step loop {} (recompute)", spec.name),
                Some("kernel"),
                |_| kernel_pass(&input.problem, &cfg, 0),
            )?;
            recompute.add(&k);
            counted.push(Counted {
                name: spec.name.clone(),
                leg: "kernel-recompute",
                stats,
                stop,
            });
        }
    }

    // Scheduler layer.
    let mut engine = Engine::default();
    let mut engine_wall_s = 0.0;
    if scheduler {
        for (spec, input) in specs.iter().zip(&loaded) {
            let mut pcfg = ParallelConfig::with_threads(threads);
            pcfg.trace = true;
            let s = Instant::now();
            let (r, _) = t.span(
                format!("run_parallel_with_sinks {}", spec.name),
                Some("scheduler"),
                |_| {
                    run_parallel_with_sinks(&input.problem, &spec.config(), &pcfg, |_| {
                        TimedSink::new(CountOnly)
                    })
                    .map_err(|e| e.to_string())
                },
            )?;
            engine_wall_s += s.elapsed().as_secs_f64();
            engine.add(&r, overshoot(&r.stats, r.stop, spec));
            counted.push(Counted {
                name: spec.name.clone(),
                leg: "engine",
                stats: r.stats,
                stop: r.stop,
            });
        }
    }

    // Emission and checkpoint layers.
    let mut rt = RoundTrip::default();
    if roundtrip {
        for (spec, input) in specs.iter().zip(&loaded) {
            encode_split(&mut t, input, &spec.config(), &dir, &mut rt)?;
            write_and_read(
                &mut t,
                spec,
                input,
                threads,
                &dir,
                &mut rt,
                &mut engine,
                &mut counted,
            )?;
        }
    }
    t.end(root);

    // ------------------------------------------------------------------
    // Metrics.
    // ------------------------------------------------------------------
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("problem.parse_s", median(parse));
    m.insert("problem.build_s", median(build));
    m.insert("problem.initial_tree_s", median(initial));
    let per = |total: u64, n: u64| ratio(total as f64, n as f64);
    // A mean over no events is not a measurement: the metric is left out.
    let mut mean = |name: &'static str, total: u64, n: u64| {
        if n > 0 {
            m.insert(name, total as f64 / n as f64);
        }
    };
    mean("explore.entered_ns", kernel.entered_ns, kernel.entered);
    mean("explore.dead_end_ns", kernel.dead_end_ns, kernel.dead_ends);
    mean(
        "explore.stand_tree_ns",
        kernel.stand_tree_ns,
        kernel.stand_trees,
    );
    mean(
        "explore.backtrack_ns",
        kernel.backtrack_ns,
        kernel.backtracks,
    );
    mean("state.snapshot_ns", kernel.snapshot_ns, kernel.samples);
    mean("state.resume_ns", kernel.resume_ns, kernel.samples);
    if roundtrip {
        mean("sink.tree_ns", rt.sink_ns, rt.sink_trees);
        mean("p2v.encode_ns", rt.encode_ns, rt.serial_trees);
        mean("container.push_ns", rt.push_ns, rt.serial_trees);
        mean("container.bytes_per_tree", rt.bytes, rt.trees);
        mean("p2v.decode_ns", rt.decode_ns, rt.trees);
        mean("ckpt.bytes", rt.ckpt_bytes, rt.ckpt_files);
        mean("ckpt.frontier_tasks", rt.frontier_tasks, rt.ckpt_files);
    }
    m.insert("explore.entered", kernel.entered as f64);
    m.insert("explore.dead_ends", kernel.dead_ends as f64);
    m.insert("explore.stand_trees", kernel.stand_trees as f64);
    m.insert("explore.backtracks", kernel.backtracks as f64);
    m.insert(
        "explore.dead_end_ratio",
        per(kernel.dead_ends, kernel.states()),
    );
    m.insert("explore.kernel_self_s", kernel.self_ns() as f64 * 1e-9);
    if mapping_check {
        // Against `explore.kernel_self_s`, the same pass under EdgeIndexed.
        let rec = recompute.self_ns() as f64 * 1e-9;
        m.insert("mapping.recompute_kernel_s", rec);
        m.insert(
            "mapping.recompute_over_edge_indexed",
            ratio(rec, kernel.self_ns() as f64 * 1e-9),
        );
    }
    if engine.runs > 0 {
        m.insert("engine.busy_s", engine.busy_s);
        m.insert("engine.idle_s", engine.idle_s());
        m.insert("engine.busy_ratio", ratio(engine.busy_s, engine.capacity_s));
        m.insert("engine.tasks", engine.tasks as f64);
        m.insert("engine.splits", engine.splits as f64);
        m.insert("engine.steals", engine.steals as f64);
        m.insert(
            "engine.steal_success_ratio",
            per(engine.steals, engine.steals + engine.failed_steals),
        );
        m.insert("engine.parks", engine.parks as f64);
        m.insert("engine.deque_grows", engine.deque_grows as f64);
        m.insert("engine.imbalance", engine.imbalance);
        m.insert("engine.prefix_states", engine.prefix_states as f64);
        m.insert("engine.stop_overshoot", engine.overshoot as f64);
        m.insert("monitor.ticks", engine.ticks as f64);
        m.insert("monitor.dropped_heartbeats", engine.dropped as f64);
    }
    if roundtrip {
        m.insert("container.merge_s", rt.merge_s);
        m.insert("container.open_s", rt.open_s);
        m.insert("container.read_ns", ratio(rt.read_s * 1e9, rt.trees as f64));
        m.insert("ckpt.epochs", rt.epochs as f64);
        m.insert("ckpt.pause_s", rt.pause_s);
        m.insert("ckpt.write_s", rt.write_s);
    }
    let layers = t.layer_self_ns();
    let root_s = t.duration_s(root);
    m.insert(
        "trace.unattributed_share",
        ratio(
            layers.get(&None).copied().unwrap_or(0) as f64 * 1e-9,
            root_s,
        ),
    );
    // The traced counterpart of one binary pass, for the overhead ratio.
    let pass_wall_s = if roundtrip {
        rt.pass_wall_s
    } else if scheduler {
        engine_wall_s
    } else {
        kernel_wall_s
    };
    m.insert("trace.pass_wall_s", pass_wall_s);

    // Finding: dead-end steps against a long-runner event.
    let lr: Vec<&Kernel> = per_input
        .iter()
        .filter(|(n, _)| n.starts_with("long-runner"))
        .map(|(_, k)| k)
        .collect();
    if !lr.is_empty() && kernel.dead_ends > 0 {
        let lr_ns: u64 = lr.iter().map(|k| k.self_ns()).sum();
        let lr_events: u64 = lr.iter().map(|k| k.stand_trees + k.states()).sum();
        m.insert(
            "finding.dead_end_over_lr_event",
            ratio(
                per(kernel.dead_end_ns, kernel.dead_ends),
                per(lr_ns, lr_events),
            ),
        );
    }

    // Finding: the largest self-time layer of the round trip, in
    // thread-seconds over the write + read pipeline. Worker sink time is
    // split between encode and block write by the serial pass's shares.
    let mut pipeline: Vec<(&str, f64)> = Vec::new();
    if roundtrip {
        let sink_s = rt.sink_ns as f64 * 1e-9;
        let enc_share = ratio(rt.encode_ns as f64, (rt.encode_ns + rt.push_ns) as f64);
        let decode_s = rt.decode_ns as f64 * 1e-9;
        pipeline = vec![
            ("kernel", (engine.busy_s - sink_s).max(0.0)),
            ("scheduler.idle", engine.idle_s()),
            ("p2v.encode", sink_s * enc_share),
            ("container.push", sink_s * (1.0 - enc_share)),
            ("container.merge", rt.merge_s),
            ("checkpoint", rt.pause_s),
            ("container.open", rt.open_s),
            ("p2v.decode", decode_s.min(rt.read_s)),
            ("container.read_rest", (rt.read_s - decode_s).max(0.0)),
        ];
        let total: f64 = pipeline.iter().map(|p| p.1).sum();
        let largest = pipeline
            .iter()
            .cloned()
            .fold(("", 0.0), |a, b| if b.1 > a.1 { b } else { a });
        m.insert("finding.encode_share", ratio(sink_s * enc_share, total));
        m.insert(
            "finding.encode_largest",
            if largest.0 == "p2v.encode" { 1.0 } else { 0.0 },
        );
    }

    let spans_out = dir.join("spans.json");
    t.write_json(&spans_out).map_err(|e| e.to_string())?;

    // ------------------------------------------------------------------
    // Output: one JSON object.
    // ------------------------------------------------------------------
    let metrics: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    let counts: Vec<String> = counted
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": \"{}\", \"leg\": \"{}\", \"trees\": {}, \"states\": {}, \"dead_ends\": {}, \"stop\": \"{}\"}}",
                c.name,
                c.leg,
                c.stats.stand_trees,
                c.stats.intermediate_states,
                c.stats.dead_ends,
                stop_name(c.stop)
            )
        })
        .collect();
    let layer_s: Vec<String> = layers
        .iter()
        .map(|(k, v)| format!("\"{}\": {}", k.unwrap_or("unattributed"), *v as f64 * 1e-9))
        .collect();
    let pipe: Vec<String> = pipeline
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    Ok(format!(
        "{{\"metrics\": {{{}}}, \"counts\": [{}], \"layer_self_s\": {{{}}}, \"roundtrip_pipeline_s\": {{{}}}, \"roundtrip_lines\": {}, \"roundtrip_digest\": \"{}\", \"spans\": \"{}\"}}",
        metrics.join(", "),
        counts.join(", "),
        layer_s.join(", "),
        pipe.join(", "),
        rt.digest.lines,
        rt.digest.hex(),
        spans_out.display()
    ))
}
