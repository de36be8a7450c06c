//! `perfbench-harness`: the in-process half of the wall-clock benchmark.
//!
//! `perfbench/run.py` drives the release `gentrius` binary for the
//! end-to-end metrics and calls this program for everything that must not
//! be timed with it:
//!
//! * `gen` writes a seeded Newick input file (one constraint tree per line);
//! * `params` prints the engine settings the output checks depend on and
//!   the round trip's checkpoint cadence;
//! * `oracle` enumerates an input serially and prints its counters and an
//!   order-independent digest of the canonical stand set;
//! * `digest` prints the same digest for a file of Newick lines (the output
//!   of `gentrius stand cat`);
//! * `trace` runs the traced per-layer pass over a workload's inputs;
//! * `run` runs one benchmarked invocation and reports its wall time and
//!   peak resident memory.
//!
//! Every subcommand but `run` prints one JSON object on its last stdout
//! line; `run` writes its report to a file, since stdout is the child's.

mod inputs;
mod spans;
mod trace;

use gentrius_core::{canonical_stand_set, run_serial, CollectNewick, StopCause};
use gentrius_parallel::ParallelConfig;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

/// Flags as `--name value` pairs plus positionals.
pub struct Args {
    positional: Vec<String>,
    flags: HashMap<String, Vec<String>>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags: HashMap<String, Vec<String>> = HashMap::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let v = it
                    .next()
                    .ok_or_else(|| format!("--{name} expects a value"))?;
                flags.entry(name.to_string()).or_default().push(v.clone());
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    /// The last value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .get(name)
            .and_then(|v| v.last())
            .map(|s| s.as_str())
    }

    /// Every value of a repeatable `--name`.
    pub fn all(&self, name: &str) -> &[String] {
        self.flags.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// `--name` parsed as `T`, or `default` when absent.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse '{v}'")),
        }
    }

    /// A required `--name`.
    pub fn req(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }
}

/// Stable name of a stop cause, matching the binary's `status:` wording.
pub fn stop_name(stop: Option<StopCause>) -> &'static str {
    match stop {
        None => "complete",
        Some(StopCause::StandTreeLimit) => "tree-limit",
        Some(StopCause::StateLimit) => "state-limit",
        Some(StopCause::TimeLimit) => "time-limit",
    }
}

fn cmd_gen(a: &Args) -> Result<String, String> {
    let instance = a.req("instance")?;
    let out = a.req("out")?;
    let seed: u64 = a.parsed("seed", 0)?;
    let dataset = inputs::instance(instance)?;
    let text = inputs::newick_lines(&dataset, seed);
    std::fs::write(out, &text).map_err(|e| format!("{out}: {e}"))?;
    Ok(format!(
        "{{\"instance\": \"{instance}\", \"taxa\": {}, \"constraints\": {}}}",
        dataset.num_taxa(),
        dataset.constraints.len()
    ))
}

/// The settings the binary's parallel runs use (`ParallelConfig::
/// with_threads`), from which the overshoot bound of a capped run follows,
/// and the checkpoint cadence of the round trip.
fn cmd_params(a: &Args) -> Result<String, String> {
    let p = ParallelConfig::with_threads(a.parsed("threads", 1)?);
    Ok(format!(
        "{{\"flush_trees\": {}, \"flush_states\": {}, \"stop_poll_stride\": {}, \"checkpoint_every_s\": {}}}",
        p.flush.stand_trees,
        p.flush.intermediate_states,
        p.stop_poll_stride,
        trace::CKPT_EVERY_S
    ))
}

fn cmd_oracle(a: &Args) -> Result<String, String> {
    let file = a.req("trees")?;
    let input = inputs::load(Path::new(file))?;
    let config = inputs::config(
        a.parsed("max-trees", u64::MAX)?,
        a.parsed("max-states", u64::MAX)?,
    );
    let mut sink = CollectNewick::with_cap(&input.taxa, usize::MAX);
    let r = run_serial(&input.problem, &config, &mut sink).map_err(|e| e.to_string())?;
    let set = canonical_stand_set([sink.out]);
    let d = inputs::Digest::of_lines(set.iter().map(|s| s.as_str()));
    Ok(format!(
        "{{\"trees\": {}, \"states\": {}, \"dead_ends\": {}, \"stop\": \"{}\", \"lines\": {}, \"digest\": \"{}\"}}",
        r.stats.stand_trees,
        r.stats.intermediate_states,
        r.stats.dead_ends,
        stop_name(r.stop),
        d.lines,
        d.hex()
    ))
}

fn cmd_digest(a: &Args) -> Result<String, String> {
    let file = a
        .positional
        .get(1)
        .ok_or("digest requires a file of Newick lines")?;
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let d = inputs::Digest::of_lines(text.lines());
    Ok(format!(
        "{{\"lines\": {}, \"digest\": \"{}\"}}",
        d.lines,
        d.hex()
    ))
}

/// `run --report FILE -- PROGRAM ARGS...`: runs one benchmarked
/// invocation with inherited stdio and writes its exit code, wall time and
/// peak resident memory to FILE. The peak comes from `wait4`, and it is
/// only the child's own because the child is forked from this small
/// process: a child forked from the Python runner (`perfbench/run.py`)
/// would inherit the runner's high-water mark.
fn cmd_run(raw: &[String]) -> Result<String, String> {
    let [_, flag, report, sep, program, rest @ ..] = raw else {
        return Err("usage: run --report FILE -- PROGRAM [ARGS...]".into());
    };
    if flag != "--report" || sep != "--" {
        return Err("usage: run --report FILE -- PROGRAM [ARGS...]".into());
    }
    let start = std::time::Instant::now();
    let child = std::process::Command::new(program)
        .args(rest)
        .spawn()
        .map_err(|e| format!("{program}: {e}"))?;
    let (status, maxrss_kb) = wait::wait4(child.id())?;
    let wall_s = start.elapsed().as_secs_f64();
    let line = format!("{{\"code\": {status}, \"wall_s\": {wall_s}, \"maxrss_kb\": {maxrss_kb}}}");
    std::fs::write(report, &line).map_err(|e| format!("{report}: {e}"))?;
    Ok(line)
}

mod wait {
    //! `wait4(2)` through the C library, for the child's resource usage.

    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals and fourteen longs,
    /// of which the first is `ru_maxrss` in KiB.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }

    extern "C" {
        #[link_name = "wait4"]
        fn c_wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }

    /// Waits for child `pid`; returns its exit code (128 + signal if it
    /// was killed) and its peak resident memory in KiB.
    pub fn wait4(pid: u32) -> Result<(i32, i64), String> {
        let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
        let mut status = 0i32;
        let mut usage = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `status` and `usage` are live, writable locals whose
        // layouts match `int` and the 64-bit Linux `struct rusage`;
        // `wait4` writes only through these two pointers.
        let r = unsafe { c_wait4(pid, &mut status, 0, &mut usage) };
        if r != pid {
            return Err(format!(
                "wait4({pid}) failed: {}",
                std::io::Error::last_os_error()
            ));
        }
        let code = if status & 0x7f == 0 {
            (status >> 8) & 0xff
        } else {
            128 + (status & 0x7f)
        };
        Ok((code, usage.maxrss))
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(|s| s.as_str()) == Some("run") {
        // Reports go to the file: stdout belongs to the child.
        return match cmd_run(&raw) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = Args::parse(&raw).and_then(|a| match a.positional.first().map(|s| s.as_str()) {
        Some("gen") => cmd_gen(&a),
        Some("params") => cmd_params(&a),
        Some("oracle") => cmd_oracle(&a),
        Some("digest") => cmd_digest(&a),
        Some("trace") => trace::cmd_trace(&a),
        _ => Err(
            "usage: perfbench-harness gen|params|oracle|digest|trace|run [--flag value ...]".into(),
        ),
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
