//! Global atomic counters with per-thread batched flushing (§III-B).
//!
//! The paper protects the stand-tree / intermediate-state / dead-end
//! counters with `std::atomic` and, to avoid contention at high thread
//! counts, lets each thread update the globals only every 2^10 stand trees,
//! 2^13 states and 2^10 dead ends respectively (empirically tuned there to
//! a 2–5% speedup at 16 threads). Each flush also evaluates the stopping
//! rules and, if one fires, raises a global stop flag that all workers poll.
//!
//! Overshoot semantics differ per rule class, and the distinction matters:
//!
//! * the two **count limits** (rules 1–2) can only be overshot by work that
//!   was already performed before the deciding flush — at most one batch
//!   per thread, as in the paper; the final counts are exact for the work
//!   actually done;
//! * the **wall-clock limit** (rule 3) is *not* safely enforceable from
//!   flushes alone: a run whose workers are parked on the idle condvar, or
//!   progressing below every flush threshold, never reaches
//!   [`GlobalCounters::add_and_check`] and would overshoot `max_time`
//!   without bound. The flush-path clock check below is therefore only a
//!   fast path; the authoritative enforcement is the engine's run monitor
//!   ([`crate::obs::monitor`]), which re-examines the clock every tick and
//!   wakes parked workers when it raises the stop.

use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use gentrius_core::config::{StopCause, StoppingRules};
use gentrius_core::stats::RunStats;
use std::time::Instant;

/// Flush thresholds for the three local counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushThresholds {
    /// Stand trees per flush (paper: 2^10).
    pub stand_trees: u64,
    /// Intermediate states per flush (paper: 2^13).
    pub intermediate_states: u64,
    /// Dead ends per flush (paper: 2^10).
    pub dead_ends: u64,
}

impl FlushThresholds {
    /// The paper's empirically determined values.
    pub fn paper_defaults() -> Self {
        FlushThresholds {
            stand_trees: 1 << 10,
            intermediate_states: 1 << 13,
            dead_ends: 1 << 10,
        }
    }

    /// Flush on every increment — the unbatched baseline of the §III-B
    /// ablation, and the single-worker setting (no contention to avoid,
    /// so the count limits stop exactly).
    pub fn unbatched() -> Self {
        FlushThresholds {
            stand_trees: 1,
            intermediate_states: 1,
            dead_ends: 1,
        }
    }
}

impl Default for FlushThresholds {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

const CAUSE_NONE: u8 = 0;
const CAUSE_TREES: u8 = 1;
const CAUSE_STATES: u8 = 2;
const CAUSE_TIME: u8 = 3;

/// The shared counters, stop flag and stopping rules.
pub struct GlobalCounters {
    stand_trees: AtomicU64,
    intermediate_states: AtomicU64,
    dead_ends: AtomicU64,
    stop: AtomicBool,
    cause: AtomicU8,
    rules: StoppingRules,
    started: Instant,
}

impl GlobalCounters {
    /// Fresh counters with the given stopping rules; the wall clock for
    /// rule 3 starts now.
    pub fn new(rules: StoppingRules) -> Self {
        GlobalCounters {
            stand_trees: AtomicU64::new(0),
            intermediate_states: AtomicU64::new(0),
            dead_ends: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            cause: AtomicU8::new(CAUSE_NONE),
            rules,
            started: Instant::now(),
        }
    }

    /// Counters seeded from a previous epoch's totals, for resumed runs.
    ///
    /// A resumed run must evaluate the stopping rules against *cumulative*
    /// progress — a `--max-trees 1000` run checkpointed at 600 trees has
    /// 400 left, not 1000 — so the three counters start at the checkpoint's
    /// totals and [`GlobalCounters::snapshot`] keeps reporting cumulative
    /// figures. The wall clock for rule 3 still starts now: elapsed time
    /// before the checkpoint was already accounted for by the epoch that
    /// wrote it. (Checkpoint-aware callers rebase `max_time` themselves if
    /// they want a cumulative wall-clock budget.)
    pub fn with_base(rules: StoppingRules, base: RunStats) -> Self {
        GlobalCounters {
            stand_trees: AtomicU64::new(base.stand_trees),
            intermediate_states: AtomicU64::new(base.intermediate_states),
            dead_ends: AtomicU64::new(base.dead_ends),
            stop: AtomicBool::new(false),
            cause: AtomicU8::new(CAUSE_NONE),
            rules,
            started: Instant::now(),
        }
    }

    /// True once any stopping rule has fired (polled by every worker).
    ///
    /// Acquire, pairing with the Release store in
    /// [`GlobalCounters::raise_stop`]: a worker that observes `true` here
    /// is guaranteed to also observe the cause CAS that preceded it, so
    /// [`GlobalCounters::stop_cause`] cannot transiently read `None` after
    /// `stopped()` returned `true`. (Found by the loom model in
    /// `tests/loom_counters.rs`; the original `Relaxed` load allowed the
    /// stop flag to outrun the cause byte.)
    #[inline]
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// The first stopping rule that fired, if any.
    pub fn stop_cause(&self) -> Option<StopCause> {
        match self.cause.load(Ordering::Acquire) {
            CAUSE_TREES => Some(StopCause::StandTreeLimit),
            CAUSE_STATES => Some(StopCause::StateLimit),
            CAUSE_TIME => Some(StopCause::TimeLimit),
            _ => None,
        }
    }

    /// Raises the stop flag with `cause` (first writer wins).
    pub fn raise_stop(&self, cause: StopCause) {
        let c = match cause {
            StopCause::StandTreeLimit => CAUSE_TREES,
            StopCause::StateLimit => CAUSE_STATES,
            StopCause::TimeLimit => CAUSE_TIME,
        };
        // ordering: Relaxed failure — losing the first-writer race needs no
        // edge; the winning cause was already published with AcqRel.
        let _ = self
            .cause
            .compare_exchange(CAUSE_NONE, c, Ordering::AcqRel, Ordering::Relaxed);
        // ordering: Release — orders the cause publication above before the
        // flag; `stopped()` loads the flag with Acquire, then the cause.
        self.stop.store(true, Ordering::Release);
    }

    /// True once the wall-clock budget (rule 3) is exhausted. Polled by
    /// the run monitor ([`crate::obs::monitor`]) every tick and by the
    /// flush fast path below.
    pub fn time_limit_exceeded(&self) -> bool {
        match self.rules.max_time {
            Some(max) => self.started.elapsed() >= max,
            None => false,
        }
    }

    /// Snapshot of the flushed totals.
    ///
    /// Reads `dead_ends` *before* `intermediate_states`, pairing with the
    /// publication order in [`GlobalCounters::add_and_check`]: every batch
    /// publishes its states before its dead ends, so any dead-end count a
    /// snapshot observes is covered by an already-visible state count and
    /// `dead_ends <= intermediate_states` holds at *every* snapshot (the
    /// differential harness asserts this on live heartbeat samples).
    pub fn snapshot(&self) -> RunStats {
        let dead_ends = self.dead_ends.load(Ordering::Acquire);
        let intermediate_states = self.intermediate_states.load(Ordering::Acquire);
        let stand_trees = self.stand_trees.load(Ordering::Acquire);
        RunStats {
            stand_trees,
            intermediate_states,
            dead_ends,
        }
    }

    /// Adds a batch to the globals and evaluates the stopping rules.
    ///
    /// A flush that carries any count compares both count limits with the
    /// current totals, also a limit whose counter it left unchanged: the
    /// serial driver checks both after every event, so a limit of 0 stops
    /// on the first event. States are published before dead ends (see
    /// [`GlobalCounters::snapshot`] for the pairing). The clock check at
    /// the end is only the fast path for rule 3 — see the module docs.
    fn add_and_check(&self, trees: u64, states: u64, dead: u64) {
        let counted = trees > 0 || states > 0 || dead > 0;
        let trees_total = add_total(&self.stand_trees, trees);
        if counted
            && self
                .rules
                .max_stand_trees
                .is_some_and(|max| trees_total >= max)
        {
            self.raise_stop(StopCause::StandTreeLimit);
        }
        let states_total = add_total(&self.intermediate_states, states);
        if counted
            && self
                .rules
                .max_intermediate_states
                .is_some_and(|max| states_total >= max)
        {
            self.raise_stop(StopCause::StateLimit);
        }
        if dead > 0 {
            self.dead_ends.fetch_add(dead, Ordering::AcqRel);
        }
        if self.time_limit_exceeded() {
            self.raise_stop(StopCause::TimeLimit);
        }
    }
}

/// Adds `n` to `counter` and returns the new total; an empty batch only
/// reads it.
#[inline]
fn add_total(counter: &AtomicU64, n: u64) -> u64 {
    if n > 0 {
        counter.fetch_add(n, Ordering::AcqRel) + n
    } else {
        counter.load(Ordering::Acquire)
    }
}

/// Per-thread counter buffer; flushes into a [`GlobalCounters`] when a
/// threshold is crossed and unconditionally on [`LocalCounters::flush`].
pub struct LocalCounters<'g> {
    global: &'g GlobalCounters,
    thresholds: FlushThresholds,
    pending: RunStats,
    /// Lifetime totals recorded through this local buffer (for per-thread
    /// load-balance diagnostics).
    total: RunStats,
}

impl<'g> LocalCounters<'g> {
    /// A new empty buffer bound to `global`.
    pub fn new(global: &'g GlobalCounters, thresholds: FlushThresholds) -> Self {
        LocalCounters {
            global,
            thresholds,
            pending: RunStats::new(),
            total: RunStats::new(),
        }
    }

    /// Records one stand tree.
    #[inline]
    pub fn stand_tree(&mut self) {
        self.pending.stand_trees += 1;
        self.total.stand_trees += 1;
        if self.pending.stand_trees >= self.thresholds.stand_trees {
            self.flush();
        }
    }

    /// Records one intermediate state.
    #[inline]
    pub fn intermediate_state(&mut self) {
        self.pending.intermediate_states += 1;
        self.total.intermediate_states += 1;
        if self.pending.intermediate_states >= self.thresholds.intermediate_states {
            self.flush();
        }
    }

    /// Records one dead end (the accompanying intermediate state must be
    /// recorded separately, mirroring the driver's convention).
    #[inline]
    pub fn dead_end(&mut self) {
        self.pending.dead_ends += 1;
        self.total.dead_ends += 1;
        if self.pending.dead_ends >= self.thresholds.dead_ends {
            self.flush();
        }
    }

    /// Pushes all pending counts to the globals and checks stopping rules.
    pub fn flush(&mut self) {
        let p = std::mem::take(&mut self.pending);
        self.global
            .add_and_check(p.stand_trees, p.intermediate_states, p.dead_ends);
    }

    /// Lifetime totals recorded by this thread.
    pub fn totals(&self) -> RunStats {
        self.total
    }
}

impl Drop for LocalCounters<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn batched_flush_defers_global_visibility() {
        let g = GlobalCounters::new(StoppingRules::unlimited());
        let mut l = LocalCounters::new(&g, FlushThresholds::paper_defaults());
        for _ in 0..100 {
            l.intermediate_state();
        }
        assert_eq!(g.snapshot().intermediate_states, 0); // below 2^13
        l.flush();
        assert_eq!(g.snapshot().intermediate_states, 100);
        assert_eq!(l.totals().intermediate_states, 100);
    }

    #[test]
    fn threshold_crossing_flushes() {
        let g = GlobalCounters::new(StoppingRules::unlimited());
        let t = FlushThresholds {
            stand_trees: 4,
            intermediate_states: 4,
            dead_ends: 4,
        };
        let mut l = LocalCounters::new(&g, t);
        for _ in 0..4 {
            l.stand_tree();
        }
        assert_eq!(g.snapshot().stand_trees, 4);
    }

    #[test]
    fn stopping_rule_raises_stop_on_flush() {
        let g = GlobalCounters::new(StoppingRules::counts(10, u64::MAX));
        let mut l = LocalCounters::new(&g, FlushThresholds::unbatched());
        for _ in 0..9 {
            l.stand_tree();
        }
        assert!(!g.stopped());
        l.stand_tree();
        assert!(g.stopped());
        assert_eq!(g.stop_cause(), Some(StopCause::StandTreeLimit));
    }

    #[test]
    fn first_cause_wins() {
        let g = GlobalCounters::new(StoppingRules::unlimited());
        g.raise_stop(StopCause::StateLimit);
        g.raise_stop(StopCause::StandTreeLimit);
        assert_eq!(g.stop_cause(), Some(StopCause::StateLimit));
    }

    #[test]
    fn drop_flushes_pending() {
        let g = GlobalCounters::new(StoppingRules::unlimited());
        {
            let mut l = LocalCounters::new(&g, FlushThresholds::paper_defaults());
            l.dead_end();
            l.dead_end();
        }
        assert_eq!(g.snapshot().dead_ends, 2);
    }

    #[test]
    fn concurrent_flushes_sum_correctly() {
        let g = GlobalCounters::new(StoppingRules::unlimited());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut l = LocalCounters::new(
                        &g,
                        FlushThresholds {
                            stand_trees: 7,
                            intermediate_states: 7,
                            dead_ends: 7,
                        },
                    );
                    for _ in 0..1000 {
                        l.stand_tree();
                        l.intermediate_state();
                    }
                });
            }
        });
        let s = g.snapshot();
        assert_eq!(s.stand_trees, 4000);
        assert_eq!(s.intermediate_states, 4000);
    }
}
