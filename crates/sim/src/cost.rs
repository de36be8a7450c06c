//! The virtual-time cost model.
//!
//! The simulator charges every scheduler-relevant action a number of
//! *ticks*. One tick is "one branch-and-bound state transition on one
//! core" — the paper's own unit of account ("Gentrius processes hundreds
//! of thousands of states per second", §III-A), from which it derives that
//! path replay costs milliseconds and that atomic counter updates are worth
//! batching. The defaults below encode those same ratios.

/// Tick charges for each scheduler action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// One explorer transition (enter / stand tree / dead end / backtrack).
    pub step: u64,
    /// Replaying one insertion of a task path (paper §III-A: reaching
    /// another thread's state is a sequence of insertions processed at
    /// state-processing speed). Charged once per insertion of a picked-up
    /// task's depth past `I_0`; the replay is modelled, not executed — the
    /// simulated worker resumes the task's snapshot.
    pub replay_per_insertion: u64,
    /// Fixed overhead to dequeue a task and wake up (condvar latency,
    /// queue locking).
    pub task_overhead: u64,
    /// Submitting a task to the queue (lock + copy of the path).
    pub submit_overhead: u64,
    /// Flushing the local counters into the global atomics (§III-B: atomic
    /// primitives cost up to a few thousand cycles ≈ a fraction of a state
    /// visit; charged per flush, which is what makes unbatched updates
    /// expensive).
    pub flush: u64,
}

impl CostModel {
    /// Defaults mirroring the paper's magnitude estimates.
    pub fn paper_like() -> Self {
        CostModel {
            step: 1,
            replay_per_insertion: 1,
            task_overhead: 20,
            submit_overhead: 5,
            flush: 1,
        }
    }

    /// A frictionless machine: pure algorithmic parallelism, no overheads.
    /// Useful to isolate load-balance effects from overhead effects.
    pub fn ideal() -> Self {
        CostModel {
            step: 1,
            replay_per_insertion: 0,
            task_overhead: 0,
            submit_overhead: 0,
            flush: 0,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_like() {
        let c = CostModel::default();
        assert_eq!(c.step, 1);
        assert!(c.task_overhead > c.submit_overhead);
    }

    #[test]
    fn ideal_has_no_friction() {
        let c = CostModel::ideal();
        assert_eq!(
            c.replay_per_insertion + c.task_overhead + c.submit_overhead + c.flush,
            0
        );
    }
}
