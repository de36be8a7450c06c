//! Tasks: the unit of work exchanged between threads (§III-A).
//!
//! The paper describes a task as a *path* from the initial-split state
//! `I_0` to a desired intermediate state `I_c`, which the receiving thread
//! replays through the mapping kernels. With the edge-indexed kernels
//! per-state work is so cheap that replaying `O(depth)` insertions per
//! steal would dominate, so a task carries a [`StateSnapshot`] instead — an
//! owned copy of the agile tree, the remaining taxa and the *live*
//! projection state — and a thief resumes it in one `O(state)` move with
//! zero kernel work. The snapshot clone is paid once, by the splitter, at
//! publish time. [`Task`] is the only task type: the engine, `.standckpt`
//! checkpoints and the simulator all use it.

use gentrius_core::state::StateSnapshot;
use phylo::taxa::TaxonId;
use phylo::tree::EdgeId;

/// A stealable unit of work: a resumable state plus the frontier to
/// explore from it.
#[derive(Clone, Debug)]
pub struct Task {
    /// Owned state at `I_c`, resumable without replay.
    pub snapshot: StateSnapshot,
    /// The taxon to insert at `I_c`.
    pub taxon: TaxonId,
    /// The branch subset assigned to this task.
    pub branches: Vec<EdgeId>,
    /// Insertions applied between `I_0` and `I_c` (diagnostics: the
    /// `snapshot_depth` of the task's trace span).
    pub depth: usize,
}

impl Task {
    /// A task resuming `snapshot` on `taxon` × `branches`, `depth`
    /// insertions past `I_0`.
    pub fn new(
        snapshot: StateSnapshot,
        taxon: TaxonId,
        branches: Vec<EdgeId>,
        depth: usize,
    ) -> Self {
        Task {
            snapshot,
            taxon,
            branches,
            depth,
        }
    }

    /// A scheduler-test probe: carries a sentinel snapshot that is never
    /// resumed. Lets deque/pool/loom tests construct tasks without a
    /// [`gentrius_core::problem::StandProblem`].
    pub fn probe(taxon: TaxonId, branches: Vec<EdgeId>) -> Self {
        Task {
            snapshot: StateSnapshot::sentinel(),
            taxon,
            branches,
            depth: 0,
        }
    }
}

/// The paper's task-queue capacity rule (§III-A): `N_t + 1` below 8
/// threads, `N_t / 2` from 8 threads on.
pub fn paper_queue_capacity(threads: usize) -> usize {
    if threads < 8 {
        threads + 1
    } else {
        threads / 2
    }
}

/// Partitions `branches` into at most `parts` chunks "as uniformly as
/// possible" (paper §III-A: 5 branches over 4 threads → sizes 2,1,1,1).
/// Returns fewer chunks when there are fewer branches than parts; never
/// returns empty chunks.
pub fn partition_branches(branches: &[EdgeId], parts: usize) -> Vec<Vec<EdgeId>> {
    let parts = parts.min(branches.len()).max(1);
    if branches.is_empty() {
        return Vec::new();
    }
    let base = branches.len() / parts;
    let extra = branches.len() % parts;
    let mut out = Vec::with_capacity(parts);
    let mut at = 0;
    for i in 0..parts {
        let take = base + usize::from(i < extra);
        out.push(branches[at..at + take].to_vec());
        at += take;
    }
    debug_assert_eq!(at, branches.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EdgeId {
        EdgeId(i)
    }

    #[test]
    fn probe_tasks_carry_their_branches() {
        let t = Task::probe(TaxonId(3), vec![e(1), e(4)]);
        assert_eq!(t.taxon, TaxonId(3));
        assert_eq!(t.branches, vec![e(1), e(4)]);
        assert_eq!(t.depth, 0);
        assert_eq!(t.snapshot.remaining_count(), 0);
    }

    #[test]
    fn capacity_rule_matches_paper() {
        assert_eq!(paper_queue_capacity(2), 3);
        assert_eq!(paper_queue_capacity(4), 5);
        assert_eq!(paper_queue_capacity(7), 8);
        assert_eq!(paper_queue_capacity(8), 4);
        assert_eq!(paper_queue_capacity(16), 8);
        assert_eq!(paper_queue_capacity(48), 24);
    }

    #[test]
    fn partition_five_over_four() {
        let b: Vec<EdgeId> = (0..5).map(e).collect();
        let parts = partition_branches(&b, 4);
        assert_eq!(parts.len(), 4);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(sizes, vec![2, 1, 1, 1]);
        let flat: Vec<EdgeId> = parts.into_iter().flatten().collect();
        assert_eq!(flat, b);
    }

    #[test]
    fn partition_fewer_branches_than_parts() {
        let b: Vec<EdgeId> = (0..2).map(e).collect();
        let parts = partition_branches(&b, 5);
        assert_eq!(parts.len(), 2);
        assert!(parts.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn partition_single_part() {
        let b: Vec<EdgeId> = (0..3).map(e).collect();
        let parts = partition_branches(&b, 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], b);
    }

    #[test]
    fn partition_empty() {
        assert!(partition_branches(&[], 4).is_empty());
    }
}
