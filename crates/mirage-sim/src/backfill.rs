//! Scheduling-plan core: priority order + EASY backfill.
//!
//! [`plan_schedule`] is a pure function shared by the fast simulator and
//! the reference simulator. Given the pending queue in priority order, the
//! free-node count and the *estimated* release times of running jobs, it
//! decides which pending jobs start right now.
//!
//! The planner follows Slurm semantics:
//!
//! * jobs start strictly in priority order until the first job that does
//!   not fit (the *blocked head*),
//! * EASY backfill then computes the head's **shadow time** — the earliest
//!   instant enough nodes will be free, *assuming running jobs hold their
//!   nodes until their wall-clock limits* — and starts lower-priority jobs
//!   early only if they cannot delay the head: either they finish (by
//!   their own limit) before the shadow time, or they fit in the nodes
//!   left over at the shadow time,
//! * release-time estimates use **requested limits**, while jobs actually
//!   finish at their (usually shorter) real runtimes. That mismatch is the
//!   fundamental source of queue-wait unpredictability the paper builds
//!   its case on (§3).

use serde::{Deserialize, Serialize};

use crate::priority::RankKey;

/// Backfill flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackfillPolicy {
    /// No backfill: strict priority order (head-of-line blocking).
    None,
    /// EASY backfill with reservations for the top `reserve_depth` blocked
    /// jobs. `reserve_depth = 1` is classic EASY.
    Easy {
        /// How many blocked jobs get start-time reservations.
        reserve_depth: usize,
    },
}

impl Default for BackfillPolicy {
    fn default() -> Self {
        BackfillPolicy::Easy { reserve_depth: 1 }
    }
}

/// What the planner needs to know about one pending job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingView {
    /// Requested node count.
    pub nodes: u32,
    /// Requested wall-clock limit (the planner's runtime estimate).
    pub timelimit: i64,
}

/// A start-time reservation for a blocked job.
#[derive(Debug, Clone, Copy)]
struct Reservation {
    /// Earliest instant the blocked job can start (by limit estimates).
    shadow: i64,
    /// Nodes spare at the shadow instant after the blocked job starts.
    extra: u32,
}

/// Reusable working memory for [`plan_schedule_into`], so the per-event
/// scheduling pass allocates nothing once warm.
#[derive(Debug, Default)]
pub struct PlanScratch {
    releases: Vec<(i64, u32)>,
    reservations: Vec<Reservation>,
}

/// Working memory of one scheduling pass — the ranked queue, the
/// planner's inputs and its verdict — reused across passes by both
/// simulators, so a warm pass allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct PassScratch {
    /// Ranked pending jobs ([`crate::priority::rank_pending`]).
    pub(crate) order: Vec<RankKey>,
    /// Positions in `order` to start now, filled by [`Self::plan`].
    pub(crate) starts: Vec<usize>,
    views: Vec<PendingView>,
    releases: Vec<(i64, u32)>,
    plan: PlanScratch,
}

impl PassScratch {
    /// Plans the ranked `order` with [`plan_schedule_into`]: `view`
    /// describes the job at an arena index and `releases` yields each
    /// running job's `(estimated_release_time, nodes)`.
    pub(crate) fn plan(
        &mut self,
        view: impl Fn(usize) -> PendingView,
        releases: impl Iterator<Item = (i64, u32)>,
        free_nodes: u32,
        total_nodes: u32,
        now: i64,
        policy: BackfillPolicy,
    ) {
        self.views.clear();
        self.views.extend(self.order.iter().map(|k| view(k.3)));
        self.releases.clear();
        self.releases.extend(releases);
        plan_schedule_into(
            &self.views,
            free_nodes,
            total_nodes,
            now,
            &self.releases,
            policy,
            &mut self.plan,
            &mut self.starts,
        );
    }
}

/// Decides which pending jobs start now (allocating convenience wrapper
/// around [`plan_schedule_into`]).
///
/// * `pending` must be sorted by descending priority.
/// * `running` holds `(estimated_release_time, nodes)` of running jobs;
///   order is irrelevant.
///
/// Returns indices into `pending` in the order they should be started.
pub fn plan_schedule(
    pending: &[PendingView],
    free_nodes: u32,
    total_nodes: u32,
    now: i64,
    running: &[(i64, u32)],
    policy: BackfillPolicy,
) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut scratch = PlanScratch::default();
    plan_schedule_into(
        pending,
        free_nodes,
        total_nodes,
        now,
        running,
        policy,
        &mut scratch,
        &mut starts,
    );
    starts
}

/// [`plan_schedule`] writing into caller-provided buffers: `starts` is
/// cleared and filled with the pending indices to start, `scratch` holds
/// the plan's working vectors for reuse across passes.
#[allow(clippy::too_many_arguments)]
pub fn plan_schedule_into(
    pending: &[PendingView],
    free_nodes: u32,
    total_nodes: u32,
    now: i64,
    running: &[(i64, u32)],
    policy: BackfillPolicy,
    scratch: &mut PlanScratch,
    starts: &mut Vec<usize>,
) {
    let mut free = free_nodes;
    starts.clear();
    let releases = &mut scratch.releases;
    releases.clear();
    // Phase 1 adds at most one release per pending job: size for that up
    // front, so the buffer grows only with the queue, not mid-pass when
    // the running set peaks.
    releases.reserve(running.len() + pending.len());
    releases.extend_from_slice(running);

    // Phase 1: strict priority order until the first blocked job.
    let mut head = None;
    for (i, p) in pending.iter().enumerate() {
        if p.nodes <= free {
            free -= p.nodes;
            releases.push((now + p.timelimit, p.nodes));
            starts.push(i);
        } else {
            head = Some(i);
            break;
        }
    }

    let Some(head) = head else {
        return; // everything fit
    };
    let BackfillPolicy::Easy { reserve_depth } = policy else {
        return; // no backfill: stop at the blocked head
    };

    releases.sort_unstable();

    // Phase 2: reservations for the top `reserve_depth` blocked jobs
    // (`head..pending.len()` is the blocked range). Later reservations
    // pessimistically assume earlier reserved jobs hold their nodes
    // forever (documented simplification; exact for depth 1).
    let reservations = &mut scratch.reservations;
    reservations.clear();
    for bi in (head..pending.len()).take(reserve_depth.max(1)) {
        let need = pending[bi].nodes;
        if need > total_nodes {
            // Can never run; don't let it wedge the reservation chain.
            continue;
        }
        let mut avail = free;
        // Deduct nodes promised to earlier reservations from all future
        // availability (pessimistic for depth > 1, exact for depth 1).
        let promised: u32 = (head..pending.len())
            .take(reservations.len())
            .map(|j| pending[j].nodes)
            .sum();
        let mut shadow = now;
        let mut found = false;
        if avail.saturating_sub(promised) >= need {
            found = true;
        } else {
            for &(t, n) in releases.iter() {
                avail += n;
                if avail.saturating_sub(promised) >= need {
                    shadow = t;
                    found = true;
                    break;
                }
            }
        }
        if !found {
            continue;
        }
        reservations.push(Reservation {
            shadow,
            extra: avail.saturating_sub(promised) - need,
        });
    }

    // Phase 3: try to backfill every blocked job that has no reservation.
    let blocked_len = pending.len() - head;
    let reserved_count = reservations.len().min(blocked_len);
    for bi in (head..pending.len()).skip(reserved_count) {
        let p = pending[bi];
        if p.nodes > free {
            continue;
        }
        let est_end = now + p.timelimit;
        // A candidate is harmless to a reservation if it returns its nodes
        // before the reserved job needs them, or fits in the spare capacity
        // at the shadow. Every reservation must agree before any spare
        // capacity is consumed, so a rejection leaves all of it intact.
        let harmless = reservations
            .iter()
            .all(|r| est_end <= r.shadow || p.nodes <= r.extra);
        if harmless {
            for r in reservations.iter_mut().filter(|r| est_end > r.shadow) {
                r.extra -= p.nodes;
            }
            free -= p.nodes;
            starts.push(bi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EASY: BackfillPolicy = BackfillPolicy::Easy { reserve_depth: 1 };

    fn p(nodes: u32, timelimit: i64) -> PendingView {
        PendingView { nodes, timelimit }
    }

    #[test]
    fn everything_starts_when_it_fits() {
        let pending = [p(2, 100), p(3, 100)];
        let starts = plan_schedule(&pending, 8, 8, 0, &[], EASY);
        assert_eq!(starts, vec![0, 1]);
    }

    #[test]
    fn strict_priority_without_backfill() {
        // Head needs 8, only 4 free; the 1-node job behind it must wait.
        let pending = [p(8, 100), p(1, 10)];
        let starts = plan_schedule(&pending, 4, 8, 0, &[(50, 4)], BackfillPolicy::None);
        assert!(starts.is_empty());
    }

    #[test]
    fn easy_backfills_short_job_that_fits_before_shadow() {
        // 8 total, 4 free, a 4-node job releases at t=50 → head(8) shadow=50.
        // A 1-node job with limit 10 ends at 10 ≤ 50: backfill it.
        let pending = [p(8, 100), p(1, 10)];
        let starts = plan_schedule(&pending, 4, 8, 0, &[(50, 4)], EASY);
        assert_eq!(starts, vec![1]);
    }

    #[test]
    fn easy_rejects_job_that_would_delay_head() {
        // Same setup, but the backfill candidate runs past the shadow and
        // would eat nodes the head needs (extra at shadow = 0).
        let pending = [p(8, 100), p(1, 100)];
        let starts = plan_schedule(&pending, 4, 8, 0, &[(50, 4)], EASY);
        assert!(starts.is_empty());
    }

    #[test]
    fn easy_allows_long_job_in_spare_shadow_capacity() {
        // 10 total, 5 free; 5 running release at 50. Head needs 8 → shadow
        // 50, extra = 10 − 8 = 2. A 2-node long job fits in the extra.
        let pending = [p(8, 100), p(2, 1000)];
        let starts = plan_schedule(&pending, 5, 10, 0, &[(50, 5)], EASY);
        assert_eq!(starts, vec![1]);
    }

    #[test]
    fn extra_capacity_is_consumed_not_reused() {
        // Two 2-node long jobs, but only 2 extra nodes at the shadow: only
        // the first backfills.
        let pending = [p(8, 100), p(2, 1000), p(2, 1000)];
        let starts = plan_schedule(&pending, 5, 10, 0, &[(50, 5)], EASY);
        assert_eq!(starts, vec![1]);
    }

    #[test]
    fn shadow_accumulates_multiple_releases() {
        // 8 total, 0 free; releases at t=10 (2 nodes), t=20 (3), t=30 (3).
        // Head needs 6 → shadow = 20 (2+3 ≥ 6? no, 5 < 6 → t=30, 8 ≥ 6).
        let pending = [p(6, 100), p(2, 5)];
        let starts = plan_schedule(&pending, 0, 8, 0, &[(10, 2), (20, 3), (30, 3)], EASY);
        // Candidate needs 2 nodes but 0 are free now — nothing can start.
        assert!(starts.is_empty());
    }

    #[test]
    fn phase1_starts_consume_future_availability() {
        // 4 free; a 4-node limit-100 job starts in phase 1 and its release
        // becomes part of the timeline for the 6-node head behind it.
        let pending = [p(4, 100), p(6, 50)];
        let starts = plan_schedule(&pending, 4, 8, 0, &[(40, 4)], EASY);
        assert_eq!(starts, vec![0]);
    }

    #[test]
    fn oversized_job_cannot_wedge_the_queue() {
        // Head requests more nodes than exist; backfill continues behind it.
        let pending = [p(16, 100), p(1, 10)];
        let starts = plan_schedule(&pending, 4, 8, 0, &[(50, 4)], EASY);
        assert_eq!(starts, vec![1]);
    }

    #[test]
    fn deeper_reservations_protect_second_blocked_job() {
        // 8 total, 4 free, release of 4 at t=50.
        // blocked: A(8, shadow 50), B(4).
        // With depth 2, B gets a reservation too; candidate C(1, limit 10)
        // still backfills because it ends before both shadows.
        let pending = [p(8, 100), p(4, 100), p(1, 10)];
        let deep = BackfillPolicy::Easy { reserve_depth: 2 };
        let starts = plan_schedule(&pending, 4, 8, 0, &[(50, 4)], deep);
        assert_eq!(starts, vec![2]);
    }

    #[test]
    fn rejected_candidate_leaves_spare_capacity_intact() {
        // 8 total, 2 free; 4 nodes release at t=50 and 2 more at t=100.
        // Depth 2 reserves A(4): shadow 50, extra 6 − 4 = 2; and B(4),
        // with A's 4 promised: shadow 100, extra 8 − 4 − 4 = 0.
        let deep = BackfillPolicy::Easy { reserve_depth: 2 };
        let running = [(50, 4), (100, 2)];
        // C(2 nodes, ends at 200) fits r1's spare capacity but r2 refuses
        // it. D(1 node, ends at 80) runs past r1's shadow and needs one of
        // r1's spare nodes, which C's rejection must not have consumed.
        let pending = [p(4, 1000), p(4, 1000), p(2, 200), p(1, 80)];
        let starts = plan_schedule(&pending, 2, 8, 0, &running, deep);
        assert_eq!(starts, vec![3]);
    }

    #[test]
    fn empty_queue_is_a_noop() {
        let starts = plan_schedule(&[], 8, 8, 0, &[], EASY);
        assert!(starts.is_empty());
    }
}
