//! Slurm multifactor priority (§5 of the paper; SchedMD's
//! `priority/multifactor` plugin).
//!
//! Priority is a weighted sum of normalized factors:
//!
//! * **age** — time spent pending, saturating at `age_max` (Slurm's
//!   `PriorityMaxAge`); note that, as the paper points out, the age factor
//!   of a dependent job only starts accruing once its predecessor
//!   completes — which is exactly why reactive chained submission waits so
//!   long,
//! * **job size** — larger allocations get a boost so wide jobs are not
//!   starved by a stream of single-node work,
//! * **fair-share** — users with little recent usage are favored; recent
//!   usage decays exponentially with a configurable half-life.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// Weights of the multifactor priority, mirroring Slurm's
/// `PriorityWeightAge`, `PriorityWeightJobSize` and `PriorityWeightFairshare`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriorityWeights {
    /// Weight of the (saturating) queue-age factor.
    pub age: f64,
    /// Pending time at which the age factor saturates, seconds.
    pub age_max: i64,
    /// Weight of the job-size factor (`nodes / total_nodes`).
    pub size: f64,
    /// Weight of the fair-share factor.
    pub fairshare: f64,
    /// Half-life of historical usage decay, seconds.
    pub fairshare_halflife: i64,
}

impl Default for PriorityWeights {
    /// Defaults shaped like a typical TACC multifactor configuration: age
    /// dominates (FIFO-ish), fair-share corrects hogs, size gives wide jobs
    /// a fighting chance.
    fn default() -> Self {
        Self {
            age: 1000.0,
            age_max: 7 * 24 * 3600,
            size: 200.0,
            fairshare: 500.0,
            fairshare_halflife: 7 * 24 * 3600,
        }
    }
}

/// Tracks decayed per-user usage for the fair-share factor.
///
/// Users are interned to dense `u32` slots when one of their jobs is
/// admitted ([`FairshareTracker::intern`], called from both simulators'
/// shared admission path), and the slot is stored on the job. Admission
/// is therefore the only place that hashes a user id: usage is a
/// slot-indexed `Vec`, and a scheduling pass computes
/// each user's fair-share factor at most once, the first time it meets
/// one of that user's pending jobs.
#[derive(Debug, Clone, Default)]
pub struct FairshareTracker {
    slots: HashMap<u32, u32>,
    users: Vec<UserShare>,
    last_decay: i64,
    pass: u32,
}

/// One interned user's decayed usage and its cached fair-share factor.
#[derive(Debug, Clone, Copy, Default)]
struct UserShare {
    usage: f64,
    /// Fair-share factor, valid while `stamp` equals the tracker's `pass`.
    factor: f64,
    stamp: u32,
}

impl FairshareTracker {
    /// Creates a tracker with no recorded usage.
    pub fn new() -> Self {
        Self::default()
    }

    /// The dense slot of `user`, assigned on first sight.
    pub fn intern(&mut self, user: u32) -> u32 {
        let next = self.users.len() as u32;
        let slot = *self.slots.entry(user).or_insert(next);
        if slot == next {
            self.users.push(UserShare::default());
        }
        slot
    }

    /// Decays all recorded usage to instant `now` with the given half-life.
    pub fn decay_to(&mut self, now: i64, halflife: i64) {
        if now <= self.last_decay || halflife <= 0 {
            self.last_decay = self.last_decay.max(now);
            return;
        }
        let dt = (now - self.last_decay) as f64;
        let factor = 0.5f64.powf(dt / halflife as f64);
        for u in &mut self.users {
            u.usage *= factor;
            // Negligible usage counts as none, so an idle user's factor
            // returns to exactly 1.0.
            if u.usage <= 1e-6 {
                u.usage = 0.0;
            }
        }
        self.last_decay = now;
    }

    /// Records `node_seconds` of consumption by the user in `slot`.
    pub fn record(&mut self, slot: u32, node_seconds: f64) {
        self.users[slot as usize].usage += node_seconds;
    }

    /// Normalized usage of the user in `slot` relative to
    /// `capacity_node_seconds` (the cluster's node-seconds over one
    /// half-life). 0 = idle user.
    pub fn normalized_usage(&self, slot: u32, capacity_node_seconds: f64) -> f64 {
        if capacity_node_seconds <= 0.0 {
            return 0.0;
        }
        self.users[slot as usize].usage / capacity_node_seconds
    }

    /// Invalidates every cached fair-share factor.
    fn begin_pass(&mut self) {
        self.pass = self.pass.wrapping_add(1);
        if self.pass == 0 {
            for u in &mut self.users {
                u.stamp = 0;
            }
            self.pass = 1;
        }
    }

    /// Fair-share factor of the user in `slot`, computed on the first
    /// call since [`Self::begin_pass`] and cached for the rest of it.
    fn pass_factor(&mut self, slot: u32, capacity_node_seconds: f64) -> f64 {
        let s = slot as usize;
        if self.users[s].stamp != self.pass {
            self.users[s].factor =
                fairshare_factor(self.normalized_usage(slot, capacity_node_seconds));
            self.users[s].stamp = self.pass;
        }
        self.users[s].factor
    }
}

/// Slurm's fair-share curve: `2^(-usage_norm)`; idle users get 1.0.
pub(crate) fn fairshare_factor(usage_norm: f64) -> f64 {
    // `exp2` instead of `powf`: generic `pow` is several times slower.
    (-usage_norm.max(0.0)).exp2()
}

/// Computes the multifactor priority of one pending job.
///
/// `age` is seconds pending, `nodes`/`total_nodes` give the size factor and
/// `usage_norm` is the user's normalized decayed usage (see
/// [`FairshareTracker::normalized_usage`]).
pub fn priority(
    weights: &PriorityWeights,
    age: i64,
    nodes: u32,
    total_nodes: u32,
    usage_norm: f64,
) -> f64 {
    priority_with_factor(
        weights,
        age,
        nodes,
        total_nodes,
        fairshare_factor(usage_norm),
    )
}

/// [`priority`] from an already computed fair-share factor
/// ([`fairshare_factor`]), which depends only on the user.
pub(crate) fn priority_with_factor(
    weights: &PriorityWeights,
    age: i64,
    nodes: u32,
    total_nodes: u32,
    fs_factor: f64,
) -> f64 {
    let age_factor = (age as f64 / weights.age_max as f64).clamp(0.0, 1.0);
    let size_factor = f64::from(nodes) / f64::from(total_nodes.max(1));
    weights.age * age_factor + weights.size * size_factor + weights.fairshare * fs_factor
}

/// A pending job's rank key: `(−priority, submit, id, arena index)`.
/// Ascending order is descending priority with FIFO, then id,
/// tie-breaks; ids are unique, so the order is total.
pub(crate) type RankKey = (f64, i64, u64, usize);

/// What ranking needs to know about one pending job.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankInput {
    /// The submitting user's slot ([`FairshareTracker::intern`]).
    pub(crate) slot: u32,
    /// Effective submit instant.
    pub(crate) submit: i64,
    /// Requested node count.
    pub(crate) nodes: u32,
    /// Job id.
    pub(crate) id: u64,
}

/// Ranks the pending jobs of one scheduling pass — the one priority
/// ordering both simulators share.
///
/// Decays `fairshare` to `now`, then writes a [`RankKey`] per arena index
/// in `pending` (described by `job`) into `order` and sorts it, keeping
/// only the `depth` best when more are pending (Slurm's
/// `bf_max_job_test`; pass `usize::MAX` to rank everything). Fair-share
/// factors are computed lazily, once per user with a pending job, and
/// nothing is hashed or allocated once `order` is warm.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rank_pending(
    fairshare: &mut FairshareTracker,
    weights: &PriorityWeights,
    now: i64,
    total_nodes: u32,
    pending: &[usize],
    job: impl Fn(usize) -> RankInput,
    depth: usize,
    order: &mut Vec<RankKey>,
) {
    let halflife = weights.fairshare_halflife;
    fairshare.decay_to(now, halflife);
    fairshare.begin_pass();
    let capacity_ns = f64::from(total_nodes) * halflife as f64;

    order.clear();
    order.reserve(pending.len());
    for &i in pending {
        let j = job(i);
        let fs = fairshare.pass_factor(j.slot, capacity_ns);
        let p = priority_with_factor(weights, now - j.submit, j.nodes, total_nodes, fs);
        order.push((-p, j.submit, j.id, i));
    }
    // total_cmp on the leading (finite, non-NaN) priority key: branchless
    // float compares, noticeably cheaper than partial_cmp + unwrap.
    let key_cmp = |a: &RankKey, b: &RankKey| {
        a.0.total_cmp(&b.0)
            .then_with(|| (a.1, a.2, a.3).cmp(&(b.1, b.2, b.3)))
    };
    let depth = depth.max(1);
    if order.len() > depth {
        order.select_nth_unstable_by(depth - 1, key_cmp);
        order.truncate(depth);
    }
    order.sort_unstable_by(key_cmp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const W: PriorityWeights = PriorityWeights {
        age: 1000.0,
        age_max: 1000,
        size: 100.0,
        fairshare: 500.0,
        fairshare_halflife: 1000,
    };

    #[test]
    fn age_factor_saturates() {
        let p1 = priority(&W, 500, 1, 10, 0.0);
        let p2 = priority(&W, 1000, 1, 10, 0.0);
        let p3 = priority(&W, 5000, 1, 10, 0.0);
        assert!(p2 > p1);
        assert!((p3 - p2).abs() < 1e-9, "age saturates at age_max");
    }

    #[test]
    fn bigger_jobs_get_size_boost() {
        let small = priority(&W, 0, 1, 10, 0.0);
        let big = priority(&W, 0, 8, 10, 0.0);
        assert!(big > small);
        assert!((big - small - 100.0 * 0.7).abs() < 1e-9);
    }

    #[test]
    fn heavy_users_lose_fairshare() {
        let idle = priority(&W, 0, 1, 10, 0.0);
        let hog = priority(&W, 0, 1, 10, 2.0);
        assert!(idle > hog);
        assert!((idle - hog - 500.0 * (1.0 - 0.25)).abs() < 1e-9);
    }

    #[test]
    fn usage_decays_with_halflife() {
        let mut fs = FairshareTracker::new();
        let u1 = fs.intern(1);
        fs.record(u1, 100.0);
        fs.decay_to(1000, 1000);
        assert!((fs.normalized_usage(u1, 1.0) - 50.0).abs() < 1e-9);
        fs.decay_to(2000, 1000);
        assert!((fs.normalized_usage(u1, 1.0) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn decay_is_lazy_and_monotone() {
        let mut fs = FairshareTracker::new();
        let u1 = fs.intern(1);
        fs.record(u1, 8.0);
        fs.decay_to(500, 1000);
        fs.decay_to(500, 1000); // idempotent at same instant
        let u = fs.normalized_usage(u1, 1.0);
        assert!(u < 8.0 && u > 4.0);
        // time never goes backwards
        fs.decay_to(100, 1000);
        assert!((fs.normalized_usage(u1, 1.0) - u).abs() < 1e-12);
    }

    #[test]
    fn unknown_user_has_zero_usage() {
        let mut fs = FairshareTracker::new();
        let seen = fs.intern(7);
        fs.record(seen, 50.0);
        let fresh = fs.intern(42);
        assert_ne!(seen, fresh);
        assert_eq!(fs.intern(7), seen, "interning is idempotent");
        assert_eq!(fs.normalized_usage(fresh, 100.0), 0.0);
    }

    #[test]
    fn negligible_usage_is_dropped() {
        let mut fs = FairshareTracker::new();
        let u1 = fs.intern(1);
        fs.record(u1, 1e-3);
        fs.decay_to(100_000, 100); // 1000 half-lives
        assert_eq!(fs.normalized_usage(u1, 1.0), 0.0);
        // A returning user starts from exactly its new usage.
        fs.record(u1, 3.0);
        assert_eq!(fs.normalized_usage(u1, 1.0), 3.0);
    }

    /// The pre-slot tracker, kept verbatim as the ranking oracle: usage
    /// in a `HashMap` keyed by user, negligible entries removed on decay,
    /// and one `priority()` call (with its own hash lookup) per job.
    #[derive(Default)]
    struct MapTracker {
        usage: std::collections::HashMap<u32, f64>,
        last_decay: i64,
    }

    impl MapTracker {
        fn decay_to(&mut self, now: i64, halflife: i64) {
            if now <= self.last_decay || halflife <= 0 {
                self.last_decay = self.last_decay.max(now);
                return;
            }
            let dt = (now - self.last_decay) as f64;
            let factor = 0.5f64.powf(dt / halflife as f64);
            for u in self.usage.values_mut() {
                *u *= factor;
            }
            self.usage.retain(|_, u| *u > 1e-6);
            self.last_decay = now;
        }

        fn record(&mut self, user: u32, node_seconds: f64) {
            *self.usage.entry(user).or_insert(0.0) += node_seconds;
        }

        fn normalized_usage(&self, user: u32, capacity: f64) -> f64 {
            if capacity <= 0.0 {
                return 0.0;
            }
            self.usage.get(&user).copied().unwrap_or(0.0) / capacity
        }

        /// Full ranking the way both simulators computed it before slots.
        fn rank(
            &mut self,
            w: &PriorityWeights,
            now: i64,
            total: u32,
            jobs: &[(u32, i64, u32, u64)],
        ) -> Vec<RankKey> {
            self.decay_to(now, w.fairshare_halflife);
            let capacity = f64::from(total) * w.fairshare_halflife as f64;
            let mut order: Vec<RankKey> = jobs
                .iter()
                .enumerate()
                .map(|(i, &(user, submit, nodes, id))| {
                    let usage = self.normalized_usage(user, capacity);
                    (
                        -priority(w, now - submit, nodes, total, usage),
                        submit,
                        id,
                        i,
                    )
                })
                .collect();
            order.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap()
                    .then(a.1.cmp(&b.1))
                    .then(a.2.cmp(&b.2))
            });
            order
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// `(user, node_seconds)`
        Record(u32, f64),
        /// A scheduling pass after `dt` seconds over `(user, age, nodes)`.
        Pass(i64, Vec<(u32, i64, u32)>),
    }

    fn op() -> impl Strategy<Value = Op> {
        (
            0u8..3,
            (0u32..12, 0.0f64..5e6),
            // Gaps up to ~40 half-lives let recorded usage fall below the
            // 1e-6 floor; the users then come back through later records.
            (
                0i64..40_000,
                prop::collection::vec((0u32..12, 0i64..3000, 1u32..9), 0..40),
            ),
        )
            .prop_map(|(kind, (user, x), (dt, jobs))| {
                if kind == 0 {
                    Op::Record(user, x)
                } else {
                    Op::Pass(dt, jobs)
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Slot-interned usage plus per-pass cached factors rank every
        /// pending set bit-identically to the per-job hashed oracle, at
        /// full depth and cut to a shallow `sched_depth`.
        #[test]
        fn slot_ranking_matches_hashed_oracle(
            ops in prop::collection::vec(op(), 1..60),
            depth in 1usize..16,
        ) {
            let w = PriorityWeights { fairshare_halflife: 1000, ..W };
            const TOTAL: u32 = 16;
            let mut fs = FairshareTracker::new();
            let mut oracle = MapTracker::default();
            let mut now = 0i64;
            let mut next_id = 1u64;
            let mut order = Vec::new();
            let mut shallow = Vec::new();
            for op in ops {
                match op {
                    Op::Record(user, x) => {
                        let s = fs.intern(user);
                        fs.record(s, x);
                        oracle.record(user, x);
                    }
                    Op::Pass(dt, pending) => {
                        now += dt;
                        let jobs: Vec<(u32, i64, u32, u64)> = pending
                            .iter()
                            .map(|&(user, age, nodes)| {
                                next_id += 1;
                                (user, now - age, nodes, next_id)
                            })
                            .collect();
                        let inputs: Vec<RankInput> = pending
                            .iter()
                            .zip(&jobs)
                            .map(|(&(user, ..), &(_, submit, nodes, id))| RankInput {
                                slot: fs.intern(user),
                                submit,
                                nodes,
                                id,
                            })
                            .collect();
                        let idx: Vec<usize> = (0..jobs.len()).collect();
                        let mut replica = fs.clone();
                        rank_pending(&mut fs, &w, now, TOTAL, &idx, |i| inputs[i], usize::MAX, &mut order);
                        rank_pending(&mut replica, &w, now, TOTAL, &idx, |i| inputs[i], depth, &mut shallow);
                        let want = oracle.rank(&w, now, TOTAL, &jobs);
                        let bits = |v: &[RankKey]| -> Vec<(u64, i64, u64, usize)> {
                            v.iter().map(|k| (k.0.to_bits(), k.1, k.2, k.3)).collect()
                        };
                        prop_assert_eq!(bits(&order), bits(&want));
                        prop_assert_eq!(bits(&shallow), bits(&want[..want.len().min(depth)]));
                    }
                }
            }
        }
    }
}
