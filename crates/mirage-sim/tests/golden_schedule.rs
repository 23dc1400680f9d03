//! Golden schedule pin for both simulators' scheduling passes.
//!
//! A deep-backlog, many-user synthetic window is replayed through the
//! event-driven [`Simulator`] and the tick-driven [`ReferenceSimulator`].
//! Every completed job's `(id, start, end)` plus the run's `metrics()` and
//! `fault_stats()` are folded into one FNV-1a digest per backend and
//! compared with digests recorded before the priority ranking was
//! reworked. Any change to the order in which pending jobs are ranked —
//! fair-share factors, tie-breaks, the `sched_depth` cut — moves a start
//! somewhere in the window and breaks the pin.

use mirage_sim::{
    ClusterBackend, FaultModel, FaultStats, HeteroModel, ReferenceConfig, ReferenceSimulator,
    SimConfig, SimMetrics, Simulator,
};
use mirage_trace::{JobRecord, PoolRequest};

const NODES: u32 = 16;
const JOBS: u64 = 360;
const USERS: u64 = 23;
const SHALLOW: usize = 24;

/// splitmix64: a self-contained stream so the window never drifts with
/// the trace synthesizer.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Arrivals far outpace the 16-node partition, so the queue holds
/// hundreds of jobs from every user for most of the window. Users are
/// skewed (a few heavy submitters, a long tail) so fair-share reorders
/// the queue on every pass.
fn window() -> Vec<JobRecord> {
    let mut s = 0x6d69_7261_6765u64;
    let mut submit = 0i64;
    (1..=JOBS)
        .map(|id| {
            submit += (mix(&mut s) % 240) as i64;
            let r = mix(&mut s);
            let user = if r.is_multiple_of(3) {
                (r >> 8) % 3
            } else {
                (r >> 8) % USERS
            } as u32;
            let nodes = 1 + (mix(&mut s) % 6) as u32;
            let runtime = 600 + (mix(&mut s) % 7200) as i64;
            let timelimit = runtime + (mix(&mut s) % 10_800) as i64;
            let pool = match id % 5 {
                0 => PoolRequest::Prefer("a100".into()),
                3 => PoolRequest::Demand("v100".into()),
                _ => PoolRequest::Anywhere,
            };
            JobRecord::new(
                id,
                format!("g{id}"),
                user,
                submit,
                nodes,
                timelimit,
                runtime,
            )
            .with_pool(pool)
        })
        .collect()
}

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn digest<B: ClusterBackend>(backend: &mut B) -> (u64, usize) {
    backend.load_trace(&window());
    backend.run_to_completion();
    let done = backend.completed();
    let m: SimMetrics = backend.metrics();
    let f: FaultStats = backend.fault_stats();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for j in &done {
        fnv(&mut h, j.id);
        fnv(&mut h, j.start.unwrap_or(-1) as u64);
        fnv(&mut h, j.end.unwrap_or(-1) as u64);
    }
    for x in [
        m.completed_jobs as u64,
        m.rejected_jobs as u64,
        m.makespan as u64,
        m.avg_wait.to_bits(),
        m.avg_jct.to_bits(),
        m.utilization.to_bits(),
        m.failed_jobs as u64,
        f.node_crashes,
        f.node_recoveries,
        f.evictions,
        f.job_failures,
        f.retries,
        f.retry_successes,
        f.failed_jobs,
    ] {
        fnv(&mut h, x);
    }
    (h, done.len())
}

/// Digests of the event-driven simulator at the default `sched_depth`,
/// the same simulator cut to `SHALLOW` jobs per pass (so the
/// top-`sched_depth` selection decides starts), and the tick-driven
/// reference.
fn run_case(faults: FaultModel, hetero: HeteroModel) -> [(u64, usize); 3] {
    let mut cfg = SimConfig::new(NODES);
    cfg.faults = faults;
    cfg.hetero = hetero.clone();
    let mut shallow = cfg.clone();
    shallow.sched_depth = SHALLOW;
    let mut rcfg = ReferenceConfig::new(NODES);
    rcfg.faults = faults;
    rcfg.hetero = hetero;
    [
        digest(&mut Simulator::new(cfg)),
        digest(&mut Simulator::new(shallow)),
        digest(&mut ReferenceSimulator::new(rcfg)),
    ]
}

#[test]
fn golden_schedule_default_config() {
    let got = run_case(FaultModel::none(), HeteroModel::none());
    assert_eq!(
        got,
        [
            (0xd5f9_5e85_b99b_3367, 360),
            (0x2418_db7d_33a9_66b6, 360),
            (0xa121_cc54_b141_a699, 360),
        ]
    );
}

#[test]
fn golden_schedule_severe_faults_balanced_pools() {
    let got = run_case(FaultModel::severe(11), HeteroModel::balanced(NODES, 5));
    assert_eq!(
        got,
        [
            (0x2e6c_6d76_3dcf_2aee, 355),
            (0xef20_369b_e88a_e361, 355),
            (0x9f99_a5dc_55be_1bb4, 354),
        ]
    );
}
