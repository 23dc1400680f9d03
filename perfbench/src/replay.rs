//! `replay_two_clocks`: the §5.2 fidelity and speed check. A pass
//! replays the fixed V100 three-month trace to completion through the
//! event-driven `Simulator` and through the tick-driven
//! `ReferenceSimulator`, then compares the two (`compare`). Each replay
//! is `run_timed` taken a simulated day at a time, so that every day is
//! a timing element of its own; the run checks that it completes every
//! job exactly as `run_timed` does. No policy is in the loop. The
//! workload seed shifts every arrival by the same few seconds, which
//! moves the arrivals against the reference clock's 30 s ticks, 60 s
//! scheduling passes and 120 s backfill passes: where the two clocks
//! disagree depends on that phase, while the work a pass does stays the
//! same. (Replaying seed-picked weeks, as the paper does, makes the
//! tick-driven cost swing threefold between seeds, which no bound could
//! hold.)

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mirage_sim::{compare, run_timed, AnyBackend, BackendKind, ClusterBackend, SimConfig};
use mirage_trace::{
    clean_trace, split_seed, ClusterProfile, JobRecord, SynthConfig, TraceGenerator, DAY,
};

use crate::stats::Digest;
use crate::tracer::Tracer;
use crate::{PassOut, Workload};

const MONTHS: u32 = 3;
/// Arrival shifts range over one reference backfill interval.
const MAX_SHIFT: u64 = 120;
/// Simulated time replayed per timing element: a whole number of the
/// reference clock's 30 s ticks and 60/120 s scheduling passes, so day
/// by day the clock takes the ticks `run_to_completion` takes.
const ELEMENT: i64 = DAY;

pub struct Replay {
    jobs: Vec<JobRecord>,
    fast: AnyBackend,
    reference: AnyBackend,
    /// Digest of the last pass's completed jobs on both clocks.
    digest: u64,
}

/// The event-driven and the tick-driven backend of the V100 cluster.
fn backends() -> (AnyBackend, AnyBackend) {
    let builder = SimConfig::builder().nodes(ClusterProfile::v100().nodes);
    (
        builder.clone().backend(BackendKind::EventDriven).build(),
        builder.backend(BackendKind::Tick).build(),
    )
}

/// `run_timed`, a simulated day at a time: resets the backend, loads the
/// trace and runs while work remains, pushing each day's wall time
/// (loading counts towards the first) onto `elements`.
fn replay_by_day(
    backend: &mut AnyBackend,
    jobs: &[JobRecord],
    elements: &mut Vec<u64>,
) -> (Vec<JobRecord>, Duration) {
    backend.reset();
    let started = Instant::now();
    let mut lap = started;
    backend.load_trace(jobs);
    while backend.is_active() {
        let until = backend.now() + ELEMENT;
        backend.run_until(until);
        let now = Instant::now();
        elements.push((now - lap).as_nanos() as u64);
        lap = now;
    }
    (backend.completed(), started.elapsed())
}

/// Digest of the completed jobs of both clocks, in completion order.
fn digest_of(runs: [&[JobRecord]; 2]) -> u64 {
    let mut digest = Digest::default();
    for done in runs {
        digest.add(done.len() as u64);
        for j in done {
            digest.add(j.id);
            digest.add_i64(j.start.unwrap_or(-1));
            digest.add_i64(j.end.unwrap_or(-1));
        }
    }
    digest.value()
}

impl Replay {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let profile = ClusterProfile::v100();
        let raw = tr.span("trace.synth", || {
            let mut cfg = SynthConfig::new(profile.clone(), crate::TRACE_SEED);
            cfg.months = Some(MONTHS);
            TraceGenerator::new(cfg).generate()
        });
        let mut jobs = tr.span("trace.clean", || clean_trace(&raw, profile.nodes).0);
        let shift = (split_seed(seed, 0) % MAX_SHIFT) as i64;
        for j in &mut jobs {
            j.submit += shift;
        }
        let (fast, reference) = tr.span("sim.warmup", backends);
        Self {
            jobs,
            fast,
            reference,
            digest: 0,
        }
    }
}

/// Replay events of one run: every arrival plus every completion.
fn events(jobs: usize, completed: usize) -> f64 {
    (jobs + completed) as f64
}

impl Workload for Replay {
    fn pass(&mut self, tr: &mut Tracer) -> PassOut {
        let mut elements_ns = Vec::new();
        let (fast_done, fast_t) = tr.span("sim.replay", || {
            replay_by_day(&mut self.fast, &self.jobs, &mut elements_ns)
        });
        let (ref_done, ref_t) = tr.span("ref.replay", || {
            replay_by_day(&mut self.reference, &self.jobs, &mut elements_ns)
        });
        let report = tr.span("ref.compare", || compare(&fast_done, &ref_done));

        let n = self.jobs.len();
        self.digest = digest_of([&fast_done, &ref_done]);
        let missing = (n - fast_done.len().min(n)) + (n - ref_done.len().min(n));
        let fast_events = events(n, fast_done.len());
        let ref_events = events(n, ref_done.len());
        let (fast_s, ref_s) = (fast_t.as_secs_f64(), ref_t.as_secs_f64());

        let mut figures = BTreeMap::new();
        figures.insert("sim.replay_s", fast_s);
        figures.insert("ref.replay_s", ref_s);
        figures.insert("sim.events_per_s", fast_events / fast_s);
        figures.insert("ref.events_per_s", ref_events / ref_s);
        figures.insert("ref.event_speedup", ref_s / fast_s);
        figures.insert(
            "ref.fidelity_makespan_err_pct",
            report.makespan_rel_diff * 100.0,
        );
        figures.insert("ref.fidelity_jct_err_pct", report.jct_geomean_diff * 100.0);
        figures.insert("ref.jobs_compared", report.jobs_compared as f64);
        figures.insert("trace.jobs", n as f64);
        PassOut {
            ops: (fast_events + ref_events) as u64,
            elements_ns,
            attempted: 2 * n as u64,
            failed: missing as u64,
            digest: self.digest,
            figures,
        }
    }

    fn named(
        &self,
        f: &BTreeMap<&'static str, f64>,
        _ops_per_s: f64,
    ) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("sim_events_per_s", f["sim.events_per_s"], "1/s"),
            ("reference_events_per_s", f["ref.events_per_s"], "1/s"),
            (
                "fidelity_makespan_err_pct",
                f["ref.fidelity_makespan_err_pct"],
                "%",
            ),
            ("fidelity_jct_err_pct", f["ref.fidelity_jct_err_pct"], "%"),
        ]
    }

    fn regime(&self, f: &BTreeMap<&'static str, f64>) -> Result<(), String> {
        // Every submitted job must complete on both clocks, and compare()
        // must match all of them by id.
        if f["ref.jobs_compared"] != f["trace.jobs"] {
            return Err(format!(
                "compare() matched {} of {} jobs",
                f["ref.jobs_compared"], f["trace.jobs"]
            ));
        }
        // Replaying day by day must complete every job as `run_timed`
        // does, on fresh backends of the same configuration.
        let (mut fast, mut reference) = backends();
        let (fast_done, _) = run_timed(&mut fast, &self.jobs);
        let (ref_done, _) = run_timed(&mut reference, &self.jobs);
        if digest_of([&fast_done, &ref_done]) != self.digest {
            return Err("the day-by-day replay differs from run_timed".into());
        }
        Ok(())
    }
}
