//! Measuring wrappers handed to the training and evaluation entry points:
//! a [`ClusterBackend`] that forwards every call to the simulator it
//! wraps, and a [`ProvisionPolicy`] that forwards every call to the
//! policy it wraps. The backend wrapper counts state samples and marks
//! the instant of each; with timing on, both also sum the wall time
//! spent inside the wrapped calls. Forwarding keeps behaviour
//! identical, which the benchmark checks by comparing decisions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mirage_core::episode::{Action, DecisionContext};
use mirage_core::policy::ProvisionPolicy;
use mirage_sim::{
    ClusterBackend, ClusterSnapshot, FaultStats, HeteroStats, JobFaults, JobStatus, ServiceUsage,
    SimMetrics,
};
use mirage_trace::JobRecord;

/// Busy-time and sample totals shared by every wrapper of one phase
/// group. Statistics only, so relaxed atomics suffice.
#[derive(Debug, Default)]
pub struct Meter {
    busy_ns: AtomicU64,
    samples: AtomicU64,
    /// When each state sample was asked for, in call order.
    marks: Mutex<Vec<Instant>>,
}

/// A point-in-time copy of a [`Meter`].
#[derive(Debug, Default, Clone, Copy)]
pub struct MeterReading {
    pub busy_ns: u64,
    /// `sample`/`sample_into` calls: one per decision tick or history row.
    pub samples: u64,
}

impl MeterReading {
    pub fn since(self, earlier: MeterReading) -> MeterReading {
        MeterReading {
            busy_ns: self.busy_ns - earlier.busy_ns,
            samples: self.samples - earlier.samples,
        }
    }
}

impl Meter {
    pub fn read(&self) -> MeterReading {
        MeterReading {
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            samples: self.samples.load(Ordering::Relaxed),
        }
    }

    /// The sample marks recorded so far, leaving none.
    pub fn take_marks(&self) -> Vec<Instant> {
        std::mem::take(&mut *self.marks.lock().expect("meter marks"))
    }

    fn mark_sample(&self) {
        self.samples.fetch_add(1, Ordering::Relaxed);
        self.marks.lock().expect("meter marks").push(Instant::now());
    }

    fn add(&self, started: Option<Instant>) {
        if let Some(t) = started {
            self.busy_ns
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// Starts a clock only when timing is on.
#[inline]
fn start(timing: bool) -> Option<Instant> {
    timing.then(Instant::now)
}

/// A backend that meters every call into the one it wraps.
pub struct TimedBackend<B> {
    inner: B,
    meter: Arc<Meter>,
    timing: bool,
}

impl<B> TimedBackend<B> {
    pub fn new(inner: B, meter: Arc<Meter>, timing: bool) -> Self {
        Self {
            inner,
            meter,
            timing,
        }
    }
}

/// Forwards one trait method through the meter.
macro_rules! metered {
    ($self:ident, $call:expr) => {{
        let t = start($self.timing);
        let r = $call;
        $self.meter.add(t);
        r
    }};
}

impl<B: ClusterBackend> ClusterBackend for TimedBackend<B> {
    fn now(&self) -> i64 {
        metered!(self, self.inner.now())
    }
    fn total_nodes(&self) -> u32 {
        metered!(self, self.inner.total_nodes())
    }
    fn free_nodes(&self) -> u32 {
        metered!(self, self.inner.free_nodes())
    }
    fn available_nodes(&self) -> u32 {
        metered!(self, self.inner.available_nodes())
    }
    fn recent_evictions(&self, window: i64) -> u32 {
        metered!(self, self.inner.recent_evictions(window))
    }
    fn fault_stats(&self) -> FaultStats {
        metered!(self, self.inner.fault_stats())
    }
    fn job_faults(&self, id: u64) -> JobFaults {
        metered!(self, self.inner.job_faults(id))
    }
    fn pool_free(&self) -> Vec<u32> {
        metered!(self, self.inner.pool_free())
    }
    fn pool_total(&self) -> Vec<u32> {
        metered!(self, self.inner.pool_total())
    }
    fn hetero_stats(&self) -> HeteroStats {
        metered!(self, self.inner.hetero_stats())
    }
    fn contended_running(&self) -> u32 {
        metered!(self, self.inner.contended_running())
    }
    fn load_trace(&mut self, jobs: &[JobRecord]) {
        metered!(self, self.inner.load_trace(jobs))
    }
    fn submit(&mut self, job: JobRecord) -> u64 {
        metered!(self, self.inner.submit(job))
    }
    fn sample(&self) -> ClusterSnapshot {
        self.meter.mark_sample();
        metered!(self, self.inner.sample())
    }
    fn sample_into(&self, out: &mut ClusterSnapshot) {
        self.meter.mark_sample();
        metered!(self, self.inner.sample_into(out))
    }
    fn status(&self, id: u64) -> Option<JobStatus> {
        metered!(self, self.inner.status(id))
    }
    fn step(&mut self, dt: i64) {
        metered!(self, self.inner.step(dt))
    }
    fn run_until(&mut self, t_end: i64) {
        metered!(self, self.inner.run_until(t_end))
    }
    fn run_to_completion(&mut self) {
        metered!(self, self.inner.run_to_completion())
    }
    fn is_active(&self) -> bool {
        metered!(self, self.inner.is_active())
    }
    fn completed(&self) -> Vec<JobRecord> {
        metered!(self, self.inner.completed())
    }
    fn metrics(&self) -> SimMetrics {
        metered!(self, self.inner.metrics())
    }
    fn avg_recent_wait(&self, window: i64) -> Option<f64> {
        metered!(self, self.inner.avg_recent_wait(window))
    }
    fn user_usage(&self, user: u32) -> ServiceUsage {
        metered!(self, self.inner.user_usage(user))
    }
    fn reset(&mut self) {
        metered!(self, self.inner.reset())
    }
    fn reset_with(&mut self, trace: &[JobRecord]) {
        metered!(self, self.inner.reset_with(trace))
    }
}

/// A policy that meters every decision of the one it wraps.
pub struct TimedPolicy {
    inner: Box<dyn ProvisionPolicy>,
    meter: Arc<Meter>,
    timing: bool,
}

impl TimedPolicy {
    pub fn boxed(
        inner: Box<dyn ProvisionPolicy>,
        meter: Arc<Meter>,
        timing: bool,
    ) -> Box<dyn ProvisionPolicy> {
        Box::new(Self {
            inner,
            meter,
            timing,
        })
    }
}

impl ProvisionPolicy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn decide(&mut self, ctx: &DecisionContext) -> Action {
        metered!(self, self.inner.decide(ctx))
    }
    fn guard_fallbacks(&self) -> u64 {
        self.inner.guard_fallbacks()
    }
}
