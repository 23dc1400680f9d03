//! `serve_quiet` / `serve_congested`: one provisioning pair's decision
//! loop, closed loop at a 10-minute simulated cadence.
//!
//! Each decision is `Simulator::step(600)` → `sample_into` →
//! `StateEncoder::encode_into` → `StateHistory::write_matrix` →
//! `DualHeadNet::q_values` on the experiment-scale Transformer. The loop
//! never submits, so it is the read path. The trace is fixed
//! ([`crate::TRACE_SEED`]) and the workload seed initializes the
//! network, so every seed asks the same cluster states for different
//! decisions. (Letting the seed move the first decision by up to a week
//! moved a congested pass's cost by 1.6x.) A pass serves the pair from
//! the end of the warm-up to the last arrival, then re-warms a fresh
//! simulator so every pass starts from the same state.

use std::collections::BTreeMap;
use std::time::Instant;

use mirage_core::state::{
    EncoderScratch, PredecessorState, StateEncoder, StateHistory, SuccessorSpec, STATE_VARS,
};
use mirage_nn::foundation::FoundationKind;
use mirage_nn::transformer::TransformerConfig;
use mirage_nn::{Matrix, Scratch};
use mirage_rl::{q_pair_is_valid, ActionEncoding, DualHeadConfig, DualHeadNet};
use mirage_sim::{ClusterSnapshot, SimConfig, Simulator};
use mirage_trace::{
    clean_trace, ClusterProfile, JobRecord, SynthConfig, TraceGenerator, DAY, HOUR,
};

use crate::stats::{percentile_sorted, Digest};
use crate::tracer::{Split, Tracer};
use crate::{PassOut, Workload};

/// Simulated seconds between decisions.
const INTERVAL: i64 = 600;
/// Background replay before the first decision, so the queue and the
/// running set are at their steady depth.
const WARMUP: i64 = 12 * DAY;
/// Trace length in 30-day months.
const MONTHS: u32 = 6;
/// Queue depth above which the encoder switches from a sort to
/// selection (`percentiles_in_place` in `mirage-core::state`). Running
/// jobs hold at least one node each, so only the queue can exceed it.
const SELECT_CUTOFF: usize = 128;
/// History rows of the state matrix (experiment scale).
const HISTORY_K: usize = 12;

/// The provisioned pair as the loop sees it: the predecessor has run for
/// 12 h of its 48 h limit; the successor asks for one node for 48 h.
const PRED: PredecessorState = PredecessorState {
    nodes: 1,
    timelimit: 48 * HOUR,
    queue_time: 0,
    elapsed: 12 * HOUR,
};
const SUCC: SuccessorSpec = SuccessorSpec {
    nodes: 1,
    timelimit: 48 * HOUR,
};

fn transformer_config() -> TransformerConfig {
    TransformerConfig {
        input_dim: STATE_VARS,
        seq_len: HISTORY_K,
        d_model: 16,
        heads: 2,
        layers: 1,
        ff_mult: 2,
    }
}

/// Floating-point operations of one `q_values` forward: twice the
/// multiply-adds of every matrix product (embedding, Q/K/V/O
/// projections, attention scores and mixing, feed-forward pair, Q head).
/// Element-wise work (LayerNorm, softmax, GELU, pooling) is not counted.
pub fn forward_flops(c: &TransformerConfig) -> f64 {
    let (k, m, d) = (c.seq_len as f64, c.input_dim as f64, c.d_model as f64);
    let ff = (c.ff_mult * c.d_model) as f64;
    let embed = k * m * d;
    let per_layer = 4.0 * k * d * d + 2.0 * k * k * d + 2.0 * k * d * ff;
    let q_head = d * 2.0;
    2.0 * (embed + c.layers as f64 * per_layer + q_head)
}

/// Which side of the encoder's sort/selection cutoff a workload lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// RTX at load intensity 0.35: the queue stays short.
    Quiet,
    /// RTX at its paper load: deep backlogs for much of the trace.
    Congested,
}

/// Highest selection-path share `serve_quiet` accepts.
const QUIET_MAX_SELECT: f64 = 0.02;
/// Lowest selection-path share `serve_congested` accepts.
const CONGESTED_MIN_SELECT: f64 = 0.10;

impl Regime {
    fn profile(self) -> ClusterProfile {
        match self {
            Regime::Quiet => ClusterProfile {
                load_intensity: 0.35,
                ..ClusterProfile::rtx()
            },
            Regime::Congested => ClusterProfile::rtx(),
        }
    }
}

pub struct Serve {
    regime: Regime,
    jobs: Vec<JobRecord>,
    sim: Simulator,
    nodes: u32,
    decisions: u64,
    net: DualHeadNet,
    encoder: StateEncoder,
    snap: ClusterSnapshot,
    enc: EncoderScratch,
    matrix: Matrix,
    scratch: Scratch,
    /// Decision latencies of the last pass, ns.
    lat_ns: Vec<u32>,
    backlog: Vec<u32>,
}

impl Serve {
    pub fn setup(regime: Regime, seed: u64, tr: &mut Tracer) -> Self {
        let profile = &regime.profile();
        let raw = tr.span("trace.synth", || {
            let mut cfg = SynthConfig::new(profile.clone(), crate::TRACE_SEED);
            cfg.months = Some(MONTHS);
            TraceGenerator::new(cfg).generate()
        });
        let jobs = tr.span("trace.clean", || clean_trace(&raw, profile.nodes).0);
        let sim = tr.span("sim.warmup", || warm_simulator(&jobs, profile.nodes));
        let end = jobs.last().map_or(0, |j| j.submit);
        let decisions = ((end - WARMUP) / INTERVAL).max(1) as u64;
        let net = DualHeadNet::new(DualHeadConfig {
            foundation: FoundationKind::Transformer,
            transformer: transformer_config(),
            action_encoding: ActionEncoding::TwoHead,
            freeze_foundation: false,
            seed,
        });
        Self {
            regime,
            sim,
            nodes: profile.nodes,
            decisions,
            net,
            encoder: StateEncoder::new(profile.nodes, 48 * HOUR),
            snap: ClusterSnapshot::default(),
            enc: EncoderScratch::default(),
            matrix: Matrix::zeros(0, 0),
            scratch: Scratch::new(),
            lat_ns: Vec::new(),
            backlog: Vec::new(),
            jobs,
        }
    }
}

fn warm_simulator(jobs: &[JobRecord], nodes: u32) -> Simulator {
    let mut sim = Simulator::new(SimConfig::new(nodes));
    sim.load_trace(jobs);
    sim.run_until(WARMUP);
    sim
}

impl Workload for Serve {
    fn pass(&mut self, tr: &mut Tracer) -> PassOut {
        let n = self.decisions;
        let mut history = StateHistory::new(HISTORY_K);
        let mut digest = Digest::default();
        let mut failed = 0u64;
        let mut select_path = 0u64;
        self.lat_ns.clear();
        self.backlog.clear();

        // Events = arrivals + completions. Arrivals come from the trace;
        // completions follow from the change in queued + running jobs.
        let mut next_arrival = self.jobs.partition_point(|j| j.submit <= self.sim.now());
        let first_arrival = next_arrival;
        self.sim.sample_into(&mut self.snap);
        let live_before = (self.snap.queued.len() + self.snap.running.len()) as i64;

        for _ in 0..n {
            let t = Instant::now();
            tr.enter("bench.decision");
            tr.span("sim.step", || self.sim.step(INTERVAL));
            tr.span("sim.sample", || self.sim.sample_into(&mut self.snap));
            tr.span("state.encode", || {
                history.push(
                    self.encoder
                        .encode_into(&self.snap, &PRED, &SUCC, &mut self.enc),
                )
            });
            tr.span("state.matrix", || history.write_matrix(&mut self.matrix));
            let q = tr.span("nn.forward", || {
                self.net.q_values(&self.matrix, &mut self.scratch)
            });
            tr.exit();
            self.lat_ns
                .push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));

            if !q_pair_is_valid(q) {
                failed += 1;
            }
            digest.add(u64::from(q[0].to_bits()) << 32 | u64::from(q[1].to_bits()));
            let queued = self.snap.queued.len();
            select_path += u64::from(queued > SELECT_CUTOFF);
            self.backlog.push(queued as u32);
        }

        let now = self.sim.now();
        while next_arrival < self.jobs.len() && self.jobs[next_arrival].submit <= now {
            next_arrival += 1;
        }
        let arrivals = (next_arrival - first_arrival) as i64;
        let live_after = (self.snap.queued.len() + self.snap.running.len()) as i64;
        let completions = live_before + arrivals - live_after;

        let mut lat = self.lat_ns.clone();
        lat.sort_unstable();
        self.backlog.sort_unstable();
        let backlog_mean =
            self.backlog.iter().map(|&b| f64::from(b)).sum::<f64>() / self.backlog.len() as f64;

        // Re-arm: the next pass starts from the same warm state.
        let jobs = &self.jobs;
        let nodes = self.nodes;
        self.sim = tr.span("sim.rewarm", || warm_simulator(jobs, nodes));

        let mut figures = BTreeMap::new();
        figures.insert("serve.decisions", n as f64);
        figures.insert("serve.decision_p50_us", percentile_sorted(&lat, 50.0) / 1e3);
        figures.insert("serve.decision_p99_us", percentile_sorted(&lat, 99.0) / 1e3);
        figures.insert("state.select_path_frac", select_path as f64 / n as f64);
        figures.insert("sim.backlog_mean", backlog_mean);
        figures.insert("sim.backlog_p90", percentile_sorted(&self.backlog, 90.0));
        figures.insert(
            "sim.events_per_step",
            (arrivals + completions) as f64 / n as f64,
        );
        figures.insert("nn.forward_flops", forward_flops(&transformer_config()));
        figures.insert("trace.jobs", self.jobs.len() as f64);
        PassOut {
            ops: n,
            elements_ns: self.lat_ns.iter().map(|&x| u64::from(x)).collect(),
            attempted: n,
            failed,
            digest: digest.value(),
            figures,
        }
    }

    fn span_figures(&self, split: &Split, tr: &Tracer) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (metric, span) in [
            ("sim.step_ns", "sim.step"),
            ("sim.sample_ns", "sim.sample"),
            ("state.encode_ns", "state.encode"),
            ("state.matrix_ns", "state.matrix"),
            ("nn.forward_ns", "nn.forward"),
        ] {
            out.insert(metric, split.name(span).self_mean_ns());
        }
        let mut steps: Vec<f64> = tr.durations("sim.step").iter().map(|&d| d as f64).collect();
        steps.sort_by(f64::total_cmp);
        if !steps.is_empty() {
            out.insert("sim.step_p99_ns", percentile_sorted(&steps, 99.0));
        }
        out
    }

    fn named(
        &self,
        f: &BTreeMap<&'static str, f64>,
        ops_per_s: f64,
    ) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("decisions_per_s", ops_per_s, "1/s"),
            ("decision_p50_us", f["serve.decision_p50_us"], "us"),
            ("decision_p99_us", f["serve.decision_p99_us"], "us"),
        ]
    }

    /// Count-based guard on what the workload stresses: the share of
    /// encodes that ran the selection path must stay on its side.
    fn regime(&self, f: &BTreeMap<&'static str, f64>) -> Result<(), String> {
        let frac = f["state.select_path_frac"];
        match self.regime {
            Regime::Quiet if frac > QUIET_MAX_SELECT => Err(format!(
                "state.select_path_frac {frac} above {QUIET_MAX_SELECT}: the quiet queue is too deep"
            )),
            Regime::Congested if frac < CONGESTED_MIN_SELECT => Err(format!(
                "state.select_path_frac {frac} below {CONGESTED_MIN_SELECT}: the congested queue is too shallow"
            )),
            _ => Ok(()),
        }
    }
}
