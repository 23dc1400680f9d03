//! `train_mirage`: the paper's §6 pipeline for its default MoE+DQN model.
//!
//! The fixed V100 three-month trace ([`crate::TRACE_SEED`]) is split
//! 80:20 in time. The offline collection starts and the validation
//! episodes are fixed too, like a benchmark's data set and validation
//! split; the workload seed is the learner's seed (network
//! initialization, online episode sampling, exploration, backend
//! seeds). One pass runs `collect_offline` → MoE+DQN training →
//! `evaluate` on the validation range against `reactive`. The untraced pass trains through
//! `train_method`; the traced pass calls the public steps it is built
//! from (`build_pretrained_net`, `sample_training_starts`,
//! `train_dqn_online`) so each can carry its own span. The two must take
//! identical validation decisions, which is what keeps that replica from
//! drifting away from `train_method`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mirage_core::eval::{evaluate, EvalConfig, EvalReport};
use mirage_core::policy::{DqnPolicy, ProvisionPolicy, ReactivePolicy};
use mirage_core::train::{
    build_pretrained_net, collect_offline, sample_training_starts, train_dqn_online, train_method,
    MethodKind, TrainConfig,
};
use mirage_nn::foundation::FoundationKind;
use mirage_sim::{AnyBackend, BackendFactory, BackendPool, ClusterBackend, SimBuilder, SimConfig};
use mirage_trace::{
    clean_trace, split_by_time, ClusterProfile, JobRecord, SynthConfig, TraceGenerator,
};

use crate::stats::Digest;
use crate::timed::{Meter, TimedBackend, TimedPolicy};
use crate::tracer::{Split, Tracer};
use crate::{PassOut, Workload};

/// Trace length in 30-day months.
const MONTHS: u32 = 3;
/// Offline collection starts, online training episodes and validation
/// episodes of one pass, and the reward samples pretraining uses. A
/// pass is kept near one second so a run repeats it often enough for
/// each stretch's fastest instance to miss the host's slow spells.
const OFFLINE_EPISODES: usize = 4;
const ONLINE_EPISODES: usize = 16;
const EVAL_EPISODES: usize = 12;
const PRETRAIN_SAMPLES: usize = 300;

/// Collection workers of the backend pool. One, so the whole pass runs
/// on one thread and asks for its state samples in the same order every
/// pass, which the per-sample timing elements need.
const POOL_WORKERS: usize = 1;

const MOE: &str = "MoE+DQN";

pub struct Train {
    jobs: Vec<JobRecord>,
    builder: SimBuilder,
    cfg: TrainConfig,
    starts: Vec<i64>,
    train_range: (i64, i64),
    val_range: (i64, i64),
    eval: EvalConfig,
    seed: u64,
    eval_backend: AnyBackend,
}

impl Train {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let profile = ClusterProfile::v100();
        let raw = tr.span("trace.synth", || {
            let mut cfg = SynthConfig::new(profile.clone(), crate::TRACE_SEED);
            cfg.months = Some(MONTHS);
            TraceGenerator::new(cfg).generate()
        });
        let jobs = tr.span("trace.clean", || clean_trace(&raw, profile.nodes).0);
        let split = split_by_time(&jobs, 0.8);
        let first = jobs.first().map_or(0, |j| j.submit);
        let last = jobs.last().map_or(0, |j| j.submit);
        let train_range = (first, split.split_time);
        let val_range = (split.split_time, last);

        let mut cfg = TrainConfig::default();
        cfg.episode.pair_user = mirage_bench::busiest_user(&jobs);
        cfg.offline_episodes = OFFLINE_EPISODES;
        cfg.online_episodes = ONLINE_EPISODES;
        cfg.max_pretrain_samples = PRETRAIN_SAMPLES;
        cfg.seed = seed;
        let starts = sample_training_starts(
            &jobs,
            profile.nodes,
            train_range.0,
            train_range.1,
            &cfg.episode,
            cfg.offline_episodes,
            crate::TRACE_SEED,
        );
        let builder = SimConfig::builder().nodes(profile.nodes).seed(seed);
        let eval_backend = tr.span("sim.warmup", || builder.build());
        let eval = EvalConfig {
            episode: cfg.episode,
            n_episodes: EVAL_EPISODES,
            seed: crate::TRACE_SEED ^ 0xEE,
        };
        Self {
            jobs,
            builder,
            cfg,
            starts,
            train_range,
            val_range,
            eval,
            seed,
            eval_backend,
        }
    }
}

/// Mean interruption (h) and zero-interruption share of one method over
/// every validation episode.
fn method_quality(report: &EvalReport, method: &str) -> (f64, f64) {
    let outcomes: Vec<_> = report
        .episodes
        .iter()
        .flat_map(|e| e.methods.iter().filter(|m| m.method == method))
        .map(|m| m.outcome)
        .collect();
    let n = outcomes.len().max(1) as f64;
    let hours = outcomes
        .iter()
        .map(|o| o.interruption as f64 / 3600.0)
        .sum::<f64>()
        / n;
    let zero = outcomes.iter().filter(|o| o.zero_interruption()).count() as f64 / n;
    (hours, zero)
}

impl Workload for Train {
    fn pass(&mut self, tr: &mut Tracer) -> PassOut {
        let timing = tr.is_on();
        let started = Instant::now();
        let sim_meter = Arc::new(Meter::default());
        let policy_meter = Arc::new(Meter::default());
        let builder = &self.builder;
        let meter = Arc::clone(&sim_meter);
        let factory = move |s: u64| {
            TimedBackend::new(
                BackendFactory::build(builder, s),
                Arc::clone(&meter),
                timing,
            )
        };
        let pool = BackendPool::with_seed(factory, POOL_WORKERS, self.seed);

        let before = sim_meter.read();
        tr.enter("train.offline");
        let data = collect_offline(&pool, &self.jobs, &self.cfg, &self.starts);
        let offline = sim_meter.read().since(before);
        // One pool worker: collection's simulator time never overlaps
        // the span's own work.
        tr.record_child("sim.offline", offline.busy_ns);
        tr.exit();

        let before = sim_meter.read();
        let moe: Box<dyn ProvisionPolicy> = if timing {
            let foundation = FoundationKind::MoE {
                experts: self.cfg.moe_experts,
            };
            let net = tr.span("train.pretrain", || {
                build_pretrained_net(foundation, &self.cfg, &data)
            });
            tr.enter("train.online");
            let online_starts = sample_training_starts(
                &self.jobs,
                pool.build_one().total_nodes(),
                self.train_range.0,
                self.train_range.1,
                &self.cfg.episode,
                self.cfg.online_episodes.max(1),
                self.cfg.seed ^ 0x51,
            );
            let agent = train_dqn_online(net, &pool, &self.jobs, &self.cfg, &online_starts, &data);
            // Online collection runs on one training worker, so its
            // simulator time never overlaps the span's own work.
            tr.record_child("sim.online", sim_meter.read().since(before).busy_ns);
            tr.exit();
            Box::new(DqnPolicy {
                agent,
                label: MethodKind::MoeDqn.label().into(),
            })
        } else {
            train_method(
                MethodKind::MoeDqn,
                &pool,
                &self.jobs,
                &self.cfg,
                &data,
                self.train_range,
            )
        };
        let online = sim_meter.read().since(before);

        let mut methods = vec![
            TimedPolicy::boxed(Box::new(ReactivePolicy), Arc::clone(&policy_meter), timing),
            TimedPolicy::boxed(moe, Arc::clone(&policy_meter), timing),
        ];
        let before = sim_meter.read();
        tr.enter("eval");
        let mut backend = TimedBackend::new(&mut self.eval_backend, Arc::clone(&sim_meter), timing);
        let report = evaluate(
            &mut methods,
            &mut backend,
            &self.jobs,
            self.val_range,
            &self.eval,
        );
        let eval_sim = sim_meter.read().since(before);
        let eval_policy = policy_meter.read();
        // Evaluation is single-threaded: simulator and policy time are
        // sequential children of the span.
        tr.record_child("sim.eval", eval_sim.busy_ns);
        tr.record_child("nn.eval_policy", eval_policy.busy_ns);
        tr.exit();
        let ended = Instant::now();
        let wall_ns = (ended - started).as_nanos() as u64;
        // The pass runs on one thread, so its state samples come in the
        // same order every pass: the stretches between consecutive
        // samples (and from the pass's start and to its end) are the
        // same work in every pass.
        let mut bounds = vec![started];
        bounds.extend(sim_meter.take_marks());
        bounds.push(ended);
        let elements_ns = bounds
            .windows(2)
            .map(|w| (w[1] - w[0]).as_nanos() as u64)
            .collect();

        let mut figures = BTreeMap::new();
        if timing {
            for (name, reading) in [
                ("train.offline_sim_s", offline),
                ("train.online_sim_s", online),
                ("eval.sim_s", eval_sim),
                ("eval.policy_s", eval_policy),
            ] {
                figures.insert(name, reading.busy_ns as f64 / 1e9);
            }
        }

        let mut digest = Digest::default();
        let mut failed = 0u64;
        let mut attempted = 0u64;
        for ep in &report.episodes {
            digest.add_i64(ep.t0);
            digest.add_i64(ep.reactive_wait);
            for m in &ep.methods {
                let o = &m.outcome;
                for w in [o.interruption, o.overlap, o.fault_interruption] {
                    digest.add_i64(w);
                }
                digest.add(o.guard_fallbacks);
                digest.add(u64::from(m.proactive));
                if m.method == MOE {
                    attempted += 1;
                    failed += u64::from(o.guard_fallbacks > 0 || o.interruption < 0);
                }
            }
        }
        let (moe_h, moe_zero) = method_quality(&report, MOE);
        let (reactive_h, _) = method_quality(&report, "reactive");
        let reduction = if reactive_h > 0.0 {
            (1.0 - moe_h / reactive_h) * 100.0
        } else {
            0.0
        };
        figures.insert("train.pipeline_s", wall_ns as f64 / 1e9);
        figures.insert("train.reward_samples", data.reward_samples.len() as f64);
        figures.insert("train.online_decisions", online.samples as f64);
        figures.insert("eval.episodes", report.episodes.len() as f64);
        figures.insert("eval.interruption_h", moe_h);
        figures.insert("eval.zero_interruption_frac", moe_zero);
        figures.insert("eval.reactive_interruption_h", reactive_h);
        figures.insert("eval.interruption_reduction_pct", reduction);
        figures.insert("trace.jobs", self.jobs.len() as f64);
        PassOut {
            // The operation is the whole pipeline: how many state samples
            // a pass takes depends on how early the learned policy
            // submits during validation, which moved a per-sample rate
            // by 20 % between seeds.
            ops: 1,
            elements_ns,
            attempted,
            failed,
            digest: digest.value(),
            figures,
        }
    }

    fn span_figures(&self, split: &Split, _tr: &Tracer) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (metric, span) in [
            ("train.offline_s", "train.offline"),
            ("train.pretrain_s", "train.pretrain"),
            ("train.online_s", "train.online"),
            ("eval.s", "eval"),
        ] {
            out.insert(metric, split.name(span).total_ns as f64 / 1e9);
        }
        out
    }

    fn named(
        &self,
        f: &BTreeMap<&'static str, f64>,
        _ops_per_s: f64,
    ) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("train_pipeline_s", f["train.pipeline_s"], "s"),
            ("interruption_h", f["eval.interruption_h"], "h"),
            (
                "zero_interruption_frac",
                f["eval.zero_interruption_frac"],
                "frac",
            ),
        ]
    }

    fn regime(&self, f: &BTreeMap<&'static str, f64>) -> Result<(), String> {
        if f["train.reward_samples"] < 1.0 {
            return Err("offline collection produced no reward samples".into());
        }
        if f["eval.episodes"] < 1.0 {
            return Err("no validation episode was evaluated".into());
        }
        Ok(())
    }
}
