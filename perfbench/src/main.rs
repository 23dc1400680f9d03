//! Workload benchmark for the Mirage reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop driven from this one process. With
//! `--trace 0` the run sets up at least five times and for at least one
//! second (reporting the median set-up time), then repeats passes of the
//! workload's unit of work for `--seconds` and prints the end-to-end
//! metrics, the operation rate taken from the fastest instance of each
//! part of a pass among them.
//! With `--trace 1` it runs one untraced pass, then sets up and runs the same pass again
//! with spans recorded around every call into a layer (set-up and pass
//! traced separately), and prints the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Checks that fail the run (`correct: false`, exit code 1): every pass
//! takes bit-identical decisions (digest), the traced pass takes the
//! untraced pass's decisions, the workload's count-based regime guard
//! holds, and the traced self times account for the traced pass's wall
//! time.

mod fingerprint;
mod replay;
mod serve;
mod stats;
mod timed;
mod tracer;
mod train;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use stats::{median, peak_rss_mb};
use tracer::{Split, Tracer};

/// Seed of every synthetic cluster trace. The traces are fixed data sets,
/// as the paper's cluster logs are: across trace seeds the generator's
/// multi-day demand campaigns move a trace's mean queue depth by more
/// than 10x (and tick-driven replay cost by 20x), so no bound could hold
/// on a benchmark whose trace changed with the workload seed. The
/// workload seed drives what the paper randomizes instead: network
/// initialization, episode sampling, exploration, and the arrivals'
/// phase against the reference simulator's clock.
pub const TRACE_SEED: u64 = 42;

/// What one pass of a workload's unit of work produced.
pub struct PassOut {
    /// Operations in the pass (decisions, pipelines, replay events).
    pub ops: u64,
    /// Time the operations took, ns, split into elements that are the
    /// same work in every pass: one per decision, stretch between two
    /// state samples, or simulated day of a replay.
    pub elements_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of every decision or outcome: equal passes, equal digests.
    pub digest: u64,
    /// Workload counters and figures, keyed by metric name.
    pub figures: BTreeMap<&'static str, f64>,
}

pub trait Workload {
    /// One unit of work; leaves the workload ready for an identical pass.
    fn pass(&mut self, tr: &mut Tracer) -> PassOut;
    /// Per-layer metrics read from a traced pass's spans.
    fn span_figures(&self, _split: &Split, _tr: &Tracer) -> BTreeMap<&'static str, f64> {
        BTreeMap::new()
    }
    /// The workload's own end-to-end figures, for the report lines.
    fn named(
        &self,
        figures: &BTreeMap<&'static str, f64>,
        ops_per_s: f64,
    ) -> Vec<(&'static str, f64, &'static str)>;
    /// Count-based guard: fails when the inputs no longer stress what
    /// the workload was chosen for.
    fn regime(&self, figures: &BTreeMap<&'static str, f64>) -> Result<(), String>;
}

const WORKLOADS: [&str; 4] = [
    "serve_quiet",
    "serve_congested",
    "train_mirage",
    "replay_two_clocks",
];

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
];

/// Layers, named after their crate or module.
const LAYERS: [&str; 8] = [
    "trace", "sim", "ref", "state", "nn", "train", "eval", "bench",
];

/// Per-layer metrics, printed by every traced run; a metric of a layer
/// the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 55] = [
    ("trace.self_pct", "%"),
    ("sim.self_pct", "%"),
    ("ref.self_pct", "%"),
    ("state.self_pct", "%"),
    ("nn.self_pct", "%"),
    ("train.self_pct", "%"),
    ("eval.self_pct", "%"),
    ("bench.self_pct", "%"),
    ("bench.unattributed_pct", "%"),
    ("bench.accounting_err_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.failed_frac", "frac"),
    ("trace.synth_s", "s"),
    ("trace.clean_s", "s"),
    ("trace.jobs", "count"),
    ("sim.warmup_s", "s"),
    ("nn.forward_ns", "ns"),
    ("nn.forward_flops", "FLOP"),
    ("sim.step_ns", "ns"),
    ("sim.step_p99_ns", "ns"),
    ("sim.events_per_step", "count"),
    ("sim.sample_ns", "ns"),
    ("state.encode_ns", "ns"),
    ("state.matrix_ns", "ns"),
    ("state.select_path_frac", "frac"),
    ("sim.backlog_mean", "count"),
    ("sim.backlog_p90", "count"),
    ("serve.decision_p50_us", "us"),
    ("serve.decision_p99_us", "us"),
    ("serve.decisions", "count"),
    ("train.pipeline_s", "s"),
    ("train.offline_s", "s"),
    ("train.pretrain_s", "s"),
    ("train.online_s", "s"),
    ("eval.s", "s"),
    ("train.offline_sim_s", "s"),
    ("train.online_sim_s", "s"),
    ("eval.sim_s", "s"),
    ("eval.policy_s", "s"),
    ("train.reward_samples", "count"),
    ("train.online_decisions", "count"),
    ("eval.episodes", "count"),
    ("eval.interruption_h", "h"),
    ("eval.zero_interruption_frac", "frac"),
    ("eval.reactive_interruption_h", "h"),
    ("eval.interruption_reduction_pct", "%"),
    ("sim.replay_s", "s"),
    ("ref.replay_s", "s"),
    ("sim.events_per_s", "1/s"),
    ("ref.events_per_s", "1/s"),
    ("ref.event_speedup", "x"),
    ("ref.fidelity_makespan_err_pct", "%"),
    ("ref.fidelity_jct_err_pct", "%"),
    ("bench.traced_wall_s", "s"),
    ("bench.spans", "count"),
];

/// Set-ups per untraced run at least, and the time they take at least;
/// the median is reported. Quick set-ups repeat more often, so their
/// median holds as steady as that of slow ones.
const SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Passes per untraced run at least, so repeats can be compared.
const MIN_PASSES: usize = 2;
/// Largest accepted gap, in percent of the traced wall time, between
/// the per-layer self times plus the unattributed time and that wall time.
const ACCOUNTING_TOLERANCE_PCT: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        let k = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected {k}"))?;
        flags.insert(k, v);
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The result of one run.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Failed checks; empty when the run is correct.
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

fn check_digests(passes: &[&PassOut], what: &str, errors: &mut Vec<String>) {
    if let Some(first) = passes.first() {
        for (i, p) in passes.iter().enumerate().skip(1) {
            if p.digest != first.digest {
                errors.push(format!(
                    "{what} {i} decided differently: digest {:016x} vs {:016x}",
                    p.digest, first.digest
                ));
            }
        }
    }
}

/// Median of each figure across passes.
fn median_figures(passes: &[PassOut]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for name in passes[0].figures.keys() {
        let vals: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.figures.get(name).copied())
            .collect();
        out.insert(*name, median(&vals));
    }
    out
}

fn untraced<W: Workload>(setup: &dyn Fn(&mut Tracer) -> W, seconds: f64) -> Outcome {
    let mut off = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut workload = None;
    let setups_started = Instant::now();
    while setup_s.len() < SETUPS || setups_started.elapsed() < SETUP_BUDGET {
        drop(workload.take()); // free the previous set-up before timing the next
        let t = Instant::now();
        workload = Some(setup(&mut off));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up");

    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    // Memory is read after the first pass: later passes repeat the same
    // work, and how many fit in the budget depends on the machine.
    let mut rss_mb = 0.0;
    while passes.len() < MIN_PASSES || started.elapsed() < budget {
        passes.push(w.pass(&mut off));
        if passes.len() == 1 {
            rss_mb = peak_rss_mb();
        }
    }

    let mut errors = Vec::new();
    check_digests(&passes.iter().collect::<Vec<_>>(), "pass", &mut errors);
    let figures = median_figures(&passes);
    if let Err(e) = w.regime(&figures) {
        errors.push(format!("regime: {e}"));
    }
    // Every element repeats identical work in every pass, and interference
    // from other tenants of a shared host only ever slows it: the fastest
    // instance of each element, summed, estimates the program's own time.
    // (The median pass rate spread twice as far between runs.)
    let mut best = passes[0].elements_ns.clone();
    for p in &passes[1..] {
        assert_eq!(
            p.elements_ns.len(),
            best.len(),
            "passes repeat the same work"
        );
        for (b, &e) in best.iter_mut().zip(&p.elements_ns) {
            *b = (*b).min(e);
        }
    }
    let ops_per_s = passes[0].ops as f64 / (best.iter().sum::<u64>() as f64 / 1e9);
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let mut notes = vec![format!(
        "passes {} (setups {}), ops per pass {}",
        passes.len(),
        setup_s.len(),
        passes[0].ops
    )];
    for (name, value, unit) in w.named(&figures, ops_per_s) {
        notes.push(format!("named {name} = {value} {unit}"));
    }
    notes.push(format!(
        "named failed_frac = {} frac",
        failed as f64 / attempted.max(1) as f64
    ));
    Outcome {
        attempted,
        failed,
        errors,
        metrics: END_TO_END
            .iter()
            .zip([median(&setup_s), rss_mb, ops_per_s])
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect(),
        notes,
    }
}

fn traced<W: Workload>(setup: &dyn Fn(&mut Tracer) -> W) -> Outcome {
    let mut off = Tracer::new(false);
    let mut w = setup(&mut off);
    let t = Instant::now();
    let base = w.pass(&mut off);
    let base_wall = t.elapsed().as_secs_f64();
    drop(w);

    // Set-up and pass are traced separately: set-up spans feed the
    // set-up metrics, the pass's spans the layer split of the pass.
    let mut setup_tr = Tracer::new(true);
    let mut w = setup(&mut setup_tr);
    let setup_split = setup_tr.split();
    let mut tr = Tracer::new(true);
    let t = Instant::now();
    let traced = w.pass(&mut tr);
    let pass_wall = t.elapsed().as_secs_f64();
    let wall_ns = pass_wall * 1e9;
    let split = tr.split();

    let mut errors = Vec::new();
    check_digests(&[&base, &traced], "traced pass", &mut errors);
    if let Err(e) = w.regime(&base.figures) {
        errors.push(format!("regime: {e}"));
    }

    let layers = split.layer_self_ns();
    let unattributed_ns = wall_ns - split.roots_ns as f64;
    let self_sum: u64 = layers.values().sum();
    let accounting_err_pct =
        ((self_sum as f64 + unattributed_ns - wall_ns) / wall_ns * 100.0).abs();
    if accounting_err_pct > ACCOUNTING_TOLERANCE_PCT {
        errors.push(format!(
            "self times plus unattributed time miss the traced wall time by {accounting_err_pct:.3} %"
        ));
    }
    if let Some(unknown) = layers.keys().find(|l| !LAYERS.contains(l)) {
        errors.push(format!("span of unknown layer {unknown}"));
    }

    let share = |layer: &str| layers.get(layer).copied().unwrap_or(0) as f64 / wall_ns * 100.0;
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, _) in PER_LAYER {
        if let Some(layer) = name.strip_suffix(".self_pct") {
            values.insert(name, share(layer));
        }
    }
    values.insert("bench.unattributed_pct", unattributed_ns / wall_ns * 100.0);
    values.insert("bench.accounting_err_pct", accounting_err_pct);
    values.insert(
        "bench.trace_overhead_pct",
        (pass_wall - base_wall) / base_wall * 100.0,
    );
    let attempted = base.attempted + traced.attempted;
    let failed = base.failed + traced.failed;
    values.insert("bench.failed_frac", failed as f64 / attempted.max(1) as f64);
    for (metric, span) in [
        ("trace.synth_s", "trace.synth"),
        ("trace.clean_s", "trace.clean"),
        ("sim.warmup_s", "sim.warmup"),
    ] {
        values.insert(metric, setup_split.name(span).total_ns as f64 / 1e9);
    }
    values.insert("bench.traced_wall_s", wall_ns / 1e9);
    values.insert("bench.spans", (split.spans + setup_split.spans) as f64);
    values.extend(w.span_figures(&split, &tr));
    // Counts and latencies from the untraced pass; what only a timed
    // pass measures from the traced one.
    values.extend(traced.figures);
    values.extend(base.figures);

    let mut notes = Vec::new();
    let mut shares: Vec<(&str, f64)> = LAYERS.iter().map(|l| (*l, share(l))).collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    notes.push(format!(
        "layer self-time shares of the {:.3} s traced pass: {}",
        wall_ns / 1e9,
        shares
            .iter()
            .map(|(l, p)| format!("{l} {p:.1}%"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Outcome {
        attempted,
        failed,
        errors,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect(),
        notes,
    }
}

fn run_workload(args: &Args) -> Outcome {
    let seed = args.seed;
    macro_rules! go {
        ($setup:expr) => {
            if args.trace {
                traced(&$setup)
            } else {
                untraced(&$setup, args.seconds)
            }
        };
    }
    match args.workload.as_str() {
        "serve_quiet" => go!(|tr: &mut Tracer| serve::Serve::setup(serve::Regime::Quiet, seed, tr)),
        "serve_congested" => {
            go!(|tr: &mut Tracer| serve::Serve::setup(serve::Regime::Congested, seed, tr))
        }
        "train_mirage" => go!(|tr: &mut Tracer| train::Train::setup(seed, tr)),
        "replay_two_clocks" => go!(|tr: &mut Tracer| replay::Replay::setup(seed, tr)),
        other => unreachable!("parse_args accepts only known workloads, not {other}"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    println!("fingerprint {}", fingerprint::json());
    let mut out = run_workload(&args);
    for (name, value, _) in &out.metrics {
        if !value.is_finite() {
            out.errors.push(format!("metric {name} is not finite"));
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    for e in &out.errors {
        println!("check failed: {e}");
    }
    if out.errors.is_empty() {
        println!(
            "checks passed: repeat digests, traced = untraced decisions, regime guard, accounting"
        );
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.errors.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if !out.errors.is_empty() {
        std::process::exit(1);
    }
}
