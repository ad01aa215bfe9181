//! The in-process evaluation workload `pandas` (Figure 4e–h): each
//! pipeline is timed through `workloads::<p>::{base, mozart, fused}` at
//! Figure 4 scale-1 sizes.

use std::rc::Rc;
use std::time::{Duration, Instant};

use mozart_core::trace::TraceRecorder;
use mozart_core::{Config, MozartContext, PhaseStats, PoolHandle, PoolStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Report;
use crate::stats::{geomean, median, quantile, quartile_spread, Failures};
use crate::{sub_seed, sys, RunArgs};

type Summary = Vec<f64>;
type MozartFn = Box<dyn Fn(&MozartContext) -> mozart_core::Result<Summary>>;

/// One Figure 4 pipeline over its generated inputs.
struct Pipeline {
    name: &'static str,
    /// Relative tolerance of `workloads::close` for this pipeline's
    /// results (the workload crate's own cross-mode tests use the same).
    tol: f64,
    input_bytes: u64,
    base: Box<dyn Fn() -> Summary>,
    mozart: MozartFn,
    fused: Box<dyn Fn(usize) -> Summary>,
}

impl Pipeline {
    fn matches(&self, out: &Summary, reference: &Summary) -> bool {
        out.len() == reference.len()
            && out
                .iter()
                .zip(reference)
                .all(|(a, b)| workloads::close(*a, *b, self.tol))
    }

    /// Whether a Mozart result is present and matches the reference.
    fn check(&self, out: &mozart_core::Result<Summary>, reference: &Summary) -> bool {
        match out {
            Ok(o) => self.matches(o, reference),
            Err(e) => {
                eprintln!("{}: mozart evaluation failed: {e}", self.name);
                false
            }
        }
    }
}

fn frame_bytes(df: &dataframe::DataFrame) -> u64 {
    use dataframe::Column;
    df.columns()
        .iter()
        .map(|(_, c)| match c {
            Column::I64(_) | Column::F64(_) => 8 * c.len() as u64,
            Column::Bool(_) => c.len() as u64,
            Column::Str(_) => c.strs().iter().map(|s| s.len() as u64).sum(),
        })
        .sum()
}

/// The `pandas` pipelines at Figure 4 scale-1 sizes.
fn pandas(seed: u64) -> Vec<Pipeline> {
    use workloads::{
        birth_analysis as ba, crime_index as ci, data_cleaning as dc, movielens as ml,
    };
    let dc_df = Rc::new(dc::generate(1 << 20, sub_seed(seed, 0)));
    let ci_df = Rc::new(ci::generate(1 << 21, sub_seed(seed, 1)));
    let ba_df = Rc::new(ba::generate(1 << 20, sub_seed(seed, 2)));
    let ml_d = Rc::new(ml::generate(1 << 20, sub_seed(seed, 3)));
    let ml_bytes = {
        let (u, m, r) = &ml_d.ratings;
        let (uid, g) = &ml_d.users;
        8 * (u.len() + m.len() + r.len() + uid.len() + ml_d.movies.len()) as u64
            + g.iter().map(|s| s.len() as u64).sum::<u64>()
    };
    let dc_s = |s: dc::Summary| vec![s.valid, s.nulls, s.zip_sum];
    let ci_s = |s: ci::Summary| vec![s.index_sum];
    let ba_s = |s: ba::Summary| vec![s.groups as f64, s.fraction_sum];
    let ml_s = |s: ml::Summary| vec![s.movies_rated_by_both as f64, s.divisiveness_sum];
    vec![
        Pipeline {
            name: "data_cleaning",
            tol: 1e-12,
            input_bytes: frame_bytes(&dc_df),
            base: Box::new({
                let d = dc_df.clone();
                move || dc_s(dc::base(&d))
            }),
            mozart: Box::new({
                let d = dc_df.clone();
                move |c| dc::mozart(&d, c).map(dc_s)
            }),
            fused: Box::new({
                let d = dc_df.clone();
                move |t| dc_s(dc::fused(&d, t))
            }),
        },
        Pipeline {
            name: "crime_index",
            tol: 1e-9,
            input_bytes: frame_bytes(&ci_df),
            base: Box::new({
                let d = ci_df.clone();
                move || ci_s(ci::base(&d))
            }),
            mozart: Box::new({
                let d = ci_df.clone();
                move |c| ci::mozart(&d, c).map(ci_s)
            }),
            fused: Box::new({
                let d = ci_df.clone();
                move |t| ci_s(ci::fused(&d, t))
            }),
        },
        Pipeline {
            name: "birth_analysis",
            tol: 1e-9,
            input_bytes: frame_bytes(&ba_df),
            base: Box::new({
                let d = ba_df.clone();
                move || ba_s(ba::base(&d))
            }),
            mozart: Box::new({
                let d = ba_df.clone();
                move |c| ba::mozart(&d, c).map(ba_s)
            }),
            // The stand-in is single-threaded (a fused serial pass).
            fused: Box::new({
                let d = ba_df.clone();
                move |_| ba_s(ba::fused(&d))
            }),
        },
        Pipeline {
            name: "movielens",
            tol: 1e-9,
            input_bytes: ml_bytes,
            base: Box::new({
                let d = ml_d.clone();
                move || ml_s(ml::base(&d))
            }),
            mozart: Box::new({
                let d = ml_d.clone();
                move |c| ml::mozart(&d, c).map(ml_s)
            }),
            fused: Box::new({
                let d = ml_d.clone();
                move |_| ml_s(ml::fused(&d))
            }),
        },
    ]
}

/// Mozart evaluation contexts. A `MozartContext` keeps every value it
/// has evaluated for its whole lifetime, so a context reused across
/// evaluations grows without bound (see `context.retained_mb`). Each
/// evaluation therefore gets a fresh context, created outside the timed
/// call and attached to one persistent worker pool — the way the serving
/// layer runs its per-request contexts.
pub struct Engine {
    config: Config,
    pool: Option<PoolHandle>,
}

impl Engine {
    /// Register the integrations' split types and start the pool: the
    /// first half of the `setup_s` definition.
    pub fn new(config: Config) -> Engine {
        workloads::register_all_defaults();
        let pool = (config.workers > 1).then(|| PoolHandle::new(config.workers - 1));
        Engine { config, pool }
    }

    /// A fresh context on the engine's pool.
    pub fn context(&self) -> MozartContext {
        let ctx = MozartContext::new(self.config.clone());
        if let Some(pool) = &self.pool {
            ctx.attach_pool(pool.clone());
        }
        ctx
    }

    /// The pool's counters (empty for a one-worker engine).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool
            .as_ref()
            .map(PoolHandle::stats)
            .unwrap_or_default()
    }
}

/// One Mozart evaluation on a fresh context: the result, its wall time
/// and the context's phase statistics.
fn evaluate(p: &Pipeline, engine: &Engine) -> (mozart_core::Result<Summary>, f64, PhaseStats) {
    let ctx = engine.context();
    let t0 = Instant::now();
    let out = (p.mozart)(&ctx);
    let dt = seconds(t0.elapsed());
    (out, dt, ctx.take_stats())
}

/// Per-pipeline facts for the run-context line.
struct Footprint {
    input_bytes: u64,
    split_bytes: u64,
    merged_bytes: u64,
}

fn print_context(args: &RunArgs, workers: usize, pipes: &[Pipeline], feet: &[Footprint]) {
    let llc = sys::llc_bytes().map_or("null".to_string(), |b| b.to_string());
    let per: Vec<String> = pipes
        .iter()
        .zip(feet)
        .map(|(p, f)| {
            format!(
                "{{\"pipeline\": \"{}\", \"input_mb\": {:.3}, \"split_mb\": {:.3}, \"merged_mb\": {:.3}}}",
                p.name,
                f.input_bytes as f64 / 1e6,
                f.split_bytes as f64 / 1e6,
                f.merged_bytes as f64 / 1e6
            )
        })
        .collect();
    println!(
        "context {{\"workload\": \"{}\", \"nproc\": {}, \"workers\": {workers}, \"seed\": {}, \"llc_bytes\": {llc}, \"pipelines\": [{}]}}",
        args.workload,
        sys::nproc(),
        args.seed,
        per.join(", ")
    );
}

/// Reference results: the base library, once per run, outside every
/// timed and setup region.
fn references(pipes: &[Pipeline]) -> Vec<Summary> {
    pipes.iter().map(|p| (p.base)()).collect()
}

/// One checked Mozart evaluation per pipeline, returning each
/// pipeline's split and merged bytes.
fn evaluate_all(
    pipes: &[Pipeline],
    refs: &[Summary],
    engine: &Engine,
    failures: &mut Failures,
) -> Vec<Footprint> {
    pipes
        .iter()
        .zip(refs)
        .map(|(p, r)| {
            let (out, _, s) = evaluate(p, engine);
            failures.record(p.check(&out, r));
            Footprint {
                input_bytes: p.input_bytes,
                split_bytes: s.bytes_split,
                merged_bytes: s.bytes_merged,
            }
        })
        .collect()
}

fn seconds(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Run `pandas`.
pub fn run(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let workers = sys::nproc();
    let pipes = pandas(args.seed);
    let refs = references(&pipes);
    if args.trace {
        traced(args, &pipes, &refs, workers, report)
    } else {
        untraced(args, &pipes, &refs, workers, report)
    }
}

/// Setups measured per run; `setup_s` is their median. Each is a cold
/// evaluation of every pipeline (about 2.5 s on two cores), and three
/// left the median swinging 20% between sets of ten runs.
const SETUP_REPS: usize = 5;

/// Fewest timed evaluations per pipeline, even past the time budget.
const MIN_SAMPLES: usize = 3;

fn untraced(
    args: &RunArgs,
    pipes: &[Pipeline],
    refs: &[Summary],
    workers: usize,
    report: &mut Report,
) -> Result<(), String> {
    let failures = &mut report.failures;
    // Setup: registration, the pool, and the first (cold) evaluation
    // of every pipeline, repeated from scratch.
    // The last setup's engine runs the timed loop; its cold evaluations
    // are the warm-up and give each pipeline's bytes.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let e = Engine::new(Config::with_workers(workers));
        let feet = evaluate_all(pipes, refs, &e, failures);
        setups.push(seconds(t0.elapsed()));
        last = Some((e, feet));
    }
    let (engine, feet) = last.expect("SETUP_REPS > 0");
    println!(
        "setup: {SETUP_REPS} runs, s: {}",
        setups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    print_context(args, workers, pipes, &feet);

    sys::reset_peak_rss().map_err(|e| format!("cannot reset VmHWM: {e}"))?;
    let mut rng = StdRng::seed_from_u64(sub_seed(args.seed, 100));
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); pipes.len()];
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while start.elapsed() < budget || samples.iter().any(|s| s.len() < MIN_SAMPLES) {
        for i in shuffled(pipes.len(), &mut rng) {
            let p = &pipes[i];
            let (out, dt, _) = evaluate(p, &engine);
            let ok = p.check(&out, &refs[i]);
            failures.record(ok);
            if ok {
                samples[i].push(dt);
            }
        }
        if start.elapsed() > 3 * budget {
            return Err("evaluations keep failing: too few good samples".into());
        }
    }
    let wall = seconds(start.elapsed());
    let peak = sys::peak_rss_mb().ok_or("cannot read VmHWM")?;

    let medians: Vec<f64> = samples
        .iter()
        .map(|s| median(s).expect("MIN_SAMPLES > 0"))
        .collect();
    let p99s: Vec<f64> = samples
        .iter()
        .map(|s| quantile(s, 0.99).expect("MIN_SAMPLES > 0"))
        .collect();
    println!(
        "{:<16} {:>7} {:>11} {:>11} {:>8} {:>10}",
        "pipeline", "samples", "median_s", "p99_s", "spread", "input_mb"
    );
    for ((p, s), (m, q)) in pipes.iter().zip(&samples).zip(medians.iter().zip(&p99s)) {
        println!(
            "{:<16} {:>7} {:>11.6} {:>11.6} {:>8.4} {:>10.1}",
            p.name,
            s.len(),
            m,
            q,
            quartile_spread(s).unwrap_or(f64::NAN),
            p.input_bytes as f64 / 1e6
        );
    }
    let count: usize = samples.iter().map(Vec::len).sum();
    let eval_s = geomean(&medians).ok_or("non-positive median")?;
    report.set("eval_s", eval_s);
    // Geometric mean over pipelines of each pipeline's evaluations per
    // second, so each pipeline counts equally, as in `eval_s` (whose
    // reciprocal it is). Counting evaluations over the loop's wall time
    // instead lets MovieLens, the slowest and noisiest pipeline, set
    // the figure and its run-to-run spread.
    report.set("req_per_s", 1.0 / eval_s);
    // One evaluation is one operation; its p50 is `eval_s` in ms.
    report.set("latency_p50_ms", 1e3 * eval_s);
    report.set(
        "latency_p99_ms",
        1e3 * geomean(&p99s).ok_or("non-positive p99")?,
    );
    report.set("setup_s", median(&setups).expect("SETUP_REPS > 0"));
    report.set("peak_rss_mb", peak);
    println!(
        "samples: {count} evaluations over {wall:.2} s, {} per pipeline at least; setup runs: {SETUP_REPS}",
        samples.iter().map(Vec::len).min().unwrap_or(0)
    );
    Ok(())
}

/// Indices `0..n` in a seeded random order.
fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// Resident memory a reused context keeps per evaluation: the growth of
/// `VmRSS` over a second evaluation of each pipeline on the context of
/// the first, summed over pipelines (MB per round).
fn retained_mb(
    pipes: &[Pipeline],
    refs: &[Summary],
    engine: &Engine,
    failures: &mut Failures,
) -> Option<f64> {
    let mut total = 0.0;
    for (p, r) in pipes.iter().zip(refs) {
        let ctx = engine.context();
        failures.record(p.check(&(p.mozart)(&ctx), r));
        let before = sys::rss_mb()?;
        failures.record(p.check(&(p.mozart)(&ctx), r));
        total += sys::rss_mb()? - before;
    }
    Some(total)
}

/// Fewest rounds of the traced run, even past the time budget. A round
/// takes about 12 s on two cores; the quarter-budget pass a `serve_tcp`
/// traced run makes of this workload stops at this minimum.
const TRACED_MIN_ROUNDS: usize = 2;

/// Accumulated measurements of one pipeline in the traced run.
#[derive(Default)]
struct Layers {
    base: Vec<f64>,
    mozart: Vec<f64>,
    traced: Vec<f64>,
    one_worker: Vec<f64>,
    fused: Vec<f64>,
    cpu: f64,
    stats: PhaseStats,
}

/// Max ÷ mean of per-participant batch counts (1 = perfectly even); 1
/// when no batches ran on the pool.
fn imbalance(per_worker: &[u64]) -> f64 {
    let total: u64 = per_worker.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / per_worker.len() as f64;
    *per_worker.iter().max().expect("non-empty when total > 0") as f64 / mean
}

/// Record the engine-layer metrics shared by every workload, from phase
/// statistics summed over `units` (rounds or requests) and the matching
/// wall and CPU totals.
pub fn engine_metrics(report: &mut Report, s: &PhaseStats, units: f64, wall: f64, cpu: f64) {
    let per = |d: Duration| seconds(d) / units;
    report.set("context.client_s", per(s.client));
    report.set("context.calls", s.calls as f64 / units);
    report.set("planner.plan_s", per(s.planner));
    report.set("planner.stages", s.stages as f64 / units);
    report.set("verify.plans_verified", s.plans_verified as f64 / units);
    report.set("executor.split_s", per(s.split));
    report.set("executor.task_s", per(s.task));
    report.set("executor.merge_s", per(s.merge));
    report.set("executor.unprotect_s", per(s.unprotect));
    report.set("executor.batches", s.batches as f64 / units);
    report.set(
        "executor.bytes_split_mb",
        s.bytes_split as f64 / 1e6 / units,
    );
    report.set(
        "executor.bytes_merged_mb",
        s.bytes_merged as f64 / 1e6 / units,
    );
    if s.bytes_split > 0 {
        report.set(
            "executor.merge_amplification",
            s.bytes_merged as f64 / s.bytes_split as f64,
        );
    }
    report.set(
        "executor.split_form_handoffs",
        s.split_form_handoffs as f64 / units,
    );
    report.set("buffer.placement_writes", s.placement_writes as f64 / units);
    report.set("engine.wall_s", wall / units);
    report.set("engine.cpu_s", cpu / units);
    report.set("engine.unaccounted_s", (wall - seconds(s.total())) / units);
}

/// Record the pool metrics from two snapshots spanning `units`.
pub fn pool_metrics(report: &mut Report, before: &PoolStats, after: &PoolStats, units: f64) {
    let delta = |a: u64, b: u64| (a - b) as f64 / units;
    report.set("pool.jobs", delta(after.jobs, before.jobs));
    report.set(
        "pool.batches_stolen",
        delta(after.batches_stolen, before.batches_stolen),
    );
    report.set("pool.parks", delta(after.parks, before.parks));
    let per: Vec<u64> = after
        .per_worker_batches
        .iter()
        .enumerate()
        .map(|(i, b)| b - before.per_worker_batches.get(i).copied().unwrap_or(0))
        .collect();
    report.set("pool.worker_imbalance", imbalance(&per));
}

/// Record the run-context metrics.
pub fn run_metrics(report: &mut Report, args: &RunArgs, workers: usize, samples: usize) {
    report.set("run.nproc", sys::nproc() as f64);
    report.set("run.workers", workers as f64);
    report.set("run.seed", args.seed as f64);
    if let Some(b) = sys::llc_bytes() {
        report.set("run.llc_mb", b as f64 / 1e6);
    }
    report.set("run.samples", samples as f64);
}

/// The traced run: base, Mozart (untraced, traced, one worker) and the
/// fused stand-in interleaved per pipeline, with the engine's phase
/// statistics and pool counters.
fn traced(
    args: &RunArgs,
    pipes: &[Pipeline],
    refs: &[Summary],
    workers: usize,
    report: &mut Report,
) -> Result<(), String> {
    let nproc = sys::nproc();
    let mut failures = Failures::default();
    let t0 = Instant::now();
    let engine = Engine::new(Config::with_workers(workers));
    let context_s = seconds(t0.elapsed());
    let t1 = Instant::now();
    let feet = evaluate_all(pipes, refs, &engine, &mut failures);
    let first_eval_s = seconds(t1.elapsed());
    print_context(args, workers, pipes, &feet);
    report.set("setup.context_s", context_s);
    report.set("setup.first_eval_s", first_eval_s);

    let recorder = TraceRecorder::new();
    let traced_engine = Engine::new(Config {
        tracing: Some(recorder),
        ..Config::with_workers(workers)
    });
    let one_worker = Engine::new(Config::with_workers(1));
    evaluate_all(pipes, refs, &traced_engine, &mut failures);
    evaluate_all(pipes, refs, &one_worker, &mut failures);

    let mut rng = StdRng::seed_from_u64(sub_seed(args.seed, 100));
    let mut layers: Vec<Layers> = pipes.iter().map(|_| Layers::default()).collect();
    let pool_before = engine.pool_stats();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut rounds = 0usize;
    while start.elapsed() < budget || rounds < TRACED_MIN_ROUNDS {
        rounds += 1;
        for i in shuffled(pipes.len(), &mut rng) {
            let (p, r, l) = (&pipes[i], &refs[i], &mut layers[i]);
            let t0 = Instant::now();
            let out = (p.base)();
            l.base.push(seconds(t0.elapsed()));
            failures.record(p.matches(&out, r));

            let cpu0 = sys::cpu_seconds();
            let (out, dt, stats) = evaluate(p, &engine);
            l.cpu += sys::cpu_seconds() - cpu0;
            l.stats.accumulate(&stats);
            failures.record(p.check(&out, r));
            l.mozart.push(dt);

            let (out, dt, _) = evaluate(p, &traced_engine);
            failures.record(p.check(&out, r));
            l.traced.push(dt);

            let (out, dt, _) = evaluate(p, &one_worker);
            failures.record(p.check(&out, r));
            l.one_worker.push(dt);

            let t0 = Instant::now();
            let out = (p.fused)(nproc);
            l.fused.push(seconds(t0.elapsed()));
            failures.record(p.matches(&out, r));
        }
    }
    let pool_after = engine.pool_stats();
    let retained = retained_mb(pipes, refs, &engine, &mut failures);
    let units = rounds as f64;

    let med = |f: fn(&Layers) -> &Vec<f64>| -> Vec<f64> {
        layers
            .iter()
            .map(|l| median(f(l)).expect("rounds > 0"))
            .collect()
    };
    let (base, mozart, traced, one, fused) = (
        med(|l| &l.base),
        med(|l| &l.mozart),
        med(|l| &l.traced),
        med(|l| &l.one_worker),
        med(|l| &l.fused),
    );
    let gm = |v: &[f64]| geomean(v).ok_or_else(|| "non-positive median".to_string());
    let mut total = PhaseStats::default();
    let mut not_upper_bound = 0;
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>8} {:>10} {:>10} {:>13}",
        "pipeline",
        "base_s",
        "fused_s",
        "mozart_s",
        "speedup",
        "merge_s",
        "merged_mb",
        "unaccounted_s"
    );
    for (i, (p, l)) in pipes.iter().zip(&layers).enumerate() {
        total.accumulate(&l.stats);
        let per_call_merge = seconds(l.stats.merge) / units;
        let merged_mb = l.stats.bytes_merged as f64 / 1e6 / units;
        let key = |s: &str| format!("pipeline.{}.{s}", p.name);
        report.set(key("eval_s"), mozart[i]);
        report.set(key("speedup_vs_base"), base[i] / mozart[i]);
        report.set(key("fused_vs_base"), fused[i] / base[i]);
        report.set(key("merge_s"), per_call_merge);
        report.set(key("merged_mb"), merged_mb);
        let wall: f64 = l.mozart.iter().sum();
        let unaccounted = (wall - seconds(l.stats.total())) / units;
        report.set(key("unaccounted_s"), unaccounted);
        println!(
            "{:<16} {:>10.6} {:>10.6} {:>10.6} {:>8.3} {:>10.6} {:>10.1} {:>13.6}",
            p.name,
            base[i],
            fused[i],
            mozart[i],
            base[i] / mozart[i],
            per_call_merge,
            merged_mb,
            unaccounted
        );
        if fused[i] > base[i] {
            not_upper_bound += 1;
            println!(
                "note: the fused stand-in for {} is not an upper bound: fused {:.6} s > base {:.6} s",
                p.name, fused[i], base[i]
            );
        }
    }
    let wall: f64 = layers.iter().map(|l| l.mozart.iter().sum::<f64>()).sum();
    let cpu: f64 = layers.iter().map(|l| l.cpu).sum();
    engine_metrics(report, &total, units, wall, cpu);
    pool_metrics(report, &pool_before, &pool_after, units);
    report.set("pool.scaling", gm(&one)? / gm(&mozart)?);
    report.set("lib.base_s", gm(&base)?);
    report.set("lib.fused_s", gm(&fused)?);
    report.set("lib.fused_not_upper_bound", f64::from(not_upper_bound));
    report.set("trace.overhead", gm(&traced)? / gm(&mozart)?);
    if let Some(mb) = retained {
        report.set("context.retained_mb", mb);
    }
    run_metrics(report, args, workers, rounds);
    report.failures.absorb(failures);

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_is_max_over_mean() {
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0, 0]), 1.0);
        assert_eq!(imbalance(&[5, 5]), 1.0);
        assert_eq!(imbalance(&[6, 2]), 1.5);
    }

    #[test]
    fn shuffled_is_a_seeded_permutation() {
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        let p = shuffled(9, &mut a);
        assert_eq!(p, shuffled(9, &mut b));
        let mut sorted = p.clone();
        sorted.sort();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }
}
