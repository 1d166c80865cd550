//! # remo-ledger — the repo's one benchmark
//!
//! Four named workloads drive the **default** engine
//! (`EngineConfig::undirected(shards)`, nothing else set) through its public
//! API, check every result against the static baseline, and report the
//! gated end-to-end metrics — or, in a traced run, every other metric: the
//! end-to-end diagnostics and the per-layer metrics behind them. See
//! `README.md` for why each workload and metric exists.
//!
//! A run is one warm-up repetition, which is also the one checked against
//! the baseline, then repetitions on fresh engines until `--seconds` have
//! passed. Each must reach the warm-up's fixpoint exactly. A rate is the
//! median over repetitions; a latency quantile is taken over the samples of
//! all repetitions pooled.

pub mod driver;
pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use driver::{Ops, Rep, RepCtx, Samples};
use metrics::{median, quantile, tail, Metric, ABSENT, END_TO_END, PER_LAYER};
use trace::Tracer;
use workloads::Scale;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// How long to keep starting repetitions after the warm-up.
    pub seconds: f64,
    /// Report the per-layer metrics and write the span file.
    pub trace: bool,
    pub scale: Scale,
}

/// The outcome of one run, printed as the last line of standard output.
pub struct Report {
    pub correct: bool,
    /// Calls into the engine's `try_*` API.
    pub attempted: u64,
    /// Calls that returned `Err`; all of them when the result was wrong.
    pub failed: u64,
    /// Every `end_to_end` metric, or in a traced run every `per_layer`
    /// metric, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static Metric, f64)>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (m, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Shards the benchmark runs: one per core, at most four.
fn shards() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// Runs one workload. An engine error or a wrong result is reported on
/// standard error and as `correct: false` with every operation failed.
pub fn run(args: &RunArgs) -> Report {
    let mut ops = Ops::default();
    match measure(args, &mut ops) {
        Ok(values) => {
            let table: &'static [Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
            let metrics = table
                .iter()
                .map(|m| {
                    let (_, v) = values
                        .iter()
                        .find(|(name, _)| *name == m.name)
                        .expect("every listed metric is computed");
                    (m, *v)
                })
                .collect();
            Report {
                correct: true,
                attempted: ops.attempted,
                failed: ops.failed,
                metrics,
            }
        }
        Err(e) => {
            eprintln!("ledger: {}: {e}", args.workload);
            let attempted = ops.attempted.max(1);
            Report {
                correct: false,
                attempted,
                failed: attempted,
                metrics: Vec::new(),
            }
        }
    }
}

/// Every repetition's samples of one kind, pooled.
fn pooled<'a>(reps: &'a [(Rep, bool)], pick: impl Fn(&'a Samples) -> &'a [f64]) -> Vec<f64> {
    reps.iter()
        .flat_map(|(r, _)| pick(&r.samples))
        .copied()
        .collect()
}

/// Median over repetitions of a value each repetition has one of.
fn per_rep(reps: &[(Rep, bool)], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&mut reps.iter().map(|(r, _)| f(r)).collect::<Vec<_>>())
}

/// Fewest timed repetitions a run reports from.
const MIN_REPS: usize = 3;

fn measure(args: &RunArgs, ops: &mut Ops) -> Result<Vec<(&'static str, f64)>, String> {
    let shards = shards();
    let mut tracer = Tracer::new();
    let rep = |tracer: &mut Tracer, ops: &mut Ops| {
        let mut ctx = RepCtx {
            seed: args.seed,
            scale: args.scale,
            shards,
            tracer,
            ops,
            probe_idle: args.trace,
        };
        driver::run_rep(&args.workload, &mut ctx)
    };

    // The warm-up repetition is the one checked against the baseline; it
    // also lets the allocator and the page cache settle before timing.
    let warm = rep(&mut tracer, ops)?;
    tracer.on = args.trace;
    let base = oracle::baseline(&warm.plan, &mut tracer);
    oracle::verify(&warm.plan, &warm.states, &base.expected)?;
    // Memory is read after this one repetition: later ones only add what
    // the allocator keeps of engines already dropped, which grows with the
    // number of repetitions rather than with anything the engine does.
    let Rep {
        plan,
        states: reference,
        peak_rss_mb,
        ..
    } = warm;

    // Traced runs alternate traced and untraced repetitions, so the cost of
    // recording spans is measured inside the run that reports it.
    let mut reps: Vec<(Rep, bool)> = Vec::new();
    let began = Instant::now();
    while reps.len() < MIN_REPS || began.elapsed().as_secs_f64() < args.seconds {
        tracer.on = args.trace && reps.len().is_multiple_of(2);
        let mut r = rep(&mut tracer, ops)?;
        if r.states != reference {
            return Err(format!(
                "repetition {} reached a different fixpoint than the first",
                reps.len() + 1
            ));
        }
        r.states = Vec::new();
        eprintln!(
            "ledger: rep {:>2}: steal {:.3}  setup {:.3} s  timed {:.3} s  cpu {:.2} s  {:.0} updates/s  unit p50 {:.3} ms",
            reps.len() + 1,
            r.steal,
            r.setup_s,
            r.samples.wall_s,
            r.samples.cpu_s,
            r.samples.closed_loop_rate(),
            quantile(&mut r.samples.unit_ns.clone(), 0.5) / 1e6
        );
        reps.push((r, tracer.on));
    }
    tracer.on = args.trace;

    // Throughput is the median over repetitions; latency samples are pooled.
    let head = plan.headline;
    let updates_per_s = per_rep(&reps, |r| r.samples.closed_loop_rate());
    let mut unit_ns = pooled(&reps, |s| &s.unit_ns);
    let mut hop_ns = pooled(&reps, |s| &s.hop_ns);
    let mut fresh_ns = pooled(&reps, |s| &s.steps[head].fresh_ns);
    let mut query_ns = pooled(&reps, |s| &s.query_ns);
    let open_loop = plan.steps.iter().any(|s| s.rate.is_some());
    let chain = !hop_ns.is_empty();
    let bulk = !open_loop && !chain;
    let only = |applies: bool, v: f64| if applies { v } else { ABSENT };
    let mut out = vec![
        ("setup_s", per_rep(&reps, |r| r.setup_s)),
        ("updates_per_s", updates_per_s),
        (
            "cpu_us_per_update",
            per_rep(&reps, |r| {
                r.samples.cpu_s * 1e6 / r.samples.updates() as f64
            }),
        ),
        ("fresh_p50_us", quantile(&mut fresh_ns, 0.5) / 1e3),
        ("query_p50_us", quantile(&mut query_ns, 0.5) / 1e3),
        ("peak_rss_mb", peak_rss_mb),
        ("fresh_p99_us", tail(&mut fresh_ns, 0.99, 1e3)),
        ("query_p99_us", tail(&mut query_ns, 0.99, 1e3)),
        (
            "wave_fixpoint_p50_ms",
            only(bulk, quantile(&mut unit_ns, 0.5) / 1e6),
        ),
        (
            "wave_fixpoint_p95_ms",
            only(bulk, tail(&mut unit_ns, 0.95, 1e6)),
        ),
        ("hop_ns_p50", only(chain, quantile(&mut hop_ns, 0.5))),
        ("hop_ns_p95", only(chain, tail(&mut hop_ns, 0.95, 1.0))),
    ];

    // Latency at each offered rate: it should rise with the rate before the
    // sustainable rate drops. A rate is sustainable when its pooled p99 meets
    // the limit and a typical repetition ends it at most one batch behind.
    const BY_RATE: [(&str, &str); 3] = [
        ("online.fresh_p50_us.lo", "online.fresh_p99_us.lo"),
        ("online.fresh_p50_us.mid", "online.fresh_p99_us.mid"),
        ("online.fresh_p50_us.hi", "online.fresh_p99_us.hi"),
    ];
    let offered: Vec<(usize, f64)> = plan
        .steps
        .iter()
        .enumerate()
        .filter_map(|(i, s)| Some((i, s.rate?)))
        .collect();
    let mut sustainable = only(open_loop, 0.0);
    for (k, (p50, p99)) in BY_RATE.into_iter().enumerate() {
        let Some(&(i, rate)) = offered.get(k) else {
            out.extend([(p50, ABSENT), (p99, ABSENT)]);
            continue;
        };
        let mut fresh = pooled(&reps, |s| &s.steps[i].fresh_ns);
        let high = tail(&mut fresh, 0.99, 1e3);
        out.extend([(p50, quantile(&mut fresh, 0.5) / 1e3), (p99, high)]);
        let backlog = per_rep(&reps, |r| r.samples.steps[i].backlog_end as f64);
        let within = plan
            .fresh_limit_us
            .is_some_and(|l| high != ABSENT && high <= l);
        if within && backlog <= 1.0 {
            sustainable = sustainable.max(rate);
        }
    }
    out.push(("sustainable_rate", sustainable));
    if !args.trace {
        return Ok(out);
    }

    layers::store(&plan, &mut tracer, &mut out);
    let sequential = layers::sequential(&plan, &mut tracer, &mut out);
    let mut counters = layers::Counters::default();
    for (r, _) in &reps {
        counters.add(&r.metrics);
    }
    counters.report(&mut out);

    let wall = |traced: bool| {
        let mut walls: Vec<f64> = reps
            .iter()
            .filter(|(_, t)| *t == traced)
            .map(|(r, _)| r.samples.wall_s)
            .collect();
        (!walls.is_empty()).then(|| median(&mut walls))
    };
    let overhead = match (wall(true), wall(false)) {
        (Some(on), Some(off)) => (on - off) / off * 100.0,
        _ => ABSENT,
    };
    let p50_us = |pick: fn(&Samples) -> &[f64]| quantile(&mut pooled(&reps, pick), 0.5) / 1e3;
    out.extend([
        ("gen.generate_s", per_rep(&reps, |r| r.gen_s)),
        ("engine.new_ms", per_rep(&reps, |r| r.new_ms)),
        ("engine.ingest_call_us_p50", p50_us(|s| &s.ingest_call_ns)),
        ("engine.await_call_us_p50", p50_us(|s| &s.await_call_ns)),
        ("engine.finish_ms", per_rep(&reps, |r| r.finish_ms)),
        ("engine.parallel_vs_sequential", updates_per_s / sequential),
        ("engine.idle_await_us_p50", p50_us(|s| &s.idle_await_ns)),
        ("baseline.build_ms", base.build_ms),
        ("baseline.solve_ms", base.solve_ms),
        (
            "baseline.speedup_vs_static",
            (base.build_ms + base.solve_ms) / (quantile(&mut unit_ns, 0.5) / 1e6),
        ),
        (
            "loadgen.late_p99_us",
            tail(&mut pooled(&reps, |s| &s.late_ns), 0.99, 1e3),
        ),
        (
            "loadgen.merged_batch_ratio",
            only(
                open_loop,
                per_rep(&reps, |r| {
                    r.samples.merged_units as f64 / plan.units.len() as f64
                }),
            ),
        ),
        (
            "loadgen.backlog_end",
            only(
                open_loop,
                per_rep(&reps, |r| {
                    r.samples.steps.iter().map(|s| s.backlog_end).sum::<u64>() as f64
                }),
            ),
        ),
        ("harness.trace_overhead_pct", overhead),
        ("harness.reps", reps.len() as f64),
        ("harness.steal_share", per_rep(&reps, |r| r.steal)),
        ("harness.unit_samples", unit_ns.len() as f64),
        ("harness.query_samples", query_ns.len() as f64),
        ("harness.shards", shards as f64),
        (
            "harness.stand_in_deps",
            f64::from(u8::from(
                std::env::var_os("REMO_LEDGER_STAND_INS").is_some(),
            )),
        ),
    ]);

    let path = trace_path(&args.workload);
    tracer
        .write_json(&path, &args.workload, args.seed)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.push(("harness.span_count", tracer.span_count() as f64));
    Ok(out)
}

/// Where a traced run leaves its spans: beside the build, inside the
/// directory the benchmark was started from.
pub fn trace_path(workload: &str) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("ledger").join(format!("{workload}.trace.json"))
}
