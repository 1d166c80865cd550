//! One repetition of a workload on a fresh engine: set-up, the paced unit
//! loop, harvest. Every latency here is the driver's own `Instant`s around
//! a public `Engine` call; the driver thread sleeps while it waits.

use std::time::{Duration, Instant};

use remo_algos::{IncBfs, IncCc, IncSssp};
use remo_core::{Algorithm, Engine, EngineConfig, EngineError, RunMetrics, VertexId};

use crate::trace::{SpanId, Tracer};
use crate::workloads::{self, Algo, Plan, Scale, Step};

/// Calls into the engine's `try_*` API, and how many returned `Err`.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    fn check<T>(&mut self, what: &str, r: Result<T, EngineError>) -> Result<T, String> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            format!("{what}: {e}")
        })
    }
}

/// What one step of the plan measured.
pub struct StepSamples {
    /// Per unit, nanoseconds from when it was due to its fixpoint. In a
    /// closed loop a unit is due when its ingest call starts.
    pub fresh_ns: Vec<f64>,
    pub updates: u64,
    /// First ingest call (open loop: first due time) → last fixpoint.
    pub wall_s: f64,
    pub closed_loop: bool,
    /// Open loop: units not yet at fixpoint when the step's schedule ended.
    pub backlog_end: u64,
}

/// What the timed region of one repetition measured.
#[derive(Default)]
pub struct Samples {
    /// Per ingest call: call → `try_await_quiescence` return.
    pub unit_ns: Vec<f64>,
    /// The same per sequential hop, for units that are one cascade.
    pub hop_ns: Vec<f64>,
    pub steps: Vec<StepSamples>,
    /// `try_local_state` call → reply, issued between the ingest and the
    /// await, while the unit's propagation is in flight.
    pub query_ns: Vec<f64>,
    pub ingest_call_ns: Vec<f64>,
    pub await_call_ns: Vec<f64>,
    /// Await on an engine already at fixpoint (traced runs only).
    pub idle_await_ns: Vec<f64>,
    /// Open loop: how long after a unit was due its ingest call started.
    pub late_ns: Vec<f64>,
    /// Units that went in merged with an earlier due unit.
    pub merged_units: u64,
    /// First ingest call → last fixpoint.
    pub wall_s: f64,
    /// CPU time of every thread of the process over the same interval.
    pub cpu_s: f64,
}

impl Samples {
    pub fn updates(&self) -> u64 {
        self.steps.iter().map(|s| s.updates).sum()
    }

    /// Updates ÷ wall over the closed-loop steps: what one client that
    /// waits for every fixpoint gets through.
    pub fn closed_loop_rate(&self) -> f64 {
        let closed = || self.steps.iter().filter(|s| s.closed_loop);
        closed().map(|s| s.updates as f64).sum::<f64>() / closed().map(|s| s.wall_s).sum::<f64>()
    }
}

pub struct Rep {
    pub plan: Plan,
    /// Share of the CPU time this repetition wanted that the hypervisor
    /// gave to someone else: the measure of outside interference.
    pub steal: f64,
    pub setup_s: f64,
    pub gen_s: f64,
    pub new_ms: f64,
    pub finish_ms: f64,
    pub samples: Samples,
    pub metrics: RunMetrics,
    /// Harvested `(vertex, state)`, sorted by vertex.
    pub states: Vec<(VertexId, u64)>,
    /// The process's peak resident set when the repetition ended, MiB.
    pub peak_rss_mb: f64,
}

/// What a repetition needs besides the workload's name.
pub struct RepCtx<'a> {
    pub seed: u64,
    pub scale: Scale,
    pub shards: usize,
    pub tracer: &'a mut Tracer,
    pub ops: &'a mut Ops,
    /// Also time an await on the quiescent engine after every unit.
    pub probe_idle: bool,
}

/// `(stolen, wanted)` CPU ticks of the whole machine since boot, from the
/// first line of `/proc/stat`; zeros where that cannot be read.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    match fields[..] {
        [user, nice, system, _idle, _iowait, irq, softirq, steal, ..] => {
            (steal, user + nice + system + irq + softirq + steal)
        }
        _ => (0, 0),
    }
}

pub fn run_rep(workload: &str, ctx: &mut RepCtx<'_>) -> Result<Rep, String> {
    let (stolen, wanted) = cpu_ticks();
    let rep_span = ctx.tracer.open("rep", None);
    let start = Instant::now();
    let setup_span = ctx.tracer.open("setup", rep_span);
    let (seed, scale) = (ctx.seed, ctx.scale);
    let plan = ctx
        .tracer
        .span("gen.generate", setup_span, || {
            workloads::build(workload, seed, scale)
        })
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let gen_s = start.elapsed().as_secs_f64();
    let mut rep = match plan.algo {
        Algo::Bfs => drive(IncBfs, plan, start, rep_span, setup_span, ctx),
        Algo::Sssp => drive(IncSssp, plan, start, rep_span, setup_span, ctx),
        Algo::Cc => drive(IncCc, plan, start, rep_span, setup_span, ctx),
    }?;
    rep.gen_s = gen_s;
    ctx.tracer.close(rep_span);
    let (stolen_after, wanted_after) = cpu_ticks();
    rep.steal = (stolen_after - stolen) as f64 / (wanted_after - wanted).max(1) as f64;
    Ok(rep)
}

/// CPU seconds this process's threads have run so far, exited ones
/// included: `utime + stime` of `/proc/self/stat`, which the kernel keeps
/// equal to the threads' precise run time and reports in 10 ms ticks. Time
/// the hypervisor gave to someone else is not in it. 0 where unreadable.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line.
    let ticks: u64 = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// `VmHWM` of this process.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        });
    kb.map_or(0.0, |kb| kb / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn drive<A: Algorithm<State = u64>>(
    algo: A,
    plan: Plan,
    start: Instant,
    rep_span: Option<SpanId>,
    setup_span: Option<SpanId>,
    ctx: &mut RepCtx<'_>,
) -> Result<Rep, String> {
    let (tracer, ops) = (&mut *ctx.tracer, &mut *ctx.ops);

    // The default engine: nothing but the shard count is set.
    let t = Instant::now();
    let engine = tracer.span("engine.new", setup_span, || {
        Engine::new(algo, EngineConfig::undirected(ctx.shards))
    });
    let new_ms = ms(t.elapsed());
    if let Some(source) = plan.source {
        ops.check("init_vertex", engine.try_init_vertex(source))?;
    }
    if plan.preload > 0 {
        let r = tracer.span("engine.ingest", setup_span, || {
            plan.edges.ingest(&engine, 0..plan.preload)
        });
        ops.check("preload ingest", r)?;
    }
    let r = tracer.span("engine.await", setup_span, || engine.try_await_quiescence());
    ops.check("preload await", r)?;
    tracer.close(setup_span);
    let setup_s = start.elapsed().as_secs_f64();

    let timed_span = tracer.open("timed", rep_span);
    let mut samples = Samples::default();
    let (timed, cpu) = (Instant::now(), process_cpu_s());
    let mut pick = 0x9e37_79b9_7f4a_7c15u64;
    for step in &plan.steps {
        run_step(
            &engine,
            &plan,
            step,
            timed_span,
            &mut pick,
            &mut samples,
            tracer,
            ops,
            ctx.probe_idle,
        )?;
    }
    samples.wall_s = timed.elapsed().as_secs_f64();
    samples.cpu_s = process_cpu_s() - cpu;
    tracer.close(timed_span);

    let t = Instant::now();
    let result = tracer.span("engine.finish", rep_span, || engine.try_finish());
    let result = ops.check("finish", result)?;
    let finish_ms = ms(t.elapsed());
    if let Some(f) = result.failures.first() {
        return Err(format!("shard failed during the run: {f}"));
    }
    result
        .metrics
        .verify_balance()
        .map_err(|e| format!("verify_balance: {e}"))?;
    Ok(Rep {
        plan,
        steal: 0.0,
        setup_s,
        gen_s: 0.0,
        new_ms,
        finish_ms,
        samples,
        metrics: result.metrics,
        states: result.states.into_vec(),
        peak_rss_mb: peak_rss_mb(),
    })
}

#[allow(clippy::too_many_arguments)]
fn run_step<A: Algorithm<State = u64>>(
    engine: &Engine<A>,
    plan: &Plan,
    step: &Step,
    parent: Option<SpanId>,
    pick: &mut u64,
    samples: &mut Samples,
    tracer: &mut Tracer,
    ops: &mut Ops,
    probe_idle: bool,
) -> Result<(), String> {
    let units = &plan.units[step.units.clone()];
    // Seconds between consecutive units' due times, open loop only.
    let period = step.rate.map(|r| units[0].edges.len() as f64 / r);
    let t0 = Instant::now();
    let since = |t: Instant| t.duration_since(t0).as_secs_f64();
    let schedule_end = period.map_or(f64::INFINITY, |p| p * units.len() as f64);
    let mut out = StepSamples {
        fresh_ns: Vec::with_capacity(units.len()),
        updates: 0,
        wall_s: 0.0,
        closed_loop: period.is_none(),
        backlog_end: 0,
    };

    let mut i = 0;
    while i < units.len() {
        // Open loop: sleep until unit i is due, then take every unit that
        // is due by now in one ingest — a backlog, and it is counted.
        let mut take = 1;
        if let Some(p) = period {
            let due = i as f64 * p;
            let now = since(Instant::now());
            if now < due {
                std::thread::sleep(Duration::from_secs_f64(due - now));
            }
            let now = since(Instant::now());
            samples.late_ns.push((now - due) * 1e9);
            take = (((now / p) as usize + 1).saturating_sub(i)).clamp(1, units.len() - i);
            samples.merged_units += take as u64 - 1;
        }
        let edges = units[i].edges.start..units[i + take - 1].edges.end;
        // A point read of some vertex the stream has named so far.
        *pick = pick
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let probe = plan.edges.get((*pick >> 33) as usize % edges.end).0;

        // The read goes in beside the write, before the fixpoint is awaited.
        let a = Instant::now();
        let r = plan.edges.ingest(engine, edges.clone());
        let b = Instant::now();
        ops.check("ingest", r)?;
        let r = engine.try_local_state(probe);
        let c = Instant::now();
        ops.check("local_state", r)?;
        let r = engine.try_await_quiescence();
        let d = Instant::now();
        ops.check("await_quiescence", r)?;

        let unit_id = step.units.start + i;
        let span = tracer.record("unit", parent, unit_id, a, d);
        tracer.record("engine.ingest", span, unit_id, a, b);
        tracer.record("engine.local_state", span, unit_id, b, c);
        tracer.record("engine.await", span, unit_id, c, d);

        let unit_ns = (d - a).as_nanos() as f64;
        samples.unit_ns.push(unit_ns);
        if take == 1 && units[i].hops > 0 {
            samples.hop_ns.push(unit_ns / units[i].hops as f64);
        }
        samples.ingest_call_ns.push((b - a).as_nanos() as f64);
        samples.query_ns.push((c - b).as_nanos() as f64);
        samples.await_call_ns.push((d - c).as_nanos() as f64);
        let done = since(d);
        for j in i..i + take {
            let due = period.map_or(since(a), |p| j as f64 * p);
            out.fresh_ns.push((done - due) * 1e9);
        }
        if done > schedule_end {
            out.backlog_end += take as u64;
        }
        out.updates += edges.len() as u64;
        out.wall_s = done;
        i += take;

        if probe_idle {
            let t = Instant::now();
            let r = engine.try_await_quiescence();
            samples.idle_await_ns.push(t.elapsed().as_nanos() as f64);
            ops.check("idle await", r)?;
        }
    }
    samples.steps.push(out);
    Ok(())
}
