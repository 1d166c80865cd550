//! Command line of the ledger benchmark.
//!
//! ```text
//! remo-ledger [run] --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1] [--scale full|smoke]
//! remo-ledger check [--workload <name>] [--seeds <n>] [--seed <first>] [--sets <n>] [--seconds <n>] [--trace 0|1]
//! remo-ledger manifest
//! ```
//!
//! `run` prints one JSON object as its last line and exits non-zero if the
//! result was wrong. `check` repeats what the driver does before it accepts
//! the benchmark: sets of runs over consecutive seeds, each run in a fresh
//! process, then per metric the spread inside each set and the drift between
//! the sets' medians, against the metric's bound. `manifest` prints the text
//! of `BENCHMARK.json`.

use std::process::{Command, ExitCode};

use remo_ledger::metrics::{
    manifest, median, quartile_spread, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use remo_ledger::workloads::Scale;
use remo_ledger::{run, RunArgs};

const USAGE: &str = "usage: remo-ledger [run] --workload <name> --seed <u64> [--seconds <n>] \
                     [--trace 0|1] [--scale full|smoke]\n       \
                     remo-ledger check [--workload <name>] [--seeds <n>] [--seed <first>] \
                     [--sets <n>] [--seconds <n>] [--trace 0|1]\n       \
                     remo-ledger manifest";

struct Cli {
    command: String,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    scale: Scale,
    seeds: u64,
    sets: usize,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: "run".to_string(),
        workload: None,
        seed: None,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale: Scale::Full,
        seeds: 10,
        sets: 2,
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek().filter(|a| !a.starts_with("--")) {
        cli.command = first.to_string();
        it.next();
    }
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value.clone()),
            "--seed" => cli.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                cli.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => cli.trace = matches!(value.as_str(), "1" | "true"),
            "--scale" => {
                cli.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad()),
                }
            }
            "--seeds" => cli.seeds = value.parse().ok().filter(|n| *n > 0).ok_or_else(bad)?,
            "--sets" => cli.sets = value.parse().ok().filter(|n| *n > 0).ok_or_else(bad)?,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(cli)
}

/// The value of `name` in a `run` result line.
fn value_of(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// One `run` in a fresh process; its result line.
fn run_once(workload: &str, seed: u64, cli: &Cli) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    if !out.status.success() || !line.contains("\"correct\": true, ") {
        return Err(format!(
            "{workload} seed {seed} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(line)
}

/// Runs `cli.sets` sets of `cli.seeds` runs per workload and prints, per
/// metric, each set's median and spread and how much worse the last set's
/// median is than the first's. Fails like the driver does: on a spread over
/// the metric's bound (`setup_s` excepted) or a drift over it.
fn check(cli: &Cli) -> Result<bool, String> {
    let table = if cli.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let workloads: Vec<&str> = WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| cli.workload.as_deref().is_none_or(|w| w == *name))
        .collect();
    let first = cli.seed.unwrap_or(1);
    // lines[set][workload][seed]
    let mut lines: Vec<Vec<Vec<String>>> = Vec::new();
    for set in 0..cli.sets {
        let mut of_set = Vec::new();
        for workload in &workloads {
            let mut of_workload = Vec::new();
            for seed in first..first + cli.seeds {
                of_workload.push(run_once(workload, seed, cli)?);
                eprintln!("check: set {} {workload} seed {seed} done", set + 1);
            }
            of_set.push(of_workload);
        }
        lines.push(of_set);
    }

    let mut ok = true;
    for (w, workload) in workloads.iter().enumerate() {
        println!(
            "\n{workload}  ({} seeds from {first}, {} sets)  median · spread per set",
            cli.seeds, cli.sets
        );
        for m in table {
            let sets: Vec<(f64, f64)> = lines
                .iter()
                .map(|set| {
                    let mut values: Vec<f64> = set[w]
                        .iter()
                        .map(|line| value_of(line, m.name).unwrap_or(f64::NAN))
                        .collect();
                    (median(&mut values.clone()), quartile_spread(&mut values))
                })
                .collect();
            let (a, b) = (sets[0].0, sets[sets.len() - 1].0);
            // Positive when the last set is worse than the first.
            let worse = match (a == 0.0, m.higher) {
                (true, _) => 0.0,
                (false, true) => (a - b) / a.abs(),
                (false, false) => (b - a) / a.abs(),
            };
            let mut verdict = "";
            if let Some(bound) = m.bound {
                let widest = sets.iter().map(|s| s.1).fold(0.0, f64::max);
                let spread_fails = m.name != "setup_s" && widest > bound;
                if spread_fails || worse > bound {
                    verdict = "FAIL";
                    ok = false;
                } else if widest > bound / 3.0 {
                    verdict = "!";
                }
            }
            let cells: Vec<String> = sets
                .iter()
                .map(|(mid, spread)| format!("{mid:>14.4} · {spread:.3}"))
                .collect();
            let bound = m.bound.map_or(String::new(), |b| format!("{b:.2}"));
            println!(
                "  {:<36} {:<5} {}  drift {:>+6.3}  bound {bound:<4} {verdict}",
                m.name,
                m.unit,
                cells.join("  "),
                worse
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.command.as_str() {
        "manifest" => {
            print!("{}", manifest());
            ExitCode::SUCCESS
        }
        "check" => match check(&cli) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("ledger check: {e}");
                ExitCode::FAILURE
            }
        },
        "run" => {
            let (Some(workload), Some(seed)) = (cli.workload, cli.seed) else {
                eprintln!("run needs --workload and --seed\n{USAGE}");
                return ExitCode::from(2);
            };
            let report = run(&RunArgs {
                workload,
                seed,
                seconds: cli.seconds,
                trace: cli.trace,
                scale: cli.scale,
            });
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        other => {
            eprintln!("unknown command {other:?}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
