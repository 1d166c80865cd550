//! Every workload at smoke scale with the oracle on, in both modes, and the
//! agreement between what the harness emits and what `BENCHMARK.json` lists.

use std::collections::HashSet;

use remo_ledger::metrics::{manifest, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use remo_ledger::workloads::Scale;
use remo_ledger::{run, trace_path, RunArgs};

fn smoke(workload: &str) {
    for trace in [false, true] {
        let args = RunArgs {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.3,
            trace,
            scale: Scale::Smoke,
        };
        let report = run(&args);
        assert!(
            report.correct,
            "{workload} trace={trace}: oracle or engine failure"
        );
        assert_eq!(report.failed, 0);
        assert!(report.attempted > 0);
        let table: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
        let emitted: Vec<&str> = report.metrics.iter().map(|(m, _)| m.name).collect();
        let listed: Vec<&str> = table.iter().map(|m| m.name).collect();
        assert_eq!(emitted, listed, "{workload} trace={trace}");
        for (m, value) in &report.metrics {
            assert!(value.is_finite(), "{workload}: {} = {value}", m.name);
            // End-to-end metrics are never 0.
            if !trace {
                assert!(*value > 0.0, "{workload}: {} = {value}", m.name);
            }
        }
        let json = report.to_json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        assert!(!json.contains('\n'));
    }
    let spans =
        std::fs::read_to_string(trace_path(workload)).expect("the traced run writes its spans");
    for name in [
        "gen.generate",
        "engine.new",
        "engine.ingest",
        "engine.local_state",
        "engine.await",
    ] {
        assert!(
            spans.contains(&format!("\"name\": \"{name}\"")),
            "{workload}: no {name} span"
        );
    }
    for name in [
        "engine.finish",
        "store.insert_edge",
        "sequential.apply",
        "baseline.build",
        "baseline.solve",
    ] {
        assert!(
            spans.contains(&format!("\"name\": \"{name}\"")),
            "{workload}: no {name} span"
        );
    }
}

#[test]
fn rmat_sssp_bulk() {
    smoke("rmat_sssp_bulk");
}

#[test]
fn rmat_cc_bulk() {
    smoke("rmat_cc_bulk");
}

#[test]
fn chain_bfs_cascade() {
    smoke("chain_bfs_cascade");
}

#[test]
fn rmat_bfs_online() {
    smoke("rmat_bfs_online");
}

#[test]
fn unknown_workload_is_a_failed_run() {
    let args = RunArgs {
        workload: "nope".to_string(),
        seed: 1,
        seconds: 0.1,
        trace: false,
        scale: Scale::Smoke,
    };
    let report = run(&args);
    assert!(!report.correct);
    assert_eq!(report.failed, report.attempted);
}

#[test]
fn names_meet_the_contract_and_match_benchmark_json() {
    let well_formed = |s: &str, max: usize| {
        !s.is_empty()
            && s.len() <= max
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    };
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    let mut seen = HashSet::new();
    let names = WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
    for name in names {
        assert!(well_formed(name, 64), "{name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
            "{}: unit {:?}",
            m.name,
            m.unit
        );
    }
    for m in &END_TO_END {
        assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher));
    assert!(WORKLOADS
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed =
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the root of the repository");
    assert_eq!(
        committed,
        manifest(),
        "regenerate it: bash ledger/cargo.sh run -- manifest > BENCHMARK.json"
    );
}
