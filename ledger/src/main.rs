//! The end-to-end cost ledger.
//!
//! ```text
//! ledger --workload <train_gcnrl|search_random|serve_es|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures one workload untraced and prints every
//! end-to-end metric; with `--trace 1` it runs the same work traced (plus a
//! short untraced/traced pair for the tracing overhead), runs the layer
//! probes, writes the spans to `target/ledger/` and prints every per-layer
//! metric.
//! Either way the last stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, and
//! the exit code is 1 when any correctness check failed.
//! See README.md for how to read it.

mod host;
mod layers;
mod machine;
mod probes;
mod report;
mod search;
mod serve;
mod spans;
mod stats;
mod timed;
mod train;
mod workload;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["train_gcnrl", "search_random", "serve_es"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("an integer"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(args)
}

fn untraced(workload: &str, seed: u64, seconds: u64) -> Outcome {
    match workload {
        "train_gcnrl" => train::run(seed, seconds),
        "search_random" => search::run(seed, seconds),
        "serve_es" => serve::run(seed, seconds),
        other => unreachable!("unknown workload {other}"),
    }
}

fn traced(workload: &str, seed: u64, seconds: u64) -> (Outcome, layers::Traced) {
    match workload {
        "train_gcnrl" => train::run_traced(seed, seconds),
        "search_random" => search::run_traced(seed, seconds),
        "serve_es" => serve::run_traced(seed, seconds),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Prints each metric with its unit to stderr, and returns them in the
/// order of `names`.
fn collect<'a>(
    workload: &str,
    values: &BTreeMap<&str, f64>,
    names: &[(&'a str, &'a str)],
    outcome: &Outcome,
) -> Vec<(&'a str, f64, &'a str)> {
    names
        .iter()
        .map(|&(name, unit)| {
            let value = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let samples = if name == "step_ms_p50_cold" {
                format!("  (n={})", outcome.cold_step_ms.len())
            } else if name.starts_with("step_") {
                format!("  (n={})", outcome.step_ms.len())
            } else {
                String::new()
            };
            eprintln!("[{workload}] {name:<32} {value:>16.6} {unit}{samples}");
            (name, value, unit)
        })
        .collect()
}

fn run_one(
    args: &Args,
    machine: &machine::Machine,
) -> (Outcome, Vec<(&'static str, f64, &'static str)>) {
    let workload = args.workload.as_str();
    if !args.trace {
        let outcome = untraced(workload, args.seed, args.seconds);
        outcome.describe(workload);
        let metrics = collect(workload, &outcome.end_to_end(), &END_TO_END, &outcome);
        return (outcome, metrics);
    }
    let (outcome, traced) = traced(workload, args.seed, args.seconds);
    let probes = probes::run(args.seed);
    outcome.describe(workload);
    let path = std::path::PathBuf::from(format!(
        "target/ledger/{workload}-seed{}.spans.jsonl",
        args.seed
    ));
    let header = format!(
        r#"{{"workload":"{workload}","machine":{}}}"#,
        machine.json()
    );
    match spans::write_jsonl(&path, &header, &traced.spans) {
        Ok(()) => eprintln!(
            "[{workload}] {} spans written to {}",
            traced.spans.len(),
            path.display()
        ),
        Err(error) => eprintln!(
            "[{workload}] could not write spans to {}: {error}",
            path.display()
        ),
    }
    let values = layers::metrics(&traced, &probes, &outcome);
    let metrics = collect(workload, &values, &PER_LAYER, &outcome);
    (outcome, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ledger: {message}");
            return ExitCode::from(2);
        }
    };
    let machine = machine::Machine::detect(args.seed);
    println!("ledger machine {}", machine.json());

    if args.workload != "all" {
        let (outcome, metrics) = run_one(&args, &machine);
        let (attempted, failed) = outcome.totals();
        report::print_result(outcome.correct(), attempted, failed, &metrics);
        return exit_code(outcome.correct());
    }
    // Every workload in turn; metric names gain a `<workload>.` prefix.
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut named = Vec::new();
    for workload in WORKLOADS {
        let one = Args {
            workload: workload.to_owned(),
            ..args
        };
        let (outcome, metrics) = run_one(&one, &machine);
        let (a, f) = outcome.totals();
        correct &= outcome.correct();
        attempted += a;
        failed += f;
        for (name, value, unit) in metrics {
            named.push((format!("{workload}.{name}"), value, unit));
        }
    }
    let borrowed: Vec<(&str, f64, &str)> =
        named.iter().map(|(n, v, u)| (n.as_str(), *v, *u)).collect();
    report::print_result(correct, attempted, failed, &borrowed);
    exit_code(correct)
}

/// A run whose outputs failed a check fails, after printing its result.
fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("ledger: a correctness check failed");
        ExitCode::FAILURE
    }
}
