//! End-to-end and per-layer benchmark of the ADC miner and monitor.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <clean-mine|dirty-anytime|sampled-mine|monitor-churn|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every workload makes its inputs from `--seed`, measures for `--seconds`,
//! checks its outputs outside the timed region, and prints as its last line
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run also writes its spans to
//! `target/perfbench-traces/`. `--workload all` runs each workload in its
//! own process (so each peak RSS is its own) and prints every result.

mod batch;
mod monitor;
mod pipeline;
mod report;
mod trace;

use adc_core::EvidenceStrategy;
use report::{json_number, json_string, stamp_json, Outcome};
use std::process::{Command, ExitCode};
use trace::Tracer;

/// The evidence kernel every workload uses, on at most the container's two
/// cores.
pub const SWEEP: EvidenceStrategy = EvidenceStrategy::Sweep { threads: 2 };

/// `setup_s` is the median of repeated set-ups. Batch set-up takes
/// 10–150 ms, so it repeats until it has run for `BATCH_SETUP_SECONDS`
/// (and at least `MIN_SETUP_REPEATS` times); the monitor's takes ~1.3 s and
/// repeats `MIN_SETUP_REPEATS` times.
pub const MIN_SETUP_REPEATS: usize = 5;
pub const BATCH_SETUP_SECONDS: f64 = 2.0;

const WORKLOADS: [&str; 4] = [
    "clean-mine",
    "dirty-anytime",
    "sampled-mine",
    "monitor-churn",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("stamp {{{}}}", stamp_json());
    if args.workload == "all" {
        return run_all(&args);
    }
    let outcome = match args.workload.as_str() {
        "clean-mine" => batch::clean_mine().run("clean-mine", args.seed, args.seconds, args.trace),
        "dirty-anytime" => {
            batch::dirty_anytime().run("dirty-anytime", args.seed, args.seconds, args.trace)
        }
        "sampled-mine" => {
            batch::sampled_mine().run("sampled-mine", args.seed, args.seconds, args.trace)
        }
        _ => monitor::run(args.seed, args.seconds, args.trace),
    };
    for line in &outcome.notes {
        println!("{line}");
    }
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }
    println!(
        "error_rate {} ({} of {} operations failed)",
        outcome.error_rate(),
        outcome.failed.min(outcome.attempted),
        outcome.attempted
    );
    for m in &outcome.metrics {
        println!("{:<28} {:>18} {}", m.name, json_number(m.value), m.unit);
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}

/// Run every workload in a child process of this binary and relay its
/// report; exits non-zero if any child fails or reports a failed check.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        match output {
            Ok(output) if output.status.success() => {
                let text = String::from_utf8_lossy(&output.stdout);
                for line in text.lines().filter(|l| !l.starts_with("stamp ")) {
                    println!("[{workload}] {line}");
                }
                ok &= text
                    .lines()
                    .last()
                    .is_some_and(|l| l.starts_with("{\"correct\":true"));
            }
            Ok(output) => {
                eprintln!("perfbench: {workload} exited with {}", output.status);
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot start {workload}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Push `figures` under the names and units of `layers`.
pub fn emit_layers(out: &mut Outcome, layers: &[(&str, &'static str)], figures: &[f64]) {
    for ((name, unit), value) in layers.iter().zip(figures) {
        out.metric(name, *value, unit);
    }
}

/// Write the run's spans to `target/perfbench-traces/<workload>-seed<n>.json`.
pub fn write_trace(workload: &str, seed: u64, tracer: &Tracer, measured_s: f64) {
    let dir = std::path::Path::new("target").join("perfbench-traces");
    let header = format!(
        "{},\"workload\":{},\"seed\":{seed},\"measured_s\":{}",
        stamp_json(),
        json_string(workload),
        json_number(measured_s)
    );
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json(&header)));
    match written {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
