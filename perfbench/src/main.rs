//! The pathalias benchmark harness.
//!
//! ```text
//! perfbench --bin <pathalias> --workload <query-mix|path-mix|reload-churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it drives the release `pathalias serve` daemon over
//! loopback TCP and reports the end-to-end metrics. With `--trace 1` it
//! runs the same workload once more with a single cold start, then
//! calls each layer's public functions in-process on the same inputs
//! and reports the per-layer metrics. Either way the last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Every reply is checked against an oracle; any disagreement makes
//! `correct` false.

mod daemon;
mod e2e;
mod load;
mod stats;
mod trace;
mod world;

use e2e::{Env, Metric, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    bin: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut bin = None;
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut work = PathBuf::from(".bench_work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--bin" => bin = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--work" => work = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        bin: bin.ok_or("--bin is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        work,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = args.work.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        if args.trace { "trace" } else { "e2e" }
    ));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    stats::epoch_ns(std::time::Instant::now());
    let env = Env {
        bin: args.bin.clone(),
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        setups: if args.trace { 1 } else { e2e::limits::SETUPS },
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} on {cores} cores",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let run = match args.workload.as_str() {
        "query-mix" => e2e::query_mix(&env),
        "path-mix" => e2e::path_mix(&env),
        "reload-churn" => e2e::reload_churn(&env),
        other => Err(format!("unknown workload `{other}`")),
    };
    let mut outcome: Outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let metrics: Vec<Metric> = if args.trace {
        match trace::layers(&args.workload, &env, &outcome) {
            Ok((m, defects)) => {
                outcome.defects.extend(defects);
                m
            }
            Err(e) => {
                eprintln!("perfbench: traced run: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        std::mem::take(&mut outcome.metrics)
    };
    for d in &outcome.defects {
        println!("  DEFECT: {d}");
    }
    let correct = outcome.failed == 0 && outcome.defects.is_empty();
    println!(
        "  error_rate {} ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    let _ = std::fs::remove_dir_all(&work);
    ExitCode::SUCCESS
}
