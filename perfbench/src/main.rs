//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <grid|replan|serving|decide> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host label, then (last line of standard output) one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.  Traced runs also write their spans to
//! `perfbench/out/spans-<workload>-seed<seed>.tsv`.

use perfbench::stats::HostLabel;
use perfbench::{execute, RunConfig, Scale, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <grid|replan|serving|decide> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("invalid {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        scale: Scale::Full,
    })
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(err) => {
            eprintln!("error: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let host = HostLabel::detect(package.parent().unwrap_or(package))
        .to_json(config.workload.name(), config.seed);
    println!("host {host}");

    let execution = execute(&config);
    for problem in &execution.problems {
        eprintln!("check failed: {problem}");
    }
    let counters: Vec<String> = execution
        .counters
        .iter()
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    eprintln!("counters {}", counters.join(" "));
    if let Some(tracer) = &execution.tracer {
        let path: PathBuf = package.join("out").join(format!(
            "spans-{}-seed{}.tsv",
            config.workload.name(),
            config.seed
        ));
        match tracer.write_tsv(&path, &[format!("host {host}")]) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(err) => eprintln!("warning: writing {}: {err}", path.display()),
        }
    }

    let metrics: Vec<String> = execution
        .metrics
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
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        execution.correct(),
        execution.attempted,
        execution.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
