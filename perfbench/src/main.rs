//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload, prints an information line (host fingerprint,
//! digest, checks) and then the JSON result as the last line of stdout.
//! Malformed arguments exit with code 2 and print no result.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::workloads::COMMITS_PER_RUN;
use perfbench::{host, result_line, run, RunArgs, Workload};

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects an unsigned integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    // Outputs go under the build directory, inside the checkout.
    let out_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
            PathBuf::from,
        )
        .join("perfbench-out");
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace: trace.ok_or("--trace is required")?,
        commits: COMMITS_PER_RUN,
        out_dir,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: perfbench --workload <paper-cold|paper-warm|multiprog> \
                 --seed N --seconds N --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    let mut info: Vec<String> = vec![
        format!("\"workload\": {}", host::json_str(args.workload.name())),
        format!("\"host\": {}", host::fingerprint_json(args.seed)),
        format!("\"digest\": \"{:016x}\"", outcome.digest),
        format!("\"trace\": {}", args.trace),
    ];
    info.extend(
        outcome
            .info
            .iter()
            .map(|(k, v)| format!("{}: {v}", host::json_str(k))),
    );
    println!("{{\"perfbench\": {{{}}}}}", info.join(", "));
    println!("{}", result_line(&outcome, args.trace));
    ExitCode::SUCCESS
}
