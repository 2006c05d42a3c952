//! SiloFuse benchmark: one closed-loop workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit-adult --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` times the workload with telemetry off and reports the
//! end-to-end metrics; `--trace 1` runs the workload once untraced and
//! once traced, then replays each layer in isolation, and reports the
//! per-layer metrics. Human-readable lines come first; the last line of
//! standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed output
//! check makes the process exit with status 1.

mod checks;
mod replay;
mod report;
mod stats;
mod telemetry;
mod trace;
mod workloads;

use report::Report;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fit-adult|synth-churn|serve-adult> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    report::print_header(&args);
    let mut report = Report::new(&args);
    workload(&args, &mut report);
    if args.trace {
        match trace::write_spans(&args) {
            Ok(path) => println!("spans written to {}", path.display()),
            Err(e) => report.fail(format!("writing the span log failed: {e}")),
        }
    }
    report.finish()
}
