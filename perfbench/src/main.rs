//! Standing benchmark of the FuPerMod reproduction.
//!
//! ```text
//! perfbench --workload balance_geometric|balance_numerical|serve_mixed
//!           --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer split, measured from outside the program by timing calls
//! into each layer's public functions. `--smoke` shrinks every
//! workload to a few seconds. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the
//! line before it records provenance and the sample count behind each
//! timing. A failed correctness check prints the result with
//! `"correct": false` and exits with status 1. See `README.md`.

mod balance;
mod report;
mod serve;
mod stats;

use std::process::ExitCode;

use report::Report;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measurement budget of one run, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the plain end-to-end run.
    pub trace: bool,
    /// Toy sizes: each workload runs in seconds.
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result: Result<Report, String> = match args.workload.as_str() {
        "balance_geometric" => balance::run(&balance::GEOMETRIC, &args),
        "balance_numerical" => balance::run(&balance::NUMERICAL, &args),
        "serve_mixed" => serve::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(mut report) => {
            report.print(&args);
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: correctness checks failed:");
                for f in &report.check_failures {
                    eprintln!("  {f}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
