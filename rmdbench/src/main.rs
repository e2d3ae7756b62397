//! The repository benchmark.
//!
//! ```text
//! rmdbench --workload <reduce_machines|schedule_suite|stress_batches|serve_socket>
//!          --seed <n> --seconds <s> --trace <0|1> [--rmd <path to the rmd binary>]
//! ```
//!
//! Run from the repository root (it reads `machines/` and `certs/`). With
//! `--trace 0` it prints the end-to-end metrics of one workload; with
//! `--trace 1` the per-layer metrics and the tracing overhead. The last
//! line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! A failed output check prints the reason to standard error and exits
//! with 1, without a result line.

mod checks;
mod graphs;
mod layers;
mod metrics;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// How much of a workload to run: the whole workload, or a short probe
/// that a traced run of another workload uses to measure the layers it
/// does not reach itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Probe,
}

#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub rmd: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: rmdbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--rmd <path>]",
        workloads::NAMES.join("|")
    )
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        rmd: PathBuf::from(".bench_build/release/rmd"),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}\n{}", usage());
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
                    return Err(bad("expected a positive number"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--rmd" => cfg.rmd = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    if !workloads::NAMES.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{}", cfg.workload, usage()));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match metrics::run(&cfg) {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rmdbench: {}: {e}", cfg.workload);
            ExitCode::from(1)
        }
    }
}
