//! The four workloads and the closed loop they share.
//!
//! Every workload sets up once, then runs whole rounds of the same
//! operations, one at a time, until the run length has passed and at
//! least [`MIN_SAMPLES`] operations are timed. Between rounds it sets up
//! again at evenly spaced times; the median of all set-ups is `setup_s`.
//! An in-process workload drops its live state before each repeat and
//! goes on with the repeat's (see [`setup_in_place`]), so its peak RSS
//! never holds two set-ups. The outputs of round 0 are checked in full against the
//! independent checks in `checks`; every later round must reproduce
//! round 0 exactly. In a traced run, odd rounds run with tracing on and
//! even rounds with it off, and their mean latencies give the tracing
//! overhead.

use crate::stats::Samples;
use crate::{layers, trace, Config, Scale};
use rmd_core::Objective;
use rmd_machine::MachineDescription;
use std::time::{Duration, Instant};

mod reduce;
mod schedule;
mod serve;
mod stress;

/// Every workload `--workload` accepts. Traced runs probe each of them
/// for the layers the traced workload does not reach. `BENCHMARK.json`
/// lists all but `stress_batches` (see its module).
pub const NAMES: [&str; 4] = ["reduce_machines", "schedule_suite", "stress_batches", "serve_socket"];

/// Set-ups per run; `setup_s` is their median. Set-ups taken back to
/// back sample the host at one moment, and their median spread by up to
/// 25% between runs; spread over the run, they average host noise the way
/// the timed phase does.
const SETUPS: usize = 15;

/// Untraced operations a full run times at least: one latency window.
const MIN_SAMPLES: u64 = crate::stats::WINDOW as u64;

/// Operation-level results of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Seconds of each set-up.
    pub setups_s: Vec<f64>,
    /// Latencies of untraced operations.
    pub latencies: Samples,
    /// Operations per second of busy time in each untraced round.
    pub round_rates: Vec<f64>,
    /// Latencies of traced operations (traced runs only).
    pub traced: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mb: f64,
    /// Achieved II summed over one pass of the workload's loops.
    pub sum_ii: u64,
    /// Usages in the reduced descriptions the workload produces or
    /// schedules against.
    pub reduced_usages: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

pub fn run(name: &str, cfg: &Config, scale: Scale) -> Result<Report, String> {
    match name {
        "reduce_machines" => reduce::run(cfg, scale),
        "schedule_suite" => schedule::run(cfg, scale),
        "stress_batches" => stress::run(cfg, scale),
        "serve_socket" => serve::run(cfg, scale),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Runs and times the first set-up.
pub fn first_setup<S>(report: &mut Report, setup: impl FnOnce() -> Result<S, String>) -> Result<S, String> {
    let t = Instant::now();
    let s = setup()?;
    report.setups_s.push(t.elapsed().as_secs_f64());
    Ok(s)
}

/// Repeats the set-up in place: drops the live state, then times a
/// fresh one and makes it live. Set-up is deterministic, so the fresh
/// state equals the dropped one.
pub fn setup_in_place<S>(
    report: &mut Report,
    state: &mut Option<S>,
    setup: impl FnOnce() -> Result<S, String>,
) -> Result<(), String> {
    *state = None;
    *state = Some(first_setup(report, setup)?);
    Ok(())
}

/// The live state of an in-process workload between set-ups.
pub fn live<S>(state: &mut Option<S>) -> &mut S {
    state.as_mut().expect("set up before every operation")
}

/// One operation's outcome: its latency, or `None` if it failed: the
/// program refused it or returned an output a check rejects (counted in
/// `failed`).
pub type OpResult = Result<Option<Duration>, String>;

/// Runs whole rounds of `round_len` operations through `op(state, round,
/// i, traced)` until the run is long enough. Before a round, once each
/// 1/[`SETUPS`] of the run length has passed, `again(report, state)`
/// repeats the set-up; repeats the run had no time for follow the last
/// round. A probe sets up only once. Tracing is on in odd rounds of
/// a traced run or a probe (a probe runs two rounds); afterwards it is
/// left as the configuration asks.
pub fn timed_rounds<S>(
    cfg: &Config,
    scale: Scale,
    round_len: usize,
    report: &mut Report,
    state: &mut S,
    mut again: impl FnMut(&mut Report, &mut S) -> Result<(), String>,
    mut op: impl FnMut(&mut S, usize, usize, bool) -> OpResult,
) -> Result<(), String> {
    let start = Instant::now();
    let setups = if scale == Scale::Full { SETUPS } else { 1 };
    let due = |k: usize| cfg.seconds * k as f64 / setups as f64;
    let mut round = 0usize;
    loop {
        while report.setups_s.len() < setups && start.elapsed().as_secs_f64() >= due(report.setups_s.len()) {
            again(report, state)?;
        }
        let traced = (cfg.trace || scale == Scale::Probe) && round % 2 == 1;
        trace::set(traced);
        let (mut completed, mut busy) = (0u64, Duration::ZERO);
        for i in 0..round_len {
            report.attempted += 1;
            match op(state, round, i, traced)? {
                Some(d) if traced => report.traced.push(d),
                Some(d) => {
                    report.latencies.push(d);
                    completed += 1;
                    busy += d;
                }
                None => report.failed += 1,
            }
        }
        if completed > 0 {
            report.round_rates.push(completed as f64 / busy.as_secs_f64());
            report.latencies.end_round();
        }
        round += 1;
        let done = match scale {
            Scale::Probe => round >= 2,
            Scale::Full if cfg.trace => round >= 2 && start.elapsed().as_secs_f64() >= cfg.seconds,
            Scale::Full => start.elapsed().as_secs_f64() >= cfg.seconds && report.latencies.len() >= MIN_SAMPLES,
        };
        if done {
            break;
        }
    }
    while report.setups_s.len() < setups {
        again(report, state)?;
    }
    trace::set(cfg.trace || scale == Scale::Probe);
    report.latencies.finish();
    report.traced.finish();
    report
        .notes
        .push(format!("timed phase: {round} rounds of {round_len} operations in {:.2} s", start.elapsed().as_secs_f64()));
    Ok(())
}

/// Times `f`, recording the duration as the set-up step `name` in a
/// traced run.
pub fn setup_step<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    trace::observe(name, t.elapsed().as_nanos() as u64);
    r
}

/// The repository's shipped machine descriptions, by file name.
pub fn machine_files() -> Result<Vec<(String, String)>, String> {
    let dir = std::path::Path::new("machines");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e} (run from the repository root)", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mdl"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap_or_default().to_string_lossy().into_owned();
            std::fs::read_to_string(&p)
                .map(|t| (name, t))
                .map_err(|e| format!("read {}: {e}", p.display()))
        })
        .collect()
}

/// `machines/cydra5_subset.mdl` and its res-uses and k-cycle-word
/// reductions, both verified: the set-up of the loop workloads.
pub struct Subset {
    pub original: MachineDescription,
    pub res_uses: MachineDescription,
    pub word: MachineDescription,
    /// The k of the k-cycle-word reduction.
    pub k: u32,
}

pub fn cydra5_subset() -> Result<Subset, String> {
    let path = "machines/cydra5_subset.mdl";
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e} (run from the repository root)"))?;
    let original = setup_step("setup.parse", || layers::parse_mdl(&text))?;
    setup_step("setup.reduce", || {
        let ru = layers::reduce(&original, Objective::ResUses)?;
        layers::verify(&original, &ru.reduced)?;
        let k = layers::word_k(&ru);
        let kw = layers::reduce(&original, Objective::KCycleWord { k })?;
        layers::verify(&original, &kw.reduced)?;
        Ok(Subset {
            res_uses: ru.reduced,
            word: kw.reduced,
            k,
            original,
        })
    })
}
