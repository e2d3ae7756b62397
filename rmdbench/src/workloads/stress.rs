//! `stress_batches`: the seeded 100k-loop stress suite, cut into calls
//! of the parallel suite runner with workers = `nproc`. Call sizes are
//! spaced log-uniformly from 2 to 2048 loops, so both of the runner's
//! regimes (a few loops, thousands of loops) occur; each call is one
//! operation. Every seed cuts the suite into the same call sizes, in its
//! own order. The loops schedule on the k-cycle-word reduction of the
//! Cydra 5 subset (bitvector), with MII from the original.
//!
//! `BENCHMARK.json` does not list this workload, though it runs by name
//! and traced runs of the listed workloads probe it for the runner's
//! per-layer metrics. On a host with two shared vCPUs its two-worker
//! calls lost 17-25% of CPU time to the hypervisor (steal), against 2.5%
//! with one busy CPU, and five runs spread its p50 by 76%: no bound a
//! regression gate could use.
//!
//! Round 0's schedules are checked against a serial runner pass over
//! the whole suite and against the independent validator. A traced run
//! also runs every traced call serially and reports the speedup, split
//! into small and large calls.

use super::{cydra5_subset, first_setup, live, setup_in_place, setup_step, timed_rounds, Report, Subset};
use crate::layers;
use crate::rng::Rng;
use crate::{checks, stats, trace, Config, Scale};
use rmd_bench::LoopRun;
use rmd_loops::Loop;
use rmd_machine::MachineDescription;
use rmd_sched::Representation;
use std::ops::Range;
use std::time::Instant;

const STRESS_LOOPS: usize = 100_000;
const MIN_CALL: f64 = 2.0;
const MAX_CALL: f64 = 2048.0;
/// Calls of more loops than this count as large in the traced split.
const SMALL_CALL_MAX: usize = 256;

struct Setup {
    original: MachineDescription,
    res_uses: MachineDescription,
    word: MachineDescription,
    repr: Representation,
    loops: Vec<Loop>,
    calls: Vec<Range<usize>>,
}

fn setup(cfg: &Config, scale: Scale) -> Result<Setup, String> {
    let Subset {
        original,
        res_uses: ru,
        word: kw,
        k,
    } = cydra5_subset()?;
    let count = if scale == Scale::Full { STRESS_LOOPS } else { 4000 };
    let loops = setup_step("setup.generate", || layers::stress_suite(&layers::opset(&original), count, cfg.seed));
    let repr = Representation::Bitvec(layers::word_layout(&kw, k)?);
    let mut calls = Vec::new();
    let mut at = 0;
    for size in call_sizes(count, &mut Rng::new(cfg.seed, 2)) {
        let end = (at + size).min(count);
        calls.push(at..end);
        at = end;
    }
    Ok(Setup {
        original,
        res_uses: ru,
        word: kw,
        repr,
        loops,
        calls,
    })
}

/// Call sizes covering `count` loops: evenly spaced quantiles of a
/// log-uniform distribution on [`MIN_CALL`, `MAX_CALL`], in a seeded
/// order. Every seed gets the same sizes; drawing them at random instead
/// moved the median call, and with it p50, by a factor of 2.5 between
/// seeds.
fn call_sizes(count: usize, rng: &mut Rng) -> Vec<usize> {
    let quantiles = |n: usize| -> Vec<usize> {
        (0..n)
            .map(|j| (MIN_CALL * (MAX_CALL / MIN_CALL).powf((j as f64 + 0.5) / n as f64)).round() as usize)
            .collect()
    };
    let mut n = 1;
    while quantiles(n).iter().sum::<usize>() < count {
        n += 1;
    }
    let mut sizes = quantiles(n);
    rng.shuffle(&mut sizes);
    sizes
}

pub fn run(cfg: &Config, scale: Scale) -> Result<Report, String> {
    let mut report = Report::default();
    let mut state = Some(first_setup(&mut report, || setup(cfg, scale))?);
    let s = live(&mut state);
    let workers = layers::host_parallelism();
    // The runner estimates these costs inside every call; timing them once
    // over the whole suite gives `runner.loop_costs_us`.
    let _ = layers::loop_costs(&s.word, &s.loops);

    let mut first: Vec<LoopRun> = Vec::with_capacity(s.loops.len());
    let calls = s.calls.len();
    let again = |r: &mut Report, s: &mut Option<_>| setup_in_place(r, s, || setup(cfg, scale));
    timed_rounds(cfg, scale, calls, &mut report, &mut state, again, |s, round, i, traced| {
        let s = live(s);
        let slice = &s.loops[s.calls[i].clone()];
        let t = Instant::now();
        let runs = layers::run_parallel(&s.word, &s.original, slice, s.repr, workers);
        let d = t.elapsed();
        if traced {
            let t = Instant::now();
            let serial = layers::run_serial(&s.word, &s.original, slice, s.repr);
            let ds = t.elapsed();
            if serial != runs {
                return Err(format!("call {i}: parallel and serial runner results differ"));
            }
            let class = if slice.len() > SMALL_CALL_MAX { "large" } else { "small" };
            trace::observe(&format!("runner.{class}.parallel"), d.as_nanos() as u64);
            trace::observe(&format!("runner.{class}.serial"), ds.as_nanos() as u64);
        }
        if round == 0 {
            first.extend(runs);
        } else if runs[..] != first[s.calls[i].clone()] {
            return Err(format!("call {i}: round {round} scheduled differently from round 0"));
        }
        Ok(Some(d))
    })?;
    report.peak_rss_mb = stats::peak_rss_mb(None)?;
    let s = live(&mut state);

    let serial = layers::run_serial(&s.word, &s.original, &s.loops, s.repr);
    if serial.len() != first.len() {
        return Err(format!("serial pass scheduled {} loops, parallel calls {}", serial.len(), first.len()));
    }
    for ((l, p), q) in s.loops.iter().zip(&first).zip(&serial) {
        checks::same_schedule(&format!("{}: parallel vs serial runner", l.name), p.ii, &p.times, q.ii, &q.times)?;
        checks::valid_modulo_schedule(&s.original, &l.graph, &p.times, p.ii).map_err(|e| format!("{}: {e}", l.name))?;
        report.sum_ii += u64::from(p.ii);
    }
    report.reduced_usages = (s.res_uses.total_usages() + s.word.total_usages()) as u64;
    report.notes.push(format!(
        "checked {} loops in {} calls on {workers} workers: equal to a serial pass, valid on the original",
        first.len(),
        s.calls.len()
    ));
    Ok(report)
}
