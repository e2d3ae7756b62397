//! `schedule_suite`: the paper's 1327-loop suite (`rmd_loops::suite` at
//! the seed of the `table5` and `table6` binaries) on the reduced Cydra 5
//! subset, scheduled serially in one thread. Each operation computes one
//! loop's MII on the original and schedules the loop in one of Table 6's
//! representations: discrete on the res-uses reduction, or bitvector on
//! the k-cycle-word reduction. `--seed` draws the order of a round's
//! operations. The loops are the same for every seed: drawing the suite
//! from `--seed` moved p99 between 96 and 161 us from seed to seed,
//! because a few large loops make the tail. Reduction and suite
//! generation happen only in set-up.

use super::{cydra5_subset, first_setup, live, setup_in_place, setup_step, timed_rounds, Report, Subset};
use crate::layers::{self, SchedCtx, Schedule};
use crate::rng::Rng;
use crate::{checks, stats, Config, Scale};
use rmd_loops::Loop;
use rmd_machine::MachineDescription;
use rmd_sched::Representation;
use std::time::Instant;

/// Loops in the paper's suite.
pub const SUITE_LOOPS: usize = 1327;
/// The suite generator seed of the `table5` and `table6` binaries.
pub const SUITE_SEED: u64 = 0xC5;

struct Setup {
    original: MachineDescription,
    res_uses: MachineDescription,
    word: MachineDescription,
    loops: Vec<Loop>,
    discrete: SchedCtx,
    bitvec: SchedCtx,
}

fn setup(scale: Scale) -> Result<Setup, String> {
    let Subset {
        original,
        res_uses: ru,
        word: kw,
        k,
    } = cydra5_subset()?;
    let count = if scale == Scale::Full { SUITE_LOOPS } else { 128 };
    let loops = setup_step("setup.generate", || layers::paper_suite(&layers::opset(&original), count, SUITE_SEED));
    let layout = layers::word_layout(&kw, k)?;
    Ok(Setup {
        discrete: SchedCtx::new(&ru, Representation::Discrete),
        bitvec: SchedCtx::new(&kw, Representation::Bitvec(layout)),
        original,
        res_uses: ru,
        word: kw,
        loops,
    })
}

pub fn run(cfg: &Config, scale: Scale) -> Result<Report, String> {
    let mut report = Report::default();
    let mut state = Some(first_setup(&mut report, || setup(scale))?);

    // Operation `id` schedules loop id / 2: discrete when id is even,
    // bitvec when odd. A round runs them in a seeded order.
    let n = live(&mut state).loops.len();
    let mut order: Vec<usize> = (0..2 * n).collect();
    Rng::new(cfg.seed, 4).shuffle(&mut order);
    let mut first: Vec<Option<Schedule>> = vec![None; 2 * n];
    let again = |r: &mut Report, s: &mut Option<_>| setup_in_place(r, s, || setup(scale));
    timed_rounds(cfg, scale, 2 * n, &mut report, &mut state, again, |s, round, i, _| {
        let s = live(s);
        let id = order[i];
        let g = &s.loops[id / 2].graph;
        let t = Instant::now();
        let mii = layers::mii(g, &s.original);
        let out = match id % 2 {
            0 => layers::schedule(&mut s.discrete, g, &s.res_uses, mii)?,
            _ => layers::schedule(&mut s.bitvec, g, &s.word, mii)?,
        };
        let d = t.elapsed();
        if round == 0 {
            first[id] = Some(out);
        } else if first[id].as_ref() != Some(&out) {
            return Err(format!("{}: round {round} scheduled differently from round 0", s.loops[id / 2].name));
        }
        Ok(Some(d))
    })?;
    report.peak_rss_mb = stats::peak_rss_mb(None)?;
    let s = live(&mut state);

    for (l, pair) in s.loops.iter().zip(first.chunks(2)) {
        let (Some(d), Some(b)) = (&pair[0], &pair[1]) else {
            return Err(format!("{}: not scheduled in round 0", l.name));
        };
        checks::same_schedule(&format!("{}: discrete vs bitvec", l.name), d.ii, &d.times, b.ii, &b.times)?;
        checks::valid_modulo_schedule(&s.original, &l.graph, &d.times, d.ii).map_err(|e| format!("{}: {e}", l.name))?;
        report.sum_ii += u64::from(d.ii);
    }
    report.reduced_usages = (s.res_uses.total_usages() + s.word.total_usages()) as u64;
    report.notes.push(format!(
        "checked {n} loops: valid on the original, identical in both representations"
    ));
    Ok(report)
}
