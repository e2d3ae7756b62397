//! `reduce_machines`: each operation parses one MDL text, reduces it
//! under res-uses and under k-cycle-word, and verifies both results with
//! the program's own equivalence check. Nothing is scheduled in the
//! timed part of an operation; after it, the operation's self-recurrence
//! loops (see [`self_recurrences`]) are scheduled on the original and on
//! both reductions, and an invalid schedule fails the operation. These
//! loops depend only on the machine, so the same operations fail in every
//! round and on every seed.
//!
//! Inputs per round: the shipped `machines/*.mdl`, the full Cydra 5
//! rendered as MDL, and generator machines at the `medium` and `large`
//! presets from the fixed generator seeds `0..24`, in an order drawn from
//! `--seed`. The machines are the same for every seed because their cost
//! is heavy-tailed: drawing them from `--seed` moved p99 from 81 ms to
//! 201 ms between seeds. Round 0's reductions are then checked against
//! the independent forbidden-latency matrix, and a set of chain and
//! recurrence loops per machine, drawn from `--seed`, must schedule
//! identically on the original and on both reductions.

use super::{first_setup, live, machine_files, setup_in_place, setup_step, timed_rounds, Report};
use crate::layers::{self, SchedCtx};
use crate::rng::Rng;
use crate::{checks, graphs, stats, Config, Scale};
use rmd_core::Objective;
use rmd_machine::{MachineDescription, OpId};
use rmd_sched::{DepGraph, DepKind, Representation};
use std::time::Instant;

/// Generated machines per preset and round.
const GENERATED_PER_PRESET: usize = 24;
/// Identity-check loops per machine.
const LOOPS_PER_MACHINE: usize = 16;

struct Outcome {
    original: MachineDescription,
    res_uses: MachineDescription,
    word: MachineDescription,
    k: u32,
}

/// One operation: parse, reduce twice, verify twice.
fn reduce_one(text: &str) -> Result<Outcome, String> {
    let original = layers::parse_mdl(text)?;
    let ru = layers::reduce(&original, Objective::ResUses)?;
    layers::verify(&original, &ru.reduced)?;
    let k = layers::word_k(&ru);
    let kw = layers::reduce(&original, Objective::KCycleWord { k })?;
    layers::verify(&original, &kw.reduced)?;
    Ok(Outcome {
        original,
        res_uses: ru.reduced,
        word: kw.reduced,
        k,
    })
}

fn inputs(cfg: &Config, scale: Scale) -> Result<Vec<(String, String)>, String> {
    let mut out = machine_files()?;
    setup_step("setup.generate", || -> Result<(), String> {
        if scale == Scale::Full {
            out.push(("cydra5".into(), layers::print_mdl(&layers::cydra5())));
        }
        let per_preset = if scale == Scale::Full { GENERATED_PER_PRESET } else { 2 };
        for preset in ["medium", "large"] {
            for j in 0..per_preset as u64 {
                let m = layers::generate_machine(j, preset)?;
                out.push((format!("{preset}-{j}"), layers::print_mdl(&m)));
            }
        }
        Ok(())
    })?;
    Rng::new(cfg.seed, 1).shuffle(&mut out);
    Ok(out)
}

pub fn run(cfg: &Config, scale: Scale) -> Result<Report, String> {
    let mut report = Report::default();
    let mut texts = Some(first_setup(&mut report, || inputs(cfg, scale))?);
    let n = live(&mut texts).len();

    let mut first: Vec<Outcome> = Vec::with_capacity(n);
    let mut invalid: Vec<Option<String>> = Vec::with_capacity(n);
    let again = |r: &mut Report, texts: &mut Option<_>| setup_in_place(r, texts, || inputs(cfg, scale));
    timed_rounds(cfg, scale, n, &mut report, &mut texts, again, |texts, round, i, _| {
        let texts = live(texts);
        let t = Instant::now();
        let out = reduce_one(&texts[i].1)?;
        let d = t.elapsed();
        let verdict = self_recurrences_valid(&out).map_err(|e| format!("{}: {e}", texts[i].0))?;
        if round == 0 {
            first.push(out);
            invalid.push(verdict.clone().err());
        } else {
            let f = &first[i];
            if out.res_uses != f.res_uses || out.word != f.word {
                return Err(format!("{}: round {round} reduced differently from round 0", texts[i].0));
            }
        }
        Ok(verdict.is_ok().then_some(d))
    })?;
    report.peak_rss_mb = stats::peak_rss_mb(None)?;
    let texts = live(&mut texts);

    let loops_per_machine = if scale == Scale::Full { LOOPS_PER_MACHINE } else { 2 };
    let mut also_invalid = 0;
    for (i, o) in first.iter().enumerate() {
        checks::same_forbidden_matrix(&o.original, &o.res_uses)?;
        checks::same_forbidden_matrix(&o.original, &o.word)?;
        report.reduced_usages += (o.res_uses.total_usages() + o.word.total_usages()) as u64;
        let mut three = Three::new(o)?;
        for g in graphs::chains_and_recurrences(&o.original, &mut Rng::new(cfg.seed, 100 + i as u64), loops_per_machine) {
            let (ii, verdict) = three.schedule(o, &g).map_err(|e| format!("{}: {e}", texts[i].0))?;
            report.sum_ii += u64::from(ii);
            match verdict {
                Ok(()) => {}
                // The machine's own operations already fail on this defect
                // in every round; whether a seeded loop meets it too
                // depends on the seed, so it is counted here only.
                Err(_) if invalid[i].is_some() => also_invalid += 1,
                Err(e) => return Err(format!("{}: {e}", texts[i].0)),
            }
        }
    }
    report.notes.push(format!(
        "checked {} machines: equal forbidden-latency matrices; identical schedules on original and both reductions",
        first.len()
    ));
    for (i, e) in invalid.iter().enumerate() {
        if let Some(e) = e {
            report.notes.push(format!("{}: operation fails in every round: invalid schedule: {e}", texts[i].0));
        }
    }
    if also_invalid > 0 {
        report.notes.push(format!(
            "{also_invalid} seeded loops on those machines got invalid schedules too (identical in all three descriptions)"
        ));
    }
    Ok(report)
}

/// One-operation loops, one for each positive latency `d` at which an
/// operation of `m` collides with itself: a self-recurrence of delay `d`
/// and distance 1. Its recurrence bound makes II = `d` the first II to
/// try, and there the operation collides with its own next iteration,
/// so a valid schedule needs another II.
fn self_recurrences(m: &MachineDescription) -> Vec<DepGraph> {
    let mut out = Vec::new();
    for (x, op) in m.operations().iter().enumerate() {
        let usages = op.table().usages();
        let mut gaps: Vec<u32> = usages
            .iter()
            .flat_map(|a| {
                usages
                    .iter()
                    .filter(move |b| b.resource == a.resource && b.cycle > a.cycle)
                    .map(move |b| b.cycle - a.cycle)
            })
            .collect();
        gaps.sort_unstable();
        gaps.dedup();
        for d in gaps {
            let mut g = DepGraph::new();
            let n = g.add_node(OpId(x as u32));
            g.add_edge(n, n, d as i32, 1, DepKind::Flow);
            out.push(g);
        }
    }
    out
}

/// Schedules every loop of [`self_recurrences`] on the original and both
/// reductions; they must agree. `Err` inside `Ok` is the validator's
/// first rejection.
fn self_recurrences_valid(o: &Outcome) -> Result<Result<(), String>, String> {
    let mut three = Three::new(o)?;
    for g in self_recurrences(&o.original) {
        if let (_, Err(e)) = three.schedule(o, &g)? {
            return Ok(Err(e));
        }
    }
    Ok(Ok(()))
}

/// Scheduler contexts on the original (discrete), the res-uses reduction
/// (discrete) and the k-cycle-word reduction (bitvector) of one machine.
struct Three {
    original: SchedCtx,
    res_uses: SchedCtx,
    word: SchedCtx,
}

impl Three {
    fn new(o: &Outcome) -> Result<Self, String> {
        Ok(Three {
            original: SchedCtx::new(&o.original, Representation::Discrete),
            res_uses: SchedCtx::new(&o.res_uses, Representation::Discrete),
            word: SchedCtx::new(&o.word, Representation::Bitvec(layers::word_layout(&o.word, o.k)?)),
        })
    }

    /// Schedules `g` on all three from the original's MII. The three
    /// schedules must be identical (`Err` otherwise); returns their II and
    /// the independent validator's verdict on the original.
    fn schedule(&mut self, o: &Outcome, g: &DepGraph) -> Result<(u32, Result<(), String>), String> {
        let mii = layers::mii(g, &o.original);
        let a = layers::schedule(&mut self.original, g, &o.original, mii)?;
        let b = layers::schedule(&mut self.res_uses, g, &o.res_uses, mii)?;
        let c = layers::schedule(&mut self.word, g, &o.word, mii)?;
        checks::same_schedule("original vs res-uses", a.ii, &a.times, b.ii, &b.times)?;
        checks::same_schedule("original vs k-cycle-word bitvec", a.ii, &a.times, c.ii, &c.times)?;
        Ok((a.ii, checks::valid_modulo_schedule(&o.original, g, &a.times, a.ii)))
    }
}
