//! The benchmark's only doors into the program: one adapter function
//! per layer call. Each adapter times its call when tracing is on and
//! records the layer's work counters, so an API change in a layer edits
//! the one function here that calls it.

use crate::trace;
use rmd_core::{Objective, Reduction};
use rmd_loops::{Loop, OpSet};
use rmd_machine::MachineDescription;
use rmd_query::{ModuloMaskCache, WordLayout};
use rmd_sched::{DepGraph, ImsConfig, ImsResult, IterativeModuloScheduler, Representation, SchedScratch};
use rmd_serve::{EngineConfig, ServeEngine};
use std::time::Instant;

/// IMS budget ratio used everywhere (the paper's 6N).
pub const BUDGET_RATIO: f64 = 6.0;

// ---- rmd-machine: MDL text in and out, built-in models --------------------

/// `mdl.parse`: MDL text to a flat machine description.
pub fn parse_mdl(text: &str) -> Result<MachineDescription, String> {
    trace::span("mdl.parse", || rmd_machine::mdl::parse_machine(text))
        .map(|(m, _)| m)
        .map_err(|e| format!("MDL parse error: {e}"))
}

/// `mdl.print`: renders a description as MDL.
pub fn print_mdl(m: &MachineDescription) -> String {
    trace::span("mdl.print", || rmd_machine::mdl::print(m))
}

/// The full Cydra 5 built-in model (alternative groups included).
pub fn cydra5() -> MachineDescription {
    rmd_machine::models::cydra5()
}

// ---- rmd-fault: seeded machine generator ----------------------------------

/// `fault.generate`: a seeded machine at a generator preset.
pub fn generate_machine(seed: u64, preset: &str) -> Result<MachineDescription, String> {
    let cfg = rmd_fault::GenConfig::preset(preset).ok_or_else(|| format!("no preset {preset:?}"))?;
    Ok(trace::span("fault.generate", || rmd_fault::generate(seed, &cfg)))
}

// ---- rmd-core: reduction and verification ---------------------------------

/// `core.reduce`: the six reduction phases (forbidden matrix through
/// materialisation) under `objective`.
pub fn reduce(m: &MachineDescription, objective: Objective) -> Result<Reduction, String> {
    let r = trace::span("core.reduce", || {
        rmd_core::try_reduce(m, objective, &rmd_core::ReduceOptions::default())
    })
    .map_err(|e| format!("{}: reduction failed: {e}", m.name()))?;
    if trace::on() {
        trace::count("core.reductions", 1.0);
        trace::count("core.genset_size", r.genset_size as f64);
        trace::count("core.pruned_size", r.pruned_size as f64);
        trace::count("core.selected_resources", r.selection.resources.len() as f64);
    }
    Ok(r)
}

/// `core.verify`: the program's own equivalence check.
pub fn verify(original: &MachineDescription, reduced: &MachineDescription) -> Result<(), String> {
    trace::span("core.verify", || rmd_core::verify_equivalence(original, reduced))
        .map_err(|e| format!("{}: verify_equivalence rejected the reduction: {e}", original.name()))
}

/// The k of the k-cycle-word objective as the paper's Table 1-4 sweep
/// picks it: 64-bit words shared by the res-uses reduction's resources.
pub fn word_k(res_uses: &Reduction) -> u32 {
    (64 / res_uses.reduced_classes.num_resources().max(1) as u32).max(1)
}

/// The bitvector layout for scheduling against `reduced`: k cycles per
/// word, clamped to what fits its resources into 64 bits.
pub fn word_layout(reduced: &MachineDescription, k: u32) -> Result<WordLayout, String> {
    let n = reduced.num_resources();
    if n == 0 || n > 64 {
        return Err(format!("{}: {n} resources do not fit one 64-bit word", reduced.name()));
    }
    Ok(WordLayout::with_k(64, k.min((64 / n as u32).max(1))))
}

// ---- rmd-sched / rmd-query: MII and iterative modulo scheduling -----------

/// `sched.mii`: the MII lower bound of `g` on `m`.
pub fn mii(g: &DepGraph, m: &MachineDescription) -> u32 {
    trace::span("sched.mii", || rmd_sched::mii::mii(g, m))
}

/// Scheduler state reused across loops against one description.
pub struct SchedCtx {
    repr: Representation,
    cache: Option<ModuloMaskCache>,
    scratch: SchedScratch,
}

impl SchedCtx {
    pub fn new(machine: &MachineDescription, repr: Representation) -> Self {
        let cache = match repr {
            Representation::Bitvec(layout) => Some(ModuloMaskCache::new(machine, layout)),
            Representation::Discrete => None,
        };
        SchedCtx {
            repr,
            cache,
            scratch: SchedScratch::new(),
        }
    }

    fn repr_name(&self) -> &'static str {
        match self.repr {
            Representation::Discrete => "discrete",
            Representation::Bitvec(_) => "bitvec",
        }
    }
}

/// An achieved schedule: the II and one issue time per node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    pub ii: u32,
    pub mii: u32,
    pub times: Vec<u32>,
}

/// `sched.schedule`: IMS on `machine` in the context's representation,
/// starting the II search at `mii`.
pub fn schedule(ctx: &mut SchedCtx, g: &DepGraph, machine: &MachineDescription, mii: u32) -> Result<Schedule, String> {
    let ims = IterativeModuloScheduler::new(ImsConfig {
        budget_ratio: BUDGET_RATIO,
        ..ImsConfig::default()
    });
    let repr = ctx.repr;
    let r: ImsResult = trace::span("sched.schedule", || match ctx.cache.as_mut() {
        Some(cache) => ims.schedule_with_mii_cached_scratch(g, machine, repr, mii, cache, &mut ctx.scratch),
        None => ims.schedule_with_mii_scratch(g, machine, repr, mii, &mut ctx.scratch),
    })
    .map_err(|e| format!("{}: {e}", machine.name()))?;
    if trace::on() {
        trace::count("sched.loops", 1.0);
        trace::count("sched.ops", g.num_nodes() as f64);
        trace::count("sched.attempts", f64::from(r.attempts));
        trace::count("sched.decisions", r.decisions as f64);
        trace::count("sched.evictions", r.reversed_by_resource as f64);
        trace::count("sched.dep_reversals", r.reversed_by_dependence as f64);
        trace::count("sched.at_mii", f64::from(u8::from(r.ii == r.mii)));
        let w = &r.counters;
        let p = ctx.repr_name();
        trace::count(&format!("sched.loops.{p}"), 1.0);
        for (name, v) in [
            ("check_calls", w.check.calls),
            ("check_units", w.check.units),
            ("assign_free_calls", w.assign_free.calls),
            ("assign_free_units", w.assign_free.units),
            ("free_calls", w.free.calls),
            ("free_units", w.free.units),
            ("window_calls", w.check_window.calls),
            ("window_loads", w.check_window.units),
            ("transitions", w.transitions),
        ] {
            trace::count(&format!("query.{p}.{name}"), v as f64);
        }
    }
    let out = Schedule {
        ii: r.ii,
        mii: r.mii,
        times: r.times.clone(),
    };
    ctx.scratch.recycle(r);
    Ok(out)
}

// ---- rmd-loops: loop suites ------------------------------------------------

/// The Cydra 5 subset vocabulary the loop generators draw from.
pub fn opset(m: &MachineDescription) -> OpSet {
    OpSet::for_cydra_subset(m)
}

/// `loops.generate`: the paper-shaped suite (`rmd_loops::suite`).
pub fn paper_suite(ops: &OpSet, count: usize, seed: u64) -> Vec<Loop> {
    trace::span("loops.generate", || rmd_loops::suite(ops, count, seed))
}

/// `loops.generate`: the many-small-loops stress suite.
pub fn stress_suite(ops: &OpSet, count: usize, seed: u64) -> Vec<Loop> {
    trace::span("loops.generate", || rmd_bench::benchcmd::stress_suite(ops, count, seed))
}

// ---- rmd-bench: the suite runner -------------------------------------------

/// `runner.loop_costs`: the parallel runner's claim-order cost estimate.
pub fn loop_costs(machine: &MachineDescription, loops: &[Loop]) -> Vec<u64> {
    trace::span("runner.loop_costs", || rmd_bench::loop_costs(machine, loops))
}

/// `runner.parallel`: one call of the work-stealing suite runner.
pub fn run_parallel(
    machine: &MachineDescription,
    mii_machine: &MachineDescription,
    loops: &[Loop],
    repr: Representation,
    workers: usize,
) -> Vec<rmd_bench::LoopRun> {
    trace::span("runner.parallel", || {
        rmd_bench::run_suite_runs_parallel(machine, mii_machine, loops, repr, BUDGET_RATIO, workers)
    })
}

/// `runner.serial`: the same suite scheduled in the calling thread.
pub fn run_serial(
    machine: &MachineDescription,
    mii_machine: &MachineDescription,
    loops: &[Loop],
    repr: Representation,
) -> Vec<rmd_bench::LoopRun> {
    trace::span("runner.serial", || {
        rmd_bench::run_suite_runs(machine, mii_machine, loops, repr, BUDGET_RATIO)
    })
}

/// Workers the host offers (`nproc`).
pub fn host_parallelism() -> usize {
    rmd_bench::parallel::host_parallelism()
}

// ---- rmd-serve: protocol and engine, in process ----------------------------

/// `serve.parse_frame`: the daemon's frame parser.
pub fn parse_frame(line: &str) -> bool {
    trace::span("serve.parse_frame", || {
        rmd_serve::proto::parse_frame(line, rmd_serve::proto::DEFAULT_MAX_FRAME_BYTES)
            .body
            .is_ok()
    })
}

/// An in-process engine configured as `rmd serve` is by default: the
/// certificate gate reads `certs/`.
pub fn serve_engine() -> ServeEngine {
    ServeEngine::new(EngineConfig {
        cert_dir: Some(std::path::PathBuf::from("certs")),
        ..EngineConfig::default()
    })
}

/// How many machines the daemon's cache holds by default.
pub fn serve_machine_cap() -> usize {
    EngineConfig::default().machine_cap
}

/// The k-cycle-word objective the daemon reduces an admitted machine
/// under: k of the widest 64-bit word layout of the original.
pub fn serve_objective(original: &MachineDescription) -> Objective {
    Objective::KCycleWord {
        k: WordLayout::widest(64, original.num_resources()).k,
    }
}

/// `serve.engine`: one frame through the request engine.
pub fn engine_handle(engine: &mut ServeEngine, line: &str) -> String {
    trace::span("serve.engine", || engine.handle_line(line, Instant::now()).0)
}
