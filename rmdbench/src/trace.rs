//! Tracing for the per-layer run.
//!
//! Spans are recorded here, in the benchmark's own code, around each
//! call into a layer's public functions (see `layers`). While tracing is
//! on, the spans the program already emits through `rmd_obs` (reduction
//! phases, IMS attempts and slot searches) are drained after every call
//! and folded in under the benchmark's names. Only per-name totals are
//! kept. Tracing is off for the end-to-end run, where each
//! adapter then costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);

#[derive(Default)]
struct Recorder {
    times: BTreeMap<String, (u64, u64)>,
    counts: BTreeMap<String, f64>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Totals of one traced run: per-name call counts and busy time, plus
/// accumulated counters.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    times: BTreeMap<String, (u64, u64)>,
    counts: BTreeMap<String, f64>,
}

impl Layers {
    /// Mean microseconds per call of `name`, if it was called.
    pub fn mean_us(&self, name: &str) -> Option<f64> {
        self.times
            .get(name)
            .filter(|(n, _)| *n > 0)
            .map(|(n, ns)| *ns as f64 / *n as f64 * 1e-3)
    }

    /// Total microseconds spent in `name`.
    pub fn total_us(&self, name: &str) -> Option<f64> {
        self.times.get(name).map(|(_, ns)| *ns as f64 * 1e-3)
    }

    pub fn count(&self, name: &str) -> Option<f64> {
        self.counts.get(name).copied()
    }
}

pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Turns recording on or off, together with the program's own `rmd_obs`
/// spans.
pub fn set(enabled: bool) {
    ON.store(enabled, Ordering::SeqCst);
    rmd_obs::set_enabled(enabled);
    let _ = rmd_obs::drain_events();
}

/// Switches the program's own `rmd_obs` spans alone, leaving the
/// benchmark's spans as they are: for timing a layer whose internal
/// spans would slow it down.
pub fn set_program_spans(enabled: bool) {
    rmd_obs::set_enabled(enabled);
    let _ = rmd_obs::drain_events();
}

/// Runs `f` and adds its duration to the total of `name` when tracing
/// is on.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !on() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    observe(name, t0.elapsed().as_nanos() as u64);
    fold_program_spans();
    out
}

/// Records one timing measured elsewhere (a round trip, a span copied
/// out of a serve reply).
pub fn observe(name: &str, ns: u64) {
    observe_n(name, 1, ns);
}

/// Records `n` timings measured elsewhere that took `total_ns` together.
pub fn observe_n(name: &str, n: u64, total_ns: u64) {
    if on() {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let e = r.times.entry(name.to_string()).or_default();
            e.0 += n;
            e.1 += total_ns;
        });
    }
}

/// Adds `v` to the counter `name`.
pub fn count(name: &str, v: f64) {
    if on() {
        REC.with(|r| *r.borrow_mut().counts.entry(name.to_string()).or_default() += v);
    }
}

/// The program-side span names folded into the per-layer totals.
fn program_span_name(cat: &str, name: &str) -> Option<String> {
    match (cat, name) {
        ("reduce", phase) => Some(format!("core.phase.{phase}")),
        ("sched", "attempt") => Some("sched.attempt".into()),
        ("sched", "slot_search") => Some("sched.slot_search".into()),
        _ => None,
    }
}

/// Drains this thread's `rmd_obs` ring into the totals.
fn fold_program_spans() {
    let events = rmd_obs::drain_events();
    if events.is_empty() {
        return;
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        for e in events {
            if e.kind != rmd_obs::EventKind::Span {
                continue;
            }
            if let Some(n) = program_span_name(e.cat, e.name) {
                let t = r.times.entry(n).or_default();
                t.0 += 1;
                t.1 += e.dur_ns;
            }
        }
    });
}

/// Takes the totals recorded so far on this thread and resets them.
pub fn take() -> Layers {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        Layers {
            times: std::mem::take(&mut r.times),
            counts: std::mem::take(&mut r.counts),
        }
    })
}
