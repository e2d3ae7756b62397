//! Turns a workload run into the metrics the benchmark reports.
//!
//! End-to-end metrics (`--trace 0`) come from the untraced run. Per-layer
//! metrics (`--trace 1`) come from the traced run of the named workload;
//! a layer that workload never calls (the serve engine in
//! `reduce_machines`, say) is measured by a short traced probe of the
//! workload that does call it, so every per-layer metric is a
//! measurement on every workload. The README maps each per-layer metric
//! to the workload where it matters.

use crate::trace::{self, Layers};
use crate::workloads::{self, Report};
use crate::{stats, Config, Scale};
use std::fmt::Write as _;

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("sum_ii", "cycles"),
    ("reduced_usages", "count"),
];

/// How a per-layer metric is read from the traced totals.
#[derive(Clone, Copy)]
enum Source {
    /// Mean microseconds per call of a span or observation.
    MeanUs(&'static str),
    /// A counter divided by another (a per-call or per-loop mean, or a
    /// share).
    Ratio(&'static str, &'static str),
    /// A counter as it stands.
    Count(&'static str),
    /// Total time of the first over total time of the second.
    TimeRatio(&'static str, &'static str),
    /// Mean round trip minus mean engine time per frame.
    Transport,
    /// Traced over untraced mean operation latency, minus one, in percent.
    Overhead,
}

use Source::*;

/// Per-layer metrics: name, unit, source.
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("mdl.parse_us", "us", MeanUs("mdl.parse")),
    ("core.reduce_us", "us", MeanUs("core.reduce")),
    ("core.verify_us", "us", MeanUs("core.verify")),
    ("core.phase.forbidden_matrix_us", "us", MeanUs("core.phase.forbidden_matrix")),
    ("core.phase.classes_us", "us", MeanUs("core.phase.classes")),
    ("core.phase.genset_us", "us", MeanUs("core.phase.genset")),
    ("core.phase.prune_us", "us", MeanUs("core.phase.prune")),
    ("core.phase.select_us", "us", MeanUs("core.phase.select")),
    ("core.phase.materialize_us", "us", MeanUs("core.phase.materialize")),
    ("core.genset_size", "count", Ratio("core.genset_size", "core.reductions")),
    ("core.pruned_size", "count", Ratio("core.pruned_size", "core.reductions")),
    ("core.selected_resources", "count", Ratio("core.selected_resources", "core.reductions")),
    ("core.selected_per_genset", "ratio", Ratio("core.selected_resources", "core.genset_size")),
    ("sched.mii_us", "us", MeanUs("sched.mii")),
    ("sched.schedule_us", "us", MeanUs("sched.schedule")),
    ("sched.attempt_us", "us", MeanUs("sched.attempt")),
    ("sched.slot_search_us", "us", MeanUs("sched.slot_search")),
    ("sched.attempts", "count/loop", Ratio("sched.attempts", "sched.loops")),
    ("sched.decisions", "count/loop", Ratio("sched.decisions", "sched.loops")),
    ("sched.decisions_per_op", "ratio", Ratio("sched.decisions", "sched.ops")),
    ("sched.evictions", "count/loop", Ratio("sched.evictions", "sched.loops")),
    ("sched.dep_reversals", "count/loop", Ratio("sched.dep_reversals", "sched.loops")),
    ("sched.at_mii_share", "ratio", Ratio("sched.at_mii", "sched.loops")),
    ("query.discrete.check_calls", "count/loop", Ratio("query.discrete.check_calls", "sched.loops.discrete")),
    ("query.discrete.check_units", "count/loop", Ratio("query.discrete.check_units", "sched.loops.discrete")),
    ("query.discrete.assign_free_calls", "count/loop", Ratio("query.discrete.assign_free_calls", "sched.loops.discrete")),
    ("query.discrete.assign_free_units", "count/loop", Ratio("query.discrete.assign_free_units", "sched.loops.discrete")),
    ("query.discrete.free_calls", "count/loop", Ratio("query.discrete.free_calls", "sched.loops.discrete")),
    ("query.discrete.free_units", "count/loop", Ratio("query.discrete.free_units", "sched.loops.discrete")),
    ("query.discrete.window_calls", "count/loop", Ratio("query.discrete.window_calls", "sched.loops.discrete")),
    ("query.discrete.window_loads", "count/loop", Ratio("query.discrete.window_loads", "sched.loops.discrete")),
    ("query.discrete.transitions", "count/loop", Ratio("query.discrete.transitions", "sched.loops.discrete")),
    ("query.bitvec.check_calls", "count/loop", Ratio("query.bitvec.check_calls", "sched.loops.bitvec")),
    ("query.bitvec.check_units", "count/loop", Ratio("query.bitvec.check_units", "sched.loops.bitvec")),
    ("query.bitvec.assign_free_calls", "count/loop", Ratio("query.bitvec.assign_free_calls", "sched.loops.bitvec")),
    ("query.bitvec.assign_free_units", "count/loop", Ratio("query.bitvec.assign_free_units", "sched.loops.bitvec")),
    ("query.bitvec.free_calls", "count/loop", Ratio("query.bitvec.free_calls", "sched.loops.bitvec")),
    ("query.bitvec.free_units", "count/loop", Ratio("query.bitvec.free_units", "sched.loops.bitvec")),
    ("query.bitvec.window_calls", "count/loop", Ratio("query.bitvec.window_calls", "sched.loops.bitvec")),
    ("query.bitvec.window_loads", "count/loop", Ratio("query.bitvec.window_loads", "sched.loops.bitvec")),
    ("query.bitvec.transitions", "count/loop", Ratio("query.bitvec.transitions", "sched.loops.bitvec")),
    ("loops.generate_us", "us", MeanUs("loops.generate")),
    ("runner.loop_costs_us", "us", MeanUs("runner.loop_costs")),
    ("runner.small.parallel_us", "us", MeanUs("runner.small.parallel")),
    ("runner.small.serial_us", "us", MeanUs("runner.small.serial")),
    ("runner.small.speedup", "ratio", TimeRatio("runner.small.serial", "runner.small.parallel")),
    ("runner.large.parallel_us", "us", MeanUs("runner.large.parallel")),
    ("runner.large.serial_us", "us", MeanUs("runner.large.serial")),
    ("runner.large.speedup", "ratio", TimeRatio("runner.large.serial", "runner.large.parallel")),
    ("serve.rtt_us.schedule", "us", MeanUs("serve.rtt.schedule")),
    ("serve.rtt_us.machine", "us", MeanUs("serve.rtt.machine")),
    ("serve.parse_frame_us", "us", MeanUs("serve.parse_frame")),
    ("serve.engine_us", "us", MeanUs("serve.engine")),
    ("serve.transport_us", "us", Transport),
    ("serve.cache_lookup_us", "us", MeanUs("serve.cache_lookup")),
    ("serve.schedule_us", "us", MeanUs("serve.schedule")),
    ("serve.requests", "count", Count("serve.requests")),
    ("serve.ok", "count", Count("serve.ok")),
    ("serve.errors", "count", Count("serve.errors")),
    ("serve.shed", "count", Count("serve.shed")),
    ("setup.parse_us", "us", MeanUs("setup.parse")),
    ("setup.reduce_us", "us", MeanUs("setup.reduce")),
    ("setup.generate_us", "us", MeanUs("setup.generate")),
    ("setup.daemon_start_us", "us", MeanUs("setup.daemon_start")),
    ("trace.overhead_pct", "%", Overhead),
];

fn read(layers: &Layers, src: Source, report: &Report) -> Option<f64> {
    let ratio = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    };
    match src {
        MeanUs(n) => layers.mean_us(n),
        Ratio(a, b) => ratio(layers.count(a), layers.count(b)),
        Count(n) => layers.count(n),
        TimeRatio(a, b) => ratio(layers.total_us(a), layers.total_us(b)),
        Transport => Some(layers.mean_us("serve.rtt")? - layers.mean_us("serve.engine")?),
        Overhead => {
            let (t, u) = (report.traced.mean_us(), report.latencies.mean_us());
            (t > 0.0 && u > 0.0).then(|| (t / u - 1.0) * 100.0)
        }
    }
}

/// Runs the configured workload and returns the text to print: notes,
/// one line per metric, and the JSON result as the last line.
pub fn run(cfg: &Config) -> Result<String, String> {
    trace::set(cfg.trace);
    let report = workloads::run(&cfg.workload, cfg, Scale::Full)?;
    let mut out = String::new();
    for n in &report.notes {
        let _ = writeln!(out, "# {n}");
    }
    let setups: Vec<String> = report.setups_s.iter().map(|s| format!("{:.2}", s * 1e3)).collect();
    let _ = writeln!(out, "# set-ups (ms): {}", setups.join(" "));
    let _ = writeln!(out, "# operations: {} attempted, {} failed", report.attempted, report.failed);
    // (name, value, unit, note) in output order.
    let mut metrics: Vec<(&str, f64, &str, String)> = Vec::new();
    if cfg.trace {
        // Each metric is read from the first source that measured it: the
        // workload itself, then probes of the others in turn.
        let mut sources = vec![(trace::take(), None)];
        for other in workloads::NAMES.iter().filter(|&&w| w != cfg.workload) {
            let missing = |sources: &[(Layers, Option<Report>)]| -> Vec<&'static str> {
                PER_LAYER
                    .iter()
                    .filter(|(_, _, src)| !sources.iter().any(|(l, r)| read(l, *src, r.as_ref().unwrap_or(&report)).is_some()))
                    .map(|(name, _, _)| *name)
                    .collect()
            };
            let before = missing(&sources);
            if before.is_empty() {
                break;
            }
            trace::set(true);
            let probe = workloads::run(other, cfg, Scale::Probe).map_err(|e| format!("probe of {other}: {e}"))?;
            sources.push((trace::take(), Some(probe)));
            let after = missing(&sources);
            let filled: Vec<_> = before.into_iter().filter(|n| !after.contains(n)).collect();
            if !filled.is_empty() {
                let _ = writeln!(out, "# probe of {other} measured: {}", filled.join(" "));
            }
        }
        trace::set(false);
        for &(name, unit, src) in PER_LAYER {
            let v = sources
                .iter()
                .find_map(|(l, r)| read(l, src, r.as_ref().unwrap_or(&report)))
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
            metrics.push((name, v, unit, String::new()));
        }
    } else {
        let l = &report.latencies;
        let n = l.len();
        let (p50, _) = l.percentile_us(false).ok_or("no operation completed")?;
        let (p99, windows) = l
            .percentile_us(true)
            .ok_or_else(|| format!("{n} samples leave fewer than ten beyond p99"))?;
        let values = [
            stats::median(&report.setups_s),
            stats::median(&report.round_rates),
            p50,
            p99,
            report.peak_rss_mb,
            report.sum_ii as f64,
            report.reduced_usages as f64,
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            let note = match *name {
                "setup_s" => format!("  (median of {} set-ups)", report.setups_s.len()),
                "ops_per_s" => format!("  (median of {} rounds)", report.round_rates.len()),
                "latency_p50_us" | "latency_p99_us" => format!("  (median of {windows} windows, {n} samples)"),
                _ => String::new(),
            };
            if !(v > 0.0 && v.is_finite()) {
                return Err(format!("{name} is {v}; end-to-end metrics must be positive"));
            }
            metrics.push((name, v, unit, note));
        }
    }
    let mut json = Vec::new();
    for (name, value, unit, note) in metrics {
        let _ = writeln!(out, "  {name:34} {value:>16.4} {unit}{note}");
        json.push(format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"));
    }
    let _ = write!(
        out,
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        json.join(",")
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
        let v = serde_json::from_str(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|a| a.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|s| s.as_str()).unwrap().to_string(),
                        m.get("unit").and_then(|s| s.as_str()).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        let layer: Vec<_> = PER_LAYER.iter().map(|(n, u, _)| (n.to_string(), u.to_string())).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layer);
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(|a| a.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|s| s.as_str()).unwrap().to_string())
            .collect();
        assert!(workloads.iter().all(|w| workloads::NAMES.contains(&w.as_str())), "{workloads:?}");
    }
}
