//! Seeded chain and recurrence loops over any machine's operations, and
//! the `schedule` frames that carry a loop to `rmd serve`.

use crate::rng::Rng;
use rmd_machine::{MachineDescription, OpId};
use rmd_sched::{DepGraph, DepKind};
use std::fmt::Write as _;

/// `count` loops of 2 to 8 operations drawn from `m`: a dependence chain,
/// and on every other loop a loop-carried edge from the last operation
/// back to the first (a recurrence).
pub fn chains_and_recurrences(m: &MachineDescription, rng: &mut Rng, count: usize) -> Vec<DepGraph> {
    let nops = m.num_operations() as u64;
    (0..count)
        .map(|i| {
            let len = rng.range(2, 8) as usize;
            let mut g = DepGraph::new();
            let nodes: Vec<_> = (0..len).map(|_| g.add_node(OpId(rng.below(nops) as u32))).collect();
            for w in nodes.windows(2) {
                g.add_edge(w[0], w[1], rng.range(0, 4) as i32, 0, DepKind::Flow);
            }
            if i % 2 == 1 {
                let distance = rng.range(1, 2) as u32;
                g.add_edge(nodes[len - 1], nodes[0], rng.range(1, 3) as i32, distance, DepKind::Flow);
            }
            g
        })
        .collect()
}

fn kind_name(k: DepKind) -> &'static str {
    match k {
        DepKind::Flow => "flow",
        DepKind::Anti => "anti",
        DepKind::Output => "output",
        DepKind::Memory => "memory",
    }
}

/// The `schedule` frame for `g` on the machine with fingerprint `fp`.
pub fn schedule_frame(id: u64, fp: &str, m: &MachineDescription, g: &DepGraph, trace: bool) -> String {
    let mut s = format!("{{\"type\":\"schedule\",\"id\":{id},\"fingerprint\":\"{fp}\",\"nodes\":[");
    for (i, n) in g.nodes().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\"", m.operation(g.op(n)).name());
    }
    s.push_str("],\"edges\":[");
    for (i, e) in g.edges().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "[{},{},{},{},\"{}\"]",
            e.from.index(),
            e.to.index(),
            e.delay,
            e.distance,
            kind_name(e.kind)
        );
    }
    s.push(']');
    if trace {
        s.push_str(",\"trace\":true");
    }
    s.push('}');
    s
}

/// A `machine` frame carrying MDL text inline.
pub fn machine_frame(id: u64, mdl: &str, trace: bool) -> String {
    let mut s = format!("{{\"type\":\"machine\",\"id\":{id},\"mdl\":");
    push_json_string(&mut s, mdl);
    if trace {
        s.push_str(",\"trace\":true");
    }
    s.push('}');
    s
}

fn push_json_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
