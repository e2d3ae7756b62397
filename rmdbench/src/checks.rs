//! Output checks written from the definitions, independent of the
//! program's own verifier and validator:
//!
//! - the forbidden-latency matrix, computed directly from reservation
//!   tables, must be the same for an original and its reduction;
//! - a modulo schedule must satisfy every dependence edge, and the
//!   modulo reservation table rebuilt from the *original* description
//!   must use no resource twice in one slot (so II is at least the
//!   per-resource usage bound);
//! - two schedules that the method says are identical must have the
//!   same II and the same issue times.

use rmd_machine::MachineDescription;
use rmd_sched::DepGraph;

/// `F[x][y]`, row-major: every latency at which issuing operation `x`
/// after operation `y` makes them reserve one resource in one cycle.
/// Each set is sorted and free of duplicates.
pub fn forbidden_latencies(m: &MachineDescription) -> Vec<Vec<i32>> {
    let n = m.num_operations();
    let tables: Vec<Vec<(u32, i32)>> = m
        .operations()
        .iter()
        .map(|op| {
            op.table()
                .usages()
                .iter()
                .map(|u| (u.resource.0, u.cycle as i32))
                .collect()
        })
        .collect();
    let mut out = vec![Vec::new(); n * n];
    for x in 0..n {
        for y in 0..n {
            let set: &mut Vec<i32> = &mut out[x * n + y];
            for &(rx, cx) in &tables[x] {
                for &(ry, cy) in &tables[y] {
                    if rx == ry {
                        set.push(cy - cx);
                    }
                }
            }
            set.sort_unstable();
            set.dedup();
        }
    }
    out
}

/// The original and the reduction forbid exactly the same latencies.
pub fn same_forbidden_matrix(original: &MachineDescription, reduced: &MachineDescription) -> Result<(), String> {
    let n = original.num_operations();
    if reduced.num_operations() != n {
        return Err(format!(
            "{}: reduction has {} operations, original {n}",
            original.name(),
            reduced.num_operations()
        ));
    }
    let (a, b) = (forbidden_latencies(original), forbidden_latencies(reduced));
    for x in 0..n {
        for y in 0..n {
            if a[x * n + y] != b[x * n + y] {
                return Err(format!(
                    "{}: F[{}][{}] is {:?} in the original but {:?} in the reduction",
                    original.name(),
                    original.operations()[x].name(),
                    original.operations()[y].name(),
                    a[x * n + y],
                    b[x * n + y]
                ));
            }
        }
    }
    Ok(())
}

/// A modulo schedule of `g` at `ii` with issue times `times` is valid
/// on `original`.
pub fn valid_modulo_schedule(original: &MachineDescription, g: &DepGraph, times: &[u32], ii: u32) -> Result<(), String> {
    let name = original.name();
    if times.len() != g.num_nodes() {
        return Err(format!("{name}: {} issue times for {} nodes", times.len(), g.num_nodes()));
    }
    if ii == 0 {
        return Err(format!("{name}: II is 0"));
    }
    for e in g.edges() {
        let (from, to) = (e.from.index(), e.to.index());
        let need = i64::from(times[from]) + i64::from(e.delay) - i64::from(ii) * i64::from(e.distance);
        if i64::from(times[to]) < need {
            return Err(format!(
                "{name}: edge {from}->{to} (delay {}, distance {}) violated: t({to})={} < {need} at II {ii}",
                e.delay, e.distance, times[to]
            ));
        }
    }
    let nres = original.num_resources();
    let mut uses = vec![0u64; nres];
    for n in g.nodes() {
        for u in original.operation(g.op(n)).table().usages() {
            uses[u.resource.0 as usize] += 1;
        }
    }
    if let Some((r, &k)) = uses.iter().enumerate().max_by_key(|(_, &k)| k) {
        if k > u64::from(ii) {
            return Err(format!(
                "{name}: II {ii} is below the usage bound {k} of resource {}",
                original.resources()[r].name()
            ));
        }
    }
    let ii_us = ii as usize;
    let mut owner = vec![u32::MAX; nres * ii_us];
    for n in g.nodes() {
        let t = times[n.index()];
        for u in original.operation(g.op(n)).table().usages() {
            let slot = ((t + u.cycle) % ii) as usize;
            let cell = &mut owner[u.resource.0 as usize * ii_us + slot];
            if *cell != u32::MAX {
                return Err(format!(
                    "{name}: nodes {} and {} both use {} in slot {slot} of II {ii}",
                    *cell,
                    n.index(),
                    original.resources()[u.resource.0 as usize].name()
                ));
            }
            *cell = n.index() as u32;
        }
    }
    Ok(())
}

/// Two schedules the method says must agree do agree.
pub fn same_schedule(what: &str, a_ii: u32, a: &[u32], b_ii: u32, b: &[u32]) -> Result<(), String> {
    if a_ii != b_ii || a != b {
        return Err(format!("{what}: schedules differ: II {a_ii} {a:?} vs II {b_ii} {b:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::{MachineBuilder, OpId};
    use rmd_sched::DepKind;

    /// The paper's Figure 1 machine and its reduction.
    fn fig1() -> (MachineDescription, MachineDescription) {
        let m = rmd_machine::models::example_machine();
        let red = rmd_core::reduce(&m, rmd_core::Objective::ResUses).reduced;
        (m, red)
    }

    /// `m` with the `k`-th usage of operation `op` removed.
    fn drop_usage(m: &MachineDescription, op: usize, k: usize) -> MachineDescription {
        let mut b = MachineBuilder::new(m.name());
        for r in m.resources() {
            b.resource(r.name());
        }
        for (i, o) in m.operations().iter().enumerate() {
            let mut ob = b.operation(o.name());
            for (j, u) in o.table().usages().iter().enumerate() {
                if !(i == op && j == k) {
                    ob = ob.usage(u.resource, u.cycle);
                }
            }
            ob.finish();
        }
        b.build().unwrap()
    }

    #[test]
    fn matrix_check_accepts_a_real_reduction() {
        let (m, red) = fig1();
        same_forbidden_matrix(&m, &red).unwrap();
    }

    #[test]
    fn matrix_check_rejects_a_dropped_usage() {
        let (m, red) = fig1();
        // Operation B keeps four usages in the reduction; drop each in turn.
        let b = red.op_by_name("B").unwrap().index();
        for k in 0..red.operations()[b].table().num_usages() {
            let broken = drop_usage(&red, b, k);
            assert!(same_forbidden_matrix(&m, &broken).is_err(), "usage {k} dropped unnoticed");
        }
    }

    /// One resource `r`; `A` holds it for cycles 0 and 1.
    fn two_cycle_machine() -> MachineDescription {
        let mut b = MachineBuilder::new("two-cycle");
        let r = b.resource("r");
        b.operation("A").usage(r, 0).usage(r, 1).finish();
        b.build().unwrap()
    }

    /// Two `A`s, the second depending on the first with delay 2.
    fn pair_graph() -> DepGraph {
        let mut g = DepGraph::new();
        let a = g.add_node(OpId(0));
        let b = g.add_node(OpId(0));
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g
    }

    #[test]
    fn validator_accepts_a_valid_schedule() {
        valid_modulo_schedule(&two_cycle_machine(), &pair_graph(), &[0, 2], 4).unwrap();
    }

    #[test]
    fn validator_rejects_a_shifted_issue_time() {
        let m = two_cycle_machine();
        let g = pair_graph();
        // One cycle earlier the dependence breaks; three cycles later the
        // second A reserves slots 1 and 2, and slot 1 is taken.
        let err = valid_modulo_schedule(&m, &g, &[0, 1], 4).unwrap_err();
        assert!(err.contains("violated"), "{err}");
        let err = valid_modulo_schedule(&m, &g, &[0, 5], 4).unwrap_err();
        assert!(err.contains("both use"), "{err}");
    }

    #[test]
    fn validator_rejects_a_schedule_made_on_a_description_with_a_dropped_usage() {
        let m = two_cycle_machine();
        let broken = drop_usage(&m, 0, 1);
        let g = pair_graph();
        // The broken machine (one cycle per A) fits [0, 3] at II 4; on the
        // original, A at 3 reserves slots 3 and 0, where the first A sits.
        valid_modulo_schedule(&broken, &g, &[0, 3], 4).unwrap();
        let err = valid_modulo_schedule(&m, &g, &[0, 3], 4).unwrap_err();
        assert!(err.contains("both use"), "{err}");
    }

    #[test]
    fn validator_rejects_ii_below_the_usage_bound() {
        let m = two_cycle_machine();
        let err = valid_modulo_schedule(&m, &pair_graph(), &[0, 2], 2).unwrap_err();
        assert!(err.contains("usage bound"), "{err}");
    }

    #[test]
    fn validator_rejects_an_operation_colliding_with_its_next_iteration() {
        // `A` holds `r` at cycles 0 and 7; with one A per iteration, II 7
        // puts both usages in slot 0, II 8 does not.
        let mut b = MachineBuilder::new("gap");
        let r = b.resource("r");
        b.operation("A").usage(r, 0).usage(r, 7).finish();
        let m = b.build().unwrap();
        let mut g = DepGraph::new();
        let a = g.add_node(OpId(0));
        g.add_edge(a, a, 7, 1, DepKind::Flow);
        valid_modulo_schedule(&m, &g, &[0], 8).unwrap();
        let err = valid_modulo_schedule(&m, &g, &[0], 7).unwrap_err();
        assert!(err.contains("nodes 0 and 0 both use"), "{err}");
    }

    #[test]
    fn identity_check_rejects_a_shifted_time() {
        same_schedule("x", 4, &[0, 2], 4, &[0, 2]).unwrap();
        assert!(same_schedule("x", 4, &[0, 2], 4, &[0, 3]).is_err());
        assert!(same_schedule("x", 4, &[0, 2], 5, &[0, 2]).is_err());
    }
}
