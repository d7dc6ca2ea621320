//! Dataflow analyses over IR programs: multiplicative depth, liveness, and
//! level estimation used by the allocation-ordering heuristic (§6.1), plus
//! the two rules of the runtime's buffer discipline — where a value is
//! freed and which rotations share a hoisted decomposition — that the
//! dependence graph, the memory model and the executor must agree on.

use std::collections::HashMap;

use crate::op::{Op, ValueId};
use crate::program::Program;
use crate::semantics::rotation_class;
use crate::{CompileParams, Frac};

/// Multiplicative depth of every value: the maximum number of scale-consuming
/// multiplications on any path from the value to a program output,
/// **starting from 1, not 0** (§6.1).
///
/// For the paper's running example `x³·(y²+y)` this yields
/// `x:4 y:3 x²:3 x³:2 y²:2 s:2 q:1` (Fig. 3a).
///
/// Values that cannot reach an output get depth 1.
pub fn mult_depth(program: &Program) -> Vec<u32> {
    let mut depth = vec![1u32; program.num_ops()];
    // Backward walk: depth(v) = max over users u of depth(u) + [u is a
    // scale-consuming mul]; outputs (or dead values) keep the base of 1.
    for id in program.ids().rev() {
        let d = depth[id.index()];
        let consumes = matches!(program.op(id), Op::Mul(..)) && program.is_cipher(id);
        let operand_depth = d + u32::from(consumes);
        for operand in program.op(id).operands() {
            let slot = &mut depth[operand.index()];
            *slot = (*slot).max(operand_depth);
        }
    }
    depth
}

/// Which values can reach a program output (everything else is dead code).
pub fn live(program: &Program) -> Vec<bool> {
    let mut live = vec![false; program.num_ops()];
    for &o in program.outputs() {
        live[o.index()] = true;
    }
    for id in program.ids().rev() {
        if live[id.index()] {
            for operand in program.op(id).operands() {
                live[operand.index()] = true;
            }
        }
    }
    live
}

/// The op whose completion frees each value under the runtime's last-use
/// freeing: the value's last live user in schedule order. `None` for
/// program outputs (pinned until decryption) and for values no live op
/// reads.
pub fn free_points(program: &Program, live: &[bool]) -> Vec<Option<ValueId>> {
    let mut free_at = vec![None; program.num_ops()];
    for id in program.ids().filter(|id| live[id.index()]) {
        for operand in program.op(id).operands() {
            free_at[operand.index()] = Some(id);
        }
    }
    for &o in program.outputs() {
        free_at[o.index()] = None;
    }
    free_at
}

/// The rotation groups the runtime hoists, keyed by source: two or more
/// live cipher rotations of one ciphertext share a single key-switch
/// decomposition, computed when the first member in schedule order (the
/// leader) executes and read by every member's own step. Members are
/// listed in schedule order with their steps. An identity rotation
/// ([`rotation_class`] `None`) switches no key and joins no group. Empty
/// when `hoist` is off.
pub fn rotation_groups(
    program: &Program,
    live: &[bool],
    hoist: bool,
) -> HashMap<ValueId, Vec<(ValueId, i64)>> {
    let mut groups: HashMap<ValueId, Vec<(ValueId, i64)>> = HashMap::new();
    if !hoist {
        return groups;
    }
    for id in program.ids() {
        if let Op::Rotate(a, k) = program.op(id) {
            if live[id.index()]
                && program.is_cipher(id)
                && rotation_class(*k, program.slots()).is_some()
            {
                groups.entry(*a).or_default().push((id, *k));
            }
        }
    }
    groups.retain(|_, group| group.len() >= 2);
    groups
}

/// The §6.1 pre-allocation level estimate `1 + depth · ω` for every value —
/// a lower bound assuming the minimal level increase `ω` per multiplication.
///
/// The estimate is fractional (e.g. `x³` in Fig. 3a estimates level
/// `1 + 2·(20/60) = 1.67`); the cost model interpolates latencies at
/// fractional levels.
pub fn estimated_levels(program: &Program, params: &CompileParams) -> Vec<Frac> {
    let depth = mult_depth(program);
    depth
        .iter()
        .map(|&d| Frac::ONE + Frac::from(d) * params.omega())
        .collect()
}

/// Maximum number of scale-consuming multiplications on any live path — the
/// circuit depth a scheme's modulus chain must support. (This is
/// `max(mult_depth) − 1` because [`mult_depth`] starts at 1.)
pub fn circuit_depth(program: &Program) -> u32 {
    let depth = mult_depth(program);
    let live = live(program);
    program
        .ids()
        .filter(|id| live[id.index()])
        .map(|id| depth[id.index()])
        .max()
        .unwrap_or(1)
        .saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;

    fn fig2a() -> (Program, [ValueId; 7]) {
        let b = Builder::new("fig2a", 8);
        let x = b.input("x");
        let y = b.input("y");
        let x2 = x.clone() * x.clone();
        let x3 = x.clone() * x2.clone();
        let y2 = y.clone() * y.clone();
        let s = y2.clone() + y.clone();
        let q = x3.clone() * s.clone();
        let ids = [x.id(), y.id(), x2.id(), x3.id(), y2.id(), s.id(), q.id()];
        (b.finish(vec![q]), ids)
    }

    #[test]
    fn mult_depth_matches_fig3a() {
        let (p, [x, y, x2, x3, y2, s, q]) = fig2a();
        let d = mult_depth(&p);
        assert_eq!(d[x.index()], 4);
        assert_eq!(d[y.index()], 3);
        assert_eq!(d[x2.index()], 3);
        assert_eq!(d[x3.index()], 2);
        assert_eq!(d[y2.index()], 2);
        assert_eq!(d[s.index()], 2);
        assert_eq!(d[q.index()], 1);
        assert_eq!(circuit_depth(&p), 3, "three muls on the deepest path");
    }

    #[test]
    fn estimated_levels_match_fig3a() {
        let (p, [x, y, _, x3, _, _, q]) = fig2a();
        let params = CompileParams::new(20);
        let lv = estimated_levels(&p, &params);
        // Fig. 3a "Level" row: x 2.3, y 2, x3 1.6, q 1.3.
        assert_eq!(lv[x.index()], Frac::ratio(7, 3));
        assert_eq!(lv[y.index()], Frac::from(2));
        assert_eq!(lv[x3.index()], Frac::ratio(5, 3));
        assert_eq!(lv[q.index()], Frac::ratio(4, 3));
    }

    #[test]
    fn live_marks_only_reachable() {
        let b = Builder::new("dead", 4);
        let x = b.input("x");
        let used = x.clone() * x.clone();
        let dead = x.clone().rotate(1);
        let dead_id = dead.id();
        drop(dead);
        let p = b.finish(vec![used]);
        let l = live(&p);
        assert!(l[0] && l[1]);
        assert!(!l[dead_id.index()]);
    }

    #[test]
    fn free_points_and_rotation_groups_follow_the_runtime_discipline() {
        let b = Builder::new("rots", 8);
        let x = b.input("x");
        let (r1, r2) = (x.clone().rotate(1), x.clone().rotate(2));
        let dead = x.clone().rotate(3).id();
        let sum = r1.clone() + r2.clone();
        let (x, r1, r2, out) = (x.id(), r1.id(), r2.id(), sum.id());
        let p = b.finish(vec![sum]);
        let l = live(&p);
        let free = free_points(&p, &l);
        assert_eq!(
            free[x.index()],
            Some(r2),
            "last live reader, not the dead one"
        );
        assert_eq!(free[r1.index()], Some(out));
        assert_eq!(free[out.index()], None, "outputs are pinned");
        assert_eq!(free[dead.index()], None);
        let groups = rotation_groups(&p, &l, true);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[&x], vec![(r1, 1), (r2, 2)], "dead member excluded");
        assert!(rotation_groups(&p, &l, false).is_empty());

        // Rotating by 0 or by the slot count is the identity: no group.
        let b = Builder::new("ids", 8);
        let x = b.input("x");
        let p = b.finish(vec![x.clone().rotate(0) + x.rotate(8)]);
        assert!(rotation_groups(&p, &live(&p), true).is_empty());
    }
}
