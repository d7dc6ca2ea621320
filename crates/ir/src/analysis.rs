//! Dataflow analyses over IR programs: multiplicative depth, liveness, and
//! level estimation used by the allocation-ordering heuristic (§6.1), plus
//! the three rules of the runtime's buffer discipline — where a value is
//! freed, which rotations share a hoisted decomposition and which rotated
//! products are summed before the division by `P` — that the dependence
//! graph, the memory model and the executor must agree on.

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

/// One linear-combination group ([`linear_groups`]): rotated members
/// times plaintexts, summed by adds up to one root. The runtime
/// accumulates the terms over `Q_l·P` and divides by `P` once, at the
/// root, instead of once per member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearGroup {
    /// The add whose result the group stores: the first add on every
    /// product's path with a use other than one further cipher + cipher add.
    pub root: ValueId,
    /// `(member, product)` per term, in schedule order of the product: the
    /// rotation and the cipher × plain multiply that consumes it.
    pub terms: Vec<(ValueId, ValueId)>,
    /// Adds below the root on the terms' paths, in schedule order. Like
    /// the products, they are never materialized.
    pub adds: Vec<ValueId>,
    /// `(operand, add)` for every other cipher operand met on the paths —
    /// an unrotated product, say — with the group add (absorbed or the
    /// root) that reads it, in schedule order of the add.
    pub direct: Vec<(ValueId, ValueId)>,
}

/// The linear-combination groups the runtime accumulates, in schedule
/// order of their roots. A *member* is a live, non-identity cipher rotation
/// of a source with two or more such rotations whose every live use is a
/// cipher × plain `Mul`; each of those products must reach a root through
/// cipher + cipher `Add`s with exactly one live use each (a program output
/// counts as a use). A member may feed several roots, and a root may
/// gather members of several sources. Independent of the hoisting
/// setting: hoisting only decides whether members share a decomposition.
pub fn linear_groups(program: &Program, live: &[bool]) -> Vec<LinearGroup> {
    let n = program.num_ops();
    // Live uses of every value, by operand occurrence, plus output pins.
    let mut uses = vec![0u32; n];
    let mut user: Vec<Option<ValueId>> = vec![None; n];
    for id in program.ids().filter(|id| live[id.index()]) {
        for a in program.op(id).operands() {
            uses[a.index()] += 1;
            user[a.index()] = Some(id);
        }
    }
    for &o in program.outputs() {
        uses[o.index()] += 1;
    }
    // The one cipher + cipher add reading `v`, if that is its only use.
    let sole_add = |v: ValueId| {
        let u = user[v.index()].filter(|_| uses[v.index()] == 1)?;
        match *program.op(u) {
            Op::Add(a, b) if a != b && program.is_cipher(a) && program.is_cipher(b) => Some(u),
            _ => None,
        }
    };
    // The cipher × plain products of every rotation that may be a member.
    let mut products: HashMap<ValueId, Vec<ValueId>> = (rotation_groups(program, live, true))
        .into_values()
        .flatten()
        .map(|(m, _)| (m, Vec::new()))
        .collect();
    for id in program.ids().filter(|id| live[id.index()]) {
        if let Op::Mul(a, b) = *program.op(id) {
            if program.is_cipher(a) != program.is_cipher(b) {
                let c = if program.is_cipher(a) { a } else { b };
                products.entry(c).and_modify(|prods| prods.push(id));
            }
        }
    }
    let mut terms: Vec<(ValueId, ValueId)> = products
        .into_iter()
        .filter(|(m, prods)| {
            !prods.is_empty()
                && prods.len() == uses[m.index()] as usize
                && prods.iter().all(|&p| sole_add(p).is_some())
        })
        .flat_map(|(m, prods)| prods.into_iter().map(move |p| (m, p)))
        .collect();
    terms.sort_by_key(|&(_, p)| p);
    // The root every product's chain of single-use adds ends at, for the
    // product and each add on the way: the values a group absorbs. Each
    // value is walked once.
    let mut root_at: HashMap<ValueId, ValueId> = HashMap::new();
    let mut path = Vec::new();
    for &(_, product) in &terms {
        let mut node = product;
        let root = loop {
            if let Some(&root) = root_at.get(&node) {
                break root;
            }
            match sole_add(node) {
                Some(next) => {
                    path.push(node);
                    node = next;
                }
                None => break node,
            }
        };
        root_at.extend(path.drain(..).map(|v| (v, root)));
    }
    let mut roots: Vec<ValueId> = root_at.values().copied().collect();
    roots.sort();
    roots.dedup();
    let mut groups: Vec<LinearGroup> = (roots.iter())
        .map(|&root| LinearGroup {
            root,
            terms: Vec::new(),
            adds: Vec::new(),
            direct: Vec::new(),
        })
        .collect();
    let group_of = |v: ValueId| roots.binary_search(&root_at[&v]).expect("a root");
    for (member, product) in terms {
        groups[group_of(product)].terms.push((member, product));
    }
    let mut adds: Vec<ValueId> = (root_at.keys())
        .copied()
        .filter(|&v| matches!(program.op(v), Op::Add(..)))
        .collect();
    adds.sort();
    for add in adds {
        groups[group_of(add)].adds.push(add);
    }
    for group in &mut groups {
        for &add in group.adds.iter().chain([&group.root]) {
            for a in program.op(add).operands() {
                if !root_at.contains_key(&a) {
                    group.direct.push((a, add));
                }
            }
        }
    }
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

    #[test]
    fn linear_groups_absorb_single_use_products_up_to_their_root() {
        let mut p = Program::new("lin", 8);
        let x = p.push(Op::Input { name: "x".into() });
        let c = p.push(Op::Const {
            value: crate::op::ConstValue::Scalar(0.5),
        });
        let [r1, r2, r3, r4] = [1, 2, 3, 4].map(|k| p.push(Op::Rotate(x, k)));
        let m1 = p.push(Op::Mul(r1, c));
        let m2 = p.push(Op::Mul(c, r2));
        let m0 = p.push(Op::Mul(x, c));
        let sum = p.push(Op::Add(m1, m2));
        let root = p.push(Op::Add(sum, m0));
        // `r1` feeds a second root; `r3` is read by an add, so it is no
        // member and enters that root as it is; `r4`'s product is an
        // output, so it reaches no root.
        let again = p.push(Op::Mul(r1, c));
        let other = p.push(Op::Add(again, r3));
        let m4 = p.push(Op::Mul(r4, c));
        p.set_outputs(vec![root, other, m4]);
        let groups = linear_groups(&p, &live(&p));
        assert_eq!(
            groups,
            vec![
                LinearGroup {
                    root,
                    terms: vec![(r1, m1), (r2, m2)],
                    adds: vec![sum],
                    direct: vec![(m0, root)],
                },
                LinearGroup {
                    root: other,
                    terms: vec![(r1, again)],
                    adds: vec![],
                    direct: vec![(r3, other)],
                },
            ]
        );
    }
}
