//! Dataflow analyses over IR programs: multiplicative depth, liveness, and
//! level estimation used by the allocation-ordering heuristic (§6.1), plus
//! the three rules of the runtime's buffer discipline — where a value is
//! freed, which rotations share a hoisted decomposition and which rotated
//! products are summed before the division by `P` — which the dependence
//! graph applies once per schedule for every consumer ([`crate::DepGraph`]).

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

/// The live readers of every value in schedule order, `get(v.index())`: an
/// op naming a value twice reads it once. A value's buffer waits for each
/// of them before its free point ([`free_points`]) recycles it.
pub fn readers(program: &Program, live: &[bool]) -> Lists<ValueId> {
    let mut reads = Vec::new();
    for id in program.ids().filter(|id| live[id.index()]) {
        let mut prev = None;
        for a in program.op(id).operands() {
            if prev != Some(a) {
                reads.push((a.index(), id));
            }
            prev = Some(a);
        }
    }
    Lists::group(program.num_ops(), &reads)
}

/// One list per index in a single allocation: list `i` is a slice of it,
/// [`Lists::get`]. Per-value or per-node lists of a 10 000-op schedule
/// cost two allocations instead of one each.
#[derive(Debug, Clone)]
pub struct Lists<T> {
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy> Lists<T> {
    /// The items of `pairs` listed under their index (`< n`), each list in
    /// the order of `pairs`.
    ///
    /// # Panics
    ///
    /// Panics if an index is `n` or more.
    pub fn group(n: usize, pairs: &[(usize, T)]) -> Self {
        let mut start = vec![0usize; n + 1];
        for &(i, _) in pairs {
            start[i + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        // `order[j]`: the pair that goes to position `j`.
        let mut next = start.clone();
        let mut order = vec![0usize; pairs.len()];
        for (k, &(i, _)) in pairs.iter().enumerate() {
            order[next[i]] = k;
            next[i] += 1;
        }
        let items = order.iter().map(|&k| pairs[k].1).collect();
        Lists { start, items }
    }

    /// List `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the `n` the lists were grouped under.
    pub fn get(&self, i: usize) -> &[T] {
        &self.items[self.start[i]..self.start[i + 1]]
    }
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
    for id in program.ids().filter(|id| live[id.index()]) {
        if let Some((a, k)) = key_switched_rotation(program, id) {
            groups.entry(a).or_default().push((id, k));
        }
    }
    groups.retain(|_, group| group.len() >= 2);
    groups
}

/// The source and steps of `id` when it is a cipher rotation that is not
/// the identity, one that switches a key.
fn key_switched_rotation(program: &Program, id: ValueId) -> Option<(ValueId, i64)> {
    match *program.op(id) {
        Op::Rotate(a, k)
            if program.is_cipher(id) && rotation_class(k, program.slots()).is_some() =>
        {
            Some((a, k))
        }
        _ => None,
    }
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
    // Live non-identity cipher rotations of every source: two or more make
    // each of them a possible member (they form a rotation group).
    let mut rotations = vec![0u32; n];
    for id in program.ids().filter(|id| live[id.index()]) {
        if let Some((a, _)) = key_switched_rotation(program, id) {
            rotations[a.index()] += 1;
        }
    }
    // The possible member a live cipher × plain product multiplies.
    let product_of = |id: ValueId| match *program.op(id) {
        Op::Mul(a, b) if program.is_cipher(a) != program.is_cipher(b) => {
            let c = if program.is_cipher(a) { a } else { b };
            key_switched_rotation(program, c)
                .filter(|&(s, _)| live[c.index()] && rotations[s.index()] >= 2)
                .map(|_| c)
        }
        _ => None,
    };
    // A member: every live use is such a product, each the sole operand
    // of a cipher + cipher add.
    let mut products = vec![0u32; n];
    let mut summed = vec![true; n];
    for id in program.ids().filter(|id| live[id.index()]) {
        if let Some(m) = product_of(id) {
            products[m.index()] += 1;
            summed[m.index()] &= sole_add(id).is_some();
        }
    }
    let terms: Vec<(ValueId, ValueId)> = (program.ids())
        .filter(|id| live[id.index()])
        .filter_map(|p| product_of(p).map(|m| (m, p)))
        .filter(|&(m, _)| {
            let k = products[m.index()];
            k > 0 && k == uses[m.index()] && summed[m.index()]
        })
        .collect();
    // The root every product's chain of single-use adds ends at, for the
    // product and each add on the way: the values a group absorbs. Each
    // value is walked once.
    let mut root_at: Vec<Option<ValueId>> = vec![None; n];
    let mut path = Vec::new();
    for &(_, product) in &terms {
        let mut node = product;
        let root = loop {
            if let Some(root) = root_at[node.index()] {
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
        for v in path.drain(..) {
            root_at[v.index()] = Some(root);
        }
    }
    // Group `g` is the `g`-th root in schedule order.
    let mut is_root = vec![false; n];
    for root in root_at.iter().flatten() {
        is_root[root.index()] = true;
    }
    let mut group_at = vec![usize::MAX; n];
    let mut groups: Vec<LinearGroup> = Vec::new();
    for root in program.ids().filter(|v| is_root[v.index()]) {
        group_at[root.index()] = groups.len();
        groups.push(LinearGroup {
            root,
            terms: Vec::new(),
            adds: Vec::new(),
            direct: Vec::new(),
        });
    }
    let group_of = |v: ValueId| group_at[root_at[v.index()].expect("absorbed").index()];
    for (member, product) in terms {
        groups[group_of(product)].terms.push((member, product));
    }
    for add in program.ids() {
        if root_at[add.index()].is_some() && matches!(program.op(add), Op::Add(..)) {
            groups[group_of(add)].adds.push(add);
        }
    }
    for group in &mut groups {
        for &add in group.adds.iter().chain([&group.root]) {
            for a in program.op(add).operands() {
                if root_at[a.index()].is_none() {
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
        let read = readers(&p, &l);
        assert_eq!(read.get(x.index()), [r1, r2], "live readers, in order");
        assert_eq!(read.get(r1.index()), [out]);
        assert!(read.get(out.index()).is_empty());
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
