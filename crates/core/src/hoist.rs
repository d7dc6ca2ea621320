//! Rescale hoisting (§7, step 2): move rescales past additions when the
//! saved rescale outweighs running the addition one level higher.
//!
//! Placement puts rescales at the earliest legal point (right after
//! level-mismatched multiplications). When both operands of an addition are
//! single-use rescale results, the two rescales can be *hoisted* into one
//! rescale after the addition:
//!
//! ```text
//!   add(rescale(a), rescale(b))   →   rescale(add(a, b))
//! ```
//!
//! benefit = cost(rs_a) + cost(rs_b) + cost(add@l) − cost(add@l+1) − cost(rs).
//! Hoisted rescales cascade up addition trees (the paper's "destination
//! rescale stays a candidate"): the pass decides in rounds, each over the
//! schedule the previous rounds left, until a round applies nothing.
//!
//! A round only revisits what the last one changed. A hoist keeps every
//! value's scale and level (the new rescale takes the add's), so an add
//! whose operands did not change, in a group of adds that did not change,
//! decides as it decided before. The rounds therefore edit one working copy
//! of the ops in place — the hoisted add keeps its slot, its new rescale
//! follows it — and the schedule is rebuilt once, at the end, in the order
//! a rebuild after every round would give.

use fhe_ir::analysis::Lists;
use fhe_ir::{CostModel, Op, OpClass, Program, ScaleMap, ScheduledProgram, ValueId};

/// Applies beneficial rescale hoists until none remain. Returns the number
/// of hoists applied.
///
/// # Panics
///
/// Panics if `scheduled` does not validate.
pub fn hoist(scheduled: &mut ScheduledProgram, cost: &CostModel) -> usize {
    let map = match scheduled.validate() {
        Ok(m) => m,
        Err(e) => panic!("hoisting requires a valid schedule: {e:?}"),
    };
    hoist_validated(scheduled, &map, cost)
}

/// [`hoist`] over a schedule whose validation `map` the caller holds.
pub fn hoist_validated(
    scheduled: &mut ScheduledProgram,
    map: &ScaleMap,
    cost: &CostModel,
) -> usize {
    let mut dag = Dag::new(&scheduled.program, map, cost);
    let mut dirty: Vec<ValueId> = (scheduled.program.ids())
        .filter(|&id| matches!(scheduled.program.op(id), Op::Add(..) | Op::Sub(..)))
        .collect();
    let mut total = 0;
    loop {
        let applied = dag.decide(&dirty);
        if applied.is_empty() {
            break;
        }
        total += applied.len();
        dirty = dag.apply(&applied);
    }
    if total > 0 {
        scheduled.program = dag.finish(&scheduled.program);
    }
    total
}

/// `state` of a plaintext.
const PLAIN: u32 = u32::MAX;

/// The working copy of a schedule the hoisting rounds edit. Ids below the
/// schedule's op count are its ops; later ids are rescales a hoist added.
struct Dag<'m> {
    ops: Vec<Op>,
    users: Users,
    /// Every ciphertext's `(scale, level)`, as the schedule value whose
    /// state in `map` it has ([`PLAIN`] for a plaintext): a hoist only
    /// copies states, so the schedule's own states are all there are.
    state: Vec<u32>,
    map: &'m ScaleMap,
    outputs: Vec<ValueId>,
    /// Whether a value is a program output.
    output: Vec<bool>,
    /// Rescales a hoist consumed.
    dropped: Vec<bool>,
    /// The rescales a hoist put right behind an add, newest first, as a
    /// list: `behind[add]` is the newest, `behind[rs]` the one after `rs`.
    behind: Vec<Option<ValueId>>,
    /// `visit[v] == round` marks `v` as seen by the current round.
    visit: Vec<u32>,
    round: u32,
    /// The latency of a cipher + cipher add and of a rescale, by level.
    add_us: Vec<f64>,
    rescale_us: Vec<f64>,
}

impl<'m> Dag<'m> {
    fn new(program: &Program, map: &'m ScaleMap, cost: &CostModel) -> Self {
        // Room for as many new rescales as the schedule has: hoisting merges
        // rescales, so the copy seldom outgrows it, where doubling a vector
        // would hold room for a second schedule.
        let room = program.count_ops(|op| matches!(op, Op::Rescale(_)));
        fn with_room<T>(mut v: Vec<T>, room: usize) -> Vec<T> {
            v.reserve_exact(room);
            v
        }
        let mut state = with_room(Vec::with_capacity(program.num_ops()), room);
        for id in program.ids() {
            state.push(if map.try_level(id).is_some() {
                id.0
            } else {
                PLAIN
            });
        }
        // A hoisted add runs a level above its operands' old state.
        let top = map.max_level() + 1;
        let price = |class| (0..=top).map(|l| cost.at_level(class, l)).collect();
        let n = program.num_ops();
        let mut output = vec![false; n];
        for o in program.outputs() {
            output[o.index()] = true;
        }
        Dag {
            ops: with_room(program.ops().to_vec(), room),
            users: Users::new(program, room),
            state,
            map,
            outputs: program.outputs().to_vec(),
            output: with_room(output, room),
            dropped: with_room(vec![false; n], room),
            behind: with_room(vec![None; n], room),
            visit: with_room(vec![0; n], room),
            round: 0,
            add_us: price(OpClass::AddCipher),
            rescale_us: price(OpClass::Rescale),
        }
    }

    fn level(&self, v: ValueId) -> u32 {
        self.map.level(ValueId(self.state[v.index()]))
    }

    fn same_state(&self, a: ValueId, b: ValueId) -> bool {
        let (a, b) = (self.state[a.index()], self.state[b.index()]);
        a == b
            || (a != PLAIN && b != PLAIN && {
                let (a, b) = (ValueId(a), ValueId(b));
                self.map.scale_bits(a) == self.map.scale_bits(b)
                    && self.map.level(a) == self.map.level(b)
            })
    }

    /// The two rescales `add` would consume: it adds or subtracts two
    /// distinct rescales, neither a program output, of values in the same
    /// state.
    fn candidate(&self, add: ValueId) -> Option<[ValueId; 2]> {
        let (ops, output) = (&self.ops, &self.output);
        let (Op::Add(a, b) | Op::Sub(a, b)) = ops[add.index()] else {
            return None;
        };
        if a == b || output[a.index()] || output[b.index()] {
            return None;
        }
        let (Op::Rescale(ra), Op::Rescale(rb)) = (&ops[a.index()], &ops[b.index()]) else {
            return None;
        };
        self.same_state(*ra, *rb).then_some([a, b])
    }

    /// One round's decisions over the groups of candidate adds that share
    /// rescales and contain a `dirty` add — the paper's scale-management
    /// units: the rescaled terms of a convolution collapse towards one
    /// rescale after their summation tree. A group applies when every use
    /// of its rescales is one of its adds (so each rescale disappears) and
    /// its total benefit is positive. Returns the adds to hoist with their
    /// rescales, in schedule order.
    fn decide(&mut self, dirty: &[ValueId]) -> Vec<(ValueId, [ValueId; 2])> {
        self.round += 1;
        let round = self.round;
        let mut visit = std::mem::take(&mut self.visit);
        let mut applied = Vec::new();
        let (mut adds, mut sources) = (Vec::new(), Vec::new());
        for &start in dirty {
            if visit[start.index()] == round {
                continue;
            }
            let Some(rescales) = self.candidate(start) else {
                continue;
            };
            visit[start.index()] = round;
            adds.clear();
            sources.clear();
            adds.push((start, rescales));
            let (mut next, mut closed) = (0, true);
            while let Some(&(_, rescales)) = adds.get(next) {
                next += 1;
                for rs in rescales {
                    if visit[rs.index()] == round {
                        continue;
                    }
                    visit[rs.index()] = round;
                    sources.push(rs);
                    for &u in self.users.get(rs) {
                        match self.candidate(u) {
                            None => closed = false,
                            Some(_) if visit[u.index()] == round => {}
                            Some(rescales) => {
                                visit[u.index()] = round;
                                adds.push((u, rescales));
                            }
                        }
                    }
                }
            }
            if !closed {
                continue;
            }
            // The benefit adds its terms in schedule order. A term depends
            // only on its op's level, so adds (or sources) of one level need
            // no sort to give the same sum.
            let level = self.level(adds[0].0);
            if adds.iter().any(|&(add, _)| self.level(add) != level) {
                adds.sort_unstable();
            }
            let level = self.level(sources[0]);
            if sources.iter().any(|&s| self.level(s) != level) {
                sources.sort_unstable();
            }
            let mut benefit = 0.0;
            for &(add, _) in &adds {
                // Both operands are rescaled ciphertexts.
                let l_low = self.level(add) as usize;
                benefit += self.add_us[l_low] - self.add_us[l_low + 1] - self.rescale_us[l_low];
            }
            for &s in &sources {
                benefit += self.rescale_us[self.level(s) as usize];
            }
            if benefit > 0.0 {
                applied.extend_from_slice(&adds);
            }
        }
        self.visit = visit;
        applied.sort_unstable();
        applied
    }

    /// Hoists `applied` (in schedule order, so a consumed rescale's operand
    /// is already final) and returns the adds the next round must revisit:
    /// the hoisted adds and the adds reading their new rescales, in no
    /// order and possibly twice (a round decides per group, whatever the
    /// add it starts from).
    fn apply(&mut self, applied: &[(ValueId, [ValueId; 2])]) -> Vec<ValueId> {
        let mut dirty = Vec::new();
        for &(add, rescales) in applied {
            // The values the two rescales rescaled: the add's new operands.
            let pre = rescales.map(|rs| {
                let Op::Rescale(v) = self.ops[rs.index()] else {
                    unreachable!("a candidate's operands are rescales")
                };
                // Only a rescale's or an add's users are ever read again:
                // the rescale as a candidate's operand, the add when hoisted.
                if matches!(
                    self.ops[v.index()],
                    Op::Rescale(_) | Op::Add(..) | Op::Sub(..)
                ) {
                    if !self.dropped[rs.index()] {
                        self.users.edit(v).retain(|&u| u != rs);
                    }
                    self.users.edit(v).push(add);
                }
                self.dropped[rs.index()] = true;
                v
            });
            let old_state = self.state[add.index()];
            self.state[add.index()] = self.state[pre[0].index()];
            self.ops[add.index()] = match self.ops[add.index()] {
                Op::Add(..) => Op::Add(pre[0], pre[1]),
                _ => Op::Sub(pre[0], pre[1]),
            };
            // The new rescale takes over the add's uses and its state.
            let rs = ValueId(self.ops.len() as u32);
            self.ops.push(Op::Rescale(add));
            self.state.push(old_state);
            let pinned = std::mem::take(&mut self.output[add.index()]);
            self.output.push(pinned);
            self.dropped.push(false);
            let older = self.behind[add.index()].replace(rs);
            self.behind.push(older);
            self.visit.push(0);
            let users = std::mem::replace(&mut self.users.list[add.index()], List::One(rs));
            self.users.list.push(users);
            for &u in self.users.get(rs) {
                let op = &mut self.ops[u.index()];
                *op = op.map_operands(|o| if o == add { rs } else { o });
                if matches!(op, Op::Add(..) | Op::Sub(..)) {
                    dirty.push(u);
                }
            }
            for o in self.outputs.iter_mut().filter(|o| **o == add) {
                *o = rs;
            }
            dirty.push(add);
        }
        dirty
    }

    /// The edited schedule: each op in its slot, each hoisted add followed
    /// by its live rescales, newest first.
    fn finish(self, source: &Program) -> Program {
        let mut dest = Program::with_capacity(source.name(), source.slots(), self.ops.len());
        let mut id = vec![ValueId(u32::MAX); self.ops.len()];
        let (ops, dropped, behind) = (&self.ops, &self.dropped, &self.behind);
        let mut emit = |v: ValueId, dest: &mut Program| {
            if !dropped[v.index()] {
                id[v.index()] = dest.push(ops[v.index()].map_operands(|o| id[o.index()]));
            }
        };
        for v in source.ids() {
            emit(v, &mut dest);
            let mut next = behind[v.index()];
            while let Some(rs) = next {
                emit(rs, &mut dest);
                next = behind[rs.index()];
            }
        }
        dest.set_outputs(self.outputs.iter().map(|o| id[o.index()]).collect());
        dest
    }
}

/// Every op reading each rescale or add of `program`, once per operand
/// occurrence; no other value's users are ever read.
fn users_of_rescales_and_adds(program: &Program) -> Lists<ValueId> {
    let mut uses = Vec::new();
    for id in program.ids() {
        for a in program.op(id).operands() {
            if matches!(program.op(a), Op::Rescale(_) | Op::Add(..) | Op::Sub(..)) {
                uses.push((a.index(), id));
            }
        }
    }
    Lists::group(program.num_ops(), &uses)
}

/// Every op reading a rescale or an add, once per operand occurrence.
struct Users {
    /// The schedule's lists, in one allocation.
    base: Lists<ValueId>,
    /// Where each value's list is. A hoist moves its add's list to the
    /// new rescale and leaves the add read by that rescale alone, so only
    /// an edit of a list copies it.
    list: Vec<List>,
}

/// Where one value's users are listed.
#[derive(Debug, Clone)]
enum List {
    /// The schedule's list of the value numbered so.
    Base(usize),
    /// A list of its own.
    Own(Vec<ValueId>),
    /// One user.
    One(ValueId),
}

impl Users {
    fn new(program: &Program, room: usize) -> Self {
        let mut list = Vec::with_capacity(program.num_ops() + room);
        list.extend((0..program.num_ops()).map(List::Base));
        Users {
            base: users_of_rescales_and_adds(program),
            list,
        }
    }

    fn get(&self, v: ValueId) -> &[ValueId] {
        match &self.list[v.index()] {
            List::Base(i) => self.base.get(*i),
            List::Own(list) => list,
            List::One(user) => std::slice::from_ref(user),
        }
    }

    fn edit(&mut self, v: ValueId) -> &mut Vec<ValueId> {
        if !matches!(self.list[v.index()], List::Own(_)) {
            self.list[v.index()] = List::Own(self.get(v).to_vec());
        }
        let List::Own(list) = &mut self.list[v.index()] else {
            unreachable!("made its own above")
        };
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::allocate;
    use crate::ordering::allocation_order;
    use crate::placement::place;
    use fhe_ir::{Builder, CompileParams, Program};

    fn schedule(program: &Program, waterline: u32) -> ScheduledProgram {
        let params = CompileParams::new(waterline);
        let order = allocation_order(program, &params, &CostModel::paper_table3());
        let sol = allocate(program, &params, &order, true);
        place(program, &params, &sol)
    }

    fn fig2a() -> Program {
        let b = Builder::new("fig2a", 8);
        let x = b.input("x");
        let y = b.input("y");
        let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
        b.finish(vec![q])
    }

    #[test]
    fn fig2a_hoist_merges_the_two_rescales() {
        // Fig. 3f→3g: the rescales feeding s = y² + y merge into one after
        // the addition, with benefit ≈ 18 (hundreds of µs).
        let mut s = schedule(&fig2a(), 20);
        let before = s.validate().unwrap();
        let cm = CostModel::paper_table3();
        let cost_before = cm.program_cost(&s.program, &before);
        let rescales_before = s.program.count_ops(|o| matches!(o, Op::Rescale(_)));
        let n = hoist(&mut s, &cm);
        assert_eq!(n, 1, "exactly the s-addition hoist applies");
        let after = s.validate().expect("hoisted schedule stays valid");
        let cost_after = cm.program_cost(&s.program, &after);
        let rescales_after = s.program.count_ops(|o| matches!(o, Op::Rescale(_)));
        assert_eq!(rescales_after, rescales_before - 1);
        let benefit = cost_before - cost_after;
        assert!(
            (1000.0..3000.0).contains(&benefit),
            "benefit {benefit}µs should be ≈ 1800µs (paper: 18×100µs)"
        );
    }

    #[test]
    fn hoists_cascade_up_addition_trees() {
        // Four squares summed pairwise: first-level hoists enable a
        // second-level hoist.
        let b = Builder::new("tree", 8);
        let xs: Vec<_> = (0..4).map(|i| b.input(format!("x{i}"))).collect();
        let sq: Vec<_> = xs.iter().map(|x| x.clone() * x.clone()).collect();
        let s01 = sq[0].clone() + sq[1].clone();
        let s23 = sq[2].clone() + sq[3].clone();
        let total = s01 + s23;
        let out = total.clone() * total;
        let p = b.finish(vec![out]);
        let mut s = schedule(&p, 20);
        let cm = CostModel::paper_table3();
        let n = hoist(&mut s, &cm);
        assert!(n >= 2, "expected cascading hoists, got {n}");
        s.validate().expect("cascaded schedule valid");
    }

    #[test]
    fn a_second_hoist_applies_nothing() {
        // Sixteen squares summed by a balanced tree: hoists cascade up its
        // four levels, and what they leave is a fixpoint.
        let b = Builder::new("tree16", 8);
        let mut level: Vec<_> = (0..16)
            .map(|i| {
                let x = b.input(format!("x{i}"));
                x.clone() * x
            })
            .collect();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|p| p[0].clone() + p[1].clone())
                .collect();
        }
        let out = level[0].clone() * level[0].clone();
        let mut s = schedule(&b.finish(vec![out]), 20);
        let cm = CostModel::paper_table3();
        assert_eq!(
            hoist(&mut s, &cm),
            15,
            "8 + 4 + 2 + 1 adds, a tree level per round"
        );
        let once = fhe_ir::text::print(&s.program);
        assert_eq!(hoist(&mut s, &cm), 0);
        assert_eq!(fhe_ir::text::print(&s.program), once);
        s.validate().expect("hoisted schedule valid");
    }

    #[test]
    fn an_add_hoisted_twice_keeps_its_rescales_newest_first() {
        // (x·y rescaled twice) + (z·w rescaled twice): the first round
        // hoists the outer rescales, the second the inner ones, and the
        // add ends up under both, the newer one first.
        let mut p = Program::new("twice", 8);
        let [x, y, z, w] = ["x", "y", "z", "w"].map(|n| p.push(Op::Input { name: n.into() }));
        let twice = |p: &mut Program, a, b| {
            let m = p.push(Op::Mul(a, b));
            let r = p.push(Op::Rescale(m));
            p.push(Op::Rescale(r))
        };
        let (a, b) = (twice(&mut p, x, y), twice(&mut p, z, w));
        let sum = p.push(Op::Add(a, b));
        p.set_outputs(vec![sum]);
        let spec = fhe_ir::InputSpec {
            scale_bits: fhe_ir::Frac::from(70),
            level: 4,
        };
        let mut s = ScheduledProgram {
            program: p,
            params: CompileParams::new(20),
            inputs: vec![spec; 4],
        };
        s.validate().expect("a valid schedule");
        assert_eq!(hoist(&mut s, &CostModel::paper_table3()), 2);
        s.validate().expect("hoisted schedule valid");
        let ops: Vec<&Op> = s.program.ops().iter().skip(4).collect();
        let [x, y, z, w] = [0, 1, 2, 3].map(ValueId);
        let [m1, m2, add, inner] = [4, 5, 6, 7].map(ValueId);
        assert_eq!(
            ops,
            [
                &Op::Mul(x, y),
                &Op::Mul(z, w),
                &Op::Add(m1, m2),
                &Op::Rescale(add),
                &Op::Rescale(inner),
            ]
        );
        assert_eq!(s.program.outputs(), [ValueId(8)]);
    }

    #[test]
    fn no_hoist_when_no_rescale_pairs() {
        let b = Builder::new("plainadd", 8);
        let x = b.input("x");
        let y = b.input("y");
        let out = x + y;
        let p = b.finish(vec![out]);
        let mut s = schedule(&p, 20);
        let cm = CostModel::paper_table3();
        assert_eq!(hoist(&mut s, &cm), 0);
        s.validate().unwrap();
    }

    #[test]
    fn multi_use_rescales_are_not_hoisted() {
        let b = Builder::new("multiuse", 8);
        let x = b.input("x");
        let y = b.input("y");
        let sx = x.clone() * x.clone();
        let sy = y.clone() * y.clone();
        // sx feeds both the add and another mul: its rescale has 2 uses.
        let s = sx.clone() + sy;
        let t = sx.clone() * s;
        let p = b.finish(vec![t]);
        let mut sched = schedule(&p, 20);
        let valid_before = sched.validate().is_ok();
        let cm = CostModel::paper_table3();
        let _ = hoist(&mut sched, &cm);
        assert!(valid_before);
        sched
            .validate()
            .expect("still valid after (possibly zero) hoists");
    }
}
