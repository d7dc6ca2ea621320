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

use std::collections::HashMap;

use fhe_ir::{CostModel, Frac, Op, OpClass, Program, ScheduledProgram, ValueId};

/// Applies beneficial rescale hoists until none remain. Returns the number
/// of hoists applied.
pub fn hoist(scheduled: &mut ScheduledProgram, cost: &CostModel) -> usize {
    let mut dag = Dag::new(scheduled);
    let mut dirty: Vec<ValueId> = (scheduled.program.ids())
        .filter(|&id| matches!(scheduled.program.op(id), Op::Add(..) | Op::Sub(..)))
        .collect();
    let mut total = 0;
    loop {
        let applied = dag.decide(&dirty, cost);
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

/// The working copy of a schedule the hoisting rounds edit. Ids below the
/// schedule's op count are its ops; later ids are rescales a hoist added.
struct Dag {
    ops: Vec<Op>,
    /// Every op reading a value, once per operand occurrence.
    users: Vec<Vec<ValueId>>,
    /// Every ciphertext's `(scale, level)` as an index into `states`: a
    /// hoist only copies states, so the few distinct ones are kept once.
    state: Vec<Option<u32>>,
    states: Vec<(Frac, u32)>,
    outputs: Vec<ValueId>,
    /// Whether a value is a program output.
    output: Vec<bool>,
    /// Rescales a hoist consumed.
    dropped: Vec<bool>,
    /// `(add, rescale)` per rescale a hoist put right behind its add, in
    /// the order they were put there: the newest comes first.
    after: Vec<(ValueId, ValueId)>,
    /// `visit[v] == round` marks `v` as seen by the current round.
    visit: Vec<u32>,
    round: u32,
}

impl Dag {
    fn new(scheduled: &ScheduledProgram) -> Self {
        let program = &scheduled.program;
        let map = match scheduled.validate() {
            Ok(m) => m,
            Err(e) => panic!("hoisting requires a valid schedule: {e:?}"),
        };
        let mut states = Vec::new();
        let mut index: HashMap<(Frac, u32), u32> = HashMap::new();
        let state = (program.ids())
            .map(|id| {
                let level = map.try_level(id)?;
                let key = (map.scale_bits(id), level);
                Some(*index.entry(key).or_insert_with(|| {
                    states.push(key);
                    states.len() as u32 - 1
                }))
            })
            .collect();
        // Room for as many new rescales as the schedule has: hoisting merges
        // rescales, so the copy seldom outgrows it, where doubling a vector
        // would hold room for a second schedule.
        let room = program.count_ops(|op| matches!(op, Op::Rescale(_)));
        fn with_room<T>(mut v: Vec<T>, room: usize) -> Vec<T> {
            v.reserve_exact(room);
            v
        }
        let n = program.num_ops();
        let mut output = vec![false; n];
        for o in program.outputs() {
            output[o.index()] = true;
        }
        Dag {
            ops: with_room(program.ops().to_vec(), room),
            users: with_room(program.users(), room),
            state: with_room(state, room),
            states,
            outputs: program.outputs().to_vec(),
            output: with_room(output, room),
            dropped: with_room(vec![false; n], room),
            after: Vec::new(),
            visit: with_room(vec![0; n], room),
            round: 0,
        }
    }

    fn level(&self, v: ValueId) -> u32 {
        self.states[self.state[v.index()].expect("a ciphertext") as usize].1
    }

    /// The two rescales `add` would consume: it adds or subtracts two
    /// distinct rescales, neither a program output, of values in the same
    /// state.
    fn candidate(&self, add: ValueId) -> Option<[ValueId; 2]> {
        let (Op::Add(a, b) | Op::Sub(a, b)) = self.ops[add.index()] else {
            return None;
        };
        if a == b || self.output[a.index()] || self.output[b.index()] {
            return None;
        }
        let (Op::Rescale(ra), Op::Rescale(rb)) = (&self.ops[a.index()], &self.ops[b.index()])
        else {
            return None;
        };
        (self.state[ra.index()] == self.state[rb.index()]).then_some([a, b])
    }

    /// One round's decisions over the groups of candidate adds that share
    /// rescales and contain a `dirty` add — the paper's scale-management
    /// units: the rescaled terms of a convolution collapse towards one
    /// rescale after their summation tree. A group applies when every use
    /// of its rescales is one of its adds (so each rescale disappears) and
    /// its total benefit is positive. Returns the adds to hoist, in
    /// schedule order.
    fn decide(&mut self, dirty: &[ValueId], cost: &CostModel) -> Vec<ValueId> {
        self.round += 1;
        let round = self.round;
        let mut applied = Vec::new();
        for &start in dirty {
            if self.visit[start.index()] == round || self.candidate(start).is_none() {
                continue;
            }
            self.visit[start.index()] = round;
            let (mut adds, mut sources, mut closed) = (vec![start], Vec::new(), true);
            let mut next = 0;
            while let Some(&add) = adds.get(next) {
                next += 1;
                for rs in self.candidate(add).expect("a candidate") {
                    if self.visit[rs.index()] == round {
                        continue;
                    }
                    self.visit[rs.index()] = round;
                    sources.push(rs);
                    for &u in &self.users[rs.index()] {
                        if self.candidate(u).is_none() {
                            closed = false;
                        } else if self.visit[u.index()] != round {
                            self.visit[u.index()] = round;
                            adds.push(u);
                        }
                    }
                }
            }
            if !closed {
                continue;
            }
            adds.sort_unstable();
            sources.sort_unstable();
            let mut benefit = 0.0;
            for &add in &adds {
                // Both operands are rescaled ciphertexts.
                let l_low = self.level(add);
                benefit += cost.at_level(OpClass::AddCipher, l_low)
                    - cost.at_level(OpClass::AddCipher, l_low + 1)
                    - cost.at_level(OpClass::Rescale, l_low);
            }
            for &s in &sources {
                benefit += cost.at_level(OpClass::Rescale, self.level(s));
            }
            if benefit > 0.0 {
                applied.extend(adds);
            }
        }
        applied.sort_unstable();
        applied
    }

    /// Hoists `applied` (in schedule order, so a consumed rescale's operand
    /// is already final) and returns the adds the next round must revisit:
    /// the hoisted adds and the adds reading their new rescales.
    fn apply(&mut self, applied: &[ValueId]) -> Vec<ValueId> {
        let mut dirty = Vec::new();
        for &add in applied {
            let rescales = self.candidate(add).expect("decided this round");
            // The values the two rescales rescaled: the add's new operands.
            let pre = rescales.map(|rs| {
                let Op::Rescale(v) = self.ops[rs.index()] else {
                    unreachable!("a candidate's operands are rescales")
                };
                if !std::mem::replace(&mut self.dropped[rs.index()], true) {
                    self.users[v.index()].retain(|&u| u != rs);
                }
                self.users[v.index()].push(add);
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
            self.visit.push(0);
            let users = std::mem::replace(&mut self.users[add.index()], vec![rs]);
            for &u in &users {
                let op = &mut self.ops[u.index()];
                *op = op.map_operands(|o| if o == add { rs } else { o });
                if matches!(op, Op::Add(..) | Op::Sub(..)) {
                    dirty.push(u);
                }
            }
            self.users.push(users);
            for o in self.outputs.iter_mut().filter(|o| **o == add) {
                *o = rs;
            }
            self.after.push((add, rs));
            dirty.push(add);
        }
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }

    /// The edited schedule: each op in its slot, each hoisted add followed
    /// by its live rescales, newest first.
    fn finish(mut self, source: &Program) -> Program {
        self.after
            .sort_unstable_by_key(|&(add, rs)| (add, std::cmp::Reverse(rs)));
        let mut after = self.after.iter().peekable();
        let mut dest = Program::new(source.name(), source.slots());
        let mut id = vec![ValueId(u32::MAX); self.ops.len()];
        let mut emit = |v: ValueId, dest: &mut Program| {
            if !self.dropped[v.index()] {
                id[v.index()] = dest.push(self.ops[v.index()].map_operands(|o| id[o.index()]));
            }
        };
        for v in source.ids() {
            emit(v, &mut dest);
            while let Some(&(_, rs)) = after.next_if(|&&(add, _)| add == v) {
                emit(rs, &mut dest);
            }
        }
        dest.set_outputs(self.outputs.iter().map(|o| id[o.index()]).collect());
        dest
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
