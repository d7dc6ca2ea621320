//! Backward reserve allocation (§6.2) and reserve redistribution (§6.3).
//!
//! Walking the allocation order (users before operands), each ciphertext
//! value's reserve is the maximum of its *reserve-ins* — the operand
//! reserves its users demand, derived from the typing rules of Fig. 5:
//!
//! - add/neg/rotate pass the result reserve through;
//! - cipher×plain demands `ρ + ω`;
//! - cipher×cipher splits evenly: `ρ₁ = ρ₂ = (l + ρ)/2`, `l = ⌈ρ + 2ω⌉`.
//!
//! When a multiplication's operand level `⌈ρ + 2ω⌉` exceeds its result's
//! principal level `⌈ρ + ω⌉` (a *level mismatch*, costing a rescale and a
//! level), redistribution tries to shave the overflowing fraction
//! `{ρ + 2ω}` off the result reserve by shifting budget onto sibling
//! operands of its users — free when the sibling has lower priority, bounded
//! by the sibling's allocated slack otherwise, and never allowed to change a
//! principal level.

use fhe_ir::{CompileParams, Frac, Op, Program, ValueId};

use crate::ordering::AllocationOrder;

/// A reserve demanded of a value by one consumer.
#[derive(Debug, Clone, Copy)]
struct ReserveIn {
    /// The consuming op and which of its operand slots this edge feeds
    /// (`None` for the program-output edge).
    user: Option<(ValueId, usize)>,
    /// The demanded relative reserve.
    req: Frac,
}

/// The result of reserve analysis: per-value reserves and per-edge operand
/// requirements, ready for rescale placement.
#[derive(Debug, Clone)]
pub struct ReserveSolution {
    /// Relative reserve `ρ` of each ciphertext value (`None` for plaintext
    /// values, which have no reserve).
    pub reserve: Vec<Option<Frac>>,
    /// Per op, the relative reserve demanded of each operand slot (`None`
    /// for plaintext operands or absent slots).
    pub operand_req: Vec<[Option<Frac>; 2]>,
    /// Which multiplications remain level-mismatched (need a rescale).
    pub level_mismatch: Vec<bool>,
}

impl ReserveSolution {
    /// The principal level of value `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a plaintext value.
    pub fn principal_level(&self, params: &CompileParams, id: ValueId) -> u32 {
        params.principal_level(self.reserve[id.index()].expect("cipher value"))
    }
}

/// One reversible mutation of the allocator state.
#[derive(Debug, Clone, Copy)]
enum Undo {
    ReserveIn {
        value: ValueId,
        idx: usize,
        old: Frac,
    },
    OperandReq {
        op: ValueId,
        slot: usize,
        old: Option<Frac>,
    },
    Reserve {
        value: ValueId,
        old: Option<Frac>,
    },
}

struct Allocator<'p> {
    program: &'p Program,
    params: CompileParams,
    redistribute: bool,
    reserve: Vec<Option<Frac>>,
    operand_req: Vec<[Option<Frac>; 2]>,
    reserve_ins: Vec<Vec<ReserveIn>>,
    allocated: Vec<bool>,
}

/// Runs reserve allocation over the given order. `redistribute` enables the
/// §6.3 pass (the paper's RA/full configurations; the BA baseline disables
/// it).
pub fn allocate(
    program: &Program,
    params: &CompileParams,
    order: &AllocationOrder,
    redistribute: bool,
) -> ReserveSolution {
    let n = program.num_ops();
    let mut alloc = Allocator {
        program,
        params: *params,
        redistribute,
        reserve: vec![None; n],
        operand_req: vec![[None, None]; n],
        reserve_ins: vec![Vec::new(); n],
        allocated: vec![false; n],
    };
    // Output edges demand the configured output reserve.
    let out_reserve = params.to_relative(Frac::from(params.output_reserve_bits));
    for &o in program.outputs() {
        if program.is_cipher(o) {
            alloc.reserve_ins[o.index()].push(ReserveIn {
                user: None,
                req: out_reserve,
            });
        }
    }
    for &v in &order.order {
        alloc.allocate_value(v);
    }
    let level_mismatch = program
        .ids()
        .map(|id| alloc.is_level_mismatch(id))
        .collect();
    ReserveSolution {
        reserve: alloc.reserve,
        operand_req: alloc.operand_req,
        level_mismatch,
    }
}

impl<'p> Allocator<'p> {
    fn omega(&self) -> Frac {
        self.params.omega()
    }

    fn max_reserve_in(&self, v: ValueId) -> Frac {
        self.reserve_ins[v.index()]
            .iter()
            .map(|r| r.req)
            .fold(Frac::ZERO, Frac::max)
    }

    fn allocate_value(&mut self, v: ValueId) {
        if self.program.is_plain(v) {
            return;
        }
        let mut rho = self.max_reserve_in(v);

        // §6.3: try to remove an avoidable level mismatch before fixing ρ.
        if self.redistribute && self.mul_mismatch_at(v, rho) {
            let delta = (rho + self.omega() + self.omega()).paper_frac();
            let target = rho - delta;
            if self.try_reduce_reserve_ins(v, target) {
                rho = target;
                debug_assert!(!self.mul_mismatch_at(v, rho));
            }
        }

        self.reserve[v.index()] = Some(rho);
        self.allocated[v.index()] = true;
        self.push_operand_requirements(v, rho);
    }

    /// Whether `v` (if a multiplication) would be level-mismatched at
    /// reserve `rho`.
    fn mul_mismatch_at(&self, v: ValueId, rho: Frac) -> bool {
        if !matches!(self.program.op(v), Op::Mul(..)) {
            return false;
        }
        let w = self.omega();
        let operand_level = (rho + w + w).ceil().max(1);
        let result_level = (rho + w).ceil().max(1);
        operand_level != result_level
    }

    fn is_level_mismatch(&self, v: ValueId) -> bool {
        match self.reserve[v.index()] {
            Some(rho) => self.mul_mismatch_at(v, rho),
            None => false,
        }
    }

    /// Derives operand requirements from the typing rules and registers the
    /// reserve-ins on the operands.
    fn push_operand_requirements(&mut self, v: ValueId, rho: Frac) {
        let p = self.program;
        let w = self.omega();
        let ops: Vec<ValueId> = p.op(v).operands().collect();
        match p.op(v) {
            Op::Input { .. } | Op::Const { .. } => {}
            Op::Rescale(_) | Op::ModSwitch(_) | Op::Upscale(..) => {
                panic!("reserve analysis expects a program without scale management ops")
            }
            Op::Add(..) | Op::Sub(..) | Op::Neg(_) | Op::Rotate(..) => {
                for (slot, &o) in ops.iter().enumerate() {
                    if p.is_cipher(o) {
                        self.add_edge(v, slot, o, rho);
                    }
                }
            }
            Op::Mul(a, b) => match (p.is_cipher(*a), p.is_cipher(*b)) {
                (true, true) => {
                    let l = Frac::from((rho + w + w).ceil().max(1));
                    let half = (l + rho) / Frac::from(2);
                    self.add_edge(v, 0, *a, half);
                    self.add_edge(v, 1, *b, half);
                }
                (true, false) => self.add_edge(v, 0, *a, rho + w),
                (false, true) => self.add_edge(v, 1, *b, rho + w),
                (false, false) => unreachable!("plain values are skipped"),
            },
        }
    }

    fn add_edge(&mut self, user: ValueId, slot: usize, operand: ValueId, req: Frac) {
        self.operand_req[user.index()][slot] = Some(req);
        self.reserve_ins[operand.index()].push(ReserveIn {
            user: Some((user, slot)),
            req,
        });
    }

    /// Attempts to lower every reserve-in of `v` to at most `target`,
    /// redistributing overflow onto sibling operands (or recursively through
    /// pass-through users). Returns `false` (with no state change) if any
    /// edge cannot be lowered.
    fn try_reduce_reserve_ins(&mut self, v: ValueId, target: Frac) -> bool {
        // Mutations are journaled and rolled back on failure (cloning the
        // whole analysis state per attempt is quadratic on LeNet-sized
        // programs).
        //
        // The inner pass walks a snapshot of `v`'s reserve-ins, but a
        // recursive shift can *re-raise* an already-lowered edge: shrinking
        // a shared user pushes its overflow onto a sibling slot, and when
        // `v` feeds that user through both slots (e.g. `mul(x, f(x))`) the
        // sibling is `v` itself. Re-checking the maximum after the pass
        // catches that; the attempt then rolls back and the mismatch stays
        // (costing a level, but keeping the solution well-typed).
        let mut journal = Vec::new();
        if self.reduce_reserve_ins_inner(v, target, &mut journal)
            && self.max_reserve_in(v) <= target
        {
            true
        } else {
            for undo in journal.into_iter().rev() {
                match undo {
                    Undo::ReserveIn { value, idx, old } => {
                        self.reserve_ins[value.index()][idx].req = old;
                    }
                    Undo::OperandReq { op, slot, old } => {
                        self.operand_req[op.index()][slot] = old;
                    }
                    Undo::Reserve { value, old } => {
                        self.reserve[value.index()] = old;
                    }
                }
            }
            false
        }
    }

    fn reduce_reserve_ins_inner(
        &mut self,
        v: ValueId,
        target: Frac,
        journal: &mut Vec<Undo>,
    ) -> bool {
        if target < Frac::ZERO {
            return false;
        }
        let entries: Vec<ReserveIn> = self.reserve_ins[v.index()].clone();
        for (i, entry) in entries.iter().enumerate() {
            if entry.req <= target {
                continue;
            }
            let delta = entry.req - target;
            let Some((user, slot)) = entry.user else {
                return false; // the program-output demand is fixed
            };
            if !self.shift_edge(user, slot, v, delta, journal) {
                return false;
            }
            journal.push(Undo::ReserveIn {
                value: v,
                idx: i,
                old: self.reserve_ins[v.index()][i].req,
            });
            self.reserve_ins[v.index()][i].req = target;
        }
        true
    }

    /// Lowers the demand of `user`'s operand `slot` (feeding `v`) by
    /// `delta`, compensating per the §6.3 rules.
    fn shift_edge(
        &mut self,
        user: ValueId,
        slot: usize,
        v: ValueId,
        delta: Frac,
        journal: &mut Vec<Undo>,
    ) -> bool {
        let p = self.program;
        let w = self.omega();
        match p.op(user).clone() {
            Op::Mul(a, b) if p.is_cipher(a) && p.is_cipher(b) => {
                if a == b {
                    return false; // squaring: both demands are one edge
                }
                let other_slot = 1 - slot;
                let sibling = if other_slot == 0 { a } else { b };
                let my_req = self.operand_req[user.index()][slot].expect("edge exists");
                let sib_req = self.operand_req[user.index()][other_slot].expect("edge exists");
                let l_user = Frac::from((my_req + w).ceil().max(1));
                let new_sib = sib_req + delta;
                // The sibling's principal level must not change (§6.3).
                if new_sib + w > l_user {
                    return false;
                }
                // A higher-priority (already allocated) sibling can only
                // absorb up to its allocated reserve.
                if self.allocated[sibling.index()] {
                    let sib_alloc = self.reserve[sibling.index()].expect("allocated cipher");
                    if new_sib > sib_alloc {
                        return false;
                    }
                }
                journal.push(Undo::OperandReq {
                    op: user,
                    slot,
                    old: self.operand_req[user.index()][slot],
                });
                self.operand_req[user.index()][slot] = Some(my_req - delta);
                journal.push(Undo::OperandReq {
                    op: user,
                    slot: other_slot,
                    old: self.operand_req[user.index()][other_slot],
                });
                self.operand_req[user.index()][other_slot] = Some(new_sib);
                self.update_reserve_in(sibling, user, other_slot, new_sib, journal);
                true
            }
            Op::Add(..) | Op::Sub(..) | Op::Neg(_) | Op::Rotate(..) => {
                // Pass-through: the user's own reserve must shrink by delta.
                let user_rho = self.reserve[user.index()].expect("user allocated");
                let new_rho = user_rho - delta;
                // The max is re-checked after the nested reduction: a shift
                // deeper in the chain can re-raise one of `user`'s edges
                // against its *old* (higher) reserve — the snapshot the
                // inner walk took no longer covers it.
                if !self.reduce_reserve_ins_inner(user, new_rho, journal)
                    || self.max_reserve_in(user) > new_rho
                {
                    return false;
                }
                journal.push(Undo::Reserve {
                    value: user,
                    old: self.reserve[user.index()],
                });
                self.reserve[user.index()] = Some(new_rho);
                // All cipher operand demands of the user drop to new_rho.
                let ops: Vec<ValueId> = p.op(user).operands().collect();
                for (s, &o) in ops.iter().enumerate() {
                    if p.is_cipher(o) {
                        journal.push(Undo::OperandReq {
                            op: user,
                            slot: s,
                            old: self.operand_req[user.index()][s],
                        });
                        self.operand_req[user.index()][s] = Some(new_rho);
                        self.update_reserve_in(o, user, s, new_rho, journal);
                    }
                }
                true
            }
            Op::Mul(..) => {
                // cipher×plain: demand is ρ_user + ω; shrink the user.
                let user_rho = self.reserve[user.index()].expect("user allocated");
                let new_rho = user_rho - delta;
                // See the pass-through branch for why the max is re-checked.
                if !self.reduce_reserve_ins_inner(user, new_rho, journal)
                    || self.max_reserve_in(user) > new_rho
                {
                    return false;
                }
                journal.push(Undo::Reserve {
                    value: user,
                    old: self.reserve[user.index()],
                });
                self.reserve[user.index()] = Some(new_rho);
                journal.push(Undo::OperandReq {
                    op: user,
                    slot,
                    old: self.operand_req[user.index()][slot],
                });
                self.operand_req[user.index()][slot] = Some(new_rho + w);
                self.update_reserve_in(v, user, slot, new_rho + w, journal);
                true
            }
            Op::Input { .. } | Op::Const { .. } => unreachable!("inputs have no operands"),
            Op::Rescale(_) | Op::ModSwitch(_) | Op::Upscale(..) => {
                unreachable!("no scale management ops during analysis")
            }
        }
    }

    fn update_reserve_in(
        &mut self,
        operand: ValueId,
        user: ValueId,
        slot: usize,
        req: Frac,
        journal: &mut Vec<Undo>,
    ) {
        for (idx, entry) in self.reserve_ins[operand.index()].iter_mut().enumerate() {
            if entry.user == Some((user, slot)) {
                journal.push(Undo::ReserveIn {
                    value: operand,
                    idx,
                    old: entry.req,
                });
                entry.req = req;
                return;
            }
        }
        unreachable!("reserve-in edge must exist");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::allocation_order;
    use fhe_ir::{Builder, CostModel};

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

    fn solve(redistribute: bool) -> (Program, [ValueId; 7], ReserveSolution, CompileParams) {
        let (p, ids) = fig2a();
        let params = CompileParams::new(20);
        let order = allocation_order(&p, &params, &CostModel::paper_table3());
        let sol = allocate(&p, &params, &order, redistribute);
        (p, ids, sol, params)
    }

    fn bits(params: &CompileParams, rho: Frac) -> Frac {
        params.to_bits(rho)
    }

    #[test]
    fn allocation_without_redistribution_matches_fig3c() {
        let (_, [x, y, x2, x3, y2, s, q], sol, params) = solve(false);
        let r = |v: ValueId| bits(&params, sol.reserve[v.index()].unwrap());
        // Fig. 3c: q 0 (→ operands 30), x3 30, s 30, x2/y2 via l=2 splits.
        assert_eq!(r(q), Frac::ZERO);
        assert_eq!(r(x3), Frac::from(30));
        assert_eq!(r(s), Frac::from(30));
        // x3 mismatch at ρ=30/60: ⌈30/60+40/60⌉=2 vs ⌈50/60⌉=1.
        assert!(sol.level_mismatch[x3.index()]);
        // x3's operands each get (2·60 + 30)/2 = 75 bits.
        assert_eq!(r(x2), Frac::from(75));
        // x gets max(75 from x3, ops from x2): x2 at ρ=75/60 ⇒ l=⌈75/60+40/60⌉=2,
        // split (120+75)/2 = 97.5 bits (shown truncated as 97 in Fig. 3c).
        assert_eq!(r(x), Frac::ratio(195, 2));
        // s passes 30 through to y2 and y; y2's operand demand (120+30)/2=75
        // then makes y = max(30, 75) = 75.
        assert_eq!(r(y2), Frac::from(30));
        assert_eq!(r(y), Frac::from(75));
    }

    #[test]
    fn redistribution_matches_fig3d() {
        let (_, [x, y, x2, x3, y2, s, q], sol, params) = solve(true);
        let r = |v: ValueId| bits(&params, sol.reserve[v.index()].unwrap());
        assert_eq!(r(q), Frac::ZERO);
        // x3's mismatch is repaired: 30 → 20, shifting 10 onto s (30 → 40).
        assert_eq!(r(x3), Frac::from(20));
        assert_eq!(r(s), Frac::from(40));
        assert!(!sol.level_mismatch[x3.index()]);
        // x3 now at l=1: operands (60+20)/2 = 40 each.
        assert_eq!(r(x2), Frac::from(40));
        // x2 at ρ=40/60: l=⌈40/60+40/60⌉=2 mismatch; its redistribution
        // fails (x would need reserve 60 at level 1), so split (120+40)/2=80.
        assert!(sol.level_mismatch[x2.index()]);
        assert_eq!(r(x), Frac::from(80));
        // y2 takes 40 from s, mismatched the same way; y = max(80, 40) = 80.
        assert_eq!(r(y2), Frac::from(40));
        assert!(sol.level_mismatch[y2.index()]);
        assert_eq!(r(y), Frac::from(80));
    }

    #[test]
    fn principal_levels_follow_reserves() {
        let (_, [x, _, _, x3, _, _, q], sol, params) = solve(true);
        assert_eq!(sol.principal_level(&params, q), 1);
        assert_eq!(sol.principal_level(&params, x3), 1);
        assert_eq!(sol.principal_level(&params, x), 2);
    }

    #[test]
    fn square_cannot_redistribute() {
        // x²·c chain where the only user is a square: redistribution must
        // leave the mismatch in place rather than corrupt state.
        let b = Builder::new("sq", 4);
        let x = b.input("x");
        let x2 = x.clone() * x.clone();
        let x4 = x2.clone() * x2.clone();
        let p = b.finish(vec![x4]);
        let params = CompileParams::new(25);
        let order = allocation_order(&p, &params, &CostModel::paper_table3());
        let sol = allocate(&p, &params, &order, true);
        // Solution must still satisfy the typing rules (checked in types.rs
        // tests too); here: reserves are non-negative and defined.
        for id in p.ids() {
            if p.is_cipher(id) {
                assert!(sol.reserve[id.index()].unwrap() >= Frac::ZERO);
            }
        }
    }

    #[test]
    fn plain_mul_demands_rho_plus_omega() {
        let b = Builder::new("pm", 4);
        let x = b.input("x");
        let c = b.constant(2.0);
        let m = x.clone() * c;
        let m_id = m.id();
        let x_id = x.id();
        let p = b.finish(vec![m]);
        let params = CompileParams::new(20);
        let order = allocation_order(&p, &params, &CostModel::paper_table3());
        let sol = allocate(&p, &params, &order, true);
        assert_eq!(sol.reserve[m_id.index()].unwrap(), Frac::ZERO);
        assert_eq!(sol.reserve[x_id.index()].unwrap(), params.omega());
        assert_eq!(sol.operand_req[m_id.index()][0], Some(params.omega()));
    }

    #[test]
    fn output_reserve_is_respected() {
        let b = Builder::new("o", 4);
        let x = b.input("x");
        let y = b.input("y");
        let m = x * y;
        let m_id = m.id();
        let p = b.finish(vec![m]);
        let mut params = CompileParams::new(20);
        params.output_reserve_bits = 10;
        let order = allocation_order(&p, &params, &CostModel::paper_table3());
        let sol = allocate(&p, &params, &order, true);
        assert_eq!(
            params.to_bits(sol.reserve[m_id.index()].unwrap()),
            Frac::from(10)
        );
    }

    #[test]
    fn redistribution_diamond_stays_well_typed() {
        // Fuzzer reproducer (tests/corpus/redistribute_demand_reraise.fhe):
        // a cipher×plain chain feeding `mul(%4, f(%4))` lets a shift_edge
        // walk re-raise the demand on %4 against the snapshot reserve the
        // outer reduction already lowered, yielding a SubtypeViolation at
        // typecheck. The per-frame fixpoint guards must keep the solution
        // well-typed at every output reserve.
        for output_reserve in 0..=6 {
            let b = Builder::new("diamond", 64);
            let x = b.input("x2");
            let m2 = x * b.constant(-0.9533997746251046);
            let m4 = m2 * b.constant(1.832335992135432);
            let m6 = m4.clone() * b.constant(-0.1563696043930376);
            let q = m4 * m6;
            let p = b.finish(vec![q]);
            let mut options = crate::Options::new(35);
            options.params.output_reserve_bits = output_reserve;
            let compiled = crate::compile(&p, &options)
                .unwrap_or_else(|e| panic!("output_reserve={output_reserve}: {e}"));
            compiled
                .scheduled
                .validate()
                .unwrap_or_else(|e| panic!("output_reserve={output_reserve}: {e:?}"));
        }
    }
}
