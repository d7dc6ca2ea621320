//! Scale-management operation insertion (§7, step 1).
//!
//! Translates a reserve-typed program into an RNS-CKKS-compliant scheduled
//! program. Every value is materialized at the principal level of its
//! reserve; at each use edge the operand is *adapted* to the state the
//! typing rules demand by inserting `modswitch` / `upscale` / `rescale`
//! chains (a `modswitch` replaces an `upscale`-by-`R` + `rescale` pair
//! whenever possible, being far cheaper). Level-mismatched multiplications
//! get their rescales right after the multiply — the earliest legal point —
//! which the hoisting pass may later move.

use fhe_ir::{
    CompileParams, Frac, InputSpec, Op, Program, ProgramEditor, ScheduledProgram, ValueId,
};

use crate::alloc::ReserveSolution;

/// Concrete ciphertext state during placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct State {
    /// Scale in log₂ bits.
    scale_bits: Frac,
    /// Level (modulus limbs).
    level: u32,
}

impl State {
    fn reserve_bits(&self, params: &CompileParams) -> Frac {
        Frac::from(self.level) * params.rescale() - self.scale_bits
    }
}

/// Materializes a reserve solution as a scheduled program.
///
/// # Panics
///
/// Panics if the solution omits a reserve for a live ciphertext value (run
/// the type checker first) or if the program already contains scale
/// management ops.
pub fn place(program: &Program, params: &CompileParams, sol: &ReserveSolution) -> ScheduledProgram {
    let mut ed = ProgramEditor::new(program);
    let mut tables = Tables {
        state: Vec::with_capacity(program.num_ops()),
        adapted: vec![NONE; program.num_ops()],
        chains: Vec::new(),
    };
    let mut inputs = Vec::new();
    let rescale = params.rescale();

    let rho_bits =
        |v: ValueId| -> Frac { params.to_bits(sol.reserve[v.index()].expect("cipher reserve")) };
    let req_bits = |v: ValueId, slot: usize| -> Frac {
        params.to_bits(sol.operand_req[v.index()][slot].expect("operand requirement"))
    };

    for id in program.ids() {
        if program.is_plain(id) {
            ed.emit(id);
            continue;
        }
        let rho = rho_bits(id);
        let principal = sol.principal_level(params, id);
        let principal_state = State {
            scale_bits: Frac::from(principal) * rescale - rho,
            level: principal,
        };
        match program.op(id).clone() {
            Op::Input { .. } => {
                let new = ed.emit(id);
                inputs.push(InputSpec {
                    scale_bits: principal_state.scale_bits,
                    level: principal_state.level,
                });
                tables.set_state(new, principal_state);
            }
            Op::Add(a, b) | Op::Sub(a, b) => {
                let mapped = [a, b].map(|o| {
                    if program.is_cipher(o) {
                        tables.adapt(params, &mut ed, o, principal_state)
                    } else {
                        ed.map_operand(o)
                    }
                });
                let new = ed.emit_with(id, &mapped);
                tables.set_state(new, principal_state);
            }
            Op::Neg(a) | Op::Rotate(a, _) => {
                let na = tables.adapt(params, &mut ed, a, principal_state);
                let new = ed.emit_with(id, &[na]);
                tables.set_state(new, principal_state);
            }
            Op::Mul(a, b) => {
                let (mapped, result) = match (program.is_cipher(a), program.is_cipher(b)) {
                    (true, true) => {
                        let req0 = req_bits(id, 0);
                        let req1 = req_bits(id, 1);
                        let l_op =
                            ((params.to_relative(req0) + params.omega()).ceil().max(1)) as u32;
                        let t0 = State {
                            scale_bits: Frac::from(l_op) * rescale - req0,
                            level: l_op,
                        };
                        let t1 = State {
                            scale_bits: Frac::from(l_op) * rescale - req1,
                            level: l_op,
                        };
                        let na = tables.adapt(params, &mut ed, a, t0);
                        let nb = tables.adapt(params, &mut ed, b, t1);
                        (
                            vec![na, nb],
                            State {
                                scale_bits: t0.scale_bits + t1.scale_bits,
                                level: l_op,
                            },
                        )
                    }
                    (true, false) | (false, true) => {
                        let (cipher, slot) = if program.is_cipher(a) { (a, 0) } else { (b, 1) };
                        let req = req_bits(id, slot);
                        let l_op =
                            ((params.to_relative(req) + params.omega()).ceil().max(1)) as u32;
                        let t = State {
                            scale_bits: Frac::from(l_op) * rescale - req,
                            level: l_op,
                        };
                        let nc = tables.adapt(params, &mut ed, cipher, t);
                        let mapped = if program.is_cipher(a) {
                            vec![nc, ed.map_operand(b)]
                        } else {
                            vec![ed.map_operand(a), nc]
                        };
                        (
                            mapped,
                            State {
                                scale_bits: t.scale_bits + params.waterline(),
                                level: l_op,
                            },
                        )
                    }
                    (false, false) => unreachable!("plain values handled above"),
                };
                let mut new = ed.emit_with(id, &mapped);
                let mut cur = result;
                // Level mismatch: rescale down to the principal level.
                while cur.level > principal {
                    new = ed.push(Op::Rescale(new));
                    cur = State {
                        scale_bits: cur.scale_bits - rescale,
                        level: cur.level - 1,
                    };
                    ed.set_mapping(id, new);
                }
                debug_assert_eq!(
                    cur, principal_state,
                    "mul normalization must land on principal"
                );
                tables.set_state(new, cur);
            }
            Op::Rescale(_) | Op::ModSwitch(_) | Op::Upscale(..) => {
                panic!("placement expects a program without scale management ops")
            }
            Op::Const { .. } => unreachable!("consts are plain"),
        }
    }

    ScheduledProgram {
        program: ed.finish(),
        params: *params,
        inputs,
    }
}

/// "No entry" in [`Tables`]' index columns.
const NONE: u32 = u32::MAX;

/// Placement's per-value tables, dense by id.
struct Tables {
    /// The state of each destination ciphertext (`None` for plaintexts).
    state: Vec<Option<State>>,
    /// Per source value, the newest of its memoized adaptation chains: an
    /// index into `chains`, or [`NONE`].
    adapted: Vec<u32>,
    /// Every adaptation chain: its target, its last op, and the index of
    /// the same source's previous chain.
    chains: Vec<(State, ValueId, u32)>,
}

impl Tables {
    fn set_state(&mut self, id: ValueId, st: State) {
        if self.state.len() <= id.index() {
            self.state.resize(id.index() + 1, None);
        }
        self.state[id.index()] = Some(st);
    }

    /// Adapts the dest value mapped from source `src` to the `target`
    /// state, inserting `modswitch`/`upscale`/`rescale` as needed. Chains
    /// are memoized per (source, target) so multiple uses share them.
    fn adapt(
        &mut self,
        params: &CompileParams,
        ed: &mut ProgramEditor<'_>,
        src: ValueId,
        target: State,
    ) -> ValueId {
        let cur_id = ed.map_operand(src);
        let cur = self.state[cur_id.index()].expect("a ciphertext state");
        if cur == target {
            return cur_id;
        }
        let mut chain = self.adapted[src.index()];
        while chain != NONE {
            let (to, done, prev) = self.chains[chain as usize];
            if to == target {
                return done;
            }
            chain = prev;
        }
        let rescale = params.rescale();
        let d = cur
            .level
            .checked_sub(target.level)
            .expect("levels only decrease");
        let eps = cur.reserve_bits(params) - target.reserve_bits(params);
        assert!(eps >= Frac::ZERO, "reserves only decrease along an edge");
        // Each modswitch burns one level AND R bits of reserve.
        let by_modswitch = (eps / rescale).floor().max(0) as u32;
        let s = d.min(by_modswitch);
        let delta = eps - Frac::from(s) * rescale;
        let r = d - s;

        let mut id = cur_id;
        let mut st = cur;
        for _ in 0..s {
            id = ed.push(Op::ModSwitch(id));
            st.level -= 1;
        }
        if delta > Frac::ZERO {
            id = ed.push(Op::Upscale(id, delta));
            st.scale_bits += delta;
        }
        for _ in 0..r {
            id = ed.push(Op::Rescale(id));
            st.level -= 1;
            st.scale_bits -= rescale;
        }
        debug_assert_eq!(st, target, "adaptation must land exactly on the target");
        self.set_state(id, st);
        self.chains.push((target, id, self.adapted[src.index()]));
        self.adapted[src.index()] = self.chains.len() as u32 - 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::allocate;
    use crate::ordering::allocation_order;
    use fhe_ir::{Builder, CostModel};

    fn compile_raw(program: &Program, waterline: u32, redistribute: bool) -> ScheduledProgram {
        let params = CompileParams::new(waterline);
        let order = allocation_order(program, &params, &CostModel::paper_table3());
        let sol = allocate(program, &params, &order, redistribute);
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
    fn placed_fig2a_validates() {
        for redistribute in [false, true] {
            for wl in [15, 20, 25, 30, 35, 40, 45, 50] {
                let s = compile_raw(&fig2a(), wl, redistribute);
                let map = s
                    .validate()
                    .unwrap_or_else(|e| panic!("W={wl} redistribute={redistribute}: {e:?}"));
                assert!(map.max_level() >= 1);
            }
        }
    }

    #[test]
    fn fig2a_redistributed_plan_shape() {
        // With redistribution at W=20, inputs are at level 2 with scale 40,
        // and the output fully uses its modulus (reserve 0 at level 1).
        let s = compile_raw(&fig2a(), 20, true);
        let map = s.validate().unwrap();
        assert_eq!(map.max_level(), 2);
        for spec in &s.inputs {
            assert_eq!(spec.level, 2);
            assert_eq!(spec.scale_bits, Frac::from(40));
        }
        let out = s.program.outputs()[0];
        assert_eq!(map.level(out), 1);
        assert_eq!(map.scale_bits(out), Frac::from(60));
    }

    #[test]
    fn cost_beats_eva_style_waterline_inputs() {
        // The reserve plan for Fig. 2a must beat EVA's 390 (hundreds of µs).
        let s = compile_raw(&fig2a(), 20, true);
        let map = s.validate().unwrap();
        let cost = CostModel::paper_table3().program_cost(&s.program, &map);
        assert!(
            cost < 39000.0,
            "reserve plan cost {cost}µs should beat EVA's ~39000µs"
        );
    }

    #[test]
    fn adaptation_chains_are_shared() {
        // x used twice at the same lower state: the upscale/rescale chain
        // must be emitted once.
        let b = Builder::new("share", 8);
        let x = b.input("x");
        let y = b.input("y");
        let m1 = x.clone() * y.clone();
        let m2 = x.clone() * y.clone();
        // Force depth on x and y via another mul.
        let out = m1 * m2;
        let p = b.finish(vec![out]);
        let s = compile_raw(&p, 20, true);
        s.validate().unwrap();
        // x (and y) feed two muls with identical requirements; count
        // upscales: no more than one per input.
        let upscales = s.program.count_ops(|o| matches!(o, Op::Upscale(..)));
        assert!(upscales <= 2, "adaptation chains duplicated: {upscales}");
    }

    #[test]
    fn modswitch_replaces_upscale_rescale_pairs() {
        // A value whose reserve drop exceeds R along an edge gets a
        // modswitch rather than upscale+rescale.
        let b = Builder::new("ms", 8);
        let x = b.input("x");
        let deep = x.clone() * x.clone() * x.clone() * x.clone() * x.clone();
        let shallow = x.clone();
        let out = deep + shallow; // x itself needs a large reserve drop
        let p = b.finish(vec![out]);
        let s = compile_raw(&p, 45, true);
        s.validate().unwrap();
        let ms = s.program.count_ops(|o| matches!(o, Op::ModSwitch(_)));
        assert!(ms >= 1, "expected at least one modswitch, got {ms}");
    }

    #[test]
    fn rotations_and_plain_ops_place_cleanly() {
        let b = Builder::new("rot", 16);
        let x = b.input("x");
        let k = b.constant(vec![0.25; 16]);
        let conv =
            (x.clone() * k.clone()) + (x.clone().rotate(1) * k.clone()) + (x.clone().rotate(2) * k);
        let sq = conv.clone() * conv;
        let p = b.finish(vec![sq]);
        for wl in [20, 30, 40] {
            let s = compile_raw(&p, wl, true);
            s.validate().unwrap_or_else(|e| panic!("W={wl}: {e:?}"));
        }
    }
}
