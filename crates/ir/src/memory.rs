//! Static memory estimation of scheduled programs.
//!
//! Mirrors the runtime's allocation discipline — pooled temporaries per
//! op, last-use freeing of dead ciphertexts, hoisted rotation groups,
//! linear-combination groups accumulated before the division by `P`, all
//! four read from the schedule's [`DepGraph`], which the executor walks —
//! and produces a peak-bytes bound that must dominate every measured
//! `MemStats::peak_bytes` (the fuzz oracle asserts this). All polynomial
//! figures are counted in *limbs* (one limb = `N × 8` bytes) and
//! converted at the end; key material and key-switch digits are counted
//! from the closed forms of hybrid key switching ([`ksw_key_limbs`],
//! [`decomposition_limbs`]), which mirror `fhe-ckks`'s. Each key is
//! counted at the level [`key_levels`] reads off the schedule — the one the
//! runtime generates it at.

use std::collections::HashMap;

use crate::depgraph::DepGraph;
use crate::op::{Op, ValueId};
use crate::program::Program;
use crate::schedule::{ScaleMap, ScheduledProgram};
use crate::semantics::rotation_class;

/// Flat per-op slack, in limbs, covering small transients the walk does
/// not model individually.
const OP_MARGIN_LIMBS: u64 = 16;

/// `α`, the special primes of a chain of `L` primes: `⌈L/3⌉`.
fn special_primes(max_level: u64) -> u64 {
    max_level.div_ceil(3)
}

/// Limbs of a level-`l` key-switch decomposition under a chain of `L`
/// primes: `⌈l/α⌉` digits over `Q_l·P`, `⌈l/α⌉·(l+α)` in all. The backend's
/// `fhe_ckks::decomposition_limbs`; this crate does not depend on the
/// backend, so `tests/key_switching.rs` holds the two to each other.
pub fn decomposition_limbs(level: u64, max_level: u64) -> u64 {
    let alpha = special_primes(max_level);
    level.div_ceil(alpha) * (level + alpha)
}

/// Limb polynomials of one key-switching key of level `l_k`: one per digit
/// a level-`l_k` switch reads, over `Q_{l_k}·P`, `⌈l_k/α⌉·(l_k+α)` (0 at
/// level 0) — `fhe_ckks::ksw_key_limbs`. A key's uniform halves are one
/// 8-byte seed per digit, counted neither here nor by the backend's
/// `KswKey::byte_size`.
pub fn ksw_key_limbs(key_level: u64, max_level: u64) -> u64 {
    decomposition_limbs(key_level, max_level)
}

/// How deep each key-switching key of a schedule must reach: the level of
/// the deepest op that switches with it ([`key_levels`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct KeyLevels {
    /// One `(step, level)` per Galois element the program rotates by, in
    /// order of the element's first rotation, whose step it carries. The
    /// level is the deepest ciphertext rotation by the element — 0 if only
    /// plaintext values rotate by it, a key that is drawn and dropped.
    pub galois: Vec<(i64, u32)>,
    /// The level of the deepest cipher × cipher multiply (0 if none).
    pub relin: u32,
}

/// Reads off a validated schedule the level each key-switching key must
/// reach: per Galois element, the deepest rotation by it; for
/// relinearization, the deepest cipher × cipher multiply. Every scheduled
/// op counts, live or not, and the elements come in the order the
/// program's rotation steps first name them — so an eager keygen from this
/// list draws its keys in the order it would for the plain step list.
/// Identity rotations ([`rotation_class`] `None`) need no key.
pub fn key_levels(program: &Program, map: &ScaleMap) -> KeyLevels {
    let mut levels = KeyLevels::default();
    let mut index = HashMap::new();
    for id in program.ids() {
        let level = map.try_level(id).unwrap_or(0);
        match *program.op(id) {
            Op::Rotate(_, k) => {
                let Some(class) = rotation_class(k, program.slots()) else {
                    continue;
                };
                let i = *index.entry(class).or_insert_with(|| {
                    levels.galois.push((k, 0));
                    levels.galois.len() - 1
                });
                levels.galois[i].1 = levels.galois[i].1.max(level);
            }
            Op::Mul(a, b) if program.is_cipher(a) && program.is_cipher(b) => {
                levels.relin = levels.relin.max(level);
            }
            _ => {}
        }
    }
    levels
}

/// Static per-program memory bound (see [`estimate_memory`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryEstimate {
    /// Total peak bytes: polynomial peak plus key material.
    pub peak_bytes: u64,
    /// Peak bytes held in ciphertext polynomials and pooled temporaries.
    pub poly_peak_bytes: u64,
    /// Bytes of key material: secret key, relinearization key, and one
    /// key-switching key per distinct Galois element the program rotates a
    /// ciphertext by, each at its [`key_levels`] level.
    pub key_bytes: u64,
    /// Distinct Galois elements needing keys (ciphertext rotations of a
    /// [`rotation_class`], deduplicated by class).
    pub galois_keys: usize,
    /// The op at which the polynomial peak occurs, if any.
    pub peak_op: Option<ValueId>,
}

/// Computes a static peak-memory bound for a scheduled program.
///
/// The walk starts with every live input encrypted, visits ops in schedule
/// order, materializes each result into a live set, adds a per-op
/// transient bound for the pooled temporaries the backend checks out
/// (key-switch digit decompositions dominate; a plain operand's on-demand
/// plaintext counts), records the high-water
/// mark, and frees each ciphertext after its last use — exactly the
/// discipline of the encrypted executor. `poly_degree` is the
/// backend's `N` (the runtime requires `N = 2 × slots`). `graph` is the
/// schedule's [`DepGraph`], which supplies liveness, free points and both
/// kinds of group: a hoisted rotation group (present when the graph was
/// built with hoisting, the executor's setting) keeps its shared digit
/// decomposition live from its first member to its last, and a
/// linear-combination group holds one partial sum, `2(l+α) + 2l` limbs,
/// from its first member to its root — what the one-runner walk holds —
/// while its members, products and absorbed adds are never materialized.
pub fn estimate_memory(
    scheduled: &ScheduledProgram,
    map: &ScaleMap,
    poly_degree: usize,
    graph: &DepGraph,
) -> MemoryEstimate {
    let program = &scheduled.program;
    let limb_bytes = (poly_degree * 8) as u64;
    let big_l = u64::from(map.max_level());
    let alpha = special_primes(big_l);

    let groups = graph.rotation_groups();
    // Per linear-combination group: where its partial sum is checked out
    // and where it is finished. Per member: the groups it feeds, each of
    // which it encodes one plaintext over `Q_l·P` for.
    let mut absorbed = vec![false; program.num_ops()];
    let mut fed: HashMap<ValueId, u64> = HashMap::new();
    let mut partial_at: HashMap<ValueId, u64> = HashMap::new();
    let mut finished_at: HashMap<ValueId, u64> = HashMap::new();
    for group in graph.linear_groups() {
        let l = u64::from(map.level(group.root));
        let partial = 2 * (l + alpha) + 2 * l;
        let mut members: Vec<ValueId> = group.terms.iter().map(|&(m, _)| m).collect();
        members.sort();
        members.dedup();
        for &m in &members {
            *fed.entry(m).or_default() += 1;
        }
        let products = group.terms.iter().map(|&(_, p)| p);
        for v in members.iter().chain(&group.adds).copied().chain(products) {
            absorbed[v.index()] = true;
        }
        *partial_at.entry(members[0]).or_default() += partial;
        *finished_at.entry(group.root).or_default() += partial;
    }

    // The executor encrypts every live input before the first op, wherever
    // the schedule declares it.
    let mut live_limbs: u64 = program
        .inputs()
        .iter()
        .filter(|&&id| graph.node(id).is_some())
        .map(|&id| 2 * u64::from(map.level(id)))
        .sum();
    let mut poly_peak: u64 = 0;
    let mut peak_op = None;
    for id in graph.nodes().iter().map(|n| n.id) {
        if !program.is_cipher(id) {
            continue;
        }
        let l = u64::from(map.level(id));
        // Per-op pooled transients, in limbs, over-approximating the
        // backend: a relinearizing multiply or key-switched rotation holds
        // the lifted digit decomposition (`⌈l/α⌉` digits × `l+α` limbs),
        // two special-basis accumulators, and two scratch polynomials at
        // once.
        let digits = decomposition_limbs(l, big_l);
        let ksw = digits + 2 * (l + alpha) + 2 * l;
        // A hoisted group's digits are checked out by its first member and
        // returned by its last; in between they are live like a value.
        let group = match *program.op(id) {
            Op::Rotate(a, k) if rotation_class(k, program.slots()).is_some() => groups.get(&a),
            _ => None,
        };
        if group.is_some_and(|g| g[0].0 == id) {
            live_limbs += digits;
        }
        live_limbs += partial_at.get(&id).copied().unwrap_or(0);
        let (result_limbs, transient) = match program.op(id) {
            Op::Input { .. } => (0, 0),
            // A linear-combination member holds its plaintexts over
            // `Q_l·P` (one per group it feeds), the key switch's pair over
            // `Q_l·P` and the rotated `c0` — and the digits, unless hoisted
            // — but no result: neither it nor its products or absorbed
            // adds are materialized.
            Op::Rotate(..) if absorbed[id.index()] => {
                let step = 2 * (l + alpha) + 2 * l + fed[&id] * (l + alpha);
                (0, if group.is_some() { step } else { digits + step })
            }
            _ if absorbed[id.index()] => (0, 0),
            Op::Mul(a, b) if program.is_cipher(*a) && program.is_cipher(*b) => (2 * l, ksw),
            // A group member holds its own output and its step's two
            // special-basis accumulators (then the rotated `c0` beside the
            // switched pair); the leader's coefficient-domain copy of the
            // source is gone before its output exists.
            Op::Rotate(..) if group.is_some() => (2 * l, l + 2 * alpha),
            Op::Rotate(..) => (2 * l, ksw),
            Op::Rescale(_) | Op::ModSwitch(_) => (2 * l, 4),
            // plain − cipher: the negated copy beside the plaintext.
            Op::Sub(a, _) if program.is_plain(*a) => (2 * l, 3 * l),
            // One pooled result, no key switch; a plain operand is encoded
            // on demand into `l` pooled limbs (so is the identity an upscale
            // by 2^53 or more multiplies by) and returned when the op ends.
            Op::Upscale(_, delta) if delta.to_f64() >= 53.0 => (2 * l, l),
            op if op.operands().any(|a| program.is_plain(a)) => (2 * l, l),
            _ => (2 * l, 0),
        };
        live_limbs += result_limbs;
        let op_peak = live_limbs + transient + OP_MARGIN_LIMBS;
        if op_peak > poly_peak {
            poly_peak = op_peak;
            peak_op = Some(id);
        }
        if group.is_some_and(|g| g[g.len() - 1].0 == id) {
            live_limbs -= digits;
        }
        live_limbs -= finished_at.get(&id).copied().unwrap_or(0);
        let mut prev = None;
        for a in program.op(id).operands() {
            if prev == Some(a) {
                continue; // squares consume one ciphertext twice
            }
            prev = Some(a);
            if program.is_cipher(a) && !absorbed[a.index()] && graph.free_at(a) == Some(id) {
                live_limbs -= 2 * u64::from(map.level(a));
            }
        }
    }

    // Key material: the secret key over `Q_L·P`, and every key-switching
    // key at the level of the deepest op that switches with it. The levels
    // cover all scheduled ops (not just live ones), so the bytes are exactly
    // an eager whole-program keygen's.
    let keys = key_levels(program, map);
    let galois = keys.galois.iter().map(|&(_, level)| u64::from(level));
    let galois_keys = galois.clone().filter(|&level| level > 0).count();
    let ksw_limbs: u64 = std::iter::once(u64::from(keys.relin))
        .chain(galois)
        .map(|level| ksw_key_limbs(level, big_l))
        .sum();
    let key_bytes = (big_l + alpha + ksw_limbs) * limb_bytes;
    let poly_peak_bytes = poly_peak * limb_bytes;
    MemoryEstimate {
        peak_bytes: poly_peak_bytes + key_bytes,
        poly_peak_bytes,
        key_bytes,
        galois_keys,
        peak_op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::params::CompileParams;

    /// The estimate under the graph [`DepGraph::build`] gives `s` with
    /// rotation hoisting on or off.
    fn estimate(s: &ScheduledProgram, map: &ScaleMap, n: usize, hoist: bool) -> MemoryEstimate {
        let graph = DepGraph::build(s, map, &crate::cost::CostModel::paper_table3(), hoist);
        estimate_memory(s, map, n, &graph)
    }

    fn scheduled(p: crate::program::Program) -> ScheduledProgram {
        ScheduledProgram {
            params: CompileParams::new(30),
            inputs: p
                .inputs()
                .iter()
                .map(|_| crate::schedule::InputSpec {
                    scale_bits: crate::frac::Frac::from(30u32),
                    level: 1,
                })
                .collect(),
            program: p,
        }
    }

    #[test]
    fn keys_counted_once_per_distinct_element() {
        let b = Builder::new("t", 8);
        let x = b.input("x");
        // Steps 1, 9 (≡1 mod 8), 2, and 0 → two distinct elements.
        let e = x.clone().rotate(1) + x.clone().rotate(9) + x.clone().rotate(2) + x.rotate(0);
        let p = b.finish(vec![e]);
        let s = scheduled(p);
        let map = s.validate().expect("valid");
        let est = estimate(&s, &map, 16, true);
        assert_eq!(est.galois_keys, 2);
        assert!(est.key_bytes > 0);
        assert_eq!(est.peak_bytes, est.poly_peak_bytes + est.key_bytes);
    }

    #[test]
    fn each_key_reaches_the_deepest_op_that_switches_with_it() {
        let mut p = Program::new("levels", 8);
        let x = p.push(Op::Input { name: "x".into() });
        let c = p.push(Op::Const {
            value: crate::op::ConstValue::Scalar(0.5),
        });
        let plain = p.push(Op::Rotate(c, 3));
        let top = p.push(Op::Rotate(x, 2));
        let low = p.push(Op::ModSwitch(x));
        let r9 = p.push(Op::Rotate(low, 9));
        let r1 = p.push(Op::Rotate(low, 1));
        let r0 = p.push(Op::Rotate(low, 8));
        let sq = p.push(Op::Mul(low, low));
        let mut sum = p.push(Op::Add(r9, r1));
        for v in [r0, plain] {
            sum = p.push(Op::Add(sum, v));
        }
        p.set_outputs(vec![top, sum, sq]);
        let mut s = scheduled(p);
        s.inputs[0].level = 3;
        let map = s.validate().expect("valid");
        let levels = key_levels(&s.program, &map);
        // Step 9 names the class of 1 first; 8 ≡ 0 needs no key; the
        // plain rotation by 3 is drawn and dropped.
        assert_eq!(levels.galois, vec![(3, 0), (2, 3), (9, 2)]);
        assert_eq!(levels.relin, 2);
        let est = estimate(&s, &map, 16, true);
        assert_eq!(est.galois_keys, 2);
        let (big_l, limb) = (3, 16 * 8);
        let want = (big_l + 1) + ksw_key_limbs(2, big_l) * 2 + ksw_key_limbs(3, big_l);
        assert_eq!(est.key_bytes, want * limb);
    }

    #[test]
    fn peak_grows_with_live_width_and_shrinks_with_freeing() {
        // A chain (each value dies immediately) must peak lower than a
        // fan-out that keeps every intermediate alive for a final sum.
        let chain = {
            let b = Builder::new("chain", 8);
            let mut x = b.input("x");
            for _ in 0..6 {
                x = x.clone() + x;
            }
            b.finish(vec![x])
        };
        let fan = {
            let b = Builder::new("fan", 8);
            let x = b.input("x");
            let parts: Vec<_> = (0..6).map(|_| x.clone() + x.clone()).collect();
            let sum = parts.into_iter().reduce(|a, c| a + c).expect("nonempty");
            b.finish(vec![sum])
        };
        let sc = scheduled(chain);
        let sf = scheduled(fan);
        let mc = sc.validate().expect("valid");
        let mf = sf.validate().expect("valid");
        let pc = estimate(&sc, &mc, 16, true).poly_peak_bytes;
        let pf = estimate(&sf, &mf, 16, true).poly_peak_bytes;
        assert!(
            pf > pc,
            "fan-out peak {pf} must exceed freeing chain peak {pc}"
        );
    }

    #[test]
    fn a_hoisted_groups_digits_stay_live_from_its_leader_to_its_last_member() {
        // Two rotations of `x` with a fan-out on `y` between them: the peak
        // is in the fan-out, where hoisting holds the group's `l·(l+1)`
        // digit limbs (α = 1 at L = 3) and per-rotation decomposition holds
        // nothing.
        let (level, n) = (3u64, 16u64);
        let b = Builder::new("rots", 8);
        let (x, y) = (b.input("x"), b.input("y"));
        let first = x.clone().rotate(1);
        let parts: Vec<_> = (0..6).map(|_| y.clone() + y.clone()).collect();
        let sum = parts.into_iter().reduce(|a, c| a + c).expect("nonempty");
        let e = first + x.rotate(2) + sum;
        let mut s = scheduled(b.finish(vec![e]));
        for spec in &mut s.inputs {
            spec.level = level as u32;
        }
        let map = s.validate().expect("valid");
        let hoisted = estimate(&s, &map, n as usize, true);
        let compact = estimate(&s, &map, n as usize, false);
        assert_eq!(hoisted.peak_op, compact.peak_op, "both peak in the fan-out");
        assert!(
            !matches!(
                s.program.op(hoisted.peak_op.expect("a peak")),
                Op::Rotate(..)
            ),
            "the peak is between the group's members"
        );
        assert_eq!(
            hoisted.poly_peak_bytes - compact.poly_peak_bytes,
            level * (level + 1) * n * 8,
            "the digits, and nothing else, separate the two settings"
        );
        // Key bytes are policy-independent.
        assert_eq!(hoisted.key_bytes, compact.key_bytes);
    }

    /// A two-layer MLP at `L = 3` (`α = 1`): each layer is
    /// `Σ_d rotate(v, d)·c_d + v·c_0` over `width` rotations summed by a
    /// balanced add tree, then a rescale — two linear-combination groups.
    fn two_layer_mlp(width: i64) -> ScheduledProgram {
        let mut p = Program::new("mlp", 32);
        let mut v = p.push(Op::Input { name: "x".into() });
        for layer in 0..2 {
            let mut terms = Vec::new();
            for d in 0..=width {
                let c = p.push(Op::Const {
                    value: crate::op::ConstValue::Scalar(0.1 * d as f64),
                });
                let rotated = if d == 0 { v } else { p.push(Op::Rotate(v, d)) };
                terms.push(p.push(Op::Mul(rotated, c)));
            }
            while terms.len() > 1 {
                let pairs: Vec<_> = terms.chunks(2).map(<[ValueId]>::to_vec).collect();
                terms = (pairs.into_iter())
                    .map(|pair| match pair[..] {
                        [a, b] => p.push(Op::Add(a, b)),
                        _ => pair[0],
                    })
                    .collect();
            }
            v = terms[0];
            if layer == 0 {
                v = p.push(Op::Rescale(v));
            }
        }
        p.set_outputs(vec![v]);
        let mut s = scheduled(p);
        s.inputs[0] = crate::schedule::InputSpec {
            scale_bits: crate::frac::Frac::from(60u32),
            level: 3,
        };
        s
    }

    #[test]
    fn a_linear_combination_holds_one_partial_sum_and_no_products() {
        let n = 16usize;
        let peak = |width| {
            let s = two_layer_mlp(width);
            let live = crate::analysis::live(&s.program);
            assert_eq!(crate::analysis::linear_groups(&s.program, &live).len(), 2);
            let map = s.validate().expect("valid");
            estimate(&s, &map, n, true)
        };
        let (narrow, wide) = (peak(3), peak(12));
        // The peak is at the first layer's leader: the input and the
        // unrotated product scheduled before it (2l each), the hoisted
        // digits (l·(l+1)), the partial sum (2(l+1) + 2l) and one member's
        // step (2(l+1) + 2l plus one plaintext over `Q_l·P`), at l = 3,
        // plus the per-op slack. Nothing grows with the width: the
        // rotations, their products and the adds between them are never
        // materialized.
        let (l, alpha) = (3, 1);
        let step = 2 * (l + alpha) + 2 * l + (l + alpha);
        let partial = 2 * (l + alpha) + 2 * l;
        let limbs = 4 * l + l * (l + alpha) + partial + step + OP_MARGIN_LIMBS;
        assert_eq!(narrow.poly_peak_bytes, limbs * n as u64 * 8);
        assert_eq!(wide.poly_peak_bytes, narrow.poly_peak_bytes);
        let s = two_layer_mlp(3);
        let leader = narrow.peak_op.expect("a peak");
        assert!(matches!(s.program.op(leader), Op::Rotate(_, 1)), "{leader}");
    }
}
