//! Static memory estimation of scheduled programs.
//!
//! Mirrors the runtime's allocation discipline — pooled temporaries per
//! op, last-use freeing of dead ciphertexts, hoisted rotation groups —
//! and produces a peak-bytes bound that must dominate every measured
//! `MemStats::peak_bytes` (the fuzz oracle asserts this). All polynomial
//! figures are counted in *limbs* (one limb = `N × 8` bytes) and
//! converted at the end; key material and key-switch digits are counted
//! from the closed forms of hybrid key switching ([`ksw_key_limbs`],
//! [`decomposition_limbs`]), which mirror `fhe-ckks`'s.

use crate::op::{Op, ValueId};
use crate::schedule::{ScaleMap, ScheduledProgram};

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

/// Limb polynomials of one key-switching key: a pair per digit over the full
/// basis `Q_L·P`, `2·⌈L/α⌉·(L+α)` — `fhe_ckks::ksw_key_limbs`.
pub fn ksw_key_limbs(max_level: u64) -> u64 {
    2 * decomposition_limbs(max_level, max_level)
}

/// Static per-program memory bound (see [`estimate_memory`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryEstimate {
    /// Total peak bytes: polynomial peak plus key material.
    pub peak_bytes: u64,
    /// Peak bytes held in ciphertext polynomials and pooled temporaries.
    pub poly_peak_bytes: u64,
    /// Bytes of key material: secret key, relinearization key, and one
    /// key-switching key per distinct Galois element the program rotates by.
    pub key_bytes: u64,
    /// Distinct Galois elements needing keys (rotations with
    /// `steps % slots != 0`, deduplicated).
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
/// backend's `N` (the runtime requires `N = 2 × slots`); `hoist_rotations`
/// must match the execution-side setting, since a hoisted rotation group
/// keeps its shared digit decomposition live from its first member to its
/// last.
pub fn estimate_memory(
    scheduled: &ScheduledProgram,
    map: &ScaleMap,
    poly_degree: usize,
    hoist_rotations: bool,
) -> MemoryEstimate {
    let program = &scheduled.program;
    let live = crate::analysis::live(program);
    let limb_bytes = (poly_degree * 8) as u64;
    let big_l = u64::from(map.max_level());
    let alpha = special_primes(big_l);

    let free_at = crate::analysis::free_points(program, &live);
    let groups = crate::analysis::rotation_groups(program, &live, hoist_rotations);

    // The executor encrypts every live input before the first op, wherever
    // the schedule declares it.
    let mut live_limbs: u64 = program
        .inputs()
        .iter()
        .filter(|id| live[id.index()])
        .map(|&id| 2 * u64::from(map.level(id)))
        .sum();
    let mut poly_peak: u64 = 0;
    let mut peak_op = None;
    for id in program.ids() {
        if !live[id.index()] || !program.is_cipher(id) {
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
        let group = match program.op(id) {
            Op::Rotate(a, _) => groups.get(a),
            _ => None,
        };
        if group.is_some_and(|g| g[0].0 == id) {
            live_limbs += digits;
        }
        let (result_limbs, transient) = match program.op(id) {
            Op::Input { .. } => (0, 0),
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
        let mut prev = None;
        for a in program.op(id).operands() {
            if prev == Some(a) {
                continue; // squares consume one ciphertext twice
            }
            prev = Some(a);
            if program.is_cipher(a) && free_at[a.index()] == Some(id) {
                live_limbs -= 2 * u64::from(map.level(a));
            }
        }
    }

    // Key material: rotations by a multiple of the slot count are the
    // identity automorphism and need no key; everything else needs one
    // key-switching key per distinct Galois element. The count covers all
    // scheduled rotations (not just live ones) so it also bounds an eager
    // whole-program keygen.
    let slots = program.slots() as i64;
    let mut elements: Vec<i64> = program
        .ops()
        .iter()
        .filter_map(|op| match op {
            Op::Rotate(_, k) if k.rem_euclid(slots) != 0 => Some(k.rem_euclid(slots)),
            _ => None,
        })
        .collect();
    elements.sort_unstable();
    elements.dedup();
    let galois_keys = elements.len();

    let sk_bytes = (big_l + alpha) * limb_bytes;
    let one_key = ksw_key_limbs(big_l) * limb_bytes;
    let key_bytes = sk_bytes + one_key + galois_keys as u64 * one_key;
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
        let est = estimate_memory(&s, &map, 16, true);
        assert_eq!(est.galois_keys, 2);
        assert!(est.key_bytes > 0);
        assert_eq!(est.peak_bytes, est.poly_peak_bytes + est.key_bytes);
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
        let pc = estimate_memory(&sc, &mc, 16, true).poly_peak_bytes;
        let pf = estimate_memory(&sf, &mf, 16, true).poly_peak_bytes;
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
        let hoisted = estimate_memory(&s, &map, n as usize, true);
        let compact = estimate_memory(&s, &map, n as usize, false);
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
}
