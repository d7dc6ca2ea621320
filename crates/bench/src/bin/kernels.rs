//! Kernel microbenchmark: the Harvey/Barrett hot paths against the exact
//! `u128 %` reference kernels they replaced (DESIGN.md § Kernel
//! optimization).
//!
//! Five groups, each reported as latency plus speedup over its baseline:
//!
//! - **modmul** — pointwise modular multiplication over a buffer: Barrett
//!   (`Modulus::mul`, three word multiplications), the two-word Barrett
//!   reduction of the full product (`Modulus::reduce_u128`, what `mul` ran
//!   before) and Shoup (`Modulus::mul_shoup`, constant operand) vs the
//!   `u128 %` reference.
//! - **ntt** — forward/inverse negacyclic NTT at `N = 2^12` and `2^13`
//!   over a 60-bit prime: Harvey lazy butterflies vs the exact-reduction
//!   reference transforms.
//! - **expand** — one limb of a key's or mask's uniform half expanded from
//!   its seed and reduced ([`fhe_ckks::uniform`]) at `N = 2^13` over a
//!   60-bit prime, against the forward NTT of one limb. Keygen and
//!   encryption expand a limb per digit and limb, and a key switch the same
//!   stream unreduced, so the run **fails** if `expand / NTT` exceeds
//!   [`EXPAND_NTT_RATIO_MAX`].
//! - **codec** — the float↔RNS boundary at `N = 2^13`, `L = 5`: float→RNS
//!   conversion, `encode`, `decode`, against the forward NTT of the same
//!   six limbs as the yardstick. An encode is one FFT, one conversion and
//!   `L` NTTs, so it must cost a small multiple of the yardstick; the run
//!   **fails** if `encode / yardstick` exceeds [`ENCODE_NTT_RATIO_MAX`] (a
//!   ratio within one run, so it holds on any host).
//! - **keyswitch** — the key-switched ops at `N = 2^13`, `L = 5` (α = 2):
//!   a lone rotate, a 4-step hoisted rotate and a cipher×cipher mul, plus a
//!   lone rotate at `L = 9` (α = 3, the deep benchmark's shape), against the
//!   same yardstick. Three ratios within the run are gated: a hoisted group
//!   must beat its rotations done one by one
//!   ([`HOISTED4_ROTATE_RATIO_MAX`]), a rotate must not cost more than a
//!   mul ([`ROTATE_MUL_RATIO_MAX`] — Table 3's order), and the `L = 9`
//!   rotate must cost what three grouped digits cost
//!   ([`ROTATE_L9_NTT_RATIO_MAX`]). Its last row is a linear combination
//!   of 15 rotations of one ciphertext times plaintexts (an MLP mat-vec's
//!   group), accumulated over `Q_l·P` with one division by `P`, against
//!   today's hoisted rotations, `mul_plain`s and adds; the run **fails** if
//!   it is not cheaper by [`LINEAR15_RATIO_MAX`].
//!
//! Kernels within a group are sampled round-robin (ref, fast, ref, fast,
//! …) and scored by their per-kernel minimum, so background-load drift
//! during the run biases every variant equally instead of whichever one
//! happened to run during the spike.
//!
//! `--fast` shrinks repetitions for CI smoke runs; `--json <path>` writes
//! the measured numbers (committed as `BENCH_kernels.json` at the repo
//! root for drift tracking).

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use fhe_bench::{gate, print_table, CliArgs};
use fhe_ckks::modular::Modulus;
use fhe_ckks::ntt::NttTable;
use fhe_ckks::poly::RnsPoly;
use fhe_ckks::uniform::UniformStream;
use fhe_ckks::{
    encrypt_symmetric, CkksContext, CkksParams, Encoder, Evaluator, KeyGenerator, PlainFactor,
};
use fhe_ir::json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Times every kernel in lockstep: one warmup call each, then `reps`
/// rounds visiting the kernels in order, keeping each kernel's minimum
/// (interference only ever adds time, so the minimum is the estimate of
/// the undisturbed cost).
fn time_rotation_us(reps: usize, kernels: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    for k in kernels.iter_mut() {
        k();
    }
    let mut best = vec![f64::INFINITY; kernels.len()];
    for _ in 0..reps.max(1) {
        for (k, b) in kernels.iter_mut().zip(best.iter_mut()) {
            let t0 = Instant::now();
            k();
            *b = b.min(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    best
}

/// Ceiling on `encode / (forward NTT × 6 limbs)`. The arithmetic puts
/// the ratio near 3; 78 was measured when the conversion ran a modular
/// inversion per coefficient per limb.
const ENCODE_NTT_RATIO_MAX: f64 = 6.0;

/// Ceiling on `expand / forward NTT`, one limb each at `N = 2^13`. The
/// eight-lane sampler with its one-word Barrett reduction measures
/// 0.14–0.20 (the key switch skips the reduction and pays less); one
/// `gen_range` draw per coefficient, a division each, measured about 0.5.
const EXPAND_NTT_RATIO_MAX: f64 = 0.35;

/// Ceiling on `hoisted4 / (4 × rotate)`. A group pays the decomposition
/// (`⌈l/α⌉·(l+α)` NTTs) once and `2(l+α)` NTTs plus the inner product per
/// step; a lone rotation pays both. At `l = 5`, `α = 2` that is 21 once and
/// 14 per step against 35 alone, an NTT ratio of 77/140 = 0.55. With
/// single-prime digits it was 30 and 12 against 42, 78/168 = 0.46: the ratio
/// rises because the shared half got cheaper. Measured 0.64–0.65 (0.59–0.60
/// with single-prime digits on the same host); 0.92 was measured when every
/// step redid the digits' forward NTTs.
const HOISTED4_ROTATE_RATIO_MAX: f64 = 0.75;

/// Ceiling on `rotate / mul`: Table 3 has a rotate at 0.85–0.88× a
/// cipher×cipher mul at every level; 1.16 was measured when automorphisms
/// round-tripped through the coefficient domain.
const ROTATE_MUL_RATIO_MAX: f64 = 1.05;

/// Ceiling on `rotate(L = 9) / (forward NTT × 6 limbs)`. Three grouped
/// digits over `α = 3` special primes cost 60 NTTs (10 yardsticks) and 36
/// limb MACs per output polynomial; the run measures 17–19. Single-prime
/// digits cost 110 NTTs and 90 MACs and measured 29–30 on the same host.
const ROTATE_L9_NTT_RATIO_MAX: f64 = 24.0;

/// Ceiling on `accumulated / (hoisted rotations + mul_plain + add)` for a
/// linear combination of 15 rotations at `N = 2^13`, `l = 5`, `α = 2`,
/// plaintexts encoded on demand in both. Accumulating over `Q_l·P` skips
/// each member's ModDown, `2(α + l)` = 14 NTTs, and pays `α` = 2 more per
/// encode. Measured 0.72 (0.72–0.77 with `--fast`).
const LINEAR15_RATIO_MAX: f64 = 0.85;

struct Row {
    group: &'static str,
    name: String,
    us: f64,
    baseline_us: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.baseline_us / self.us
    }
}

fn main() -> ExitCode {
    let args = CliArgs::parse();
    let reps = if args.fast { 5 } else { 25 };
    let mut rows: Vec<Row> = Vec::new();
    let mut rng = StdRng::seed_from_u64(0xC0DE);

    // --- modmul: 2^16 pointwise products over a 60-bit prime. ---
    let q = fhe_ckks::primes::ntt_primes(60, 1 << 13, 1)[0];
    let m = Modulus::new(q);
    let len = 1usize << 16;
    let xs: Vec<u64> = (0..len).map(|_| rng.gen::<u64>() % q).collect();
    let ys: Vec<u64> = (0..len).map(|_| rng.gen::<u64>() % q).collect();
    let w = ys[0];
    let w_shoup = m.shoup(w);
    let sink: u64;
    let [reference_us, barrett_us, two_word_us, shoup_us] = {
        let mut sink_ref = 0u64;
        let mut sink_bar = 0u64;
        let mut sink_two = 0u64;
        let mut sink_shp = 0u64;
        let best = time_rotation_us(
            reps,
            &mut [
                &mut || {
                    for (&a, &b) in xs.iter().zip(&ys) {
                        sink_ref = sink_ref.wrapping_add(m.mul_reference(a, b));
                    }
                },
                &mut || {
                    for (&a, &b) in xs.iter().zip(&ys) {
                        sink_bar = sink_bar.wrapping_add(m.mul(a, b));
                    }
                },
                &mut || {
                    for (&a, &b) in xs.iter().zip(&ys) {
                        sink_two = sink_two.wrapping_add(m.reduce_u128(a as u128 * b as u128));
                    }
                },
                &mut || {
                    for &a in &xs {
                        sink_shp = sink_shp.wrapping_add(m.mul_shoup(a, w, w_shoup));
                    }
                },
            ],
        );
        sink = sink_ref ^ sink_bar ^ sink_two ^ sink_shp;
        [best[0], best[1], best[2], best[3]]
    };
    rows.push(Row {
        group: "modmul",
        name: format!("u128 % reference ({len} muls)"),
        us: reference_us,
        baseline_us: reference_us,
    });
    rows.push(Row {
        group: "modmul",
        name: "barrett".into(),
        us: barrett_us,
        baseline_us: reference_us,
    });
    rows.push(Row {
        group: "modmul",
        name: "two-word barrett (reduce_u128)".into(),
        us: two_word_us,
        baseline_us: reference_us,
    });
    rows.push(Row {
        group: "modmul",
        name: "shoup (constant operand)".into(),
        us: shoup_us,
        baseline_us: reference_us,
    });

    // --- ntt: forward/inverse at 2^12 and 2^13, 60-bit prime. ---
    for log_n in [12u32, 13] {
        let n = 1usize << log_n;
        let q = fhe_ckks::primes::ntt_primes(60, n, 1)[0];
        let m = Modulus::new(q);
        let table = NttTable::new(m, n);
        let data: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q).collect();
        let mut fwd_ref = data.clone();
        let mut fwd_fast = data.clone();
        let mut inv_ref = data.clone();
        let mut inv_fast = data.clone();
        let best = time_rotation_us(
            reps,
            &mut [
                &mut || table.forward_reference(&mut fwd_ref),
                &mut || table.forward(&mut fwd_fast),
                &mut || table.inverse_reference(&mut inv_ref),
                &mut || table.inverse(&mut inv_fast),
            ],
        );
        let (ref_fwd, harvey_fwd, ref_inv, harvey_inv) = (best[0], best[1], best[2], best[3]);
        rows.push(Row {
            group: "ntt",
            name: format!("forward 2^{log_n} reference"),
            us: ref_fwd,
            baseline_us: ref_fwd,
        });
        rows.push(Row {
            group: "ntt",
            name: format!("forward 2^{log_n} harvey"),
            us: harvey_fwd,
            baseline_us: ref_fwd,
        });
        rows.push(Row {
            group: "ntt",
            name: format!("inverse 2^{log_n} reference"),
            us: ref_inv,
            baseline_us: ref_inv,
        });
        rows.push(Row {
            group: "ntt",
            name: format!("inverse 2^{log_n} harvey"),
            us: harvey_inv,
            baseline_us: ref_inv,
        });
    }

    // --- expand: one seeded limb against one forward NTT, at 2^13. ---
    let n = 1usize << 13;
    let q = Modulus::new(fhe_ckks::primes::ntt_primes(60, n, 1)[0]);
    let table = NttTable::new(q, n);
    let mut ntt_limb: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q.value()).collect();
    let mut expanded = vec![0u64; n];
    let mut seed = 0u64;
    let best = time_rotation_us(
        reps,
        &mut [&mut || table.forward(&mut ntt_limb), &mut || {
            seed += 1;
            UniformStream::new(seed, 0).fill(q, &mut expanded);
            black_box(&expanded);
        }],
    );
    let expand_ntt_ratio = best[1] / best[0];
    for (name, us) in ["forward NTT 2^13 x 1 limb", "expand a 2^13 x 1 limb"]
        .into_iter()
        .zip(best.iter().copied())
    {
        rows.push(Row {
            group: "expand",
            name: name.into(),
            us,
            baseline_us: best[0],
        });
    }

    // --- codec: float↔RNS at N = 2^13, L = 5, against the NTT yardstick. ---
    let codec_ctx = CkksContext::new(CkksParams {
        poly_degree: 1 << 13,
        max_level: 5,
        modulus_bits: 60,
        special_bits: 61,
        error_std: 3.2,
        threads: 1,
    });
    let encoder = Encoder::new(&codec_ctx);
    let scale = 2f64.powi(40);
    let values: Vec<f64> = (0..codec_ctx.slots())
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let coeffs: Vec<f64> = (0..codec_ctx.degree())
        .map(|_| (rng.gen_range(-1.0..1.0) * scale).round())
        .collect();
    let pt_l1 = encoder.encode(&values, scale, 1);
    let pt_l5 = encoder.encode(&values, scale, 5);
    let mut ntt_limbs = RnsPoly::uniform(&codec_ctx, 5, true, &mut rng);
    let best = time_rotation_us(
        reps,
        &mut [
            // A forward NTT transforms whatever residues it is handed, so
            // the same six limbs (five chain primes and the first special
            // prime) serve every round.
            &mut || {
                for i in 0..6 {
                    codec_ctx.table(i).forward(ntt_limbs.limb_mut(i));
                }
            },
            &mut || {
                black_box(RnsPoly::from_real_coeffs(&codec_ctx, 5, true, &coeffs));
            },
            &mut || {
                black_box(encoder.encode(&values, scale, 5));
            },
            &mut || {
                black_box(encoder.decode(&pt_l1));
            },
            &mut || {
                black_box(encoder.decode(&pt_l5));
            },
        ],
    );
    let yardstick_us = best[0];
    let encode_ntt_ratio = best[2] / yardstick_us;
    for (name, us) in [
        "forward NTT 2^13 x 6 limbs (yardstick)",
        "float->RNS 2^13 x 7 limbs",
        "encode 2^13 L=5",
        "decode 2^13 L=1",
        "decode 2^13 L=5",
    ]
    .into_iter()
    .zip(best)
    {
        rows.push(Row {
            group: "codec",
            name: name.into(),
            us,
            baseline_us: yardstick_us,
        });
    }

    // --- keyswitch: rotate, hoisted rotate, mul at N = 2^13, L = 5. ---
    let kg = KeyGenerator::new(&codec_ctx, &mut rng);
    let hoisted_steps = [1i64, 2, 4, 8];
    let ev = Evaluator::new(
        &codec_ctx,
        Some(kg.relin_key(&mut rng)),
        kg.galois_keys(hoisted_steps, &mut rng),
    );
    let sk = kg.secret_key();
    let (ct, ct2) = (
        encrypt_symmetric(&codec_ctx, &sk, &pt_l5, &mut rng),
        encrypt_symmetric(&codec_ctx, &sk, &pt_l5, &mut rng),
    );
    // The deep benchmark's shape: a lone rotation at L = 9 (α = 3).
    let deep_ctx = CkksContext::new(CkksParams {
        max_level: 9,
        ..*codec_ctx.params()
    });
    let deep_kg = KeyGenerator::new(&deep_ctx, &mut rng);
    let deep_ev = Evaluator::new(&deep_ctx, None, deep_kg.galois_keys([1i64], &mut rng));
    let deep_ct = encrypt_symmetric(
        &deep_ctx,
        &deep_kg.secret_key(),
        &deep_ev.encoder().encode(&values, scale, 9),
        &mut rng,
    );
    // Results go back to the evaluator's pool, as the executor returns
    // them: the rows time the arithmetic, not the allocator.
    let best = time_rotation_us(
        reps,
        &mut [
            &mut || ev.recycle_ct(black_box(ev.rotate(&ct, 1))),
            &mut || {
                for out in black_box(ev.rotate_hoisted(&ct, &hoisted_steps)) {
                    ev.recycle_ct(out);
                }
            },
            &mut || ev.recycle_ct(black_box(ev.mul(&ct, &ct2))),
            &mut || deep_ev.recycle_ct(black_box(deep_ev.rotate(&deep_ct, 1))),
        ],
    );
    let (rotate_us, hoisted4_us, mul_us, rotate_l9_us) = (best[0], best[1], best[2], best[3]);
    // An MLP mat-vec's group: 15 rotations of one ciphertext, each times a
    // plaintext diagonal encoded on demand, summed — today's hoisted
    // rotations, `mul_plain`s and adds against one accumulation.
    let linear_steps: Vec<i64> = (1..=15).collect();
    let lin_ev = Evaluator::new(
        &codec_ctx,
        None,
        kg.galois_keys(linear_steps.iter().copied(), &mut rng),
    );
    let diagonals: Vec<Vec<f64>> = (0..linear_steps.len())
        .map(|_| {
            (0..codec_ctx.slots())
                .map(|_| rng.gen_range(-0.5..0.5))
                .collect()
        })
        .collect();
    let best = time_rotation_us(
        reps,
        &mut [
            &mut || {
                let rotated = lin_ev.rotate_hoisted(&ct, &linear_steps);
                let terms = rotated.into_iter().zip(&diagonals).map(|(r, w)| {
                    let term = lin_ev.mul_plain_values(&r, w, scale);
                    lin_ev.recycle_ct(r);
                    term
                });
                let sum = terms.reduce(|sum, term| {
                    let next = lin_ev.add(&sum, &term);
                    lin_ev.recycle_ct(sum);
                    lin_ev.recycle_ct(term);
                    next
                });
                lin_ev.recycle_ct(black_box(sum.expect("15 terms")));
            },
            &mut || {
                let digits = lin_ev.decompose_for_rotations(&ct);
                let mut acc = lin_ev.linear_accumulator(ct.level);
                for (&k, w) in linear_steps.iter().zip(&diagonals) {
                    let p =
                        (lin_ev.encoder()).encode_extended_in(lin_ev.pool(), w, scale, ct.level);
                    lin_ev
                        .try_accumulate_rotation(
                            &ct,
                            &digits,
                            k,
                            &mut [(&mut acc, PlainFactor::Encoded(&p))],
                        )
                        .expect("a key per step");
                    p.poly.recycle(lin_ev.pool());
                }
                lin_ev.recycle_decomposition(digits);
                lin_ev.recycle_ct(black_box(lin_ev.finish_accumulator(acc)));
            },
        ],
    );
    let (linear_today_us, linear_us) = (best[0], best[1]);
    let linear15_ratio = linear_us / linear_today_us;
    let hoisted4_rotate_ratio = hoisted4_us / (4.0 * rotate_us);
    let rotate_mul_ratio = rotate_us / mul_us;
    let rotate_l9_ntt_ratio = rotate_l9_us / yardstick_us;
    for (name, us) in [
        ("rotate 2^13 L=5", rotate_us),
        ("rotate hoisted x4 2^13 L=5", hoisted4_us),
        ("mul cipher x cipher 2^13 L=5", mul_us),
        ("rotate 2^13 L=9", rotate_l9_us),
        ("linear combination x15 2^13 L=5", linear_us),
    ] {
        rows.push(Row {
            group: "keyswitch",
            name: name.into(),
            us,
            baseline_us: yardstick_us,
        });
    }

    println!("Kernel microbenchmarks (best of {reps} interleaved rounds, us).\n");
    let headers = ["group", "kernel", "us", "speedup"];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.group.to_string(),
                r.name.clone(),
                format!("{:.1}", r.us),
                format!("{:.2}x", r.speedup()),
            ]
        })
        .collect();
    print_table(&headers, &table);

    let ntt_speedups: Vec<f64> = rows
        .iter()
        .filter(|r| r.group == "ntt" && r.name.contains("harvey"))
        .map(Row::speedup)
        .collect();
    let min_ntt = ntt_speedups.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    println!("\nminimum NTT speedup over u128 % reference: {min_ntt:.2}x");
    println!(
        "encode / (forward NTT x 6 limbs): {encode_ntt_ratio:.2} (must not exceed {ENCODE_NTT_RATIO_MAX})"
    );
    println!(
        "expand / forward NTT (1 limb): {expand_ntt_ratio:.2} (must not exceed {EXPAND_NTT_RATIO_MAX})"
    );
    println!(
        "hoisted x4 / (4 x rotate): {hoisted4_rotate_ratio:.2} (must not exceed {HOISTED4_ROTATE_RATIO_MAX})"
    );
    println!("rotate / mul: {rotate_mul_ratio:.2} (must not exceed {ROTATE_MUL_RATIO_MAX})");
    println!(
        "rotate L=9 / (forward NTT x 6 limbs): {rotate_l9_ntt_ratio:.2} (must not exceed {ROTATE_L9_NTT_RATIO_MAX})"
    );
    println!(
        "linear combination x15 / (hoisted rotate + mul_plain + add): {linear15_ratio:.2} \
         (must not exceed {LINEAR15_RATIO_MAX})"
    );
    assert!(sink != 0, "benchmark sink consumed");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    args.emit_json(&Json::obj([
        ("table", Json::from("kernels")),
        ("reps", Json::from(reps)),
        ("host_cores", Json::from(host_cores)),
        ("encode_ntt_ratio", Json::from(encode_ntt_ratio)),
        ("expand_ntt_ratio", Json::from(expand_ntt_ratio)),
        ("hoisted4_rotate_ratio", Json::from(hoisted4_rotate_ratio)),
        ("rotate_mul_ratio", Json::from(rotate_mul_ratio)),
        ("rotate_l9_ntt_ratio", Json::from(rotate_l9_ntt_ratio)),
        ("linear15_ratio", Json::from(linear15_ratio)),
        (
            "rows",
            Json::Array(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("group", Json::from(r.group)),
                            ("kernel", Json::from(r.name.as_str())),
                            ("us", Json::from(r.us)),
                            ("speedup", Json::from(r.speedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]));
    gate(&[
        (
            encode_ntt_ratio <= ENCODE_NTT_RATIO_MAX,
            format!(
                "an encode costs {encode_ntt_ratio:.1}x the forward NTT of its limbs (ceiling {ENCODE_NTT_RATIO_MAX}): \
                 the float->RNS conversion is doing more than arithmetic per coefficient"
            ),
        ),
        (
            expand_ntt_ratio <= EXPAND_NTT_RATIO_MAX,
            format!(
                "expanding a limb from its seed costs {expand_ntt_ratio:.2}x a forward NTT (ceiling {EXPAND_NTT_RATIO_MAX}): \
                 the sampler is dividing or drawing one lane at a time"
            ),
        ),
        (
            hoisted4_rotate_ratio <= HOISTED4_ROTATE_RATIO_MAX,
            format!(
                "4 hoisted rotations cost {hoisted4_rotate_ratio:.2}x four lone ones (ceiling {HOISTED4_ROTATE_RATIO_MAX}): \
                 a group is not sharing its decomposition"
            ),
        ),
        (
            rotate_mul_ratio <= ROTATE_MUL_RATIO_MAX,
            format!(
                "a rotate costs {rotate_mul_ratio:.2}x a cipher x cipher mul (ceiling {ROTATE_MUL_RATIO_MAX}): \
                 Table 3 has it below; the Galois path is doing more than a key switch"
            ),
        ),
        (
            rotate_l9_ntt_ratio <= ROTATE_L9_NTT_RATIO_MAX,
            format!(
                "a rotate at L = 9 costs {rotate_l9_ntt_ratio:.1}x the six-limb NTT yardstick (ceiling {ROTATE_L9_NTT_RATIO_MAX}): \
                 the key switch is not using three grouped digits"
            ),
        ),
        (
            linear15_ratio <= LINEAR15_RATIO_MAX,
            format!(
                "accumulating 15 rotations times plaintexts costs {linear15_ratio:.2}x rotating, \
                 multiplying and adding them (ceiling {LINEAR15_RATIO_MAX}): the members are \
                 still dividing by P one by one"
            ),
        ),
    ])
}
