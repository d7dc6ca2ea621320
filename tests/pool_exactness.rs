//! Property tests for the memory subsystem: pooled buffer reuse and lazy
//! key-cache eviction must be invisible in the outputs.
//!
//! Over a rotation-heavy fuzz op mix, the encrypted executor runs each
//! schedule under several Galois-key budgets. Evicted keys regenerate from
//! per-element RNG streams, so every budget must produce *bit-identical*
//! outputs — any divergence means the pool handed out a stale buffer or
//! the cache regenerated a different key. (The eager policies draw keys
//! from the main RNG stream and are compared against the plaintext
//! reference instead, not bitwise.)
//!
//! The workspace builds offline (no proptest): deterministic seeded loops,
//! every case reproducible from its printed seed.

use fhe_fuzz::{generate, input_data, schedule_fits_backend, GenConfig, OpMix};
use fhe_reserve::compiler as reserve;
use fhe_reserve::runtime::{execute_encrypted, ExecOptions, KeyPolicy};

#[test]
fn key_budgets_and_pool_reuse_are_bit_exact() {
    let cfg = GenConfig {
        opmix: OpMix {
            rotate: 8,
            ..OpMix::default()
        },
        max_ops: 30,
        ..GenConfig::default()
    };
    // Most generated rotate-heavy programs overflow the waterline-35
    // modulus budget or pick fractional upscale factors the backend can't
    // realise; ~8% survive `schedule_fits_backend`, so 300 seeds yields a
    // stable 20+ exercised programs.
    let mut checked = 0usize;
    for seed in 0..300u64 {
        let program = generate(seed, &cfg);
        let inputs = input_data(&program);
        let Ok(compiled) = reserve::compile(&program, &reserve::Options::new(35)) else {
            continue;
        };
        if !schedule_fits_backend(&compiled.scheduled, &inputs) {
            continue;
        }
        let opts = |keys: KeyPolicy, hoist: bool| ExecOptions {
            poly_degree: program.slots() * 2,
            seed: 0xF00D,
            threads: 1,
            keys,
            rotation_hoisting: hoist,
        };
        let unbounded = execute_encrypted(
            &compiled.scheduled,
            &inputs,
            &opts(KeyPolicy::Lazy { budget_bytes: None }, true),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        // A one-byte budget evicts after every use; a mid-size budget
        // churns; both must regenerate bit-identical keys.
        for budget in [1usize, 200_000] {
            let run = execute_encrypted(
                &compiled.scheduled,
                &inputs,
                &opts(
                    KeyPolicy::Lazy {
                        budget_bytes: Some(budget),
                    },
                    true,
                ),
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            assert_eq!(
                unbounded.outputs, run.outputs,
                "seed {seed}: key budget {budget} changed outputs"
            );
        }
        // Re-running identical options must be deterministic even though
        // the pool's hit/miss pattern differs between cold and warm paths
        // across ops.
        let again = execute_encrypted(
            &compiled.scheduled,
            &inputs,
            &opts(KeyPolicy::Lazy { budget_bytes: None }, true),
        )
        .unwrap();
        assert_eq!(
            unbounded.outputs, again.outputs,
            "seed {seed}: not deterministic"
        );
        // A lone rotation is a hoisted group of one — the same digits, the
        // same per-step arithmetic — so disabling hoisting changes when the
        // decompositions happen and not one output bit.
        let compact = execute_encrypted(
            &compiled.scheduled,
            &inputs,
            &opts(KeyPolicy::Lazy { budget_bytes: None }, false),
        )
        .unwrap();
        assert_eq!(
            unbounded.outputs, compact.outputs,
            "seed {seed}: disabling hoisting changed outputs"
        );
        assert!(
            unbounded.mem.peak_bytes > 0 && unbounded.mem.pool_hit_rate() >= 0.0,
            "seed {seed}: memory counters missing"
        );
        checked += 1;
    }
    assert!(
        checked >= 20,
        "only {checked} programs exercised the backend"
    );
}

#[test]
fn keys_sized_for_a_shallower_schedule_are_a_typed_error_and_leak_nothing() {
    use std::sync::Arc;

    use fhe_reserve::ckks::PolyPool;
    use fhe_reserve::ir::{
        CompileParams, Frac, InputSpec, Op, Program, ScheduleError, ScheduledProgram,
    };
    use fhe_reserve::runtime::{execute_with_keys, SessionKeys};

    // Three schedules of one chain (`x` at level 3): a rotation by 1 and a
    // square, at level 2 in `shallow`; in `deep_rotate` the rotation and in
    // `deep_mul` the square run at level 3 instead.
    let slots = 64;
    let schedule = |rotate_deep: bool, mul_deep: bool| {
        let mut p = Program::new("depth", slots);
        let x = p.push(Op::Input { name: "x".into() });
        let low = p.push(Op::ModSwitch(x));
        let r = match rotate_deep {
            true => {
                let r = p.push(Op::Rotate(x, 1));
                p.push(Op::ModSwitch(r))
            }
            false => p.push(Op::Rotate(low, 1)),
        };
        let sq = match mul_deep {
            true => {
                let sq = p.push(Op::Mul(x, x));
                p.push(Op::ModSwitch(sq))
            }
            false => p.push(Op::Mul(low, low)),
        };
        p.set_outputs(vec![r, sq]);
        ScheduledProgram {
            params: CompileParams::new(30),
            inputs: vec![InputSpec {
                scale_bits: Frac::from(30u32),
                level: 3,
            }],
            program: p,
        }
    };
    let (shallow, deep_rotate, deep_mul) = (
        schedule(false, false),
        schedule(true, false),
        schedule(false, true),
    );
    let inputs = [("x".to_string(), vec![0.5; slots])].into_iter().collect();
    let opts = |keys| ExecOptions {
        poly_degree: 2 * slots,
        seed: 0x5A11,
        threads: 1,
        keys,
        rotation_hoisting: true,
    };
    let eager = opts(KeyPolicy::EagerProgram);
    let keys = SessionKeys::for_schedule(&shallow, &eager).expect("valid");
    let pool = Arc::new(PolyPool::new(2 * slots));
    let run = |scheduled: &ScheduledProgram, keys: &SessionKeys| {
        execute_with_keys(scheduled, &inputs, &eager, keys, Some(pool.clone()), 9)
    };
    run(&shallow, &keys).expect("the keys' own schedule runs");
    let err = run(&deep_rotate, &keys).unwrap_err();
    assert!(
        matches!(err[..], [ScheduleError::MissingKey { steps: 1, .. }]),
        "{err:?}"
    );
    let err = run(&deep_mul, &keys).unwrap_err();
    assert!(
        matches!(err[..], [ScheduleError::MissingRelinKey { level: 3, .. }]),
        "{err:?}"
    );
    assert_eq!(
        pool.stats().live_bytes,
        0,
        "the failed requests took nothing"
    );
    // Each schedule runs on keys of its own; a lazy cache deepens its
    // rotation key on demand.
    for deeper in [&deep_rotate, &deep_mul] {
        let own = SessionKeys::for_schedule(deeper, &eager).expect("valid");
        run(deeper, &own).expect("its own keys reach its levels");
    }
    let lazy = opts(KeyPolicy::Lazy { budget_bytes: None });
    let lazy_keys = SessionKeys::for_schedule(&shallow, &lazy).expect("valid");
    execute_with_keys(&deep_rotate, &inputs, &lazy, &lazy_keys, None, 9).expect("deepened");
    let cache = lazy_keys.key_cache().expect("a lazy policy").stats();
    assert_eq!(cache.misses, 1, "generated once, at the rotation's level");
}
