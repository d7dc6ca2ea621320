//! Bit-exactness property suite for the encrypted executor: at every
//! worker count, with fusion on, it must reproduce the decrypted outputs
//! of its own plain walk — one runner on the calling thread retiring ops
//! in schedule order, one kernel call per op, so no concurrency to race —
//! *byte for byte*, not merely within noise tolerance. Rotation hoisting
//! is byte-transparent too (a lone rotation is a hoisted group of one, and
//! a linear-combination group accumulates over `Q_l·P` under both
//! settings), so one plain walk is the reference for both of its settings.
//!
//! This is the executable form of the executor's determinism argument:
//! input encryption consumes the seeded RNG in schedule order before the
//! walk starts, lazily generated Galois keys come
//! from per-element RNG streams (generation order cannot matter), and
//! every homomorphic op — including the fused mul·relin·rescale kernel —
//! is a deterministic function of its operand bytes. Any nondeterminism a
//! racing runner could introduce (a stale pooled buffer, an unordered
//! free, a hoist-group member running before its leader) shows up here as
//! a bitwise divergence.
//!
//! The workspace builds offline (no proptest): deterministic seeded
//! loops, every case reproducible from its printed seed or workload name.

use fhe_fuzz::{generate, input_data, schedule_fits_backend, GenConfig, OpMix};
use fhe_reserve::prelude::*;
use fhe_reserve::runtime::{execute_parallel, ExecOptions, ParOptions};
use fhe_reserve::workloads;

/// The widths the suite sweeps: one runner, small, odd, and wider than
/// the golden programs' max DAG width.
const WIDTHS: [usize; 4] = [1, 2, 3, 8];

fn bits(outputs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    outputs
        .iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn backend(slots: usize, seed: u64, rotation_hoisting: bool) -> ExecOptions {
    ExecOptions {
        poly_degree: slots * 2,
        seed,
        threads: 1,
        rotation_hoisting,
        ..ExecOptions::default()
    }
}

/// The reference every case compares against, whatever its own hoisting
/// setting.
fn plain_walk(slots: usize, seed: u64) -> ParOptions {
    ParOptions::plain_walk(backend(slots, seed, true))
}

/// Compiles a workload with the smallest output reserve whose schedule
/// fits the backend's modulus budget (Table 1's `m·x_max < Q`), mirroring
/// the fuzz oracle's magnitude handling.
fn compile_fitting(w: &workloads::Workload) -> Option<fhe_reserve::ir::ScheduledProgram> {
    for waterline_bits in [30u32, 35, 40] {
        for reserve_bits in [2u32, 4, 6, 8] {
            let mut params = CompileParams::new(waterline_bits);
            params.output_reserve_bits = reserve_bits;
            let Ok(compiled) = ReserveCompiler::full().compile(&w.program, &params) else {
                continue;
            };
            if schedule_fits_backend(&compiled.scheduled, &w.inputs) {
                return Some(compiled.scheduled);
            }
        }
    }
    None
}

#[test]
fn golden_workloads_are_bit_exact_at_every_width() {
    let mut checked = 0usize;
    for w in suite(Size::Test) {
        let Some(scheduled) = compile_fitting(&w) else {
            panic!("{}: no output reserve makes the schedule fit", w.name);
        };
        let (slots, seed) = (w.program.slots(), 0xB17_EAC7 ^ checked as u64);
        let plain = execute_parallel(&scheduled, &w.inputs, &plain_walk(slots, seed))
            .unwrap_or_else(|e| panic!("{} plain walk: {e:?}", w.name));
        let reference = plain::execute(&scheduled.program, &w.inputs);
        outputs_close(&plain.outputs, &reference, 5e-2)
            .unwrap_or_else(|e| panic!("{} plain walk vs reference: {e}", w.name));
        let want = bits(&plain.outputs);
        // The MLP's mat-vecs are linear-combination groups, accumulated
        // whatever the hoisting setting: the byte checks below cover them.
        if w.name == "MLP" {
            assert!(plain.linear_groups >= 1, "the MLP accumulates its mat-vecs");
        }
        for (workers, hoisting) in WIDTHS.into_iter().flat_map(|k| [(k, true), (k, false)]) {
            let options = ParOptions {
                exec: backend(slots, seed, hoisting),
                workers,
                fusion: true,
            };
            let wide = execute_parallel(&scheduled, &w.inputs, &options)
                .unwrap_or_else(|e| panic!("{} x{workers}: {e:?}", w.name));
            assert_eq!(
                bits(&wide.outputs),
                want,
                "{} diverges bitwise from the plain walk at {workers} workers \
                 (hoisting {hoisting})",
                w.name
            );
            assert_eq!(
                wide.ops_executed, plain.ops_executed,
                "{} op count at {workers} workers",
                w.name
            );
            assert_eq!(
                wide.linear_groups, plain.linear_groups,
                "{} linear-combination groups at {workers} workers (hoisting {hoisting})",
                w.name
            );
        }
        checked += 1;
    }
    assert_eq!(checked, 8, "all eight golden workloads must be exercised");
}

#[test]
fn rotate_heavy_fuzz_mix_is_bit_exact() {
    // Rotation-heavy programs exercise the hoist groups (shared
    // decompositions distributed across runners) and the lazy key cache
    // under concurrent lookups — the two paths where a parallel-order bug
    // would corrupt bytes silently.
    let cfg = GenConfig {
        opmix: OpMix {
            rotate: 8,
            ..OpMix::default()
        },
        max_ops: 30,
        ..GenConfig::default()
    };
    let mut checked = 0usize;
    for seed in 0..300u64 {
        if checked >= 12 {
            break;
        }
        let program = generate(seed, &cfg);
        let inputs = input_data(&program);
        let Ok(compiled) = ReserveCompiler::full().compile(&program, &CompileParams::new(35))
        else {
            continue;
        };
        if !schedule_fits_backend(&compiled.scheduled, &inputs) {
            continue;
        }
        let (slots, enc) = (program.slots(), 0xF0_0D ^ seed);
        // One reference — the hoisted plain walk — for fusion off and on
        // with hoisted groups spread across runners, and for every
        // rotation on its own decomposition, serial and wide.
        let plain = plain_walk(slots, enc);
        let plain = execute_parallel(&compiled.scheduled, &inputs, &plain)
            .unwrap_or_else(|e| panic!("seed {seed} plain walk: {e:?}"));
        for (hoisting, workers, fusion) in [
            (true, 3, false),
            (true, 8, true),
            (false, 1, false),
            (false, 2, true),
        ] {
            let options = ParOptions {
                exec: backend(slots, enc, hoisting),
                workers,
                fusion,
            };
            let run = execute_parallel(&compiled.scheduled, &inputs, &options)
                .unwrap_or_else(|e| panic!("seed {seed} x{workers}: {e:?}"));
            assert_eq!(
                bits(&run.outputs),
                bits(&plain.outputs),
                "seed {seed} diverges bitwise at {workers} workers \
                 (fusion {fusion}, hoisting {hoisting})"
            );
        }
        checked += 1;
    }
    assert!(checked >= 8, "only {checked} rotate-heavy programs fit");
}

#[test]
fn late_and_dead_inputs_are_bit_exact_and_within_the_static_memory_bound() {
    use fhe_reserve::ir::{estimate_memory, CostModel, DepGraph, InputSpec, Op};

    // The executor encrypts every live input before the first op, so the
    // static memory model must charge `y` from the start although it is
    // declared after the cipher ops on `x`: the peak is at the widest point
    // of the fan-out, where `y`'s two level-12 polynomials outweigh the
    // model's per-op slack. `unused` is never read: its spec is skipped and
    // its binding never encrypted. Compilers drop dead inputs, so the
    // schedule is written by hand.
    let (slots, level) = (64, 12);
    let mut p = Program::new("late-input", slots);
    let x = p.push(Op::Input { name: "x".into() });
    let mut acc = p.push(Op::Add(x, x));
    let fan: Vec<_> = (0..6).map(|_| p.push(Op::Add(acc, x))).collect();
    for part in fan {
        acc = p.push(Op::Add(acc, part));
    }
    let y = p.push(Op::Input { name: "y".into() });
    p.push(Op::Input {
        name: "unused".into(),
    });
    let out = p.push(Op::Add(acc, y));
    p.set_outputs(vec![out]);
    let scheduled = ScheduledProgram {
        params: CompileParams::new(30),
        inputs: vec![
            InputSpec {
                scale_bits: Frac::from(30u32),
                level,
            };
            3
        ],
        program: p,
    };
    let map = scheduled.validate().expect("a legal schedule");
    let graph = DepGraph::build(&scheduled, &map, &CostModel::paper_table3(), true);
    let bound = estimate_memory(&scheduled, &map, 2 * slots, &graph);

    let inputs = [("x", 0.5), ("y", 0.25)]
        .into_iter()
        .map(|(name, v)| (name.to_string(), vec![v; slots]))
        .collect();
    let plain = execute_parallel(&scheduled, &inputs, &plain_walk(slots, 11)).unwrap();
    let reference = plain::execute(&scheduled.program, &inputs);
    outputs_close(&plain.outputs, &reference, 1e-2).unwrap();
    assert_eq!(plain.ops_executed, 2 + 14, "two encryptions, 14 cipher ops");
    for workers in [1usize, 2, 8] {
        let options = ParOptions {
            exec: backend(slots, 11, true),
            workers,
            fusion: true,
        };
        let wide = execute_parallel(&scheduled, &inputs, &options).unwrap();
        assert_eq!(
            bits(&wide.outputs),
            bits(&plain.outputs),
            "{workers} workers"
        );
    }
    // The bound is a statement about the schedule-order walk, with the
    // hoisting setting it was computed for: the plain walk above.
    assert!(
        plain.mem.peak_bytes <= bound.peak_bytes,
        "measured peak {} beats the static bound {}",
        plain.mem.peak_bytes,
        bound.peak_bytes
    );
}

#[test]
fn level_sized_eager_keys_are_byte_identical_to_full_depth_keys() {
    use fhe_reserve::ir::KeyLevels;
    type Inputs = std::collections::HashMap<String, Vec<f64>>;
    use fhe_reserve::runtime::{
        execute_parallel_with_keys, rotation_steps, KeyPolicy, SessionKeys,
    };

    // `EagerProgram` keys reach only the deepest level each is used at;
    // an explicit set of the same steps is full depth, and so is the
    // relinearization key generated beside it here. Both keygens draw the
    // same stream, so every ciphertext of every run is the same bytes.
    let mut smaller = 0usize;
    let mut check = |what: &str, scheduled: &ScheduledProgram, inputs: &Inputs| {
        let map = scheduled.validate().expect("a compiled schedule");
        let exec = |keys| ExecOptions {
            keys,
            ..backend(scheduled.program.slots(), 0x1E7E1, true)
        };
        let sized_opts = exec(KeyPolicy::EagerProgram);
        let sized = SessionKeys::for_schedule(scheduled, &sized_opts).expect("valid");
        let full_opts = exec(KeyPolicy::EagerSet(rotation_steps(&scheduled.program)));
        let top = KeyLevels {
            galois: Vec::new(),
            relin: map.max_level(),
        };
        let rescale_bits = scheduled.params.rescale_bits;
        let full = SessionKeys::generate(&full_opts, top.relin as usize, rescale_bits, &top);
        assert!(sized.key_bytes() <= full.key_bytes(), "{what}");
        smaller += usize::from(sized.key_bytes() < full.key_bytes());
        for workers in [1usize, 2] {
            let run = |exec: &ExecOptions, keys| {
                let options = ParOptions {
                    exec: exec.clone(),
                    workers,
                    fusion: true,
                };
                execute_parallel_with_keys(scheduled, inputs, &options, keys, None, 0xE4C)
                    .unwrap_or_else(|e| panic!("{what} x{workers}: {e:?}"))
            };
            assert_eq!(
                bits(&run(&sized_opts, &sized).outputs),
                bits(&run(&full_opts, &full).outputs),
                "{what}: level-sized keys change bytes at {workers} workers"
            );
        }
    };
    for w in suite(Size::Test) {
        let scheduled = compile_fitting(&w).expect("fits");
        check(w.name, &scheduled, &w.inputs);
    }
    let cfg = GenConfig {
        opmix: OpMix {
            rotate: 8,
            ..OpMix::default()
        },
        max_ops: 30,
        ..GenConfig::default()
    };
    let mut fuzzed = 0usize;
    for seed in 0..300u64 {
        if fuzzed >= 12 {
            break;
        }
        let program = generate(seed, &cfg);
        let inputs = input_data(&program);
        let Ok(compiled) = ReserveCompiler::full().compile(&program, &CompileParams::new(35))
        else {
            continue;
        };
        if schedule_fits_backend(&compiled.scheduled, &inputs) {
            check(&format!("fuzz seed {seed}"), &compiled.scheduled, &inputs);
            fuzzed += 1;
        }
    }
    assert!(fuzzed >= 8, "only {fuzzed} rotate-heavy programs fit");
    assert!(smaller > 0, "no schedule ran below its chain's top level");
}
