//! Compile-cache correctness at the service boundary, carried all the way
//! to encrypted execution: an entry evicted under the byte budget must
//! recompile to a schedule that is not only structurally identical
//! (pinned by `structural_hash`) but **executes byte-identically** under
//! the same session keys and encryption seed — the golden-trace style
//! comparison (outputs + per-class op counts) applied across an eviction.
//! A session's own key cache is keyed finely enough too: eager keys reach
//! only the levels their text uses, so a deeper text of the same steps
//! gets a key set of its own.

use std::collections::HashMap;
use std::sync::Arc;

use fhe_ir::{text, CompileParams};
use fhe_runtime::{execute_with_keys, ExecOptions, SessionKeys};
use fhe_serve::CompileCache;
use reserve_core::ReserveCompiler;

const SLOTS: usize = 64;

fn program_text(name: &str) -> String {
    let b = fhe_ir::Builder::new(name, SLOTS);
    let x = b.input("x");
    let y = b.input("y");
    let half = b.constant(0.5);
    let q = (x.clone() * y.clone() + x.clone()).rotate(2) * (y * half + x);
    text::print(&b.finish(vec![q]))
}

fn inputs() -> HashMap<String, Vec<f64>> {
    [
        (
            "x".to_string(),
            (0..SLOTS).map(|k| ((k % 7) as f64 - 3.0) * 0.1).collect(),
        ),
        (
            "y".to_string(),
            (0..SLOTS).map(|k| ((k % 4) as f64) * 0.15).collect(),
        ),
    ]
    .into_iter()
    .collect()
}

#[test]
fn evicted_entry_recompiles_and_executes_byte_identically() {
    let compiler = ReserveCompiler::full();
    let params = CompileParams::new(30);
    let p1 = text::parse(&program_text("alpha")).unwrap();
    let p2 = text::parse(&program_text("omega")).unwrap();

    // Size the budget to hold roughly one entry.
    let probe = CompileCache::new(None);
    probe.get_or_compile(&p1, &params, &compiler).unwrap();
    let one_entry = probe.stats().bytes;
    let cache = CompileCache::new(Some(one_entry + one_entry / 2));

    let original = cache.get_or_compile(&p1, &params, &compiler).unwrap();
    cache.get_or_compile(&p2, &params, &compiler).unwrap();
    assert_eq!(cache.stats().evictions, 1, "p1 evicted under the budget");

    let recompiled = cache.get_or_compile(&p1, &params, &compiler).unwrap();
    assert!(!recompiled.hit, "eviction forces a recompile");
    assert!(
        !Arc::ptr_eq(&original.scheduled, &recompiled.scheduled),
        "genuinely a fresh compilation, not the old Arc"
    );
    assert_eq!(
        original.scheduled.structural_hash(),
        recompiled.scheduled.structural_hash(),
        "deterministic compilation: eviction cannot change the schedule"
    );
    assert_eq!(
        text::print(&original.scheduled.program),
        text::print(&recompiled.scheduled.program),
        "scheduled programs print identically"
    );

    // Golden-trace style: execute both under the same keys and seed; the
    // outputs and the per-class op counts must match exactly.
    let options = ExecOptions {
        poly_degree: SLOTS * 2,
        seed: 0xE51C,
        threads: 1,
        ..ExecOptions::default()
    };
    let keys = SessionKeys::for_schedule(&original.scheduled, &options).unwrap();
    let binds = inputs();
    let a = execute_with_keys(&original.scheduled, &binds, &options, &keys, None, 42).unwrap();
    let b = execute_with_keys(&recompiled.scheduled, &binds, &options, &keys, None, 42).unwrap();
    assert_eq!(a.outputs, b.outputs, "byte-identical encrypted outputs");
    assert_eq!(a.ops_executed, b.ops_executed);
    let counts = |r: &fhe_runtime::ExecReport| {
        r.per_class
            .iter()
            .map(|&(c, _, n)| (c, n))
            .collect::<Vec<_>>()
    };
    assert_eq!(counts(&a), counts(&b), "identical per-class op counts");
}

#[test]
fn params_and_compiler_id_are_part_of_the_key() {
    let cache = CompileCache::new(None);
    let p = text::parse(&program_text("keyed")).unwrap();
    let reserve = ReserveCompiler::full();

    let base = cache
        .get_or_compile(&p, &CompileParams::new(30), &reserve)
        .unwrap();
    assert!(!base.hit);
    assert!(
        cache
            .get_or_compile(&p, &CompileParams::new(30), &reserve)
            .unwrap()
            .hit
    );

    // Same text, different waterline: a different schedule entirely.
    let tighter = cache
        .get_or_compile(&p, &CompileParams::new(25), &reserve)
        .unwrap();
    assert!(!tighter.hit);
    assert_ne!(
        base.scheduled.structural_hash(),
        tighter.scheduled.structural_hash(),
        "waterline changes the compiled schedule, so sharing would be wrong"
    );

    // Same text and params, different compiler id.
    let eva = cache
        .get_or_compile(&p, &CompileParams::new(30), &fhe_baselines::EvaCompiler)
        .unwrap();
    assert!(!eva.hit);

    // Hecate's exploration makes its compile the expensive one to repeat.
    let hecate = fhe_baselines::HecateCompiler::with_budget(100);
    let lookup = || {
        cache
            .get_or_compile(&p, &CompileParams::new(30), &hecate)
            .unwrap()
            .hit
    };
    assert!(!lookup(), "a third compiler id misses");
    assert!(lookup(), "and its repeat hits");

    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (2, 4, 4));
    assert!(stats.hit_rate() > 0.0 && stats.hit_rate() < 1.0);
}

#[test]
fn a_text_differing_only_in_comments_and_layout_hits_the_same_entry() {
    // The server keys the cache on `text::print(text::parse(sent))`, not on
    // the sent text: comments and whitespace do not reach the key (a
    // renamed program still misses, see the eviction test above).
    let cache = CompileCache::new(None);
    let params = CompileParams::new(30);
    let compiler = ReserveCompiler::full();
    let sent = program_text("layout");
    let restyled = format!(
        "// the same program, restyled\n{}",
        sent.replace("\n  ", "\n\n      // a line comment\n    ")
    );
    assert_ne!(sent, restyled);

    let first = text::parse(&sent).unwrap();
    let second = text::parse(&restyled).unwrap();
    assert!(
        !cache
            .get_or_compile(&first, &params, &compiler)
            .unwrap()
            .hit
    );
    assert!(
        cache
            .get_or_compile(&second, &params, &compiler)
            .unwrap()
            .hit
    );
    assert_eq!(cache.stats().entries, 1);
}

#[test]
fn compilers_sharing_a_label_do_not_share_entries() {
    let cache = CompileCache::new(None);
    let p = text::parse(&program_text("labels")).unwrap();
    let params = CompileParams::new(30);
    let hit = |compiler: &dyn fhe_ir::ScaleCompiler| {
        cache.get_or_compile(&p, &params, compiler).unwrap().hit
    };

    // Both Hecates are labelled "Hecate", but the budget changes what
    // exploration finds: the default must not be served the small one's
    // schedule.
    assert!(!hit(&fhe_baselines::HecateCompiler::with_budget(100)));
    assert!(!hit(&fhe_baselines::HecateCompiler::default()));

    // Both are "This work"; the ordering ablation is a different compiler.
    assert!(!hit(&ReserveCompiler::full()));
    let naive = ReserveCompiler {
        ordering: reserve_core::OrderingStrategy::ReverseTopological,
        ..ReserveCompiler::full()
    };
    assert!(!hit(&naive));

    // The server's two ids for the full reserve compiler share its entry.
    for id in ["reserve", "this-work"] {
        let compiler = fhe_serve::compiler_for(id).expect("a known id");
        assert!(hit(compiler.as_ref()), "{id}");
    }
    assert_eq!(cache.stats().entries, 4);
}

#[test]
fn eager_key_sets_are_cached_per_depth_not_just_per_steps() {
    use fhe_ir::key_levels;
    use fhe_ir::pipeline::ScaleCompiler;
    use fhe_runtime::{outputs_close, plain, KeyPolicy, ParOptions};
    use fhe_serve::{FheServer, Request, ServerConfig};

    // Two texts over one chain with the same rotation step: `shallow`
    // rotates after both multiplies, `deep` rotates an input. Keys sized
    // for `shallow` would not reach `deep`'s rotation, so the session
    // keeps a key set per depth — `shallow` runs first to make reuse the
    // tempting mistake.
    let text = |rotate_first: bool| {
        let b = fhe_ir::Builder::new("depths", SLOTS);
        let (x, y) = (b.input("x"), b.input("y"));
        let q = if rotate_first {
            (x.clone().rotate(1) * y.clone() + x.clone()) * (y.clone() * y)
        } else {
            ((x.clone() * y.clone() + x) * (y.clone() * y)).rotate(1)
        };
        text::print(&b.finish(vec![q]))
    };
    let (shallow, deep) = (text(false), text(true));
    let params = CompileParams::new(30);
    let levels = |t: &str| {
        let program = text::parse(t).unwrap();
        let scheduled = ReserveCompiler::full()
            .compile(&program, &params)
            .unwrap()
            .scheduled;
        let map = scheduled.validate().unwrap();
        (map.max_level(), key_levels(&scheduled.program, &map))
    };
    let ((shallow_top, shallow_keys), (deep_top, deep_keys)) = (levels(&shallow), levels(&deep));
    assert_eq!(shallow_top, deep_top, "one chain");
    assert!(
        shallow_keys.galois[0].1 < deep_keys.galois[0].1,
        "{shallow_keys:?} vs {deep_keys:?}"
    );

    let server = FheServer::new(ServerConfig::default());
    let session = server.create_session(ParOptions {
        exec: ExecOptions {
            poly_degree: SLOTS * 2,
            seed: 0xDE97,
            threads: 1,
            keys: KeyPolicy::EagerProgram,
            rotation_hoisting: true,
        },
        workers: 1,
        fusion: true,
    });
    for program in [shallow, deep] {
        let reference = plain::execute(&text::parse(&program).unwrap(), &inputs());
        let response = server
            .submit(Request {
                session,
                program,
                params,
                compiler: "reserve".into(),
                inputs: inputs(),
                deadline: None,
            })
            .expect("submits")
            .wait()
            .expect("keys that reach every level");
        outputs_close(&response.outputs, &reference, 1e-2).expect("accurate");
    }
    let stats = server.stats();
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.sessions[0].key_shapes, 2, "a key set per depth");
}
