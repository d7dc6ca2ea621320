//! The §6.1 allocation order against the algorithm it replaced.
//!
//! `reserve_core::allocation_order` traces each heavy op's dependence chain
//! towards the return only until the chain meets a value an earlier chain
//! ranked. It promises the order the full walk gives: the rest of that path
//! is the one the earlier chain took, all of it ranked already, and
//! dropping ranked values from a stable sort by depth leaves the others in
//! their order. The full walk lives on here, and only here, as the
//! reference — written against the public IR API — and both run over the
//! golden suite at test and paper size, the example programs and 200
//! generated programs, raw and cleaned, at three waterlines.
//!
//! Nothing here asserts a wall time; `tests/compile_scaling.rs` gates the
//! cost.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fhe_fuzz::{generate, GenConfig};
use fhe_ir::analysis::{live, mult_depth};
use fhe_ir::{passes, text, CompileParams, CostModel, Program, ValueId};
use fhe_workloads::{suite, Size};
use reserve_core::allocation_order;
use reserve_core::ordering::estimate_costs;

/// Heaviest op first, each contributes its whole chain of max-depth users
/// to the return, lowest depth first; then the legalization into a
/// reverse-topological order that honours the ranks.
fn reference_order(program: &Program, params: &CompileParams, cost: &CostModel) -> Vec<ValueId> {
    let n = program.num_ops();
    let estimated_cost = estimate_costs(program, params, cost);
    let depth = mult_depth(program);
    let live = live(program);
    let users = program.users();

    let mut by_cost: Vec<ValueId> = program.ids().filter(|id| live[id.index()]).collect();
    by_cost.sort_by(|&a, &b| {
        estimated_cost[b.index()]
            .partial_cmp(&estimated_cost[a.index()])
            .expect("costs are finite")
            .then(a.cmp(&b))
    });
    let mut priority = vec![usize::MAX; n];
    let mut next_rank = 0usize;
    for &heavy in &by_cost {
        if priority[heavy.index()] != usize::MAX {
            continue;
        }
        let mut chain = vec![heavy];
        let mut cur = heavy;
        while let Some(u) = users[cur.index()]
            .iter()
            .copied()
            .filter(|u| live[u.index()])
            .max_by_key(|u| (depth[u.index()], Reverse(u.index())))
        {
            chain.push(u);
            cur = u;
        }
        chain.sort_by_key(|v| depth[v.index()]);
        for v in chain {
            if priority[v.index()] == usize::MAX {
                priority[v.index()] = next_rank;
                next_rank += 1;
            }
        }
    }
    for id in program.ids() {
        if priority[id.index()] == usize::MAX {
            priority[id.index()] = next_rank;
            next_rank += 1;
        }
    }

    let mut pending_users = vec![0usize; n];
    for id in program.ids().filter(|id| live[id.index()]) {
        for op in program.op(id).operands() {
            pending_users[op.index()] += 1;
        }
    }
    let mut heap: BinaryHeap<(Reverse<usize>, ValueId)> = program
        .ids()
        .filter(|id| pending_users[id.index()] == 0)
        .map(|id| (Reverse(priority[id.index()]), id))
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut emitted = vec![false; n];
    while let Some((_, id)) = heap.pop() {
        if std::mem::replace(&mut emitted[id.index()], true) {
            continue;
        }
        order.push(id);
        for op in program.op(id).operands() {
            if live[id.index()] {
                pending_users[op.index()] -= 1;
            }
            if pending_users[op.index()] == 0 && !emitted[op.index()] {
                heap.push((Reverse(priority[op.index()]), op));
            }
        }
    }
    order
}

/// Orders `program`, raw and cleaned, both ways at each waterline and holds
/// the orders equal; returns how many values were ordered.
fn same_order(label: &str, program: &Program, waterlines: &[u32]) -> usize {
    let cost = CostModel::paper_table3();
    let cleaned = passes::cleanup(program);
    let mut ordered = 0;
    for (which, p) in [("raw", program), ("cleaned", &cleaned)] {
        for &waterline in waterlines {
            let params = CompileParams::new(waterline);
            let ours = allocation_order(p, &params, &cost);
            assert_eq!(
                ours.order,
                reference_order(p, &params, &cost),
                "{label} ({which}) W{waterline}: order"
            );
            assert_eq!(
                ours.estimated_cost,
                estimate_costs(p, &params, &cost),
                "{label} ({which}) W{waterline}: estimated costs"
            );
            ordered += ours.order.len();
        }
    }
    ordered
}

#[test]
fn the_test_size_suite_orders_as_the_full_chain_walk_does() {
    let ordered: usize = (suite(Size::Test).iter())
        .map(|w| same_order(w.name, &w.program, &[20, 35, 50]))
        .sum();
    assert!(ordered > 0);
}

#[test]
fn the_paper_size_suite_orders_as_the_full_chain_walk_does() {
    for w in suite(Size::Paper) {
        same_order(w.name, &w.program, &[30]);
    }
}

#[test]
fn the_example_programs_order_as_the_full_chain_walk_does() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs");
    let mut files = 0;
    for entry in std::fs::read_dir(dir).expect("the examples directory") {
        let path = entry.expect("a directory entry").path();
        if path.extension().is_some_and(|e| e == "fhe") {
            let source = std::fs::read_to_string(&path).expect("readable");
            let program = text::parse(&source).expect("parses");
            same_order(&path.display().to_string(), &program, &[20, 35, 50]);
            files += 1;
        }
    }
    assert!(files > 0, "no example programs under {dir}");
}

#[test]
fn generated_programs_order_as_the_full_chain_walk_does() {
    let cfg = GenConfig::default();
    for seed in 0..200 {
        same_order(
            &format!("seed {seed}"),
            &generate(seed, &cfg),
            &[20, 35, 50],
        );
    }
}
