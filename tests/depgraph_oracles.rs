//! The dependence analysis against the algorithms it replaced.
//!
//! `fhe_ir::depgraph` schedules with three heaps and `fhe_analysis::parallel`
//! proves safety with per-obligation reachability queries; both took over
//! from quadratic algorithms and promise the *same bits* — the same `T(k)`
//! down to `to_bits()`, the same obligations and violations in the same
//! order, the same edges. The quadratic originals live on here, and only
//! here, as the references: written against the public [`DepGraph`] API
//! (`nodes`/`preds`/`succs`/`node`/`free_at`) so that they share no code
//! with the library, and run over the golden suite under every compiler
//! plus 200 generated programs, half of them width-stressed.
//!
//! Nothing here asserts a wall time; `tests/compile_scaling.rs` gates the
//! cost.

use std::collections::{HashMap, HashSet};

use fhe_analysis::parallel::{self, Violation};
use fhe_bench::standard_compilers;
use fhe_fuzz::{generate, GenConfig};
use fhe_ir::depgraph::{DepGraph, DepKind};
use fhe_ir::{
    CompileParams, CostModel, Frac, InputSpec, Op, Program, ScaleMap, ScheduledProgram, ValueId,
};
use fhe_workloads::{suite, Size};

/// The list scheduler as it was: per node, a scan of every worker for the
/// one that frees first and of the whole ready list for the node startable
/// earliest, then of highest bottom level, then of lowest index.
fn quadratic_list_schedule(graph: &DepGraph, costs: &[f64], k: usize) -> f64 {
    let n = graph.nodes().len();
    if n == 0 {
        return 0.0;
    }
    let mut bottom = vec![0.0f64; n];
    for i in (0..n).rev() {
        let below = graph
            .succs(i)
            .iter()
            .map(|&(s, _)| bottom[s])
            .fold(0.0, f64::max);
        bottom[i] = below + costs[i];
    }
    let mut indeg: Vec<usize> = (0..n).map(|i| graph.preds(i).len()).collect();
    let mut ready_time = vec![0.0f64; n];
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut workers = vec![0.0f64; k.max(1)];
    let mut makespan = 0.0f64;
    for _ in 0..n {
        let (w, &wt) = workers
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("k >= 1");
        let pick = ready
            .iter()
            .enumerate()
            .min_by(|&(_, &a), &(_, &b)| {
                let (ra, rb) = (ready_time[a].max(wt), ready_time[b].max(wt));
                ra.total_cmp(&rb)
                    .then(bottom[b].total_cmp(&bottom[a]))
                    .then(a.cmp(&b))
            })
            .map(|(slot, _)| slot)
            .expect("ready nonempty while nodes remain");
        let node = ready.swap_remove(pick);
        let fin = ready_time[node].max(wt) + costs[node];
        workers[w] = fin;
        makespan = makespan.max(fin);
        for &(s, _) in graph.succs(node) {
            ready_time[s] = ready_time[s].max(fin);
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(s);
            }
        }
    }
    makespan
}

/// The safety checker as it was: an `n × n/64` strict-ancestor bitset from
/// one forward sweep, a scan of every op per freed value for its readers —
/// `(freed_values, obligations, violations)`. Its hoist groups sat in a
/// `HashMap` and came out in hash order; here they are sorted by leader,
/// the order `parallel::check` now promises.
fn bitset_check(
    scheduled: &ScheduledProgram,
    graph: &DepGraph,
    hoist_rotations: bool,
) -> (usize, usize, Vec<Violation>) {
    let program = &scheduled.program;
    let n = graph.nodes().len();
    let words = n.div_ceil(64);
    let mut anc = vec![vec![0u64; words]; n];
    for i in 0..n {
        let mut row = vec![0u64; words];
        for &(p, _) in graph.preds(i) {
            row[p / 64] |= 1 << (p % 64);
            for (w, &bits) in anc[p].iter().enumerate() {
                row[w] |= bits;
            }
        }
        anc[i] = row;
    }
    let is_anc = |a: usize, d: usize| anc[d][a / 64] & (1 << (a % 64)) != 0;

    let (mut freed_values, mut obligations, mut violations) = (0, 0, Vec::new());
    for id in program.ids() {
        if !program.is_cipher(id) || graph.node(id).is_none() {
            continue;
        }
        let Some(free_op) = graph.free_at(id) else {
            continue;
        };
        freed_values += 1;
        let free_node = graph.node(free_op).expect("freeing op is live");
        for reader in program.ids() {
            let Some(reader_node) = graph.node(reader) else {
                continue;
            };
            if reader == free_op || !program.op(reader).operands().any(|a| a == id) {
                continue;
            }
            obligations += 1;
            if !is_anc(reader_node, free_node) {
                violations.push(Violation::ReadAfterFree {
                    value: id,
                    reader,
                    free_op,
                });
            }
        }
    }

    let mut groups: HashMap<ValueId, Vec<ValueId>> = HashMap::new();
    for id in program.ids() {
        if graph.node(id).is_none() || !program.is_cipher(id) {
            continue;
        }
        if let Op::Rotate(a, _) = program.op(id) {
            groups.entry(*a).or_default().push(id);
        }
    }
    let mut groups: Vec<Vec<ValueId>> = groups.into_values().collect();
    groups.sort_by_key(|group| group[0]);
    if hoist_rotations {
        for group in groups.iter().filter(|group| group.len() >= 2) {
            let leader_node = graph.node(group[0]).expect("leader is live");
            for &member in &group[1..] {
                let member_node = graph.node(member).expect("member is live");
                obligations += 1;
                if !is_anc(leader_node, member_node) {
                    violations.push(Violation::UnorderedGroupWriter {
                        leader: group[0],
                        member,
                    });
                }
            }
        }
    }
    (freed_values, obligations, violations)
}

/// The edges `DepGraph::build` must have, as a set, straight from the
/// definitions: a set cannot hold a duplicate, whatever order and however
/// often an edge is proposed. Liveness and free points are read off the
/// graph — this oracle is about which edges exist, not about those rules.
fn naive_edges(
    scheduled: &ScheduledProgram,
    graph: &DepGraph,
    hoist_rotations: bool,
) -> HashSet<(ValueId, ValueId, DepKind)> {
    let program = &scheduled.program;
    let live: Vec<ValueId> = program
        .ids()
        .filter(|&id| graph.node(id).is_some())
        .collect();
    let mut edges = HashSet::new();
    let mut groups: HashMap<ValueId, Vec<ValueId>> = HashMap::new();
    for &user in &live {
        for operand in program.op(user).operands() {
            edges.insert((operand, user, DepKind::True));
            if let Some(free_op) = graph.free_at(operand) {
                if program.is_cipher(operand) && free_op != user {
                    edges.insert((user, free_op, DepKind::Anti));
                }
            }
        }
        match program.op(user) {
            Op::Rotate(a, _) if program.is_cipher(user) => {
                groups.entry(*a).or_default().push(user);
            }
            _ => {}
        }
    }
    if hoist_rotations {
        for group in groups.values() {
            for &member in &group[1..] {
                edges.insert((group[0], member, DepKind::Output));
            }
        }
    }
    edges
}

/// Asserts `graph`'s edge lists are exactly `naive_edges`: nothing missing,
/// nothing twice, `preds` the mirror of `succs`.
fn assert_edges_match(
    what: &str,
    scheduled: &ScheduledProgram,
    graph: &DepGraph,
    hoist_rotations: bool,
) {
    let id = |node: usize| graph.nodes()[node].id;
    let (mut succs, mut preds) = (Vec::new(), Vec::new());
    for i in 0..graph.nodes().len() {
        succs.extend(graph.succs(i).iter().map(|&(s, k)| (id(i), id(s), k)));
        preds.extend(graph.preds(i).iter().map(|&(p, k)| (id(p), id(i), k)));
    }
    let expected = naive_edges(scheduled, graph, hoist_rotations);
    assert_eq!(succs.len(), expected.len(), "{what}: duplicate succ edge");
    assert_eq!(preds.len(), expected.len(), "{what}: duplicate pred edge");
    assert_eq!(
        succs.into_iter().collect::<HashSet<_>>(),
        expected,
        "{what}: succs"
    );
    assert_eq!(
        preds.into_iter().collect::<HashSet<_>>(),
        expected,
        "{what}: preds"
    );
}

/// Worker counts compared: the report's small powers of two, odd widths
/// between them, and the degenerate `k ≥ nodes` end.
fn widths(n: usize) -> [usize; 9] {
    [1, 2, 3, 4, 7, 8, 16, n, 2 * n]
}

fn assert_schedules_match(what: &str, graph: &DepGraph) {
    let model: Vec<f64> = graph.nodes().iter().map(|node| node.cost_us).collect();
    // A second cost vector that is not a function of the op class, as the
    // `parallel` bench's measured latencies are not: other ties, other
    // bottom levels, zero-cost nodes made costly.
    let skewed: Vec<f64> = model
        .iter()
        .enumerate()
        .map(|(i, c)| c * (1.0 + (i % 7) as f64 / 3.0) + (i % 3) as f64)
        .collect();
    for k in widths(graph.nodes().len()) {
        let expected = quadratic_list_schedule(graph, &model, k);
        assert_eq!(
            graph.t_of_k(k).to_bits(),
            expected.to_bits(),
            "{what}: T({k}) = {} vs the ready-list scan's {expected}",
            graph.t_of_k(k)
        );
        let expected = quadratic_list_schedule(graph, &skewed, k);
        let got = graph.list_schedule(&skewed, k);
        assert_eq!(
            got.to_bits(),
            expected.to_bits(),
            "{what}: list_schedule(skewed, {k}) = {got} vs the ready-list scan's {expected}"
        );
    }
}

fn assert_checks_match(what: &str, scheduled: &ScheduledProgram, graph: &DepGraph, hoist: bool) {
    let report = parallel::check(scheduled, graph, hoist);
    let (freed_values, obligations, violations) = bitset_check(scheduled, graph, hoist);
    assert_eq!(report.freed_values, freed_values, "{what}: freed values");
    assert_eq!(report.obligations, obligations, "{what}: obligations");
    assert_eq!(report.violations, violations, "{what}: violations");
}

/// Every oracle over one schedule: the graph the compilers and the
/// executor build (hoisting as given) and the true-deps graph that leaves
/// the hazards open, which is where the reachability walk has to work.
/// Returns how many hazards the latter left open.
fn check_schedule(what: &str, scheduled: &ScheduledProgram, map: &ScaleMap, hoist: bool) -> usize {
    let model = CostModel::paper_table3();
    let graph = DepGraph::build(scheduled, map, &model, hoist);
    assert_edges_match(what, scheduled, &graph, hoist);
    assert_schedules_match(what, &graph);
    assert_checks_match(what, scheduled, &graph, hoist);
    assert!(
        parallel::check(scheduled, &graph, hoist).race_free(),
        "{what}: the full graph orders every hazard"
    );

    let what = format!("{what}, true deps");
    let bare = DepGraph::build_true_deps(scheduled, map, &model);
    assert_schedules_match(&what, &bare);
    assert_checks_match(&what, scheduled, &bare, true);
    parallel::check(scheduled, &bare, true).violations.len()
}

#[test]
fn golden_suite_under_every_compiler_matches_the_quadratic_originals() {
    let params = CompileParams::new(30);
    for w in suite(Size::Test) {
        for compiler in standard_compilers(40) {
            let what = format!("{} on {}", compiler.name(), w.name);
            let compiled = compiler
                .compile(&w.program, &params)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let map = compiled.scheduled.validate().expect("schedule validates");
            // One profile per compile: the report carries the pass's, which
            // is what analysing the finished schedule again would give.
            assert_eq!(
                compiled.report.parallelism,
                DepGraph::build(&compiled.scheduled, &map, &CostModel::paper_table3(), true)
                    .estimate(),
                "{what}: report.parallelism"
            );
            // The DAG's work is the paper's Table 4 latency: both sum the
            // compile's cost model over the live ops in schedule order.
            assert_eq!(
                compiled.report.parallelism.work_us.to_bits(),
                compiled.report.estimated_latency_us.to_bits(),
                "{what}: work vs estimated latency"
            );
            for hoist in [true, false] {
                check_schedule(
                    &format!("{what}, hoisting {hoist}"),
                    &compiled.scheduled,
                    &map,
                    hoist,
                );
            }
        }
    }
}

#[test]
fn generated_programs_match_the_quadratic_originals() {
    let params = CompileParams::new(35);
    let compilers = standard_compilers(20);
    let narrow = GenConfig::default();
    let wide = GenConfig {
        width_stress: 24,
        ..GenConfig::default()
    };
    let mut violations_seen = 0;
    for seed in 0..200u64 {
        let program = generate(seed, if seed % 2 == 0 { &narrow } else { &wide });
        let compiler = &compilers[(seed / 2 % 3) as usize];
        let what = format!("{} on fuzz seed {seed}", compiler.name());
        let compiled = compiler
            .compile(&program, &params)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let map = compiled.scheduled.validate().expect("schedule validates");
        violations_seen += check_schedule(&what, &compiled.scheduled, &map, seed % 4 < 2);
    }
    // The comparison on true-deps graphs is only worth something if those
    // graphs do leave hazards open.
    assert!(violations_seen > 200, "{violations_seen} violation(s) seen");
}

/// One input, `fan` rotations of it (one hoist group, every member but the
/// last a reader the free must wait for), summed by a chain of adds.
fn rotation_fan_out(fan: usize) -> ScheduledProgram {
    let mut p = Program::new("fan-out", 8192);
    let x = p.push(Op::Input { name: "x".into() });
    let rotations: Vec<ValueId> = (1..=fan as i64)
        .map(|step| p.push(Op::Rotate(x, step)))
        .collect();
    let sum = rotations[1..]
        .iter()
        .fold(rotations[0], |acc, &r| p.push(Op::Add(acc, r)));
    p.set_outputs(vec![sum]);
    ScheduledProgram {
        program: p,
        params: CompileParams::new(30),
        inputs: vec![InputSpec {
            scale_bits: Frac::from(30u32),
            level: 1,
        }],
    }
}

#[test]
fn a_five_thousand_rotation_fan_out_has_exactly_its_edges_and_is_analysed() {
    const FAN: usize = 5_000;
    let scheduled = rotation_fan_out(FAN);
    let map = scheduled.validate().expect("schedule validates");
    let graph = DepGraph::build(&scheduled, &map, &CostModel::paper_table3(), true);
    assert_edges_match("fan-out", &scheduled, &graph, true);
    // x → each rotation, each rotation → its add (the first add reads two),
    // add → add; every rotation but the last → the last (anti); the first
    // rotation → every other (output).
    let edges: usize = (0..graph.nodes().len()).map(|i| graph.succs(i).len()).sum();
    assert_eq!(edges, FAN + (FAN + FAN - 2) + (FAN - 1) + (FAN - 1));

    let est = graph.estimate();
    // The leader runs first and the last member, which frees x, last.
    assert_eq!(est.max_width, FAN - 2);
    assert_eq!(est.work_us.to_bits(), graph.t_of_k(1).to_bits());

    let report = parallel::check(&scheduled, &graph, true);
    assert!(report.race_free(), "{:?}", &report.violations[..1]);
    // Freed: x, every rotation, every add but the output. Owed: x's other
    // readers before its free, the group's other members after its leader.
    assert_eq!(report.freed_values, 1 + FAN + (FAN - 2));
    assert_eq!(report.obligations, 2 * (FAN - 1));
}
