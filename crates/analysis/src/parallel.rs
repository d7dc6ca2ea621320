//! Parallel-safety proof: any topological-order-respecting parallel
//! execution of a scheduled program is race-free.
//!
//! The runtime (PR 5) frees a ciphertext's pooled buffer at its last use
//! and recycles buffers through a pool; a DAG-parallel executor must
//! therefore prove, per schedule, that
//! executing ops in *any* order compatible with the dependence DAG cannot
//! read a freed buffer or read a hoisted group's shared decomposition
//! before its leader wrote it. [`check`] is that proof, in the
//! translation-validation style: it re-derives the hazards from the program
//! text — independently of how `fhe_ir::depgraph` inserted its anti/output
//! edges — and verifies the DAG orders every one of them:
//!
//! 1. **read-before-free** — for every live cipher value `v` with free op
//!    `f` (its last live use; outputs are pinned and never freed), every
//!    other reader of `v` must be a strict ancestor of `f` in the DAG, so
//!    `v`'s buffer cannot be recycled while a reader is in flight.
//! 2. **group members follow their writer** — members of a hoisted
//!    rotation group all read the key-switch decomposition the group
//!    leader writes when it executes, so every member must be a descendant
//!    of the leader.
//! 3. **linear-combination members precede their root** — a member of a
//!    linear-combination group ([`fhe_ir::analysis::linear_groups`]) adds
//!    its products to partial sums the group's root merges, so every
//!    member must reach the root by true (read-after-write) edges alone.
//!
//! Writers that share a pooled buffer through recycling (free → checkout)
//! need no per-pair proof: the pool hands a buffer out only after its
//! previous holder freed it, and by (1) that free happens after the last
//! read, so pool synchronization orders the writers. What remains — and
//! what [`check`] verifies — is exactly (1) to (3). The linear groups it
//! proves are returned in its [`SafetyReport`]: the memory estimate and the
//! encrypted executor accumulate those, so a group is run only once it is
//! proved.
//!
//! A schedule that fails (for instance a DAG built from true dependences
//! only, via [`fhe_ir::DepGraph::build_true_deps`]) yields one
//! [`Violation`] per unordered hazard; the compile's `depgraph` phase
//! surfaces those as `F008` findings, since an unordered read/free pair is
//! the parallel form of the premature-free lint.

use fhe_ir::analysis::LinearGroup;
use fhe_ir::depgraph::{DepGraph, DepKind};
use fhe_ir::semantics::rotation_class;
use fhe_ir::{Op, ScheduledProgram, ValueId};

/// One unordered hazard: a pair of ops the DAG fails to order although the
/// freeing/pooling discipline requires it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// `reader` reads `value`, but is not an ancestor of the op that frees
    /// it — a parallel schedule could recycle the buffer mid-read.
    ReadAfterFree {
        /// The ciphertext whose buffer is at stake.
        value: ValueId,
        /// The unordered reader.
        reader: ValueId,
        /// The op whose completion frees `value`.
        free_op: ValueId,
    },
    /// A hoisted rotation-group member is not ordered after its leader,
    /// leaving the group's decomposition read before it is written.
    UnorderedGroupWriter {
        /// The group leader (first member, which writes the decomposition).
        leader: ValueId,
        /// The unordered member.
        member: ValueId,
    },
    /// A linear-combination member does not reach its root by true edges,
    /// so the root could finish the sum before the member added to it.
    UnorderedLinearMember {
        /// The member rotation.
        member: ValueId,
        /// The root add that merges the group's partial sums.
        root: ValueId,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::ReadAfterFree {
                value,
                reader,
                free_op,
            } => write!(
                f,
                "reader {reader} of {value} is not ordered before its free at {free_op}"
            ),
            Violation::UnorderedGroupWriter { leader, member } => write!(
                f,
                "hoisted rotation {member} is not ordered after its group leader {leader}"
            ),
            Violation::UnorderedLinearMember { member, root } => write!(
                f,
                "linear-combination member {member} does not reach its root {root} by true edges"
            ),
        }
    }
}

/// Result of a parallel-safety check: the proof obligations discharged and
/// any that failed.
#[derive(Debug, Clone, Default)]
pub struct SafetyReport {
    /// Ciphertext values with a free point whose readers were checked.
    pub freed_values: usize,
    /// Reader/free and group-writer orderings verified.
    pub obligations: usize,
    /// Linear-combination members verified to reach their root by true
    /// edges (obligation 3, counted apart from the orderings above).
    pub linear_members: usize,
    /// Unordered hazards (empty = the schedule is proven race-free under
    /// any topological-order-respecting parallel execution).
    pub violations: Vec<Violation>,
    /// The linear-combination groups obligation 3 covers, derived from the
    /// program text ([`fhe_ir::analysis::linear_groups`]).
    pub linear_groups: Vec<LinearGroup>,
}

impl SafetyReport {
    /// Whether every obligation was discharged.
    pub fn race_free(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Answers "is node `a` a strict ancestor of node `d`?" over the DAG, one
/// query at a time and without materialising ancestor sets.
struct Ancestry<'g> {
    graph: &'g DepGraph,
    /// `seen[i] == walk` marks node `i` as visited by the current walk.
    seen: Vec<usize>,
    walk: usize,
    stack: Vec<usize>,
}

impl<'g> Ancestry<'g> {
    fn new(graph: &'g DepGraph) -> Self {
        Ancestry {
            graph,
            seen: vec![0; graph.nodes().len()],
            walk: 0,
            stack: Vec::new(),
        }
    }

    fn is_ancestor(&mut self, a: usize, d: usize) -> bool {
        self.is_ancestor_by(a, d, |_| true)
    }

    /// [`Ancestry::is_ancestor`] over the edges of the kinds `follow`
    /// accepts.
    fn is_ancestor_by(&mut self, a: usize, d: usize, follow: impl Fn(DepKind) -> bool) -> bool {
        let graph = self.graph;
        // Walk backward from `d`; its first step finds a direct edge. Node
        // order is topological, so a path from `a` only passes through
        // nodes above `a`.
        self.walk += 1;
        self.stack.clear();
        self.stack.push(d);
        while let Some(i) = self.stack.pop() {
            for &(p, _) in graph.preds(i).iter().filter(|&&(_, k)| follow(k)) {
                if p == a {
                    return true;
                }
                if p > a && self.seen[p] != self.walk {
                    self.seen[p] = self.walk;
                    self.stack.push(p);
                }
            }
        }
        false
    }
}

/// Proves `scheduled` race-free under `graph` (normally
/// [`DepGraph::build`] over the same schedule; pass a true-deps-only graph
/// to see the hazards the anti/output edges repair). `hoist_rotations`
/// must match the runtime setting: it decides whether group-writer
/// obligations exist at all.
///
/// The obligations come from the program text alone; the graph is only
/// asked whether it orders each pair. Violations are listed in schedule
/// order: read-after-free by value then reader, then group writers by
/// leader then member, then linear-combination members by root then
/// member.
pub fn check(
    scheduled: &ScheduledProgram,
    graph: &DepGraph,
    hoist_rotations: bool,
) -> SafetyReport {
    let program = &scheduled.program;
    let mut ancestry = Ancestry::new(graph);
    let mut report = SafetyReport::default();

    // The live readers of every value in schedule order (an op naming a
    // value twice reads it once), and the live cipher rotations of every
    // source that are not the identity, grouped in schedule order of their
    // first member — the hoisted groups. Both are derived here from the
    // program text, independently of the graph (which the memory model and
    // the executor read the hoisted groups from) on purpose: the graph is
    // what is proved.
    let slots = program.slots();
    // `node_at[v]`: the node of a live op `v`. (The walks index slices:
    // DESIGN.md §5, "Debug builds".)
    let mut live_ops = vec![false; program.num_ops()];
    let mut node_of = vec![usize::MAX; program.num_ops()];
    let (live, node_at) = (&mut live_ops[..], &mut node_of[..]);
    for (i, node) in graph.nodes().iter().enumerate() {
        live[node.id.index()] = true;
        node_at[node.id.index()] = i;
    }
    let readers = fhe_ir::analysis::readers(program, live);
    let mut group_of: Vec<Option<usize>> = vec![None; program.num_ops()];
    let mut groups: Vec<Vec<ValueId>> = Vec::new();
    for node in graph.nodes() {
        let id = node.id;
        match *program.op(id) {
            Op::Rotate(a, k) if program.is_cipher(id) && rotation_class(k, slots).is_some() => {
                let group = *group_of[a.index()].get_or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[group].push(id);
            }
            _ => {}
        }
    }

    // Obligation 1: every reader of a freed ciphertext precedes the free.
    // A direct edge answers at once: the free op's predecessors are marked
    // once per value it frees (an op frees at most two), so a value with
    // thousands of readers costs its readers and the free op's edges.
    // Every obligation over a `DepGraph::build` graph ends there.
    // `pred_of[p] == f + 1`: node `p` is a direct predecessor of node `f`.
    let mut pred_of = vec![0; graph.nodes().len()];
    let pred_of = &mut pred_of[..];
    for node in graph.nodes() {
        let id = node.id;
        if !program.is_cipher(id) {
            continue;
        }
        let Some(free_op) = graph.free_at(id) else {
            continue; // pinned output, or never read
        };
        report.freed_values += 1;
        let free_node = node_at[free_op.index()];
        for &(p, _) in graph.preds(free_node) {
            pred_of[p] = free_node + 1;
        }
        for &reader in readers.get(id.index()) {
            if reader == free_op {
                continue;
            }
            let reader_node = node_at[reader.index()];
            report.obligations += 1;
            if pred_of[reader_node] != free_node + 1
                && !ancestry.is_ancestor(reader_node, free_node)
            {
                report.violations.push(Violation::ReadAfterFree {
                    value: id,
                    reader,
                    free_op,
                });
            }
        }
    }

    // Obligation 2: hoisted rotation-group members follow their leader (a
    // lone rotation is not hoisted and owes nothing).
    if hoist_rotations {
        for group in &groups {
            let leader = group[0];
            let leader_node = node_at[leader.index()];
            for &member in &group[1..] {
                let member_node = node_at[member.index()];
                report.obligations += 1;
                if !ancestry.is_ancestor(leader_node, member_node) {
                    report
                        .violations
                        .push(Violation::UnorderedGroupWriter { leader, member });
                }
            }
        }
    }

    // Obligation 3: linear-combination members reach their root through
    // the dataflow (whatever the hoisting setting: the runtime accumulates
    // either way). One backward walk per group, from the root over true
    // edges and through the group's own adds, products and members, finds
    // every member the group's dataflow orders; only a member it misses is
    // asked of the unrestricted search. The groups, like the readers
    // above, come from the program text.
    let node = |v: ValueId| node_at[v.index()];
    // `in_group[i] == g` / `reached[i] == g` / `counted[i] == g`: node `i`
    // belongs to / was reached by the walk of / was counted as a member of
    // the group numbered `g`, from 1.
    let nodes = graph.nodes().len();
    let (mut in_group, mut reached, mut counted) = (vec![0; nodes], vec![0; nodes], vec![0; nodes]);
    let (in_group, reached, counted) = (&mut in_group[..], &mut reached[..], &mut counted[..]);
    let mut stack = Vec::new();
    let linear_groups = fhe_ir::analysis::linear_groups_read(program, live, &readers);
    for (g, group) in (1..).zip(&linear_groups) {
        let root = group.root;
        let root_node = node(root);
        for &(member, product) in &group.terms {
            in_group[node(member)] = g;
            in_group[node(product)] = g;
        }
        for &add in &group.adds {
            in_group[node(add)] = g;
        }
        reached[root_node] = g;
        stack.push(root_node);
        while let Some(i) = stack.pop() {
            for &(p, k) in graph.preds(i) {
                if k == DepKind::True && in_group[p] == g && reached[p] != g {
                    reached[p] = g;
                    stack.push(p);
                }
            }
        }
        let first = report.violations.len();
        for &(member, _) in &group.terms {
            let member_node = node(member);
            if counted[member_node] == g {
                continue;
            }
            counted[member_node] = g;
            report.linear_members += 1;
            if reached[member_node] != g
                && !ancestry.is_ancestor_by(member_node, root_node, |k| k == DepKind::True)
            {
                report
                    .violations
                    .push(Violation::UnorderedLinearMember { member, root });
            }
        }
        // A group's violations by member.
        report.violations[first..].sort_by_key(|v| match v {
            Violation::UnorderedLinearMember { member, .. } => *member,
            _ => unreachable!("only this group's members"),
        });
    }

    report.linear_groups = linear_groups;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ir::{Builder, CompileParams, CostModel, Frac, InputSpec, Program};

    fn scheduled(p: Program) -> ScheduledProgram {
        ScheduledProgram {
            params: CompileParams::new(30),
            inputs: p
                .inputs()
                .iter()
                .map(|_| InputSpec {
                    scale_bits: Frac::from(30u32),
                    level: 1,
                })
                .collect(),
            program: p,
        }
    }

    fn wide_program() -> Program {
        let b = Builder::new("wide", 8);
        let x = b.input("x");
        let y = b.input("y");
        // x has several readers; its last use frees it. Rotations of y form
        // a hoist group.
        let e = (x.clone() + y.clone())
            + (x.clone() - y.clone())
            + (x.clone() + x)
            + y.clone().rotate(1)
            + y.rotate(2);
        b.finish(vec![e])
    }

    #[test]
    fn full_dag_is_proven_race_free() {
        let s = scheduled(wide_program());
        let map = s.validate().expect("valid");
        let g = DepGraph::build(&s, &map, &CostModel::paper_table3(), true);
        let report = check(&s, &g, true);
        assert!(report.race_free(), "{:?}", report.violations);
        assert!(report.freed_values > 0);
        assert!(report.obligations > 0);
    }

    #[test]
    fn true_deps_only_dag_exhibits_the_races() {
        let s = scheduled(wide_program());
        let map = s.validate().expect("valid");
        let g = DepGraph::build_true_deps(&s, &map, &CostModel::paper_table3());
        let report = check(&s, &g, true);
        assert!(!report.race_free());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ReadAfterFree { .. })));
    }

    #[test]
    fn violations_come_in_schedule_order_on_every_call() {
        // Ten hoist groups whose leaders run in the reverse of their
        // sources' order, so "by leader" and "by source" differ.
        let b = Builder::new("groups", 8);
        let sources: Vec<_> = (0..10).map(|i| b.input(format!("y{i}"))).collect();
        let sum = sources
            .iter()
            .rev()
            .flat_map(|y| (1..=3).map(|k| y.clone().rotate(k)))
            .reduce(|a, c| a + c)
            .expect("nonempty");
        let s = scheduled(b.finish(vec![sum]));
        let map = s.validate().expect("valid");
        let g = DepGraph::build_true_deps(&s, &map, &CostModel::paper_table3());
        let report = check(&s, &g, true);
        assert_eq!(report.violations, check(&s, &g, true).violations);
        let groups: Vec<(ValueId, ValueId)> = report
            .violations
            .iter()
            .filter_map(|v| match v {
                Violation::UnorderedGroupWriter { leader, member } => Some((*leader, *member)),
                Violation::ReadAfterFree { .. } | Violation::UnorderedLinearMember { .. } => None,
            })
            .collect();
        assert_eq!(groups.len(), 20, "two members per group: {groups:?}");
        assert!(groups.windows(2).all(|w| w[0] < w[1]), "{groups:?}");
    }

    #[test]
    fn an_indirect_path_discharges_an_obligation() {
        // x is read by r, then freed by (r + r) - x, which r reaches only
        // through the add: the true-deps graph has no edge between the two.
        let b = Builder::new("indirect", 8);
        let x = b.input("x");
        let r = x.clone().rotate(1);
        let e = (r.clone() + r) - x;
        let s = scheduled(b.finish(vec![e]));
        let map = s.validate().expect("valid");
        let g = DepGraph::build_true_deps(&s, &map, &CostModel::paper_table3());
        let report = check(&s, &g, true);
        assert_eq!(report.obligations, 1);
        assert!(report.race_free(), "{:?}", report.violations);
    }

    #[test]
    fn linear_combination_members_reach_their_root_by_true_edges() {
        // Σ rotate(x, k)·0.5 + x·0.5: two members, one root. True edges
        // alone order them, so a true-deps-only graph discharges them too
        // (and, hoisting off, still owes them: the runtime accumulates).
        let b = Builder::new("matvec", 8);
        let x = b.input("x");
        let half = b.constant(0.5);
        let e = x.clone().rotate(1) * half.clone() + x.clone().rotate(2) * half.clone() + x * half;
        let s = scheduled(b.finish(vec![e]));
        let map = s.validate().expect("valid");
        let full = DepGraph::build(&s, &map, &CostModel::paper_table3(), false);
        let bare = DepGraph::build_true_deps(&s, &map, &CostModel::paper_table3());
        let live = fhe_ir::analysis::live(&s.program);
        let groups = fhe_ir::analysis::linear_groups(&s.program, &live);
        assert_eq!(groups.len(), 1);
        for graph in [&full, &bare] {
            let report = check(&s, graph, false);
            assert_eq!(report.linear_members, 2);
            assert!(!report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::UnorderedLinearMember { .. })));
            // The groups the memory estimate and the executor take are the
            // program's, whichever graph was checked.
            assert_eq!(report.linear_groups, groups);
        }
    }

    #[test]
    fn a_member_the_group_walk_misses_is_asked_of_the_full_search() {
        // Σ rotate(x, k)·0.5 at root `s`, checked against graphs of two
        // mutants with the same live ops in the same order: in both, the
        // true edge m2 → s is gone. In the first nothing else leads from r2
        // to s, so r2 is unordered; in the second m2 reaches s through `t`,
        // which is no part of the group, so only the full search finds it.
        let ops = |t: Op, s: Op, outputs: &[u32]| {
            let mut p = Program::new("matvec", 8);
            let x = p.push(Op::Input { name: "x".into() });
            let c = p.push(Op::Const { value: 0.5.into() });
            let r1 = p.push(Op::Rotate(x, 1));
            let r2 = p.push(Op::Rotate(x, 2));
            p.push(Op::Mul(r1, c));
            p.push(Op::Mul(r2, c));
            p.push(t);
            p.push(s);
            p.set_outputs(outputs.iter().map(|&o| ValueId(o)).collect());
            scheduled(p)
        };
        let [x, r2, m1, m2, t, s] = [0, 3, 4, 5, 6, 7].map(ValueId);
        let source = ops(Op::Neg(x), Op::Add(m1, m2), &[7, 6]);
        let cut = ops(Op::Neg(m1), Op::Add(m1, t), &[7, 6, 5]);
        let detour = ops(Op::Neg(m2), Op::Add(m1, t), &[7, 6]);
        let linear = |mutant: &ScheduledProgram| {
            let map = mutant.validate().expect("valid");
            let graph = DepGraph::build(mutant, &map, &CostModel::paper_table3(), true);
            let report = check(&source, &graph, true);
            let violations: Vec<Violation> = (report.violations.into_iter())
                .filter(|v| matches!(v, Violation::UnorderedLinearMember { .. }))
                .collect();
            (report.linear_members, violations)
        };
        assert_eq!(linear(&source), (2, vec![]));
        assert_eq!(
            linear(&cut),
            (
                2,
                vec![Violation::UnorderedLinearMember {
                    member: r2,
                    root: s
                }]
            )
        );
        assert_eq!(linear(&detour), (2, vec![]));
    }

    #[test]
    fn violations_render_the_ops_involved() {
        let s = scheduled(wide_program());
        let map = s.validate().expect("valid");
        let g = DepGraph::build_true_deps(&s, &map, &CostModel::paper_table3());
        let report = check(&s, &g, true);
        let text = report.violations[0].to_string();
        assert!(text.contains("free"), "{text}");
    }
}
