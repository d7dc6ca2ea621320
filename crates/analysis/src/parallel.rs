//! Parallel-safety proof: any topological-order-respecting parallel
//! execution of a scheduled program is race-free.
//!
//! The runtime (PR 5) frees a ciphertext's pooled buffer at its last use
//! and recycles buffers through a pool; a DAG-parallel executor (the
//! ROADMAP's work-stealing item) must therefore prove, per schedule, that
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
//!
//! Writers that share a pooled buffer through recycling (free → checkout)
//! need no per-pair proof: the pool hands a buffer out only after its
//! previous holder freed it, and by (1) that free happens after the last
//! read, so pool synchronization orders the writers. What remains — and
//! what [`check`] verifies — is exactly (1) and (2).
//!
//! A schedule that fails (for instance a DAG built from true dependences
//! only, via [`fhe_ir::DepGraph::build_true_deps`]) yields one
//! [`Violation`] per unordered hazard; `DepGraphPass` surfaces those as
//! `F008` findings, since an unordered read/free pair is the parallel form
//! of the premature-free lint.

use fhe_ir::depgraph::DepGraph;
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
    /// Unordered hazards (empty = the schedule is proven race-free under
    /// any topological-order-respecting parallel execution).
    pub violations: Vec<Violation>,
}

impl SafetyReport {
    /// Whether every obligation was discharged.
    pub fn race_free(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Ancestor sets over the DAG as bitsets: `anc[i]` holds `j` iff node `j`
/// is a strict ancestor of node `i`. Nodes are in topological order by
/// construction, so one forward sweep suffices.
fn ancestors(graph: &DepGraph) -> Vec<Vec<u64>> {
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
    anc
}

/// Proves `scheduled` race-free under `graph` (normally
/// [`DepGraph::build`] over the same schedule; pass a true-deps-only graph
/// to see the hazards the anti/output edges repair). `hoist_rotations`
/// must match the runtime setting: it decides whether group-writer
/// obligations exist at all.
pub fn check(
    scheduled: &ScheduledProgram,
    graph: &DepGraph,
    hoist_rotations: bool,
) -> SafetyReport {
    let program = &scheduled.program;
    let anc = ancestors(graph);
    let is_anc = |a: usize, d: usize| anc[d][a / 64] & (1 << (a % 64)) != 0;

    let mut report = SafetyReport::default();

    // Obligation 1: every reader of a freed ciphertext precedes the free.
    for id in program.ids() {
        if !program.is_cipher(id) || graph.node(id).is_none() {
            continue;
        }
        let Some(free_op) = graph.free_at(id) else {
            continue; // pinned output, or never read
        };
        report.freed_values += 1;
        let free_node = graph.node(free_op).expect("freeing op is live");
        for reader in program.ids() {
            let Some(reader_node) = graph.node(reader) else {
                continue;
            };
            if reader == free_op || !program.op(reader).operands().any(|a| a == id) {
                continue;
            }
            report.obligations += 1;
            if !is_anc(reader_node, free_node) {
                report.violations.push(Violation::ReadAfterFree {
                    value: id,
                    reader,
                    free_op,
                });
            }
        }
    }

    // Obligation 2: hoisted rotation-group members follow their leader.
    // Re-derive the groups from the program text (≥ 2 live cipher
    // rotations of one source), mirroring the memory model.
    let mut groups: std::collections::HashMap<ValueId, Vec<ValueId>> =
        std::collections::HashMap::new();
    for id in program.ids() {
        if graph.node(id).is_none() || !program.is_cipher(id) {
            continue;
        }
        if let Op::Rotate(a, _) = program.op(id) {
            groups.entry(*a).or_default().push(id);
        }
    }
    if hoist_rotations {
        for group in groups.values() {
            if group.len() < 2 {
                continue;
            }
            let leader = group[0];
            let leader_node = graph.node(leader).expect("leader is live");
            for &member in &group[1..] {
                let member_node = graph.node(member).expect("member is live");
                report.obligations += 1;
                if !is_anc(leader_node, member_node) {
                    report
                        .violations
                        .push(Violation::UnorderedGroupWriter { leader, member });
                }
            }
        }
    }

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
    fn violations_render_the_ops_involved() {
        let s = scheduled(wide_program());
        let map = s.validate().expect("valid");
        let g = DepGraph::build_true_deps(&s, &map, &CostModel::paper_table3());
        let report = check(&s, &g, true);
        let text = report.violations[0].to_string();
        assert!(text.contains("free"), "{text}");
    }
}
