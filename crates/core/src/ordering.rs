//! Allocation ordering (§6.1): decide the order in which the backward
//! reserve analysis visits values, prioritizing heavy operations so they get
//! the best level-reduction opportunities.
//!
//! The order is built by repeatedly taking the heaviest not-yet-covered
//! operation, tracing its dependence chain to the return value, and
//! appending the chain's members lowest-depth first. The final order is then
//! legalized into a reverse-topological order (users before operands) that
//! respects those priorities, which is what the backward allocation needs.

use fhe_ir::analysis::{estimated_levels, live, mult_depth, Lists};
use fhe_ir::{CompileParams, CostModel, Program, ValueId};

/// Result of the ordering phase.
#[derive(Debug, Clone)]
pub struct AllocationOrder {
    /// Values in allocation (visit) order: every user precedes its operands,
    /// higher-priority (heavier) chains first.
    pub order: Vec<ValueId>,
    /// Estimated pre-allocation cost of each value (µs), the §6.1 heuristic.
    pub estimated_cost: Vec<f64>,
}

/// Computes the §6.1 cost estimate for every value: latency of its op class
/// at the estimated level `1 + depth·ω`, interpolated from the cost table.
pub fn estimate_costs(program: &Program, params: &CompileParams, cost: &CostModel) -> Vec<f64> {
    let levels = estimated_levels(program, params);
    program
        .ids()
        .map(|id| match CostModel::classify(program, id) {
            Some(class) => cost.at_frac_level(class, levels[id.index()]),
            None => 0.0,
        })
        .collect()
}

/// Builds the allocation order for a program.
pub fn allocation_order(
    program: &Program,
    params: &CompileParams,
    cost: &CostModel,
) -> AllocationOrder {
    let n = program.num_ops();
    let estimated_cost = estimate_costs(program, params, cost);
    let depth = mult_depth(program);
    let live = live(program);
    let users = uses(program);

    // Heaviest-first visit of ops; each contributes its dependence chain to
    // the return value (following the max-depth user at every step),
    // appended lowest-depth (closest to the return) first.
    let mut by_cost: Vec<ValueId> = program.ids().filter(|id| live[id.index()]).collect();
    by_cost.sort_by(|&a, &b| {
        estimated_cost[b.index()]
            .partial_cmp(&estimated_cost[a.index()])
            .expect("costs are finite")
            .then(a.cmp(&b))
    });

    let mut priority = vec![usize::MAX; n];
    let mut next_rank = 0usize;
    let mut chain = Vec::new();
    for &heavy in &by_cost {
        if priority[heavy.index()] != usize::MAX {
            continue; // already covered by an earlier chain
        }
        // Walk from `heavy` towards the return along max-depth users. The
        // walk stops at the first value an earlier chain ranked: the path
        // from there is the one that chain took, all of it ranked already,
        // and dropping ranked values from a stable sort leaves the others'
        // order unchanged — so every op is walked once per compile.
        chain.clear();
        chain.push(heavy);
        let mut cur = heavy;
        while let Some(u) = users
            .get(cur.index())
            .iter()
            .copied()
            .filter(|u| live[u.index()])
            .max_by_key(|u| (depth[u.index()], std::cmp::Reverse(u.index())))
        {
            if priority[u.index()] != usize::MAX {
                break;
            }
            chain.push(u);
            cur = u;
        }
        // Lowest depth first == closest to the return first.
        chain.sort_by_key(|v| depth[v.index()]);
        for &v in &chain {
            priority[v.index()] = next_rank;
            next_rank += 1;
        }
    }
    // Dead values go last (they are skipped by allocation anyway).
    for id in program.ids() {
        if priority[id.index()] == usize::MAX {
            priority[id.index()] = next_rank;
            next_rank += 1;
        }
    }

    // Legalize into a reverse-topological order honouring the priorities:
    // a value becomes ready once all its live users are emitted.
    let mut pending_users = vec![0usize; n];
    for id in program.ids() {
        if live[id.index()] {
            for op in program.op(id).operands() {
                pending_users[op.index()] += 1;
            }
        }
    }
    let mut heap = std::collections::BinaryHeap::new(); // max-heap
    let ready = |pending: &Vec<usize>, id: ValueId| pending[id.index()] == 0;
    for id in program.ids() {
        if ready(&pending_users, id) {
            heap.push((std::cmp::Reverse(priority[id.index()]), id));
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut emitted = vec![false; n];
    while let Some((_, id)) = heap.pop() {
        if emitted[id.index()] {
            continue;
        }
        emitted[id.index()] = true;
        order.push(id);
        for op in program.op(id).operands() {
            if live[id.index()] {
                pending_users[op.index()] -= 1;
            }
            if pending_users[op.index()] == 0 && !emitted[op.index()] {
                heap.push((std::cmp::Reverse(priority[op.index()]), op));
            }
        }
    }
    debug_assert_eq!(order.len(), n, "every value must be ordered");
    AllocationOrder {
        order,
        estimated_cost,
    }
}

/// Every op reading each value, once per operand occurrence and in schedule
/// order: [`Program::users`] in one allocation.
fn uses(program: &Program) -> Lists<ValueId> {
    let mut uses = Vec::with_capacity(2 * program.num_ops());
    for id in program.ids() {
        for o in program.op(id).operands() {
            uses.push((o.index(), id));
        }
    }
    Lists::group(program.num_ops(), &uses)
}

/// A deliberately naive allocation order — plain reverse-topological by id,
/// ignoring operation weight. Used by the ordering ablation to quantify how
/// much the §6.1 cost-prioritized ordering contributes.
pub fn naive_order(program: &Program) -> AllocationOrder {
    let order: Vec<ValueId> = program.ids().rev().collect();
    AllocationOrder {
        order,
        estimated_cost: vec![0.0; program.num_ops()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ir::Builder;

    fn fig2a() -> (Program, [ValueId; 7]) {
        let b = Builder::new("fig2a", 8);
        let x = b.input("x");
        let y = b.input("y");
        let x2 = x.clone() * x.clone();
        let x3 = x.clone() * x2.clone();
        let y2 = y.clone() * y.clone();
        let s = y2.clone() + y.clone();
        let q = x3.clone() * s.clone();
        let ids = [x.id(), y.id(), x2.id(), x3.id(), y2.id(), s.id(), q.id()];
        (b.finish(vec![q]), ids)
    }

    #[test]
    fn cost_estimates_match_fig3a() {
        // Fig. 3a (in hundreds of µs): x2 92, x3 76, y2 76, q 60, s ~1.6.
        let (p, [x, y, x2, x3, y2, s, q]) = fig2a();
        let params = CompileParams::new(20);
        let costs = estimate_costs(&p, &params, &CostModel::paper_table3());
        let h = |id: ValueId| (costs[id.index()] / 100.0).round() as i64;
        assert_eq!(h(x2), 92);
        assert_eq!(h(x3), 76);
        assert_eq!(h(y2), 76);
        assert_eq!(h(q), 60);
        assert_eq!(h(s), 2);
        assert_eq!(h(x), 0);
        assert_eq!(h(y), 0);
    }

    #[test]
    fn order_matches_fig3b() {
        // Reserve allocation order: q → x3 → x2 → s → y2 → x → y.
        let (p, [x, y, x2, x3, y2, s, q]) = fig2a();
        let params = CompileParams::new(20);
        let ord = allocation_order(&p, &params, &CostModel::paper_table3());
        assert_eq!(ord.order, vec![q, x3, x2, s, y2, x, y]);
    }

    #[test]
    fn order_is_reverse_topological() {
        let (p, _) = fig2a();
        let params = CompileParams::new(20);
        let ord = allocation_order(&p, &params, &CostModel::paper_table3());
        let mut seen = vec![false; p.num_ops()];
        for &v in &ord.order {
            // All users must already be seen.
            for u in p.users()[v.index()].iter() {
                assert!(seen[u.index()], "user {u} of {v} not yet ordered");
            }
            seen[v.index()] = true;
        }
        assert_eq!(ord.order.len(), p.num_ops());
    }

    #[test]
    fn dead_values_ordered_last() {
        let b = Builder::new("d", 4);
        let x = b.input("x");
        let dead = x.clone().rotate(1);
        let dead_id = dead.id();
        drop(dead);
        let out = x.clone() * x;
        let p = b.finish(vec![out]);
        let params = CompileParams::new(20);
        let ord = allocation_order(&p, &params, &CostModel::paper_table3());
        assert_eq!(*ord.order.last().unwrap(), dead_id);
    }
}
