//! Static dependence DAG and parallel-performance analysis of scheduled
//! programs.
//!
//! The cost model (Table 3) prices each op in isolation; this module prices
//! the *structure*: which ops could run concurrently, and what latency a
//! DAG-parallel runtime could reach. [`DepGraph::build`] constructs the
//! dependence DAG of a [`ScheduledProgram`] — true (read-after-write)
//! dependences plus the anti and output dependences induced by the
//! runtime's last-use ciphertext freeing and hoisted rotation groups. From
//! the DAG and a [`CostModel`] it derives:
//!
//! - **work** — total µs of all live ops (the report's sequential
//!   `estimated_latency_us`),
//! - **span** — the critical path, the latency floor at unbounded width,
//! - **`max_width`** — the peak number of concurrently running costed ops
//!   under an unbounded-width earliest-start schedule.
//!
//! Span and width are read off one longest-path sweep, and
//! [`DepGraph::estimate`] packages all three as the [`ParallelismEstimate`]
//! every `CompileReport` carries. [`DepGraph::t_of_k`] prices a particular
//! width on demand: greedy critical-path list scheduling with `k` workers
//! (`T(1)` = work, `T(∞)` → span).
//!
//! The graph is the one place the runtime's buffer discipline is derived —
//! liveness, free points and hoisted rotation groups; the memory model
//! ([`crate::memory::estimate_memory`]) and the encrypted executor read
//! them from it. The parallel-safety checker in `fhe-analysis` derives the
//! readers and the linear-combination groups itself, from the program
//! text, and proves the DAG orders every hazard: every reader of a
//! ciphertext is an ancestor of the op that frees it, so *any*
//! topological-order-respecting parallel execution observes the free after
//! the last read. The groups it proves are the ones the memory model and
//! the executor accumulate.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::OnceLock;

use crate::analysis::Lists;
use crate::cost::{class_index, CostModel, OpClass};
use crate::op::ValueId;
use crate::schedule::{ScaleMap, ScheduledProgram};

/// A time in µs ordered by [`f64::total_cmp`], so that it can key a heap.
#[derive(Debug, Clone, Copy)]
struct Us(f64);

impl PartialEq for Us {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Us {}

impl PartialOrd for Us {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Us {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The kind of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Read-after-write: the consumer reads the producer's result.
    True,
    /// Write-after-read: the op performing a value's last use returns its
    /// buffer to the pool, and must therefore run after every other reader.
    Anti,
    /// A hoisted rotation group's leader writes the key-switch
    /// decomposition every other member reads, so they are ordered after
    /// it: a dependence through the group's shared output, not through a
    /// value of the program.
    Output,
}

impl DepKind {
    /// Short label used in DOT exports and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            DepKind::True => "true",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
        }
    }
}

/// One node of the dependence DAG: a live op of the schedule with its
/// statically priced latency.
#[derive(Debug, Clone)]
pub struct DepNode {
    /// The op this node represents.
    pub id: ValueId,
    /// Its Table 3 class (`None` for zero-cost ops: inputs, constants,
    /// plaintext arithmetic).
    pub class: Option<OpClass>,
    /// Its latency under the model the graph was built with (µs).
    pub cost_us: f64,
}

/// Static parallelism profile of a compiled program, reported next to the
/// memory estimate in every `CompileReport`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParallelismEstimate {
    /// Total latency of all live ops (µs) — the one-worker execution time.
    pub work_us: f64,
    /// Critical-path latency (µs) — the unbounded-width floor.
    pub span_us: f64,
    /// Peak number of concurrently running costed ops under an
    /// unbounded-width earliest-start schedule.
    pub max_width: usize,
}

impl ParallelismEstimate {
    /// Ideal parallelism `work / span` (1.0 for empty or serial programs).
    pub fn parallelism(&self) -> f64 {
        if self.span_us > 0.0 {
            self.work_us / self.span_us
        } else {
            1.0
        }
    }
}

/// The dependence DAG of a scheduled program and the buffer discipline its
/// edges come from. Node order (ascending [`ValueId`]) is a topological
/// order: true edges run producer→consumer, anti edges run
/// reader→last-reader, and output edges run group leader→later member, all
/// of which point from lower to higher ids.
#[derive(Debug, Clone)]
pub struct DepGraph {
    nodes: Vec<DepNode>,
    node_of: Vec<Option<usize>>,
    /// Each node's predecessors: true (in operand order), anti (by the id
    /// of the value freed), then output.
    preds: Lists<(usize, DepKind)>,
    /// Each node's earliest finish time under unbounded width (the
    /// longest-path DP; the maximum entry is the span).
    finish: Vec<f64>,
    /// Each node's successors, in node order: the transpose of `preds`,
    /// built on first use (a compile's analyses walk only `preds`).
    succs: OnceLock<Lists<(usize, DepKind)>>,
    free_at: Vec<Option<ValueId>>,
    hoist_rotations: bool,
    rotation_groups: HashMap<ValueId, Vec<(ValueId, i64)>>,
}

impl DepGraph {
    /// Builds the dependence DAG of `scheduled` under `model`.
    ///
    /// `hoist_rotations` is the runtime setting the graph describes (and
    /// its readers follow): a hoisted rotation group executes at its first
    /// member, which orders the group (output dependences) and keeps its
    /// source live until the group's last scheduled member.
    pub fn build(
        scheduled: &ScheduledProgram,
        map: &ScaleMap,
        model: &CostModel,
        hoist_rotations: bool,
    ) -> Self {
        Self::build_inner(scheduled, map, model, hoist_rotations, true)
    }

    /// Builds the DAG from true dependences only — the ordering a
    /// freeing-unaware runtime would enforce. Free points are still
    /// computed, so the parallel-safety checker can demonstrate the races
    /// this graph leaves open; [`DepGraph::build`] adds the anti/output
    /// edges that repair them. No rotation is hoisted.
    pub fn build_true_deps(
        scheduled: &ScheduledProgram,
        map: &ScaleMap,
        model: &CostModel,
    ) -> Self {
        Self::build_inner(scheduled, map, model, false, false)
    }

    fn build_inner(
        scheduled: &ScheduledProgram,
        map: &ScaleMap,
        model: &CostModel,
        hoist_rotations: bool,
        hazard_edges: bool,
    ) -> Self {
        let program = &scheduled.program;
        let n_vals = program.num_ops();
        // Walking back from the outputs marks the live ops, each a node.
        // The first live reader of a value the walk meets is its last, whose
        // completion frees the value's buffer (`analysis::free_points`:
        // none for an output); and the walk counts every value's live
        // readers (`analysis::readers`: an op naming a value twice reads it
        // once), whose lists the sweep below fills in schedule order.
        // (Here and below, the walks index slices: DESIGN.md §5, "Debug
        // builds".)
        let mut live_ops = vec![false; n_vals];
        let mut free_points: Vec<Option<ValueId>> = vec![None; n_vals];
        let mut starts = vec![0usize; n_vals + 1];
        let (live, free_at, start) = (&mut live_ops[..], &mut free_points[..], &mut starts[..]);
        for &o in program.outputs() {
            live[o.index()] = true;
        }
        for id in program.ids().rev() {
            if !live[id.index()] {
                continue;
            }
            let mut prev = None;
            for a in program.op(id).operands() {
                if prev == Some(a) {
                    continue;
                }
                prev = Some(a);
                start[a.index() + 1] += 1;
                if !live[a.index()] {
                    live[a.index()] = true;
                    free_at[a.index()] = Some(id);
                }
            }
        }
        for i in 0..n_vals {
            start[i + 1] += start[i];
        }
        let mut readers = vec![ValueId(0); start[n_vals]];
        let mut fill = start.to_vec();
        let (reader, filled) = (&mut readers[..], &mut fill[..]);
        let rotation_groups = crate::analysis::rotation_groups(program, live, hoist_rotations);
        let mut nodes_of: Vec<Option<usize>> = vec![None; n_vals];
        let node_of = &mut nodes_of[..];
        let mut n = 0;
        for id in program.ids() {
            if live[id.index()] {
                node_of[id.index()] = Some(n);
                n += 1;
            }
        }
        // `leader[m] == l + 1`: node `l` leads the group of member `m`.
        let mut leaders = vec![0; n_vals];
        let leader = &mut leaders[..];
        for group in rotation_groups.values() {
            let l = node_of[group[0].0.index()].expect("leader is live");
            for &(m, _) in &group[1..] {
                leader[m.index()] = l + 1;
            }
        }

        // One sweep over the live ops: the nodes, priced per (level, class)
        // pair once; the readers, for the anti dependences; and each node's
        // predecessors, in turn, with its earliest finish.
        //
        // True dependences run operand → user, in operand order; their one
        // duplicate is an op naming the same operand twice. Anti
        // dependences: every other reader of a ciphertext must finish
        // before the op that frees it (write-after-read on the pool slot),
        // by the id of the value freed; their one duplicate is a reader of
        // two values the op frees. Output dependences: a hoisted rotation
        // group's leader publishes the decomposition its later members
        // read; they are ordered after it.
        let mut nodes = Vec::with_capacity(n);
        let mut preds = Lists::with_capacity(3 * n);
        let mut price: Vec<[Option<f64>; OpClass::ALL.len()]> = Vec::new();
        // `anti[u] == t + 1`: node `u` is already an anti predecessor of `t`.
        let mut antis = vec![0; n];
        let anti = &mut antis[..];
        let mut finish: Vec<f64> = Vec::with_capacity(n);
        for id in program.ids() {
            if !live[id.index()] {
                continue;
            }
            let class = CostModel::classify(program, id);
            let cost_us = match (class, CostModel::charge_level(id, map)) {
                (Some(class), Some(level)) => {
                    let l = level as usize;
                    if price.len() <= l {
                        price.resize(l + 1, [None; OpClass::ALL.len()]);
                    }
                    *price[l][class_index(class)]
                        .get_or_insert_with(|| model.at_level(class, level))
                }
                _ => 0.0,
            };
            let t = nodes.len();
            nodes.push(DepNode { id, class, cost_us });
            let mut begin = 0.0f64;
            let mut prev = None;
            // The ciphertexts `id` frees (an op has at most two operands),
            // their anti dependences added by id below.
            let (mut first, mut second) = (None, None);
            for a in program.op(id).operands() {
                if prev == Some(a) {
                    continue;
                }
                prev = Some(a);
                reader[filled[a.index()]] = id;
                filled[a.index()] += 1;
                let from = node_of[a.index()].expect("a live op's operands are live");
                begin = begin.max(finish[from]);
                preds.push_item((from, DepKind::True));
                if hazard_edges && free_at[a.index()] == Some(id) && program.is_cipher(a) {
                    if first.is_none() {
                        first = Some(a);
                    } else {
                        second = Some(a);
                    }
                }
            }
            if second < first {
                (first, second) = (second, first);
            }
            for a in [first, second] {
                let Some(a) = a else { continue };
                // `id` is the last reader, so the list is whole.
                for &u in &reader[start[a.index()]..start[a.index() + 1]] {
                    let ui = node_of[u.index()].expect("readers are live");
                    if u != id && anti[ui] != t + 1 {
                        anti[ui] = t + 1;
                        begin = begin.max(finish[ui]);
                        preds.push_item((ui, DepKind::Anti));
                    }
                }
            }
            if leader[id.index()] != 0 {
                let l = leader[id.index()] - 1;
                begin = begin.max(finish[l]);
                preds.push_item((l, DepKind::Output));
            }
            preds.push_list();
            finish.push(begin + cost_us);
        }
        DepGraph {
            nodes,
            node_of: nodes_of,
            preds,
            finish,
            succs: OnceLock::new(),
            free_at: free_points,
            hoist_rotations,
            rotation_groups,
        }
    }

    /// The DAG's nodes, in topological (schedule) order.
    pub fn nodes(&self) -> &[DepNode] {
        &self.nodes
    }

    /// The node index of an op; `None` exactly when the op is dead.
    pub fn node(&self, id: ValueId) -> Option<usize> {
        match self.node_of.get(id.index()) {
            Some(&node) => node,
            None => None,
        }
    }

    /// Predecessors (dependences) of a node.
    pub fn preds(&self, node: usize) -> &[(usize, DepKind)] {
        self.preds.get(node)
    }

    /// Successors (dependents) of a node, in node order.
    pub fn succs(&self, node: usize) -> &[(usize, DepKind)] {
        self.succs.get_or_init(|| self.preds.transpose()).get(node)
    }

    /// The op whose completion frees `id`'s ciphertext buffer, or `None`
    /// when `id` is a program output (pinned), plain, or dead.
    pub fn free_at(&self, id: ValueId) -> Option<ValueId> {
        match self.free_at.get(id.index()) {
            Some(&free) => free,
            None => None,
        }
    }

    /// Whether the graph was built with rotation hoisting.
    pub fn hoists_rotations(&self) -> bool {
        self.hoist_rotations
    }

    /// The hoisted rotation groups by source
    /// ([`crate::analysis::rotation_groups`]; none without hoisting).
    pub fn rotation_groups(&self) -> &HashMap<ValueId, Vec<(ValueId, i64)>> {
        &self.rotation_groups
    }

    /// The ops of one critical path, in execution order.
    pub fn critical_path(&self) -> Vec<ValueId> {
        let finish = &self.finish;
        let Some((mut cur, _)) = finish
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .filter(|&(_, &f)| f > 0.0)
        else {
            return Vec::new();
        };
        let mut path = vec![self.nodes[cur].id];
        loop {
            let target = finish[cur] - self.nodes[cur].cost_us;
            let Some(&(p, _)) = self
                .preds(cur)
                .iter()
                .filter(|&&(p, _)| finish[p] > 0.0)
                .max_by(|a, b| finish[a.0].total_cmp(&finish[b.0]))
                .filter(|&&(p, _)| finish[p] >= target - 1e-9)
            else {
                break;
            };
            cur = p;
            path.push(self.nodes[cur].id);
        }
        path.reverse();
        path
    }

    /// Latency of a greedy critical-path list schedule with `k` workers
    /// (µs). `T(1)` equals [`ParallelismEstimate::work_us`]; `T(k)` is
    /// nonincreasing in `k` and bounded below by
    /// [`ParallelismEstimate::span_us`].
    pub fn t_of_k(&self, k: usize) -> f64 {
        let costs: Vec<f64> = self.nodes.iter().map(|n| n.cost_us).collect();
        self.list_schedule(&costs, k)
    }

    /// Latency (µs) of the same list schedule when node `i` takes
    /// `costs[i]` µs (nonnegative, indexed like [`DepGraph::nodes`]) —
    /// [`DepGraph::t_of_k`] with measured latencies in place of the
    /// model's. With `k ≥ nodes` it degenerates to the span.
    ///
    /// Each step takes the worker that frees first and gives it, among the
    /// ready nodes, the one startable earliest; then the one of highest
    /// bottom level (longest path to an exit, own cost included — the
    /// classic critical-path priority); then the earliest in the schedule.
    ///
    /// It runs in O((n + e) log n) on three heaps instead of a scan of the
    /// ready list and of the workers per node. A ready node is *available*
    /// once its ready time is at or before the free time of the worker
    /// being served, and *pending* until then. Every available node is
    /// startable at the worker's time exactly, so among them the rule above
    /// reduces to (bottom ↓, index ↑); when none is available, every
    /// pending node starts at its own ready time and the rule reads (ready
    /// time ↑, bottom ↓, index ↑). Costs are nonnegative, so the earliest
    /// worker time never decreases and an available node stays available:
    /// each node moves pending → available at most once, and the pick is
    /// the one a full scan would make.
    ///
    /// # Panics
    ///
    /// Panics unless `costs` has one entry per node.
    pub fn list_schedule(&self, costs: &[f64], k: usize) -> f64 {
        assert_eq!(costs.len(), self.nodes.len(), "one cost per node");
        let n = self.nodes.len();
        let bottom = self.bottom_levels(costs);
        // A worker beyond the n-th would never leave time zero.
        let mut workers: BinaryHeap<Reverse<Us>> = (0..k.clamp(1, n.max(1)))
            .map(|_| Reverse(Us(0.0)))
            .collect();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.preds(i).len()).collect();
        let mut ready_time = vec![0.0f64; n];
        let mut pending: BinaryHeap<Reverse<(Us, Reverse<Us>, usize)>> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| Reverse((Us(0.0), Reverse(Us(bottom[i])), i)))
            .collect();
        let mut available: BinaryHeap<(Us, Reverse<usize>)> = BinaryHeap::new();
        let mut makespan = 0.0f64;
        for _ in 0..n {
            let Reverse(Us(wt)) = workers.pop().expect("k >= 1");
            while let Some(&Reverse((Us(ready), Reverse(level), i))) = pending.peek() {
                if ready > wt {
                    break;
                }
                pending.pop();
                available.push((level, Reverse(i)));
            }
            let node = match available.pop() {
                Some((_, Reverse(i))) => i,
                None => {
                    let Reverse((_, _, i)) =
                        pending.pop().expect("ready nonempty while nodes remain");
                    i
                }
            };
            let fin = ready_time[node].max(wt) + costs[node];
            workers.push(Reverse(Us(fin)));
            makespan = makespan.max(fin);
            for &(s, _) in self.succs(node) {
                ready_time[s] = ready_time[s].max(fin);
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    pending.push(Reverse((Us(ready_time[s]), Reverse(Us(bottom[s])), s)));
                }
            }
        }
        makespan
    }

    /// Longest path from each node to an exit, its own cost included.
    fn bottom_levels(&self, costs: &[f64]) -> Vec<f64> {
        let mut bottom = vec![0.0f64; costs.len()];
        for i in (0..costs.len()).rev() {
            let below = self
                .succs(i)
                .iter()
                .map(|&(s, _)| bottom[s])
                .fold(0.0, f64::max);
            bottom[i] = below + costs[i];
        }
        bottom
    }

    /// Work, span and width, the last two read off one longest-path
    /// sweep.
    pub fn estimate(&self) -> ParallelismEstimate {
        let finish = &self.finish;
        // Sweep arrival and departure events in time order; at equal times
        // departures go first, so back-to-back ops do not count as
        // overlapping. Times are nonnegative, where an `f64`'s bits order
        // like its value, so one `u64` key per event sorts them: the time's
        // bits, then a low bit set for an arrival. Consecutive ops of one
        // shape run at one time (LeNet-5's 6 500 costed ops make 2 000 runs),
        // so a run of equal times makes one event of its length each way.
        let mut events: Vec<(u64, i32)> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if node.cost_us > 0.0 {
                let arrival = ((finish[i] - node.cost_us).to_bits() << 1) | 1;
                let departure = finish[i].to_bits() << 1;
                match events.as_mut_slice() {
                    [.., (a, up), (d, down)] if *a == arrival && *d == departure => {
                        *up += 1;
                        *down -= 1;
                    }
                    _ => events.extend([(arrival, 1), (departure, -1)]),
                }
            }
        }
        radix_sort(&mut events);
        let mut cur = 0i32;
        let mut peak = 0i32;
        for (_, delta) in events {
            cur += delta;
            peak = peak.max(cur);
        }
        ParallelismEstimate {
            work_us: self.nodes.iter().map(|n| n.cost_us).sum(),
            span_us: finish.iter().fold(0.0f64, |a, &b| a.max(b)),
            max_width: peak.max(0) as usize,
        }
    }

    /// Graphviz DOT rendering: true dependences solid, anti dependences
    /// dashed, output dependences dotted; critical-path nodes doubled.
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write;
        let critical: Vec<bool> = {
            let path = self.critical_path();
            let mut on = vec![false; self.node_of.len()];
            for id in path {
                on[id.index()] = true;
            }
            on
        };
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{name}\" {{");
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
        for node in &self.nodes {
            let label = match node.class {
                Some(c) => format!("%{} {} {:.0}us", node.id.index(), c.name(), node.cost_us),
                None => format!("%{}", node.id.index()),
            };
            let extra = if critical[node.id.index()] {
                ", peripheries=2, color=red"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  n{} [label=\"{}\"{}];",
                node.id.index(),
                label,
                extra
            );
        }
        for i in 0..self.nodes.len() {
            for &(t, kind) in self.succs(i) {
                let style = match kind {
                    DepKind::True => "solid",
                    DepKind::Anti => "dashed",
                    DepKind::Output => "dotted",
                };
                let _ = writeln!(
                    out,
                    "  n{} -> n{} [style={}, tooltip=\"{}\"];",
                    self.nodes[i].id.index(),
                    self.nodes[t].id.index(),
                    style,
                    kind.label()
                );
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Sorts `keys` ascending by their first half, keeping equal keys in
/// order: a least-significant-digit radix sort by 11-bit digits that skips
/// a digit every key shares. It is linear in the keys, where a comparison
/// sort of two events per op was the largest part of
/// [`DepGraph::estimate`].
fn radix_sort(keys: &mut Vec<(u64, i32)>) {
    const BITS: u32 = 11;
    const MASK: u64 = (1 << BITS) - 1;
    const DIGITS: usize = u64::BITS.div_ceil(BITS) as usize;
    let Some(&(first, _)) = keys.first() else {
        return;
    };
    // Every digit's counts, from one read of the keys.
    let mut counts = vec![[0usize; 1 << BITS]; DIGITS];
    for &(key, _) in keys.iter() {
        let mut rest = key;
        for count in counts.iter_mut() {
            count[(rest & MASK) as usize] += 1;
            rest >>= BITS;
        }
    }
    let mut sorted = vec![(0, 0); keys.len()];
    for (d, count) in counts.iter_mut().enumerate() {
        let shift = d as u32 * BITS;
        if count[((first >> shift) & MASK) as usize] == keys.len() {
            continue;
        }
        let mut start = 0;
        for slot in count.iter_mut() {
            let n = *slot;
            *slot = start;
            start += n;
        }
        for &item in keys.iter() {
            let digit = ((item.0 >> shift) & MASK) as usize;
            sorted[count[digit]] = item;
            count[digit] += 1;
        }
        std::mem::swap(keys, &mut sorted);
    }
}

/// Incremental topological consumption of a [`DepGraph`] — the API a
/// DAG-parallel executor drives. Tracks the in-degree of every node;
/// [`DepConsumer::pop_ready`] hands out runnable nodes and
/// [`DepConsumer::complete`] retires one, unlocking its successors. The
/// consumer is purely sequential state: a parallel runtime wraps it in
/// its own lock and calls it from every runner.
#[derive(Debug, Clone)]
pub struct DepConsumer {
    indeg: Vec<usize>,
    ready: BinaryHeap<Reverse<usize>>,
    remaining: usize,
}

impl DepConsumer {
    /// Starts consuming `graph`: every node with no dependences is ready.
    pub fn new(graph: &DepGraph) -> Self {
        let indeg: Vec<usize> = (0..graph.nodes().len())
            .map(|i| graph.preds(i).len())
            .collect();
        let ready = (0..indeg.len())
            .filter(|&i| indeg[i] == 0)
            .map(Reverse)
            .collect();
        DepConsumer {
            remaining: indeg.len(),
            indeg,
            ready,
        }
    }

    /// Takes the ready node earliest in the schedule, or `None` when
    /// nothing is currently runnable. Node order is a topological order, so
    /// a single consumer retires the nodes exactly in schedule order.
    pub fn pop_ready(&mut self) -> Option<usize> {
        self.ready.pop().map(|Reverse(node)| node)
    }

    /// Retires a node whose execution finished, decrementing successor
    /// in-degrees and enqueueing any that become ready.
    ///
    /// # Panics
    ///
    /// Panics if a successor's in-degree underflows — i.e. `node` is
    /// completed twice.
    pub fn complete(&mut self, graph: &DepGraph, node: usize) {
        self.remaining -= 1;
        for &(s, _) in graph.succs(node) {
            self.indeg[s] = self.indeg[s]
                .checked_sub(1)
                .expect("node completed at most once");
            if self.indeg[s] == 0 {
                self.ready.push(Reverse(s));
            }
        }
    }

    /// Nodes not yet retired by [`DepConsumer::complete`].
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Whether every node has been retired.
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::op::Op;
    use crate::params::CompileParams;
    use crate::program::Program;
    use crate::schedule::InputSpec;
    use crate::Frac;

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

    fn graph(p: Program) -> DepGraph {
        let s = scheduled(p);
        let map = s.validate().expect("valid schedule");
        DepGraph::build(&s, &map, &CostModel::paper_table3(), true)
    }

    #[test]
    fn chain_is_serial_fanout_is_parallel() {
        // Chain: span == work, width 1.
        let chain = {
            let b = Builder::new("chain", 8);
            let mut x = b.input("x");
            for _ in 0..4 {
                x = x.clone() + x;
            }
            b.finish(vec![x])
        };
        let g = graph(chain);
        let est = g.estimate();
        assert!((est.span_us - est.work_us).abs() < 1e-9);
        assert_eq!(est.max_width, 1);
        assert!((est.parallelism() - 1.0).abs() < 1e-9);

        // Fan-out: four independent squares of one input then a sum tree —
        // real width, span strictly below work.
        let fan = {
            let b = Builder::new("fan", 8);
            let x = b.input("x");
            let parts: Vec<_> = (0..4i64).map(|i| x.clone().rotate(i) + x.clone()).collect();
            let sum = parts.into_iter().reduce(|a, c| a + c).expect("nonempty");
            b.finish(vec![sum])
        };
        let g = graph(fan);
        let est = g.estimate();
        assert!(est.span_us < est.work_us);
        assert!(est.max_width >= 2, "width {}", est.max_width);
    }

    #[test]
    fn span_bounded_by_work_and_t_of_k_is_monotone() {
        let b = Builder::new("t", 8);
        let x = b.input("x");
        let y = b.input("y");
        let e = x.clone() * x.clone()
            + y.clone() * y.clone()
            + x.clone() * y.clone()
            + x.clone().rotate(1) * y.clone()
            + y.rotate(2) * x;
        let p = b.finish(vec![e]);
        let g = graph(p);
        let est = g.estimate();
        assert!(est.span_us <= est.work_us + 1e-9);
        assert!((g.t_of_k(1) - est.work_us).abs() < 1e-9, "T(1) == work");
        let mut prev = f64::INFINITY;
        for k in [1, 2, 4, 8] {
            let t = g.t_of_k(k);
            assert!(t <= prev + 1e-9, "T({k}) = {t} rises above {prev}");
            assert!(t >= est.span_us - 1e-9, "T(k) >= span");
            prev = t;
        }
    }

    #[test]
    fn anti_edges_order_readers_before_the_free() {
        // x is read by three ops; the last one (by schedule order) frees
        // it, so both earlier readers must be its ancestors.
        let mut p = Program::new("t", 8);
        let x = p.push(Op::Input { name: "x".into() });
        let y = p.push(Op::Input { name: "y".into() });
        let r1 = p.push(Op::Add(x, y));
        let r2 = p.push(Op::Sub(x, y));
        let r3 = p.push(Op::Add(x, x)); // frees x
        let s1 = p.push(Op::Add(r1, r2));
        let out = p.push(Op::Add(s1, r3));
        p.set_outputs(vec![out]);
        let g = graph(p);
        let f = g.free_at(x).expect("x is freed");
        assert_eq!(f, r3, "last reader frees");
        let fi = g.node(r3).unwrap();
        let anti: Vec<ValueId> = g
            .preds(fi)
            .iter()
            .filter(|&&(_, k)| k == DepKind::Anti)
            .map(|&(pn, _)| g.nodes()[pn].id)
            .collect();
        assert!(anti.contains(&r1) && anti.contains(&r2), "{anti:?}");
        // Outputs are pinned.
        assert_eq!(g.free_at(out), None);
    }

    #[test]
    fn an_edge_proposed_twice_is_added_once() {
        // u reads x and y, and f frees both: the anti edge u → f is
        // proposed once per value. d names f twice.
        let mut p = Program::new("t", 8);
        let x = p.push(Op::Input { name: "x".into() });
        let y = p.push(Op::Input { name: "y".into() });
        let u = p.push(Op::Add(x, y));
        let f = p.push(Op::Sub(x, y));
        let d = p.push(Op::Add(f, f));
        let out = p.push(Op::Add(u, d));
        p.set_outputs(vec![out]);
        let g = graph(p);
        let node = |id| g.node(id).unwrap();
        assert_eq!(
            g.succs(node(u)),
            [(node(f), DepKind::Anti), (node(out), DepKind::True)]
        );
        assert_eq!(g.preds(node(d)), [(node(f), DepKind::True)]);
        assert_eq!(
            g.preds(node(f)),
            [
                (node(x), DepKind::True),
                (node(y), DepKind::True),
                (node(u), DepKind::Anti)
            ]
        );
    }

    #[test]
    fn anti_predecessors_follow_the_true_ones_by_the_id_of_the_value_freed() {
        // f names y before x and frees both; x's other reader comes first.
        let mut p = Program::new("t", 8);
        let x = p.push(Op::Input { name: "x".into() });
        let y = p.push(Op::Input { name: "y".into() });
        let reads_y = p.push(Op::Neg(y));
        let reads_x = p.push(Op::Neg(x));
        let f = p.push(Op::Sub(y, x));
        let both = p.push(Op::Add(reads_y, reads_x));
        let out = p.push(Op::Add(both, f));
        p.set_outputs(vec![out]);
        let g = graph(p);
        let node = |id| g.node(id).unwrap();
        assert_eq!(
            g.preds(node(f)),
            [
                (node(y), DepKind::True),
                (node(x), DepKind::True),
                (node(reads_x), DepKind::Anti),
                (node(reads_y), DepKind::Anti)
            ]
        );
    }

    #[test]
    fn list_schedule_takes_costs_other_than_the_models() {
        // Two independent rotations and their sum: with one worker the
        // latencies add up, with two the rotations overlap.
        let b = Builder::new("t", 8);
        let x = b.input("x");
        let y = b.input("y");
        let p = b.finish(vec![x.rotate(1) + y.rotate(2)]);
        let g = graph(p);
        let costs = [0.0, 0.0, 5.0, 3.0, 1.0];
        assert_eq!(g.list_schedule(&costs, 1), 9.0);
        assert_eq!(g.list_schedule(&costs, 2), 6.0);
        assert_eq!(g.list_schedule(&costs, 64), 6.0);
    }

    #[test]
    fn hoisted_rotation_groups_are_ordered_after_their_leader() {
        let b = Builder::new("rots", 8);
        let x = b.input("x");
        let e = x.clone().rotate(1) + x.clone().rotate(2) + x.rotate(3);
        let p = b.finish(vec![e]);
        let s = scheduled(p);
        let map = s.validate().expect("valid");
        let hoisted = DepGraph::build(&s, &map, &CostModel::paper_table3(), true);
        let flat = DepGraph::build(&s, &map, &CostModel::paper_table3(), false);
        let count = |g: &DepGraph| -> usize {
            (0..g.nodes().len())
                .map(|i| {
                    g.preds(i)
                        .iter()
                        .filter(|&&(_, k)| k == DepKind::Output)
                        .count()
                })
                .sum()
        };
        assert_eq!(count(&hoisted), 2, "two members follow the leader");
        assert_eq!(count(&flat), 0);
        // The graph records the setting, and the groups its readers take.
        assert!(hoisted.hoists_rotations() && !flat.hoists_rotations());
        let x = s.program.inputs()[0];
        assert_eq!(hoisted.rotation_groups()[&x].len(), 3);
        assert!(flat.rotation_groups().is_empty());
        // Hoisting serializes the group: span must not shrink.
        assert!(hoisted.estimate().span_us >= flat.estimate().span_us - 1e-9);
    }

    #[test]
    fn critical_path_costs_sum_to_span() {
        let b = Builder::new("t", 8);
        let x = b.input("x");
        let y = b.input("y");
        // Critical path: rotate → add → rotate → add; the (x + y) side arm
        // is cheap and off-path.
        let e = (x.clone().rotate(1) + y.clone()).rotate(2) + (x + y);
        let p = b.finish(vec![e]);
        let s = scheduled(p);
        let map = s.validate().expect("valid");
        let model = CostModel::paper_table3();
        let g = DepGraph::build(&s, &map, &model, true);
        let path = g.critical_path();
        let total: f64 = path
            .iter()
            .map(|&id| model.op_cost(&s.program, id, &map))
            .sum();
        let span = g.estimate().span_us;
        assert!((total - span).abs() < 1e-6, "path {total} vs span {span}");
    }

    #[test]
    fn dot_export_mentions_nodes_and_edge_styles() {
        let b = Builder::new("t", 8);
        let x = b.input("x");
        let sq = x.clone() * x.clone();
        let rots = x.clone().rotate(1) + x.rotate(2);
        let p = b.finish(vec![sq, rots]);
        let g = graph(p);
        let dot = g.to_dot("t");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("style=solid"));
        assert!(dot.contains("style=dotted"), "hoist group edges: {dot}");
        assert!(dot.contains("cipher x cipher"));
    }

    #[test]
    fn consumer_retires_every_node_in_topological_order() {
        let b = Builder::new("t", 8);
        let x = b.input("x");
        let y = b.input("y");
        let prod = x.clone() * y.clone();
        let rot = (x + y).rotate(1);
        let p = b.finish(vec![prod, rot]);
        let g = graph(p);
        let mut consumer = DepConsumer::new(&g);
        assert_eq!(consumer.remaining(), g.nodes().len());
        let mut done = vec![false; g.nodes().len()];
        let mut order = Vec::new();
        while let Some(node) = consumer.pop_ready() {
            // Every dependence retired before its dependent runs.
            for &(p, _) in g.preds(node) {
                assert!(done[p], "pred of node {node} not yet complete");
            }
            done[node] = true;
            order.push(node);
            consumer.complete(&g, node);
        }
        assert!(consumer.is_done());
        // A single consumer is the serial schedule walk.
        assert_eq!(order, (0..g.nodes().len()).collect::<Vec<_>>());
    }

    #[test]
    fn empty_program_yields_default_estimate() {
        let mut p = Program::new("empty", 8);
        let x = p.push(Op::Input { name: "x".into() });
        p.set_outputs(vec![x]);
        let g = graph(p);
        let est = g.estimate();
        assert_eq!(est.work_us, 0.0);
        assert_eq!(est.span_us, 0.0);
        assert_eq!(est.max_width, 0);
        assert_eq!(g.t_of_k(1), 0.0);
        assert_eq!(est, ParallelismEstimate::default());
        assert_eq!(est.parallelism(), 1.0);
    }
}
