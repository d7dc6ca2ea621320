//! Rescale hoisting against the algorithm it replaced.
//!
//! `reserve_core::hoist` decides in rounds, but each round revisits only
//! the adds the previous one changed, and the schedule is rebuilt once, at
//! the end. It promises what a whole-program round, repeated until one
//! applies nothing, gives: the same schedule text op for op and the same
//! hoist count. Those rounds live on here, and only here, as the reference
//! — written against the public IR API — and both run over the golden
//! suite at four waterlines and 300 generated add- and multiply-heavy
//! programs.
//!
//! Nothing here asserts a wall time; `tests/compile_scaling.rs` gates the
//! cost.

use std::collections::{HashMap, HashSet};

use fhe_fuzz::{generate, GenConfig, OpMix};
use fhe_ir::{
    text, CompileParams, CostModel, Op, OpClass, Program, ProgramEditor, ScaleCompiler,
    ScheduledProgram, ValueId,
};
use fhe_workloads::{suite, Size};
use reserve_core::{Mode, ReserveCompiler};

/// Whole-program rounds until one applies nothing.
fn reference_hoist(scheduled: &mut ScheduledProgram, cost: &CostModel) -> usize {
    let mut total = 0;
    loop {
        let applied = reference_round(scheduled, cost);
        if applied == 0 {
            return total;
        }
        total += applied;
    }
}

/// One round over the whole schedule: candidate adds (two distinct
/// rescales, neither an output, of values in one state), shrunk until every
/// use of a consumed rescale is a candidate, grouped by shared rescales,
/// applied per group of positive benefit, and the program rebuilt.
fn reference_round(scheduled: &mut ScheduledProgram, cost: &CostModel) -> usize {
    let program = &scheduled.program;
    let map = scheduled.validate().expect("a valid schedule");
    let users = program.users();
    let is_output: HashSet<ValueId> = program.outputs().iter().copied().collect();

    let mut candidates: HashMap<ValueId, (ValueId, ValueId)> = HashMap::new();
    for id in program.ids() {
        let (a, b) = match program.op(id) {
            Op::Add(a, b) | Op::Sub(a, b) => (*a, *b),
            _ => continue,
        };
        if a == b || is_output.contains(&a) || is_output.contains(&b) {
            continue;
        }
        let (ra, rb) = match (program.op(a), program.op(b)) {
            (Op::Rescale(ra), Op::Rescale(rb)) => (*ra, *rb),
            _ => continue,
        };
        if map.scale_bits(ra) != map.scale_bits(rb) || map.level(ra) != map.level(rb) {
            continue;
        }
        candidates.insert(id, (ra, rb));
    }
    loop {
        let bad: Vec<ValueId> = (candidates.keys().copied())
            .filter(|&add| {
                (program.op(add).operands()).any(|rs| {
                    users[rs.index()]
                        .iter()
                        .any(|u| !candidates.contains_key(u))
                })
            })
            .collect();
        if bad.is_empty() {
            break;
        }
        for add in bad {
            candidates.remove(&add);
        }
    }

    // Union-find over adds sharing a rescale.
    let mut adds: Vec<ValueId> = candidates.keys().copied().collect();
    adds.sort_unstable();
    let mut parent: Vec<usize> = (0..adds.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut owner: HashMap<ValueId, usize> = HashMap::new();
    for (i, &add) in adds.iter().enumerate() {
        for rs in program.op(add).operands() {
            if let Some(&other) = owner.get(&rs) {
                let (a, b) = (find(&mut parent, i), find(&mut parent, other));
                parent[a] = b;
            } else {
                owner.insert(rs, i);
            }
        }
    }
    let mut groups: HashMap<usize, Vec<ValueId>> = HashMap::new();
    for (i, &add) in adds.iter().enumerate() {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(add);
    }

    let mut consumed = vec![false; program.num_ops()];
    let mut applied: HashMap<ValueId, (ValueId, ValueId)> = HashMap::new();
    for group in groups.values() {
        let mut sources: Vec<ValueId> = group
            .iter()
            .flat_map(|&add| program.op(add).operands())
            .collect();
        sources.sort_unstable();
        sources.dedup();
        let mut benefit = 0.0;
        for &add in group {
            let l = map.level(add);
            benefit += cost.at_level(OpClass::AddCipher, l)
                - cost.at_level(OpClass::AddCipher, l + 1)
                - cost.at_level(OpClass::Rescale, l);
        }
        for &s in &sources {
            benefit += cost.at_level(OpClass::Rescale, map.level(s));
        }
        if benefit > 0.0 {
            for &s in &sources {
                consumed[s.index()] = true;
            }
            for &add in group {
                applied.insert(add, candidates[&add]);
            }
        }
    }
    if applied.is_empty() {
        return 0;
    }
    let mut ed = ProgramEditor::new(program);
    for id in program.ids() {
        if consumed[id.index()] {
            continue;
        }
        if let Some(&(ra, rb)) = applied.get(&id) {
            let operands = [ed.map_operand(ra), ed.map_operand(rb)];
            let add = ed.emit_with(id, &operands);
            let rs = ed.push(Op::Rescale(add));
            ed.set_mapping(id, rs);
        } else {
            ed.emit(id);
        }
    }
    scheduled.program = ed.finish();
    applied.len()
}

/// Hoists RA's schedule of `program` both ways and holds the results equal;
/// returns the hoist count (0 when RA cannot compile the program).
fn same_hoists(label: &str, program: &Program, params: &CompileParams) -> usize {
    let Ok(compiled) = ReserveCompiler::with_mode(Mode::Ra).compile(program, params) else {
        return 0;
    };
    let cost = CostModel::paper_table3();
    let (mut ours, mut reference) = (compiled.scheduled.clone(), compiled.scheduled);
    let n = reserve_core::hoist::hoist(&mut ours, &cost);
    assert_eq!(
        n,
        reference_hoist(&mut reference, &cost),
        "{label}: hoist count"
    );
    assert_eq!(
        text::print(&ours.program),
        text::print(&reference.program),
        "{label}: schedule"
    );
    n
}

#[test]
fn the_golden_suite_hoists_as_whole_program_rounds_do() {
    let mut hoists = 0;
    for w in suite(Size::Test) {
        for (waterline, reserve) in [(20, 0), (30, 0), (40, 8), (50, 8)] {
            let params = CompileParams {
                output_reserve_bits: reserve,
                ..CompileParams::new(waterline)
            };
            hoists += same_hoists(&format!("{} W{waterline}", w.name), &w.program, &params);
        }
    }
    println!("{hoists} hoists");
    assert!(hoists > 0, "the suite hoists something");
}

#[test]
fn generated_sums_of_products_hoist_as_whole_program_rounds_do() {
    let cfg = GenConfig {
        max_ops: 60,
        opmix: OpMix {
            add: 8,
            sub: 2,
            mul: 4,
            mul_const: 2,
            rotate: 0,
            neg: 0,
        },
        ..GenConfig::default()
    };
    let params = CompileParams::new(30);
    let (mut hoists, mut cascading) = (0, 0);
    for seed in 0..300 {
        let program = generate(seed, &cfg);
        let mut once = ReserveCompiler::with_mode(Mode::Ra)
            .compile(&program, &params)
            .map(|c| c.scheduled);
        let n = same_hoists(&format!("seed {seed}"), &program, &params);
        hoists += n;
        // A program whose first round leaves work for a second one.
        if let Ok(s) = &mut once {
            if reference_round(s, &CostModel::paper_table3()) < n {
                cascading += 1;
            }
        }
    }
    println!("{hoists} hoists, {cascading} programs hoisting over several rounds");
    assert!(hoists > 0 && cascading > 0);
}
