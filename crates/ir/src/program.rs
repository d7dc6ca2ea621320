//! SSA program representation: a DAG of RNS-CKKS operations.

use std::collections::HashMap;

use crate::op::{Op, ValueId};

/// An SSA program over encrypted vectors: the `Prg`/`F` of the paper's
/// simplified syntax (Fig. 4), without scale-management ops until a compiler
/// inserts them.
///
/// Ops are stored in topological order: every operand id is strictly smaller
/// than the id of the op using it. This invariant is enforced on insertion
/// and makes forward/backward dataflow walks trivial.
///
/// # Examples
///
/// ```
/// use fhe_ir::{Program, Op};
/// let mut p = Program::new("square", 4);
/// let x = p.push(Op::Input { name: "x".into() });
/// let x2 = p.push(Op::Mul(x, x));
/// p.set_outputs(vec![x2]);
/// assert_eq!(p.num_ops(), 2);
/// assert_eq!(p.inputs(), &[x]);
/// ```
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    slots: usize,
    ops: Vec<Op>,
    outputs: Vec<ValueId>,
    inputs: Vec<ValueId>,
    plain: Vec<bool>,
}

impl Program {
    /// Creates an empty program with the given name and SIMD slot count.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    pub fn new(name: impl Into<String>, slots: usize) -> Self {
        assert!(slots > 0, "a program must have at least one slot");
        Program {
            name: name.into(),
            slots,
            ops: Vec::new(),
            outputs: Vec::new(),
            inputs: Vec::new(),
            plain: Vec::new(),
        }
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of SIMD slots in every value.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Appends an op, returning the id of the value it defines.
    ///
    /// # Panics
    ///
    /// Panics if any operand id is out of range (violating SSA dominance).
    pub fn push(&mut self, op: Op) -> ValueId {
        let id = ValueId(self.ops.len() as u32);
        for operand in op.operands() {
            assert!(
                operand < id,
                "operand {operand} of op {} does not dominate {id}",
                op.mnemonic()
            );
        }
        let plain = match &op {
            Op::Const { .. } => true,
            Op::Input { .. } => false,
            other => other.operands().all(|o| self.plain[o.index()]),
        };
        if matches!(op, Op::Input { .. }) {
            self.inputs.push(id);
        }
        self.plain.push(plain);
        self.ops.push(op);
        id
    }

    /// Declares the program outputs (the `ret` of the paper's syntax).
    ///
    /// # Panics
    ///
    /// Panics if any output id is out of range.
    pub fn set_outputs(&mut self, outputs: Vec<ValueId>) {
        for &o in &outputs {
            assert!(o.index() < self.ops.len(), "output {o} is undefined");
        }
        self.outputs = outputs;
    }

    /// The op defining `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn op(&self, id: ValueId) -> &Op {
        &self.ops[id.index()]
    }

    /// All ops in topological (definition) order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of ops (== number of SSA values).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Ids of all values, in topological order.
    pub fn ids(&self) -> impl DoubleEndedIterator<Item = ValueId> + '_ {
        (0..self.ops.len() as u32).map(ValueId)
    }

    /// The declared outputs.
    pub fn outputs(&self) -> &[ValueId] {
        &self.outputs
    }

    /// The ciphertext inputs, in declaration order.
    pub fn inputs(&self) -> &[ValueId] {
        &self.inputs
    }

    /// Whether `id` is a plaintext value (constants and plain-only derived
    /// values); ciphertext otherwise.
    pub fn is_plain(&self, id: ValueId) -> bool {
        self.plain[id.index()]
    }

    /// Whether `id` is a ciphertext value.
    pub fn is_cipher(&self, id: ValueId) -> bool {
        !self.plain[id.index()]
    }

    /// Computes the use lists: `users()[v]` holds every op id that consumes
    /// `v` (an op using `v` twice appears twice), plus no entry for outputs.
    pub fn users(&self) -> Vec<Vec<ValueId>> {
        let mut users = vec![Vec::new(); self.ops.len()];
        for id in self.ids() {
            for operand in self.op(id).operands() {
                users[operand.index()].push(id);
            }
        }
        users
    }

    /// Counts ops by predicate.
    pub fn count_ops(&self, pred: impl Fn(&Op) -> bool) -> usize {
        self.ops.iter().filter(|op| pred(op)).count()
    }

    /// The input id with the given name, if any.
    pub fn input_named(&self, name: &str) -> Option<ValueId> {
        self.inputs.iter().copied().find(|&id| match self.op(id) {
            Op::Input { name: n } => n == name,
            _ => false,
        })
    }
}

/// Incremental rewriter that produces a new [`Program`] from an old one,
/// remapping value ids and allowing extra ops (e.g. scale management) to be
/// interleaved.
///
/// Typical pattern: walk the source in topological order, [`ProgramEditor::push`]
/// new ops as needed, and [`ProgramEditor::map_operand`]/[`ProgramEditor::set_mapping`]
/// to route uses through the freshly inserted ops.
#[derive(Debug)]
pub struct ProgramEditor<'a> {
    source: &'a Program,
    dest: Program,
    mapping: HashMap<ValueId, ValueId>,
}

impl<'a> ProgramEditor<'a> {
    /// Starts rewriting `source` into an empty program with the same name
    /// and slot count.
    pub fn new(source: &'a Program) -> Self {
        ProgramEditor {
            source,
            dest: Program::new(source.name().to_owned(), source.slots()),
            mapping: HashMap::new(),
        }
    }

    /// The program being rewritten.
    pub fn source(&self) -> &Program {
        self.source
    }

    /// The destination id currently associated with source value `old`.
    ///
    /// # Panics
    ///
    /// Panics if `old` has not been emitted or mapped yet.
    pub fn map_operand(&self, old: ValueId) -> ValueId {
        *self
            .mapping
            .get(&old)
            .unwrap_or_else(|| panic!("source value {old} has no mapping yet"))
    }

    /// Overrides the mapping of source value `old` to destination `new`
    /// (used to route subsequent uses through inserted scale management).
    pub fn set_mapping(&mut self, old: ValueId, new: ValueId) {
        self.mapping.insert(old, new);
    }

    /// Appends a brand-new op (already expressed in destination ids).
    pub fn push(&mut self, op: Op) -> ValueId {
        self.dest.push(op)
    }

    /// Copies the source op `old` with operands remapped through the current
    /// mapping, records `old → new`, and returns the new id.
    pub fn emit(&mut self, old: ValueId) -> ValueId {
        let op = self.source.op(old).map_operands(|o| self.map_operand(o));
        let new = self.dest.push(op);
        self.mapping.insert(old, new);
        new
    }

    /// Copies the source op `old` but with explicitly chosen destination
    /// operands, records the mapping, and returns the new id.
    pub fn emit_with(&mut self, old: ValueId, operands: &[ValueId]) -> ValueId {
        let mut it = operands.iter().copied();
        let op = self.source.op(old).map_operands(|_| {
            it.next()
                .expect("emit_with: not enough replacement operands")
        });
        assert!(
            it.next().is_none(),
            "emit_with: too many replacement operands"
        );
        let new = self.dest.push(op);
        self.mapping.insert(old, new);
        new
    }

    /// Finishes the rewrite: remaps the source outputs and returns the new
    /// program.
    ///
    /// # Panics
    ///
    /// Panics if some source output was never emitted or mapped.
    pub fn finish(mut self) -> Program {
        let outputs = self
            .source
            .outputs()
            .iter()
            .map(|&o| self.map_operand(o))
            .collect();
        self.dest.set_outputs(outputs);
        self.dest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::ConstValue;

    fn sample() -> Program {
        let mut p = Program::new("t", 8);
        let x = p.push(Op::Input { name: "x".into() });
        let c = p.push(Op::Const {
            value: ConstValue::Scalar(2.0),
        });
        let m = p.push(Op::Mul(x, c));
        let a = p.push(Op::Add(m, x));
        p.set_outputs(vec![a]);
        p
    }

    #[test]
    fn push_tracks_inputs_and_plainness() {
        let p = sample();
        assert_eq!(p.inputs().len(), 1);
        assert!(p.is_plain(ValueId(1)));
        assert!(p.is_cipher(ValueId(2)), "cipher × plain is cipher");
        assert!(p.is_cipher(ValueId(3)));
        assert_eq!(p.input_named("x"), Some(ValueId(0)));
        assert_eq!(p.input_named("y"), None);
    }

    #[test]
    fn plain_times_plain_is_plain() {
        let mut p = Program::new("t", 4);
        let a = p.push(Op::Const {
            value: ConstValue::Scalar(1.0),
        });
        let b = p.push(Op::Const {
            value: ConstValue::Scalar(2.0),
        });
        let m = p.push(Op::Mul(a, b));
        assert!(p.is_plain(m));
    }

    #[test]
    #[should_panic(expected = "dominate")]
    fn forward_reference_panics() {
        let mut p = Program::new("t", 4);
        p.push(Op::Neg(ValueId(5)));
    }

    #[test]
    fn users_lists_every_use() {
        let p = sample();
        let users = p.users();
        // x (id 0) is used by mul (2) and add (3).
        assert_eq!(users[0], vec![ValueId(2), ValueId(3)]);
        assert_eq!(users[2], vec![ValueId(3)]);
        assert!(users[3].is_empty());
    }

    #[test]
    fn duplicate_operand_listed_twice() {
        let mut p = Program::new("t", 4);
        let x = p.push(Op::Input { name: "x".into() });
        let sq = p.push(Op::Mul(x, x));
        p.set_outputs(vec![sq]);
        assert_eq!(p.users()[0], vec![sq, sq]);
    }

    #[test]
    fn editor_inserts_and_remaps() {
        let p = sample();
        let mut ed = ProgramEditor::new(&p);
        for id in p.ids() {
            let new = ed.emit(id);
            // Insert a rescale after the mul and route later uses through it.
            if matches!(p.op(id), Op::Mul(..)) {
                let rs = ed.push(Op::Rescale(new));
                ed.set_mapping(id, rs);
            }
        }
        let out = ed.finish();
        assert_eq!(out.num_ops(), p.num_ops() + 1);
        assert!(matches!(out.op(out.outputs()[0]), Op::Add(..)));
        let add = out.op(out.outputs()[0]);
        let ops: Vec<_> = add.operands().collect();
        assert!(matches!(out.op(ops[0]), Op::Rescale(_)));
    }

    #[test]
    #[should_panic(expected = "no mapping")]
    fn editor_unmapped_operand_panics() {
        let p = sample();
        let ed = ProgramEditor::new(&p);
        let _ = ed.map_operand(ValueId(0));
    }
}
