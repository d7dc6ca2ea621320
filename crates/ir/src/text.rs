//! Textual IR format: a printer and a parser, for tests, golden files and
//! human inspection of compiled programs.
//!
//! ```text
//! program sobel(slots=4096) {
//!   %0 = input "img"
//!   %1 = const 0.125
//!   %2 = rotate %0, -1
//!   %3 = mul %2, %1
//!   %4 = rescale %3
//!   return %4
//! }
//! ```

use std::fmt;

use crate::op::{ConstValue, Op, ValueId};
use crate::program::Program;
use crate::Frac;

/// Renders a program in the textual format.
pub fn print(program: &Program) -> String {
    let mut out = String::new();
    use fmt::Write;
    writeln!(
        out,
        "program {}(slots={}) {{",
        program.name(),
        program.slots()
    )
    .unwrap();
    for id in program.ids() {
        write!(out, "  {id} = ").unwrap();
        match program.op(id) {
            Op::Input { name } => writeln!(out, "input \"{name}\""),
            Op::Const { value } => match value {
                ConstValue::Scalar(v) => writeln!(out, "const {v:?}"),
                ConstValue::Vector(v) => {
                    write!(out, "const [").unwrap();
                    for (i, x) in v.iter().enumerate() {
                        if i > 0 {
                            write!(out, ", ").unwrap();
                        }
                        write!(out, "{x:?}").unwrap();
                    }
                    writeln!(out, "]")
                }
            },
            Op::Add(a, b) => writeln!(out, "add {a}, {b}"),
            Op::Sub(a, b) => writeln!(out, "sub {a}, {b}"),
            Op::Mul(a, b) => writeln!(out, "mul {a}, {b}"),
            Op::Neg(a) => writeln!(out, "neg {a}"),
            Op::Rotate(a, k) => writeln!(out, "rotate {a}, {k}"),
            Op::Rescale(a) => writeln!(out, "rescale {a}"),
            Op::ModSwitch(a) => writeln!(out, "modswitch {a}"),
            Op::Upscale(a, d) => writeln!(out, "upscale {a}, {d}"),
        }
        .unwrap();
    }
    let rets: Vec<String> = program.outputs().iter().map(|o| o.to_string()).collect();
    writeln!(out, "  return {}", rets.join(", ")).unwrap();
    out.push_str("}\n");
    out
}

/// A parse failure with a line number, column, and message.
///
/// The `Display` rendering intentionally omits the column (older tooling
/// and tests match on the `parse error on line N: …` format); callers that
/// want caret-style output feed the error and the original source through
/// the diagnostics renderer in the `fhe-analysis` crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the failure.
    pub line: usize,
    /// 1-based byte column within that line where parsing stopped.
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    line_no: usize,
    /// The original (untrimmed) line, for column reporting.
    line: &'a str,
    rest: &'a str,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        self.err_back(0, message)
    }

    /// An error pointing `back` bytes before the current position — used
    /// when the offending token was already consumed (e.g. an unknown
    /// mnemonic).
    fn err_back<T>(&self, back: usize, message: impl Into<String>) -> Result<T, ParseError> {
        // `rest` is a suffix of the trimmed line: the failure column is the
        // leading indentation plus however much of the line was consumed.
        let trimmed = self.line.trim();
        let indent = self.line.len() - self.line.trim_start().len();
        let consumed = (trimmed.len() - self.rest.len()).saturating_sub(back);
        Err(ParseError {
            line: self.line_no,
            column: indent + consumed + 1,
            message: message.into(),
        })
    }

    fn eat_ws(&mut self) {
        self.rest = self.rest.trim_start_matches([' ', '\t']);
    }

    fn expect(&mut self, tok: &str) -> Result<(), ParseError> {
        self.eat_ws();
        if let Some(r) = self.rest.strip_prefix(tok) {
            self.rest = r;
            Ok(())
        } else {
            self.err(format!("expected `{tok}` at `{}`", truncate(self.rest)))
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        self.eat_ws();
        let end = self
            .rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '-'))
            .unwrap_or(self.rest.len());
        if end == 0 {
            return self.err(format!("expected identifier at `{}`", truncate(self.rest)));
        }
        let (id, r) = self.rest.split_at(end);
        self.rest = r;
        Ok(id)
    }

    fn integer<T: std::str::FromStr>(&mut self) -> Result<T, ParseError> {
        self.eat_ws();
        let end = self
            .rest
            .char_indices()
            .take_while(|&(i, c)| c.is_ascii_digit() || (i == 0 && c == '-'))
            .map(|(i, c)| i + c.len_utf8())
            .last()
            .unwrap_or(0);
        let (num, r) = self.rest.split_at(end);
        match num.parse() {
            Ok(v) => {
                self.rest = r;
                Ok(v)
            }
            Err(_) => self.err(format!("expected integer at `{}`", truncate(self.rest))),
        }
    }

    fn float(&mut self) -> Result<f64, ParseError> {
        self.eat_ws();
        let end = self
            .rest
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(self.rest.len());
        let (num, r) = self.rest.split_at(end);
        match num.parse::<f64>() {
            // `str::parse` rounds an out-of-range literal (`1e999`) to ±∞,
            // which no plaintext can encode.
            Ok(v) if !v.is_finite() => self.err(format!("constant `{num}` is not finite")),
            Ok(v) => {
                self.rest = r;
                Ok(v)
            }
            Err(_) => self.err(format!("expected number at `{}`", truncate(self.rest))),
        }
    }

    fn value_id(&mut self) -> Result<ValueId, ParseError> {
        self.expect("%")?;
        Ok(ValueId(self.integer()?))
    }

    fn frac(&mut self) -> Result<Frac, ParseError> {
        let num: i128 = self.integer()?;
        self.eat_ws();
        if self.rest.starts_with('/') {
            self.rest = &self.rest[1..];
            let den: i128 = self.integer()?;
            if den == 0 {
                return self.err("zero denominator");
            }
            Ok(Frac::ratio(num, den))
        } else {
            Ok(Frac::from(num))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect("\"")?;
        match self.rest.find('"') {
            Some(end) => {
                let s = self.rest[..end].to_owned();
                self.rest = &self.rest[end + 1..];
                Ok(s)
            }
            None => self.err("unterminated string"),
        }
    }

    fn at_end(&mut self) -> bool {
        self.eat_ws();
        self.rest.is_empty()
    }
}

fn truncate(s: &str) -> &str {
    &s[..s.len().min(20)]
}

/// Parses a program from the textual format produced by [`print()`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line on malformed input,
/// out-of-order ids, or forward references.
pub fn parse(text: &str) -> Result<Program, ParseError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    let mut program: Option<Program> = None;
    let mut done = false;

    for (line_no, raw) in &mut lines {
        let line = raw.trim();
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        let mut p = Parser {
            line_no,
            line: raw,
            rest: line,
        };
        if program.is_none() {
            p.expect("program")?;
            let name = p.ident()?.to_owned();
            p.expect("(")?;
            p.expect("slots")?;
            p.expect("=")?;
            let slots: usize = p.integer()?;
            p.expect(")")?;
            p.expect("{")?;
            if slots == 0 {
                return p.err("slots must be positive");
            }
            program = Some(Program::new(name, slots));
            continue;
        }
        let prog = program.as_mut().expect("set above");
        if line.starts_with('}') {
            done = true;
            break;
        }
        if line.starts_with("return") {
            p.expect("return")?;
            let mut outputs = Vec::new();
            loop {
                let v = p.value_id()?;
                if v.index() >= prog.num_ops() {
                    return p.err(format!("undefined value {v}"));
                }
                outputs.push(v);
                p.eat_ws();
                if p.rest.starts_with(',') {
                    p.rest = &p.rest[1..];
                } else {
                    break;
                }
            }
            prog.set_outputs(outputs);
            continue;
        }
        let id = p.value_id()?;
        if id.index() != prog.num_ops() {
            return p.err(format!("expected id %{} here, got {id}", prog.num_ops()));
        }
        p.expect("=")?;
        let mnemonic = p.ident()?;
        let operand = |p: &mut Parser| -> Result<ValueId, ParseError> {
            let v = p.value_id()?;
            if v >= id {
                return p.err(format!("forward reference to {v}"));
            }
            Ok(v)
        };
        let op = match mnemonic {
            "input" => Op::Input { name: p.string()? },
            "const" => {
                p.eat_ws();
                if p.rest.starts_with('[') {
                    p.rest = &p.rest[1..];
                    let mut vals = Vec::new();
                    loop {
                        p.eat_ws();
                        if p.rest.starts_with(']') {
                            p.rest = &p.rest[1..];
                            break;
                        }
                        vals.push(p.float()?);
                        p.eat_ws();
                        if p.rest.starts_with(',') {
                            p.rest = &p.rest[1..];
                        }
                    }
                    Op::Const {
                        value: ConstValue::from(vals),
                    }
                } else {
                    Op::Const {
                        value: ConstValue::Scalar(p.float()?),
                    }
                }
            }
            "add" | "sub" | "mul" => {
                let a = operand(&mut p)?;
                p.expect(",")?;
                let b = operand(&mut p)?;
                match mnemonic {
                    "add" => Op::Add(a, b),
                    "sub" => Op::Sub(a, b),
                    _ => Op::Mul(a, b),
                }
            }
            "neg" => Op::Neg(operand(&mut p)?),
            "rotate" => {
                let a = operand(&mut p)?;
                p.expect(",")?;
                Op::Rotate(a, p.integer()?)
            }
            "rescale" => Op::Rescale(operand(&mut p)?),
            "modswitch" => Op::ModSwitch(operand(&mut p)?),
            "upscale" => {
                let a = operand(&mut p)?;
                p.expect(",")?;
                Op::Upscale(a, p.frac()?)
            }
            other => return p.err_back(other.len(), format!("unknown op `{other}`")),
        };
        if !p.at_end() {
            return p.err(format!("trailing input `{}`", truncate(p.rest)));
        }
        prog.push(op);
    }

    let prog = program.ok_or(ParseError {
        line: 1,
        column: 1,
        message: "empty input".into(),
    })?;
    if !done {
        return Err(ParseError {
            line: text.lines().count(),
            column: 1,
            message: "missing `}`".into(),
        });
    }
    Ok(prog)
}

/// Like [`parse`], but also returns every `//` comment line (with the
/// `//` prefix stripped and surrounding whitespace trimmed), in file
/// order. The comments are otherwise ignored by the grammar; tooling
/// (e.g. the fuzz corpus) uses them to carry reproduction metadata —
/// compile parameters, failure labels — alongside a program in one file.
///
/// # Errors
///
/// Same failure modes as [`parse`].
pub fn parse_with_comments(text: &str) -> Result<(Program, Vec<String>), ParseError> {
    let program = parse(text)?;
    let comments = text
        .lines()
        .map(str::trim)
        .filter_map(|l| l.strip_prefix("//"))
        .map(|l| l.trim().to_owned())
        .collect();
    Ok((program, comments))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;

    fn sample() -> Program {
        let b = Builder::new("sample", 8);
        let x = b.input("x");
        let c = b.constant(vec![1.0, 2.5]);
        let e = (x.clone().rotate(-2) * c + x.clone()) - x.clone().square();
        let n = -e;
        b.finish(vec![n, x])
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let p = sample();
        let text = print(&p);
        let q = parse(&text).expect("roundtrip parse");
        assert_eq!(q.num_ops(), p.num_ops());
        assert_eq!(q.outputs(), p.outputs());
        assert_eq!(q.slots(), p.slots());
        assert_eq!(q.name(), p.name());
        for id in p.ids() {
            assert_eq!(q.op(id), p.op(id), "op {id} differs");
        }
        // Idempotent printing.
        assert_eq!(print(&q), text);
    }

    #[test]
    fn roundtrip_scale_management_ops() {
        let mut p = Program::new("sm", 4);
        let x = p.push(Op::Input { name: "x".into() });
        let r = p.push(Op::Rescale(x));
        let m = p.push(Op::ModSwitch(r));
        let u = p.push(Op::Upscale(m, Frac::ratio(41, 2)));
        p.set_outputs(vec![u]);
        let q = parse(&print(&p)).unwrap();
        assert_eq!(
            q.op(ValueId(3)),
            &Op::Upscale(ValueId(2), Frac::ratio(41, 2))
        );
    }

    #[test]
    fn rejects_forward_reference() {
        let text = "program t(slots=4) {\n  %0 = neg %1\n  return %0\n}\n";
        let err = parse(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("integer") || err.message.contains("forward"));
    }

    #[test]
    fn rejects_unknown_op() {
        let text = "program t(slots=4) {\n  %0 = frobnicate %0\n  return %0\n}\n";
        let err = parse(text).unwrap_err();
        assert!(err.message.contains("unknown op"));
    }

    #[test]
    fn rejects_missing_brace() {
        let text = "program t(slots=4) {\n  %0 = input \"x\"\n  return %0\n";
        let err = parse(text).unwrap_err();
        assert!(err.message.contains("missing"));
    }

    #[test]
    fn errors_carry_columns() {
        // The unknown mnemonic starts at column 8 (two spaces of indent,
        // then `%0 = `).
        let text = "program t(slots=4) {\n  %0 = frobnicate %0\n  return %0\n}\n";
        let err = parse(text).unwrap_err();
        assert_eq!((err.line, err.column), (2, 8));
        // A bad rotate offset: the column lands where the integer should be.
        let text =
            "program t(slots=4) {\n  %0 = input \"x\"\n  %1 = rotate %0, x\n  return %1\n}\n";
        let err = parse(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.column >= 18, "column {} too early", err.column);
        // Display stays backward-compatible (no column).
        assert_eq!(
            err.to_string(),
            format!("parse error on line 3: {}", err.message)
        );
    }

    #[test]
    fn rejects_overflowing_constants() {
        // `1e999` parses to +∞; scalar and vector constants both refuse it,
        // pointing at the literal.
        let scalar = "program t(slots=4) {\n  %0 = const 1e999\n  return %0\n}\n";
        let err = parse(scalar).unwrap_err();
        assert_eq!((err.line, err.column), (2, 14));
        assert!(err.message.contains("not finite"), "{}", err.message);
        let vector = "program t(slots=4) {\n  %0 = const [1, -1e999]\n  return %0\n}\n";
        let err = parse(vector).unwrap_err();
        assert_eq!((err.line, err.column), (2, 18));
        assert!(err.message.contains("not finite"), "{}", err.message);
    }

    #[test]
    fn comments_and_blank_lines_ok() {
        let text = "\n// header\nprogram t(slots=4) {\n\n  // the input\n  %0 = input \"x\"\n  return %0\n}\n";
        let p = parse(text).unwrap();
        assert_eq!(p.num_ops(), 1);
    }

    #[test]
    fn comments_are_surfaced_by_parse_with_comments() {
        let text = "// fuzz-label: panic:ckks\n// note\nprogram t(slots=4) {\n  // inner\n  %0 = input \"x\"\n  return %0\n}\n";
        let (p, comments) = parse_with_comments(text).unwrap();
        assert_eq!(p.num_ops(), 1);
        assert_eq!(comments, vec!["fuzz-label: panic:ckks", "note", "inner"]);
    }

    #[test]
    fn negative_rotation_roundtrips() {
        let text =
            "program t(slots=4) {\n  %0 = input \"x\"\n  %1 = rotate %0, -7\n  return %1\n}\n";
        let p = parse(text).unwrap();
        assert_eq!(p.op(ValueId(1)), &Op::Rotate(ValueId(0), -7));
    }
}
