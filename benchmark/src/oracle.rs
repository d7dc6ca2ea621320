//! The output oracle. It does not trust the system under test: references
//! come from `fhe_runtime::plain::execute` on the *source* program (the
//! executors' own `reference` field runs the scheduled one), the default
//! seed's references are pinned by digests committed under `expected/`,
//! and every timed call runs under `catch_unwind`, so a panic is a counted
//! failure instead of a dead run.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use fhe_ir::Program;

/// Largest absolute slot error an encrypted output may show. Reserve sits
/// near 1e-10 and EVA between 1e-8 and 5e-6 on these inputs; a wrapped or
/// mis-scaled slot is off by 1e-1 or more.
pub const TOLERANCE: f64 = 1e-4;

/// The seed whose references are committed under `expected/`.
pub const DEFAULT_SEED: u64 = 1;

pub type Inputs = HashMap<String, Vec<f64>>;
pub type Outputs = Vec<Vec<f64>>;

pub fn reference(source: &Program, inputs: &Inputs) -> Outputs {
    fhe_runtime::plain::execute(source, inputs)
}

/// `Err` with the reason unless `actual` has the reference's shape, is
/// finite, and is within [`TOLERANCE`] of it in every slot.
pub fn close(actual: &Outputs, reference: &Outputs) -> Result<(), String> {
    if actual.len() != reference.len() {
        return Err(format!(
            "{} outputs, reference has {}",
            actual.len(),
            reference.len()
        ));
    }
    for (k, (a, r)) in actual.iter().zip(reference).enumerate() {
        if a.len() != r.len() {
            return Err(format!(
                "output {k}: {} slots, reference {}",
                a.len(),
                r.len()
            ));
        }
        let worst = a
            .iter()
            .zip(r)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, |m, e| if e > m || e.is_nan() { e } else { m });
        // A NaN slot fails too: it is not below the tolerance.
        if worst.is_nan() || worst > TOLERANCE {
            return Err(format!(
                "output {k}: max abs error {worst:e} > {TOLERANCE:e}"
            ));
        }
    }
    Ok(())
}

/// For two executions in the clear, which differ by rounding alone: every
/// slot within 1e-9 of the reference, relative to its largest slot.
pub fn same_in_the_clear(actual: &Outputs, reference: &Outputs) -> Result<(), String> {
    let largest = reference
        .iter()
        .flatten()
        .fold(0.0f64, |m, v| m.max(v.abs()));
    let shape = |o: &Outputs| o.iter().map(Vec::len).collect::<Vec<_>>();
    let near = |(a, r): (&f64, &f64)| (a - r).abs() <= 1e-9 * largest;
    if shape(actual) == shape(reference)
        && actual
            .iter()
            .flatten()
            .zip(reference.iter().flatten())
            .all(near)
    {
        Ok(())
    } else {
        Err("outputs differ by more than rounding".into())
    }
}

/// What was attempted, what failed, and why.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations and failed run-level assertions, in order.
    pub notes: Vec<String>,
    /// Run-level assertions that failed (digest drift, executors
    /// disagreeing, the paper's ratio out of band): not operations, but
    /// the run is not correct.
    pub broken: u64,
}

impl Tally {
    /// Runs one operation. It fails if it panics, returns `Err`, or its
    /// result does not pass the caller's check (folded into `f`).
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".into());
            Err(format!("panicked: {msg}"))
        });
        match outcome {
            Ok(v) => Some(v),
            Err(why) => {
                self.failed += 1;
                self.notes.push(format!("{what}: {why}"));
                None
            }
        }
    }

    /// Records a run-level assertion.
    pub fn require(&mut self, what: &str, verdict: Result<(), String>) {
        if let Err(why) = verdict {
            self.broken += 1;
            self.notes.push(format!("{what}: {why}"));
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.broken += other.broken;
        self.notes.extend(other.notes);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken == 0
    }
}

/// One line per output: its label, the slot sum, the first eight slots.
pub fn digest(label: &str, outputs: &Outputs) -> Vec<String> {
    outputs
        .iter()
        .enumerate()
        .map(|(k, slots)| {
            let mut line = format!("{label}.{k} {:?}", slots.iter().sum::<f64>());
            for v in slots.iter().take(8) {
                line.push_str(&format!(" {v:?}"));
            }
            line
        })
        .collect()
}

fn expected_path(workload: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected"))
        .join(format!("{workload}.digest"))
}

/// Compares the digest against the committed one (`bless` rewrites it
/// instead). Numbers may differ in the last places, never in the ninth.
pub fn check_digest(workload: &str, lines: &[String], bless: bool) -> Result<(), String> {
    let path = expected_path(workload);
    if bless {
        return std::fs::create_dir_all(path.parent().expect("a file in expected/"))
            .and_then(|()| std::fs::write(&path, lines.join("\n") + "\n"))
            .map_err(|e| format!("{}: {e}", path.display()));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let expected: Vec<&str> = text.lines().collect();
    if expected.len() != lines.len() {
        return Err(format!(
            "{} lines, committed {}",
            lines.len(),
            expected.len()
        ));
    }
    for (got, want) in lines.iter().zip(expected) {
        let (mut g, mut w) = (got.split(' '), want.split(' '));
        if g.next() != w.next() {
            return Err(format!("label drifted: `{got}` vs committed `{want}`"));
        }
        let nums = |it: std::str::Split<'_, char>| -> Vec<f64> {
            it.map(|t| t.parse().unwrap_or(f64::NAN)).collect()
        };
        let (g, w) = (nums(g), nums(w));
        let largest = w.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let same = g.len() == w.len()
            && g.iter()
                .zip(&w)
                .all(|(a, b)| (a - b).abs() <= 1e-9 * largest);
        if !same {
            return Err(format!("reference drifted: `{got}` vs committed `{want}`"));
        }
    }
    Ok(())
}

/// SplitMix64: the harness's only source of randomness, so every stream
/// is a pure function of `--seed`.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_rejects_shape_error_and_nan() {
        let r = vec![vec![1.0, 2.0]];
        assert!(close(&vec![vec![1.0, 2.0 + 1e-6]], &r).is_ok());
        assert!(close(&vec![vec![1.0, 2.001]], &r).is_err());
        assert!(close(&vec![vec![1.0, f64::NAN]], &r).is_err());
        assert!(close(&vec![vec![1.0]], &r).is_err());
        assert!(close(&vec![], &r).is_err());
        let tiny = vec![vec![1e-37, -3e-37]];
        assert!(same_in_the_clear(&tiny, &tiny).is_ok());
        assert!(same_in_the_clear(&vec![vec![1e-37, -2e-37]], &tiny).is_err());
        assert!(same_in_the_clear(&vec![vec![1e-37]], &tiny).is_err());
    }

    #[test]
    fn a_panic_is_a_counted_failure() {
        let mut t = Tally::default();
        assert_eq!(t.op("fine", || Ok(3)), Some(3));
        assert_eq!(t.op::<()>("bad", || Err("no".into())), None);
        assert_eq!(t.op::<()>("boom", || panic!("kaput")), None);
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert!(t.notes[1].contains("kaput"));
        assert!(!t.correct());
    }

    #[test]
    fn digest_compare_tolerates_last_places_only() {
        let lines = digest("out", &vec![vec![0.1 + 0.2, 1.0, 2.0]]);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("out.0 3.3"));
        assert!(check_digest("no-such-workload", &lines, false).is_err());
    }
}
