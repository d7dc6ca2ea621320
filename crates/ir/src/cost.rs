//! Latency cost model for RNS-CKKS operations (Table 3 of the paper).
//!
//! Latency depends on the op kind and the level of its operands. The default
//! model is seeded with the paper's measurements (SEAL 3.6 on an i7-8700,
//! `N = 2^15`, `R = 2^60`, µs); [`CostModel::from_rows`] lets callers
//! recalibrate from their own measurements (e.g. of the `fhe-ckks` backend).
//!
//! Levels may be fractional (the §6.1 ordering heuristic estimates levels
//! like `5/3`); costs are linearly interpolated between integer levels and
//! linearly extrapolated beyond the table using the last segment's slope.

use crate::json::{self, Json};
use crate::op::{Op, ValueId};
use crate::program::Program;
use crate::schedule::ScaleMap;
use crate::Frac;

/// Operation classes with distinct latency profiles (rows of Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// `modswitch` on a ciphertext.
    ModSwitch,
    /// cipher + plain (also cipher − plain and negation).
    AddPlain,
    /// cipher + cipher / cipher − cipher.
    AddCipher,
    /// cipher × plain (also `upscale`, which multiplies by an encoded
    /// identity).
    MulPlain,
    /// `rescale` on a ciphertext.
    Rescale,
    /// Slot rotation of a ciphertext (includes the Galois key switch).
    Rotate,
    /// cipher × cipher (includes relinearization).
    MulCipher,
}

impl OpClass {
    /// All classes, in Table 3's (roughly ascending-cost) order.
    pub const ALL: [OpClass; 7] = [
        OpClass::ModSwitch,
        OpClass::AddPlain,
        OpClass::AddCipher,
        OpClass::MulPlain,
        OpClass::Rescale,
        OpClass::Rotate,
        OpClass::MulCipher,
    ];

    /// Human-readable name matching the paper's Table 3 rows.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::ModSwitch => "modswitch (cipher)",
            OpClass::AddPlain => "cipher + plain",
            OpClass::AddCipher => "cipher + cipher",
            OpClass::MulPlain => "cipher x plain",
            OpClass::Rescale => "rescale (cipher)",
            OpClass::Rotate => "rotate (cipher)",
            OpClass::MulCipher => "cipher x cipher",
        }
    }
}

/// Latency model: per-class latencies (µs) at levels `1..=N`.
#[derive(Debug, Clone)]
pub struct CostModel {
    rows: [Vec<f64>; 7],
}

pub(crate) const fn class_index(class: OpClass) -> usize {
    match class {
        OpClass::ModSwitch => 0,
        OpClass::AddPlain => 1,
        OpClass::AddCipher => 2,
        OpClass::MulPlain => 3,
        OpClass::Rescale => 4,
        OpClass::Rotate => 5,
        OpClass::MulCipher => 6,
    }
}

impl CostModel {
    /// The paper's Table 3 (µs, levels 1–5).
    pub fn paper_table3() -> Self {
        CostModel {
            rows: [
                vec![48.0, 86.0, 156.0, 208.0, 286.0],
                vec![50.0, 98.0, 153.0, 209.0, 269.0],
                vec![85.0, 204.0, 250.0, 339.0, 421.0],
                vec![211.0, 421.0, 642.0, 853.0, 1120.0],
                vec![1926.0, 3119.0, 4525.0, 5706.0, 6901.0],
                vec![3828.0, 7966.0, 13584.0, 20933.0, 28832.0],
                vec![4363.0, 9172.0, 15658.0, 23517.0, 33974.0],
            ],
        }
    }

    /// Builds a model from measured per-level latencies. Each row must hold
    /// at least two entries (levels 1 and 2) so extrapolation is defined.
    ///
    /// # Panics
    ///
    /// Panics if any provided row has fewer than two entries.
    pub fn from_rows(rows: impl IntoIterator<Item = (OpClass, Vec<f64>)>) -> Self {
        let mut model = Self::paper_table3();
        for (class, row) in rows {
            assert!(row.len() >= 2, "cost row for {:?} needs >= 2 levels", class);
            model.rows[class_index(class)] = row;
        }
        model
    }

    /// Builds a calibrated model from a measured-latency JSON record — the
    /// shape the `table3` bench binary writes (and `table3_measured.json`
    /// ships): an `"ops"` array of `{"op": <row name>, "latency_us":
    /// [<level-1 µs>, <level-2 µs>, …]}` objects whose `"op"` strings match
    /// [`OpClass::name`]. Rows absent from the record keep the paper's
    /// Table 3 values.
    ///
    /// # Errors
    ///
    /// Rejects malformed JSON, unknown row names, a row named twice, rows
    /// with fewer than two levels, and non-positive or non-finite latencies.
    pub fn from_bench_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let ops = doc
            .get("ops")
            .and_then(Json::as_array)
            .ok_or_else(|| "missing \"ops\" array".to_string())?;
        let mut rows: Vec<(OpClass, Vec<f64>)> = Vec::new();
        for entry in ops {
            let name = entry
                .get("op")
                .and_then(Json::as_str)
                .ok_or_else(|| "op entry missing \"op\" name".to_string())?;
            let class = *OpClass::ALL
                .iter()
                .find(|c| c.name() == name)
                .ok_or_else(|| format!("unknown Table 3 row {name:?}"))?;
            if rows.iter().any(|(c, _)| *c == class) {
                return Err(format!("row {name:?} appears twice"));
            }
            let lat: Vec<f64> = entry
                .get("latency_us")
                .and_then(Json::as_array)
                .ok_or_else(|| format!("row {name:?} missing \"latency_us\" array"))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| format!("row {name:?} has a non-numeric latency"))
                })
                .collect::<Result<_, _>>()?;
            if lat.len() < 2 {
                return Err(format!("row {name:?} needs >= 2 levels, got {}", lat.len()));
            }
            if lat.iter().any(|x| !x.is_finite() || *x <= 0.0) {
                return Err(format!("row {name:?} has a non-positive latency"));
            }
            rows.push((class, lat));
        }
        if rows.is_empty() {
            return Err("empty \"ops\" array".to_string());
        }
        Ok(Self::from_rows(rows))
    }

    /// Latency (µs) of `class` at integer `level` (≥ 1), extrapolating
    /// linearly beyond the table.
    pub fn at_level(&self, class: OpClass, level: u32) -> f64 {
        self.at_fractional_level(class, level.max(1) as f64)
    }

    /// Latency (µs) at a possibly fractional level (used by the §6.1
    /// ordering estimator). Levels below 1 are clamped to 1.
    pub fn at_fractional_level(&self, class: OpClass, level: f64) -> f64 {
        let row = &self.rows[class_index(class)];
        let level = level.max(1.0);
        let max_idx = row.len() - 1; // index of the last tabulated level
        let pos = level - 1.0; // 0-based position in the row
        if pos >= max_idx as f64 {
            // Extrapolate with the last segment's slope. Measured rows are
            // not guaranteed monotone: a decreasing last segment would
            // extrapolate through zero into negative latencies, so the
            // result is clamped at the cheapest tabulated latency.
            let slope = row[max_idx] - row[max_idx - 1];
            let cheapest = row.iter().copied().fold(f64::INFINITY, f64::min);
            return (row[max_idx] + slope * (pos - max_idx as f64)).max(cheapest);
        }
        let lo = pos.floor() as usize;
        let t = pos - lo as f64;
        row[lo] * (1.0 - t) + row[lo + 1] * t
    }

    /// Latency (µs) at a [`Frac`] level.
    pub fn at_frac_level(&self, class: OpClass, level: Frac) -> f64 {
        self.at_fractional_level(class, level.to_f64())
    }

    /// The op class of value `id` in `program`, or `None` for zero-cost ops
    /// (inputs, constants, and plaintext-only arithmetic, which is folded
    /// offline).
    pub fn classify(program: &Program, id: ValueId) -> Option<OpClass> {
        if program.is_plain(id) {
            return None;
        }
        Some(match program.op(id) {
            Op::Input { .. } | Op::Const { .. } => return None,
            Op::Add(a, b) | Op::Sub(a, b) => {
                if program.is_cipher(*a) && program.is_cipher(*b) {
                    OpClass::AddCipher
                } else {
                    OpClass::AddPlain
                }
            }
            Op::Mul(a, b) => {
                if program.is_cipher(*a) && program.is_cipher(*b) {
                    OpClass::MulCipher
                } else {
                    OpClass::MulPlain
                }
            }
            Op::Neg(_) => OpClass::AddPlain,
            Op::Rotate(..) => OpClass::Rotate,
            Op::Rescale(_) => OpClass::Rescale,
            Op::ModSwitch(_) => OpClass::ModSwitch,
            Op::Upscale(..) => OpClass::MulPlain,
        })
    }

    /// The level an op is charged at: arithmetic executes at its operand
    /// level (== result level); `rescale`/`modswitch` are charged at their
    /// *result* level, matching the paper's Fig. 2 cost accounting (a
    /// level-2→1 rescale is charged as a "Lv. 1 Rescale").
    pub fn charge_level(id: ValueId, scales: &ScaleMap) -> Option<u32> {
        scales.try_level(id)
    }

    /// Latency (µs) of op `id` under the derived `scales`.
    pub fn op_cost(&self, program: &Program, id: ValueId, scales: &ScaleMap) -> f64 {
        match (Self::classify(program, id), Self::charge_level(id, scales)) {
            (Some(class), Some(level)) => self.at_level(class, level),
            _ => 0.0,
        }
    }

    /// Total latency (µs) of every *live* op of the program under the
    /// derived `scales`. Dead ops are not charged (compilers run DCE).
    pub fn program_cost(&self, program: &Program, scales: &ScaleMap) -> f64 {
        let live = crate::analysis::live(program);
        program
            .ids()
            .filter(|id| live[id.index()])
            .map(|id| self.op_cost(program, id, scales))
            .sum()
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_table3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;
    use crate::params::CompileParams;
    use crate::schedule::{InputSpec, ScheduledProgram};

    #[test]
    fn table3_values() {
        let m = CostModel::paper_table3();
        assert_eq!(m.at_level(OpClass::MulCipher, 1), 4363.0);
        assert_eq!(m.at_level(OpClass::MulCipher, 5), 33974.0);
        assert_eq!(m.at_level(OpClass::Rescale, 2), 3119.0);
        assert_eq!(m.at_level(OpClass::Rotate, 3), 13584.0);
    }

    #[test]
    fn interpolation_matches_paper_example() {
        // §6.1: cost of x³ at level 1+2/3: 44·(1/3) + 92·(2/3) = 76 (in
        // hundreds of µs): 4363/3·1 + ... ⇒ ≈ 7569 µs.
        let m = CostModel::paper_table3();
        let c = m.at_fractional_level(OpClass::MulCipher, 1.0 + 2.0 / 3.0);
        let expect = 4363.0 * (1.0 / 3.0) + 9172.0 * (2.0 / 3.0);
        assert!((c - expect).abs() < 1e-9);
        assert!((expect / 100.0 - 76.0).abs() < 1.0);
    }

    #[test]
    fn extrapolation_is_linear_beyond_table() {
        let m = CostModel::paper_table3();
        let l5 = m.at_level(OpClass::MulCipher, 5);
        let l6 = m.at_level(OpClass::MulCipher, 6);
        let l7 = m.at_level(OpClass::MulCipher, 7);
        let slope = 33974.0 - 23517.0;
        assert_eq!(l6 - l5, slope);
        assert_eq!(l7 - l6, slope);
        assert!(m.at_level(OpClass::Rescale, 11) > m.at_level(OpClass::Rescale, 10));
    }

    #[test]
    fn extrapolation_clamps_at_the_cheapest_row() {
        // Regression: a measured row whose last segment decreases used to
        // extrapolate through zero into negative latencies.
        let m = CostModel::from_rows([(OpClass::ModSwitch, vec![100.0, 60.0])]);
        assert_eq!(m.at_level(OpClass::ModSwitch, 2), 60.0);
        // Unclamped level 3 would be 20, level 5 would be −60.
        assert_eq!(m.at_level(OpClass::ModSwitch, 3), 60.0);
        assert_eq!(m.at_level(OpClass::ModSwitch, 5), 60.0);
        assert!(m.at_fractional_level(OpClass::ModSwitch, 7.3) > 0.0);
    }

    #[test]
    fn from_bench_json_calibrates_named_rows() {
        let text = r#"{
            "table": "table3", "poly_degree": 128, "levels": 2, "reps": 1,
            "ops": [
                {"op": "rotate (cipher)", "latency_us": [10.5, 20.25]},
                {"op": "cipher x cipher", "latency_us": [30.0, 60.0, 90.0]}
            ]
        }"#;
        let m = CostModel::from_bench_json(text).expect("parses");
        assert_eq!(m.at_level(OpClass::Rotate, 2), 20.25);
        assert_eq!(m.at_level(OpClass::MulCipher, 3), 90.0);
        // Rows absent from the record keep the paper values.
        assert_eq!(m.at_level(OpClass::Rescale, 1), 1926.0);
    }

    #[test]
    fn from_bench_json_loads_the_shipped_measurement() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../table3_measured.json");
        let text = std::fs::read_to_string(path).expect("table3_measured.json ships in the repo");
        let m = CostModel::from_bench_json(&text).expect("shipped record parses");
        for class in OpClass::ALL {
            assert!(m.at_level(class, 1) > 0.0, "{class:?} calibrated");
        }
    }

    #[test]
    fn from_bench_json_rejects_malformed_records() {
        assert!(CostModel::from_bench_json("{").is_err());
        assert!(CostModel::from_bench_json("{\"ops\": []}").is_err());
        let unknown = r#"{"ops": [{"op": "bogus row", "latency_us": [1.0, 2.0]}]}"#;
        assert!(CostModel::from_bench_json(unknown).is_err());
        let short = r#"{"ops": [{"op": "cipher + plain", "latency_us": [1.0]}]}"#;
        assert!(CostModel::from_bench_json(short).is_err());
        let negative = r#"{"ops": [{"op": "cipher + plain", "latency_us": [1.0, -2.0]}]}"#;
        assert!(CostModel::from_bench_json(negative).is_err());
        // `from_rows` lets the last row of a class win; a record that names
        // one twice is refused, not silently resolved.
        let twice = r#"{"ops": [{"op": "cipher + plain", "latency_us": [1.0, 2.0]},
                                {"op": "cipher x plain", "latency_us": [3.0, 4.0]},
                                {"op": "cipher + plain", "latency_us": [5.0, 6.0]}]}"#;
        let err = CostModel::from_bench_json(twice).unwrap_err();
        assert!(
            err.contains("cipher + plain") && err.contains("twice"),
            "{err}"
        );
    }

    #[test]
    fn clamps_below_level_one() {
        let m = CostModel::paper_table3();
        assert_eq!(m.at_fractional_level(OpClass::Rotate, 0.2), 3828.0);
        assert_eq!(m.at_level(OpClass::Rotate, 0), 3828.0);
    }

    #[test]
    fn from_rows_overrides() {
        let m = CostModel::from_rows([(OpClass::Rotate, vec![10.0, 20.0])]);
        assert_eq!(m.at_level(OpClass::Rotate, 2), 20.0);
        assert_eq!(m.at_level(OpClass::Rotate, 4), 40.0);
        // Other rows keep the paper values.
        assert_eq!(m.at_level(OpClass::MulCipher, 1), 4363.0);
    }

    #[test]
    fn program_cost_charges_rescale_at_result_level() {
        let params = CompileParams::new(20);
        let mut p = Program::new("c", 4);
        let x = p.push(Op::Input { name: "x".into() });
        let m2 = p.push(Op::Mul(x, x));
        let r = p.push(Op::Rescale(m2));
        p.set_outputs(vec![r]);
        let s = ScheduledProgram {
            program: p,
            params,
            inputs: vec![InputSpec {
                scale_bits: Frac::from(40),
                level: 2,
            }],
        };
        let map = s.validate().unwrap();
        let m = CostModel::paper_table3();
        // mul at level 2 (9172) + rescale charged at result level 1 (1926).
        assert_eq!(m.program_cost(&s.program, &map), 9172.0 + 1926.0);
    }

    #[test]
    fn plain_ops_cost_nothing() {
        let params = CompileParams::new(20);
        let mut p = Program::new("c", 4);
        let a = p.push(Op::Const { value: 1.0.into() });
        let b = p.push(Op::Const { value: 2.0.into() });
        let ab = p.push(Op::Mul(a, b));
        let x = p.push(Op::Input { name: "x".into() });
        let m = p.push(Op::Mul(x, ab));
        p.set_outputs(vec![m]);
        let s = ScheduledProgram {
            program: p,
            params,
            inputs: vec![InputSpec {
                scale_bits: Frac::from(20),
                level: 1,
            }],
        };
        let map = s.validate().unwrap();
        let cm = CostModel::paper_table3();
        // Only the cipher×plain mul is charged.
        assert_eq!(cm.program_cost(&s.program, &map), 211.0);
    }
}
