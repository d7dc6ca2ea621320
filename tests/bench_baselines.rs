//! The committed result records, read by the code that gates on them.
//!
//! `BENCH_mem.json` is what `mem` compares a run against under
//! `--check-baseline` (CI's `mem-smoke`), `BENCH_kernels.json` is the drift
//! record of the ratios `kernels` gates within a run (it reads nothing
//! back), and `table3_measured.json` is the calibration record behind
//! `lint --profile`. Nothing in tier-1
//! used to open them with the gates' own reader, so a renamed key or a
//! re-recorded file in another layout showed up only in a CI smoke job — or,
//! with the substring scanner the gates used before (`"key":` anywhere in
//! the text, no space allowed), did not show up at all.

use std::path::{Path, PathBuf};

use fhe_bench::{keys, Baseline};
use fhe_ir::json::{self, Json};
use fhe_ir::{CostModel, OpClass};

/// Each committed record with the top-level keys a gate reads back from it.
const RECORDS: [(&str, &[&str]); 3] = [
    ("BENCH_mem.json", &[keys::LAZY_BUDGET_PEAK_BYTES]),
    ("BENCH_kernels.json", &[]),
    ("table3_measured.json", &[]),
];

fn committed(name: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    (path, text)
}

/// `value` laid out the way a person or another tool would write it: one
/// member per line, indented, a space after every colon.
fn pretty(value: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent + 1);
    let close = "  ".repeat(indent);
    match value {
        Json::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad);
                pretty(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&format!("{close}]"));
        }
        Json::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (key, item)) in fields.iter().enumerate() {
                out.push_str(&format!("{pad}{} : ", Json::from(key.as_str())));
                pretty(item, indent + 1, out);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            out.push_str(&format!("{close}}}"));
        }
        scalar => out.push_str(&scalar.to_string()),
    }
}

#[test]
fn committed_records_parse_and_survive_a_rewrite() {
    for (name, _) in RECORDS {
        let (_, text) = committed(name);
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(matches!(doc, Json::Object(_)), "{name}: not an object");
        // Writer and reader agree on the files the gates read: what the
        // writer makes of the parsed record parses back to the same values.
        let rewritten = doc.to_string();
        assert_eq!(json::parse(&rewritten).as_ref(), Ok(&doc), "{name}");
    }
}

#[test]
fn every_key_a_gate_reads_is_a_top_level_number_in_any_layout() {
    for (name, gate_keys) in RECORDS {
        let (path, text) = committed(name);
        let baseline = Baseline::read(&path).unwrap_or_else(|e| panic!("{e}"));
        let doc = json::parse(&text).expect("checked above");
        let Json::Object(fields) = &doc else {
            panic!("{name}: not an object");
        };

        let mut laid_out = String::new();
        pretty(&doc, 0, &mut laid_out);
        assert_ne!(
            laid_out,
            text.trim_end(),
            "{name}: the copy differs in layout"
        );
        let laid_out = Baseline::parse(&path, &laid_out).unwrap_or_else(|e| panic!("{e}"));

        for &key in gate_keys {
            let value = baseline.number(key).unwrap_or_else(|e| panic!("{e}"));
            assert!(value.is_finite() && value > 0.0, "{name}: {key} = {value}");
            assert_eq!(
                laid_out.number(key),
                Ok(value),
                "{name}: {key}, pretty-printed"
            );

            // The same key inside an object that comes first in the file is
            // somebody else's number.
            let mut shadowed = vec![("earlier".to_string(), Json::obj([(key, Json::Num(-1.0))]))];
            shadowed.extend(fields.iter().cloned());
            let shadowed = Baseline::parse(&path, &Json::Object(shadowed).to_string())
                .unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(shadowed.number(key), Ok(value), "{name}: {key}, shadowed");
        }

        let err = baseline.number("no_such_key").unwrap_err();
        assert!(err.contains(name) && err.contains("no_such_key"), "{err}");
    }
}

#[test]
fn the_shipped_calibration_record_calibrates_every_row_in_any_layout() {
    let (_, text) = committed("table3_measured.json");
    let mut laid_out = String::new();
    pretty(&json::parse(&text).expect("parses"), 0, &mut laid_out);
    let compact = CostModel::from_bench_json(&text).expect("shipped record calibrates");
    let spaced = CostModel::from_bench_json(&laid_out).expect("pretty-printed record calibrates");
    for class in OpClass::ALL {
        for level in 1..=5 {
            let us = compact.at_level(class, level);
            assert!(us.is_finite() && us > 0.0, "{class:?} level {level}: {us}");
            assert_eq!(us, spaced.at_level(class, level), "{class:?} level {level}");
            assert_ne!(
                us,
                CostModel::paper_table3().at_level(class, level),
                "{class:?} level {level}: the record names every row"
            );
        }
    }
}
