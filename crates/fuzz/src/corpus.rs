//! Reproducer corpus: shrunk failing programs serialized as textual IR
//! with `// fuzz-…` directive comments carrying the compile parameters
//! and failure label, so a case replays bit-identically from the file
//! alone (input data is derived from input *names*, see
//! [`crate::oracle::input_data`]).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use fhe_ir::{text, CompileParams, Program};

/// A corpus entry: program plus the parameters and label it was found
/// under.
#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// Source file (for diagnostics), if loaded from disk.
    pub path: Option<PathBuf>,
    /// The reproducer program.
    pub program: Program,
    /// Compile parameters the divergence was found under.
    pub params: CompileParams,
    /// The divergence label at discovery time (informational: a fixed bug
    /// no longer reproduces it).
    pub label: Option<String>,
}

/// Renders a corpus case to the textual reproducer format.
pub fn render_case(program: &Program, params: &CompileParams, label: &str, detail: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("// fuzz-label: {label}\n"));
    if !detail.is_empty() {
        let flat = detail.replace(['\n', '\r'], "; ");
        out.push_str(&format!("// fuzz-detail: {flat}\n"));
    }
    out.push_str(&format!("// fuzz-waterline: {}\n", params.waterline_bits));
    out.push_str(&format!("// fuzz-rescale: {}\n", params.rescale_bits));
    out.push_str(&format!("// fuzz-max-level: {}\n", params.max_level));
    if params.output_reserve_bits != 0 {
        out.push_str(&format!(
            "// fuzz-output-reserve: {}\n",
            params.output_reserve_bits
        ));
    }
    out.push_str(&text::print(program));
    out
}

/// Parses a corpus case from its textual form.
///
/// # Errors
///
/// Returns a message on malformed IR or directives, or on parameters
/// [`CompileParams::validate`] rejects.
pub fn parse_case(content: &str) -> Result<CorpusCase, String> {
    let (program, comments) = text::parse_with_comments(content).map_err(|e| e.to_string())?;
    let mut params = CompileParams {
        waterline_bits: 35,
        ..CompileParams::default()
    };
    let mut label = None;
    for comment in &comments {
        let Some((key, value)) = comment.split_once(':') else {
            continue;
        };
        let value = value.trim();
        let number = |what: &str| value.parse().map_err(|_| format!("bad {what} `{value}`"));
        match key.trim() {
            "fuzz-label" => label = Some(value.to_string()),
            "fuzz-waterline" => params.waterline_bits = number("waterline")?,
            "fuzz-rescale" => params.rescale_bits = number("rescale")?,
            "fuzz-max-level" => params.max_level = number("max-level")?,
            "fuzz-output-reserve" => params.output_reserve_bits = number("output-reserve")?,
            _ => {}
        }
    }
    params.validate()?;
    Ok(CorpusCase {
        path: None,
        program,
        params,
        label,
    })
}

/// Writes a reproducer into `dir` as `<stem>.fhe`, creating the directory
/// if needed. Returns the file path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_case(
    dir: &Path,
    stem: &str,
    program: &Program,
    params: &CompileParams,
    label: &str,
    detail: &str,
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.fhe"));
    fs::write(&path, render_case(program, params, label, detail))?;
    Ok(path)
}

/// Loads every `.fhe` case in `dir` (sorted by file name). A missing
/// directory is an empty corpus, not an error.
///
/// # Errors
///
/// Returns a message naming the file on the first malformed case.
pub fn load_dir(dir: &Path) -> Result<Vec<CorpusCase>, String> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "fhe"))
        .collect();
    paths.sort();
    let mut cases = Vec::new();
    for path in paths {
        let content = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut case = parse_case(&content).map_err(|e| format!("{}: {e}", path.display()))?;
        case.path = Some(path);
        cases.push(case);
    }
    Ok(cases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use crate::oracle::structural_diff;

    #[test]
    fn case_roundtrips_with_params() {
        let p = generate(5, &GenConfig::default());
        let mut params = CompileParams::with_rescale_bits(33, 50);
        params.max_level = 17;
        let rendered = render_case(&p, &params, "panic:ckks", "boom\nline two");
        let case = parse_case(&rendered).expect("parse");
        assert!(structural_diff(&p, &case.program).is_none());
        assert_eq!(case.params.waterline_bits, 33);
        assert_eq!(case.params.rescale_bits, 50);
        assert_eq!(case.params.max_level, 17);
        assert_eq!(case.label.as_deref(), Some("panic:ckks"));
    }

    #[test]
    fn out_of_range_params_are_an_error() {
        let p = generate(5, &GenConfig::default());
        let params = CompileParams {
            max_level: 0,
            ..CompileParams::default()
        };
        let err = parse_case(&render_case(&p, &params, "x", "")).unwrap_err();
        assert_eq!(err, "max_level must be at least 1");
    }

    #[test]
    fn missing_corpus_dir_is_empty() {
        let cases = load_dir(Path::new("/nonexistent/corpus/dir")).unwrap();
        assert!(cases.is_empty());
    }
}
