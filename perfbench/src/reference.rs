//! Reference outputs for [`crate::DEFAULT_SEED`], kept under `reference/`.
//!
//! Sweep renders are compared token by token with the tolerance rule of
//! the workspace's golden-output test (`tests/experiments_golden.rs`):
//! numbers within 0.15 absolute or 1% relative match, every other token must
//! be identical.  Counter files (`<workload>.counters`, one `name value` per
//! line) are compared exactly.
//!
//! To refresh after a reviewed change, run the workload on the default seed
//! with `UPDATE_REFERENCE=1` set.

use crate::Counters;
use std::path::PathBuf;

const ABS_TOL: f64 = 0.15;
const REL_TOL: f64 = 0.01;

/// The reference directory of this package.
pub fn dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference")
}

/// Whether this run should rewrite the references instead of checking them.
pub fn updating() -> bool {
    std::env::var("UPDATE_REFERENCE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn numbers_close(actual: f64, expected: f64) -> bool {
    let diff = (actual - expected).abs();
    diff <= ABS_TOL || diff <= REL_TOL * expected.abs()
}

/// Tolerance-aware diff: lines and tokens must pair up; numeric tokens
/// compare within tolerance, all others exactly.
pub fn diff_with_tolerance(actual: &str, expected: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let actual_lines: Vec<&str> = actual.lines().collect();
    let expected_lines: Vec<&str> = expected.lines().collect();
    if actual_lines.len() != expected_lines.len() {
        problems.push(format!(
            "line count {} vs reference {}",
            actual_lines.len(),
            expected_lines.len()
        ));
    }
    for (n, (a_line, e_line)) in actual_lines.iter().zip(&expected_lines).enumerate() {
        let a_tokens: Vec<&str> = a_line.split_whitespace().collect();
        let e_tokens: Vec<&str> = e_line.split_whitespace().collect();
        if a_tokens.len() != e_tokens.len() {
            problems.push(format!("line {}: token count differs", n + 1));
            continue;
        }
        for (a, e) in a_tokens.iter().zip(&e_tokens) {
            let same = match (a.parse::<f64>(), e.parse::<f64>()) {
                (Ok(av), Ok(ev)) => numbers_close(av, ev),
                _ => a == e,
            };
            if !same {
                problems.push(format!("line {}: `{a}` vs reference `{e}`", n + 1));
            }
        }
    }
    problems
}

/// Renders counters as `name value` lines.
pub fn render_counters(counters: &Counters) -> String {
    counters
        .iter()
        .map(|(name, value)| format!("{name} {value}\n"))
        .collect()
}

/// Checks (or, under `UPDATE_REFERENCE`, rewrites) the reference file
/// `name`, appending every mismatch to `problems`.  `exact` selects an
/// exact comparison instead of the tolerance rule.
pub fn check(name: &str, actual: &str, exact: bool, problems: &mut Vec<String>) {
    let path = dir().join(name);
    if updating() {
        if let Err(err) = std::fs::write(&path, actual) {
            problems.push(format!("writing {}: {err}", path.display()));
        }
        return;
    }
    let expected = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            problems.push(format!("reading {}: {err}", path.display()));
            return;
        }
    };
    let mismatches = if exact {
        if actual == expected {
            Vec::new()
        } else {
            vec![format!("differs:\n{actual}--- reference ---\n{expected}")]
        }
    } else {
        diff_with_tolerance(actual, &expected)
    };
    problems.extend(
        mismatches
            .into_iter()
            .take(10)
            .map(|m| format!("reference/{name}: {m}")),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_diff_flags_real_drift_only() {
        assert!(diff_with_tolerance("a 1.00 b", "a 1.01 b").is_empty());
        assert!(diff_with_tolerance("a 100.4 b", "a 100.0 b").is_empty());
        assert!(!diff_with_tolerance("a 2.00 b", "a 1.00 b").is_empty());
        assert!(!diff_with_tolerance("a 1.0 b", "c 1.0 b").is_empty());
        assert!(!diff_with_tolerance("a 1.0 b\nextra", "a 1.0 b").is_empty());
    }
}
