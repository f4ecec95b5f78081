//! Order statistics, the host label and peak memory.

use std::path::Path;

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`): the smallest sample
/// with at least `q` of the samples at or below it.  With `n` samples the
/// 0.99 quantile leaves `n - ceil(0.99 n)` samples beyond it, so a stream of
/// at least 1000 samples puts at least ten beyond the p99.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // `ceil(q * n)` is a small non-negative integer, so the cast is exact.
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the middle sample, or the mean of the two middle samples for
/// even counts.  A sweep run holds only a few passes, and taking one of
/// the two middle ones would add that choice's noise to the metric.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What a result must say about where it was measured.
#[derive(Debug, Clone)]
pub struct HostLabel {
    /// CPUs available to this process.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Git revision of the measured tree (`unknown` outside a git checkout).
    pub git_revision: String,
}

impl HostLabel {
    /// Reads the label for the tree whose root is `repo_root`.
    pub fn detect(repo_root: &Path) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            nproc,
            cpu_model,
            git_revision: git_revision(repo_root).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One-line JSON rendering.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {}, \"cpu_model\": \"{}\", \"git_revision\": \"{}\"}}",
            self.nproc,
            self.cpu_model.replace(['"', '\\'], ""),
            self.git_revision
        )
    }
}

/// Resolves `HEAD` by reading `.git` directly (no subprocess).
fn git_revision(repo_root: &Path) -> Option<String> {
    let git = repo_root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_leaves_ten_samples_beyond_p99_of_a_thousand() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = quantile(&values, 0.99);
        assert_eq!(values.iter().filter(|v| **v > p99).count(), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
    }
}
