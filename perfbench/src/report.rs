//! Named metrics, the environment block, and the result line.

use std::fmt::Write as _;

/// One measured value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric; a non-finite value (an empty ratio or median) reads as 0.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        let value = if value.is_finite() { value } else { 0.0 };
        Metric { name: name.into(), unit, value }
    }
}

/// What a result depends on besides the code: host, threads, toolchain.
#[derive(Clone, Debug)]
pub struct Env {
    /// Cores the process may use.
    pub nproc: usize,
    /// Fast-executor worker threads of the workload.
    pub threads: usize,
    /// `HALFGNN_THREADS` as set, or `unset`.
    pub halfgnn_threads: String,
    /// Workload seed.
    pub seed: u64,
    /// Commit of the checkout, or `unknown` outside a git work tree.
    pub commit: String,
    /// Compiler the benchmark was built with.
    pub rustc: &'static str,
    /// Cargo build profile.
    pub profile: &'static str,
}

impl Env {
    /// The environment of this process.
    pub fn current(threads: usize, seed: u64) -> Env {
        Env {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads,
            halfgnn_threads: std::env::var("HALFGNN_THREADS").unwrap_or_else(|_| "unset".into()),
            seed,
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }

    /// The block as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"threads\":{},\"HALFGNN_THREADS\":{},\"seed\":{},\"commit\":{},\"rustc\":{},\"profile\":{}}}",
            self.nproc,
            self.threads,
            json_str(&self.halfgnn_threads),
            self.seed,
            json_str(&self.commit),
            json_str(self.rustc),
            json_str(self.profile),
        )
    }
}

/// The commit `.git/HEAD` names, read without leaving the working
/// directory. A branch packed into `packed-refs` reads as unknown.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok().map(|s| s.trim().into()),
        None => Some(head.into()),
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            json_str(&m.name),
            m.value,
            json_str(m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `v` (the mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Smallest value of `v` (NaN when empty).
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NAN, f64::min)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(4, 0, &[Metric::new("setup_s", "s", 0.5)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":4,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert!(fastest(&[]).is_nan());
    }
}
