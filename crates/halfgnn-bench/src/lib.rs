//! The figure/table reproduction harness and the acceptance bench suites.
//!
//! [`experiments`] holds one module per experiment in the paper's
//! evaluation (§6), each regenerating the corresponding table or figure
//! series on the cost-model simulator. Run through the `repro` binary:
//!
//! ```text
//! cargo run --release -p halfgnn-bench --bin repro -- fig9
//! cargo run --release -p halfgnn-bench --bin repro -- all
//! ```
//!
//! Every experiment returns a [`Table`] rendered as GitHub markdown, so
//! outputs paste directly into EXPERIMENTS.md.
//!
//! [`suites`] holds the acceptance suites: each runs one modeled sweep,
//! asserts its gates and returns a [`row::Row`] that the one JSON writer
//! renders as its `BENCH_prN.json`. Run through the `bench` binary from
//! the repo root:
//!
//! ```text
//! cargo run --release -p halfgnn-bench --bin bench -- tune
//! cargo run --release -p halfgnn-bench --bin bench -- all
//! ```

pub mod experiments;
pub mod row;
pub mod suites;

use std::fmt;

/// A rendered experiment result.
pub struct Table {
    /// Experiment id ("fig9") and caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Footnotes: paper-vs-measured commentary, caveats.
    pub notes: Vec<String>,
}

impl Table {
    /// Empty table with the given title and headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Append a footnote.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n### {}\n", self.title)?;
        writeln!(f, "| {} |", self.headers.join(" | "))?;
        writeln!(f, "|{}|", self.headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"))?;
        for r in &self.rows {
            writeln!(f, "| {} |", r.join(" | "))?;
        }
        for n in &self.notes {
            writeln!(f, "\n> {n}")?;
        }
        Ok(())
    }
}

/// Geometric mean of positive values (how the paper averages speedups).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Format a speedup ratio.
pub fn fx(x: f64) -> String {
    format!("{x:.2}x")
}

/// Format microseconds.
pub fn us(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("fig0: demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("shape holds");
        let s = t.to_string();
        assert!(s.contains("### fig0: demo"));
        assert!(s.contains("| 1 | 2 |"));
        assert!(s.contains("> shape holds"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
