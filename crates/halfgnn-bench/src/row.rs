//! The one row type every bench suite returns, and the one JSON writer
//! that renders it as a `BENCH_*.json` file.
//!
//! A file is one [`Row`]: its scalar keys print one per line, and each
//! key holding a list of rows prints as an array of one-line objects.

use std::fmt::Display;

/// One value of a [`Row`].
pub(crate) enum Value {
    /// A JSON token, already formatted as the file prints it.
    Token(String),
    /// A list of rows.
    Rows(Vec<Row>),
}

/// An ordered list of key/value pairs.
#[derive(Default)]
pub struct Row(pub(crate) Vec<(&'static str, Value)>);

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// A value printed by `Display`: an integer, a boolean, or a float in
    /// its shortest round-tripping form.
    pub fn val(self, key: &'static str, v: impl Display) -> Row {
        self.token(key, v.to_string())
    }

    /// A float printed with `places` decimals.
    pub fn fixed(self, key: &'static str, v: f64, places: usize) -> Row {
        self.token(key, format!("{v:.places$}"))
    }

    /// A string.
    pub fn str(self, key: &'static str, s: &str) -> Row {
        let mut t = String::with_capacity(s.len() + 2);
        t.push('"');
        for c in s.chars() {
            if c == '"' || c == '\\' {
                t.push('\\');
            }
            t.push(c);
        }
        t.push('"');
        self.token(key, t)
    }

    /// A list of rows.
    pub fn rows(mut self, key: &'static str, rows: Vec<Row>) -> Row {
        self.0.push((key, Value::Rows(rows)));
        self
    }

    fn token(mut self, key: &'static str, t: String) -> Row {
        self.0.push((key, Value::Token(t)));
        self
    }

    /// Render as a BENCH file: one key per line at the top level, each
    /// row of a list on a line of its own, and a trailing newline.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.0.iter().enumerate() {
            push_key(&mut out, "  ", key);
            match value {
                Value::Token(t) => out.push_str(t),
                Value::Rows(rows) => {
                    out.push_str("[\n");
                    for (j, row) in rows.iter().enumerate() {
                        out.push_str("    ");
                        row.push_line(&mut out);
                        out.push_str(if j + 1 < rows.len() { ",\n" } else { "\n" });
                    }
                    out.push_str("  ]");
                }
            }
            out.push_str(if i + 1 < self.0.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }

    /// Append this row as a one-line object.
    fn push_line(&self, out: &mut String) {
        out.push('{');
        for (i, (key, value)) in self.0.iter().enumerate() {
            push_key(out, if i == 0 { "" } else { ", " }, key);
            match value {
                Value::Token(t) => out.push_str(t),
                Value::Rows(rows) => {
                    out.push('[');
                    for (j, row) in rows.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        row.push_line(out);
                    }
                    out.push(']');
                }
            }
        }
        out.push('}');
    }
}

fn push_key(out: &mut String, sep: &str, key: &str) {
    out.push_str(sep);
    out.push('"');
    out.push_str(key);
    out.push_str("\": ");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_renders_scalars_then_row_arrays() {
        let row = Row::new()
            .str("bench", "demo")
            .val("count", 3u64)
            .val("epsilon", 0.08f32)
            .val("clean", true)
            .fixed("ratio", 2.0 / 3.0, 4)
            .str("note", "say \"hi\"")
            .rows(
                "kernels",
                vec![
                    Row::new().str("op", "spmm").fixed("cycles", 5100.0, 1),
                    Row::new().str("op", "sddmm").fixed("cycles", 4118.3, 1),
                ],
            )
            .rows(
                "nested",
                vec![Row::new().rows("inner", vec![Row::new().val("a", 1), Row::new()])],
            )
            .rows("empty", Vec::new());
        assert_eq!(
            row.to_json(),
            "{\n  \"bench\": \"demo\",\n  \"count\": 3,\n  \"epsilon\": 0.08,\n  \
             \"clean\": true,\n  \"ratio\": 0.6667,\n  \"note\": \"say \\\"hi\\\"\",\n  \
             \"kernels\": [\n    {\"op\": \"spmm\", \"cycles\": 5100.0},\n    \
             {\"op\": \"sddmm\", \"cycles\": 4118.3}\n  ],\n  \
             \"nested\": [\n    {\"inner\": [{\"a\": 1}, {}]}\n  ],\n  \
             \"empty\": [\n  ]\n}\n"
        );
    }
}
