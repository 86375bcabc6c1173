//! Support library for the table/figure reproduction binaries: tiny
//! argument parsing and text-table rendering, shared across `src/bin/*`.

#![warn(missing_docs)]

pub mod capture;
pub mod histories;

use std::time::Duration;

/// Reads a `--flag value` style option from the command line.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Reads a numeric `--flag value` option with a default.
pub fn arg_num<T: std::str::FromStr>(name: &str, default: T) -> T {
    arg_value(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Whether a bare `--flag` is present.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Formats a duration compactly (`1.23s`, `45ms`, `120µs`).
pub fn fmt_duration(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2}s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{}ms", d.as_millis())
    } else {
        format!("{}µs", d.as_micros())
    }
}

/// A simple left-aligned text table.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["Class", "LOC"]);
        t.row(vec!["Queue".into(), "819".into()]);
        t.row(vec!["VeryLongClassName".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("Class"));
        assert!(s.lines().count() == 4);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[2].starts_with("Queue"));
    }

    #[test]
    fn duration_formats() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_duration(Duration::from_millis(45)), "45ms");
        assert_eq!(fmt_duration(Duration::from_micros(120)), "120µs");
    }
}
