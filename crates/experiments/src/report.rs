//! Plain-text table and CSV emitters for experiment results.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A rendered experiment table: a title, column headers, and rows.
///
/// # Examples
///
/// ```
/// use tcp_experiments::report::Table;
///
/// let mut t = Table::new("demo", &["bench", "ipc"]);
/// t.row(vec!["art".into(), "0.42".into()]);
/// let text = t.render();
/// assert!(text.contains("art"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned monospaced text.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                // Right-align numerics (all but the first column).
                if i == 0 {
                    let _ = write!(s, "{:<width$}", cell, width = widths[i]);
                } else {
                    let _ = write!(s, "{:>width$}", cell, width = widths[i]);
                }
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV as `<name>.csv` under [`output_dir`], reporting a
    /// failure to stderr instead of returning it: one failed write must
    /// not abort the remaining figures, and silently dropping the error
    /// would hide a missing CSV.
    pub fn save_csv(&self, name: &str) {
        let dir = output_dir();
        let written = fs::create_dir_all(&dir)
            .and_then(|()| fs::write(dir.join(format!("{name}.csv")), self.to_csv()));
        if let Err(e) = written {
            eprintln!("experiments: failed to write {name}.csv: {e}");
        }
    }
}

/// Directory where experiment CSVs land (`target/experiments`).
pub fn output_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments")
}

/// Formats a percentage with one decimal, e.g. `14.2%`.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// Formats a float with `digits` decimals.
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Formats a count with thousands separators for readability.
pub fn count(x: u64) -> String {
    let s = x.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("t", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "23".into()]);
        let r = t.render();
        assert!(r.contains("== t =="));
        let lines: Vec<&str> = r.lines().collect();
        // Title, header, rule, two rows.
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["x,y".into(), "2".into()]);
        assert!(t.to_csv().contains("\"x,y\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(14.23), "14.2%");
        assert_eq!(f(1.5, 2), "1.50");
        assert_eq!(count(1234567), "1_234_567");
        assert_eq!(count(42), "42");
    }

    #[test]
    fn empty_reporting() {
        let t = Table::new("t", &["a"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
