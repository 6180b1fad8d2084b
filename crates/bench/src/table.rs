//! Plain-text/CSV result tables.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// One experiment's result table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment id, e.g. `"F1"`.
    pub id: &'static str,
    /// Human-readable caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (same arity as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table from `&str` headers.
    pub fn new(id: &'static str, title: &str, headers: &[&str]) -> Table {
        Table::with_headers(id, title, headers.iter().map(|h| (*h).to_owned()).collect())
    }

    /// Creates an empty table from owned headers.
    pub fn with_headers(id: &'static str, title: &str, headers: Vec<String>) -> Table {
        Table {
            id,
            title: title.to_owned(),
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the row arity does not match the headers.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders as CSV (headers first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV rendering to `<dir>/<id lowercase>.csv`, creating
    /// `dir` if needed, and returns the written path.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-write failures.
    pub fn save_csv(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = self.csv_path(dir);
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }

    /// The file [`save_csv`](Table::save_csv) writes in `dir`.
    pub fn csv_path(&self, dir: impl AsRef<Path>) -> PathBuf {
        dir.as_ref().join(format!("{}.csv", self.id.to_lowercase()))
    }
}

impl Extend<Vec<String>> for Table {
    /// Appends rows with [`Table::push`]'s arity check.
    fn extend<I: IntoIterator<Item = Vec<String>>>(&mut self, rows: I) {
        for row in rows {
            self.push(row);
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}] {}", self.id, self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let render = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (cell, width)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>width$}")?;
            }
            writeln!(f)
        };
        render(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            render(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("T9", "demo", &["name", "value"]);
        t.push(vec!["a".into(), "1".into()]);
        t.push(vec!["long-name".into(), "22".into()]);
        t
    }

    #[test]
    fn csv_round_trip_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "name,value");
        assert_eq!(lines[2], "long-name,22");
    }

    #[test]
    fn display_aligns_columns() {
        let text = sample().to_string();
        assert!(text.contains("[T9] demo"));
        assert!(text.contains("long-name"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        sample().push(vec!["only-one".into()]);
    }

    #[test]
    fn save_csv_writes_id_named_file() {
        let dir = std::env::temp_dir().join("flexprot-table-save-csv-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = sample().save_csv(&dir).expect("save csv");
        assert!(path.ends_with("t9.csv"));
        let written = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(written, sample().to_csv());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
