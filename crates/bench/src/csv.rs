//! Tiny CSV emitter — the artifact's scripts aggregate results into `.csv`
//! files; so does the `repro` binary, which also prints each table it saves
//! as aligned text from the same columns.

use std::fmt::Write as _;
use std::path::Path;

/// An in-memory CSV table.
pub struct Csv {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    /// Optional provenance line, emitted as a `# ...` comment above the
    /// header (see [`Csv::comment`]).
    comment: Option<String>,
}

impl Csv {
    /// New table with the given column names.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Csv {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            comment: None,
        }
    }

    /// Attaches a one-line comment (provenance stamp: git revision, worker
    /// config, seed, schema version) rendered as `# <line>` before the
    /// header. Newlines are flattened so the comment stays one line —
    /// consumers (`scripts/summarize_results.py`) skip `#`-prefixed lines.
    pub fn comment(&mut self, line: impl Into<String>) {
        self.comment = Some(line.into().replace('\n', " "));
    }

    /// Appends a row (must match the header width).
    pub fn row<S: ToString>(&mut self, cells: impl IntoIterator<Item = S>) {
        let row: Vec<String> = cells.into_iter().map(|c| c.to_string()).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as CSV text.
    pub fn to_string_csv(&self) -> String {
        let mut out = String::new();
        if let Some(c) = &self.comment {
            let _ = writeln!(out, "# {c}");
        }
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ =
            writeln!(out, "{}", self.header.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Renders the table as aligned text for a terminal: the CSV header and
    /// cells unescaped, the first column left-aligned and the rest
    /// right-aligned, each column as wide as its widest cell, two spaces
    /// apart. The comment line is not part of it.
    pub fn to_string_text(&self) -> String {
        let lines = || std::iter::once(&self.header).chain(&self.rows);
        let mut widths = vec![0; self.header.len()];
        for line in lines() {
            for (w, cell) in widths.iter_mut().zip(line) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        for line in lines() {
            for (i, (cell, &w)) in line.iter().zip(&widths).enumerate() {
                let _ = match i {
                    0 => write!(out, "{cell:<w$}"),
                    _ => write!(out, "  {cell:>w$}"),
                };
            }
            out.push('\n');
        }
        out
    }

    /// Writes the table to `path`, creating parent directories.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_string_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut c = Csv::new(["a", "b"]);
        c.row(["1", "2"]);
        c.row(["x", "y"]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.to_string_csv(), "a,b\n1,2\nx,y\n");
    }

    #[test]
    fn escapes_commas_and_quotes() {
        let mut c = Csv::new(["v"]);
        c.row(["a,b"]);
        c.row(["say \"hi\""]);
        assert_eq!(c.to_string_csv(), "v\n\"a,b\"\n\"say \"\"hi\"\"\"\n");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut c = Csv::new(["a", "b"]);
        c.row(["only one"]);
    }

    #[test]
    fn comment_precedes_header_and_is_single_line() {
        let mut c = Csv::new(["a"]);
        c.comment("git=abc123 workers=8\nseed=0x5eed");
        c.row([1]);
        assert_eq!(c.to_string_csv(), "# git=abc123 workers=8 seed=0x5eed\na\n1\n");
    }

    fn text_lines(c: &Csv) -> Vec<String> {
        c.to_string_text().lines().map(str::to_string).collect()
    }

    #[test]
    fn text_header_is_the_csv_header() {
        let mut c = Csv::new(["manager", "threads", "clean"]);
        c.comment("git=abc123");
        c.row(["Atomic", "512", "yes"]);
        let lines = text_lines(&c);
        assert_eq!(
            lines[0].split_whitespace().collect::<Vec<_>>().join(","),
            "manager,threads,clean"
        );
        assert_eq!(lines.len(), 2, "the comment is not printed");
    }

    #[test]
    fn text_rows_have_one_width_and_align() {
        let mut c = Csv::new(["name", "n"]);
        c.row(["✗", "1"]);
        c.row(["ScatterAlloc", "123"]);
        let lines = text_lines(&c);
        let widths: Vec<usize> = lines.iter().map(|l| l.chars().count()).collect();
        assert!(widths.iter().all(|&w| w == widths[0]), "{lines:?}");
        // Widths 12 and 3 count chars, not bytes: 11 pad, 2 gap, 2 pad.
        assert_eq!(lines[1], format!("✗{}1", " ".repeat(15)), "first column left, the rest right");
    }

    #[test]
    fn a_wide_cell_widens_its_column() {
        let mut c = Csv::new(["a", "b"]);
        c.row(["1", "2"]);
        assert_eq!(text_lines(&c), ["a  b", "1  2"]);
        c.row(["1", "wide"]);
        assert_eq!(text_lines(&c), ["a     b", "1     2", "1  wide"]);
    }

    #[test]
    fn writes_to_disk() {
        let dir = std::env::temp_dir().join("gms_csv_test");
        let path = dir.join("t.csv");
        let mut c = Csv::new(["x"]);
        c.row([42]);
        c.write(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "x\n42\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
