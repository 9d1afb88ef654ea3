//! Plain-text table rendering for experiment binaries.

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple monospace table builder.
///
/// # Examples
///
/// ```
/// use condor_metrics::table::{Align, Table};
///
/// let mut t = Table::new(vec!["User", "Jobs"], vec![Align::Left, Align::Right]);
/// t.row(vec!["A".into(), "690".into()]);
/// let text = t.render();
/// assert!(text.contains("User"));
/// assert!(text.contains("690"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers and alignments.
    ///
    /// # Panics
    ///
    /// Panics if `headers` and `aligns` lengths differ or are empty.
    pub fn new(headers: Vec<&str>, aligns: Vec<Align>) -> Self {
        assert!(!headers.is_empty(), "table needs columns");
        assert_eq!(headers.len(), aligns.len(), "one alignment per column");
        Table {
            headers: headers.into_iter().map(String::from).collect(),
            aligns,
            rows: Vec::new(),
        }
    }

    /// Creates a table in the usual report shape: a left-aligned label
    /// column, then right-aligned numbers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn labelled(headers: &[&str]) -> Self {
        let mut aligns = vec![Align::Right; headers.len()];
        if let Some(label) = aligns.first_mut() {
            *label = Align::Left;
        }
        Table::new(headers.to_vec(), aligns)
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells);
        self
    }

    /// Appends a rule (rendered as a dashed separator line).
    pub fn rule(&mut self) -> &mut Table {
        self.rows.push(Vec::new()); // sentinel
        self
    }

    /// Renders the table to a string ending in a newline.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (i, (&w, align)) in widths.iter().zip(&self.aligns).enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                match align {
                    Align::Left => line.push_str(&format!(" {cell:<w$} |")),
                    Align::Right => line.push_str(&format!(" {cell:>w$} |")),
                }
            }
            line.push('\n');
            line
        };
        let rule = {
            let mut line = String::from("+");
            for w in &widths {
                line.push_str(&"-".repeat(w + 2));
                line.push('+');
            }
            line.push('\n');
            line
        };
        let mut out = String::new();
        out.push_str(&rule);
        out.push_str(&render_row(&self.headers));
        out.push_str(&rule);
        for row in &self.rows {
            if row.is_empty() {
                out.push_str(&rule);
            } else {
                out.push_str(&render_row(row));
            }
        }
        out.push_str(&rule);
        out
    }
}

/// Formats a float with `digits` decimal places (helper for table cells).
pub fn num(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["Name", "Count"], vec![Align::Left, Align::Right]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "10000".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        // All lines have equal width.
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "{s}");
        assert!(s.contains("| alpha |"));
        assert!(s.contains("| 10000 |"));
        // Right-aligned: "1" is padded on the left.
        assert!(s.contains("|     1 |"));
    }

    #[test]
    fn rule_inserts_separator() {
        let mut t = Table::new(vec!["x"], vec![Align::Left]);
        t.row(vec!["a".into()]);
        t.rule();
        t.row(vec!["b".into()]);
        let s = t.render();
        let rules = s.lines().filter(|l| l.starts_with('+')).count();
        assert_eq!(rules, 4); // top, under header, mid, bottom
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn wrong_arity_rejected() {
        let mut t = Table::new(vec!["a", "b"], vec![Align::Left, Align::Left]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn num_formats() {
        assert_eq!(num(1.23456, 2), "1.23");
        assert_eq!(num(1300.0, 0), "1300");
    }
}
