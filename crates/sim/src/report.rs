//! Plain-text, CSV and JSON tabulation of experiment results.
//!
//! JSON output goes through the workspace's own emitter
//! ([`fgcache_types::json`]) — no external serialisation framework is
//! linked, keeping the build hermetic.

use std::fmt;

use fgcache_types::json::Json;

/// A simple column-aligned table, rendered as text or CSV.
///
/// ```
/// use fgcache_sim::Table;
///
/// let mut t = Table::new("demo", ["x", "y"]);
/// t.push_row(["1", "2"]);
/// let text = t.render();
/// assert!(text.contains("demo"));
/// assert!(t.to_csv().starts_with("x,y\n"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new<S, I>(title: impl Into<String>, columns: I) -> Self
    where
        S: Into<String>,
        I: IntoIterator<Item = S>,
    {
        Table {
            title: title.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Rows shorter than the header are padded with
    /// empty cells; longer rows are truncated.
    pub fn push_row<S, I>(&mut self, cells: I)
    where
        S: Into<String>,
        I: IntoIterator<Item = S>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.columns.len(), String::new());
        self.rows.push(row);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as aligned text (what the `repro` binary
    /// prints).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            out.push_str(&cells.join("  "));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (header row first). Cells containing
    /// commas or quotes are quoted.
    pub fn to_csv(&self) -> String {
        fn escape(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Represents the table as a JSON value:
    /// `{"title": ..., "columns": [...], "rows": [[...], ...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("title", Json::str(&self.title)),
            (
                "columns",
                Json::Arr(self.columns.iter().map(Json::str).collect()),
            ),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|row| Json::Arr(row.iter().map(Json::str).collect()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Serialises the table as a compact JSON document.
    pub fn to_json_text(&self) -> String {
        self.to_json().to_text()
    }

    /// Reconstructs a table from the JSON produced by
    /// [`Table::to_json_text`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the text is not valid JSON
    /// or lacks the expected shape.
    pub fn from_json_text(text: &str) -> Result<Self, String> {
        let value = Json::parse(text).map_err(|e| e.to_string())?;
        let title = value
            .get("title")
            .and_then(Json::as_str)
            .ok_or("missing \"title\"")?
            .to_string();
        let columns: Vec<String> = value
            .get("columns")
            .and_then(Json::as_array)
            .ok_or("missing \"columns\"")?
            .iter()
            .map(|c| c.as_str().map(str::to_string).ok_or("non-string column"))
            .collect::<Result<_, _>>()?;
        let mut table = Table {
            title,
            columns,
            rows: Vec::new(),
        };
        for row in value
            .get("rows")
            .and_then(Json::as_array)
            .ok_or("missing \"rows\"")?
        {
            let cells: Vec<String> = row
                .as_array()
                .ok_or("non-array row")?
                .iter()
                .map(|c| c.as_str().map(str::to_string).ok_or("non-string cell"))
                .collect::<Result<_, _>>()?;
            table.push_row(cells);
        }
        Ok(table)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a float with 2 decimal places (common in reports).
pub fn fmt2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("t", ["name", "v"]);
        t.push_row(["a", "1000"]);
        t.push_row(["long-name", "2"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains("name"));
        // All data lines have equal length thanks to padding.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn short_rows_padded_long_rows_truncated() {
        let mut t = Table::new("t", ["a", "b"]);
        t.push_row(["only"]);
        t.push_row(["x", "y", "z"]);
        assert_eq!(t.row_count(), 2);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().nth(1).unwrap(), "only,");
        assert_eq!(csv.lines().nth(2).unwrap(), "x,y");
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("t", ["a"]);
        t.push_row(["x,y"]);
        t.push_row(["say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn helpers() {
        assert_eq!(fmt2(1.2345), "1.23");
        assert_eq!(pct(0.4567), "45.7%");
    }

    #[test]
    fn display_matches_render() {
        let t = Table::new("x", ["c"]);
        assert_eq!(t.to_string(), t.render());
    }

    #[test]
    fn json_roundtrip() {
        let mut t = Table::new("fig3", ["g", "fetches"]);
        t.push_row(["1", "5417"]);
        t.push_row(["4", "2204"]);
        let text = t.to_json_text();
        assert!(text.starts_with(r#"{"title":"fig3""#));
        let back = Table::from_json_text(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn json_rejects_malformed_documents() {
        assert!(Table::from_json_text("not json").is_err());
        assert!(Table::from_json_text("{}").is_err());
        assert!(Table::from_json_text(r#"{"title":"t","columns":[1],"rows":[]}"#).is_err());
    }
}
