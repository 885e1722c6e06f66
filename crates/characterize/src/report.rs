//! Report rendering: aligned text tables (one per paper artifact) and
//! JSON serialization for EXPERIMENTS.md provenance.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Which physical chip a row's measurements came from. Fleet-mode
/// reports attach one to every per-chip row so population outliers are
/// attributable to a specific module + chip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RowOrigin {
    /// Module name, e.g. `"hynix-4Gb-M-2666-#0"`.
    pub module: String,
    /// Chip index within the module.
    pub chip: usize,
    /// Manufacturer display name.
    pub manufacturer: String,
}

impl RowOrigin {
    /// Builds an origin from a module config and chip id.
    pub(crate) fn of(cfg: &dram_core::ModuleConfig, chip: dram_core::ChipId) -> RowOrigin {
        RowOrigin {
            module: cfg.name.clone(),
            chip: chip.index(),
            manufacturer: cfg.manufacturer.to_string(),
        }
    }
}

impl std::fmt::Display for RowOrigin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/c{} ({})", self.module, self.chip, self.manufacturer)
    }
}

/// One labeled row of values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Row label (e.g. `"AND"` or `"8:16"`).
    pub label: String,
    /// Values, one per value header; `None` renders as `-`.
    pub values: Vec<Option<f64>>,
    /// The chip this row is attributable to, when it measures a single
    /// chip (fleet per-chip rows). `None` for aggregate rows.
    pub origin: Option<RowOrigin>,
}

impl Row {
    /// Builds a row from present values.
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Row {
        Row {
            label: label.into(),
            values: values.into_iter().map(Some).collect(),
            origin: None,
        }
    }

    /// Builds a row from optional values (`None` renders as `-`).
    pub fn opt(label: impl Into<String>, values: Vec<Option<f64>>) -> Row {
        Row {
            label: label.into(),
            values,
            origin: None,
        }
    }

    /// Attaches the originating chip.
    #[must_use]
    pub fn with_origin(mut self, origin: RowOrigin) -> Row {
        self.origin = Some(origin);
        self
    }
}

/// A rendered experiment result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Experiment id (`"fig7"`, `"table1"`, ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Header of the label column.
    pub label_header: String,
    /// Headers of the value columns.
    pub value_headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Row>,
    /// Free-form notes, including paper-vs-measured comparisons.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        label_header: impl Into<String>,
        value_headers: Vec<String>,
    ) -> Table {
        Table {
            id: id.into(),
            title: title.into(),
            label_header: label_header.into(),
            value_headers,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    pub fn push_row(&mut self, row: Row) {
        debug_assert_eq!(row.values.len(), self.value_headers.len());
        self.rows.push(row);
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Renders the table as aligned monospace text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain([self.label_header.len()])
            .max()
            .unwrap_or(8)
            .max(4);
        let col_w = self
            .value_headers
            .iter()
            .map(|h| h.len())
            .max()
            .unwrap_or(8)
            .max(8);
        let _ = write!(out, "{:<label_w$}", self.label_header);
        for h in &self.value_headers {
            let _ = write!(out, "  {h:>col_w$}");
        }
        out.push('\n');
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(label_w + (col_w + 2) * self.value_headers.len())
        );
        for row in &self.rows {
            let _ = write!(out, "{:<label_w$}", row.label);
            for v in &row.values {
                match v {
                    Some(x) => {
                        let _ = write!(out, "  {:>col_w$.2}", x);
                    }
                    None => {
                        let _ = write!(out, "  {:>col_w$}", "-");
                    }
                }
            }
            if let Some(origin) = &row.origin {
                let _ = write!(out, "  @ {origin}");
            }
            out.push('\n');
        }
        for n in &self.notes {
            let _ = writeln!(out, "  * {n}");
        }
        out
    }
}

/// Serializes a set of tables to pretty JSON.
pub fn to_json(tables: &[Table]) -> String {
    serde_json::to_string_pretty(tables).expect("tables serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(
            "fig7",
            "NOT success vs destination rows",
            "dest rows",
            vec!["mean %".into(), "min %".into()],
        );
        t.push_row(Row::new("1", vec![98.37, 42.0]));
        t.push_row(Row::opt("32", vec![Some(7.95), None]));
        t.note("paper: 98.37% at 1 destination row");
        t
    }

    #[test]
    fn renders_aligned_text() {
        let s = sample().render();
        assert!(s.contains("fig7"));
        assert!(s.contains("98.37"));
        assert!(s.contains('-'), "missing placeholder for None");
        assert!(s.contains("paper: 98.37"));
        // All data lines have the same width.
        let lines: Vec<&str> = s
            .lines()
            .filter(|l| l.starts_with('1') || l.starts_with('3'))
            .collect();
        assert_eq!(lines[0].len(), lines[1].len());
    }

    #[test]
    fn origin_renders_and_round_trips() {
        let cfg = dram_core::config::table1().remove(0);
        let mut t = sample();
        t.push_row(
            Row::new("c3", vec![97.5, 41.0]).with_origin(RowOrigin::of(&cfg, dram_core::ChipId(3))),
        );
        let s = t.render();
        assert!(
            s.contains("@ hynix-4Gb-M-2666-#0/c3 (SK Hynix)"),
            "origin suffix missing:\n{s}"
        );
        let back: Vec<Table> = serde_json::from_str(&to_json(&[t.clone()])).unwrap();
        assert_eq!(back[0], t);
    }

    #[test]
    fn json_round_trips() {
        let t = sample();
        let json = to_json(std::slice::from_ref(&t));
        let back: Vec<Table> = serde_json::from_str(&json).unwrap();
        assert_eq!(back[0], t);
    }
}
