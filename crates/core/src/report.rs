//! Execution reports: machine-readable summaries of an experiment run, the
//! framework's equivalent of the paper tool's benchmark reports.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A named experiment report: scalar metrics plus free-form notes.
///
/// # Example
///
/// ```rust
/// use xcc_framework::report::ExecutionReport;
///
/// let mut report = ExecutionReport::new("fig8-one-relayer");
/// report.set_metric("throughput_tfps", 80.0);
/// report.add_note("input rate 140 rps, 200 ms RTT");
/// let json = serde_json::to_string_pretty(&report).unwrap();
/// assert!(json.contains("throughput_tfps"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Name of the experiment (e.g. `fig12-latency-breakdown`).
    pub name: String,
    /// Scalar metrics keyed by name.
    pub metrics: BTreeMap<String, f64>,
    /// Free-form notes (parameters, caveats).
    pub notes: Vec<String>,
    /// Tabular rows (already formatted) for table-style outputs.
    pub rows: Vec<String>,
}

impl ExecutionReport {
    /// Creates an empty report.
    pub fn new(name: impl Into<String>) -> Self {
        ExecutionReport {
            name: name.into(),
            metrics: BTreeMap::new(),
            notes: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sets (or replaces) a scalar metric.
    pub fn set_metric(&mut self, key: impl Into<String>, value: f64) {
        self.metrics.insert(key.into(), value);
    }

    /// Reads a metric back, if present.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.get(key).copied()
    }

    /// Appends a note.
    pub fn add_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Appends a pre-formatted table row.
    pub fn add_row(&mut self, row: impl Into<String>) {
        self.rows.push(row.into());
    }
}

impl fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.name)?;
        for (key, value) in &self.metrics {
            writeln!(f, "  {key}: {value:.3}")?;
        }
        for row in &self.rows {
            writeln!(f, "  {row}")?;
        }
        for note in &self.notes {
            writeln!(f, "  # {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_through_json() {
        let mut report = ExecutionReport::new("test");
        report.set_metric("x", 1.5);
        report.add_note("note");
        report.add_row("a | b | c");
        let parsed: ExecutionReport =
            serde_json::from_str(&serde_json::to_string_pretty(&report).unwrap()).unwrap();
        assert_eq!(parsed, report);
        assert_eq!(parsed.metric("x"), Some(1.5));
        assert_eq!(parsed.metric("missing"), None);
    }

    #[test]
    fn display_includes_all_sections() {
        let mut report = ExecutionReport::new("demo");
        report.set_metric("throughput", 90.0);
        report.add_row("row-1");
        report.add_note("caveat");
        let text = report.to_string();
        assert!(text.contains("== demo =="));
        assert!(text.contains("throughput"));
        assert!(text.contains("row-1"));
        assert!(text.contains("# caveat"));
    }
}
