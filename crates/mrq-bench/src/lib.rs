//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (Section 8 and the Appendix).
//!
//! The paper's testbed is a Xeon with a C++/Qhull implementation and datasets
//! of up to 10 million records; single queries take up to ~1000 seconds
//! there.  To keep the harness runnable on a laptop the experiments accept a
//! [`Scale`] preset (`quick`, `default`, `paper`) that controls dataset
//! cardinalities, dimensionalities, the number of focal records averaged
//! over, and the sampling factor applied to the simulated real datasets.
//! EXPERIMENTS.md records which preset produced the reported numbers and
//! compares the *shape* of the results (who wins, growth trends, crossovers)
//! against the paper.
//!
//! Every experiment prints a plain-text table with one row per parameter
//! value, mirroring the corresponding figure/table of the paper, and returns
//! the same rows as structured [`Row`]s so they can be post-processed.

pub mod baseline;
pub mod experiments;
pub mod histogram;
pub mod runner;
pub mod scale;

pub use histogram::LogHistogram;
pub use runner::{measure, Measurement};
pub use scale::Scale;

/// One row of an experiment table: a label (x-axis value) plus named metric
/// columns.
#[derive(Debug, Clone)]
pub struct Row {
    /// The x-axis value (e.g. "n=100K", "d=4", "HOTEL", "τ=2").
    pub label: String,
    /// Metric name → value.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            values: Vec::new(),
        }
    }

    /// Adds a metric column.
    pub fn with(mut self, name: &str, value: f64) -> Self {
        self.values.push((name.to_string(), value));
        self
    }

    /// Reads a metric back (used by tests).
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Renders rows as an aligned plain-text table.
pub fn render_table(title: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    if rows.is_empty() {
        out.push_str("(no rows)\n");
        return out;
    }
    let headers: Vec<&str> = std::iter::once("x")
        .chain(rows[0].values.iter().map(|(n, _)| n.as_str()))
        .collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    let mut cells: Vec<Vec<String>> = Vec::with_capacity(rows.len());
    for row in rows {
        let mut line = vec![row.label.clone()];
        for (_, v) in &row.values {
            line.push(format_metric(*v));
        }
        for (i, c) in line.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
        cells.push(line);
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:>width$}", h, width = widths[i]))
        .collect();
    out.push_str(&header_line.join("  "));
    out.push('\n');
    for line in cells {
        let rendered: Vec<String> = line
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        out.push_str(&rendered.join("  "));
        out.push('\n');
    }
    out
}

fn format_metric(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 || v.fract() == 0.0 {
        format!("{:.0}", v)
    } else if v.abs() >= 1.0 {
        format!("{:.2}", v)
    } else {
        format!("{:.4}", v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_builder_and_lookup() {
        let r = Row::new("n=10K").with("cpu_s", 1.25).with("io", 300.0);
        assert_eq!(r.get("cpu_s"), Some(1.25));
        assert_eq!(r.get("io"), Some(300.0));
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    fn render_table_is_aligned() {
        let rows = vec![
            Row::new("d=2").with("k*", 39199.0).with("|T|", 1.6),
            Row::new("d=8").with("k*", 214.0).with("|T|", 149732.0),
        ];
        let t = render_table("Table 3", &rows);
        assert!(t.contains("Table 3"));
        assert!(t.contains("39199"));
        assert!(t.contains("149732"));
        let lines: Vec<&str> = t
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with("=="))
            .collect();
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn render_empty_table() {
        assert!(render_table("empty", &[]).contains("(no rows)"));
    }
}
