//! Result rendering shared by the experiment engine and the registry: the
//! declarative `Table` every report is written as (declared once,
//! rendered as text and as CSV), §1-style speedup tables, and the CSV
//! files written under `target/experiments/`.

use crate::harness::Outcome;
use crate::spec::Budget;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A label as one CSV field: each comma is written as `;`. Every report's
/// CSV writes its labels through here.
pub fn csv_label(label: &str) -> String {
    label.replace(',', ";")
}

/// A table title with the budget its numbers were measured at.
pub(crate) fn budget_title(title: &str, budget: Budget) -> String {
    format!("{title} ({} runs x {} s)", budget.runs, budget.sim_secs)
}

/// One column of a table.
pub(crate) struct Col {
    /// Text header.
    pub(crate) head: String,
    /// CSV column name — or comma-separated names, when one text cell
    /// carries several CSV fields.
    csv: String,
    /// Text width.
    pub(crate) width: usize,
    /// Decimals shown in text; the CSV always carries full precision.
    prec: usize,
}

/// A column whose header is right-aligned, as numbers are.
pub(crate) fn col(
    head: impl Into<String>,
    csv: impl Into<String>,
    width: usize,
    prec: usize,
) -> Col {
    Col {
        head: head.into(),
        csv: csv.into(),
        width,
        prec,
    }
}

/// The contender-label column: header and cells left-aligned (a header
/// already as wide as its column is emitted as is).
pub(crate) fn label_col(name: &str, width: usize) -> Col {
    col(format!("{name:<width$}"), name, width, 0)
}

/// One value of a table row, under the column at the same index.
pub(crate) enum Field {
    /// A contender label: left-aligned in text, verbatim in CSV.
    Label(String),
    /// A number (counts included): right-aligned at the column's width
    /// and precision in text, `Display` precision in CSV.
    Num(f64),
    /// Text the runner laid out itself (`m±se`, `mean (sd)`, unit
    /// suffixes), emitted as is, and its CSV field(s).
    Pre(String, String),
}

/// A report under construction: one table, its free-text notes, and its
/// CSV.
pub(crate) struct Table {
    cols: Vec<Col>,
    text: String,
    csv_rows: Vec<String>,
}

impl Table {
    /// Start a table: the `== title ==` line and the column headers.
    pub(crate) fn new(title: &str, cols: Vec<Col>) -> Table {
        let heads: Vec<String> = cols
            .iter()
            .map(|c| format!("{:>w$}", c.head, w = c.width))
            .collect();
        Table {
            text: format!("== {title} ==\n{}\n", heads.join(" ")),
            cols,
            csv_rows: Vec::new(),
        }
    }

    /// Append one row to the text table and to the CSV.
    pub(crate) fn row(&mut self, fields: Vec<Field>) {
        let (text, csv): (Vec<String>, Vec<String>) = self
            .cols
            .iter()
            .zip(fields)
            .map(|(c, field)| match field {
                Field::Label(s) => (format!("{s:<w$}", w = c.width), csv_label(&s)),
                Field::Num(v) => (
                    format!("{v:>w$.p$}", w = c.width, p = c.prec),
                    format!("{v}"),
                ),
                Field::Pre(text, csv) => (text, csv),
            })
            .unzip();
        self.note(&text.join(" "));
        self.csv_rows.push(csv.join(","));
    }

    /// Append a free-text line (findings, paper quotes) to the report.
    pub(crate) fn note(&mut self, line: &str) {
        let _ = writeln!(self.text, "{line}");
    }

    /// The finished report: the text, and the CSV under a header of the
    /// columns' CSV names.
    pub(crate) fn finish(self) -> ExperimentReport {
        let names: Vec<&str> = self.cols.iter().map(|c| c.csv.as_str()).collect();
        ExperimentReport {
            csv_header: names.join(","),
            csv_rows: self.csv_rows,
            text: self.text,
        }
    }
}

/// Render the §1-style "median speedup / median delay reduction" rows of a
/// reference contender against the rest (text only: the CSV carries the
/// medians they are computed from).
pub fn speedup_table(reference: &Outcome, others: &[&Outcome]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "\n{:<16} {:>14} {:>22}\n",
        "vs protocol", "median speedup", "median delay reduction"
    ));
    for o in others {
        if o.label == reference.label {
            continue;
        }
        let speedup = reference.median_throughput_mbps / o.median_throughput_mbps.max(1e-9);
        let delay_red = o.median_queue_delay_ms / reference.median_queue_delay_ms.max(1e-9);
        out.push_str(&format!(
            "{:<16} {:>12.2}x {:>20.2}x\n",
            o.label, speedup, delay_red
        ));
    }
    out
}

/// A rendered experiment: the printable report plus its CSV — what
/// [`crate::experiments::run_named`] produces and `remy-cli run` prints
/// and writes.
#[derive(Clone, Debug, Default)]
pub struct ExperimentReport {
    /// CSV header line.
    pub csv_header: String,
    /// CSV data rows.
    pub csv_rows: Vec<String>,
    /// The printable report (tables, findings), newline-terminated.
    pub text: String,
}

impl ExperimentReport {
    /// The CSV: the header line, then one line per row.
    pub fn csv_text(&self) -> String {
        let mut out = format!("{}\n", self.csv_header);
        for r in &self.csv_rows {
            out.push_str(r);
            out.push('\n');
        }
        out
    }

    /// Write the CSV to `target/experiments/<name>.csv`; returns the path.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = Path::new("target/experiments");
        let path = dir.join(format!("{name}.csv"));
        std::fs::create_dir_all(dir)?;
        std::fs::write(&path, self.csv_text())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{CellResult, ExperimentResults};
    use crate::spec::{ExperimentSpec, LinkRef, SweepPoint, WorkloadSpec};
    use netsim::time::Ns;
    use netsim::traffic::TrafficSpec;

    fn outcome(label: &str, tput: f64, delay: f64) -> Outcome {
        Outcome::from_samples(
            label.to_string(),
            vec![tput, tput * 1.1],
            vec![delay, delay * 0.9],
            vec![150.0, 151.0],
        )
    }

    /// The generic report over one sweep point of these outcomes.
    fn generic_report(outcomes: &[Outcome]) -> ExperimentReport {
        let spec = ExperimentSpec::new(
            "x",
            "Fig. X",
            WorkloadSpec::uniform(
                LinkRef::constant(15.0),
                1000,
                2,
                Ns::from_millis(150),
                TrafficSpec::fig4(),
            ),
            Vec::new(),
            Budget {
                runs: 2,
                sim_secs: 5,
            },
            1,
        );
        let cells = outcomes
            .iter()
            .map(|o| CellResult {
                point_index: 0,
                point: SweepPoint::default(),
                label: o.label.clone(),
                runs: Vec::new(),
                populations: Vec::new(),
                outcome: o.clone(),
            })
            .collect();
        ExperimentResults { spec, cells }.report()
    }

    #[test]
    fn tables_render_rows() {
        let o = [
            outcome("RemyCC d=1", 1.8, 80.0),
            outcome("Cubic", 1.3, 400.0),
        ];
        let text = generic_report(&o).text;
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(""), "the caller's leading blank line");
        assert_eq!(lines.next(), Some("== Fig. X (2 runs x 5 s) =="));
        assert_eq!(
            lines.next(),
            Some("scheme            tput Mbps    qdelay ms     rtt ms   1-sigma (sd_t, sd_d)")
        );
        for label in ["RemyCC d=1", "Cubic"] {
            let row = lines.next().unwrap();
            assert!(row.starts_with(&format!("{label:<16} ")), "{row}");
            assert_eq!(row.len(), 16 + 1 + 10 + 1 + 12 + 1 + 10 + 1 + 22, "{row}");
        }
        assert_eq!(lines.next(), None);
        let s = speedup_table(&o[0], &[&o[0], &o[1]]);
        assert!(s.contains("vs protocol"));
        assert!(s.contains("Cubic"));
        assert!(!s.contains("RemyCC d=1 "), "reference row skipped");
    }

    #[test]
    fn csv_rows_have_stable_shape() {
        // A label, a number, and a pre-laid-out cell carrying two CSV
        // fields: commas in the label become `;`, and the row has as many
        // fields as the header.
        let mut table = Table::new(
            "t",
            vec![
                label_col("scheme", 8),
                col("x", "x", 6, 2),
                col("m (sd)", "mean,sd", 12, 0),
            ],
        );
        table.row(vec![
            Field::Label("A,B".to_string()),
            Field::Num(1.5),
            Field::Pre("1.00 (0.50)".to_string(), "1,0.5".to_string()),
        ]);
        let rep = table.finish();
        assert_eq!(rep.csv_header, "scheme,x,mean,sd");
        assert_eq!(rep.csv_rows, ["A;B,1.5,1,0.5"]);

        let rep = generic_report(&[outcome("A,B", 1.0, 2.0), outcome("C", 3.0, 4.0)]);
        assert_eq!(
            rep.csv_header,
            "scheme,median_tput_mbps,median_qdelay_ms,median_rtt_ms,\
             mean_tput,mean_qdelay,sd_tput,sd_qdelay,corr,samples"
        );
        assert_eq!(rep.csv_rows.len(), 2);
        assert!(
            rep.csv_rows[0].starts_with("A;B,"),
            "commas in labels are escaped"
        );
        for row in &rep.csv_rows {
            assert_eq!(
                row.split(',').count(),
                rep.csv_header.split(',').count(),
                "{row}"
            );
        }
    }

    #[test]
    fn report_prints_and_writes() {
        let rep = ExperimentReport {
            csv_header: "a,b".to_string(),
            csv_rows: vec!["1,2".to_string()],
            text: "== t ==\n".to_string(),
        };
        let path = rep.write_csv("report_test").unwrap();
        assert_eq!(path, Path::new("target/experiments/report_test.csv"));
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body, "a,b\n1,2\n");
        assert_eq!(body, rep.csv_text());
    }
}
