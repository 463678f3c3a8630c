//! Result rendering shared by the experiment engine and the registry:
//! throughput/delay tables, §1-style speedup tables, and the CSV files
//! written under `target/experiments/`.

use crate::harness::Outcome;
use std::io::Write as _;
use std::path::PathBuf;

/// Header of the per-contender outcomes CSV (one row per scheme).
pub const OUTCOMES_CSV_HEADER: &str = "scheme,median_tput_mbps,median_qdelay_ms,median_rtt_ms,mean_tput,mean_qdelay,sd_tput,sd_qdelay,corr,samples";

/// A label as one CSV field: each comma is written as `;`. Every report's
/// CSV writes its labels through here.
pub fn csv_label(label: &str) -> String {
    label.replace(',', ";")
}

/// One outcomes-CSV row.
pub fn outcome_csv_row(o: &Outcome) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{}",
        csv_label(&o.label),
        o.median_throughput_mbps,
        o.median_queue_delay_ms,
        o.median_rtt_ms,
        o.ellipse.mean_y,
        o.ellipse.mean_x,
        o.ellipse.sd_y,
        o.ellipse.sd_x,
        o.ellipse.corr,
        o.throughput_samples.len(),
    )
}

/// Render one experiment's outcomes as the paper-style throughput/delay
/// table, flagging each scheme's 1-σ ellipse.
pub fn outcomes_table(title: &str, outcomes: &[Outcome]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    out.push_str(&format!(
        "{:<16} {:>10} {:>12} {:>10} {:>22}\n",
        "scheme", "tput Mbps", "qdelay ms", "rtt ms", "1-sigma (sd_t, sd_d)"
    ));
    for o in outcomes {
        out.push_str(&format!(
            "{:<16} {:>10.3} {:>12.2} {:>10.1} {:>12.3} {:>9.2}\n",
            o.label,
            o.median_throughput_mbps,
            o.median_queue_delay_ms,
            o.median_rtt_ms,
            o.ellipse.sd_y,
            o.ellipse.sd_x,
        ));
    }
    out
}

/// Render the §1-style "median speedup / median delay reduction" rows of a
/// reference contender against the rest.
pub fn speedup_table(reference: &Outcome, others: &[Outcome]) -> String {
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

/// Where experiment CSVs land.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    // lint:allow(p1-sim-unwrap): host-side artifact I/O after the runs
    // finish; failing loudly on an unwritable disk is the right outcome.
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Write arbitrary rows to a named CSV under [`experiments_dir`].
pub fn write_rows_csv(name: &str, header: &str, rows: &[String]) {
    let path = experiments_dir().join(format!("{name}.csv"));
    // lint:allow(p1-sim-unwrap): host-side artifact I/O (see
    // experiments_dir); a CSV write failure should abort the report.
    let mut f = std::fs::File::create(&path).expect("create csv");
    // lint:allow(p1-sim-unwrap): same host-side artifact I/O as above.
    writeln!(f, "{header}").unwrap();
    for r in rows {
        // lint:allow(p1-sim-unwrap): same host-side artifact I/O as above.
        writeln!(f, "{r}").unwrap();
    }
    println!("(csv: {})", path.display());
}

/// A rendered experiment: the printable report plus its CSV — what
/// [`crate::experiments::run_named`] produces and `remy-cli run` prints
/// and writes.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// CSV file stem under `target/experiments/`.
    pub csv_name: String,
    /// CSV header line.
    pub csv_header: String,
    /// CSV data rows.
    pub csv_rows: Vec<String>,
    /// The printable report (tables, findings), newline-terminated.
    pub text: String,
}

impl ExperimentReport {
    /// Print the report text to stdout.
    pub fn print(&self) {
        print!("{}", self.text);
    }

    /// Print CSV (header + rows) to stdout instead of the tables.
    pub fn print_csv(&self) {
        println!("{}", self.csv_header);
        for r in &self.csv_rows {
            println!("{r}");
        }
    }

    /// Write the CSV under `target/experiments/` (also prints the path).
    pub fn write_csv(&self) {
        write_rows_csv(&self.csv_name, &self.csv_header, &self.csv_rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(label: &str, tput: f64, delay: f64) -> Outcome {
        Outcome::from_samples(
            label.to_string(),
            vec![tput, tput * 1.1],
            vec![delay, delay * 0.9],
            vec![150.0, 151.0],
        )
    }

    #[test]
    fn tables_render_rows() {
        let o = vec![
            outcome("RemyCC d=1", 1.8, 80.0),
            outcome("Cubic", 1.3, 400.0),
        ];
        let t = outcomes_table("Fig. X (2 runs x 5 s)", &o);
        assert!(t.contains("== Fig. X (2 runs x 5 s) =="));
        assert!(t.contains("RemyCC d=1"));
        assert!(t.contains("Cubic"));
        let s = speedup_table(&o[0], &o[1..]);
        assert!(s.contains("vs protocol"));
        assert!(s.contains("Cubic"));
        assert!(!s.contains("RemyCC d=1 "), "reference row skipped");
    }

    #[test]
    fn csv_rows_have_stable_shape() {
        let row = outcome_csv_row(&outcome("A,B", 1.0, 2.0));
        assert!(row.starts_with("A;B,"), "commas in labels are escaped");
        assert_eq!(
            row.split(',').count(),
            OUTCOMES_CSV_HEADER.split(',').count()
        );
    }

    #[test]
    fn report_prints_and_writes() {
        let rep = ExperimentReport {
            csv_name: "report_test".to_string(),
            csv_header: "a,b".to_string(),
            csv_rows: vec!["1,2".to_string()],
            text: "== t ==\n".to_string(),
        };
        rep.write_csv();
        let path = experiments_dir().join("report_test.csv");
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body, "a,b\n1,2\n");
    }
}
