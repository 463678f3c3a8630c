//! Plain-text persistence for delivery schedules.
//!
//! Format: one integer nanosecond delivery instant per line, optionally
//! preceded by `#`-comment lines; a final `# tail_gap_ns: N` comment
//! records the repetition gap. This mirrors the saturator-trace files
//! the paper's cellular methodology is built on, so real recordings
//! (e.g. from the Mahimahi project's public traces) can be dropped in.

use netsim::link::DeliverySchedule;
use netsim::time::Ns;

/// Serialize a schedule to the text format.
pub fn to_text(schedule: &DeliverySchedule) -> String {
    let mut out = String::new();
    out.push_str("# netsim delivery schedule v1\n");
    let mut t = Ns::ZERO;
    let mut last = Ns::ZERO;
    for _ in 0..schedule.len() {
        t = schedule.next_after(t);
        out.push_str(&format!("{}\n", t.0));
        last = t;
    }
    let tail = schedule.period() - last;
    out.push_str(&format!("# tail_gap_ns: {}\n", tail.0));
    out
}

/// Parse the text format back into a schedule.
///
/// Returns `Err` with a line-numbered message on malformed input.
pub fn from_text(text: &str) -> Result<DeliverySchedule, String> {
    let mut instants = Vec::new();
    let mut tail_gap = None;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(v) = rest.trim().strip_prefix("tail_gap_ns:") {
                let gap: u64 = v
                    .trim()
                    .parse()
                    .map_err(|e| format!("line {}: bad tail gap: {e}", lineno + 1))?;
                tail_gap = Some(Ns(gap));
            }
            continue;
        }
        let t: u64 = line
            .parse()
            .map_err(|e| format!("line {}: bad delivery instant: {e}", lineno + 1))?;
        instants.push(Ns(t));
    }
    let Some(&Ns(span)) = instants.last() else {
        return Err("no delivery instants in trace".to_string());
    };
    for (i, w) in instants.windows(2).enumerate() {
        if w[0] >= w[1] {
            return Err(format!(
                "instants must strictly increase (violated at entry {})",
                i + 1
            ));
        }
    }
    // Default: mean inter-delivery gap.
    let tail = tail_gap.unwrap_or(Ns((span / instants.len() as u64).max(1)));
    Ok(DeliverySchedule::new(instants, tail.max(Ns(1))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lte::LteModel;

    #[test]
    fn round_trip_preserves_schedule() {
        let s = LteModel::att_like().generate(3, Ns::from_secs(5));
        let text = to_text(&s);
        let back = from_text(&text).expect("parse");
        assert_eq!(s.len(), back.len());
        assert_eq!(s.period(), back.period());
        let mut t1 = Ns::ZERO;
        let mut t2 = Ns::ZERO;
        for _ in 0..s.len() {
            t1 = s.next_after(t1);
            t2 = back.next_after(t2);
            assert_eq!(t1, t2);
        }
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# hello\n\n10\n20\n\n# tail_gap_ns: 5\n30\n";
        let s = from_text(text).expect("parse");
        assert_eq!(s.len(), 3);
        assert_eq!(s.period(), Ns(35));
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_text("abc\n").is_err());
        assert!(from_text("").is_err());
        assert!(from_text("10\n10\n").is_err(), "non-increasing");
        assert!(from_text("# tail_gap_ns: x\n10\n").is_err());
    }

    #[test]
    fn default_tail_gap_is_mean_gap() {
        let s = from_text("100\n200\n300\n").expect("parse");
        // mean gap = 300/3 = 100 → period 400.
        assert_eq!(s.period(), Ns(400));
    }
}
