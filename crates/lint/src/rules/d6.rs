//! **d6-wallclock-serialization** — no wall-clock metadata in serialized
//! results.
//!
//! Golden specs, trained tables, and experiment CSVs are compared
//! byte-for-byte by the spec gate and the determinism suites. One
//! `"generated_at": <now>` field in a serializer and every golden churns
//! on every run — the classic way reproducibility checks rot into
//! `--force` updates. This rule bans date/timestamp-like **field names**
//! in string literals of sim-crate source: if a document needs
//! provenance, record inputs (seeds, budgets, rule counts — as
//! `WhiskerTree::provenance` does), never the time the run happened.

use crate::lexer::TokKind;
use crate::{FileCtx, Rule};

/// Field names that would embed the run's wall-clock identity.
const BANNED_FIELDS: [&str; 10] = [
    "date",
    "datetime",
    "timestamp",
    "generated_at",
    "created_at",
    "wall_time",
    "walltime",
    "wall_clock",
    "hostname",
    "build_time",
];

pub(crate) fn rule() -> Rule {
    Rule {
        id: "d6-wallclock-serialization",
        summary: "date/timestamp-like field name in a serialized document — results \
                  must be byte-stable across runs; record seeds and budgets instead",
        applies: super::sim_crate_src,
        check,
    }
}

fn check(ctx: &FileCtx) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.test_mask[i] || t.kind != TokKind::Str {
            continue;
        }
        let lower = t.text.to_ascii_lowercase();
        for field in BANNED_FIELDS {
            if contains_word(&lower, field) {
                out.push((
                    t.line,
                    format!(
                        "field name \"{field}\" leaks wall-clock identity into a \
                         serialized document; goldens must be byte-stable — record \
                         seeds/budgets, not run time"
                    ),
                ));
            }
        }
    }
    out
}

/// True when `word` occurs in `s` delimited by non-identifier characters
/// (so `"update"` does not trip on `date`, but `"\"generated_at\": "`
/// does on `generated_at`).
fn contains_word(s: &str, word: &str) -> bool {
    let bytes = s.as_bytes();
    let mut from = 0;
    while let Some(pos) = s[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let ok_before =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let ok_after =
            end == s.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if ok_before && ok_after {
            return true;
        }
        from = start + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use crate::rules::testutil::{lines_of, scan};

    #[test]
    fn flags_timestampish_field_names() {
        let src = "\
fn to_json() -> String {
    let mut s = String::new();
    s.push_str(\"timestamp\");
    s.push_str(\"generated_at\");
    s
}
";
        let d = scan(src);
        assert_eq!(lines_of(&d, "d6-wallclock-serialization"), vec![3, 4]);
    }

    #[test]
    fn flags_fields_embedded_in_json_fragments() {
        let src = "\
fn to_json() -> String {
    let mut s = String::from(\"{\");
    s.push_str(\", \\\"generated_at\\\": 0\");
    s
}
";
        let d = scan(src);
        assert_eq!(lines_of(&d, "d6-wallclock-serialization"), vec![3]);
    }

    #[test]
    fn word_boundaries_prevent_substring_hits() {
        let src = "\
fn f() -> &'static str {
    \"update the candidate; consolidate the estimate\"
}
";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn ordinary_field_names_are_clean() {
        let src = "\
fn to_json() -> String {
    let fields = [\"seed\", \"runs\", \"sim_secs\", \"mean_throughput_mbps\"];
    fields.join(\",\")
}
";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn prose_mentioning_dates_is_clean() {
        let src = "// the date of the paper is 2013; timestamp discussion in prose\nfn f() {}\n";
        assert!(scan(src).is_empty());
    }
}
