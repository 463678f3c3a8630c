//! `benchmark compare A.json B.json`, or with several runs a side
//! `benchmark compare A1.json A2.json --vs B1.json B2.json`: the
//! `results.json` files of two commits (or of one, twice), row by row.
//! Each file gives one value per metric and workload; A is the base of
//! every ratio.

use crate::metrics::END_TO_END;
use crate::stats::{summarize, Summary};
use netsim::json::Value;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// All end-to-end metrics are lower-is-better. Where either side's spread
/// (quartile distance over median) is wider than the bound, the row is
/// unresolved unless every B run reads better than every A run; otherwise
/// it regressed exactly when B's median is worse by more than the bound.
pub fn verdict(a: &Summary, b: &Summary, bound: f64) -> Verdict {
    if a.spread().max(b.spread()) > bound {
        if b.max < a.min {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if b.median > a.median * (1.0 + bound) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One metric of one workload: each file's gated value.
fn values(files: &[Value], workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    files
        .iter()
        .map(|f| {
            f.field("workloads")?
                .field(workload)?
                .field("end_to_end")?
                .field(metric)?
                .field("value")?
                .as_f64()
        })
        .collect()
}

/// `(failed, ops)` summed over a side's files.
fn failed_of(files: &[Value], workload: &str) -> Result<(u64, u64), String> {
    files.iter().try_fold((0, 0), |(failed, ops), f| {
        let w = f.field("workloads")?.field(workload)?;
        Ok((
            failed + w.field("failed")?.as_u64()?,
            ops + w.field("ops")?.as_u64()?,
        ))
    })
}

/// A field that must read the same in every file of both sides.
fn all_equal(a: &[Value], b: &[Value], workload: &str, key: &str) -> bool {
    let mut seen = a.iter().chain(b).map(|f| {
        f.get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get(key))
    });
    let first = seen.next().flatten();
    first.is_some() && seen.all(|v| v == first)
}

/// Print the comparison; `Ok(true)` when no row regressed or is unresolved
/// and both sides produced the same outputs.
pub fn compare(paths_a: &[String], paths_b: &[String]) -> Result<bool, String> {
    let load_all = |paths: &[String]| {
        paths
            .iter()
            .map(|p| crate::read_json(p))
            .collect::<Result<Vec<_>, _>>()
    };
    let (a, b) = (load_all(paths_a)?, load_all(paths_b)?);
    let Some(Value::Obj(workloads)) = a.first().and_then(|f| f.get("workloads")) else {
        return Err("no 'workloads' object in the first file".to_string());
    };
    println!("A = {}\nB = {}\n", paths_a.join(" "), paths_b.join(" "));
    println!(
        "{:<14} {:<12} {:>11} {:>20} {:>11} {:>20} {:>22} {:>7}  verdict",
        "workload",
        "metric",
        "A median",
        "A q1..q3",
        "B median",
        "B q1..q3",
        "B-A (share of A)",
        "bound"
    );
    let mut clean = true;
    for (name, _) in workloads {
        for &(metric, unit, _, bound) in &END_TO_END {
            let (sa, sb) = (
                summarize(&values(&a, name, metric)?),
                summarize(&values(&b, name, metric)?),
            );
            let v = verdict(&sa, &sb, bound);
            clean &= v == Verdict::Ok;
            println!(
                "{name:<14} {metric:<12} {:>9.4} {unit:<1} {:>9.4}..{:<9.4} {:>9.4} {unit:<1} {:>9.4}..{:<9.4} {:>+10.4} ({:>+6.2} %) {:>5.0} %  {}",
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sb.q1,
                sb.q3,
                sb.median - sa.median,
                100.0 * (sb.median - sa.median) / sa.median,
                100.0 * bound,
                v.label()
            );
        }
        let share = |(failed, ops): (u64, u64)| {
            format!(
                "{failed}/{ops} = {:.2} %",
                100.0 * failed as f64 / ops.max(1) as f64
            )
        };
        println!(
            "{name:<14} failed/ops   A {}   B {}",
            share(failed_of(&a, name)?),
            share(failed_of(&b, name)?)
        );
        for key in ["result_digest", "counts"] {
            let same = all_equal(&a, &b, name, key);
            clean &= same;
            println!(
                "{name:<14} {key:<12} {}",
                if same { "identical" } else { "DIFFERENT" }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let tight = |m: f64| summarize(&[m * 0.99, m, m * 1.01]);
        // Within the bound, tight runs.
        assert_eq!(verdict(&tight(4.0), &tight(4.2), 0.10), Verdict::Ok);
        // Worse by more than the bound, tight runs.
        assert_eq!(verdict(&tight(4.0), &tight(4.6), 0.10), Verdict::Regressed);
        // Better is never a regression.
        assert_eq!(verdict(&tight(4.0), &tight(2.0), 0.10), Verdict::Ok);
        // A spread wider than the bound with overlapping runs decides nothing.
        let wide = summarize(&[3.0, 4.0, 5.0]);
        assert_eq!(verdict(&wide, &tight(4.1), 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&tight(4.0), &wide, 0.10), Verdict::Unresolved);
        // ...unless every B run beats every A run.
        assert_eq!(verdict(&wide, &tight(2.0), 0.10), Verdict::Ok);
        // One sample a side has no spread: the medians decide.
        let one = |m: f64| summarize(&[m]);
        assert_eq!(verdict(&one(100.0), &one(105.0), 0.10), Verdict::Ok);
        assert_eq!(verdict(&one(100.0), &one(111.0), 0.10), Verdict::Regressed);
    }
}
