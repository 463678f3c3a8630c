//! Human-readable rule-table reports.
//!
//! §6 of the paper: "digging through the dozens of rules in a RemyCC and
//! figuring out their purpose and function is a challenging job in
//! reverse-engineering." This module is the shovel: it renders a
//! [`WhiskerTree`] as a sorted, annotated table — optionally with usage
//! counts from an evaluation run — so the learned control law can be read.

use crate::whisker::{Usage, Whisker, WhiskerTree};
use std::fmt::Write as _;

/// Compact rendering of one domain bound: `lo..hi` with the huge default
/// upper bound shown as `∞`.
fn bound(lo: f64, hi: f64) -> String {
    let hi_s = if hi > 16_000.0 {
        "inf".to_string()
    } else {
        format!("{hi:.2}")
    };
    format!("[{lo:.2},{hi_s})")
}

fn describe_rule(w: &Whisker, hits: Option<u64>) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "rule {:>3}  ack{} send{} ratio{}  ->  m={:.2} b={:+.1} r={:.3}ms",
        w.id,
        bound(w.domain.lo.ack_ewma_ms, w.domain.hi.ack_ewma_ms),
        bound(w.domain.lo.send_ewma_ms, w.domain.hi.send_ewma_ms),
        bound(w.domain.lo.rtt_ratio, w.domain.hi.rtt_ratio),
        w.action.window_multiple,
        w.action.window_increment,
        w.action.intersend_ms,
    );
    if let Some(h) = hits {
        let _ = write!(s, "  ({h} hits)");
    }
    s
}

/// Render the whole table. With `usage`, rules are sorted by hit count
/// (most-used first) and annotated; without, they appear in tree order.
pub fn report(tree: &WhiskerTree, usage: Option<&Usage>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "RemyCC rule table: {} rules", tree.len());
    if !tree.provenance.is_empty() {
        let _ = writeln!(out, "provenance: {}", tree.provenance);
    }
    let mut rules: Vec<Whisker> = tree.whiskers();
    if let Some(u) = usage {
        rules.sort_by_key(|w| std::cmp::Reverse(u.count(w.id)));
    }
    for w in &rules {
        let _ = writeln!(out, "{}", describe_rule(w, usage.map(|u| u.count(w.id))));
    }
    // A qualitative summary of what the table does.
    let ws = tree.whiskers();
    let aggressive = ws
        .iter()
        .filter(|w| w.action.window_multiple >= 1.0 || w.action.window_increment > 8.0)
        .count();
    let braking = ws
        .iter()
        .filter(|w| w.action.window_multiple < 0.5 && w.action.window_increment <= 8.0)
        .count();
    let paced = ws.iter().filter(|w| w.action.intersend_ms >= 1.0).count();
    let _ = writeln!(
        out,
        "summary: {aggressive} aggressive rule(s), {braking} braking rule(s), {paced} with >=1 ms pacing"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::memory::Memory;

    #[test]
    fn report_lists_every_rule() {
        let mut t = WhiskerTree::single_rule();
        t.split(
            0,
            Memory {
                ack_ewma_ms: 5.0,
                send_ewma_ms: 5.0,
                rtt_ratio: 1.5,
            },
        );
        t.provenance = "test-table".into();
        let r = report(&t, None);
        assert!(r.contains("8 rules"));
        assert!(r.contains("test-table"));
        assert_eq!(r.lines().filter(|l| l.starts_with("rule ")).count(), 8);
        assert!(r.contains("summary:"));
    }

    #[test]
    fn usage_sorts_most_used_first() {
        let mut t = WhiskerTree::single_rule();
        t.split(
            0,
            Memory {
                ack_ewma_ms: 5.0,
                send_ewma_ms: 5.0,
                rtt_ratio: 1.5,
            },
        );
        let ids: Vec<usize> = t.whiskers().iter().map(|w| w.id).collect();
        let mut u = Usage::new(t.id_bound());
        for _ in 0..10 {
            u.record(ids[5], Memory::INITIAL);
        }
        u.record(ids[1], Memory::INITIAL);
        let r = report(&t, Some(&u));
        let pos5 = r.find(&format!("rule {:>3}", ids[5])).unwrap();
        let pos1 = r.find(&format!("rule {:>3}", ids[1])).unwrap();
        assert!(pos5 < pos1, "most-used rule should be listed first");
        assert!(r.contains("(10 hits)"));
    }

    #[test]
    fn summary_classifies_actions() {
        let mut t = WhiskerTree::single_rule();
        t.set_action(
            0,
            Action {
                window_multiple: 0.2,
                window_increment: 1.0,
                intersend_ms: 3.0,
            },
        );
        let r = report(&t, None);
        assert!(r.contains("1 braking rule(s)"));
        assert!(r.contains("1 with >=1 ms pacing"));
    }

    #[test]
    fn infinite_bounds_render_compactly() {
        let t = WhiskerTree::single_rule();
        let r = report(&t, None);
        assert!(r.contains("inf"));
    }
}
