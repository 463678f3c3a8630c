//! The RemyCC runtime: executing a whisker tree at a sender (§4.2).
//!
//! "Operationally, a RemyCC runs as a sequence of lookups triggered by
//! incoming ACKs. Each time a RemyCC sender receives an ACK, it updates
//! its memory and then looks up the corresponding action." The action sets
//! a window multiple `m`, a window increment `b`, and a pacing floor `r`;
//! the shared transport enforces `outstanding < cwnd` and the `r`-spacing.
//!
//! Losses are deliberately not congestion signals here: RemyCCs "inherit
//! the loss-recovery behavior of whatever TCP sender they are added to"
//! but make no window adjustment of their own on loss (§4.1).

use crate::action::Action;
use crate::memory::MemoryTracker;
use crate::whisker::{FlatLeaf, FlatTree, Usage, WhiskerTree};
use netsim::cc::{AckInfo, CongestionControl, LossEvent};
use netsim::time::Ns;
use std::any::Any;
use std::sync::Arc;

/// Initial congestion window before the first ACK arrives.
pub const INITIAL_WINDOW: f64 = 2.0;

/// Sentinel for "no candidate override" (see [`RemyCc::with_candidate`]).
const NO_OVERRIDE: usize = usize::MAX;

/// A sender-side RemyCC executing a (typically Remy-designed) rule table.
pub struct RemyCc {
    tree: Arc<WhiskerTree>,
    /// Flattened lookup view shared by all senders running this table.
    flat: Arc<FlatTree>,
    /// Hill-climb candidate overlay: when the lookup lands on this leaf
    /// slot, `override_rule` applies instead of the stored rule. This
    /// lets the optimizer evaluate "base table + one changed rule" without
    /// cloning the tree per candidate.
    override_slot: usize,
    override_rule: FlatLeaf,
    memory: MemoryTracker,
    window: f64,
    intersend: Ns,
    /// Per-rule usage, kept only by a [`RemyCc::recording`] instance.
    usage: Option<Usage>,
    name: String,
    /// Ablation hook: axes set to `false` are zeroed before lookup,
    /// blinding the controller to that congestion signal (§4.1 discusses
    /// why exactly these three signals were chosen — this lets you
    /// measure it).
    signal_mask: [bool; 3],
}

impl RemyCc {
    /// Run the given rule table.
    pub fn new(tree: Arc<WhiskerTree>) -> RemyCc {
        let flat = tree.flat();
        RemyCc {
            tree,
            flat,
            override_slot: NO_OVERRIDE,
            override_rule: FlatLeaf::new(NO_OVERRIDE, Action::DEFAULT),
            memory: MemoryTracker::new(),
            window: INITIAL_WINDOW,
            intersend: Ns::ZERO,
            usage: None,
            name: "RemyCC".to_string(),
            signal_mask: [true; 3],
        }
    }

    /// Run the given rule table and record which rule every ACK hit, at
    /// which memory point, for [`RemyCc::take_usage`] to hand over (the
    /// optimizer's most-used / median-split statistics, §4.3).
    pub fn recording(tree: Arc<WhiskerTree>) -> RemyCc {
        let usage = Usage::new(tree.id_bound());
        RemyCc {
            usage: Some(usage),
            ..RemyCc::new(tree)
        }
    }

    /// Evaluate a hill-climb candidate: behave exactly as if rule `rule`'s
    /// action were `action`, without mutating or cloning the shared table.
    /// A `rule` id not present in the table leaves behaviour unchanged.
    pub fn with_candidate(mut self, rule: usize, action: Action) -> RemyCc {
        self.override_slot = self.flat.slot_of(rule).unwrap_or(NO_OVERRIDE);
        self.override_rule = FlatLeaf::new(rule, action);
        self
    }

    /// Override the display name (e.g. "RemyCC δ=0.1").
    pub fn with_name(mut self, name: impl Into<String>) -> RemyCc {
        self.name = name.into();
        self
    }

    /// Blind the controller to some memory axes (ablation studies):
    /// `[ack_ewma, send_ewma, rtt_ratio]`, `false` = zeroed before lookup.
    pub fn with_signal_mask(mut self, mask: [bool; 3]) -> RemyCc {
        self.signal_mask = mask;
        self
    }

    /// The rule table in use.
    pub fn tree(&self) -> &WhiskerTree {
        &self.tree
    }

    /// Hand over what a [`RemyCc::recording`] instance gathered (which
    /// ends the recording); `None` from every other instance.
    pub fn take_usage(&mut self) -> Option<Usage> {
        self.usage.take()
    }
}

/// The rule usage a run's recording RemyCCs gathered, merged in sender
/// order (deterministic), from the senders
/// [`netsim::sim::Simulator::run_returning_ccs`] hands back. Senders of
/// any other scheme, and RemyCCs not built by [`RemyCc::recording`], add
/// nothing.
pub fn recorded_usage(ccs: Vec<Box<dyn CongestionControl>>, id_bound: usize) -> Usage {
    let mut usage = Usage::new(id_bound);
    let remyccs = ccs
        .into_iter()
        .filter_map(|cc| (cc as Box<dyn Any>).downcast::<RemyCc>().ok());
    for sender_usage in remyccs.filter_map(|mut cc| cc.take_usage()) {
        usage.merge(&sender_usage);
    }
    usage
}

impl CongestionControl for RemyCc {
    fn on_flow_start(&mut self, _now: Ns) {
        // New on-period: memory returns to the all-zeroes state; the
        // window restarts like a fresh connection.
        self.memory.reset();
        self.window = INITIAL_WINDOW;
        self.intersend = Ns::ZERO;
    }

    fn on_ack(&mut self, info: &AckInfo) {
        let mut mem = self
            .memory
            .on_ack(info.now, info.echo_ts, info.rtt_sample, info.min_rtt);
        for i in 0..3 {
            if !self.signal_mask[i] {
                *mem.axis_mut(i) = 0.0;
            }
        }
        let slot = self.flat.lookup_slot(mem);
        let leaf = self.flat.leaf(slot);
        if let Some(usage) = &mut self.usage {
            usage.record(leaf.id, mem);
        }
        let rule = if slot == self.override_slot {
            &self.override_rule
        } else {
            leaf
        };
        self.window = rule.action.apply(self.window);
        self.intersend = rule.intersend;
    }

    fn on_loss(&mut self, _now: Ns, _event: LossEvent) {
        // Intentional no-op: loss is not a RemyCC congestion signal.
    }

    fn cwnd(&self) -> f64 {
        self.window
    }

    fn pacing(&self) -> Ns {
        self.intersend
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::memory::Memory;

    fn ack(now_ms: u64, rtt_ms: u64, min_ms: u64) -> AckInfo {
        AckInfo {
            now: Ns::from_millis(now_ms),
            rtt_sample: Ns::from_millis(rtt_ms),
            min_rtt: Ns::from_millis(min_ms),
            srtt: Ns::from_millis(rtt_ms),
            echo_ts: Ns::from_millis(now_ms.saturating_sub(rtt_ms)),
            seq: 0,
            newly_acked: 1,
            in_flight: 4,
            in_recovery: false,
            ecn_echo: false,
            xcp_feedback: None,
        }
    }

    #[test]
    fn default_rule_grows_additively() {
        // Single-rule tree, default action m=1 b=1: window += 1 per ACK.
        let mut cc = RemyCc::new(Arc::new(WhiskerTree::single_rule()));
        cc.on_flow_start(Ns::ZERO);
        let w0 = cc.cwnd();
        cc.on_ack(&ack(100, 100, 100));
        cc.on_ack(&ack(110, 100, 100));
        assert_eq!(cc.cwnd(), w0 + 2.0);
        assert_eq!(cc.pacing(), Ns::from_micros(10)); // r = 0.01 ms
    }

    #[test]
    fn region_specific_actions_apply() {
        let mut tree = WhiskerTree::single_rule();
        tree.split(
            0,
            Memory {
                ack_ewma_ms: 10.0,
                send_ewma_ms: 10.0,
                rtt_ratio: 2.0,
            },
        );
        // Rule covering high rtt_ratio territory halves the window.
        let shrink = Action {
            window_multiple: 0.5,
            window_increment: 0.0,
            intersend_ms: 5.0,
        };
        let high_ratio = Memory {
            ack_ewma_ms: 0.0,
            send_ewma_ms: 0.0,
            rtt_ratio: 4.0,
        };
        let id = tree.lookup(high_ratio).id;
        tree.set_action(id, shrink);
        let mut cc = RemyCc::new(Arc::new(tree));
        cc.on_flow_start(Ns::ZERO);
        // First ACK has rtt_ratio 4 (400 vs 100 min): shrink rule fires.
        cc.on_ack(&ack(400, 400, 100));
        assert_eq!(cc.cwnd(), 1.0, "0.5×2+0 clamped at 1");
        assert_eq!(cc.pacing(), Ns::from_millis(5));
    }

    #[test]
    fn loss_is_not_a_signal() {
        let mut cc = RemyCc::new(Arc::new(WhiskerTree::single_rule()));
        cc.on_flow_start(Ns::ZERO);
        cc.on_ack(&ack(100, 100, 100));
        let w = cc.cwnd();
        cc.on_loss(Ns::from_millis(200), LossEvent::FastRetransmit);
        cc.on_loss(Ns::from_millis(300), LossEvent::Timeout);
        assert_eq!(cc.cwnd(), w, "RemyCC ignores loss events");
    }

    #[test]
    fn flow_restart_resets_memory_and_window() {
        let mut cc = RemyCc::new(Arc::new(WhiskerTree::single_rule()));
        cc.on_flow_start(Ns::ZERO);
        for k in 0..10 {
            cc.on_ack(&ack(100 + k * 10, 120, 100));
        }
        assert!(cc.cwnd() > INITIAL_WINDOW);
        cc.on_flow_start(Ns::from_secs(5));
        assert_eq!(cc.cwnd(), INITIAL_WINDOW);
        assert_eq!(cc.memory.memory(), Memory::INITIAL);
    }

    #[test]
    fn usage_accumulates_and_drains() {
        let tree = Arc::new(WhiskerTree::single_rule());
        let mut plain = RemyCc::new(Arc::clone(&tree));
        plain.on_flow_start(Ns::ZERO);
        for k in 0..3 {
            plain.on_ack(&ack(100 + 10 * k, 100, 100));
        }
        let plain = recorded_usage(vec![Box::new(plain)], 1);
        assert_eq!(plain.total(), 0, "only a recorder pays");

        let mut cc = RemyCc::recording(tree);
        cc.on_flow_start(Ns::ZERO);
        // What the recorder must hold: the memory point of every ACK, in
        // order, thinned past MAX_SAMPLES by `Usage::record`'s own law.
        let mut tracker = MemoryTracker::new();
        let mut want = Usage::new(1);
        let n = 10 * crate::whisker::MAX_SAMPLES as u64;
        for k in 0..n {
            let a = ack(100 + 10 * k, 100 + k % 50, 100);
            cc.on_ack(&a);
            want.record(0, tracker.on_ack(a.now, a.echo_ts, a.rtt_sample, a.min_rtt));
        }
        let usage = recorded_usage(vec![Box::new(cc)], 1);
        assert_eq!(usage.count(0), n);
        assert_eq!(usage.median_memory(0), want.median_memory(0));
    }

    #[test]
    fn recorded_usage_merges_only_recorders_in_sender_order() {
        // Two recorders whose memory points differ, with more hits each
        // than MAX_SAMPLES, so the merged samples depend on the order.
        let tree = Arc::new(WhiskerTree::single_rule());
        let n = 2 * crate::whisker::MAX_SAMPLES as u64;
        let fed = |mut cc: RemyCc, rtt_ms: u64| {
            cc.on_flow_start(Ns::ZERO);
            for k in 0..n {
                cc.on_ack(&ack(100 + 10 * k, rtt_ms, 100));
            }
            cc
        };
        let senders = || -> Vec<Box<dyn CongestionControl>> {
            vec![
                Box::new(fed(RemyCc::new(Arc::clone(&tree)), 150)),
                Box::new(fed(RemyCc::recording(Arc::clone(&tree)), 300)),
                Box::new(netsim::cc::FixedWindow::new(4.0)),
                Box::new(fed(RemyCc::recording(Arc::clone(&tree)), 200)),
            ]
        };
        let got = recorded_usage(senders(), 1);

        let mut recorders = [300, 200].map(|rtt| fed(RemyCc::recording(Arc::clone(&tree)), rtt));
        let [a, b] = recorders
            .each_mut()
            .map(|cc| cc.take_usage().expect("records"));
        let mut want = Usage::new(1);
        want.merge(&a);
        want.merge(&b);
        let mut reversed = Usage::new(1);
        reversed.merge(&b);
        reversed.merge(&a);

        assert_eq!(got.count(0), 2 * n, "the plain RemyCC adds no hits");
        assert_eq!(got.total(), want.total());
        assert_eq!(got.median_memory(0), want.median_memory(0));
        assert_ne!(got.median_memory(0), reversed.median_memory(0));
    }

    #[test]
    fn candidate_overlay_changes_only_its_rule() {
        let mut tree = WhiskerTree::single_rule();
        tree.split(
            0,
            Memory {
                ack_ewma_ms: 10.0,
                send_ewma_ms: 10.0,
                rtt_ratio: 2.0,
            },
        );
        let high_ratio = Memory {
            ack_ewma_ms: 0.0,
            send_ewma_ms: 0.0,
            rtt_ratio: 4.0,
        };
        let rule = tree.lookup(high_ratio).id;
        let shared = Arc::new(tree);
        let shrink = Action {
            window_multiple: 0.5,
            window_increment: 0.0,
            intersend_ms: 5.0,
        };
        let mut cc = RemyCc::recording(Arc::clone(&shared)).with_candidate(rule, shrink);
        cc.on_flow_start(Ns::ZERO);
        // High-ratio ACK hits the overridden rule: overlay action applies.
        cc.on_ack(&ack(400, 400, 100));
        assert_eq!(cc.cwnd(), 1.0, "overlay shrink applies: 0.5×2 clamped at 1");
        assert_eq!(cc.pacing(), Ns::from_millis(5));
        // Low-ratio ACK hits a different rule: base action applies.
        cc.on_ack(&ack(500, 100, 100));
        assert_eq!(cc.cwnd(), 2.0, "base default rule still applies elsewhere");
        // Usage is recorded against the real whisker id either way.
        assert_eq!(cc.take_usage().unwrap().count(rule), 1);
        assert!(cc.take_usage().is_none(), "take drains");
        // The shared base table itself is untouched.
        assert_eq!(shared.lookup(high_ratio).action, Action::DEFAULT);
    }

    #[test]
    fn candidate_overlay_with_retired_rule_is_inert() {
        let tree = Arc::new(WhiskerTree::single_rule());
        let mut cc = RemyCc::new(tree).with_candidate(
            999,
            Action {
                window_multiple: 0.0,
                window_increment: -64.0,
                intersend_ms: 1000.0,
            },
        );
        cc.on_flow_start(Ns::ZERO);
        cc.on_ack(&ack(100, 100, 100));
        assert_eq!(cc.cwnd(), 3.0, "unknown rule id leaves behaviour unchanged");
    }

    #[test]
    fn signal_mask_blinds_an_axis() {
        // Tree splits on rtt_ratio; with the ratio masked, the high-ratio
        // rule must never fire.
        let mut tree = WhiskerTree::single_rule();
        tree.split(
            0,
            Memory {
                ack_ewma_ms: 10.0,
                send_ewma_ms: 10.0,
                rtt_ratio: 2.0,
            },
        );
        let high_ratio = Memory {
            ack_ewma_ms: 0.0,
            send_ewma_ms: 0.0,
            rtt_ratio: 4.0,
        };
        let id = tree.lookup(high_ratio).id;
        tree.set_action(
            id,
            Action {
                window_multiple: 0.5,
                window_increment: 0.0,
                intersend_ms: 5.0,
            },
        );
        let mut cc = RemyCc::new(Arc::new(tree)).with_signal_mask([true, true, false]);
        cc.on_flow_start(Ns::ZERO);
        cc.on_ack(&ack(400, 400, 100)); // true ratio 4, masked to 0
                                        // The default rule (m=1, b=1) fires instead of the shrink rule.
        assert_eq!(cc.cwnd(), 3.0);
        assert_eq!(cc.pacing(), Ns::from_micros(10));
    }

    #[test]
    fn named_instances() {
        let cc = RemyCc::new(Arc::new(WhiskerTree::single_rule())).with_name("RemyCC δ=1");
        assert_eq!(cc.name(), "RemyCC δ=1");
    }
}
