//! The whisker tree: Remy's piecewise-constant rule table (§4.2–4.3).
//!
//! A RemyCC "is defined by a set of piecewise-constant rules, each one
//! mapping a three-dimensional rectangular region of the three-dimensional
//! memory space to a three-dimensional action". Remy grows the table by
//! splitting the most-used rule at the median memory value that triggered
//! it, "producing eight new rules (one per dimension of the memory-space)"
//! — an octree over memory space whose granularity is finest where traffic
//! actually lands.

use crate::action::Action;
use crate::json::{self, Codec, Plain, Reader, Value, Wire, WireError};
use crate::memory::{Memory, MEMORY_MAX};
use netsim::time::Ns;
use std::sync::Arc;

/// A half-open axis-aligned box `[lo, hi)` in memory space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cube {
    /// Inclusive lower corner.
    pub lo: Memory,
    /// Exclusive upper corner.
    pub hi: Memory,
}

impl Cube {
    /// The whole valid memory domain.
    pub fn whole() -> Cube {
        Cube {
            lo: Memory {
                ack_ewma_ms: 0.0,
                send_ewma_ms: 0.0,
                rtt_ratio: 0.0,
            },
            hi: Memory {
                // Slightly past MEMORY_MAX so clamped values at exactly
                // MEMORY_MAX fall inside the half-open domain.
                ack_ewma_ms: MEMORY_MAX + 1.0,
                send_ewma_ms: MEMORY_MAX + 1.0,
                rtt_ratio: MEMORY_MAX + 1.0,
            },
        }
    }

    /// True if the point is inside.
    pub fn contains(&self, m: Memory) -> bool {
        (0..3).all(|i| m.axis(i) >= self.lo.axis(i) && m.axis(i) < self.hi.axis(i))
    }

    /// The geometric center.
    pub fn midpoint(&self) -> Memory {
        let mut m = Memory::INITIAL;
        for i in 0..3 {
            *m.axis_mut(i) = 0.5 * (self.lo.axis(i) + self.hi.axis(i));
        }
        m
    }
}

/// One rule: a region of memory space and the action it maps to.
#[derive(Clone, Debug)]
pub struct Whisker {
    /// Stable identifier within its tree (usage statistics key).
    pub id: usize,
    /// The region this rule covers.
    pub domain: Cube,
    /// The action applied whenever memory lands in `domain`.
    pub action: Action,
    /// The optimizer epoch this rule was last improved in (§4.3).
    pub epoch: u64,
}

#[derive(Clone, Debug)]
enum Node {
    Leaf(Whisker),
    Branch(Branch),
}

/// An interior node of the octree.
#[derive(Clone, Debug)]
struct Branch {
    domain: Cube,
    /// Component-wise split point.
    split: Memory,
    /// Eight children indexed by the 3-bit code: bit i set ⇔
    /// `memory.axis(i) >= split.axis(i)`.
    children: Vec<Node>,
}

impl Node {
    fn lookup(&self, m: Memory) -> &Whisker {
        match self {
            Node::Leaf(w) => w,
            Node::Branch(b) => {
                let mut idx = 0usize;
                for i in 0..3 {
                    if m.axis(i) >= b.split.axis(i) {
                        idx |= 1 << i;
                    }
                }
                b.children[idx].lookup(m)
            }
        }
    }

    fn find_mut(&mut self, id: usize) -> Option<&mut Whisker> {
        match self {
            Node::Leaf(w) => (w.id == id).then_some(w),
            Node::Branch(b) => b.children.iter_mut().find_map(|c| c.find_mut(id)),
        }
    }

    fn visit<'a>(&'a self, out: &mut Vec<&'a Whisker>) {
        match self {
            Node::Leaf(w) => out.push(w),
            Node::Branch(b) => {
                for c in &b.children {
                    c.visit(out);
                }
            }
        }
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Whisker)) {
        match self {
            Node::Leaf(w) => f(w),
            Node::Branch(b) => {
                for c in &mut b.children {
                    c.visit_mut(f);
                }
            }
        }
    }
}

/// The complete rule table of one RemyCC.
#[derive(Clone, Debug)]
pub struct WhiskerTree {
    root: Node,
    /// Next unassigned whisker id (ids are never reused).
    next_id: usize,
    /// Free-form provenance (design ranges, δ, training budget) recorded
    /// by the optimizer for reports.
    pub provenance: String,
    /// Flattened lookup view, shared by every RemyCC running this table.
    /// Rebuilt eagerly by the mutating methods (`set_action`, `split`,
    /// `from_json`), so it is always in sync with `root` and `flat()` is
    /// a plain read — no interior mutability, nothing to invalidate.
    flat: Arc<FlatTree>,
}

impl WhiskerTree {
    /// The single-rule table Remy starts from: the whole memory domain
    /// mapped to the default action `(m=1, b=1, r=0.01)`.
    pub fn single_rule() -> WhiskerTree {
        let root = Node::Leaf(Whisker {
            id: 0,
            domain: Cube::whole(),
            action: Action::DEFAULT,
            epoch: 0,
        });
        let flat = Arc::new(FlatTree::build(&root));
        WhiskerTree {
            root,
            next_id: 1,
            provenance: String::new(),
            flat,
        }
    }

    /// The rule covering the given memory point.
    pub fn lookup(&self, m: Memory) -> &Whisker {
        self.root.lookup(m.clamped())
    }

    /// The flattened lookup view of this table, kept in sync with the
    /// octree by every mutating method. All per-ACK lookups (see
    /// [`crate::remycc::RemyCc`]) go through this view rather than
    /// walking the boxed octree.
    pub fn flat(&self) -> Arc<FlatTree> {
        Arc::clone(&self.flat)
    }

    /// All rules, in tree order.
    pub fn whiskers(&self) -> Vec<&Whisker> {
        let mut out = Vec::new();
        self.root.visit(&mut out);
        out
    }

    /// Number of rules. (The paper's general-purpose RemyCCs contain
    /// "between 162 and 204 rules".)
    pub fn len(&self) -> usize {
        self.whiskers().len()
    }

    /// True if the tree is a single rule.
    pub fn is_empty(&self) -> bool {
        false // a tree always has at least one rule
    }

    /// Upper bound on whisker ids (usage vectors size to this).
    pub fn id_bound(&self) -> usize {
        self.next_id
    }

    /// Replace the action of rule `id`.
    pub fn set_action(&mut self, id: usize, action: Action) {
        let w = self
            .root
            .find_mut(id)
            // lint:allow(p2-sim-panic): mutating a nonexistent whisker id
            // is an optimizer logic bug — silent corruption is worse.
            .unwrap_or_else(|| panic!("no whisker with id {id}"));
        w.action = action;
        self.flat = Arc::new(FlatTree::build(&self.root));
    }

    /// Fetch a rule by id.
    pub fn get(&self, id: usize) -> Option<&Whisker> {
        self.whiskers().into_iter().find(|w| w.id == id)
    }

    /// Mark every rule as belonging to `epoch` (§4.3 step 1).
    pub fn set_all_epochs(&mut self, epoch: u64) {
        self.root.visit_mut(&mut |w| w.epoch = epoch);
    }

    /// Advance one rule past the current epoch (§4.3 step 3 exit).
    pub fn bump_epoch(&mut self, id: usize) {
        let w = self
            .root
            .find_mut(id)
            // lint:allow(p2-sim-panic): same invariant as set_action —
            // ids come from iterating this tree, so a miss is a logic error.
            .unwrap_or_else(|| panic!("no whisker with id {id}"));
        w.epoch += 1;
    }

    /// Split rule `id` at `point` into eight children inheriting the
    /// parent's action (§4.3 step 5). The split point is clamped strictly
    /// inside the domain; returns `false` (tree unchanged) if the domain
    /// is too small to subdivide.
    pub fn split(&mut self, id: usize, point: Memory) -> bool {
        // Find the leaf and compute the clamped split point first.
        let Some(w) = self.root.find_mut(id) else {
            // lint:allow(p2-sim-panic): splitting a nonexistent whisker
            // id means the usage table and tree diverged — a logic error.
            panic!("no whisker with id {id}");
        };
        let domain = w.domain;
        let action = w.action;
        let epoch = w.epoch;
        let mut split = Memory::INITIAL;
        for i in 0..3 {
            let lo = domain.lo.axis(i);
            let hi = domain.hi.axis(i);
            let span = hi - lo;
            if span <= 1e-6 {
                return false; // cell too thin to split on this axis
            }
            // Keep the split strictly interior; the margin is tiny so a
            // median near zero (where most memory values live) is honored
            // almost exactly.
            let margin = (span * 1e-6).max(1e-9);
            *split.axis_mut(i) = point.axis(i).clamp(lo + margin, hi - margin);
        }
        // Build children.
        let mut children = Vec::with_capacity(8);
        for code in 0..8usize {
            let mut lo = domain.lo;
            let mut hi = domain.hi;
            for i in 0..3 {
                if code & (1 << i) != 0 {
                    *lo.axis_mut(i) = split.axis(i);
                } else {
                    *hi.axis_mut(i) = split.axis(i);
                }
            }
            children.push(Node::Leaf(Whisker {
                id: self.next_id + code,
                domain: Cube { lo, hi },
                action,
                epoch,
            }));
        }
        self.next_id += 8;
        // Replace the leaf in place.
        // lint:allow(p1-sim-unwrap): find_mut(id) succeeded at the top of
        // this method and nothing has removed nodes since.
        let target = self.root.find_node_mut(id).expect("leaf located above");
        *target = Node::Branch(Branch {
            domain,
            split,
            children,
        });
        self.flat = Arc::new(FlatTree::build(&self.root));
        true
    }

    /// Rules belonging to `epoch`, as (id, use-count) given a usage table;
    /// used by the optimizer's "most-used rule in this epoch" step.
    pub fn most_used_in_epoch(&self, epoch: u64, usage: &Usage) -> Option<usize> {
        self.whiskers()
            .into_iter()
            .filter(|w| w.epoch == epoch)
            .map(|w| (w.id, usage.count(w.id)))
            .filter(|&(_, c)| c > 0)
            .max_by_key(|&(id, c)| (c, std::cmp::Reverse(id)))
            .map(|(id, _)| id)
    }

    /// The most-used rule overall (splitting step).
    pub fn most_used(&self, usage: &Usage) -> Option<usize> {
        self.whiskers()
            .into_iter()
            .map(|w| (w.id, usage.count(w.id)))
            .filter(|&(_, c)| c > 0)
            .max_by_key(|&(id, c)| (c, std::cmp::Reverse(id)))
            .map(|(id, _)| id)
    }

    /// Serialize to pretty JSON (the shipped rule-table asset format).
    pub fn to_json(&self) -> String {
        self.to_json_value().pretty()
    }

    /// Parse a JSON rule table. The reader is strict — a key the format
    /// does not declare is an error — and checks the rule ids before
    /// anything sizes a buffer by them.
    pub fn from_json(s: &str) -> Result<WhiskerTree, WireError> {
        WhiskerTree::from_json_value(&json::parse(s)?)
    }

    /// The id checks of a table read from JSON, then its lookup view.
    /// Splitting issues eight ids per branch after the root's 0, so
    /// `next_id ≤ 1 + 8 × branches`; every leaf id is distinct and below
    /// `next_id` (a hand-edited `"next_id": 1e15` would otherwise size
    /// usage tables in petabytes, and a repeated id would let
    /// `set_action` / `split` edit the wrong rule).
    fn loaded(&mut self) -> Result<(), WireError> {
        let leaves = self.whiskers();
        // Every branch holds eight nodes, so leaves = 1 + 7 × branches.
        let (next_id, branches) = (self.next_id, (leaves.len() - 1) / 7);
        let bound = 1 + 8 * branches;
        if next_id > bound {
            let reason = format!("{next_id} exceeds 1 + 8 × {branches} branches = {bound}");
            return Err(WireError::new(reason).within("next_id"));
        }
        let mut seen = vec![false; next_id];
        for id in leaves.iter().map(|w| w.id) {
            let reason = match seen.get_mut(id) {
                None => format!("leaf id {id} is not below next_id {next_id}"),
                Some(true) => format!("leaf id {id} appears twice"),
                Some(unseen) => {
                    *unseen = true;
                    continue;
                }
            };
            return Err(WireError::new(reason).within("root"));
        }
        self.flat = Arc::new(FlatTree::build(&self.root));
        Ok(())
    }
}

// --- JSON mapping (the serde derive layout these types once used) ----------

netsim::record! {
    WhiskerTree { root: "root", next_id: "next_id", provenance: "provenance" }
    skip { flat }
    check WhiskerTree::loaded
}

netsim::record! { Cube { lo: "lo", hi: "hi" } }

netsim::record! { Whisker { id: "id", domain: "domain", action: "action", epoch: "epoch" } }

netsim::record! { Branch { domain: "domain", split: "split", children: "children" as Octants } }

/// A branch's `children`: exactly one per octant.
struct Octants;

impl Codec<Vec<Node>> for Octants {
    fn read(v: &Value) -> Result<Vec<Node>, WireError> {
        let children = Vec::<Node>::from_json_value(v)?;
        if children.len() != 8 {
            let reason = format!("expected 8 children, found {}", children.len());
            return Err(WireError::new(reason));
        }
        Ok(children)
    }
}

// A node is externally tagged: `{"Leaf": {...}}` or `{"Branch": {...}}`.
const LEAF: &str = "Leaf";
const BRANCH: &str = "Branch";

impl Wire for Node {
    fn to_json_value(&self) -> Value {
        match self {
            Node::Leaf(w) => Value::obj(vec![(LEAF, w.to_json_value())]),
            Node::Branch(b) => Value::obj(vec![(BRANCH, b.to_json_value())]),
        }
    }

    fn from_json_value(v: &Value) -> Result<Node, WireError> {
        let r = Reader::new(v, &[LEAF, BRANCH])?;
        match (r.get(LEAF), r.get(BRANCH)) {
            (Some(_), None) => Ok(Node::Leaf(r.req::<_, Plain>(LEAF)?)),
            (None, Some(_)) => Ok(Node::Branch(r.req::<_, Plain>(BRANCH)?)),
            _ => Err(WireError::new("expected exactly one of Leaf, Branch")),
        }
    }
}

impl Node {
    /// Find the *node* holding leaf `id` (for in-place replacement).
    fn find_node_mut(&mut self, id: usize) -> Option<&mut Node> {
        match self {
            Node::Leaf(w) if w.id == id => Some(self),
            Node::Leaf(_) => None,
            Node::Branch(b) => b.children.iter_mut().find_map(|c| c.find_node_mut(id)),
        }
    }
}

// ---------------------------------------------------------------------------
// Flattened lookup view
// ---------------------------------------------------------------------------

/// Child references pack "leaf or branch" into one `u32`: the high bit
/// selects the leaf array, the low 31 bits index into it.
const LEAF_BIT: u32 = 1 << 31;

#[derive(Debug)]
struct FlatBranch {
    /// Component-wise split point of this interior node.
    split: [f64; 3],
    /// Packed refs of the eight children, indexed by the 3-bit octant code.
    children: [u32; 8],
}

/// One rule of a [`FlatTree`]: just what the per-ACK hot path needs.
#[derive(Clone, Copy, Debug)]
pub struct FlatLeaf {
    /// The whisker id (usage-statistics key).
    pub id: usize,
    /// The action this rule maps to.
    pub action: Action,
    /// `action.intersend()`, converted once when the leaf is built rather
    /// than on every ACK that hits the rule.
    pub intersend: Ns,
}

impl FlatLeaf {
    /// Rule `id` mapping to `action`.
    pub fn new(id: usize, action: Action) -> FlatLeaf {
        FlatLeaf {
            id,
            action,
            intersend: action.intersend(),
        }
    }
}

/// A flattened, allocation-dense view of a [`WhiskerTree`] built once per
/// table: interior nodes live in one branch array, rules in one leaf
/// array, and a lookup is a short loop over packed `u32` child refs
/// instead of a recursive walk over boxed `Vec<Node>` octree nodes.
#[derive(Debug, Default)]
pub struct FlatTree {
    branches: Vec<FlatBranch>,
    leaves: Vec<FlatLeaf>,
    /// Packed ref of the root (a table can be a single leaf).
    root: u32,
    /// Whisker id → leaf slot (`u32::MAX` for ids not present).
    slot_of_id: Vec<u32>,
}

impl FlatTree {
    fn build(root: &Node) -> FlatTree {
        let mut flat = FlatTree {
            branches: Vec::new(),
            leaves: Vec::new(),
            root: 0,
            slot_of_id: Vec::new(),
        };
        flat.root = flat.intern(root);
        flat
    }

    fn intern(&mut self, node: &Node) -> u32 {
        match node {
            Node::Leaf(w) => {
                let slot = self.leaves.len() as u32;
                self.leaves.push(FlatLeaf::new(w.id, w.action));
                if self.slot_of_id.len() <= w.id {
                    self.slot_of_id.resize(w.id + 1, u32::MAX);
                }
                self.slot_of_id[w.id] = slot;
                slot | LEAF_BIT
            }
            Node::Branch(b) => {
                let idx = self.branches.len();
                let split = b.split;
                self.branches.push(FlatBranch {
                    split: [split.ack_ewma_ms, split.send_ewma_ms, split.rtt_ratio],
                    children: [0; 8],
                });
                for (code, child) in b.children.iter().enumerate() {
                    let packed = self.intern(child);
                    self.branches[idx].children[code] = packed;
                }
                idx as u32
            }
        }
    }

    /// The leaf slot covering memory point `m` (clamped into the domain,
    /// exactly as [`WhiskerTree::lookup`] clamps).
    #[inline]
    pub fn lookup_slot(&self, m: Memory) -> usize {
        let m = m.clamped();
        let mut r = self.root;
        while r & LEAF_BIT == 0 {
            let b = &self.branches[r as usize];
            let mut code = 0usize;
            if m.ack_ewma_ms >= b.split[0] {
                code |= 1;
            }
            if m.send_ewma_ms >= b.split[1] {
                code |= 2;
            }
            if m.rtt_ratio >= b.split[2] {
                code |= 4;
            }
            r = b.children[code];
        }
        (r & !LEAF_BIT) as usize
    }

    /// The rule stored at a leaf slot.
    #[inline]
    pub fn leaf(&self, slot: usize) -> &FlatLeaf {
        &self.leaves[slot]
    }

    /// The leaf covering memory point `m`.
    #[inline]
    pub fn lookup(&self, m: Memory) -> &FlatLeaf {
        &self.leaves[self.lookup_slot(m)]
    }

    /// The leaf slot of whisker `id`, if present.
    pub fn slot_of(&self, id: usize) -> Option<usize> {
        match self.slot_of_id.get(id) {
            Some(&s) if s != u32::MAX => Some(s as usize),
            _ => None,
        }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// A flat tree always holds at least one rule.
    pub fn is_empty(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Usage statistics
// ---------------------------------------------------------------------------

// `Usage` lives next to the `CongestionControl` trait so that its
// `take_usage` hook can return it without a downcast; the optimizer-side
// consumers (most-used rule selection, median split points) stay here.
pub use netsim::cc::{Usage, MAX_SAMPLES};

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn mem(a: f64, s: f64, r: f64) -> Memory {
        Memory {
            ack_ewma_ms: a,
            send_ewma_ms: s,
            rtt_ratio: r,
        }
    }

    #[test]
    fn single_rule_covers_everything() {
        let t = WhiskerTree::single_rule();
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(Memory::INITIAL).id, 0);
        assert_eq!(t.lookup(mem(16_384.0, 0.0, 9_000.0)).id, 0);
        assert_eq!(t.lookup(mem(1e18, -5.0, 3.0)).id, 0, "clamped lookup");
    }

    #[test]
    fn split_produces_eight_disjoint_children() {
        let mut t = WhiskerTree::single_rule();
        assert!(t.split(0, mem(100.0, 200.0, 2.0)));
        assert_eq!(t.len(), 8);
        // Every corner of the old domain maps to a distinct child.
        let mut seen = std::collections::HashSet::new();
        for &a in &[50.0, 150.0] {
            for &s in &[100.0, 300.0] {
                for &r in &[1.0, 3.0] {
                    seen.insert(t.lookup(mem(a, s, r)).id);
                }
            }
        }
        assert_eq!(seen.len(), 8, "each octant its own rule");
    }

    #[test]
    fn children_inherit_action_and_epoch() {
        let mut t = WhiskerTree::single_rule();
        let act = Action {
            window_multiple: 0.5,
            window_increment: 3.0,
            intersend_ms: 1.0,
        };
        t.set_action(0, act);
        t.set_all_epochs(7);
        t.split(0, mem(8.0, 8.0, 2.0));
        for w in t.whiskers() {
            assert_eq!(w.action, act);
            assert_eq!(w.epoch, 7);
        }
    }

    #[test]
    fn lookup_total_after_many_splits() {
        // The partition property: every memory point maps to exactly one
        // rule whose domain contains it.
        let mut t = WhiskerTree::single_rule();
        t.split(0, mem(10.0, 10.0, 1.5));
        let first_children: Vec<usize> = t.whiskers().iter().map(|w| w.id).collect();
        t.split(first_children[0], mem(5.0, 5.0, 1.2));
        t.split(first_children[7], mem(1000.0, 1000.0, 4.0));
        assert_eq!(t.len(), 22);
        for &a in &[0.0, 5.0, 9.0, 11.0, 500.0, 16_000.0] {
            for &s in &[0.0, 7.0, 20.0, 12_000.0] {
                for &r in &[0.0, 1.3, 2.0, 10.0] {
                    let w = t.lookup(mem(a, s, r));
                    assert!(w.domain.contains(mem(a, s, r)));
                }
            }
        }
    }

    #[test]
    fn split_point_is_clamped_inside() {
        let mut t = WhiskerTree::single_rule();
        // Degenerate median at the domain edge must still split.
        assert!(t.split(0, mem(0.0, 0.0, 0.0)));
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn tiny_cells_refuse_to_split() {
        let mut t = WhiskerTree::single_rule();
        let mut id = 0;
        // Repeatedly split the lowest-corner child; spans shrink toward
        // the 1e-6 floor and the split must eventually refuse.
        let mut splits = 0;
        loop {
            if !t.split(id, mem(0.0, 0.0, 0.0)) {
                break;
            }
            splits += 1;
            assert!(splits < 100, "split never refused");
            // child 0 of the fresh split has the smallest corner
            id = t
                .whiskers()
                .iter()
                .map(|w| w.id)
                .max()
                .expect("rules exist")
                - 7;
        }
        // Each corner split shrinks the corner child by ~10⁶×, so the
        // 1e-6 span floor is reached after a couple of splits.
        assert!(splits >= 2, "should manage a few splits before refusing");
    }

    #[test]
    fn epochs_and_most_used() {
        let mut t = WhiskerTree::single_rule();
        t.split(0, mem(10.0, 10.0, 2.0));
        let ids: Vec<usize> = t.whiskers().iter().map(|w| w.id).collect();
        let mut u = Usage::new(t.id_bound());
        u.record(ids[3], mem(5.0, 20.0, 3.0));
        u.record(ids[3], mem(6.0, 21.0, 3.0));
        u.record(ids[5], mem(20.0, 5.0, 3.0));
        assert_eq!(t.most_used(&u), Some(ids[3]));
        assert_eq!(t.most_used_in_epoch(0, &u), Some(ids[3]));
        t.bump_epoch(ids[3]);
        assert_eq!(t.most_used_in_epoch(0, &u), Some(ids[5]));
        t.bump_epoch(ids[5]);
        assert_eq!(t.most_used_in_epoch(0, &u), None, "unused rules skipped");
    }

    #[test]
    fn flat_view_matches_octree_lookup() {
        let mut t = WhiskerTree::single_rule();
        t.split(0, mem(10.0, 10.0, 1.5));
        let ids: Vec<usize> = t.whiskers().iter().map(|w| w.id).collect();
        t.split(ids[0], mem(5.0, 5.0, 1.2));
        t.split(ids[7], mem(1000.0, 1000.0, 4.0));
        let flat = t.flat();
        assert_eq!(flat.len(), t.len());
        for &a in &[0.0, 5.0, 9.0, 11.0, 500.0, 16_000.0, 1e18] {
            for &s in &[0.0, 7.0, 20.0, 12_000.0] {
                for &r in &[0.0, 1.3, 2.0, 10.0] {
                    let m = mem(a, s, r);
                    let slow = t.lookup(m);
                    let fast = flat.lookup(m);
                    assert_eq!(slow.id, fast.id);
                    assert_eq!(slow.action, fast.action);
                }
            }
        }
    }

    #[test]
    fn flat_view_slot_mapping_and_invalidation() {
        let mut t = WhiskerTree::single_rule();
        t.split(0, mem(10.0, 10.0, 1.5));
        let flat = t.flat();
        assert!(flat.slot_of(0).is_none(), "split rule ids are retired");
        for w in t.whiskers() {
            let slot = flat.slot_of(w.id).expect("live rule has a slot");
            assert_eq!(flat.leaf(slot).id, w.id);
            assert_eq!(flat.leaf(slot).action, w.action);
        }
        assert!(flat.slot_of(999).is_none());
        // Mutating an action must invalidate the cached view.
        let ids: Vec<usize> = t.whiskers().iter().map(|w| w.id).collect();
        let act = Action {
            window_multiple: 0.25,
            window_increment: -1.0,
            intersend_ms: 2.0,
        };
        t.set_action(ids[3], act);
        let flat2 = t.flat();
        let slot = flat2.slot_of(ids[3]).expect("slot");
        assert_eq!(flat2.leaf(slot).action, act);
    }

    /// Every leaf of `t`'s flat view carries its action's pacing gap,
    /// converted exactly as `Action::intersend` converts it.
    pub(crate) fn assert_leaf_gaps_match(t: &WhiskerTree) {
        let flat = t.flat();
        for slot in 0..flat.len() {
            let leaf = flat.leaf(slot);
            assert_eq!(leaf.intersend, leaf.action.intersend(), "rule {}", leaf.id);
        }
    }

    #[test]
    fn flat_leaves_carry_each_actions_pacing_gap() {
        let mut t = WhiskerTree::single_rule();
        assert_leaf_gaps_match(&t);
        t.split(0, mem(10.0, 10.0, 1.5));
        assert_leaf_gaps_match(&t);
        let ids: Vec<usize> = t.whiskers().iter().map(|w| w.id).collect();
        for (k, &id) in ids.iter().enumerate() {
            t.set_action(
                id,
                Action {
                    intersend_ms: 0.001 + 0.37 * k as f64,
                    ..Action::DEFAULT
                },
            );
            assert_leaf_gaps_match(&t);
        }
        t.split(ids[3], mem(5.0, 5.0, 1.2));
        assert_leaf_gaps_match(&t);
        let back = WhiskerTree::from_json(&t.to_json()).expect("parse");
        assert_leaf_gaps_match(&back);
    }

    #[test]
    fn flat_view_is_shared_until_mutation() {
        let t = {
            let mut t = WhiskerTree::single_rule();
            t.split(0, mem(8.0, 8.0, 2.0));
            t
        };
        let a = t.flat();
        let b = t.flat();
        assert!(Arc::ptr_eq(&a, &b), "cached view is reused");
    }

    #[test]
    fn usage_median_is_componentwise() {
        let mut u = Usage::new(1);
        u.record(0, mem(1.0, 30.0, 1.0));
        u.record(0, mem(2.0, 10.0, 5.0));
        u.record(0, mem(3.0, 20.0, 3.0));
        let m = u.median_memory(0).expect("samples exist");
        assert_eq!(m.ack_ewma_ms, 2.0);
        assert_eq!(m.send_ewma_ms, 20.0);
        assert_eq!(m.rtt_ratio, 3.0);
        assert!(u.median_memory(5).is_none());
    }

    #[test]
    fn usage_merge_accumulates() {
        let mut a = Usage::new(2);
        let mut b = Usage::new(2);
        a.record(0, Memory::INITIAL);
        b.record(0, Memory::INITIAL);
        b.record(1, Memory::INITIAL);
        a.merge(&b);
        assert_eq!(a.count(0), 2);
        assert_eq!(a.count(1), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn usage_sample_cap_holds() {
        let mut u = Usage::new(1);
        for k in 0..10_000 {
            u.record(0, mem(k as f64, 0.0, 1.0));
        }
        assert_eq!(u.count(0), 10_000);
        assert!(u.median_memory(0).is_some());
    }

    #[test]
    fn json_round_trip() {
        let mut t = WhiskerTree::single_rule();
        t.split(0, mem(50.0, 60.0, 2.0));
        let ids: Vec<usize> = t.whiskers().iter().map(|w| w.id).collect();
        t.set_action(
            ids[2],
            Action {
                window_multiple: 0.8,
                window_increment: -2.0,
                intersend_ms: 3.5,
            },
        );
        t.provenance = "test".into();
        let json = t.to_json();
        let back = WhiskerTree::from_json(&json).expect("parse");
        assert_eq!(back.len(), t.len());
        assert_eq!(back.provenance, "test");
        let m = mem(100.0, 100.0, 3.0);
        assert_eq!(back.lookup(m).action, t.lookup(m).action);
        assert!(WhiskerTree::from_json("{").is_err());
    }

    #[test]
    fn loaded_ids_are_checked_before_anything_is_sized_by_them() {
        let mut t = WhiskerTree::single_rule();
        t.split(0, mem(50.0, 60.0, 2.0));
        let text = t.to_json();
        assert!(text.contains("\"next_id\": 9,") && text.contains("\"id\": 8,"));
        assert!(WhiskerTree::from_json(&text).is_ok());
        let load = |from: &str, to: &str| {
            let edited = text.replacen(from, to, 1);
            assert_ne!(edited, text);
            WhiskerTree::from_json(&edited).unwrap_err().to_string()
        };
        // One split issues ids 1..=8: next_id is at most 1 + 8 × branches.
        assert_eq!(
            load("\"next_id\": 9,", "\"next_id\": 1e15,"),
            "next_id: 1000000000000000 exceeds 1 + 8 × 1 branches = 9"
        );
        assert_eq!(
            load("\"id\": 2,", "\"id\": 1,"),
            "root: leaf id 1 appears twice"
        );
        assert_eq!(
            load("\"next_id\": 9,", "\"next_id\": 8,"),
            "root: leaf id 8 is not below next_id 8"
        );
        // A branch lists one child per octant.
        let mut v = json::parse(&text).unwrap();
        let mut node = &mut v;
        for key in ["root", "Branch", "children"] {
            let Value::Obj(fields) = node else {
                panic!("{key}: object expected")
            };
            node = &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1;
        }
        let Value::Arr(children) = node else {
            panic!("children: array expected")
        };
        children.pop();
        assert_eq!(
            WhiskerTree::from_json_value(&v).unwrap_err().to_string(),
            "root.Branch.children: expected 8 children, found 7"
        );
        // A stray key is refused at its path, as in a spec.
        assert_eq!(
            load("\"epoch\"", "\"zz\": 0, \"epoch\""),
            "root.Branch.children[0].Leaf.zz: unknown key (known: id, domain, action, epoch)"
        );
    }
}
