//! The whisker tree: Remy's piecewise-constant rule table (§4.2–4.3).
//!
//! A RemyCC "is defined by a set of piecewise-constant rules, each one
//! mapping a three-dimensional rectangular region of the three-dimensional
//! memory space to a three-dimensional action". Remy grows the table by
//! splitting the most-used rule at the median memory value that triggered
//! it, "producing eight new rules (one per dimension of the memory-space)"
//! — an octree over memory space whose granularity is finest where traffic
//! actually lands.
//!
//! The octree is stored once, as the arrays the per-ACK lookup walks: a
//! branch array (split point and eight packed child refs), a leaf array
//! (rule id, action, pacing gap), and beside them the domains and epochs
//! that only the optimizer and the JSON form read.

use crate::action::Action;
use crate::json::{self, Plain, Reader, Value, Wire, WireError};
use crate::memory::{Memory, MEMORY_MAX};
use netsim::time::Ns;

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
#[derive(Clone, Copy, Debug)]
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

/// Child references pack "leaf or branch" into one `u32`: the high bit
/// selects the leaf array, the low 31 bits index into it.
const LEAF_BIT: u32 = 1 << 31;

/// An interior node of the octree, as the lookup reads it.
#[derive(Clone, Debug)]
struct Branch {
    /// Component-wise split point.
    split: Memory,
    /// Packed refs of the eight children, indexed by the 3-bit octant
    /// code: bit i set ⇔ `memory.axis(i) >= split.axis(i)`.
    children: [u32; 8],
}

/// One rule as the per-ACK lookup reads it.
#[derive(Clone, Copy, Debug)]
pub struct Leaf {
    /// The whisker id (usage-statistics key).
    pub id: usize,
    /// The action this rule maps to.
    pub action: Action,
    /// `action.intersend()`, converted once when the rule is stored rather
    /// than on every ACK that hits it.
    pub intersend: Ns,
}

impl Leaf {
    /// Rule `id` mapping to `action`.
    pub fn new(id: usize, action: Action) -> Leaf {
        Leaf {
            id,
            action,
            intersend: action.intersend(),
        }
    }
}

// The per-ACK lookup reads one branch record per level, then one leaf.
const _: () = assert!(size_of::<Branch>() == 56 && size_of::<Leaf>() == 40);

/// The complete rule table of one RemyCC.
#[derive(Clone, Debug)]
pub struct WhiskerTree {
    /// Interior nodes, by branch index. Branch 0 is the root once the
    /// table has split: the first split is of the root, a split appends
    /// its branch, and the JSON reader stores branches in pre-order.
    branches: Vec<Branch>,
    /// The rules, by leaf slot; a table that never split is leaf slot 0.
    leaves: Vec<Leaf>,
    /// Each branch's domain, by branch index (the JSON form writes it).
    branch_domains: Vec<Cube>,
    /// Each rule's domain, by leaf slot.
    domains: Vec<Cube>,
    /// Each rule's epoch, by leaf slot.
    epochs: Vec<u64>,
    /// Whisker id → leaf slot (`u32::MAX` for split ids); `next_id` long.
    slot_of_id: Vec<u32>,
    /// Next unassigned whisker id (ids are never reused).
    next_id: usize,
    /// Free-form provenance (design ranges, δ, training budget) recorded
    /// by the optimizer for reports.
    pub provenance: String,
}

impl WhiskerTree {
    /// The single-rule table Remy starts from: the whole memory domain
    /// mapped to the default action `(m=1, b=1, r=0.01)`.
    pub fn single_rule() -> WhiskerTree {
        let mut t = WhiskerTree::empty();
        let whole = Whisker {
            id: 0,
            domain: Cube::whole(),
            action: Action::DEFAULT,
            epoch: 0,
        };
        t.put(0, whole);
        (t.slot_of_id, t.next_id) = (vec![0], 1);
        t
    }

    /// No rules yet: the start of [`WhiskerTree::single_rule`] and of a
    /// table read from JSON, not a table on its own.
    fn empty() -> WhiskerTree {
        WhiskerTree {
            branches: Vec::new(),
            leaves: Vec::new(),
            branch_domains: Vec::new(),
            domains: Vec::new(),
            epochs: Vec::new(),
            slot_of_id: Vec::new(),
            next_id: 0,
            provenance: String::new(),
        }
    }

    /// The rule covering the given memory point.
    #[inline]
    pub fn lookup(&self, m: Memory) -> &Leaf {
        &self.leaves[self.lookup_slot(m)]
    }

    /// Packed ref of the root.
    #[inline]
    fn root(&self) -> u32 {
        if self.branches.is_empty() {
            LEAF_BIT
        } else {
            0
        }
    }

    /// The leaf slot covering memory point `m`, clamped into the domain.
    #[inline]
    pub(crate) fn lookup_slot(&self, m: Memory) -> usize {
        let m = m.clamped();
        let mut r = self.root();
        while r & LEAF_BIT == 0 {
            let b = &self.branches[r as usize];
            let mut code = 0usize;
            if m.ack_ewma_ms >= b.split.ack_ewma_ms {
                code |= 1;
            }
            if m.send_ewma_ms >= b.split.send_ewma_ms {
                code |= 2;
            }
            if m.rtt_ratio >= b.split.rtt_ratio {
                code |= 4;
            }
            r = b.children[code];
        }
        (r & !LEAF_BIT) as usize
    }

    /// The rule stored at a leaf slot.
    #[inline]
    pub(crate) fn leaf(&self, slot: usize) -> &Leaf {
        &self.leaves[slot]
    }

    /// The leaf slot of whisker `id`, if present.
    pub(crate) fn slot_of(&self, id: usize) -> Option<usize> {
        match self.slot_of_id.get(id) {
            Some(&s) if s != u32::MAX => Some(s as usize),
            _ => None,
        }
    }

    /// The leaf slot of whisker `id`, which the caller took from this table.
    fn slot(&self, id: usize) -> usize {
        self.slot_of(id)
            // lint:allow(p2-sim-panic): editing a nonexistent whisker id
            // means the usage table and tree diverged — a logic error, and
            // silent corruption is worse.
            .unwrap_or_else(|| panic!("no whisker with id {id}"))
    }

    /// The table itself: the per-ACK lookup walks the same arrays every
    /// other method edits. Kept for the benchmark's lookup probes.
    pub fn flat(&self) -> &WhiskerTree {
        self
    }

    fn whisker(&self, slot: usize) -> Whisker {
        let Leaf { id, action, .. } = self.leaves[slot];
        Whisker {
            id,
            domain: self.domains[slot],
            action,
            epoch: self.epochs[slot],
        }
    }

    /// All rules, in tree order: depth first, children in octant order.
    pub fn whiskers(&self) -> Vec<Whisker> {
        let mut slots = Vec::with_capacity(self.leaves.len());
        self.slots_under(self.root(), &mut slots);
        slots.into_iter().map(|s| self.whisker(s)).collect()
    }

    fn slots_under(&self, r: u32, out: &mut Vec<usize>) {
        if r & LEAF_BIT != 0 {
            out.push((r & !LEAF_BIT) as usize);
        } else {
            for &child in &self.branches[r as usize].children {
                self.slots_under(child, out);
            }
        }
    }

    /// Number of rules. (The paper's general-purpose RemyCCs contain
    /// "between 162 and 204 rules".)
    pub fn len(&self) -> usize {
        self.leaves.len()
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
        let slot = self.slot(id);
        self.leaves[slot] = Leaf::new(id, action);
    }

    /// Fetch a rule by id.
    pub fn get(&self, id: usize) -> Option<Whisker> {
        self.slot_of(id).map(|s| self.whisker(s))
    }

    /// Mark every rule as belonging to `epoch` (§4.3 step 1).
    pub fn set_all_epochs(&mut self, epoch: u64) {
        self.epochs.fill(epoch);
    }

    /// Advance one rule past the current epoch (§4.3 step 3 exit).
    pub fn bump_epoch(&mut self, id: usize) {
        let slot = self.slot(id);
        self.epochs[slot] += 1;
    }

    /// Split rule `id` at `point` into eight children inheriting the
    /// parent's action (§4.3 step 5). The split point is clamped strictly
    /// inside the domain; returns `false` (tree unchanged) if the domain
    /// is too small to subdivide.
    pub fn split(&mut self, id: usize, point: Memory) -> bool {
        let slot = self.slot(id);
        let domain = self.domains[slot];
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
        // Child 0 takes the rule's slot and the other seven are appended;
        // the rule's id is retired.
        let (action, epoch) = (self.leaves[slot].action, self.epochs[slot]);
        self.slot_of_id[id] = u32::MAX;
        self.slot_of_id.resize(self.next_id + 8, u32::MAX);
        let mut children = [0; 8];
        for (code, child) in children.iter_mut().enumerate() {
            let mut lo = domain.lo;
            let mut hi = domain.hi;
            for i in 0..3 {
                if code & (1 << i) != 0 {
                    *lo.axis_mut(i) = split.axis(i);
                } else {
                    *hi.axis_mut(i) = split.axis(i);
                }
            }
            let at = if code == 0 { slot } else { self.leaves.len() };
            let rule = Whisker {
                id: self.next_id + code,
                domain: Cube { lo, hi },
                action,
                epoch,
            };
            self.slot_of_id[rule.id] = at as u32;
            *child = self.put(at, rule);
        }
        self.next_id += 8;
        // The branch takes the rule's place in its parent; a rule without
        // one was the root, and its branch, the first, becomes the root.
        let (leaf, branch) = (children[0], self.branches.len() as u32);
        let mut refs = self.branches.iter_mut().flat_map(|b| &mut b.children);
        if let Some(parent) = refs.find(|r| **r == leaf) {
            *parent = branch;
        }
        self.branches.push(Branch { split, children });
        self.branch_domains.push(domain);
        true
    }

    /// Store a rule at leaf slot `at` (one past the end appends); returns
    /// its packed ref. `slot_of_id` is the caller's to keep.
    fn put(&mut self, at: usize, w: Whisker) -> u32 {
        let leaf = Leaf::new(w.id, w.action);
        if at == self.leaves.len() {
            self.leaves.push(leaf);
            self.domains.push(w.domain);
            self.epochs.push(w.epoch);
        } else {
            self.leaves[at] = leaf;
            self.domains[at] = w.domain;
            self.epochs[at] = w.epoch;
        }
        at as u32 | LEAF_BIT
    }

    /// Rules belonging to `epoch`, as (id, use-count) given a usage table;
    /// used by the optimizer's "most-used rule in this epoch" step.
    pub fn most_used_in_epoch(&self, epoch: u64, usage: &Usage) -> Option<usize> {
        self.most_used_where(usage, |slot| self.epochs[slot] == epoch)
    }

    /// The most-used rule overall (splitting step).
    pub fn most_used(&self, usage: &Usage) -> Option<usize> {
        self.most_used_where(usage, |_| true)
    }

    /// The most-hit rule among the slots `keep` admits; ties go to the
    /// lower id, so slot order does not matter.
    fn most_used_where(&self, usage: &Usage, keep: impl Fn(usize) -> bool) -> Option<usize> {
        (0..self.leaves.len())
            .filter(|&slot| keep(slot))
            .map(|slot| (self.leaves[slot].id, usage.count(self.leaves[slot].id)))
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

    /// The id checks of a table read from JSON, then its id → slot map.
    /// Splitting issues eight ids per branch after the root's 0, so
    /// `next_id ≤ 1 + 8 × branches`; every leaf id is distinct and below
    /// `next_id` (a hand-edited `"next_id": 1e15` would otherwise size
    /// usage tables in petabytes, and a repeated id would let
    /// `set_action` / `split` edit the wrong rule).
    fn loaded(&mut self) -> Result<(), WireError> {
        let (next_id, branches) = (self.next_id, self.branches.len());
        let bound = 1 + 8 * branches;
        if next_id > bound {
            let reason = format!("{next_id} exceeds 1 + 8 × {branches} branches = {bound}");
            return Err(WireError::new(reason).within("next_id"));
        }
        let mut slot_of_id = vec![u32::MAX; next_id];
        // Leaves were read depth first, so a repeat is reported in tree order.
        for (slot, id) in self.leaves.iter().map(|l| l.id).enumerate() {
            let reason = match slot_of_id.get_mut(id) {
                None => format!("leaf id {id} is not below next_id {next_id}"),
                Some(s) if *s != u32::MAX => format!("leaf id {id} appears twice"),
                Some(s) => {
                    *s = slot as u32;
                    continue;
                }
            };
            return Err(WireError::new(reason).within("root"));
        }
        self.slot_of_id = slot_of_id;
        // A loaded table is shared for as long as its runs last: keep the
        // slack the reader's pushes left out of the heap (without this,
        // churn_100k's peak RSS is ~6 % higher).
        self.branches.shrink_to_fit();
        self.branch_domains.shrink_to_fit();
        self.leaves.shrink_to_fit();
        self.domains.shrink_to_fit();
        self.epochs.shrink_to_fit();
        Ok(())
    }
}

// --- JSON mapping (the serde derive layout these types once used) ----------
//
// `{"root": node, "next_id": n, "provenance": s}`, where a node is
// externally tagged: `{"Leaf": whisker}` or
// `{"Branch": {"domain": cube, "split": memory, "children": [8 nodes]}}`.

netsim::record! { Cube { lo: "lo", hi: "hi" } }

netsim::record! { Whisker { id: "id", domain: "domain", action: "action", epoch: "epoch" } }

const LEAF: &str = "Leaf";
const BRANCH: &str = "Branch";
const CHILDREN: &str = "children";

impl WhiskerTree {
    /// The node at packed ref `r`, with everything under it.
    fn node_value(&self, r: u32) -> Value {
        if r & LEAF_BIT != 0 {
            let leaf = self.whisker((r & !LEAF_BIT) as usize);
            return Value::obj(vec![(LEAF, leaf.to_json_value())]);
        }
        let b = &self.branches[r as usize];
        let children = b.children.iter().map(|&c| self.node_value(c)).collect();
        let branch = Value::obj(vec![
            ("domain", self.branch_domains[r as usize].to_json_value()),
            ("split", b.split.to_json_value()),
            (CHILDREN, Value::Arr(children)),
        ]);
        Value::obj(vec![(BRANCH, branch)])
    }

    /// Read a node and everything under it into the arrays, depth first
    /// (branches before their children); returns its packed ref.
    fn read_node(&mut self, v: &Value) -> Result<u32, WireError> {
        let r = Reader::new(v, &[LEAF, BRANCH])?;
        match (r.get(LEAF), r.get(BRANCH)) {
            (Some(_), None) => Ok(self.put(self.leaves.len(), r.req::<_, Plain>(LEAF)?)),
            (None, Some(b)) => self.read_branch(b).map_err(|e| e.within(BRANCH)),
            _ => Err(WireError::new("expected exactly one of Leaf, Branch")),
        }
    }

    fn read_branch(&mut self, v: &Value) -> Result<u32, WireError> {
        let r = Reader::new(v, &["domain", "split", CHILDREN])?;
        let domain = r.req::<Cube, Plain>("domain")?;
        let split = r.req::<Memory, Plain>("split")?;
        let at = self.branches.len();
        let children = [0; 8];
        self.branches.push(Branch { split, children });
        self.branch_domains.push(domain);
        let nodes = r.field(CHILDREN)?.as_arr();
        let nodes = nodes.map_err(|e| WireError::new(e).within(CHILDREN))?;
        let mut refs = Vec::with_capacity(8);
        for (i, node) in nodes.iter().enumerate() {
            let child = self.read_node(node);
            refs.push(child.map_err(|e| e.within(&format!("[{i}]")).within(CHILDREN))?);
        }
        self.branches[at].children = refs.try_into().map_err(|refs: Vec<u32>| {
            let reason = format!("expected 8 children, found {}", refs.len());
            WireError::new(reason).within(CHILDREN)
        })?;
        Ok(at as u32)
    }
}

impl Wire for WhiskerTree {
    fn to_json_value(&self) -> Value {
        Value::obj(vec![
            ("root", self.node_value(self.root())),
            ("next_id", self.next_id.to_json_value()),
            ("provenance", self.provenance.to_json_value()),
        ])
    }

    fn from_json_value(v: &Value) -> Result<WhiskerTree, WireError> {
        let r = Reader::new(v, &["root", "next_id", "provenance"])?;
        let mut t = WhiskerTree::empty();
        t.read_node(r.field("root")?)
            .map_err(|e| e.within("root"))?;
        t.next_id = r.req::<_, Plain>("next_id")?;
        t.provenance = r.req::<_, Plain>("provenance")?;
        t.loaded()?;
        Ok(t)
    }
}

// ---------------------------------------------------------------------------
// Usage statistics
// ---------------------------------------------------------------------------

/// Maximum memory samples retained per rule for median estimation.
pub const MAX_SAMPLES: usize = 128;

/// Per-rule usage: hit counts (most-used selection) and memory samples
/// (median split points). A [`crate::remycc::RemyCc::recording`] sender
/// gathers it; [`crate::remycc::recorded_usage`] collects it after a run.
#[derive(Clone, Debug, Default)]
pub struct Usage {
    counts: Vec<u64>,
    samples: Vec<Vec<Memory>>,
}

impl Usage {
    /// Table sized for rule ids `0..id_bound`.
    pub fn new(id_bound: usize) -> Usage {
        Usage {
            counts: vec![0; id_bound],
            samples: vec![Vec::new(); id_bound],
        }
    }

    /// Record one rule hit at the given memory point.
    pub fn record(&mut self, id: usize, m: Memory) {
        if id >= self.counts.len() {
            self.counts.resize(id + 1, 0);
            self.samples.resize(id + 1, Vec::new());
        }
        self.counts[id] += 1;
        let s = &mut self.samples[id];
        if s.len() < MAX_SAMPLES {
            s.push(m);
        } else {
            // Past the cap, every 7th hit overwrites slot `count % 128`.
            // 7 and 128 are coprime, so each slot is rewritten once per
            // 896 hits: the samples kept are the 1-in-7 hits among the
            // last ~896, not a spread over the whole run. ROADMAP item 13
            // ("split where §4.3 says") replaces this law with a uniform
            // reservoir.
            let k = (self.counts[id] as usize) % MAX_SAMPLES;
            if self.counts[id].is_multiple_of(7) {
                s[k] = m;
            }
        }
    }

    /// Hits for a rule.
    pub fn count(&self, id: usize) -> u64 {
        self.counts.get(id).copied().unwrap_or(0)
    }

    /// Fold another usage table into this one.
    pub fn merge(&mut self, other: &Usage) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
            self.samples.resize(other.counts.len(), Vec::new());
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
            let room = MAX_SAMPLES.saturating_sub(self.samples[i].len());
            self.samples[i].extend(other.samples[i].iter().take(room).copied());
        }
    }

    /// Component-wise median of the memory values that hit rule `id`
    /// (the split point of §4.3 step 5). `None` if the rule was never hit.
    pub fn median_memory(&self, id: usize) -> Option<Memory> {
        let s = self.samples.get(id)?;
        if s.is_empty() {
            return None;
        }
        let mut m = Memory::INITIAL;
        for i in 0..3 {
            let mut axis: Vec<f64> = s.iter().map(|x| x.axis(i)).collect();
            axis.sort_by(f64::total_cmp);
            let mid = axis.len() / 2;
            *m.axis_mut(i) = axis[mid];
        }
        Some(m)
    }

    /// Total hits across all rules.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use netsim::rng::{cases, SimRng};

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
                    let w = t.get(t.lookup(mem(a, s, r)).id).expect("live rule");
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

    /// A table grown by 0–11 random splits, each of a random rule at a
    /// point drawn inside it (now and then on its lower corner).
    fn random_table(rng: &mut SimRng) -> WhiskerTree {
        let mut t = WhiskerTree::single_rule();
        for _ in 0..rng.range_usize(0, 11) {
            let ws = t.whiskers();
            let w = ws[rng.range_usize(0, ws.len() - 1)];
            let mut p = w.domain.lo;
            if !rng.chance(0.1) {
                for i in 0..3 {
                    let hi = w.domain.hi.axis(i).min(MEMORY_MAX);
                    *p.axis_mut(i) = rng.range_f64(w.domain.lo.axis(i), hi);
                }
            }
            t.split(w.id, p);
        }
        t
    }

    #[test]
    fn lookup_matches_the_domain_oracle() {
        cases("lookup_matches_the_domain_oracle", |rng| {
            let t = random_table(rng);
            let ws = t.whiskers();
            // Split boundaries (each rule's corners, and just below its
            // upper one), points past MEMORY_MAX and below zero, and
            // uniform draws.
            let mut values = vec![-1.0, MEMORY_MAX, MEMORY_MAX + 0.5, 1e18, f64::INFINITY];
            for w in &ws {
                for i in 0..3 {
                    let (lo, hi) = (w.domain.lo.axis(i), w.domain.hi.axis(i));
                    values.extend([lo, lo.next_down(), hi, hi.next_down()]);
                }
            }
            let mut probes: Vec<Memory> = (0..200)
                .map(|_| {
                    let mut pick = || values[rng.range_usize(0, values.len() - 1)];
                    mem(pick(), pick(), pick())
                })
                .collect();
            probes.extend((0..50).map(|_| {
                let mut draw = || rng.range_f64(0.0, MEMORY_MAX);
                mem(draw(), draw(), draw())
            }));
            for m in probes {
                let holders: Vec<&Whisker> = ws
                    .iter()
                    .filter(|w| w.domain.contains(m.clamped()))
                    .collect();
                let [holder] = holders[..] else {
                    panic!("{} rules hold {m:?}", holders.len())
                };
                let found = t.lookup(m);
                assert_eq!(
                    (found.id, found.action),
                    (holder.id, holder.action),
                    "{m:?}"
                );
            }
        });
    }

    /// The ids of the `Leaf` nodes of a JSON rule table, in written order.
    fn written_leaf_ids(v: &Value, out: &mut Vec<usize>) {
        match v {
            Value::Obj(fields) => {
                for (key, x) in fields {
                    match key.as_str() {
                        LEAF => out.push(x.field("id").unwrap().as_usize().unwrap()),
                        _ => written_leaf_ids(x, out),
                    }
                }
            }
            Value::Arr(xs) => xs.iter().for_each(|x| written_leaf_ids(x, out)),
            _ => {}
        }
    }

    #[test]
    fn whiskers_come_in_the_order_the_json_writes_them() {
        cases("whiskers_come_in_the_order_the_json_writes_them", |rng| {
            let t = random_table(rng);
            let mut written = Vec::new();
            written_leaf_ids(&json::parse(&t.to_json()).unwrap(), &mut written);
            let ids: Vec<usize> = t.whiskers().iter().map(|w| w.id).collect();
            assert_eq!(ids, written);
        });
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
        // An edited action is what the next lookup of its rule reads.
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

    /// Every leaf of `t` carries its action's pacing gap, converted
    /// exactly as `Action::intersend` converts it.
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
        assert!(std::ptr::eq(t.flat(), &t), "the lookup view is the table");
        // A clone owns its arrays: editing it leaves `t` as it was.
        let mut edited = t.clone();
        let busy = edited.lookup(mem(9.0, 9.0, 3.0)).id;
        edited.split(busy, mem(20.0, 20.0, 4.0));
        let slow = Action {
            intersend_ms: 7.0,
            ..Action::DEFAULT
        };
        edited.set_action(edited.lookup(mem(9.0, 9.0, 3.0)).id, slow);
        assert_eq!((t.len(), edited.len()), (8, 15));
        assert_eq!(t.lookup(mem(9.0, 9.0, 3.0)).id, busy);
        assert_eq!(t.lookup(mem(9.0, 9.0, 3.0)).action, Action::DEFAULT);
    }

    #[test]
    fn usage_records_merges_and_medians() {
        let mut a = Usage::new(2);
        a.record(
            0,
            Memory {
                ack_ewma_ms: 1.0,
                send_ewma_ms: 2.0,
                rtt_ratio: 1.5,
            },
        );
        a.record(
            0,
            Memory {
                ack_ewma_ms: 3.0,
                send_ewma_ms: 4.0,
                rtt_ratio: 2.5,
            },
        );
        let mut b = Usage::new(2);
        b.record(1, Memory::INITIAL);
        a.merge(&b);
        assert_eq!(a.count(0), 2);
        assert_eq!(a.count(1), 1);
        assert_eq!(a.total(), 3);
        let m = a.median_memory(0).expect("rule 0 was hit");
        assert_eq!(m.ack_ewma_ms, 3.0, "upper median of two samples");
        assert!(a.median_memory(5).is_none());
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
