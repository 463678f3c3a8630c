//! RemyCC actions (§4.2) and the optimizer's candidate neighbourhood
//! (§4.3 step 3).
//!
//! An action has three components, applied on every incoming ACK:
//!
//! * `m` — a multiple (≥ 0) applied to the congestion window;
//! * `b` — an increment (possibly negative) added to the window;
//! * `r` — a lower bound, in milliseconds, on the spacing between
//!   successive transmissions (a rate pacer).
//!
//! During optimization Remy evaluates "roughly 100 candidate increments to
//! the current action, increasing geometrically in granularity … e.g.
//! r±0.01, r±0.08, r±0.64, taking the Cartesian product with the
//! alternatives for m and b".

use netsim::time::Ns;

/// Bounds keeping actions physical: the window multiple.
pub const M_RANGE: (f64, f64) = (0.0, 2.0);
/// Bounds on the window increment, packets.
pub const B_RANGE: (f64, f64) = (-64.0, 256.0);
/// Bounds on the intersend pacing, milliseconds.
pub const R_RANGE: (f64, f64) = (0.001, 1_000.0);

/// Geometric offset magnitudes for the window multiple.
pub const M_STEPS: [f64; 3] = [0.01, 0.08, 0.64];
/// Geometric offset magnitudes for the window increment.
pub const B_STEPS: [f64; 3] = [1.0, 8.0, 64.0];
/// Geometric offset magnitudes for the intersend time (ms).
pub const R_STEPS: [f64; 3] = [0.01, 0.08, 0.64];

/// One RemyCC action.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Action {
    /// Window multiple `m ≥ 0`.
    pub window_multiple: f64,
    /// Window increment `b` (may be negative).
    pub window_increment: f64,
    /// Pacing lower bound `r > 0`, milliseconds.
    pub intersend_ms: f64,
}

netsim::record! {
    Action {
        window_multiple: "window_multiple", window_increment: "window_increment",
        intersend_ms: "intersend_ms",
    }
}

impl Action {
    /// The default action Remy initializes a single-rule table with:
    /// `m = 1, b = 1, r = 0.01` (§4.3).
    pub const DEFAULT: Action = Action {
        window_multiple: 1.0,
        window_increment: 1.0,
        intersend_ms: 0.01,
    };

    /// Clamp all components into their physical ranges.
    pub fn clamped(mut self) -> Action {
        self.window_multiple = self.window_multiple.clamp(M_RANGE.0, M_RANGE.1);
        self.window_increment = self.window_increment.clamp(B_RANGE.0, B_RANGE.1);
        self.intersend_ms = self.intersend_ms.clamp(R_RANGE.0, R_RANGE.1);
        self
    }

    /// Apply this action to a congestion window, returning the new window
    /// (clamped to `[1, 4096]` packets so a degenerate candidate cannot
    /// silence a flow forever — the RTO path keeps the ACK clock alive).
    pub fn apply(&self, window: f64) -> f64 {
        (self.window_multiple * window + self.window_increment).clamp(1.0, 4096.0)
    }

    /// The pacing gap as simulator time.
    pub fn intersend(&self) -> Ns {
        Ns::from_millis_f64(self.intersend_ms)
    }

    /// The optimizer's candidate neighbourhood: the Cartesian product of
    /// `{0, ±step}` moves per component over the geometric step tables,
    /// clamped and deduplicated, current action excluded.
    pub fn neighbourhood(&self) -> Vec<Action> {
        let mut ms = vec![self.window_multiple];
        for s in M_STEPS {
            ms.push(self.window_multiple + s);
            ms.push(self.window_multiple - s);
        }
        let mut bs = vec![self.window_increment];
        for s in B_STEPS {
            bs.push(self.window_increment + s);
            bs.push(self.window_increment - s);
        }
        let mut rs = vec![self.intersend_ms];
        for s in R_STEPS {
            rs.push(self.intersend_ms + s);
            rs.push(self.intersend_ms - s);
        }
        let mut out = Vec::with_capacity(ms.len() * bs.len() * rs.len());
        for &m in &ms {
            for &b in &bs {
                for &r in &rs {
                    let c = Action {
                        window_multiple: m,
                        window_increment: b,
                        intersend_ms: r,
                    }
                    .clamped();
                    if c != *self && !out.contains(&c) {
                        out.push(c);
                    }
                }
            }
        }
        out
    }
}

impl Default for Action {
    fn default() -> Self {
        Action::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let a = Action::DEFAULT;
        assert_eq!(a.window_multiple, 1.0);
        assert_eq!(a.window_increment, 1.0);
        assert_eq!(a.intersend_ms, 0.01);
    }

    #[test]
    fn apply_is_affine_and_clamped() {
        let a = Action {
            window_multiple: 0.5,
            window_increment: 3.0,
            intersend_ms: 1.0,
        };
        assert_eq!(a.apply(10.0), 8.0);
        // Lower clamp at one packet.
        let shrink = Action {
            window_multiple: 0.0,
            window_increment: -10.0,
            intersend_ms: 1.0,
        };
        assert_eq!(shrink.apply(100.0), 1.0);
        // Upper clamp.
        let grow = Action {
            window_multiple: 2.0,
            window_increment: 256.0,
            intersend_ms: 1.0,
        };
        assert_eq!(grow.apply(4096.0), 4096.0);
    }

    #[test]
    fn clamp_ranges() {
        let a = Action {
            window_multiple: -1.0,
            window_increment: 1e9,
            intersend_ms: 0.0,
        }
        .clamped();
        assert_eq!(a.window_multiple, 0.0);
        assert_eq!(a.window_increment, B_RANGE.1);
        assert_eq!(a.intersend_ms, R_RANGE.0);
    }

    #[test]
    fn neighbourhood_is_roughly_a_hundred_up_to_clamping() {
        let n = Action::DEFAULT.neighbourhood();
        // 7×7×7 − 1 = 342 raw; clamping dedups some (b = 1−64 clamps to
        // −63 ≠ −64 boundary etc.). It must be "roughly 100" or more and
        // never contain the current action.
        assert!(n.len() >= 100, "only {} candidates", n.len());
        assert!(!n.contains(&Action::DEFAULT));
        // All clamped.
        for c in &n {
            assert!(c.window_multiple >= M_RANGE.0 && c.window_multiple <= M_RANGE.1);
            assert!(c.intersend_ms >= R_RANGE.0);
        }
    }

    #[test]
    fn neighbourhood_contains_geometric_moves() {
        let n = Action::DEFAULT.neighbourhood();
        let has = |m: f64, b: f64, r: f64| {
            n.iter().any(|a| {
                (a.window_multiple - m).abs() < 1e-12
                    && (a.window_increment - b).abs() < 1e-12
                    && (a.intersend_ms - r).abs() < 1e-12
            })
        };
        assert!(has(1.01, 1.0, 0.01), "m+0.01");
        assert!(has(1.64, 1.0, 0.01), "m+0.64");
        assert!(has(1.0, 9.0, 0.01), "b+8");
        assert!(has(1.0, 1.0, 0.65), "r+0.64");
    }

    #[test]
    fn intersend_conversion() {
        let a = Action {
            intersend_ms: 2.5,
            ..Action::DEFAULT
        };
        assert_eq!(a.intersend(), Ns::from_micros(2500));
    }
}
