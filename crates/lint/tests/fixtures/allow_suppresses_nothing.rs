//! Dead-allow fixture: a justified `lint:allow` whose rule applies to the
//! file but covers no finding must be reported. Not a compile target.
pub fn depth(q: &[u32]) -> usize {
    // lint:allow(p1-sim-unwrap): the queue is never empty here.
    let n = q.len();
    // lint:allow(p1-sim-unwrap): the caller checked `q` is non-empty.
    let _ = q.first().unwrap();
    n
}
#[cfg(test)]
// lint:allow(p1-sim-unwrap): test body.
fn probe() { let _ = Some(1).expect("x"); }
