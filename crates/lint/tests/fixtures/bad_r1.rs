//! R1 seeded violations: colliding rng stream derivations.
pub struct Sender;
impl Sender {
    pub fn on_ack(&self, rng: &mut SimRng) {
        let a = rng.fork(1);
        let b = rng.fork(1);
        let distinct = rng.fork(2);
        let c = SimRng::split_seed(7, 3);
        let d = SimRng::split_seed(7, 3);
        let _ = (a, b, distinct, c, d);
    }
}
fn cold_helper(rng: &mut SimRng) {
    let a = rng.fork(9);
    let b = rng.fork(9);
    let _ = (a, b);
}
