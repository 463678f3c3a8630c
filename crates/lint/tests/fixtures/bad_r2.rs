//! R2 seeded violations: ad-hoc seeds in sim-crate source.
pub struct Sender;
impl Sender {
    pub fn on_ack(&self, seed: u64) {
        let a = SimRng::new(seed ^ 0xDEAD_BEEF);
        let b = SimRng::new(42);
        let derived = SimRng::new(seed);
        let _ = (a, b, derived);
    }
}
fn cold_helper(seed: u64) {
    let z = SimRng::new(seed ^ 1);
    let _ = z;
}
