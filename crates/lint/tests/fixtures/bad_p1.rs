//! P1 seeded violations: unwrap/expect in sim-crate source.
pub struct Sender;
impl Sender {
    pub fn on_ack(&self) {
        let v: Option<u32> = None;
        let _ = v.unwrap();
        let _ = v.expect("boom");
        let fine = v.unwrap_or(0);
        let _ = fine;
    }
}
fn run_cold() {
    let v: Option<u32> = None;
    let _ = v.unwrap();
}
// Held only by a fn pointer, as the experiment registry holds its runners.
static RUNNER: fn() = run_cold;
