//! P2 seeded violations: panic-family macros in sim-crate source.
pub struct Sender;
impl Sender {
    pub fn on_ack(&self, x: u32) {
        if x > 3 {
            panic!("x too big");
        }
        if x == 2 {
            unreachable!();
        }
        assert!(x < 10, "asserts stay legal");
        debug_assert!(x != 9, "so do debug asserts");
    }
}
fn cold_helper() {
    todo!()
}
