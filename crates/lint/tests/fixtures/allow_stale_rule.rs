//! Stale-allow fixture: a justified `lint:allow` naming a rule id that
//! no longer exists must be reported and must not suppress anything.
pub struct Sender;
impl Sender {
    pub fn on_ack(&self) {
        // lint:allow(p9-no-such-rule): a perfectly earnest justification.
        let _ = Some(1).unwrap();
    }
}
