//! P3 seeded violations: subscript arithmetic in sim-crate source.
pub struct Sender;
impl Sender {
    pub fn on_ack(&self, buf: &[u64], head: usize) -> u64 {
        let a = buf[head - 1];
        let b = buf[(head + 7) % buf.len()];
        let plain = buf[head];
        a + b + plain
    }
}
fn cold_helper(buf: &[u64], head: usize) -> u64 {
    buf[head - 1]
}
