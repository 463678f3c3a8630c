//! S1 seeded violation: static mut global in sim scope.
static mut COUNTER: u64 = 0;
#[cfg(test)]
mod tests {
    static mut TEST_ONLY: u64 = 0;
}
