//! S2 seeded violation: thread-local storage in sim scope.
thread_local! {
    static SCRATCH: Vec<u64> = Vec::new();
}
