//! S3 seeded violations: interior-mutability cells in sim scope.
use std::cell::RefCell;
pub struct State {
    cache: RefCell<u64>,
    flag: std::cell::Cell<bool>,
}
