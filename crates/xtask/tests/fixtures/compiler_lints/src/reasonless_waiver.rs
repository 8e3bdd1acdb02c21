#[allow(clippy::unwrap_used)] //~ clippy::allow_attributes_without_reason
pub fn read(x: Option<usize>) -> usize {
    x.unwrap()
}

#[expect(clippy::expect_used)] //~ clippy::allow_attributes_without_reason
pub fn read_or_die(x: Option<usize>) -> usize {
    x.expect("present")
}
