pub fn read(x: Option<usize>) -> usize {
    x.expect("present") //~ clippy::expect_used
}

#[expect(clippy::expect_used, reason = "invariant upheld by the constructor")]
pub fn read_waived(x: Option<usize>) -> usize {
    x.expect("present")
}
