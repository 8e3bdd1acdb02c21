#[expect(clippy::unwrap_used, reason = "the unwrap this covered is gone")] //~ unfulfilled_lint_expectations
pub fn read(x: Option<usize>) -> usize {
    x.unwrap_or(0)
}
