pub fn read(x: Option<usize>) -> usize {
    x.unwrap() //~ clippy::unwrap_used
}

#[expect(clippy::unwrap_used, reason = "length checked by the caller")]
pub fn read_waived(x: Option<usize>) -> usize {
    x.unwrap()
}
