pub fn first(xs: &[u8]) -> u8 {
    unsafe { *xs.as_ptr() } //~ unsafe_code
}
