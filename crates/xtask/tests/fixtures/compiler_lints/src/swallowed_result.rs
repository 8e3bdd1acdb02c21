pub fn persist(path: &str, text: &str) {
    let _ = std::fs::write(path, text); //~ clippy::let_underscore_must_use clippy::let_underscore_untyped
}

fn width() -> usize {
    8
}

pub fn measure() {
    let _ = width(); //~ clippy::let_underscore_untyped
}

/// A named discard is a decision in plain sight, not a swallowed result.
pub fn persist_named(path: &str, text: &str) {
    let _ack = std::fs::write(path, text);
}
