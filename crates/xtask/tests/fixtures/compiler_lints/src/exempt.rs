//! Code the moved rules must leave alone.

/// Scoped spawns are how `adapipe_exec::ExecPool` is built.
pub fn scoped(items: &[u64]) -> usize {
    std::thread::scope(|s| s.spawn(|| items.len()).join().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_spawn_and_cast() {
        let n = std::thread::spawn(|| 1usize).join().unwrap();
        let _ = std::fs::write("/dev/null", "");
        assert_eq!(n as f64, 1.0, "{}", Some(1).expect("one"));
        if n > 1 {
            panic!("unreachable");
        }
    }
}
