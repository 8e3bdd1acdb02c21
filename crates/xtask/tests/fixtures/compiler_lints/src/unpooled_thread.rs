use std::thread;

pub fn fan_out(items: Vec<u64>) -> u64 {
    let handle = std::thread::spawn(move || items.iter().sum::<u64>()); //~ clippy::disallowed_methods
    let short = thread::spawn(|| 42); //~ clippy::disallowed_methods
    drop(short);
    handle.join().unwrap_or_default()
}

#[expect(
    clippy::disallowed_methods,
    reason = "long-lived watcher thread, not fork-join compute"
)]
pub fn watch() -> std::thread::JoinHandle<()> {
    std::thread::spawn(|| {})
}
