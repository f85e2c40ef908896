//! Known-bad: a per-cycle fan-out sized by the host's core count.
use std::sync::mpsc;

pub fn value_all(jobs: &[u64]) -> Vec<u64> {
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        for chunk in jobs.chunks(jobs.len().div_ceil(threads).max(1)) {
            let tx = tx.clone();
            s.spawn(move || tx.send(chunk.iter().map(|j| j * 2).collect::<Vec<_>>()));
        }
    });
    drop(tx);
    rx.iter().flatten().collect()
}

pub fn detached() {
    std::thread::spawn(|| ());
}
