//! Known-good: the same valuation in job order on the calling thread.
pub fn value_all(jobs: &[u64]) -> Vec<u64> {
    jobs.iter().map(|j| j * 2).collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_use_threads() {
        std::thread::spawn(|| ()).join().unwrap();
    }
}
