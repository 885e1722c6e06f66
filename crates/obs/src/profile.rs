//! Wall-clock self-profiling of the harness.
//!
//! Everything in this module lives on the *wall* clock and therefore
//! must never reach a deterministic artifact (reports, traces,
//! metrics files). The CLI prints profiler summaries to **stderr
//! only**, mirroring the existing "wall jobs/s" convention.

use std::time::Instant;

/// Accumulates named wall-clock stages.
#[derive(Debug, Default)]
pub struct SelfProfiler {
    stages: Vec<(String, f64)>,
}

impl SelfProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        SelfProfiler::default()
    }

    /// Time `f`, file the elapsed wall seconds under `stage`, and
    /// return `f`'s value.
    pub fn stage<T>(&mut self, stage: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.stages
            .push((stage.to_string(), start.elapsed().as_secs_f64()));
        out
    }

    /// One-line-per-stage summary for stderr.
    pub fn summary(&self) -> String {
        let total: f64 = self.stages.iter().map(|(_, s)| s).sum();
        let mut out = String::from("self-profile (wall clock, stderr only):\n");
        for (name, secs) in &self.stages {
            out.push_str(&format!("  {name:<12} {:>9.3} ms\n", secs * 1e3));
        }
        out.push_str(&format!("  {:<12} {:>9.3} ms\n", "total", total * 1e3));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_record_in_order_and_summarize() {
        let mut p = SelfProfiler::new();
        let v = p.stage("setup", || 41 + 1);
        assert_eq!(v, 42);
        p.stage("serve", || ());
        assert_eq!(p.stages.len(), 2);
        assert_eq!(p.stages[0].0, "setup");
        let s = p.summary();
        assert!(s.contains("setup") && s.contains("serve") && s.contains("total"));
    }
}
