//! The correctness gate: every simulated run is checked, and a failed check is printed by
//! name and counted against the run — never swallowed, never fatal.

/// Runs attempted and failed so far.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gate {
    /// Simulated runs checked.
    pub attempted: u64,
    /// Runs that failed at least one check.
    pub failed: u64,
}

/// The checks of one simulated run, collected before the run is counted.
#[derive(Debug)]
pub struct RunChecks {
    label: String,
    failures: Vec<String>,
}

impl RunChecks {
    /// Starts checking the run called `label`.
    pub fn new(label: impl Into<String>) -> Self {
        RunChecks {
            label: label.into(),
            failures: Vec::new(),
        }
    }

    /// Records check `name`; `detail` explains a failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }
}

impl Gate {
    /// Counts one run, printing each failed check to stderr.
    pub fn record(&mut self, run: RunChecks) {
        self.attempted += 1;
        if !run.failures.is_empty() {
            self.failed += 1;
            for f in &run.failures {
                eprintln!("CHECK FAILED [{}] {f}", run.label);
            }
        }
    }
}
