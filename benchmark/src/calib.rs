//! Machine-speed calibration.
//!
//! The benchmark's host is shared, and its speed drifts by tens of
//! percent over minutes, which moves every raw timing by as much. So
//! every timing the benchmark reports is scaled to the speed of the
//! reference machine: between units of measured work it runs
//! `ugpc-calibrate`, a fixed kernel with no repository code, and divides
//! each raw time by the slowdown the kernel saw around that unit (its
//! time over `REFERENCE_S`). Rates are multiplied by it. The raw values
//! are reported beside the scaled ones.

use crate::stats::median;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// `ugpc-calibrate`'s time on the two-core reference machine when
/// nothing else loads it, in seconds: the slowdown there is 1.
pub const REFERENCE_S: f64 = 0.05;

/// Calibration samples of one run.
pub struct Calibrator {
    bin: PathBuf,
    last: f64,
    samples: Vec<f64>,
}

impl Calibrator {
    /// Find `ugpc-calibrate` next to this executable and take the first
    /// sample.
    pub fn new() -> Result<Calibrator, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate the benchmark: {e}"))?;
        let bin = exe.with_file_name("ugpc-calibrate");
        if !bin.is_file() {
            return Err(format!(
                "{} not found: build the benchmark package",
                bin.display()
            ));
        }
        let mut cal = Calibrator {
            bin,
            last: 0.0,
            samples: Vec::new(),
        };
        cal.last = cal.sample()?;
        Ok(cal)
    }

    /// One run of the kernel, as a slowdown.
    fn sample(&mut self) -> Result<f64, String> {
        let out = Command::new(&self.bin)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("run {}: {e}", self.bin.display()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs: f64 = text
            .trim()
            .parse()
            .ok()
            .filter(|s: &f64| out.status.success() && *s > 0.0)
            .ok_or_else(|| format!("ugpc-calibrate failed ({}): {text:?}", out.status))?;
        let slowdown = secs / REFERENCE_S;
        self.samples.push(slowdown);
        Ok(slowdown)
    }

    /// The slowdown of the work done since the previous sample: the
    /// smaller of the samples before and after it. A burst of contention
    /// only ever slows the kernel, so the smaller sample is the one a
    /// burst missed.
    pub fn after_unit(&mut self) -> Result<f64, String> {
        let before = self.last;
        self.last = self.sample()?;
        Ok(before.min(self.last))
    }

    /// Median slowdown over the run.
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }
}
