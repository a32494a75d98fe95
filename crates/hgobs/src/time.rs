//! One timing implementation for the whole workspace: `hg`'s commands
//! and the `hg repro` harness time their kernels with these.

use std::time::Instant;

/// Measure a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Human-friendly time formatting in the spirit of the paper's Table 1
/// legend (h: hours, m: minutes, s: seconds).
pub fn format_time(seconds: f64) -> String {
    if seconds >= 3600.0 {
        format!("{:.2}h", seconds / 3600.0)
    } else if seconds >= 60.0 {
        format!("{:.2}m", seconds / 60.0)
    } else if seconds >= 0.001 {
        format!("{:.3}s", seconds)
    } else {
        format!("{:.1}us", seconds * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_formats() {
        assert_eq!(format_time(7200.0), "2.00h");
        assert_eq!(format_time(90.0), "1.50m");
        assert_eq!(format_time(0.47), "0.470s");
        assert_eq!(format_time(0.0000005), "0.5us");
    }

    #[test]
    fn timed_returns_result() {
        let (x, t) = timed(|| 6 * 7);
        assert_eq!(x, 42);
        assert!(t >= 0.0);
    }
}
