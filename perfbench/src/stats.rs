//! Order statistics over timing samples, plus process counters read
//! from `/proc`.

use std::time::Duration;

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; `NaN` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of p90/p99/p99.9 that has at least ten samples beyond
/// it, as `(label, value)`; `None` when fewer than 100 samples exist.
pub fn tail(samples: &[f64]) -> Option<(&'static str, f64)> {
    let n = samples.len() as f64;
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)]
        .into_iter()
        .find(|&(_, q)| n * (1.0 - q) >= 10.0 - 1e-9)
        .map(|(label, q)| (label, quantile(samples, q)))
}

/// `"median 1.234 s, p90 2.345 s, n=120"` style summary of a timing
/// sample; small samples list every value.
pub fn describe(samples: &[f64], unit: &str) -> String {
    let tail = tail(samples).map_or(String::new(), |(l, v)| format!(", {l} {v:.6} {unit}"));
    let all = if samples.len() <= 12 { format!(" {:.4?}", samples) } else { String::new() };
    format!("median {:.6} {unit}{tail}, n={}{all}", median(samples), samples.len())
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Process peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used so far, across all
/// of its threads. `/proc` reports clock ticks; Linux fixes `USER_HZ`
/// at 100 on every mainstream architecture.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(f64::NAN);
    (ticks(11) + ticks(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(tail(&[1.0; 99]).is_none());
        assert_eq!(tail(&[1.0; 100]).unwrap().0, "p90");
        assert_eq!(tail(&[1.0; 1000]).unwrap().0, "p99");
    }
}
