//! Percentiles, `/stats` window deltas and `/proc` readings.

use std::collections::BTreeMap;
use std::fs;

use serde::Value;

/// Samples a percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of ascending `sorted` samples. Refuses when
/// fewer than [`MIN_BEYOND`] samples lie above the chosen rank, since a
/// percentile resting on fewer is mostly noise.
pub fn quantile(sorted: &[u64], q: f64) -> Result<u64, String> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs at least {MIN_BEYOND} samples beyond it, have {n} samples",
            q * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median of unsorted values (0 for none).
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The cumulative counters and histogram `(count, sum)` pairs of one
/// `GET /stats` body.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (u64, u64)>,
}

impl StatsSnapshot {
    /// Parses a `GET /stats` body.
    pub fn parse(text: &str) -> Result<Self, String> {
        let value: Value = serde_json::from_str(text).map_err(|e| format!("/stats: {e}"))?;
        let mut snapshot = Self::default();
        if let Some(Value::Object(fields)) = value.get("counters") {
            for (name, v) in fields {
                if let Value::UInt(n) = v {
                    snapshot.counters.insert(name.clone(), *n);
                }
            }
        }
        let Some(Value::Object(fields)) = value.get("histograms") else {
            return Err("/stats has no histograms".to_string());
        };
        for (name, h) in fields {
            let field = |key: &str| match h.get(key) {
                Some(Value::UInt(n)) => *n,
                _ => 0,
            };
            snapshot
                .histograms
                .insert(name.clone(), (field("count"), field("sum")));
        }
        Ok(snapshot)
    }

    /// The activity of a timed window.
    ///
    /// `self` was scraped right after the window, `start` right before it
    /// and `pre` right before `start`. A scrape is recorded in the server's
    /// own counters only after it has taken its snapshot, so `start − pre`
    /// is exactly the `start` scrape's own footprint, which `self − start`
    /// also contains; it is subtracted to leave the window's requests alone.
    pub fn window_delta(&self, start: &Self, pre: &Self) -> StatsSnapshot {
        let mut delta = StatsSnapshot::default();
        for (name, &after) in &self.counters {
            let at = |s: &Self| s.counters.get(name).copied().unwrap_or(0);
            let scrape = at(start).saturating_sub(at(pre));
            delta.counters.insert(
                name.clone(),
                after.saturating_sub(at(start)).saturating_sub(scrape),
            );
        }
        for (name, &(count, sum)) in &self.histograms {
            let at = |s: &Self| s.histograms.get(name).copied().unwrap_or((0, 0));
            let (c0, s0) = at(start);
            let (cp, sp) = at(pre);
            delta.histograms.insert(
                name.clone(),
                (
                    count
                        .saturating_sub(c0)
                        .saturating_sub(c0.saturating_sub(cp)),
                    sum.saturating_sub(s0).saturating_sub(s0.saturating_sub(sp)),
                ),
            );
        }
        delta
    }

    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram's sample count.
    pub fn count(&self, name: &str) -> u64 {
        self.histograms.get(name).map_or(0, |h| h.0)
    }

    /// A histogram's mean (`sum ÷ count`, 0 when empty) — exact, unlike the
    /// power-of-two percentile bounds `/stats` also reports.
    pub fn mean(&self, name: &str) -> f64 {
        match self.histograms.get(name) {
            Some(&(count, sum)) if count > 0 => sum as f64 / count as f64,
            _ => 0.0,
        }
    }
}

/// CPU time of every thread of process `pid` (`"self"` for this process),
/// in nanoseconds, from each thread's `schedstat`.
pub fn process_cpu_ns(pid: &str) -> Result<u64, String> {
    let dir = format!("/proc/{pid}/task");
    let mut total = 0u64;
    for entry in fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
        let path = entry.map_err(|e| e.to_string())?.path().join("schedstat");
        // A thread that exited between listing and reading simply counts 0.
        if let Ok(text) = fs::read_to_string(&path) {
            total += text
                .split_whitespace()
                .next()
                .and_then(|ns| ns.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    Ok(total)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_enforces_ten_samples_beyond() {
        let samples: Vec<u64> = (1..=1_010).collect();
        assert_eq!(quantile(&samples, 0.99), Ok(1_000));
        assert_eq!(quantile(&samples, 0.5), Ok(505));
        // 1,000 samples leave exactly ten beyond the p99; 999 leave nine.
        let enough: Vec<u64> = (1..=1_000).collect();
        assert_eq!(quantile(&enough, 0.99), Ok(990));
        assert!(quantile(&enough[..999], 0.99).is_err());
        assert!(quantile(&[], 0.5).is_err());
        let twenty: Vec<u64> = (1..=20).collect();
        assert!(quantile(&twenty, 0.5).is_ok());
        assert!(quantile(&twenty[..19], 0.5).is_err());
    }

    fn snapshot(count: u64, sum: u64, requests: u64) -> StatsSnapshot {
        StatsSnapshot::parse(&format!(
            r#"{{"telemetry":"on","counters":{{"server_requests_total{{route=\"batch\"}}":{requests}}},
               "gauges":{{}},"histograms":{{"server_request_us":{{"count":{count},"sum":{sum},"max":9,"mean":1.0,"p50":1,"p90":1,"p99":1}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn window_delta_removes_the_start_scrape() {
        let pre = snapshot(100, 5_000, 40);
        // The `pre` scrape itself lands before `start`: one request of 300 us.
        let start = snapshot(101, 5_300, 40);
        // The window adds 50 requests of 20 us each, plus the `start` scrape
        // (another ~300 us) recorded after its own snapshot.
        let end = snapshot(152, 5_300 + 1_000 + 300, 90);
        let delta = end.window_delta(&start, &pre);
        assert_eq!(delta.count("server_request_us"), 50);
        assert_eq!(delta.mean("server_request_us"), 20.0);
        assert_eq!(delta.counter("server_requests_total{route=\"batch\"}"), 50);
        assert_eq!(delta.mean("absent"), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd_lengths() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }

    #[test]
    fn own_process_cpu_is_readable() {
        assert!(process_cpu_ns("self").unwrap() > 0);
        assert!(peak_rss_mib(std::process::id()).unwrap() > 0.0);
    }
}
