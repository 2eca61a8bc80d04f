//! Reads the server's `/metrics` (Prometheus text) and differences two
//! scrapes, so a layer's counters can be taken over the timed phase.

use std::collections::BTreeMap;

/// One scrape: every sample line, keyed by its series (name plus
/// labels exactly as written).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Scrape {
    series: BTreeMap<String, f64>,
}

impl Scrape {
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut series = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("metrics line {}: no value in {line:?}", n + 1))?;
            let value: f64 = value
                .parse()
                .map_err(|_| format!("metrics line {}: bad value in {line:?}", n + 1))?;
            series.insert(key.to_string(), value);
        }
        Ok(Scrape { series })
    }

    /// A series' value; an absent series reads 0 (a metric the server
    /// registers only when its layer is configured, such as the journal).
    pub fn get(&self, series: &str) -> f64 {
        self.series.get(series).copied().unwrap_or(0.0)
    }

    /// `self − earlier`, series by series. The server renders a
    /// histogram's cumulative buckets only up to its highest non-empty
    /// one, so a bucket absent from `earlier` held all of its count.
    pub fn delta(&self, earlier: &Scrape) -> Scrape {
        let before = |k: &str| match (earlier.series.get(k), k.split_once("_bucket{le=\"")) {
            (Some(&v), _) => v,
            (None, Some((name, _))) => earlier.get(&format!("{name}_count")),
            (None, None) => 0.0,
        };
        Scrape {
            series: self
                .series
                .iter()
                .map(|(k, v)| (k.clone(), v - before(k)))
                .collect(),
        }
    }

    /// A histogram's cumulative buckets as `(upper bound, count)`,
    /// ascending, without the `+Inf` bucket.
    pub fn buckets(&self, name: &str) -> Vec<(f64, f64)> {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut out: Vec<(f64, f64)> = self
            .series
            .iter()
            .filter_map(|(k, &v)| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let upper: f64 = le.parse().ok()?;
                upper.is_finite().then_some((upper, v))
            })
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// The `q`-quantile of a histogram, interpolated linearly inside the
    /// bucket that holds it. Buckets are the server's log2 ones: bucket
    /// `(lo, hi]` follows the previous upper bound. `None` when empty.
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        let buckets = self.buckets(name);
        let total = self.get(&format!("{name}_count"));
        if total <= 0.0 {
            return None;
        }
        let target = q * total;
        let mut prev_upper = -1.0;
        let mut prev_count = 0.0;
        for (upper, cumulative) in buckets {
            if cumulative >= target && cumulative > prev_count {
                let lower = prev_upper + 1.0;
                let frac = (target - prev_count) / (cumulative - prev_count);
                return Some(lower + frac * (upper - lower));
            }
            prev_upper = upper;
            prev_count = cumulative;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from a running server (trimmed).
    const BEFORE: &str = "\
# HELP fs_job_chunk_latency_us Wall time of one job chunk (us).
# TYPE fs_job_chunk_latency_us histogram
fs_job_chunk_latency_us_bucket{le=\"511\"} 0
fs_job_chunk_latency_us_bucket{le=\"1023\"} 4
fs_job_chunk_latency_us_bucket{le=\"+Inf\"} 4
fs_job_chunk_latency_us_sum 3000
fs_job_chunk_latency_us_count 4
# HELP fs_job_chunks_total Runner chunks executed.
# TYPE fs_job_chunks_total counter
fs_job_chunks_total 4
# HELP fs_reactor_requests_total Requests parsed.
# TYPE fs_reactor_requests_total counter
fs_reactor_requests_total 9
";

    const AFTER: &str = "\
# HELP fs_job_chunk_latency_us Wall time of one job chunk (us).
# TYPE fs_job_chunk_latency_us histogram
fs_job_chunk_latency_us_bucket{le=\"511\"} 10
fs_job_chunk_latency_us_bucket{le=\"1023\"} 24
fs_job_chunk_latency_us_bucket{le=\"2047\"} 34
fs_job_chunk_latency_us_bucket{le=\"+Inf\"} 34
fs_job_chunk_latency_us_sum 31000
fs_job_chunk_latency_us_count 34
# HELP fs_job_chunks_total Runner chunks executed.
# TYPE fs_job_chunks_total counter
fs_job_chunks_total 34
# HELP fs_reactor_requests_total Requests parsed.
# TYPE fs_reactor_requests_total counter
fs_reactor_requests_total 70
# HELP fs_journal_checkpoints_written_total Checkpoints appended to the journal.
# TYPE fs_journal_checkpoints_written_total counter
fs_journal_checkpoints_written_total 2
";

    #[test]
    fn delta_of_counters_and_absent_series() {
        let before = Scrape::parse(BEFORE).unwrap();
        let after = Scrape::parse(AFTER).unwrap();
        let d = after.delta(&before);
        assert_eq!(d.get("fs_job_chunks_total"), 30.0);
        assert_eq!(d.get("fs_reactor_requests_total"), 61.0);
        // Registered only after the first scrape: counts from zero.
        assert_eq!(d.get("fs_journal_checkpoints_written_total"), 2.0);
        assert_eq!(d.get("fs_never_registered_total"), 0.0);
        assert_eq!(d.get("fs_job_chunk_latency_us_count"), 30.0);
        assert_eq!(d.get("fs_job_chunk_latency_us_sum"), 28_000.0);
    }

    #[test]
    fn histogram_delta_quantile_interpolates_in_bucket() {
        let d = Scrape::parse(AFTER)
            .unwrap()
            .delta(&Scrape::parse(BEFORE).unwrap());
        assert_eq!(
            d.buckets("fs_job_chunk_latency_us"),
            vec![(511.0, 10.0), (1023.0, 20.0), (2047.0, 30.0)]
        );
        // 30 chunks: the median (15th) is halfway into (511, 1023].
        let p50 = d.quantile("fs_job_chunk_latency_us", 0.5).unwrap();
        assert!((p50 - (512.0 + 0.5 * 511.0)).abs() < 1e-9, "{p50}");
        assert_eq!(d.quantile("fs_job_chunk_latency_us", 0.0), Some(0.0));
        assert_eq!(
            Scrape::default().quantile("fs_job_chunk_latency_us", 0.5),
            None
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Scrape::parse("fs_x_total\n").is_err());
        assert!(Scrape::parse("fs_x_total abc\n").is_err());
    }
}
