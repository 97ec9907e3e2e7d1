//! Order statistics and process readings.

/// The `q`-quantile of `values` by nearest rank (the smallest value with
/// at least `q` of the sample at or below it); `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set size of this process so far (`VmHWM`), MB.
pub fn rss_peak_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Threads currently in this process.
pub fn threads() -> u64 {
    proc_status_kb("Threads:").unwrap_or(0)
}

/// Online CPUs, as the load generator sizes itself by them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU time the hypervisor gave to other guests (`steal` in
/// `/proc/stat`), for judging whether a run had the host to itself.
pub struct Steal {
    steal: u64,
    total: u64,
}

impl Steal {
    fn read() -> Option<(u64, u64)> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        Some((*fields.get(7)?, fields.iter().sum()))
    }

    pub fn now() -> Steal {
        let (steal, total) = Steal::read().unwrap_or((0, 0));
        Steal { steal, total }
    }

    /// Share of all CPU time since `now()` that was stolen.
    pub fn ratio_since(&self) -> f64 {
        let (steal, total) = Steal::read().unwrap_or((0, 0));
        ratio(
            steal.saturating_sub(self.steal) as f64,
            total.saturating_sub(self.total) as f64,
        )
    }
}
