//! Process and machine facts read from `/proc` and sysfs: peak resident
//! memory (with its reset), CPU time, the core count and the LLC size.

use std::fs;

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size in bytes of the last-level cache: `cpu0/cache/index3` in sysfs,
/// or else the `cache size` line of `/proc/cpuinfo`.
pub fn llc_bytes() -> Option<u64> {
    fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .ok()
        .and_then(|raw| size_bytes(&raw))
        .or_else(|| {
            let info = fs::read_to_string("/proc/cpuinfo").ok()?;
            let line = info.lines().find(|l| l.starts_with("cache size"))?;
            size_bytes(line.split(':').nth(1)?)
        })
}

/// A cache size as sysfs (`107520K`) or `/proc/cpuinfo` (`107520 KB`)
/// writes it, in bytes.
fn size_bytes(raw: &str) -> Option<u64> {
    let raw = raw.trim().trim_end_matches('B').trim_end();
    let (digits, scale) = match raw.as_bytes().last()? {
        b'K' => (&raw[..raw.len() - 1], 1 << 10),
        b'M' => (&raw[..raw.len() - 1], 1 << 20),
        _ => (raw, 1),
    };
    digits.trim().parse::<u64>().ok().map(|v| v * scale)
}

/// Reset the process's peak resident set (`VmHWM`) to its current
/// resident set, so a later [`peak_rss_mb`] sees only what follows.
pub fn reset_peak_rss() -> std::io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// Current resident set (`VmRSS`) in MB.
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS:")
}

fn status_mb(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// CPU time consumed so far by all threads of this process, in seconds,
/// summed from each thread's `schedstat` (nanosecond resolution). Threads
/// that already exited are not counted, so take differences only across
/// spans in which no thread ends.
pub fn cpu_seconds() -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut ns: u64 = 0;
    for task in tasks.flatten() {
        if let Ok(s) = fs::read_to_string(task.path().join("schedstat")) {
            ns += s
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_in_both_spellings() {
        assert_eq!(size_bytes("107520K\n"), Some(107520 << 10));
        assert_eq!(size_bytes(" 107520 KB"), Some(107520 << 10));
        assert_eq!(size_bytes("32M"), Some(32 << 20));
        assert_eq!(size_bytes("512"), Some(512));
        assert_eq!(size_bytes("lots"), None);
    }
}
