//! Sample statistics and the `/proc` readers behind the CPU and memory
//! metrics.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The value at quantile `p` (0..=1) of an ascending slice, nearest rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 0.5)
}

/// The highest of p50/p90/p99/p99.9/p99.99 that still has at least ten
/// samples beyond it; a tail percentile backed by fewer is noise.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    // (percentile, one sample in this many lies beyond it)
    [(0.9999, 10_000), (0.999, 1_000), (0.99, 100), (0.9, 10)]
        .into_iter()
        .find(|(_, one_in)| samples >= 10 * one_in)
        .map_or(0.5, |(p, _)| p)
}

/// `percentile(sorted, p)` with `p` lowered to what the sample count supports.
pub fn supported_percentile(sorted: &[f64], p: f64) -> f64 {
    percentile(sorted, p.min(highest_supported_percentile(sorted.len())))
}

/// utime + stime in clock ticks from a `/proc/<pid>/stat` line. The command
/// name (field 2) may contain spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The kB figure of one `/proc/<pid>/status` line such as `VmHWM`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Linux reports `/proc` CPU times in units of 1/100 s on every supported
/// architecture (`USER_HZ`).
const MS_PER_TICK: f64 = 10.0;

fn cpu_ms_of(path: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 * MS_PER_TICK)
}

/// CPU milliseconds the whole process has used, exited threads included.
pub fn process_cpu_ms() -> f64 {
    cpu_ms_of("/proc/self/stat")
}

/// CPU milliseconds the calling thread has used.
pub fn thread_cpu_ms() -> f64 {
    cpu_ms_of("/proc/thread-self/stat")
}

fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, key))
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in kB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM")
}

/// Current resident set size (`VmRSS`) in kB.
pub fn resident_kb() -> u64 {
    status_kb("VmRSS")
}

/// A thread that samples `VmRSS` every few milliseconds and remembers the
/// highest reading, so each epoch can report its own peak: the kernel's
/// `VmHWM` is one number per process, and one outlier epoch would own it.
pub struct PeakRss {
    peak_kb: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    sampler: Option<std::thread::JoinHandle<()>>,
}

impl PeakRss {
    const PERIOD: Duration = Duration::from_millis(5);

    pub fn start() -> Self {
        let peak_kb = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (peak_kb, stop) = (Arc::clone(&peak_kb), Arc::clone(&stop));
            std::thread::spawn(move || {
                // Relaxed: the peak is a statistic and publishes nothing else.
                while !stop.load(Ordering::Relaxed) {
                    peak_kb.fetch_max(resident_kb(), Ordering::Relaxed);
                    std::thread::sleep(Self::PERIOD);
                }
            })
        };
        PeakRss {
            peak_kb,
            stop,
            sampler: Some(sampler),
        }
    }

    /// The highest reading since the last call (or the start), in kB.
    pub fn take_kb(&self) -> u64 {
        let now = resident_kb();
        self.peak_kb.swap(now, Ordering::Relaxed).max(now)
    }
}

impl Drop for PeakRss {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
    }
}

/// Mean nanoseconds per call of `op` over `iters` calls.
pub fn ns_per_op(iters: usize, mut op: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        op(i);
    }
    start.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// Runs `f` on a helper thread and waits at most `limit` for its result.
/// `None` means the call is still running; the thread is left behind and
/// dies with the process, which is what lets every engine call that joins
/// threads internally (shutdown, crash, promote) have a deadline.
pub fn with_deadline<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Option<T> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(12), 0.5);
        assert_eq!(highest_supported_percentile(99), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(999), 0.9);
        assert_eq!(highest_supported_percentile(1_000), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
        assert_eq!(highest_supported_percentile(100_000), 0.9999);
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(
            supported_percentile(&s, 0.99),
            180.0,
            "p99 of 200 falls back to p90"
        );
    }

    #[test]
    fn stat_parser_survives_a_hostile_command_name() {
        let stat = "4242 (tart) bench) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 56 0 0 20 0 5 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(1290));
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
        assert_eq!(parse_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_parser_reads_the_named_line_only() {
        let status = "Name:\ttart-benchmark\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(123_456));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(100_000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWMx: 5 kB\n", "VmHWM"), None);
    }

    #[test]
    fn deadline_returns_none_for_a_call_that_does_not_finish() {
        assert_eq!(with_deadline(Duration::from_secs(5), || 7), Some(7));
        let slow = with_deadline(Duration::from_millis(10), || {
            std::thread::sleep(Duration::from_secs(2));
        });
        assert_eq!(slow, None);
    }
}
