//! Process-level host measurements read from procfs.
//!
//! CPU time comes from `/proc/self/stat` (`utime + stime`), which the
//! kernel keeps for the whole thread group and into which it folds every
//! thread that has already exited. A sum over the live tasks under
//! `/proc/self/task` would miss the cluster's scoped stepping workers,
//! which are spawned and joined every epoch.

use std::fs;

/// `USER_HZ`: the unit of the procfs tick counters. The kernel reports
/// these fields in 1/100 s on every architecture Linux supports,
/// independent of its internal `HZ`.
const USER_HZ: f64 = 100.0;

/// Process CPU seconds (user + system) so far, exited threads included.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("procfs mounted at /proc");
    cpu_s_from_stat(&stat)
}

/// Parses `utime + stime` out of one `stat` line. The command name (field
/// 2) may hold spaces and parentheses, so fields are counted from the
/// last `)`.
fn cpu_s_from_stat(stat: &str) -> f64 {
    let tail = &stat[stat.rfind(')').expect("stat line has a command name") + 1..];
    // After the name: state is field 3, so utime (14) and stime (15) are
    // the 12th and 13th whitespace-separated tokens of the tail.
    let mut fields = tail.split_whitespace().skip(11);
    let mut next = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .expect("stat line has utime and stime") as f64
    };
    (next() + next()) / USER_HZ
}

/// Peak resident set size of the process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("procfs mounted at /proc");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn burn(d: Duration) -> u64 {
        let t = Instant::now();
        let mut x = 1u64;
        while t.elapsed() < d {
            for _ in 0..10_000 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        }
        x
    }

    /// CPU seconds summed over the threads alive right now.
    fn live_tasks_cpu_s() -> f64 {
        fs::read_dir("/proc/self/task")
            .expect("procfs task dir")
            .map(|e| {
                let p = e.expect("task entry").path().join("stat");
                cpu_s_from_stat(&fs::read_to_string(p).expect("task stat"))
            })
            .sum()
    }

    #[test]
    fn parses_names_with_spaces_and_parens() {
        let line = "42 (a) b) (c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert!((cpu_s_from_stat(line) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn counts_cpu_of_threads_that_already_exited() {
        let before = process_cpu_s();
        let live_before = live_tasks_cpu_s();
        std::thread::spawn(|| burn(Duration::from_millis(400)))
            .join()
            .expect("burner thread");
        let gained = process_cpu_s() - before;
        let live_gained = live_tasks_cpu_s() - live_before;
        // The burner ran ~0.4 s of CPU and is gone: the process total
        // keeps it, a sum over the live tasks does not.
        assert!(gained >= 0.3, "process CPU gained only {gained} s");
        assert!(
            live_gained < gained - 0.2,
            "live-task sum {live_gained} s should miss the exited thread ({gained} s)"
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
