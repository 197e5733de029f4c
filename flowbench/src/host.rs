//! What the benchmark reads about its own process and host from `/proc`.
//!
//! CPU times come from `/proc/self/stat` (the whole process, exited
//! threads included) and `/proc/self/task/*/stat` (one live thread each),
//! in clock ticks of `USER_HZ`, which Linux fixes at 100 for user space.
//! Thread names are the kernel's `comm`, truncated to 15 bytes, which is
//! why the program's workers are matched by prefix (`flowtree-shard-`,
//! `gateway-worker-`).

use std::time::{Duration, Instant};

/// Clock ticks per second in `/proc/*/stat` (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(comm, user+sys seconds)` parsed from one `stat` line.
fn parse_stat(line: &str) -> Option<(String, f64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line[open + 1..close].to_string();
    // Fields after the comm start at field 3 (state); utime and stime are
    // fields 14 and 15.
    let rest: Vec<&str> = line[close + 1..].split_whitespace().collect();
    let utime: f64 = rest.get(11)?.parse().ok()?;
    let stime: f64 = rest.get(12)?.parse().ok()?;
    Some((comm, (utime + stime) / TICKS_PER_S))
}

/// User+sys CPU seconds of the whole process so far.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|l| parse_stat(&l))
        .map_or(0.0, |(_, s)| s)
}

/// User+sys CPU seconds of the live threads whose name starts with
/// `prefix`, summed, and how many such threads there are.
pub fn threads_cpu(prefix: &str) -> (f64, usize) {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return (0.0, 0);
    };
    dir.filter_map(|e| e.ok())
        .filter_map(|e| std::fs::read_to_string(e.path().join("stat")).ok())
        .filter_map(|l| parse_stat(&l))
        .filter(|(comm, _)| comm.starts_with(prefix))
        .fold((0.0, 0), |(s, n), (_, t)| (s + t, n + 1))
}

/// Host calibration: sleep `iters` times for `nap` and return how late
/// each wake-up came (ns past the requested instant). A moved tail that
/// this probe also shows belongs to the host, not the program.
pub fn sleep_lateness_ns(iters: usize, nap: Duration) -> Vec<u64> {
    (0..iters)
        .map(|_| {
            let due = Instant::now() + nap;
            std::thread::sleep(nap);
            Instant::now().saturating_duration_since(due).as_nanos() as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_comm() {
        let line = "42 (gateway-worker-0) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20";
        assert_eq!(parse_stat(line), Some(("gateway-worker-0".to_string(), 3.0)));
        let odd = "42 (a b) c)) R 1 2 3 4 5 6 7 8 9 10 100 0 0 0";
        assert_eq!(parse_stat(odd), Some(("a b) c)".to_string(), 1.0)));
    }

    #[test]
    fn own_process_is_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
        let named = std::thread::Builder::new().name("flowbench-probe".into());
        let n = named
            .spawn(|| threads_cpu("flowbench-probe").1)
            .expect("spawn")
            .join()
            .expect("join");
        assert_eq!(n, 1);
        let late = sleep_lateness_ns(3, Duration::from_micros(50));
        assert_eq!(late.len(), 3);
    }
}
