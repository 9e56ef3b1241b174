//! What the host tells the benchmark: CPU time and resident memory of
//! this process from `/proc`, the CPU count, and the provenance lines
//! printed with every result.

use std::fs;
use std::process::Command;

/// Linux reports process CPU time in clock ticks of 1/100 s
/// (`USER_HZ`, fixed by the kernel ABI on every architecture Rust
/// targets). Ten milliseconds is coarse for one round, which is why
/// `cpu_us_per_mib` sums ticks over the whole run.
pub const TICK_US: f64 = 10_000.0;

/// User + system CPU ticks of the whole process, every thread
/// included (also threads that have exited).
pub fn cpu_ticks() -> u64 {
    fs::read_to_string("/proc/self/stat").ok().and_then(|s| parse_cpu_ticks(&s)).unwrap_or(0)
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name
/// (field 2) may itself contain spaces and parentheses, so fields are
/// counted from the *last* `)`: state is the first field after it,
/// `utime` the 12th and `stime` the 13th.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Ticks, summed over all CPUs, during which the hypervisor ran someone
/// else while this guest had work to do (`steal`, the 8th value of the
/// first line of `/proc/stat`). 0 where the kernel does not report it.
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat").ok().and_then(|s| parse_steal_ticks(&s)).unwrap_or(0)
}

/// Measures the share of CPU time stolen while it is alive.
pub struct StealWatch {
    began: std::time::Instant,
    steal_ticks: u64,
}

impl StealWatch {
    pub fn start() -> StealWatch {
        StealWatch { began: std::time::Instant::now(), steal_ticks: steal_ticks() }
    }

    /// `(stolen ticks, ticks the CPUs had)` since the start.
    pub fn ticks(&self) -> (f64, f64) {
        let had = self.began.elapsed().as_secs_f64() * 1e6 / TICK_US * cpus() as f64;
        ((steal_ticks() - self.steal_ticks) as f64, had)
    }
}

pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_ascii_whitespace().nth(7)?.parse().ok()
}

/// Resident set size in MiB (`VmRSS` of `/proc/self/status`).
pub fn rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status").ok().and_then(|s| parse_rss_kib(&s)).unwrap_or(0) as f64
        / 1024.0
}

pub fn parse_rss_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// in the working directory only — the driver's checkout is not a
/// repository, and looking further up would leave it.
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(commit.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|c| c.trim().to_string()))
}

fn rustc_version() -> Option<String> {
    let out = Command::new("rustc").arg("--version").output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// One line naming everything a number depends on besides the code.
pub fn provenance(seed: u64, seconds: f64) -> String {
    format!(
        "host: {} cpus | {} | commit {} | seed {seed} | seconds {seconds}",
        cpus(),
        rustc_version().unwrap_or_else(|| "rustc unknown".into()),
        git_commit().unwrap_or_else(|| "unknown".into()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_a_hostile_command_name() {
        // utime 14, stime 15 in proc(5) numbering: 731 and 92 here.
        let stat = "4242 (bench) mark) S 1 4242 4242 0 -1 4194304 1093 0 0 0 731 92 0 0 20 0 9 0 \
                    123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(parse_cpu_ticks(stat), Some(823));
        assert_eq!(parse_cpu_ticks("no parenthesis here"), None);
        assert_eq!(parse_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn this_process_has_a_stat_line_and_a_resident_set() {
        // Burn a little CPU so the tick count cannot be read before
        // the first tick.
        let mut x = 1u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_ticks() >= 1);
        assert!(rss_mib() > 0.0);
    }

    #[test]
    fn steal_is_the_eighth_value_of_the_aggregate_cpu_line() {
        let stat = "cpu  559105 0 45994 718671 2340 0 3065 19891 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(19_891));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3 4 5 6 7 8 9 10\n"), None);
        assert_eq!(parse_steal_ticks("cpu  1 2 3\n"), None);
    }

    #[test]
    fn status_parsing() {
        let status =
            "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t  999 kB\nVmRSS:\t  204800 kB\nThreads:\t9\n";
        assert_eq!(parse_rss_kib(status), Some(204_800));
        assert_eq!(parse_rss_kib("Name:\tbench\n"), None);
    }
}
