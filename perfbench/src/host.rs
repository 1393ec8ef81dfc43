//! Host-noise diagnostics and the process's peak memory, read from
//! `/proc`. The diagnostics are stored beside a run's metrics so that a
//! run a neighbour slowed shows itself; they are not metrics.

use std::fs;

/// Aggregate CPU jiffies from the first line of `/proc/stat`, plus this
/// process's own CPU time (itself and its waited-for children).
#[derive(Debug, Clone, Copy)]
pub struct CpuSample {
    total: u64,
    idle: u64,
    steal: u64,
    own: u64,
}

impl CpuSample {
    pub fn read() -> Option<Self> {
        let stat = fs::read_to_string("/proc/stat").ok()?;
        let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
        let f: Vec<u64> = cpu.split_whitespace().filter_map(|x| x.parse().ok()).collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user and nice.
        let total: u64 = f.get(..8)?.iter().sum();
        let own = own_jiffies()?;
        Some(Self { total, idle: f[3] + f[4], steal: f[7], own })
    }
}

/// utime + stime + cutime + cstime of this process, in the same
/// `USER_HZ` ticks `/proc/stat` uses.
fn own_jiffies() -> Option<u64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // utime is field 14 of the full line, i.e. index 11 after the name.
    f.get(11..15)?.iter().map(|x| x.parse::<u64>().ok()).sum()
}

/// The 1-minute load average.
pub fn loadavg() -> Option<f64> {
    fs::read_to_string("/proc/loadavg").ok()?.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Noise seen by one run, between two samples.
#[derive(Debug, Clone, Copy)]
pub struct Noise {
    /// Share of all CPU time the hypervisor stole.
    pub steal_share: f64,
    /// Share of all CPU time busy in other processes.
    pub other_cpu_share: f64,
    pub load_start: f64,
    pub load_end: f64,
}

impl Noise {
    pub fn between(a: CpuSample, b: CpuSample, load_start: f64, load_end: f64) -> Self {
        let total = b.total.saturating_sub(a.total).max(1) as f64;
        let steal = b.steal.saturating_sub(a.steal) as f64;
        let idle = b.idle.saturating_sub(a.idle) as f64;
        let own = b.own.saturating_sub(a.own) as f64;
        let other = (total - idle - steal - own).max(0.0);
        Self { steal_share: steal / total, other_cpu_share: other / total, load_start, load_end }
    }

    pub fn to_json(self) -> String {
        format!(
            r#"{{"steal_share":{:.6},"other_cpu_share":{:.6},"loadavg_start":{:.2},"loadavg_end":{:.2}}}"#,
            self.steal_share, self.other_cpu_share, self.load_start, self.load_end
        )
    }
}
