//! Host facts recorded with every run, so that a noisy host can be told
//! apart from a regression: core count, the share of CPU time the
//! hypervisor stole during the run, the filesystems the run wrote to, and
//! per-process peak memory and CPU time. Everything is read from `/proc`;
//! a fact that cannot be read is reported as unknown, never guessed.

use std::path::Path;

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    parse_cpu_line(text.lines().next()?)
}

/// Parse `cpu  user nice system idle iowait irq softirq steal ...`.
/// Guest time is already counted inside user time, so the total stops at
/// steal.
fn parse_cpu_line(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let v: Vec<u64> = fields
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*v.get(7)?, v.iter().sum()))
}

/// Share of all CPU time the hypervisor stole between `start` and now.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(cpu_jiffies())
    }

    pub fn share(&self) -> Option<f64> {
        let (s0, t0) = self.0?;
        let (s1, t1) = cpu_jiffies()?;
        let total = t1.checked_sub(t0).filter(|&t| t > 0)?;
        Some(s1.saturating_sub(s0) as f64 / total as f64)
    }
}

/// Type of the filesystem holding `path`: the mount with the longest
/// mount point that prefixes the canonical path.
pub fn fs_type(path: &Path) -> String {
    let (Ok(path), Ok(info)) = (
        path.canonicalize(),
        std::fs::read_to_string("/proc/self/mountinfo"),
    ) else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // `id parent dev root mountpoint opts [tags] - fstype source superopts`
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        let mount = mount.replace("\\040", " ");
        if path.starts_with(&mount) && best.as_ref().is_none_or(|(n, _)| mount.len() > *n) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// `/proc/<pid>/<file>`, `pid = None` meaning this process.
fn proc_file(pid: Option<u32>, file: &str) -> Option<String> {
    let pid = pid.map_or_else(|| "self".to_string(), |p| p.to_string());
    std::fs::read_to_string(format!("/proc/{pid}/{file}")).ok()
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let status = proc_file(pid, "status")?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU time of a whole process (all threads), in ms.
/// `/proc/<pid>/stat` counts in USER_HZ ticks, which Linux fixes at 100
/// per second for every architecture's user ABI.
pub fn cpu_ms(pid: Option<u32>) -> Option<f64> {
    let text = proc_file(pid, "stat")?;
    // The command name may hold spaces; fields restart after its `)`.
    let rest = &text[text.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks: u64 = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 * 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_line_parses_steal_and_total() {
        let line = "cpu  100 0 50 800 10 0 5 35 0 0";
        assert_eq!(parse_cpu_line(line), Some((35, 1000)));
        assert_eq!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(parse_cpu_line("cpu 1 2"), None);
    }

    #[test]
    fn own_process_facts_are_readable() {
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        assert!(cpu_ms(None).is_some());
        assert_ne!(fs_type(Path::new(".")), "unknown");
    }
}
