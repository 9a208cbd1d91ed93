//! Peak resident set size from `/proc/self/status`.

/// The `VmHWM` line of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// This process's peak RSS so far, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_hwm_line() {
        let status =
            "Name:\tbench\nVmPeak:\t  123456 kB\nVmHWM:\t    8192 kB\nVmRSS:\t    4096 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(8192));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 4096 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 4096 MB\n"), None, "unknown unit");
        assert_eq!(parse_vm_hwm_kib("XVmHWM:\t 4096 kB\n"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
