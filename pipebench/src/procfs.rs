//! Process-wide resource counters read from `/proc/self`.

/// Clock ticks per second of `/proc/self/stat` (`CLK_TCK` on Linux).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of the whole process, all threads
/// included (also those that have exited).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f[i].parse::<f64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}
