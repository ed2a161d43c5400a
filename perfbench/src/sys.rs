//! Process accounting from `/proc`, directory sizes, and the stamp that
//! identifies what a result was measured on.

use std::path::Path;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat` (Linux `USER_HZ`, fixed at 100 on every
/// architecture Rust supports).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds consumed so far by process `pid`
/// (`"self"` for this process), all threads included.
///
/// # Errors
///
/// Returns an error when `/proc/<pid>/stat` is unreadable or malformed.
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
    // The command name is parenthesised and may contain spaces; the
    // numeric fields follow the last ')'. utime and stime are fields
    // 14 and 15 of the whole line, so 12 and 13 after the name.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("malformed /proc/{pid}/stat field {i}"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Clock ticks the hypervisor has stolen from this machine since boot,
/// summed over CPUs (the `steal` field of `/proc/stat`); 0 where the
/// kernel does not report it. A run whose steal time grows shared its
/// host with other load.
#[must_use]
pub fn host_steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.strip_prefix("cpu ")?.to_string();
            cpu.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Converts `/proc` clock ticks to seconds.
#[must_use]
pub fn ticks_to_seconds(ticks: u64) -> f64 {
    ticks as f64 / USER_HZ
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
///
/// # Errors
///
/// Returns an error when `/proc/<pid>/status` is unreadable or lacks
/// the field.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Total size in bytes of the regular files under `dir` (0 when it does
/// not exist).
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// FNV-64 over the relative paths and contents of the workspace
/// sources (`Cargo.toml`, `Cargo.lock` and `crates/`, build outputs
/// excluded), in sorted path order: it names the code a result was
/// measured on even where the checkout carries no git metadata.
#[must_use]
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            match e.file_type() {
                Ok(t) if t.is_dir() && e.file_name() != "target" => walk(&path, out),
                Ok(t) if t.is_file() => out.push(path),
                _ => {}
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut w = aivril_obs::codec::Writer::new();
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        w.str(&rel.to_string_lossy());
        w.str(&std::fs::read_to_string(f).unwrap_or_default());
    }
    format!("{:016x}", aivril_obs::codec::fnv64(w.payload().as_bytes()))
}

/// The git commit checked out at `root`, when `root` is itself a git
/// work tree; `"none"` otherwise.
#[must_use]
pub fn git_commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none".to_string();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("none".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}
