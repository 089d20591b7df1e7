//! The host and provenance record printed with every run, and the
//! process's CPU time and peak memory.

use std::process::Command;

/// One JSON object: CPU count and model, parallelism, compiler, source
/// commit, workload and seed.
pub fn record(workload: &str, seed: u64) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim())
        .to_string();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"nproc\": {nproc}, \"available_parallelism\": {parallelism}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"git_commit\": \"{}\"}}",
        esc(workload),
        esc(&model),
        esc(&rustc),
        esc(&git_commit())
    )
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The commit checked out in the working directory, read from `.git`
/// directly; "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(target_os = "linux")]
mod usage {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    const RUSAGE_SELF: i32 = 0;

    /// User plus system CPU time of the process so far, in ms.
    pub fn cpu_ms() -> Option<f64> {
        let mut u = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            rest: [0; 14],
        };
        // SAFETY: `u` is a live, writable `struct rusage` with the C layout
        // the kernel fills in; `RUSAGE_SELF` is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
        if rc != 0 {
            return None;
        }
        let ms = |t: &Timeval| t.sec as f64 * 1e3 + t.usec as f64 / 1e3;
        Some(ms(&u.utime) + ms(&u.stime))
    }

    /// `VmHWM` of `/proc/self/status`, in MB. (`ru_maxrss` would carry over
    /// the high-water mark of the process that exec'd this one.)
    pub fn peak_rss_mb() -> Option<f64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }
}

#[cfg(not(target_os = "linux"))]
mod usage {
    pub fn cpu_ms() -> Option<f64> {
        None
    }

    pub fn peak_rss_mb() -> Option<f64> {
        None
    }
}

/// User plus system CPU time of the whole process, in ms.
pub fn cpu_ms() -> f64 {
    usage::cpu_ms().unwrap_or(0.0)
}

/// Peak resident set size of the process, in MB.
pub fn peak_rss_mb() -> f64 {
    usage::peak_rss_mb().unwrap_or(0.0)
}
