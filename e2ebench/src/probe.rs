//! `/proc`-based probes: process and per-thread CPU, peak resident set,
//! and the host facts a reader needs to compare numbers across machines.
//! Linux only; no crates beyond `std`.

use std::collections::HashMap;
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Kernel clock ticks per second for `/proc/*/stat` CPU fields
/// (`USER_HZ`, 100 on every Linux ABI this runs on).
const TICKS_PER_S: f64 = 100.0;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the allocator's free pages to the kernel, so the next run's
/// peak resident set starts from live memory, not from what earlier runs
/// left cached in the allocator.
pub fn trim_heap() {
    // SAFETY: glibc's malloc_trim has no preconditions.
    unsafe {
        malloc_trim(0);
    }
}

/// User + system CPU seconds consumed so far by every thread of this
/// process, exited threads included (microsecond resolution).
pub fn process_cpu_s() -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a valid, writable `struct rusage`; RUSAGE_SELF = 0.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&ru.utime) + tv(&ru.stime)
}

/// CPU seconds the hypervisor gave other guests while this host's CPUs
/// wanted to run (the `steal` column of `/proc/stat`), summed over CPUs.
pub fn host_steal_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let steal: u64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(steal as f64 / TICKS_PER_S)
}

/// Parses `(comm, utime + stime seconds)` out of a `/proc/.../stat`
/// line. `comm` may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat(line: &str) -> Option<(String, f64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_owned();
    // After ") " come fields 3.. of proc(5); utime and stime are 14, 15.
    let rest: Vec<&str> = line.get(close + 2..)?.split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((comm, (utime + stime) as f64 / TICKS_PER_S))
}

/// CPU seconds of a whole process (exited threads included), read from
/// `/proc/<pid>/stat` at clock-tick resolution.
pub fn pid_cpu_s(pid: u32) -> Option<f64> {
    let line = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_stat(&line).map(|(_, cpu)| cpu)
}

/// Resets the peak resident set (`VmHWM`) of `pid` to its current RSS.
/// Returns false when the kernel refuses.
pub fn reset_peak_rss(pid: u32) -> bool {
    fs::write(format!("/proc/{pid}/clear_refs"), "5").is_ok()
}

/// A `kB` field of `/proc/<pid>/status`, in MiB.
fn status_mib(pid: u32, field: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of `pid` since its last [`reset_peak_rss`], MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    status_mib(pid, "VmHWM:")
}

/// Current resident set of `pid`, MiB.
pub fn rss_mib(pid: u32) -> Option<f64> {
    status_mib(pid, "VmRSS:")
}

/// Per-thread CPU of this process: `tid → (thread name, CPU seconds)`.
pub fn thread_cpu() -> HashMap<u32, (String, f64)> {
    let mut out = HashMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Some(stat) = fs::read_to_string(entry.path().join("stat"))
            .ok()
            .and_then(|l| parse_stat(&l))
        {
            out.insert(tid, stat);
        }
    }
    out
}

/// Samples [`thread_cpu`] on a background thread while a run is in
/// flight. Pipeline threads exit when the run ends and vanish from
/// `/proc/self/task`, so their CPU is the last value seen (at most one
/// period short).
pub struct ThreadCpuSampler {
    stop: Arc<AtomicBool>,
    seen: Arc<Mutex<HashMap<u32, (String, f64)>>>,
    baseline: HashMap<u32, (String, f64)>,
    handle: Option<JoinHandle<()>>,
}

impl ThreadCpuSampler {
    /// Starts sampling every `period`.
    pub fn start(period: Duration) -> Self {
        let baseline = thread_cpu();
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::new(Mutex::new(HashMap::new()));
        let (stop2, seen2) = (Arc::clone(&stop), Arc::clone(&seen));
        let handle = std::thread::Builder::new()
            .name("e2e.sampler".into())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    merge_max(&mut seen2.lock().expect("sampler mutex"), thread_cpu());
                    std::thread::sleep(period);
                }
            })
            .expect("spawn sampler thread");
        ThreadCpuSampler {
            stop,
            seen,
            baseline,
            handle: Some(handle),
        }
    }

    /// Stops sampling and returns CPU seconds per thread name consumed
    /// since [`start`](Self::start), the sampler's own thread excluded.
    pub fn finish(mut self) -> HashMap<String, f64> {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            h.join().expect("the sampler thread panicked");
        }
        let mut seen = std::mem::take(&mut *self.seen.lock().expect("sampler mutex"));
        merge_max(&mut seen, thread_cpu());
        let mut by_name: HashMap<String, f64> = HashMap::new();
        for (tid, (name, cpu)) in seen {
            if name == "e2e.sampler" {
                continue;
            }
            let before = self.baseline.get(&tid).map_or(0.0, |(_, c)| *c);
            *by_name.entry(name).or_default() += cpu - before;
        }
        by_name
    }
}

impl Drop for ThreadCpuSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn merge_max(into: &mut HashMap<u32, (String, f64)>, sample: HashMap<u32, (String, f64)>) {
    // A thread names itself just after it starts, so the latest name wins.
    for (tid, (name, cpu)) in sample {
        let slot = into.entry(tid).or_insert((String::new(), 0.0));
        slot.0 = name;
        slot.1 = slot.1.max(cpu);
    }
}

/// The host facts the numbers depend on.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// What `KernelDispatch::Auto` resolves to on this CPU.
    pub kernel_dispatch: String,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
}

impl HostFacts {
    /// Probes the running host.
    pub fn probe() -> Self {
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel_dispatch: format!("{:?}", gillespie::KernelDispatch::Auto.resolve()),
            rustc: env!("E2EBENCH_RUSTC_VERSION"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_handles_names_with_spaces_and_parens() {
        let line = "42 (mwfarm (x) 1) R 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 9 0 100";
        let (comm, cpu) = parse_stat(line).unwrap();
        assert_eq!(comm, "mwfarm (x) 1");
        assert!((cpu - 3.25).abs() < 1e-12);
    }

    #[test]
    fn process_probes_read_this_process() {
        let pid = std::process::id();
        assert!(process_cpu_s() >= 0.0);
        assert!(pid_cpu_s(pid).is_some());
        assert!(rss_mib(pid).unwrap() > 0.0);
        assert!(peak_rss_mib(pid).unwrap() >= rss_mib(pid).unwrap() * 0.5);
        assert!(thread_cpu().values().any(|(_, cpu)| *cpu >= 0.0));
        assert!(host_steal_s().unwrap() >= 0.0);
    }
}
