//! Launching and reaping the loopback `cwc-workerd` daemons of the TCP
//! workload. Daemons die with the benchmark on every exit path: `Drop`
//! kills and reaps them (normal return, error, panic unwind), and the
//! kernel kills them if the benchmark itself is killed.

use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The announcement `cwc-workerd` prints once it is bound.
const LISTENING: &str = "cwc-workerd listening on ";

/// How long a daemon may take to announce its address.
const ANNOUNCE_TIMEOUT: Duration = Duration::from_secs(20);

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// `prctl` option: signal delivered to the child when its parent dies.
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// Finds the `cwc-workerd` binary built next to this benchmark.
///
/// # Errors
///
/// Names the build command when the binary is missing.
pub fn locate_workerd() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = exe.with_file_name("cwc-workerd");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "cwc-workerd not found at {}; build it with \
             `cargo build --release --bin cwc-workerd` (same CARGO_TARGET_DIR \
             as the benchmark), or run the benchmark through e2ebench/run.sh",
            path.display()
        ))
    }
}

/// Running daemons and the addresses they announced.
pub struct Daemons {
    children: Vec<Child>,
    /// Threads draining each daemon's stdout; they end when it exits.
    drains: Vec<JoinHandle<()>>,
    /// `host:port` of each daemon, in launch order.
    pub addrs: Vec<String>,
}

impl Daemons {
    /// Launches `count` daemons on ephemeral loopback ports and waits
    /// until each has announced its address.
    ///
    /// # Errors
    ///
    /// A daemon failed to start or to announce in time; any daemon
    /// already started is killed.
    pub fn launch(workerd: &Path, count: usize) -> Result<Daemons, String> {
        let mut daemons = Daemons {
            children: Vec::with_capacity(count),
            drains: Vec::with_capacity(count),
            addrs: Vec::with_capacity(count),
        };
        for _ in 0..count {
            let mut cmd = Command::new(workerd);
            cmd.args(["--listen", "127.0.0.1:0"])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            // SAFETY: the closure runs in the forked child before exec and
            // only calls the async-signal-safe `prctl`.
            unsafe {
                cmd.pre_exec(|| {
                    prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
                    Ok(())
                });
            }
            let mut child = cmd
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", workerd.display()))?;
            let stdout = child.stdout.take().expect("piped stdout");
            daemons.children.push(child);
            let (addr, drain) = read_announcement(stdout);
            daemons.drains.push(drain);
            daemons.addrs.push(addr?);
        }
        Ok(daemons)
    }

    /// Process ids of the daemons.
    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }
}

/// Reads the `listening on` line on a helper thread so a silent daemon
/// cannot hang set-up. The helper then keeps draining stdout until the
/// daemon exits, so the daemon never blocks on a full pipe.
fn read_announcement(
    stdout: std::process::ChildStdout,
) -> (Result<String, String>, JoinHandle<()>) {
    let (tx, rx) = mpsc::channel();
    let drain = std::thread::spawn(move || {
        let mut lines = BufReader::new(stdout).lines();
        let first = lines.next();
        let _ = tx.send(first);
        for _ in lines {}
    });
    let addr = match rx.recv_timeout(ANNOUNCE_TIMEOUT) {
        Ok(Some(Ok(line))) => line
            .strip_prefix(LISTENING)
            .map(|addr| addr.trim().to_owned())
            .ok_or_else(|| format!("unexpected daemon announcement `{line}`")),
        Ok(_) => Err("cwc-workerd exited before announcing its address".into()),
        Err(_) => Err(format!(
            "cwc-workerd did not announce within {ANNOUNCE_TIMEOUT:?}"
        )),
    };
    (addr, drain)
}

impl Drop for Daemons {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        for drain in self.drains.drain(..) {
            let _ = drain.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announcement_parsing_rejects_other_output() {
        let mut child = Command::new("sh")
            .args(["-c", "echo hello"])
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let (addr, drain) = read_announcement(child.stdout.take().unwrap());
        let err = addr.unwrap_err();
        assert!(err.contains("unexpected"), "{err}");
        child.wait().unwrap();
        drain.join().unwrap();

        let mut child = Command::new("sh")
            .args(["-c", "echo 'cwc-workerd listening on 127.0.0.1:4242'"])
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let (addr, drain) = read_announcement(child.stdout.take().unwrap());
        assert_eq!(addr.unwrap(), "127.0.0.1:4242");
        child.wait().unwrap();
        drain.join().unwrap();
    }

    #[test]
    fn a_missing_binary_names_the_build_command() {
        if let Err(msg) = locate_workerd() {
            assert!(msg.contains("cargo build --release --bin cwc-workerd"));
        }
    }
}
