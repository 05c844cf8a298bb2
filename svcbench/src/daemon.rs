//! Building, pinning, starting and stopping the `tagging_server` daemon, and
//! the facts about the machine recorded with every result.

use std::collections::hash_map::DefaultHasher;
use std::fs;
use std::hash::Hasher;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

use serde::Value;

/// The checkout the benchmark was built in (the parent of its manifest).
pub fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the checkout")
        .to_path_buf()
}

/// Builds the daemon from the checkout's own workspace and returns the
/// executable's path. Cargo's progress goes to stderr.
pub fn build_daemon() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .current_dir(checkout_root())
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "tagging-server",
            "--bin",
            "tagging_server",
            "--message-format",
            "json-render-diagnostics",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("building tagging_server failed: {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter(|line| line.contains("\"executable\""))
        .filter_map(|line| serde_json::from_str::<Value>(line).ok())
        .find_map(|message| match message.get("executable") {
            Some(Value::String(path)) if path.ends_with("tagging_server") => Some(path.into()),
            _ => None,
        })
        .ok_or_else(|| "cargo reported no tagging_server executable".to_string())
}

/// The CPUs this process may run on, from `Cpus_allowed_list`.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let lo: usize = lo.parse().map_err(|_| format!("bad CPU list `{list}`"))?;
        let hi: usize = hi.parse().map_err(|_| format!("bad CPU list `{list}`"))?;
        cpus.extend(lo..=hi);
    }
    Ok(cpus)
}

/// Comma-separated CPU list, as `taskset -c` takes it.
pub fn cpu_list(cpus: &[usize]) -> String {
    cpus.iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Pins every thread of this process to `cpus` (threads spawned later
/// inherit the mask).
pub fn pin_self(cpus: &[usize]) -> Result<(), String> {
    let status = Command::new("taskset")
        .args([
            "-a",
            "-p",
            "-c",
            &cpu_list(cpus),
            &std::process::id().to_string(),
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run taskset: {e}"))?;
    if !status.success() {
        return Err(format!("taskset failed: {status}"));
    }
    Ok(())
}

/// A running daemon.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// `host:port` it listens on.
    pub addr: String,
}

impl Daemon {
    /// Starts `exe` pinned to `cpu` with `flags` and waits for its
    /// `listening on` line, which it prints once recovery (if any) is done.
    pub fn start(exe: &Path, cpu: usize, flags: &[String]) -> Result<Self, String> {
        let mut child = Command::new("taskset")
            .arg("-c")
            .arg(cpu.to_string())
            .arg(exe)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("the daemon exited before listening".to_string());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                let addr = addr.to_string();
                return Ok(Self {
                    child,
                    stdout,
                    addr,
                });
            }
        }
    }

    /// The daemon's process id (taskset execs it, so this is the server).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the daemon to exit after a `POST /shutdown`; kills it if it
    /// has not exited within `grace_s` seconds. True on a clean exit.
    pub fn wait_exit(mut self, grace_s: f64) -> bool {
        let started = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = self.stdout.read_to_string(&mut rest);
                    return status.success();
                }
                Ok(None) if started.elapsed().as_secs_f64() < grace_s => {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                _ => return false,
            }
        }
    }
}

/// A daemon that is dropped without a clean exit (an earlier set-up
/// repetition, or any error) is killed and reaped.
impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = fs::canonicalize(path) else {
        return "unknown".to_string();
    };
    let Ok(mounts) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(point), Some(kind)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(point) && best.as_ref().is_none_or(|(len, _)| point.len() >= *len) {
            best = Some((point.len(), kind.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// The commit under test: `git rev-parse HEAD` when the checkout is a git
/// repository, otherwise [`source_hash`].
pub fn commit_id() -> String {
    if let Ok(out) = Command::new("git")
        .current_dir(checkout_root())
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
    {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    format!("source-hash:{:016x}", source_hash())
}

/// A hash of the sources and manifests the daemon and the benchmark are
/// built from, uncommitted edits included.
pub fn source_hash() -> u64 {
    let root = checkout_root();
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "svcbench/src",
    ] {
        collect_sources(&root.join(top), &mut files);
    }
    files.sort();
    let mut hasher = DefaultHasher::new();
    for file in &files {
        hasher.write(
            file.strip_prefix(&root)
                .unwrap_or(file)
                .as_os_str()
                .as_encoded_bytes(),
        );
        hasher.write(&fs::read(file).unwrap_or_default());
    }
    hasher.finish()
}

fn collect_sources(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        if let Ok(entries) = fs::read_dir(path) {
            for entry in entries.flatten() {
                collect_sources(&entry.path(), out);
            }
        }
    } else if path
        .extension()
        .is_some_and(|ext| ext == "rs" || ext == "toml" || ext == "lock")
    {
        out.push(path.to_path_buf());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_round_trip() {
        assert_eq!(cpu_list(&[0, 1, 3]), "0,1,3");
        assert!(!allowed_cpus().unwrap().is_empty());
    }

    #[test]
    fn the_root_mount_has_a_type() {
        assert_ne!(fs_type(Path::new("/")), "unknown");
    }
}
