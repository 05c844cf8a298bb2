//! The `tagging_server` command line: an unknown flag, a stray positional,
//! a repeated flag, a missing, malformed or below-minimum value or a store
//! flag without `--data-dir` exits with status 2 before anything binds, and the flags the service benchmark
//! passes start a durable group-commit daemon that shuts down cleanly.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;
use tagging_server::http::HttpClient;

const DAEMON: &str = env!("CARGO_BIN_EXE_tagging_server");

#[test]
fn malformed_flag_values_exit_before_binding() {
    // Each case's first token is the one the error must name.
    for args in [
        &["--fsync", "bogus"][..],
        &["--workers", "x"],
        &["--shards", "-1"],
        &["--snapshot-every", "5ms"],
        &["--data-dir"],
        &["--fsnyc", "group"],
        &["group"],
        &["--port", "1"], // repeats the `--port 0` every case starts with
        &["--compact-interval-ms", "0"],
        &["--workers", "0"],
        &["--shards", "0"],
        &["--snapshot-every", "0"],
        // Store flags without `--data-dir` would configure nothing.
        &["--fsync", "group"],
        &["--snapshot-every", "16"],
        &["--compact-interval-ms", "5"],
    ] {
        let mut child = Command::new(DAEMON)
            .args(["--port", "0"])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn the daemon");
        // A daemon that ignored the argument would bind and serve forever.
        let deadline = Instant::now() + Duration::from_secs(10);
        while child.try_wait().expect("poll the daemon").is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{args:?}: the daemon ran on instead of rejecting the argument");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let output = child.wait_with_output().expect("daemon output");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(!stdout.contains("listening on"), "{args:?} bound: {stdout}");
        // The usage text after the first line lists every flag, so only the
        // error line itself can show which token was at fault.
        let stderr = String::from_utf8_lossy(&output.stderr);
        let error = stderr.lines().next().unwrap_or_default();
        assert!(
            error.contains(args[0]),
            "{args:?}: the error names the offending token: {stderr}"
        );
    }
}

#[test]
fn benchmark_flags_start_a_durable_group_commit_daemon() {
    let dir = std::env::temp_dir().join(format!("tagging-server-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut child = Command::new(DAEMON)
        .args([
            "--port",
            "0",
            "--workers",
            "2",
            "--fsync",
            "group",
            "--data-dir",
        ])
        .arg(&dir)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn the daemon");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let read = stdout.read_line(&mut line).expect("daemon stdout");
        assert!(read > 0, "the daemon exited before listening");
        if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.trim().to_string();
        }
    };
    let mut client = HttpClient::connect(&addr).expect("connect");
    let (status, health) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(health.get("durable"), Some(&Value::Bool(true)));
    assert_eq!(
        health.get("flush"),
        Some(&Value::String("group".to_string()))
    );
    let (status, _) = client.request("POST", "/shutdown", None).unwrap();
    assert_eq!(status, 200);
    assert!(child.wait().expect("daemon exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}
