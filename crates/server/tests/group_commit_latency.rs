//! The server/client latency cross-check on a durable `FlushPolicy::Group`
//! server, the case whose windowed bound derives from the client p99. It is
//! the only test in this binary, so the process-wide `server_request_us`
//! histogram and the window ring hold this server's requests and no other's.

mod support;

use tagging_persist::PersistOptions;
use tagging_runtime::FlushPolicy;

#[test]
fn group_commit_latency_agrees_with_the_client_view() {
    let dir = std::env::temp_dir().join(format!("tagging-server-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut durable = PersistOptions::new(&dir, 4);
    durable.flush = FlushPolicy::Group;
    support::cross_check_latency(Some(durable));
    let _ = std::fs::remove_dir_all(&dir);
}
