//! Per-request ids and the process clock that flight records and the
//! event-loop watchdog stamp their entries with.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static PROCESS_START: OnceLock<Instant> = OnceLock::new();
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate the next process-unique request id (starts at 1).
pub fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
}

/// Microseconds since the first telemetry call in this process.
pub fn ts_us() -> u64 {
    let start = PROCESS_START.get_or_init(Instant::now);
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_unique_and_increasing() {
        let a = next_request_id();
        let b = next_request_id();
        assert!(b > a);
    }

    #[test]
    fn ts_us_is_monotone() {
        let a = ts_us();
        let b = ts_us();
        assert!(b >= a);
    }
}
