// Fixture: recover the still-sound data from a poisoned lock, or hand the
// poison to the caller as an error.
use std::sync::{Mutex, PoisonError};

pub fn read(counter: &Mutex<u64>) -> u64 {
    *counter.lock().unwrap_or_else(PoisonError::into_inner)
}

pub fn try_read(counter: &Mutex<u64>) -> Result<u64, String> {
    counter
        .lock()
        .map(|guard| *guard)
        .map_err(|_| "counter lock poisoned".to_string())
}
