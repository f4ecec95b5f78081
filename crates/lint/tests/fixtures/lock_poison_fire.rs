// Fixture: a bare .lock().unwrap() cascades a poisoned mutex into every
// caller, and an .expect(..) message does not change that.
use std::sync::Mutex;

pub fn read(counter: &Mutex<u64>) -> u64 {
    *counter.lock().unwrap()
}

pub fn store(slot: &Mutex<Option<u64>>, value: u64) {
    *slot.lock().expect("slot poisoned") = Some(value);
}
