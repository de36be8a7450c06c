//! Fixture: lock-scope discipline. Scanned as
//! `crates/parallel/src/fixture.rs`.

use crate::sync::{Condvar, Mutex};

pub fn bad_park(m: &Mutex<u32>, t: &Thread) {
    let guard = m.lock().unwrap();
    t.park(); // FINDING: park while `guard` is live
    drop(guard);
}

pub fn bad_cross_wait(a: &Mutex<u32>, b: &Mutex<u32>, cv: &Condvar) {
    let ga = a.lock().unwrap();
    let gb = b.lock().unwrap();
    let gb = cv.wait(gb).unwrap(); // FINDING: does not consume `ga`
    drop(gb);
    drop(ga);
}

pub fn bad_kernel(m: &Mutex<u32>, frames: &mut Frames) {
    let g = m.lock().unwrap();
    frames.step(); // FINDING: explore kernel under the lock
    drop(g);
}

pub fn bad_task_setup(m: &Mutex<u32>, task: Task) {
    let g = m.lock().unwrap();
    let _ex = Explorer::for_task(task.state, task.taxon, task.branches); // FINDING
    drop(g);
}

pub fn good_drop_first(m: &Mutex<u32>, frames: &mut Frames) {
    let g = m.lock().unwrap();
    let _v = *g;
    drop(g);
    frames.step(); // fine: the guard was dropped above
}

pub fn good_consuming_wait(m: &Mutex<u32>, cv: &Condvar) {
    let mut g = m.lock().unwrap();
    while *g == 0 {
        g = cv.wait(g).unwrap(); // fine: the wait consumes the guard
    }
    drop(g);
}
