//! The calibration kernel: a fixed piece of benchmark-owned work whose
//! speed tracks how fast the host runs right now.
//!
//! Host time on a shared machine drifts by 15–25% over tens of seconds
//! as neighbours come and go. The kernel runs after every repeat, and a
//! run's host times are scaled by the kernel's median speed over the
//! run, so the drift cancels while a change to the simulator still
//! shows. The
//! kernel imitates the simulator's hot loop: pop the earliest entry of a
//! binary-heap event queue, update scattered state that fits in cache,
//! branch on a random draw, push the next event. Its code lives in this
//! package only, so no change to the simulator moves it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Queue pops per calibration: about 40 ms on the host the nominal
/// speed was taken from.
const OPS: u64 = 400_000;

/// The speed host times are scaled to, in million pops per second: what
/// the kernel ran at on a quiet 2.1 GHz Xeon KVM guest.
pub const NOMINAL_MOPS: f64 = 10.0;

/// Runs the kernel once on each of `threads` threads at the same time;
/// returns the mean speed per thread in million pops per second. Run at
/// the width the workload steps at, the kernel also feels what the
/// workload's threads do to each other (shared cores, caches).
pub fn speed_mops(threads: usize) -> f64 {
    let one = || {
        let t = Instant::now();
        std::hint::black_box(kernel(std::hint::black_box(OPS)));
        OPS as f64 / t.elapsed().as_secs_f64() / 1e6
    };
    if threads <= 1 {
        return one();
    }
    let speeds: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(one)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    speeds.iter().sum::<f64>() / threads as f64
}

fn kernel(ops: u64) -> u64 {
    let mut heap = BinaryHeap::with_capacity(2048);
    let mut state = vec![0u64; 4096];
    let mut x = 0x1234_5678_9abc_def1u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..2048u32 {
        heap.push(Reverse((next() & 0xffff, i)));
    }
    let mut acc = 0u64;
    for _ in 0..ops {
        let Reverse((t, i)) = heap.pop().expect("the queue never drains");
        let r = next();
        let slot = (r as usize ^ i as usize) & 4095;
        state[slot] = state[slot].wrapping_add(t);
        match r & 3 {
            0 => acc = acc.wrapping_add(state[(slot * 7) & 4095]),
            1 => acc ^= t,
            _ => {}
        }
        heap.push(Reverse((t + (r & 0xffff), i)));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_does_the_work() {
        assert_eq!(kernel(10_000), kernel(10_000));
        assert_ne!(kernel(10_000), kernel(20_000));
        assert!(speed_mops(1) > 0.0);
        assert!(speed_mops(2) > 0.0);
    }
}
