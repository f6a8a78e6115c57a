//! How fast the host runs right now, from a fixed piece of the ledger's own
//! work (no program code) timed between the blocks of a timed phase.
//!
//! On a shared host the same work takes up to twice as long from one minute
//! to the next, in CPU time as well as wall time (the neighbours share the
//! cores' caches and execution units). Dividing a measured time by the
//! host's current slowness — the reference's CPU time over its time on a
//! quiet host — estimates the time the work would take on that quiet host.
//! The estimate follows the host's compute speed; costs the reference does
//! not share (waking a thread on another vCPU, say) stay in the numbers.

use crate::stats::{self, Stopwatch};
use std::hint::black_box;
use std::sync::{Mutex, OnceLock};

/// CPU milliseconds one [`reference_work`] takes on a quiet 2-vCPU x86 host
/// (the fastest spells seen on the host the ledger was tuned on). It sets
/// only the scale of the scaled numbers, not their spread.
const QUIET_MS: f64 = 0.6;

static SAMPLES: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// A fixed mix of dense floating-point work (a small matrix product, like
/// the learner's) and dependent loads from a table larger than L1 (like the
/// solver's sparse gathers). Allocates nothing. Returns a checksum so nothing
/// is optimised out.
fn reference_work() -> f64 {
    const N: usize = 32;
    const TABLE: usize = 1 << 14;
    static TABLE_DATA: OnceLock<Vec<u32>> = OnceLock::new();
    let table = TABLE_DATA.get_or_init(|| {
        (0..TABLE as u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % TABLE as u32)
            .collect()
    });
    let mut a = [[0.0f64; N]; N];
    let mut c = [[0.0f64; N]; N];
    for (i, row) in a.iter_mut().enumerate() {
        for (j, x) in row.iter_mut().enumerate() {
            *x = ((i * 7 + j * 3) % 13) as f64 * 0.1;
        }
    }
    let a = black_box(a);
    for _ in 0..4 {
        for (a_row, c_row) in a.iter().zip(c.iter_mut()) {
            for (aik, b_row) in a_row.iter().zip(&a) {
                for (cij, bkj) in c_row.iter_mut().zip(b_row) {
                    *cij += aik * bkj;
                }
            }
        }
    }
    let mut at = 1u32;
    let mut sum = 0u64;
    for _ in 0..100_000 {
        at = table[(at as usize ^ (sum as usize & 7)) % TABLE];
        sum = sum.wrapping_add(at as u64);
    }
    c.iter().flatten().sum::<f64>() + sum as f64
}

/// Times one run of the reference work (process CPU) and records it. Call
/// it only while the program is idle: between blocks, from the one thread
/// that is running.
pub fn sample() {
    let watch = Stopwatch::start();
    black_box(reference_work());
    let ms = watch.read().cpu_s * 1e3;
    SAMPLES.lock().expect("host samples").push(ms);
}

/// Drops the samples recorded so far.
pub fn reset() {
    SAMPLES.lock().expect("host samples").clear();
}

/// The host's slowness over the samples recorded since the last
/// [`reset`]/[`slowness`]: their median over the quiet-host time (1 when no
/// sample was taken). Clears the samples.
pub fn slowness() -> f64 {
    let samples = std::mem::take(&mut *SAMPLES.lock().expect("host samples"));
    if samples.is_empty() {
        1.0
    } else {
        stats::median(&samples) / QUIET_MS
    }
}
