//! Pieces shared by the three workloads.

use crate::host;
use gcnrl::{FomConfig, StepRecord};
use gcnrl_circuit::TechnologyNode;
use std::sync::{Condvar, Mutex};

/// Samples of the paper's FoM calibration ("random sampling 5000 designs")
/// and the seed the experiment harness calibrates with.
pub const CALIBRATION: usize = 5000;
pub const CALIBRATION_SEED: u64 = 7;

pub fn node() -> TechnologyNode {
    TechnologyNode::tsmc180()
}

/// Share of a run's work in each of the two passes that measure the
/// tracing overhead.
pub const OVERHEAD_SHARE: f64 = 0.25;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Host samples taken before and after each set-up.
const SETUP_HOST_SAMPLES: usize = 5;

/// Runs `setup` and returns its result with the CPU seconds it took, scaled
/// to a quiet host by samples taken just before and after it.
pub fn timed<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    host::reset();
    for _ in 0..SETUP_HOST_SAMPLES {
        host::sample();
    }
    let watch = crate::stats::Stopwatch::start();
    let value = setup();
    let cpu_s = watch.read().cpu_s;
    for _ in 0..SETUP_HOST_SAMPLES {
        host::sample();
    }
    (value, cpu_s / host::slowness())
}

/// The set-up repetitions after the first: each is timed, then dropped.
/// They run after the timed phase and after peak memory is read, so they
/// move neither.
pub fn repeat_setup<T>(setup: impl Fn() -> T, setup_s: &mut Vec<f64>) {
    for _ in 1..SETUP_REPS {
        let (value, secs) = timed(&setup);
        drop(value);
        setup_s.push(secs);
    }
}

/// Units of work for a run of `seconds` at `per_second` units a second,
/// rounded up to whole cycles of `cycle` units (so every circuit gets the
/// same share). The work is fixed by `--seconds`, not by how fast the
/// program is: a faster program finishes sooner.
pub fn units(seconds: f64, per_second: f64, cycle: usize) -> usize {
    let n = (seconds * per_second).ceil().max(1.0) as usize;
    n.div_ceil(cycle) * cycle
}

/// The lowest FoM the calibrated normalisation can give: every minimised
/// metric at its worst (paper Eq. 2 clamps each normalised term to [0, 1]).
pub fn fom_floor(fom: &FomConfig) -> f64 {
    fom.metrics().iter().map(|m| m.weight.min(0.0)).sum()
}

/// Mean FoM above `floor` over the last quarter of `records`.
pub fn last_quarter_mean(records: &[StepRecord], floor: f64) -> f64 {
    let tail = &records[records.len() - records.len().div_ceil(4)..];
    tail.iter().map(|r| r.fom - floor).sum::<f64>() / tail.len() as f64
}

/// A well-mixed seed for unit `b` of stream `a` under the workload seed.
pub fn derive(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether `short` records bit-identically the FoMs `long` starts with.
pub fn same_prefix(short: &[StepRecord], long: &[StepRecord]) -> bool {
    short.len() <= long.len() && same_foms(short, &long[..short.len()])
}

/// Whether two histories record bit-identical FoMs.
pub fn same_foms(a: &[StepRecord], b: &[StepRecord]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.fom.to_bits() == y.fom.to_bits())
}

/// Round-robin turns between threads: exactly one runs at a time, and each
/// hands over after every unit of its work. The threads' work is the same as
/// back to back, but spread over the whole timed phase, so a host slowdown
/// of a few seconds hits every thread alike, and the process CPU time of a
/// unit is that unit's.
pub struct Baton {
    state: Mutex<(usize, Vec<bool>)>,
    turn: Condvar,
}

impl Baton {
    pub fn new(n: usize) -> Self {
        Baton {
            state: Mutex::new((0, vec![true; n])),
            turn: Condvar::new(),
        }
    }

    pub fn wait(&self, me: usize) {
        let mut state = self.state.lock().expect("baton");
        while state.0 != me {
            state = self.turn.wait(state).expect("baton");
        }
    }

    /// Hands the turn to the next thread still running (`done` retires
    /// `me` from the rotation).
    pub fn pass(&self, me: usize, done: bool) {
        let mut state = self.state.lock().expect("baton");
        state.1[me] = !done;
        let n = state.1.len();
        if let Some(next) = (1..=n).map(|k| (me + k) % n).find(|&j| state.1[j]) {
            state.0 = next;
        }
        self.turn.notify_all();
    }
}
