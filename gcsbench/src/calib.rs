//! Machine-speed calibration of the time figures.
//!
//! On a shared machine the same code runs up to about 1.6× slower for
//! stretches of milliseconds to minutes while other tenants contend for
//! caches and memory. A fixed reference kernel that shares no code with
//! the system under test — map churn, scattered writes over 2 MiB, small
//! allocations — slows down with it. Its passes run between trials, never
//! inside one, and a simulator run's CPU and set-up figures are scaled by
//! `REF_PASS_S` over the lower quartile of its pass times: they read as
//! measured on a machine where one pass takes `REF_PASS_S`.

use std::collections::BTreeMap;

use crate::ops::mix;
use crate::os;
use crate::stats::quantile;

/// CPU seconds of one reference pass on an unloaded 2-vCPU Intel Xeon
/// Linux machine: the speed the calibrated figures are expressed at.
pub const REF_PASS_S: f64 = 0.032;
/// Process CPU seconds between batches of passes (about a fifth of a
/// simulator run goes to passes).
const PASS_EVERY_S: f64 = 0.4;
/// Passes per batch.
const BATCH: usize = 3;

/// Runs one reference pass and returns its CPU seconds.
pub fn pass() -> f64 {
    const SLOTS: usize = 1 << 18;
    let t0 = os::process_cpu_s();
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut table = vec![0u64; SLOTS];
    let mut x = 1u64;
    for i in 0..200_000u64 {
        x = mix(x);
        map.insert(x % 4096, i);
        if i % 3 == 0 {
            map.remove(&((x >> 7) % 4096));
        }
        let slot = (x >> 20) as usize % SLOTS;
        table[slot] = table[slot].wrapping_add(x);
        std::hint::black_box(vec![x as u8; 16 + (x % 64) as usize]);
    }
    std::hint::black_box((&map, &table));
    os::process_cpu_s() - t0
}

/// The reference passes of one run.
#[derive(Default)]
pub struct Passes {
    pub times: Vec<f64>,
    last_batch_at: Option<f64>,
}

impl Passes {
    /// Runs a batch of passes if none ran in the last `PASS_EVERY_S` of
    /// process CPU. Call between trials.
    pub fn between_trials(&mut self) {
        let due = self
            .last_batch_at
            .is_none_or(|at| os::process_cpu_s() - at >= PASS_EVERY_S);
        if due {
            self.batch();
        }
    }

    /// Runs a batch of passes.
    pub fn batch(&mut self) {
        self.times.extend((0..BATCH).map(|_| pass()));
        self.last_batch_at = Some(os::process_cpu_s());
    }

    /// The factor that turns this run's times into reference-speed times.
    pub fn scale(&self) -> f64 {
        REF_PASS_S / quantile(self.times.clone(), 0.25)
    }
}
