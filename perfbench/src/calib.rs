//! Host-speed calibration.
//!
//! On a shared virtual machine the CPU time the host grants swings by
//! up to about 1.6x, in phases from a tenth of a second to minutes, and
//! that swing is larger than the differences the benchmark exists to
//! detect. So every timed window is bracketed by a fixed task that runs
//! no repository code, and the window's times are scaled by
//! `REFERENCE_MS / calibration`: they read as if the host had run at the
//! speed where the task takes [`REFERENCE_MS`]. The task mixes what the
//! server spends its time on: sorting, hash-map inserts and lookups, and
//! UTF-8 validation of long suffixes.

use crate::mix::splitmix64;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// About the calibration task's median time, in ms, on the 2-vCPU box the
/// benchmark was tuned on (it ranged from 13 to 31 ms there).
pub const REFERENCE_MS: f64 = 20.0;

/// Words sorted, and entries hashed, per calibration.
const WORDS: usize = 1 << 18;
const ENTRIES: usize = 60_000;

/// The calibration task's buffers, allocated once: timing it then times
/// no page faults, and it adds a fixed amount to the peak RSS.
pub struct Calibration {
    words: Vec<u64>,
    map: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>>,
    text: Vec<u8>,
}

impl Calibration {
    /// Allocate the buffers.
    pub fn new() -> Calibration {
        const ALPHABET: &[u8] = b"abcdefgh{}[],:0123456789";
        Calibration {
            words: vec![0; WORDS],
            // Fixed-key SipHash, so every run probes the same way.
            map: HashMap::with_capacity_and_hasher(ENTRIES, BuildHasherDefault::default()),
            text: (0..64 * 1024)
                .map(|i| ALPHABET[i % ALPHABET.len()])
                .collect(),
        }
    }

    /// Run the task once; its wall time in milliseconds.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        let mut state = 0x9E37_79B9_7F4A_7C15;
        for word in self.words.iter_mut() {
            *word = splitmix64(&mut state);
        }
        self.words.sort_unstable();
        self.map.clear();
        for (i, &word) in self.words.iter().take(ENTRIES).enumerate() {
            self.map.insert(word, i);
        }
        let mut found = 0;
        for word in self.words.iter().step_by(3) {
            found += self.map.get(word).map_or(0, |i| i & 1);
        }
        let mut valid = 0;
        for start in (0..self.text.len()).step_by(8) {
            valid += std::str::from_utf8(&self.text[start..]).map_or(0, |s| s.len() & 1);
        }
        std::hint::black_box((self.words[7], found, valid));
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Scale factor for times measured between two calibrations taken
    /// before and after them (`REFERENCE_MS / mean`).
    pub fn scale(before: f64, after: f64) -> f64 {
        REFERENCE_MS / ((before + after) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_task_takes_time_and_scales_inversely() {
        let mut calibration = Calibration::new();
        assert!(calibration.measure() > 0.0);
        assert_eq!(Calibration::scale(REFERENCE_MS, REFERENCE_MS), 1.0);
        assert_eq!(
            Calibration::scale(2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS),
            0.5
        );
    }
}
