//! Correctness digest: a stable 64-bit hash of everything a simulated
//! run reports.
//!
//! The simulated outputs (cycles, stalls, every memory-system counter,
//! the streamed prefetch accounting) are deterministic in the inputs, so
//! they serve as the benchmark's correctness check rather than as
//! metrics. FNV-1a over 64-bit words is used instead of `std`'s hasher
//! because its output is fixed forever, which lets expected values live
//! in a committed file.

use dol_mem::CacheLevel;
use dol_metrics::{EffectiveAccuracy, StreamingMetrics};

const LEVELS: [CacheLevel; 3] = [CacheLevel::L1, CacheLevel::L2, CacheLevel::L3];

/// FNV-1a, fed one little-endian 64-bit word at a time.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word into the hash.
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a sequence of words.
    pub fn words(&mut self, vs: impl IntoIterator<Item = u64>) {
        for v in vs {
            self.word(v);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Mixes bytes into the hash (in word-sized pieces, zero-padded).
    pub fn bytes(&mut self, b: &[u8]) {
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        self.word(b.len() as u64);
    }

    /// A run result (`RunResult` or `MultiRunResult`): every field,
    /// nested `SystemStats` included, through its derived `Debug`
    /// rendering — so a field added later is covered without a change
    /// here.
    pub fn run_result(&mut self, r: &impl std::fmt::Debug) {
        self.bytes(format!("{r:?}").as_bytes());
    }

    /// The streamed prefetch accounting: per-level totals, per-core
    /// cells, and (with a classifier) the per-category split.
    pub fn metrics(&mut self, m: &StreamingMetrics) {
        for level in LEVELS {
            self.accuracy(&m.accuracy_at(level, None));
            if m.has_classifier() {
                for a in m.accuracy_by_category(level) {
                    self.accuracy(&a);
                }
            }
        }
        for cell in m.per_core() {
            for a in &cell.acc {
                self.accuracy(a);
            }
            self.words(cell.demand_misses);
        }
    }

    fn accuracy(&mut self, a: &EffectiveAccuracy) {
        let EffectiveAccuracy {
            issued,
            useful,
            unused,
            avoided,
            induced,
        } = *a;
        self.words([issued, useful, unused, avoided, induced.to_bits()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vector() {
        // FNV-1a 64 of the eight bytes 0x00..0x07 in order.
        let mut d = Digest::default();
        d.word(0x0706_0504_0302_0100);
        let mut reference: u64 = 0xcbf2_9ce4_8422_2325;
        for b in 0u8..8 {
            reference ^= u64::from(b);
            reference = reference.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(d.finish(), reference);
    }

    #[test]
    fn every_run_field_is_covered() {
        let mut a = Digest::default();
        a.run_result(&(1u64, [2u64, 3]));
        let mut b = Digest::default();
        b.run_result(&(1u64, [2u64, 4]));
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn order_matters() {
        let mut a = Digest::default();
        a.words([1, 2]);
        let mut b = Digest::default();
        b.words([2, 1]);
        assert_ne!(a.finish(), b.finish());
    }
}
