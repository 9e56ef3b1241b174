//! The benchmark's one random source.
//!
//! Every random choice — payload bytes, offsets, which pool buffer a
//! write carries, which `CrashPoint` kills a writer — comes from this
//! generator, seeded from `--seed`, so the same seed gives the same
//! inputs on every host and the engine only ever sees generated calls.
//!
//! It is Knuth's MMIX linear congruential generator,
//! `state' = state * 6364136223846793005 + 1442695040888963407 (mod 2^64)`,
//! with the output folded as `state ^ (state >> 32)` because the low
//! bits of a power-of-two LCG have short periods. Independent streams
//! (one per workload, round and client) start from
//! `seed ^ stream * 0x9E3779B97F4A7C15` and discard two outputs.

const MUL: u64 = 6_364_136_223_846_793_005;
const INC: u64 = 1_442_695_040_888_963_407;
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Clone, Debug)]
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64, stream: u64) -> Lcg {
        let mut lcg = Lcg(seed ^ stream.wrapping_mul(GOLDEN));
        lcg.next_u64();
        lcg.next_u64();
        lcg
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(MUL).wrapping_add(INC);
        self.0 ^ (self.0 >> 32)
    }

    /// Uniform in `0..n` (multiply-shift on the high 32 bits; `n` must
    /// fit 32 bits, which every count in this benchmark does).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0 && n <= u32::MAX as u64);
        ((self.next_u64() >> 32) * n) >> 32
    }

    /// Fill `buf` eight bytes per step, little-endian.
    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        let word = self.next_u64().to_le_bytes();
        rest.copy_from_slice(&word[..rest.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let draw = |seed, stream| {
            let mut lcg = Lcg::new(seed, stream);
            (0..8).map(|_| lcg.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 7), draw(1, 7));
        assert_ne!(draw(1, 7), draw(2, 7));
        assert_ne!(draw(1, 7), draw(1, 8));
    }

    #[test]
    fn below_stays_in_range_and_reaches_both_ends() {
        let mut lcg = Lcg::new(1, 0);
        let draws: Vec<u64> = (0..10_000).map(|_| lcg.below(10)).collect();
        assert!(draws.iter().all(|&d| d < 10));
        assert!(draws.contains(&0) && draws.contains(&9));
    }

    #[test]
    fn fill_covers_a_ragged_tail() {
        let mut buf = [0u8; 13];
        Lcg::new(3, 0).fill(&mut buf);
        let mut again = [0u8; 13];
        Lcg::new(3, 0).fill(&mut again);
        assert_eq!(buf, again);
        assert!(buf[8..].iter().any(|&b| b != 0));
    }
}
