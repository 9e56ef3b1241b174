//! Page checksums: a dependency-free, word-parallel 64-bit sum.
//!
//! The paper's prototype trusts providers to return the bytes they were
//! given; real deployments cannot (disk bit rot, torn writes, buggy
//! stores). Every stored page therefore carries checksums of its
//! payload, taken by the client before the first copy leaves it and
//! verified on every fetch — a mismatch downgrades the copy to a *miss*
//! so the reader falls through to the next replica, and surfaces as
//! [`crate::BlobError::PageCorrupt`] only when no copy verifies.
//!
//! The sum is not cryptographic and does not need to be: the adversary
//! is entropy, not an attacker. What matters is that it has no
//! dependencies, is stable across platforms (a durable store would
//! persist it beside the payload), costs about what reading the bytes
//! from memory costs, and **provably** notices the damage media actually
//! does. Byte-serial FNV-1a, which this replaces, had the last property
//! but ran at ~0.65 GiB/s — 0.72 to 0.95 of the engine's CPU on four of
//! the five benchmark workloads.
//!
//! # Shape
//!
//! The payload is read as little-endian 64-bit words, dealt round-robin
//! onto [`LANES`] independent lane states (word `i` of each 64-byte
//! stripe goes to lane `i`). Every word is absorbed by one `step`:
//!
//! ```text
//! step(h, w) = rotl((h ^ w) * MUL, 29)        MUL odd
//! ```
//!
//! The lanes have no data dependency on each other, so a superscalar
//! core overlaps their multiply latencies; eight lanes keep the single
//! multiplier port busy every cycle. After the last full stripe the
//! lanes are folded into one state by the same step, in lane order
//! (`h = step(h, lane)`), then the remaining whole words, the final
//! partial word (zero-padded) and the payload length are absorbed the
//! same way, and an invertible avalanche spreads the result.
//!
//! # Why a change confined to one word always changes the sum
//!
//! * For a fixed word `w`, `h ↦ step(h, w)` is a **bijection** of the
//!   state: xor with a constant, multiplication by an odd number
//!   modulo 2⁶⁴ and a rotation are each invertible.
//! * For a fixed state `h`, `w ↦ step(h, w)` is **injective** for the
//!   same reason.
//! * The fold absorbs each lane's final state as the *word* of a step,
//!   so for fixed other lanes it is a bijection in each lane; the
//!   avalanche (xor-shift-right, odd multiply, xor-shift-right) is a
//!   bijection too.
//!
//! Damage confined to one 8-byte word — hence any single-bit flip, any
//! byte, any aligned burst up to 64 bits — changes the state right
//! after that word's step (injectivity), and every later operation,
//! with the untouched rest of the payload held fixed, maps distinct
//! states to distinct states. So the final sums differ: the same
//! guarantee FNV-1a gave byte by byte. The zero padding of the final
//! partial word cannot alias a longer payload because the length is
//! absorbed as a word of its own. Damage spread over several words
//! collides with probability ~2⁻⁶⁴, as with any 64-bit sum.
//! FNV-1a survives under `#[cfg(test)]` as the oracle the flip tests
//! compare against.

/// Independent lane states; one 64-byte stripe feeds each lane a word.
const LANES: usize = 8;
/// Bytes per stripe.
const STRIPE: usize = LANES * 8;
/// Odd multiplier of the lane step (2⁶⁴ / φ).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Odd multiplier of the final avalanche.
const AVALANCHE: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// Lane seeds: distinct, so a word means something different in every
/// lane (fractional digits of π).
const SEEDS: [u64; LANES] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
    0x4528_21E6_38D0_1377,
    0xBE54_66CF_34E9_0C6C,
    0xC0AC_29B7_C97C_50DD,
    0x3F84_D5B5_B547_0917,
];

/// Absorb one word; see the module docs for why it is a bijection in
/// `h` and injective in `word`.
#[inline(always)]
fn step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(MUL).rotate_left(29)
}

#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte chunk"))
}

/// Checksum of a page payload (or of one block of it).
///
/// Deterministic and platform-independent; total over every length,
/// the empty payload included. See the module docs for the detection
/// guarantee.
#[inline]
pub fn page_checksum(data: &[u8]) -> u64 {
    let mut lanes = SEEDS;
    let mut stripes = data.chunks_exact(STRIPE);
    for stripe in &mut stripes {
        for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = step(*lane, le_word(word));
        }
    }
    let mut h = 0;
    for lane in lanes {
        h = step(h, lane);
    }
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = step(h, le_word(word));
    }
    let rest = words.remainder();
    let mut last = [0u8; 8];
    last[..rest.len()].copy_from_slice(rest);
    h = step(h, u64::from_le_bytes(last));
    h = step(h, data.len() as u64);
    h ^= h >> 32;
    h = h.wrapping_mul(AVALANCHE);
    h ^ (h >> 29)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 64-bit FNV-1a, the sum this module replaced: byte-serial, and
    /// every step a bijection of the state — the reference for "no
    /// single-bit flip goes unnoticed".
    fn fnv1a(data: &[u8]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &byte in data {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    fn lcg_block(seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..4096)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64 test vectors: the oracle is the real one.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn every_single_bit_flip_of_a_block_changes_the_sum() {
        for mut block in [vec![0u8; 4096], vec![0xA5u8; 4096], lcg_block(7)] {
            let healthy = page_checksum(&block);
            let oracle = fnv1a(&block);
            for bit in 0..block.len() * 8 {
                block[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(page_checksum(&block), healthy, "flip of bit {bit} undetected");
                assert_ne!(fnv1a(&block), oracle, "the oracle missed bit {bit}");
                block[bit / 8] ^= 1 << (bit % 8);
            }
            assert_eq!(page_checksum(&block), healthy);
        }
    }

    #[test]
    fn zero_buffers_of_every_short_length_are_distinct() {
        // Tail handling + length fold: zero padding must not alias.
        let zeros = [0u8; 100];
        let mut sums: Vec<u64> = (0..=100).map(|len| page_checksum(&zeros[..len])).collect();
        sums.sort_unstable();
        sums.dedup();
        assert_eq!(sums.len(), 101);
    }

    #[test]
    fn swapping_two_words_changes_the_sum() {
        let block = lcg_block(11);
        let healthy = page_checksum(&block);
        let swap_words = |a: usize, b: usize| {
            let mut swapped = block.clone();
            for i in 0..8 {
                swapped.swap(a * 8 + i, b * 8 + i);
            }
            swapped
        };
        // Words 3 and 3 + LANES feed the same lane in consecutive
        // stripes; words 3 and 4 feed neighbouring lanes.
        assert_ne!(page_checksum(&swap_words(3, 3 + LANES)), healthy, "same lane");
        assert_ne!(page_checksum(&swap_words(3, 4)), healthy, "different lanes");
        // ... and in the serial tail past the last full stripe.
        let tailed = &block[..STRIPE + 24];
        let mut swapped = tailed.to_vec();
        for i in 0..8 {
            swapped.swap(STRIPE + i, STRIPE + 8 + i);
        }
        assert_ne!(page_checksum(&swapped), page_checksum(tailed), "tail words");
    }

    #[test]
    fn deterministic() {
        let data: Vec<u8> = (0..=255).cycle().take(65536).collect();
        assert_eq!(page_checksum(&data), page_checksum(&data));
    }
}
