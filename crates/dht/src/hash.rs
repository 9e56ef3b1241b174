//! The one hash: a key's four words to its bucket, home cell and tag.
//!
//! The paper's metadata provider is "a custom DHT based on [a] simple
//! static distribution scheme" (§5). We distribute keys over `n` buckets
//! (one bucket = one metadata provider) with a fixed, seed-free hash so
//! that placement is **deterministic across runs and processes** — the
//! simulator (`blobseer-sim`) recomputes the same placement to model
//! per-provider contention, so determinism here is load-bearing.
//!
//! The key is hashed **once** per operation, a word at a time: two
//! folded 64×64→128-bit multiplies of seeded word pairs, and a third
//! that mixes the two halves. Multiply-shift of the hash by `n` picks
//! the bucket (the product's high word); the low word — the bits the
//! bucket did not use — picks the home cell inside the bucket (its top
//! bits) and the 16-bit tag a cell's state word carries (bits 16..32).

use crate::codec::CellKey;

const SEEDS: [u64; 6] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
    0x4528_21e6_38d0_1377,
    0xbe54_66cf_34e9_0c6c,
];

/// Bits of the tag a live cell's state word carries.
pub(crate) const TAG_BITS: u32 = 16;

/// Multiply two words into 128 bits and fold the halves together.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Deterministic 64-bit hash of a key's words.
#[inline]
pub(crate) fn hash_words(w: &[u64; 4]) -> u64 {
    let lo = fold_mul(w[0] ^ SEEDS[0], w[1] ^ SEEDS[1]);
    let hi = fold_mul(w[2] ^ SEEDS[2], w[3] ^ SEEDS[3]);
    fold_mul(lo ^ SEEDS[4], hi ^ SEEDS[5])
}

/// `(bucket, fraction)` of a key's words among `n` buckets: the high
/// and low words of `hash · n`. The fraction drives the probe inside
/// the bucket ([`home`], [`tag`]).
#[inline]
pub(crate) fn place(w: &[u64; 4], n: usize) -> (usize, u64) {
    let p = u128::from(hash_words(w)) * n as u128;
    ((p >> 64) as usize, p as u64)
}

/// Home cell of a fraction in a table of `2^bits` cells.
#[inline]
pub(crate) fn home(fraction: u64, bits: u32) -> usize {
    (fraction >> (64 - bits)) as usize
}

/// The tag of a fraction: bits the bucket and (at any practical
/// capacity) the home cell did not use.
#[inline]
pub(crate) fn tag(fraction: u64) -> u64 {
    (fraction >> 16) & ((1 << TAG_BITS) - 1)
}

/// Static distribution: the bucket (metadata provider) responsible for
/// `key` in a deployment of `n` buckets — the same function
/// [`crate::Dht::bucket_of`] applies.
#[inline]
pub fn static_bucket<K: CellKey + ?Sized>(key: &K, n: usize) -> usize {
    assert!(n > 0, "bucket count must be positive");
    place(&key.encode(), n).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_words(&[1, 2, 0, 0]), hash_words(&[1, 2, 0, 0]));
        assert_ne!(hash_words(&[1, 0, 0, 0]), hash_words(&[2, 0, 0, 0]));
        // Every word counts, in its own position.
        assert_ne!(hash_words(&[1, 2, 3, 4]), hash_words(&[1, 2, 4, 3]));
        assert_ne!(hash_words(&[1, 2, 3, 4]), hash_words(&[2, 1, 3, 4]));
    }

    #[test]
    fn buckets_in_range() {
        for n in [1usize, 2, 3, 50, 173, 175] {
            for k in 0u64..1000 {
                assert!(static_bucket(&k, n) < n);
            }
        }
    }

    #[test]
    fn distribution_roughly_uniform() {
        // 173 buckets (the paper's co-deployment count) and 100k keys:
        // every bucket should land within ±50% of the mean.
        let n = 173;
        let keys = 100_000u64;
        let mut counts = vec![0usize; n];
        for k in 0..keys {
            counts[static_bucket(&(k, k * 7 + 1), n)] += 1;
        }
        let mean = keys as f64 / n as f64;
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > mean * 0.5 && (c as f64) < mean * 1.5,
                "bucket {b} has {c} keys, mean {mean}"
            );
        }
    }

    #[test]
    fn home_cells_spread_within_a_bucket() {
        // Consecutive tree positions of one bucket must not pile onto a
        // few home cells: 4,096 keys over 4,096 cells leave roughly
        // 1/e of the cells unused, never most of them.
        let bits = 12;
        let mut used = vec![false; 1 << bits];
        for k in 0u64..1 << bits {
            let (_, fraction) = place(&[1, k, k, 1], 16);
            used[home(fraction, bits)] = true;
        }
        let empty = used.iter().filter(|&&u| !u).count() as f64 / used.len() as f64;
        assert!(empty < 0.45, "{empty} of home cells unused");
    }

    #[test]
    fn single_bucket_takes_everything() {
        for k in 0u64..100 {
            assert_eq!(static_bucket(&k, 1), 0);
        }
    }
}
