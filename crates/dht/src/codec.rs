//! Word codecs: how keys and values fit in a cell.
//!
//! A cell of the table (`table.rs`) is one cache line of `AtomicU64`s,
//! so what it stores must be plain words: a key is exactly four `u64`s
//! and a value at most three `u64`s plus a kind bit. Both encodings
//! must be lossless — `decode(encode(x)) == x` — because the table
//! hands back decoded copies, never references.

/// A key the table can store: four words, compared word by word.
pub trait CellKey {
    /// The key's four words. Equal keys must encode to equal words
    /// and distinct keys to distinct words.
    fn encode(&self) -> [u64; 4];

    /// The key [`CellKey::encode`] produced `words` from.
    fn decode(words: [u64; 4]) -> Self;
}

/// A value the table can store: three words plus a kind bit (for an
/// enum, which variant the words belong to).
pub trait CellValue {
    /// The value's kind bit and words.
    fn encode(&self) -> (bool, [u64; 3]);

    /// The value [`CellValue::encode`] produced `(kind, words)` from.
    fn decode(kind: bool, words: [u64; 3]) -> Self;
}

impl CellKey for u64 {
    fn encode(&self) -> [u64; 4] {
        [*self, 0, 0, 0]
    }

    fn decode(words: [u64; 4]) -> Self {
        words[0]
    }
}

impl CellKey for (u64, u64) {
    fn encode(&self) -> [u64; 4] {
        [self.0, self.1, 0, 0]
    }

    fn decode(words: [u64; 4]) -> Self {
        (words[0], words[1])
    }
}

impl CellValue for u64 {
    fn encode(&self) -> (bool, [u64; 3]) {
        (false, [*self, 0, 0])
    }

    fn decode(_kind: bool, words: [u64; 3]) -> Self {
        words[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_codecs_round_trip() {
        for k in [0u64, 1, u64::MAX] {
            assert_eq!(<u64 as CellKey>::decode(CellKey::encode(&k)), k);
            let (kind, words) = CellValue::encode(&k);
            assert_eq!(<u64 as CellValue>::decode(kind, words), k);
        }
        let pair = (7u64, u64::MAX);
        assert_eq!(<(u64, u64)>::decode(pair.encode()), pair);
    }
}
