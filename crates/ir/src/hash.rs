//! Byte-wise FNV-1a, the one stable 64-bit hash behind fingerprints,
//! artifact keys, store checksums and finding names. Its values are
//! persisted (artifact file names, `.art` checksums), so they must never
//! change.

/// The FNV-1a 64-bit offset basis: the accumulator to start from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into the FNV-1a accumulator `h`. Start from
/// [`FNV_OFFSET`]; folding `a` then `b` equals folding `a ++ b`.
#[inline]
#[must_use]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_the_published_fnv1a_64() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"), fnv1a(FNV_OFFSET, b"foobar"));
    }
}
