//! FNV-1a (64-bit), the workspace's one content hasher: the service's
//! bound-cache addresses and `suite_summary`'s per-program validation
//! salts both come from it.
//!
//! FNV-1a is not collision-resistant; every user stores or compares the
//! hashed material itself wherever a collision could matter.

/// A streaming 64-bit FNV-1a hasher: [`Fnv1a::write`] byte slices in
/// order, then [`Fnv1a::finish`]. Feeding the same bytes in any split
/// gives the same hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV offset basis.
    pub const fn new() -> Fnv1a {
        Fnv1a(Fnv1a::OFFSET_BASIS)
    }

    /// Hashes `bytes` into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Fnv1a::PRIME);
        }
    }

    /// The hash of every byte written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// The FNV-1a hash of one byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }
}
