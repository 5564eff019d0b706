//! FNV-1a 64, the one byte digest of the workspace: the `POATTRC3`
//! chunk checksum ([`crate::trace_io`]), the crash-sweep pool-state
//! digest ([`crate::faultpoint::state_digest`]) and the frame checksum
//! of the `poat-ledger` logs.

/// An incremental FNV-1a 64 state: updating with several byte slices
/// hashes their concatenation.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    /// The state before any byte (the FNV-64 offset basis).
    fn default() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    /// The state after also hashing `bytes`.
    #[must_use]
    pub fn update(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The digest of every byte hashed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The FNV-1a 64 digest of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    Fnv1a64::default().update(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_test_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn updates_hash_the_concatenation() {
        let h = Fnv1a64::default().update(b"fo").update(b"").update(b"obar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }
}
