//! Row keys.
//!
//! Keys are opaque byte strings ordered lexicographically (HBase semantics).
//! Helpers cover the two encodings the workloads use: big-endian `u64`
//! (synthetic keys — big-endian so numeric and lexicographic order agree)
//! and UTF-8 strings (annotation tokens).
//!
//! Short keys (≤ `INLINE_CAP` bytes — every `from_u64` key and most
//! annotation tokens) are stored inline in the struct, so constructing,
//! cloning, hashing and comparing them never touches the heap. Longer keys
//! fall back to a refcounted [`Bytes`] buffer with O(1) clones.

use bytes::Bytes;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Maximum key length stored inline without a heap allocation.
const INLINE_CAP: usize = 16;

#[derive(Clone)]
enum Repr {
    /// Key bytes stored in the struct itself; `len ≤ INLINE_CAP`.
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    /// Longer keys share a refcounted buffer.
    Shared(Bytes),
}

/// An ordered, opaque row key.
///
/// Equality, ordering and hashing are all defined over the raw bytes, so the
/// two representations are indistinguishable to callers and to hash maps.
#[derive(Clone)]
pub struct RowKey(Repr);

impl RowKey {
    fn from_slice(b: &[u8]) -> Self {
        if b.len() <= INLINE_CAP {
            let mut buf = [0u8; INLINE_CAP];
            buf[..b.len()].copy_from_slice(b);
            RowKey(Repr::Inline {
                len: b.len() as u8,
                buf,
            })
        } else {
            RowKey(Repr::Shared(Bytes::copy_from_slice(b)))
        }
    }

    /// Wrap raw bytes.
    pub fn from_bytes(b: impl Into<Bytes>) -> Self {
        let b = b.into();
        if b.len() <= INLINE_CAP {
            Self::from_slice(&b)
        } else {
            RowKey(Repr::Shared(b))
        }
    }

    /// Encode a `u64` big-endian (order-preserving). Always inline.
    pub fn from_u64(v: u64) -> Self {
        let mut buf = [0u8; INLINE_CAP];
        buf[..8].copy_from_slice(&v.to_be_bytes());
        RowKey(Repr::Inline { len: 8, buf })
    }

    /// Encode a string key.
    pub fn from_str_key(s: &str) -> Self {
        Self::from_slice(s.as_bytes())
    }

    /// Decode a key produced by [`RowKey::from_u64`].
    pub fn as_u64(&self) -> Option<u64> {
        self.as_bytes().try_into().ok().map(u64::from_be_bytes)
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Shared(b) => b,
        }
    }

    /// Key length in bytes (the `sk` of the cost model).
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Shared(b) => b.len(),
        }
    }

    /// True for the empty key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A stable 64-bit hash (FNV-1a), used for hash partitioning so that
    /// placement does not depend on the process's `DefaultHasher` seed.
    pub fn stable_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in self.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

// Manual impls over `as_bytes()`: derived ones would compare the enum
// discriminant and the dead tail of the inline buffer, making the two
// representations of the same key unequal.

impl PartialEq for RowKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for RowKey {}

impl PartialOrd for RowKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RowKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for RowKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for RowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RowKey({self})")
    }
}

impl fmt::Display for RowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_u64() {
            Some(v) => write!(f, "k{v}"),
            None => match std::str::from_utf8(self.as_bytes()) {
                Ok(s) => write!(f, "{s}"),
                Err(_) => write!(f, "0x{}", hex(self.as_bytes())),
            },
        }
    }
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    #[test]
    fn u64_roundtrip_preserves_order() {
        let a = RowKey::from_u64(3);
        let b = RowKey::from_u64(300);
        let c = RowKey::from_u64(70_000);
        assert!(a < b && b < c);
        assert_eq!(b.as_u64(), Some(300));
    }

    #[test]
    fn string_keys() {
        let k = RowKey::from_str_key("michael jordan");
        assert_eq!(k.len(), 14);
        assert_eq!(k.as_u64(), None);
        assert_eq!(format!("{k}"), "michael jordan");
    }

    #[test]
    fn stable_hash_is_deterministic_and_spreads() {
        let h1 = RowKey::from_u64(1).stable_hash();
        let h2 = RowKey::from_u64(2).stable_hash();
        assert_ne!(h1, h2);
        assert_eq!(h1, RowKey::from_u64(1).stable_hash());
    }

    #[test]
    fn display_u64() {
        assert_eq!(format!("{}", RowKey::from_u64(42)), "k42");
    }

    #[test]
    fn inline_and_shared_representations_agree() {
        // Same logical key via both constructors (from_bytes of a long-lived
        // Bytes vs from_slice): must be equal, hash equal, order equal.
        let long = "a".repeat(40);
        let shared = RowKey::from_bytes(Bytes::copy_from_slice(long.as_bytes()));
        let rebuilt = RowKey::from_str_key(&long);
        assert_eq!(shared, rebuilt);
        assert_eq!(shared.cmp(&rebuilt), Ordering::Equal);
        let hash = |k: &RowKey| {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&shared), hash(&rebuilt));

        // Inline vs shared never compare equal unless bytes match.
        assert_ne!(RowKey::from_str_key("abc"), shared);
    }

    #[test]
    fn inline_boundary_lengths() {
        for len in [0usize, 1, 15, 16, 17, 64] {
            let s = "x".repeat(len);
            let k = RowKey::from_str_key(&s);
            assert_eq!(k.len(), len);
            assert_eq!(k.as_bytes(), s.as_bytes());
            assert_eq!(k.is_empty(), len == 0);
            assert_eq!(k.clone(), k);
        }
    }

    #[test]
    fn ordering_matches_byte_order_across_reprs() {
        let short = RowKey::from_str_key("abc");
        let long = RowKey::from_str_key(&"abd".repeat(10));
        assert!(short < long);
        assert!(RowKey::from_str_key(&"aaa".repeat(10)) < short);
    }
}
