// SPDX-License-Identifier: MIT OR Apache-2.0
//! Byte-level codec for the ledger payload ([`crate::record::RecordData`],
//! `POATLGR1`): LEB128 varints, length-prefixed strings, front-coded
//! name-keyed maps, and a bounds-checked decode cursor. The payload's
//! counters, gauges and histograms share [`put_map`] and
//! [`Cursor::map`], and `tests/payloads.rs` tortures the decoder.

use std::collections::BTreeMap;

use crate::LedgerError;

/// Appends `v` as an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `s` as a varint byte length followed by the UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a name-keyed map: its entry count, then per entry (in name
/// order) the name front-coded against its predecessor followed by the
/// value as `put_value` writes it. Every metric map of the ledger
/// payload — counters, gauges and histograms — is encoded this way.
///
/// Front-coding stores the byte length a name shares with its
/// predecessor, then the differing suffix — worth ~3× on the sorted,
/// dot-separated metric namespace.
pub fn put_map<V>(
    out: &mut Vec<u8>,
    map: &BTreeMap<String, V>,
    put_value: impl Fn(&mut Vec<u8>, &V),
) {
    put_varint(out, map.len() as u64);
    let mut prev = "";
    for (name, v) in map {
        let mut shared = prev
            .bytes()
            .zip(name.bytes())
            .take_while(|(a, b)| a == b)
            .count();
        // Back off to a char boundary so the suffix stays valid UTF-8.
        while !name.is_char_boundary(shared) {
            shared -= 1;
        }
        put_varint(out, shared as u64);
        put_str(out, &name[shared..]);
        put_value(out, v);
        prev = name;
    }
}

/// A bounds-checked decoding position over a payload byte slice. Every
/// read is validated; structural violations surface as
/// [`LedgerError::Corrupt`] rather than panics.
pub struct Cursor<'a> {
    /// The payload being decoded.
    pub bytes: &'a [u8],
    /// Current read offset.
    pub pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts a cursor at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Consumes and returns the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`LedgerError::Corrupt`] when fewer than `n` bytes remain —
    /// including a crafted `n` near `u64::MAX`.
    pub fn take(&mut self, n: u64) -> Result<&'a [u8], LedgerError> {
        let s = usize::try_from(n)
            .ok()
            .and_then(|n| self.bytes.get(self.pos..self.pos.checked_add(n)?))
            .ok_or(LedgerError::Corrupt("field extends past payload"))?;
        self.pos += s.len();
        Ok(s)
    }

    /// Decodes one LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`LedgerError::Corrupt`] on truncation or u64 overflow.
    pub fn varint(&mut self) -> Result<u64, LedgerError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let [byte] = *self.take(1)? else {
                return Err(LedgerError::Corrupt("varint truncated"));
            };
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(LedgerError::Corrupt("varint overflows u64"));
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Decodes one length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`LedgerError::Corrupt`] on truncation or invalid UTF-8.
    pub fn string(&mut self) -> Result<String, LedgerError> {
        let len = self.varint()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| LedgerError::Corrupt("string not UTF-8"))
    }

    /// Decodes a map written by [`put_map`], reading each value with
    /// `value`.
    ///
    /// # Errors
    ///
    /// [`LedgerError::Corrupt`] on any structural violation of the
    /// count, a name, or a value — including a shared-prefix length
    /// beyond the previous name or inside one of its UTF-8 sequences.
    pub fn map<V>(
        &mut self,
        mut value: impl FnMut(&mut Self) -> Result<V, LedgerError>,
    ) -> Result<BTreeMap<String, V>, LedgerError> {
        let n = self.varint()?;
        let mut map = BTreeMap::new();
        let mut prev = String::new();
        for _ in 0..n {
            let shared = usize::try_from(self.varint()?).unwrap_or(usize::MAX);
            if !prev.is_char_boundary(shared) {
                return Err(LedgerError::Corrupt("front-coding prefix out of range"));
            }
            let name = prev[..shared].to_string() + &self.string()?;
            map.insert(name.clone(), value(self)?);
            prev = name;
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX / 2, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.varint().unwrap(), v, "value {v}");
            assert_eq!(cur.pos, buf.len());
        }
    }

    #[test]
    fn oversized_length_is_corrupt_not_a_panic() {
        let mut buf = vec![b'x'];
        put_varint(&mut buf, u64::MAX);
        let mut cur = Cursor::new(&buf);
        cur.take(1).unwrap();
        assert!(matches!(
            cur.string(),
            Err(LedgerError::Corrupt("field extends past payload"))
        ));
    }

    #[test]
    fn string_rejects_bad_utf8() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Cursor::new(&buf).string().is_err());
    }
}
