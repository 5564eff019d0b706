// SPDX-License-Identifier: MIT OR Apache-2.0
//! Decoder robustness for the ledger payload, [`RecordData`]: ledger
//! files are external input, so every byte string must decode to a
//! value or a typed error, never a panic. Golden bytes pin the encoding.

use std::collections::BTreeMap;

use poat_ledger::codec::{put_varint, Cursor};
use poat_ledger::{HistStat, Ledger, LedgerError, Medium, RecordData};
use poat_pmem::fnv::fnv1a64;
use proptest::prelude::*;

const MAGIC: &[u8; 8] = b"POATLGR1";

/// Fields of [`minimal`]'s encoding that reject `u64::MAX`: three
/// strings, three maps × (count, shared prefix, suffix), and `extra`.
const BOUNDED_FIELDS: usize = 13;

/// A record whose encoding spends one byte per field: zero numbers,
/// empty strings, one empty-named entry per map.
fn minimal() -> RecordData {
    let one = |v| BTreeMap::from([(String::new(), v)]);
    RecordData {
        counters: one(0),
        gauges: one(0),
        histograms: BTreeMap::from([(String::new(), HistStat::default())]),
        ..RecordData::default()
    }
}

/// An in-memory medium, so the scan can be fed arbitrary bytes.
struct Mem(Vec<u8>);

impl Medium for Mem {
    fn len(&mut self) -> Result<u64, LedgerError> {
        Ok(self.0.len() as u64)
    }
    fn read_at(&mut self, off: u64, buf: &mut [u8]) -> Result<(), LedgerError> {
        let src = self.0.get(off as usize..off as usize + buf.len());
        buf.copy_from_slice(src.ok_or(LedgerError::Corrupt("read past end"))?);
        Ok(())
    }
    fn append(&mut self, data: &[u8]) -> Result<(), LedgerError> {
        self.0.extend_from_slice(data);
        Ok(())
    }
    fn truncate(&mut self, len: u64) -> Result<(), LedgerError> {
        self.0.truncate(len as usize);
        Ok(())
    }
}

/// `bytes` as a payload and as a ledger tail: neither decode nor scan
/// may panic, the scan keeps exactly the bytes it accepts, and a
/// correctly framed payload is recovered exactly when it decodes.
fn check_total(bytes: &[u8]) {
    let stream = [&MAGIC[..], bytes].concat();
    let ledger = Ledger::open(Mem(stream.clone())).unwrap();
    let kept = stream.len() as u64 - ledger.scan_report().torn_tail_bytes;
    assert_eq!(ledger.valid_len(), kept);
    assert_eq!(ledger.into_medium().0, stream[..kept as usize]);

    let mut framed = MAGIC.to_vec();
    framed.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    framed.extend_from_slice(&1u64.to_le_bytes());
    framed.extend_from_slice(&fnv1a64(bytes).to_le_bytes());
    framed.extend_from_slice(bytes);
    let ledger = Ledger::open(Mem(framed)).unwrap();
    let decodes = !bytes.is_empty() && RecordData::decode(bytes).is_ok();
    assert_eq!(ledger.records().len(), usize::from(decodes));
}

/// A valid encoding round-trips; every strict prefix of it, the same
/// bytes followed by one more, and the same bytes under a newer schema
/// version fail with a typed error; a flipped bit never panics the
/// decoder.
fn check_encoding(value: &RecordData, flip: usize, bump: u64) {
    let bytes = value.encode();
    assert_eq!(&RecordData::decode(&bytes).unwrap(), value);
    for cut in 0..bytes.len() {
        assert!(
            RecordData::decode(&bytes[..cut]).is_err(),
            "{cut}-byte prefix"
        );
    }
    match RecordData::decode(&[&bytes[..], &[0]].concat()) {
        Err(LedgerError::Corrupt("trailing bytes after payload")) => {}
        other => panic!("one trailing byte: expected Corrupt, got {other:?}"),
    }
    let mut flipped = bytes.clone();
    flipped[flip / 8 % bytes.len()] ^= 1 << (flip % 8);
    if let Ok(v) = RecordData::decode(&flipped) {
        assert_eq!(RecordData::decode(&v.encode()).unwrap(), v);
    }
    let mut cur = Cursor::new(&bytes);
    let newer = cur.varint().unwrap().saturating_add(bump.max(1));
    let mut out = Vec::new();
    put_varint(&mut out, newer);
    out.extend_from_slice(&bytes[cur.pos..]);
    match RecordData::decode(&out) {
        Err(LedgerError::BadVersion(v)) => assert_eq!(v, newer),
        other => panic!("schema {newer}: expected BadVersion, got {other:?}"),
    }
}

/// `u64::MAX` in each field of the minimal encoding either decodes
/// faithfully (a value field) or is `Corrupt`, never a panic.
#[test]
fn oversized_lengths_and_counts_are_corrupt() {
    let bytes = minimal().encode();
    assert!(bytes.iter().all(|&b| b < 0x80), "one byte per field");
    let mut corrupt = 0;
    for at in 1..bytes.len() {
        let mut out = bytes[..at].to_vec();
        put_varint(&mut out, u64::MAX);
        out.extend_from_slice(&bytes[at + 1..]);
        match RecordData::decode(&out) {
            Ok(v) => assert_eq!(v.encode(), out, "field at byte {at}"),
            Err(LedgerError::Corrupt(_)) => corrupt += 1,
            Err(e) => panic!("field at byte {at}: expected Corrupt, got {e}"),
        }
    }
    assert_eq!(corrupt, BOUNDED_FIELDS);
}

/// Numbers, strings (with shared prefixes and a two-byte character, so
/// front-coding meets UTF-8 boundaries) and metric maps: the raw
/// material [`record`] builds payloads from.
type Parts = (Vec<u64>, Vec<String>, Vec<BTreeMap<String, u64>>);

fn arb_parts() -> impl Strategy<Value = Parts> {
    let num = || prop_oneof![Just(0u64), 0u64..300, any::<u64>()];
    let name = || {
        prop::collection::vec(0usize..6, 0..10).prop_map(|ix| {
            ix.iter()
                .map(|&i| ['s', 'i', 'm', '.', '_', 'é'][i])
                .collect()
        })
    };
    let map = prop::collection::vec((name(), num()), 0..6).prop_map(|v| v.into_iter().collect());
    (
        prop::collection::vec(num(), 8..9),
        prop::collection::vec(name(), 4..5),
        prop::collection::vec(map, 3..4),
    )
}

fn record((n, s, m): Parts) -> RecordData {
    let hist = |&count: &u64| HistStat {
        count,
        sum: n[3],
        max: n[4],
        p50: n[5],
        p90: n[6],
        p99: n[7],
    };
    RecordData {
        timestamp_unix_secs: n[0],
        elapsed_micros: n[1],
        command: s[0].clone(),
        scale: s[1].clone(),
        git_revision: s[2].clone(),
        counters: m[0].clone(),
        gauges: m[1].clone(),
        histograms: m[2].iter().map(|(k, v)| (k.clone(), hist(v))).collect(),
        extra: s[3].clone().into_bytes(),
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        // Also behind a current schema version, so decoding gets past
        // its first field.
        for b in [bytes.clone(), [&[1u8][..], &bytes].concat()] {
            check_total(&b);
        }
    }

    #[test]
    fn valid_encodings_roundtrip_and_reject_prefixes_and_newer_schemas(
        parts in arb_parts(),
        flip in any::<usize>(),
        bump in prop_oneof![1u64..4, any::<u64>()],
    ) {
        check_encoding(&record(parts), flip, bump);
    }
}

/// The encoding, byte for byte as written before the payload's maps
/// shared one metric-map codec: existing ledger files still decode.
#[test]
fn golden_bytes_pin_the_ledger_format() {
    let rec = RecordData {
        timestamp_unix_secs: 1_700_000_000,
        elapsed_micros: 1_234_567,
        command: "fig9a".into(),
        scale: "quick".into(),
        git_revision: "cafef00d".into(),
        counters: BTreeMap::from([
            ("sim.result.polb_hits".to_string(), 9000),
            ("sim.result.polb_misses".to_string(), 300),
        ]),
        gauges: BTreeMap::from([("core.polb.entries".to_string(), 32)]),
        histograms: BTreeMap::from([(
            "span.pot_walk.nanos".to_string(),
            HistStat {
                count: 10,
                sum: 1000,
                max: 400,
                p50: 90,
                p90: 300,
                p99: 400,
            },
        )]),
        extra: b"{}".to_vec(),
    };
    let golden = concat!(
        "0180e2cfaa0687ad4b05666967396105717569636b0863616665663030640200",
        "1473696d2e726573756c742e706f6c625f68697473a84610066d6973736573ac",
        "02010011636f72652e706f6c622e656e7472696573200100137370616e2e706f",
        "745f77616c6b2e6e616e6f730ae80790035aac029003027b7d",
    );
    let bytes = rec.encode();
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, golden);
    assert_eq!(RecordData::decode(&bytes).unwrap(), rec);
}
