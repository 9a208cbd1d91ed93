//! Compact varint event encoding — the in-flight form carried by the
//! wait-free rings and the binary on-disk trace form.
//!
//! One record is `kind byte · epoch varint · fields`, where integers
//! are LEB128 varints, floats are 8 raw little-endian bytes
//! (`f64::to_bits`), strings and lists are length-prefixed. A typical
//! occupancy gauge encodes in ~12 bytes against ~90 bytes of JSONL;
//! the ring carries these bytes, and [`read_framed`]/[`append_framed`]
//! put the same records on disk with a varint length frame per record.

use crate::schema::Codec;
use crate::Event;
use hetmem_topology::NodeId;

/// A malformed compact record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(String);

impl CodecError {
    pub(crate) fn new(msg: impl Into<String>) -> CodecError {
        CodecError(msg.into())
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "compact codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Appends `v` as a LEB128 varint.
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` as 8 raw little-endian bytes (`f64::to_bits`).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends `s` length-prefixed (varint byte count, then UTF-8 bytes).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends `b` as one byte (0 or 1).
pub fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(b as u8);
}

/// Appends a `(node, bytes)` placement list, length-prefixed.
pub fn put_placement(out: &mut Vec<u8>, placement: &[(NodeId, u64)]) {
    put_u64(out, placement.len() as u64);
    placement.iter().for_each(|entry| entry.put(out));
}

/// A bounds-checked reader over a compact-encoded byte slice: every
/// read returns a typed [`CodecError`] instead of panicking on
/// truncated or malformed input. The snapshot codec
/// (`hetmem-snapshot`) builds its file format on the same primitives.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    /// The current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consumes exactly `len` raw bytes.
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| CodecError::new("truncated byte run"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Decodes one LEB128 varint.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte =
                *self.bytes.get(self.pos).ok_or_else(|| CodecError::new("truncated varint"))?;
            self.pos += 1;
            if shift == 63 && byte > 1 {
                return Err(CodecError::new("varint overflows u64"));
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Decodes a varint that must fit in a `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        u32::try_from(self.u64()?).map_err(|_| CodecError::new("value overflows u32"))
    }

    /// Decodes 8 raw little-endian bytes as an `f64`.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        let raw = self.take(8).map_err(|_| CodecError::new("truncated f64"))?;
        Ok(f64::from_bits(u64::from_le_bytes(raw.try_into().expect("8 bytes"))))
    }

    /// Decodes one 0/1 byte; anything else is an error.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        let byte = self.take(1).map_err(|_| CodecError::new("truncated bool"))?[0];
        match byte {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::new(format!("bad bool byte {other}"))),
        }
    }

    /// Decodes a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.u64()? as usize;
        let bytes = self.take(len).map_err(|_| CodecError::new("truncated string"))?;
        let s = std::str::from_utf8(bytes).map_err(|_| CodecError::new("string is not UTF-8"))?;
        Ok(s.to_string())
    }

    /// Decodes a node id (varint, `u32` range).
    pub fn node(&mut self) -> Result<NodeId, CodecError> {
        Ok(NodeId(self.u32()?))
    }

    /// Decodes a length-prefixed `(node, bytes)` placement list.
    pub fn placement(&mut self) -> Result<Vec<(NodeId, u64)>, CodecError> {
        Codec::get(self)
    }

    /// Succeeds only when every byte has been consumed.
    pub fn done(&self) -> Result<(), CodecError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(CodecError::new("trailing bytes after record"))
        }
    }
}

/// Encodes `(epoch, event)` as one compact record appended to `out`.
pub fn encode_record(epoch: u64, event: &Event, out: &mut Vec<u8>) {
    out.push(event.kind_byte());
    put_u64(out, epoch);
    event.put_fields(out);
}

/// Decodes one compact record produced by [`encode_record`].
pub fn decode_record(bytes: &[u8]) -> Result<(u64, Event), CodecError> {
    let mut c = Cursor { bytes, pos: 0 };
    let kind = c.u64()?;
    let epoch = c.u64()?;
    let event = Event::get_fields(kind, &mut c)?;
    c.done()?;
    Ok((epoch, event))
}

/// Appends one record to a binary trace buffer, framed with a varint
/// byte length — the on-disk compact log format.
pub fn append_framed(buf: &mut Vec<u8>, epoch: u64, event: &Event) {
    let mut record = Vec::new();
    encode_record(epoch, event, &mut record);
    put_u64(buf, record.len() as u64);
    buf.extend_from_slice(&record);
}

/// Parses a whole binary trace written with [`append_framed`].
pub fn read_framed(bytes: &[u8]) -> Result<Vec<(u64, Event)>, CodecError> {
    let mut c = Cursor { bytes, pos: 0 };
    let mut out = Vec::new();
    while c.pos < bytes.len() {
        let len = c.u64()? as usize;
        let end = c
            .pos
            .checked_add(len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| CodecError::new("truncated framed record"))?;
        out.push(decode_record(&bytes[c.pos..end])?);
        c.pos = end;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AttrFallback, BatchCoalesced, BudgetExhausted, DigestMerged, FreeEvent, HotPromoted,
        LeaseRevoked, OccupancyGauge, SampleRateChanged, ShardSteal, SpillForwarded, TierDegraded,
    };

    #[test]
    fn varint_boundaries_roundtrip() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            let mut c = Cursor { bytes: &buf, pos: 0 };
            assert_eq!(c.u64().expect("decode"), v);
            c.done().expect("consumed");
        }
    }

    #[test]
    fn compact_is_much_smaller_than_jsonl() {
        let event = Event::OccupancyGauge(OccupancyGauge {
            node: NodeId(2),
            used: 5 << 30,
            high_water: 9 << 30,
            total: 768 << 30,
        });
        let mut buf = Vec::new();
        encode_record(7, &event, &mut buf);
        assert!(
            buf.len() * 3 < event.to_json().len(),
            "compact {}B vs jsonl {}B",
            buf.len(),
            event.to_json().len()
        );
        assert_eq!(decode_record(&buf).expect("roundtrip"), (7, event));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let event = Event::LeaseRevoked(LeaseRevoked {
            broker: 1,
            tenant: "graph500".into(),
            lease: 11,
            reason: "disconnect".into(),
        });
        let mut buf = Vec::new();
        encode_record(3, &event, &mut buf);
        for cut in 0..buf.len() {
            assert!(decode_record(&buf[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn framed_log_roundtrips() {
        let events = vec![
            (0, Event::AttrFallback(AttrFallback { requested: 4, used: 2 })),
            (
                5,
                Event::TierDegraded(TierDegraded { broker: 0, kind: "hbm".into(), degraded: true }),
            ),
            (9, Event::Free(FreeEvent { region: 1, placement: vec![(NodeId(4), 64)] })),
            (
                11,
                Event::SpillForwarded(SpillForwarded {
                    broker: 1,
                    origin: 0,
                    tenant: "graph500".into(),
                    size: 2 << 30,
                    fast_bytes: 1 << 30,
                    cost_ns: 84_000.5,
                }),
            ),
            (11, Event::DigestMerged(DigestMerged { broker: 0, peer: 1, epoch: 9, applied: true })),
            (
                12,
                Event::BatchCoalesced(BatchCoalesced {
                    broker: 0,
                    shard: 1,
                    tenant: "stream".into(),
                    merged: 3,
                    bytes: 3 << 20,
                }),
            ),
            (13, Event::ShardSteal(ShardSteal { broker: 0, thief: 2, victim: 0, stolen: 5 })),
            (
                14,
                Event::SampleRateChanged(SampleRateChanged {
                    broker: 0,
                    tenant: "interactive".into(),
                    old_period: 262_144,
                    new_period: 4096,
                }),
            ),
            (
                14,
                Event::HotPromoted(HotPromoted {
                    broker: 1,
                    tenant: "interactive".into(),
                    region: 3,
                    to: NodeId(4),
                    bytes: 1 << 30,
                    cost_ns: 52_000.5,
                }),
            ),
            (
                15,
                Event::BudgetExhausted(BudgetExhausted {
                    broker: 0,
                    epoch: 15,
                    spent_ns: 99_000.0,
                    budget_ns: 100_000.0,
                    deferred: 2,
                }),
            ),
        ];
        let mut buf = Vec::new();
        for (epoch, event) in &events {
            append_framed(&mut buf, *epoch, event);
        }
        assert_eq!(read_framed(&buf).expect("parse"), events);
        assert!(read_framed(&buf[..buf.len() - 1]).is_err());
    }
}
