//! Wire format of memory-semantic fabric packets.
//!
//! DeACT extends the request packet with a verification (`V`) flag so
//! the STU can tell pre-translated requests (verify-only) from
//! untranslated ones (walk-needed) — §III-C, "Handling Translation
//! Misses". Giving the packet a real wire encoding pins down that the
//! flag costs one bit, and lets tests assert the STU dispatches on it.
//!
//! Every frame carries a CRC-16 trailer so in-flight corruption is
//! *detected*, not assumed away: a corrupted request decodes to
//! [`DecodePacketError::ChecksumMismatch`] and the FAM side answers
//! with a NACK, driving the node-side retry machinery. Responses are
//! modelled as timing (a [`RESPONSE_BYTES`] frame on the return link)
//! and counters, not as encoded frames.

use fam_vm::NodeId;

/// What a fabric packet asks the FAM side to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A data read of one 64-byte block.
    Read,
    /// A data write of one 64-byte block.
    Write,
}

impl PacketKind {
    fn code(self) -> u8 {
        match self {
            PacketKind::Read => 0,
            PacketKind::Write => 1,
        }
    }

    fn from_code(c: u8) -> Option<PacketKind> {
        Some(match c {
            0 => PacketKind::Read,
            1 => PacketKind::Write,
            _ => return None,
        })
    }
}

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF), computed bitwise.
/// Any burst error of 16 bits or fewer — in particular any single
/// corrupted byte — is guaranteed to change the checksum.
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn get_u16(wire: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([wire[at], wire[at + 1]])
}

fn get_u64(wire: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&wire[at..at + 8]);
    u64::from_be_bytes(b)
}

/// Appends the CRC trailer over everything already in `buf`.
fn seal(buf: &mut Vec<u8>) {
    let crc = crc16(buf);
    put_u16(buf, crc);
}

/// Verifies the CRC trailer of `wire` (last two bytes).
fn check_crc(wire: &[u8]) -> Result<(), DecodePacketError> {
    let body = wire.len() - 2;
    let expected = crc16(&wire[..body]);
    let found = get_u16(wire, body);
    if expected != found {
        return Err(DecodePacketError::ChecksumMismatch { expected, found });
    }
    Ok(())
}

/// A memory-semantic request packet as it crosses the fabric.
///
/// `verified` is DeACT's `V` flag: set by the FAM translator when
/// `addr` is already a FAM address that only needs access-control
/// verification; clear when `addr` is a node address the STU must
/// translate.
///
/// # Examples
///
/// ```
/// use fam_fabric::packet::{Packet, PacketKind};
/// use fam_vm::NodeId;
///
/// let p = Packet {
///     kind: PacketKind::Read,
///     source: NodeId::new(3),
///     addr: 0xABCD,
///     verified: true,
///     tag: 17,
/// };
/// let decoded = Packet::decode(&p.encode()).unwrap();
/// assert_eq!(decoded, p);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Operation requested.
    pub kind: PacketKind,
    /// Requesting node (used by the STU for access control).
    pub source: NodeId,
    /// Target address: a FAM address when `verified`, otherwise a node
    /// physical address.
    pub addr: u64,
    /// DeACT's `V` flag.
    pub verified: bool,
    /// Request tag matching responses to the outstanding-mapping list.
    pub tag: u16,
}

/// Errors decoding a wire packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodePacketError {
    /// The buffer is shorter than a packet header.
    Truncated,
    /// The kind byte is not a known packet kind.
    UnknownKind(u8),
    /// The node-id field holds the reserved shared marker or worse.
    BadNodeId(u16),
    /// The CRC trailer does not match the frame contents.
    ChecksumMismatch {
        /// CRC recomputed over the received body.
        expected: u16,
        /// CRC carried in the trailer.
        found: u16,
    },
}

impl std::fmt::Display for DecodePacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodePacketError::Truncated => write!(f, "packet truncated"),
            DecodePacketError::UnknownKind(c) => write!(f, "unknown packet kind {c}"),
            DecodePacketError::BadNodeId(n) => write!(f, "invalid node id {n}"),
            DecodePacketError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "checksum mismatch: computed {expected:#06x}, wire carries {found:#06x}"
                )
            }
        }
    }
}

impl std::error::Error for DecodePacketError {}

/// Encoded packet size in bytes: kind(1) + flags(1) + node(2) + tag(2)
/// + addr(8) + crc(2).
pub const PACKET_BYTES: usize = 16;

impl Packet {
    /// Serializes the packet to its wire form, CRC trailer included.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(PACKET_BYTES);
        self.encode_into(&mut buf);
        buf
    }

    /// Serializes into a caller-owned buffer (cleared first), so hot
    /// paths that encode one frame per simulated fault can reuse a
    /// single allocation instead of building a fresh `Vec` each time.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        buf.reserve(PACKET_BYTES);
        buf.push(self.kind.code());
        buf.push(self.verified as u8);
        put_u16(buf, self.source.raw());
        put_u16(buf, self.tag);
        put_u64(buf, self.addr);
        seal(buf);
    }

    /// Parses a packet from its wire form, verifying the CRC trailer
    /// first — a flipped bit anywhere in the frame is rejected before
    /// any field is interpreted.
    ///
    /// # Errors
    ///
    /// Returns [`DecodePacketError`] if the buffer is truncated, fails
    /// its checksum, or any field is out of range.
    pub fn decode(wire: &[u8]) -> Result<Packet, DecodePacketError> {
        if wire.len() < PACKET_BYTES {
            return Err(DecodePacketError::Truncated);
        }
        check_crc(&wire[..PACKET_BYTES])?;
        let kind_code = wire[0];
        let kind =
            PacketKind::from_code(kind_code).ok_or(DecodePacketError::UnknownKind(kind_code))?;
        let verified = wire[1] != 0;
        let raw_node = get_u16(wire, 2);
        if raw_node >= NodeId::SHARED_MARKER {
            return Err(DecodePacketError::BadNodeId(raw_node));
        }
        let source = NodeId::new(raw_node);
        let tag = get_u16(wire, 4);
        let addr = get_u64(wire, 6);
        Ok(Packet {
            kind,
            source,
            addr,
            verified,
            tag,
        })
    }
}

/// Size in bytes of a response frame on the return link: status(1) +
/// nack(1) + tag(2) + addr(8) + crc(2). Responses are charged by size
/// only; the simulation never encodes one.
pub const RESPONSE_BYTES: usize = 14;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: PacketKind, verified: bool) -> Packet {
        Packet {
            kind,
            source: NodeId::new(5),
            addr: 0xDEAD_BEEF_0000,
            verified,
            tag: 42,
        }
    }

    #[test]
    fn roundtrip_all_kinds() {
        for kind in [PacketKind::Read, PacketKind::Write] {
            for verified in [false, true] {
                let p = sample(kind, verified);
                assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
            }
        }
    }

    #[test]
    fn encoded_size_is_fixed() {
        assert_eq!(sample(PacketKind::Read, true).encode().len(), PACKET_BYTES);
    }

    #[test]
    fn encode_into_reuses_buffer_and_matches_encode() {
        let mut buf = Vec::new();
        for tag in 0..4u16 {
            let mut p = sample(PacketKind::Write, false);
            p.tag = tag;
            p.encode_into(&mut buf);
            assert_eq!(buf, p.encode(), "tag {tag}");
        }
    }

    #[test]
    fn truncated_buffer_rejected() {
        let wire = sample(PacketKind::Read, true).encode();
        assert_eq!(
            Packet::decode(&wire[..PACKET_BYTES - 1]),
            Err(DecodePacketError::Truncated)
        );
    }

    /// Rewrites a field byte and re-seals the CRC, so decode errors
    /// past the checksum stage can be exercised.
    fn reseal(mut raw: Vec<u8>) -> Vec<u8> {
        let crc = crc16(&raw[..PACKET_BYTES - 2]);
        raw[PACKET_BYTES - 2..].copy_from_slice(&crc.to_be_bytes());
        raw
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut raw = sample(PacketKind::Read, true).encode();
        raw[0] = 0xFF;
        assert_eq!(
            Packet::decode(&reseal(raw)),
            Err(DecodePacketError::UnknownKind(0xFF))
        );
    }

    #[test]
    fn bad_node_id_rejected() {
        let mut raw = sample(PacketKind::Read, true).encode();
        raw[2] = 0x3F;
        raw[3] = 0xFF; // node id 0x3FFF = shared marker
        assert_eq!(
            Packet::decode(&reseal(raw)),
            Err(DecodePacketError::BadNodeId(0x3FFF))
        );
    }

    #[test]
    fn v_flag_has_a_wire_bit() {
        let set = sample(PacketKind::Read, true).encode();
        let clear = sample(PacketKind::Read, false).encode();
        assert_eq!(set[1], 1);
        assert_eq!(clear[1], 0);
    }

    #[test]
    fn every_single_byte_corruption_fails_the_checksum() {
        let wire = sample(PacketKind::Write, true).encode();
        for pos in 0..PACKET_BYTES {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = wire.clone();
                bad[pos] ^= flip;
                assert!(
                    matches!(
                        Packet::decode(&bad),
                        Err(DecodePacketError::ChecksumMismatch { .. })
                    ),
                    "byte {pos} xor {flip:#04x} slipped through"
                );
            }
        }
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!DecodePacketError::Truncated.to_string().is_empty());
        assert!(DecodePacketError::UnknownKind(9).to_string().contains('9'));
        let msg = DecodePacketError::ChecksumMismatch {
            expected: 1,
            found: 2,
        }
        .to_string();
        assert!(msg.contains("checksum"));
    }
}
