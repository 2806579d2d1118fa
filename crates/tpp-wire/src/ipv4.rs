//! IPv4 header view, for the background/data traffic the L3 LPM path of
//! the Fig. 3 pipeline routes (TPPs themselves ride plain Ethernet; "TPPs
//! are forwarded just like other packets", so the pipeline must forward
//! ordinary IP traffic too).
//!
//! Same zero-copy idiom as the other formats; the checksum is real
//! (RFC 1071 one's-complement) so fuzzed/corrupted headers are rejected
//! the way a switch would reject them.

use crate::{get_u16, put_u16, Result, WireError};

/// Minimum IPv4 header length (no options), bytes.
pub const IPV4_MIN_HEADER_LEN: usize = 20;

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Address(pub u32);

impl Ipv4Address {
    /// Build from dotted-quad octets.
    pub fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Address(u32::from_be_bytes([a, b, c, d]))
    }
}

impl core::fmt::Display for Ipv4Address {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

/// Zero-copy view of an IPv4 packet (header + payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wrap without validation (accessors may panic on short buffers).
    pub fn new_unchecked(buffer: T) -> Ipv4Packet<T> {
        Ipv4Packet { buffer }
    }

    /// Wrap and validate: version, IHL, total length, and header
    /// checksum must all be consistent.
    pub fn new_checked(buffer: T) -> Result<Ipv4Packet<T>> {
        let len = buffer.as_ref().len();
        if len < IPV4_MIN_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: IPV4_MIN_HEADER_LEN,
                got: len,
            });
        }
        let packet = Ipv4Packet { buffer };
        if packet.version() != 4 {
            return Err(WireError::Malformed("IPv4 version field is not 4"));
        }
        let header_len = packet.header_len();
        if !(IPV4_MIN_HEADER_LEN..=60).contains(&header_len) || header_len > len {
            return Err(WireError::Malformed("IPv4 IHL out of range"));
        }
        if packet.total_len() < header_len || packet.total_len() > len {
            return Err(WireError::Malformed("IPv4 total length inconsistent"));
        }
        // A valid header's one's-complement sum (including the checksum
        // field) folds to 0xffff.
        if packet.compute_checksum() != 0xffff {
            return Err(WireError::Malformed("IPv4 header checksum mismatch"));
        }
        Ok(packet)
    }

    /// IP version (must be 4).
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[0] >> 4
    }

    /// Header length in bytes (IHL × 4).
    pub(crate) fn header_len(&self) -> usize {
        ((self.buffer.as_ref()[0] & 0x0f) as usize) * 4
    }

    /// Total packet length (header + payload), from the header field.
    pub(crate) fn total_len(&self) -> usize {
        get_u16(self.buffer.as_ref(), 2) as usize
    }

    /// Time to live.
    #[cfg(test)]
    fn ttl(&self) -> u8 {
        self.buffer.as_ref()[8]
    }

    /// Transport protocol number (17 = UDP, 6 = TCP, …).
    pub fn protocol(&self) -> u8 {
        self.buffer.as_ref()[9]
    }

    /// Header checksum field.
    pub fn checksum(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 10)
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv4Address {
        Ipv4Address(crate::get_u32(self.buffer.as_ref(), 12))
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv4Address {
        Ipv4Address(crate::get_u32(self.buffer.as_ref(), 16))
    }

    /// The transport payload.
    pub fn payload(&self) -> &[u8] {
        let buf = self.buffer.as_ref();
        &buf[self.header_len()..self.total_len().min(buf.len())]
    }

    /// RFC 1071 one's-complement sum over the header (including the
    /// checksum field; a valid header sums to 0xffff).
    fn compute_checksum(&self) -> u16 {
        let header = &self.buffer.as_ref()[..self.header_len()];
        checksum(header)
    }
}

/// RFC 1071 checksum over a byte slice.
fn checksum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u16::from_be_bytes([chunk[0], chunk[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// Build a minimal (option-less) IPv4 packet around a payload.
pub fn build_ipv4(
    src: Ipv4Address,
    dst: Ipv4Address,
    protocol: u8,
    ttl: u8,
    payload: &[u8],
) -> Vec<u8> {
    let total = IPV4_MIN_HEADER_LEN + payload.len();
    assert!(total <= u16::MAX as usize, "IPv4 packet too large");
    let mut buf = vec![0u8; total];
    buf[0] = 0x45; // version 4, IHL 5
    put_u16(&mut buf, 2, total as u16);
    buf[8] = ttl;
    buf[9] = protocol;
    crate::put_u32(&mut buf, 12, src.0);
    crate::put_u32(&mut buf, 16, dst.0);
    let sum = checksum(&buf[..IPV4_MIN_HEADER_LEN]);
    put_u16(&mut buf, 10, !sum);
    buf[IPV4_MIN_HEADER_LEN..].copy_from_slice(payload);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        build_ipv4(
            Ipv4Address::new(10, 0, 0, 1),
            Ipv4Address::new(10, 1, 2, 3),
            17,
            64,
            b"payload",
        )
    }

    #[test]
    fn roundtrip_fields() {
        let buf = sample();
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.version(), 4);
        assert_eq!(p.header_len(), 20);
        assert_eq!(p.total_len(), 27);
        assert_eq!(p.ttl(), 64);
        assert_eq!(p.protocol(), 17);
        assert_eq!(p.src_addr(), Ipv4Address::new(10, 0, 0, 1));
        assert_eq!(p.dst_addr(), Ipv4Address::new(10, 1, 2, 3));
        assert_eq!(p.payload(), b"payload");
        assert_eq!(p.dst_addr().to_string(), "10.1.2.3");
    }

    #[test]
    fn checksum_validates_and_rejects_corruption() {
        let mut buf = sample();
        assert!(Ipv4Packet::new_checked(&buf[..]).is_ok());
        buf[16] ^= 0x01; // corrupt the destination
        assert!(matches!(
            Ipv4Packet::new_checked(&buf[..]),
            Err(WireError::Malformed("IPv4 header checksum mismatch"))
        ));
    }

    #[test]
    fn rejects_bad_version_and_lengths() {
        let mut buf = sample();
        buf[0] = 0x65; // version 6
                       // (checksum is now also wrong, but version is checked first)
        assert!(matches!(
            Ipv4Packet::new_checked(&buf[..]),
            Err(WireError::Malformed("IPv4 version field is not 4"))
        ));
        let buf = [0u8; 10];
        assert!(matches!(
            Ipv4Packet::new_checked(&buf[..]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn odd_length_checksum() {
        // Checksum helper handles odd-length input (used only via even
        // headers here, but the helper is general).
        assert_eq!(checksum(&[]), 0);
        assert_eq!(checksum(&[0xff]), 0xff00);
    }
}
