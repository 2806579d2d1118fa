//! Ethernet II frame representation.
//!
//! TPPs "are forwarded just like other packets" (§2), so every TPP rides in
//! an ordinary Ethernet frame. The simulator's switches parse this header in
//! their header-parser pipeline stage (Fig. 3) to decide forwarding, and look
//! at the [`EtherType`] to decide whether the TCPU should run.

use crate::{get_u16, put_u16, Result, WireError};

/// Length of an Ethernet II header: two 6-byte MAC addresses + 2-byte
/// EtherType. (No 802.1Q tags — the paper's prototype does not use them.)
pub const ETHERNET_HEADER_LEN: usize = 14;

/// A 48-bit Ethernet MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EthernetAddress(pub [u8; 6]);

impl EthernetAddress {
    /// The broadcast address, `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: EthernetAddress = EthernetAddress([0xff; 6]);

    /// Construct a deterministic host address from a small integer id.
    ///
    /// Hosts and switches in the simulator are numbered; this maps id `n`
    /// to the locally-administered unicast address `02:00:00:00:hi:lo`.
    pub fn from_host_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        EthernetAddress([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// The host id this address was minted from by [`Self::from_host_id`],
    /// or `None` for addresses outside the simulator's `02:00:…` host
    /// block (broadcast, switch-originated, or foreign MACs).
    pub fn host_id(&self) -> Option<u32> {
        let b = self.0;
        (b[0] == 0x02 && b[1] == 0x00).then(|| u32::from_be_bytes([b[2], b[3], b[4], b[5]]))
    }

    /// True if this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// True if the group (multicast) bit is set.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// True for a unicast (non-multicast, non-broadcast) address.
    pub fn is_unicast(&self) -> bool {
        !self.is_multicast()
    }
}

impl core::fmt::Display for EthernetAddress {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// A 16-bit EtherType.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EtherType(pub u16);

impl EtherType {
    /// IPv4 (used by non-TPP background traffic in examples).
    pub const IPV4: EtherType = EtherType(0x0800);
    /// The TPP EtherType — the "uniquely identifiable header" of §2.
    pub const TPP: EtherType = EtherType(crate::tpp::ETHERTYPE_TPP);
}

/// Zero-copy view of an Ethernet II frame over any byte buffer.
///
/// ```
/// use tpp_wire::ethernet::{Frame, EthernetAddress, EtherType};
///
/// let mut buf = vec![0u8; 64];
/// let mut frame = Frame::new_unchecked(&mut buf[..]);
/// frame.set_dst_addr(EthernetAddress::from_host_id(1));
/// frame.set_src_addr(EthernetAddress::from_host_id(2));
/// frame.set_ethertype(EtherType::TPP);
/// assert_eq!(frame.dst_addr(), EthernetAddress::from_host_id(1));
/// assert_eq!(frame.payload().len(), 50);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Frame<T> {
    /// Wrap a buffer without validating its length.
    ///
    /// Accessors will panic if the buffer is shorter than
    /// [`ETHERNET_HEADER_LEN`]; prefer [`Frame::new_checked`] for untrusted
    /// input.
    pub fn new_unchecked(buffer: T) -> Frame<T> {
        Frame { buffer }
    }

    /// Wrap a buffer, validating that a full Ethernet header is present.
    pub fn new_checked(buffer: T) -> Result<Frame<T>> {
        let got = buffer.as_ref().len();
        if got < ETHERNET_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: ETHERNET_HEADER_LEN,
                got,
            });
        }
        Ok(Frame { buffer })
    }

    /// Consume the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Destination MAC address.
    pub fn dst_addr(&self) -> EthernetAddress {
        let b = self.buffer.as_ref();
        EthernetAddress([b[0], b[1], b[2], b[3], b[4], b[5]])
    }

    /// Source MAC address.
    pub fn src_addr(&self) -> EthernetAddress {
        let b = self.buffer.as_ref();
        EthernetAddress([b[6], b[7], b[8], b[9], b[10], b[11]])
    }

    /// The frame's EtherType.
    pub fn ethertype(&self) -> EtherType {
        EtherType(get_u16(self.buffer.as_ref(), 12))
    }

    /// True if this frame carries a TPP (by EtherType).
    pub fn is_tpp(&self) -> bool {
        self.ethertype() == EtherType::TPP
    }

    /// The frame payload (everything after the 14-byte header).
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[ETHERNET_HEADER_LEN..]
    }

    /// Total frame length in bytes, including the Ethernet header.
    pub fn total_len(&self) -> usize {
        self.buffer.as_ref().len()
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Frame<T> {
    /// Set the destination MAC address.
    pub fn set_dst_addr(&mut self, addr: EthernetAddress) {
        self.buffer.as_mut()[0..6].copy_from_slice(&addr.0);
    }

    /// Set the source MAC address.
    pub fn set_src_addr(&mut self, addr: EthernetAddress) {
        self.buffer.as_mut()[6..12].copy_from_slice(&addr.0);
    }

    /// Set the EtherType.
    pub fn set_ethertype(&mut self, ethertype: EtherType) {
        put_u16(self.buffer.as_mut(), 12, ethertype.0);
    }

    /// Mutable access to the payload.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[ETHERNET_HEADER_LEN..]
    }
}

/// Append an Ethernet II header to `buf`. The caller appends the payload
/// behind it; writing into a buffer the caller owns (typically one from
/// the simulator's frame pool) is what keeps the send path off the
/// allocator.
pub fn write_header(
    buf: &mut Vec<u8>,
    dst: EthernetAddress,
    src: EthernetAddress,
    ethertype: EtherType,
) {
    buf.extend_from_slice(&dst.0);
    buf.extend_from_slice(&src.0);
    buf.extend_from_slice(&ethertype.0.to_be_bytes());
}

/// Build an owned Ethernet frame around a payload.
pub fn build_frame(
    dst: EthernetAddress,
    src: EthernetAddress,
    ethertype: EtherType,
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(ETHERNET_HEADER_LEN + payload.len());
    write_header(&mut buf, dst, src, ethertype);
    buf.extend_from_slice(payload);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_display_and_flags() {
        let a = EthernetAddress([0x02, 0x00, 0, 0, 0, 7]);
        assert_eq!(a.to_string(), "02:00:00:00:00:07");
        assert!(a.is_unicast());
        assert!(!a.is_broadcast());
        assert!(EthernetAddress::BROADCAST.is_broadcast());
        assert!(EthernetAddress::BROADCAST.is_multicast());
    }

    #[test]
    fn from_host_id_is_injective_for_small_ids() {
        let a = EthernetAddress::from_host_id(1);
        let b = EthernetAddress::from_host_id(2);
        assert_ne!(a, b);
        assert!(a.is_unicast());
    }

    #[test]
    fn checked_rejects_short_buffer() {
        let buf = [0u8; 13];
        match Frame::new_checked(&buf[..]) {
            Err(WireError::Truncated {
                needed: 14,
                got: 13,
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn roundtrip_fields() {
        let mut buf = [0u8; 20];
        let mut f = Frame::new_checked(&mut buf[..]).unwrap();
        f.set_dst_addr(EthernetAddress::BROADCAST);
        f.set_src_addr(EthernetAddress::from_host_id(42));
        f.set_ethertype(EtherType::TPP);
        f.payload_mut().copy_from_slice(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(f.dst_addr(), EthernetAddress::BROADCAST);
        assert_eq!(f.src_addr(), EthernetAddress::from_host_id(42));
        assert!(f.is_tpp());
        assert_eq!(f.payload(), &[1, 2, 3, 4, 5, 6]);
        assert_eq!(f.total_len(), 20);
    }

    #[test]
    fn build_frame_roundtrip() {
        let buf = build_frame(
            EthernetAddress::from_host_id(1),
            EthernetAddress::from_host_id(2),
            EtherType::IPV4,
            b"hello",
        );
        let f = Frame::new_checked(&buf[..]).unwrap();
        assert_eq!(f.ethertype(), EtherType::IPV4);
        assert!(!f.is_tpp());
        assert_eq!(f.payload(), b"hello");
    }
}
