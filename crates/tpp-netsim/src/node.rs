//! Host applications — the "smartness at the edge" of the paper's design
//! principle ("Any complexity in implementing a network task is pushed to
//! fully programmable end-hosts", §3).
//!
//! A [`HostApp`] is the programmable end-host: it reacts to start-of-run,
//! incoming frames, and timers, and emits frames / timer requests through
//! its [`HostCtx`]. Everything an app does is mediated by the context, so
//! apps stay pure state machines and the simulator stays deterministic.

use std::any::Any;

use tpp_wire::ethernet::{EtherType, Frame, ETHERNET_HEADER_LEN};

/// Identifier of a host in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub usize);

/// Identifier of a switch in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(pub usize);

/// Blanket upcast to `Any`, so experiments can downcast their apps back
/// out of the simulator to read results.
pub trait AsAny {
    /// Upcast to `&dyn Any`.
    fn as_any(&self) -> &dyn Any;
    /// Upcast to `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An end-host application.
///
/// All methods have empty defaults, so simple apps implement only what
/// they need. Apps must be `'static` (owned state only) so they can be
/// recovered by downcast via [`crate::Simulator::host_app`], and `Send`
/// because the sharded simulator steps hosts from worker threads.
pub trait HostApp: AsAny + Send + 'static {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        let _ = ctx;
    }

    /// Called when a frame is delivered to this host. `frame` is the
    /// frame's head, the bytes its sender wrote: a frame sent with
    /// [`HostCtx::send_with_tail`] arrives without its tail of zeros
    /// (every other frame arrives whole).
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        let _ = (frame, ctx);
    }

    /// Called when a timer set via [`HostCtx::set_timer`] fires.
    fn on_timer(&mut self, token: u64, ctx: &mut HostCtx<'_>) {
        let _ = (token, ctx);
    }
}

/// Actions an app can request; collected by the context and applied by
/// the simulator after the callback returns.
#[derive(Debug)]
pub(crate) enum HostAction {
    Send {
        port: u16,
        frame: Vec<u8>,
        tail: u32,
    },
    Timer {
        delay_ns: u64,
        token: u64,
    },
}

/// The app's window onto the simulation during a callback.
#[derive(Debug)]
pub struct HostCtx<'a> {
    pub(crate) now_ns: u64,
    pub(crate) host: HostId,
    pub(crate) mac: tpp_wire::EthernetAddress,
    pub(crate) rx_port: u16,
    pub(crate) ports: u16,
    pub(crate) actions: &'a mut Vec<HostAction>,
    pub(crate) pool: &'a mut crate::pool::FramePool,
}

impl HostCtx<'_> {
    /// Current simulation time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.now_ns
    }

    /// This host's id.
    pub fn host_id(&self) -> HostId {
        self.host
    }

    /// This host's MAC address (what peers address frames to).
    pub fn mac(&self) -> tpp_wire::EthernetAddress {
        self.mac
    }

    /// Transmit a whole frame out of the host's first NIC (port 0).
    /// Frames queue at the NIC and serialize at its configured rate, in
    /// order. Multi-homed hosts pick a NIC with [`send_on`](Self::send_on).
    pub fn send(&mut self, frame: Vec<u8>) {
        self.send_with_tail(0, frame, 0);
    }

    /// Transmit a whole frame out of a specific NIC of a multi-homed
    /// host. Each NIC has its own queue and serializes independently, so
    /// backlog on one port never blocks another.
    pub fn send_on(&mut self, port: u16, frame: Vec<u8>) {
        self.send_with_tail(port, frame, 0);
    }

    /// Transmit `head` followed by `tail` zero bytes out of NIC `port`,
    /// without building the zeros: the frame travels as its head and a
    /// count. The wire, the switches and the taps count
    /// `head.len() + tail` bytes exactly as for the whole frame; the
    /// receiving app gets the head alone ([`HostApp::on_frame`]). Meant
    /// for bulk payloads nobody reads. A head that does not hold every
    /// byte a layer parses — a whole Ethernet header and the flow-label
    /// window, with an EtherType other than TPP or IPv4, whose parsers
    /// check lengths — is zero-filled here and sent whole.
    pub fn send_with_tail(&mut self, port: u16, mut head: Vec<u8>, mut tail: u32) {
        assert!(
            port < self.ports,
            "host {:?} has {} NIC(s), no port {}",
            self.host,
            self.ports,
            port
        );
        if tail > 0 && !tail_is_opaque(&head) {
            head.resize(head.len() + tail as usize, 0);
            tail = 0;
        }
        self.actions.push(HostAction::Send {
            port,
            frame: head,
            tail,
        });
    }

    /// The NIC the frame being delivered arrived on (0 outside
    /// [`HostApp::on_frame`]). Echo-style apps reply on this port so the
    /// response retraces the arrival path.
    pub fn rx_port(&self) -> u16 {
        self.rx_port
    }

    /// How many NICs this host has (1 unless it was added with
    /// [`crate::NetworkBuilder::add_host_multi`]).
    pub fn ports(&self) -> u16 {
        self.ports
    }

    /// An empty buffer with at least `capacity` bytes reserved, drawn
    /// from the simulator's frame pool. Senders that build frames into
    /// this buffer reuse the capacity of frames the network (or another
    /// app) already consumed instead of hitting the allocator per
    /// packet. Ask for the bytes you will write (a tailed frame's head
    /// only): the pool serves small and full-size requests from
    /// separate lists.
    pub fn alloc_frame(&mut self, capacity: usize) -> Vec<u8> {
        self.pool.alloc(capacity)
    }

    /// Return a consumed frame's capacity to the simulator's frame pool.
    /// Delivered frames are owned by the receiving app: one that does
    /// not send the buffer back out (an echo) hands it back here when it
    /// is done, so the next [`alloc_frame`](Self::alloc_frame) anywhere
    /// on this shard reuses the allocation.
    pub fn recycle_frame(&mut self, frame: Vec<u8>) {
        self.pool.recycle(frame);
    }

    /// Arrange for [`HostApp::on_timer`] to fire `delay_ns` from now with
    /// `token`.
    pub fn set_timer(&mut self, delay_ns: u64, token: u64) {
        self.actions.push(HostAction::Timer { delay_ns, token });
    }
}

/// Whether no layer reads past `head`: it holds a whole Ethernet header
/// and the ECMP flow-label window, and its EtherType is neither TPP nor
/// IPv4 (the payloads switches and taps parse).
fn tail_is_opaque(head: &[u8]) -> bool {
    let label_end = crate::routing::FLOW_LABEL_OFFSET + 8;
    if head.len() < ETHERNET_HEADER_LEN + label_end {
        return false;
    }
    let ethertype = Frame::new_unchecked(head).ethertype();
    ethertype != EtherType::TPP && ethertype != EtherType::IPV4
}
