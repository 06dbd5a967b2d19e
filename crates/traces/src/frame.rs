//! Contiguous raw-frame blocks — the zero-copy wire ingest substrate.
//!
//! A [`FrameBlock`] packs many Ethernet frames back to back in one
//! contiguous byte buffer, the way a capture card's block ring or a pcap
//! block read delivers them. Two producers fill blocks:
//!
//! * the pcap reader's block mode ([`crate::PcapReader::read_block`]),
//!   which copies each record body once, out of the reader's read window
//!   into the buffer, and
//! * the trace generators (via [`FrameBlock::push_packet`]), which emit
//!   the canonical 64-byte synthetic frame — the paper's OVS evaluation
//!   feeds 64-byte MoonGen frames, and fixing the stride gives the wire
//!   parser a branch-free fast path.
//!
//! Generator-emitted blocks are **clean by construction**: every frame is
//! valid Ethernet II / IPv4 at a fixed 64-byte stride, so a consumer may
//! skip per-frame validation entirely and load key fields lazily — only
//! the frames the RHHH sampling actually selects are ever touched. Blocks
//! filled from external bytes (pcap) never claim cleanliness and must go
//! through the validated parse plane (`hhh-vswitch`'s `wire` module).

use crate::generator::Packet;

/// Length of every generator-emitted synthetic frame (Ethernet header
/// included) — the paper's 64-byte MoonGen payload.
pub const GEN_FRAME_LEN: usize = 64;

/// Byte offset of the IPv4 source address within a frame (Ethernet 14 +
/// IPv4 offset 12). Source and destination sit at fixed offsets for every
/// legal IHL because they live in the fixed 20-byte IPv4 header prefix.
pub const SRC_OFFSET: usize = 26;

/// What a frame turned out to be, for skip accounting.
///
/// The accept case is exactly the set of frames
/// [`crate::pcap::parse_ipv4_frame`] parses; the two reject cases split
/// "wrong protocol family" from "capture cut the frame short".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameClass {
    /// Parseable IPv4-over-Ethernet.
    Ipv4,
    /// Complete enough to classify, but not IPv4 (ARP, IPv6, bad version
    /// nibble or malformed IHL).
    NonIpv4,
    /// Cut short by the capture: too short for Ethernet, for the fixed
    /// IPv4 header prefix, or for the options its IHL claims.
    Truncated,
}

/// Classifies a raw frame. `Ipv4` if and only if
/// [`crate::pcap::parse_ipv4_frame`] would parse it (property-tested).
#[must_use]
pub fn classify_frame(frame: &[u8]) -> FrameClass {
    if frame.len() < 14 {
        return FrameClass::Truncated;
    }
    if u16::from_be_bytes([frame[12], frame[13]]) != 0x0800 {
        return FrameClass::NonIpv4;
    }
    if frame.len() < 14 + 20 {
        return FrameClass::Truncated;
    }
    let vihl = frame[14];
    if vihl >> 4 != 4 {
        return FrameClass::NonIpv4;
    }
    let ihl = usize::from(vihl & 0x0F) * 4;
    if ihl < 20 {
        return FrameClass::NonIpv4;
    }
    if frame.len() < 14 + ihl {
        return FrameClass::Truncated;
    }
    FrameClass::Ipv4
}

/// Emits the canonical synthetic Ethernet/IPv4 frame for a packet into
/// `out`, padded with zeros to [`GEN_FRAME_LEN`] bytes. UDP/TCP packets
/// carry an 8-byte port stub after the IPv4 header; other protocols go
/// headerless into the padding.
pub(crate) fn emit_canonical_frame(p: &Packet, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[2, 0, 0, 0, 0, 1]); // dst MAC
    out.extend_from_slice(&[2, 0, 0, 0, 0, 2]); // src MAC
    out.extend_from_slice(&0x0800u16.to_be_bytes());
    let l4 = p.proto == 6 || p.proto == 17;
    let ip_len: u16 = 20 + if l4 { 8 } else { 0 };
    out.push(0x45);
    out.push(0);
    out.extend_from_slice(&ip_len.to_be_bytes());
    out.extend_from_slice(&[0, 0, 0, 0]); // id, flags/frag
    out.push(64); // ttl
    out.push(p.proto);
    out.extend_from_slice(&[0, 0]); // checksum (unvalidated)
    out.extend_from_slice(&p.src.to_be_bytes());
    out.extend_from_slice(&p.dst.to_be_bytes());
    if l4 {
        out.extend_from_slice(&p.src_port.to_be_bytes());
        out.extend_from_slice(&p.dst_port.to_be_bytes());
        out.extend_from_slice(&8u16.to_be_bytes());
        out.extend_from_slice(&[0, 0]);
    }
    out.resize(start + GEN_FRAME_LEN, 0);
}

/// A block of frames packed contiguously in one buffer.
///
/// Frame `i` occupies `data[offsets[i]..offsets[i + 1]]` (the last frame
/// runs to the end of the buffer); its original on-wire length rides in a
/// dense side lane so volume-weighted feeds never have to parse anything.
#[derive(Debug, Clone, Default)]
pub struct FrameBlock {
    data: Vec<u8>,
    /// Start offset of each frame in `data`.
    offsets: Vec<u32>,
    /// Original wire length of each frame (pcap `orig_len`).
    wire: Vec<u32>,
    /// True while every frame came from [`Self::push_packet`] — valid
    /// IPv4 at fixed stride by construction.
    clean: bool,
    /// True while every frame is exactly [`GEN_FRAME_LEN`] bytes.
    uniform: bool,
}

impl FrameBlock {
    /// An empty block.
    #[must_use]
    pub fn new() -> Self {
        Self {
            data: Vec::new(),
            offsets: Vec::new(),
            wire: Vec::new(),
            clean: true,
            uniform: true,
        }
    }

    /// An empty block with room for `frames` canonical frames.
    #[must_use]
    pub fn with_capacity(frames: usize) -> Self {
        Self {
            data: Vec::with_capacity(frames * GEN_FRAME_LEN),
            offsets: Vec::with_capacity(frames),
            wire: Vec::with_capacity(frames),
            clean: true,
            uniform: true,
        }
    }

    /// Empties the block for reuse, keeping its allocations.
    pub fn clear(&mut self) {
        self.data.clear();
        self.offsets.clear();
        self.wire.clear();
        self.clean = true;
        self.uniform = true;
    }

    /// Number of frames in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True when the block holds no frames.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The packed frame bytes.
    #[must_use]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Per-frame start offsets into [`Self::data`].
    #[must_use]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Dense per-frame original wire lengths.
    #[must_use]
    pub fn wire_lens(&self) -> &[u32] {
        &self.wire
    }

    /// True when every frame was emitted by [`Self::push_packet`] and is
    /// therefore known-valid IPv4 at a fixed [`GEN_FRAME_LEN`] stride.
    /// Frames pushed from external bytes permanently clear this.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.clean
    }

    /// `Some(GEN_FRAME_LEN)` when every frame is exactly that long, so
    /// frame `i` starts at `i * GEN_FRAME_LEN`.
    #[must_use]
    pub fn fixed_stride(&self) -> Option<usize> {
        if self.uniform && !self.is_empty() {
            Some(GEN_FRAME_LEN)
        } else {
            None
        }
    }

    /// The captured bytes of frame `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn frame(&self, i: usize) -> &[u8] {
        let start = self.offsets[i] as usize;
        let end = self
            .offsets
            .get(i + 1)
            .map_or(self.data.len(), |&o| o as usize);
        &self.data[start..end]
    }

    /// Iterates `(frame_bytes, orig_len)` pairs.
    pub fn frames(&self) -> impl Iterator<Item = (&[u8], u32)> + '_ {
        (0..self.len()).map(move |i| (self.frame(i), self.wire[i]))
    }

    /// Appends the canonical synthetic frame for `p`, preserving the
    /// clean/fixed-stride invariants. The recorded wire length is
    /// `max(p.wire_len, GEN_FRAME_LEN)`, matching the pcap writer's
    /// `orig_len >= incl_len` convention.
    ///
    /// # Panics
    ///
    /// Panics if the block would exceed `u32::MAX` bytes.
    pub fn push_packet(&mut self, p: &Packet) {
        let start = self.data.len();
        self.offsets
            .push(u32::try_from(start).expect("frame block exceeds 4 GiB"));
        self.wire
            .push(u32::from(p.wire_len).max(GEN_FRAME_LEN as u32));
        emit_canonical_frame(p, &mut self.data);
    }

    /// Appends an externally supplied raw frame. Clears the clean flag —
    /// consumers must run the validated parse plane over this block.
    ///
    /// # Panics
    ///
    /// Panics if the block would exceed `u32::MAX` bytes.
    pub fn push_frame(&mut self, frame: &[u8], orig_len: u32) {
        let start = self.data.len();
        u32::try_from(start + frame.len()).expect("frame block exceeds 4 GiB");
        self.data.extend_from_slice(frame);
        self.offsets.push(start as u32);
        self.wire.push(orig_len);
        self.clean = false;
        self.uniform = self.uniform && frame.len() == GEN_FRAME_LEN;
    }
}

/// Materializes `packets` as canonical frames in blocks of at most
/// `frames_per_block` frames — the shape benches and tests feed the wire
/// plane.
///
/// # Panics
///
/// Panics if `frames_per_block` is zero.
#[must_use]
pub fn blocks_from_packets(packets: &[Packet], frames_per_block: usize) -> Vec<FrameBlock> {
    assert!(frames_per_block > 0, "frames_per_block must be positive");
    packets
        .chunks(frames_per_block)
        .map(|chunk| {
            let mut block = FrameBlock::with_capacity(chunk.len());
            for p in chunk {
                block.push_packet(p);
            }
            block
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{TraceConfig, TraceGenerator};
    use crate::pcap::parse_ipv4_frame;

    #[test]
    fn canonical_frames_parse_back_to_their_packet() {
        let mut gen = TraceGenerator::new(&TraceConfig::chicago16());
        let packets = gen.take_packets(500);
        let mut block = FrameBlock::new();
        for p in &packets {
            block.push_packet(p);
        }
        assert_eq!(block.len(), packets.len());
        assert!(block.is_clean());
        assert_eq!(block.fixed_stride(), Some(GEN_FRAME_LEN));
        for (i, p) in packets.iter().enumerate() {
            let back = parse_ipv4_frame(block.frame(i), block.wire_lens()[i]).expect("parses");
            assert_eq!(back.src, p.src);
            assert_eq!(back.dst, p.dst);
            assert_eq!(back.proto, p.proto);
            assert_eq!(u32::from(back.wire_len), u32::from(p.wire_len).max(64));
            if p.proto == 6 || p.proto == 17 {
                assert_eq!(back.src_port, p.src_port);
                assert_eq!(back.dst_port, p.dst_port);
            }
        }
    }

    #[test]
    fn external_frames_clear_clean_and_stride_tracks_length() {
        let mut block = FrameBlock::new();
        block.push_frame(&[0u8; GEN_FRAME_LEN], 64);
        assert!(!block.is_clean());
        assert_eq!(block.fixed_stride(), Some(GEN_FRAME_LEN));
        block.push_frame(&[0u8; 42], 42);
        assert_eq!(block.fixed_stride(), None);
        assert_eq!(block.len(), 2);
        assert_eq!(block.frame(1).len(), 42);
        block.clear();
        assert!(block.is_clean());
        assert!(block.is_empty());
    }

    #[test]
    fn classify_matches_parse_accept_set_on_edges() {
        // Truncated below Ethernet, below IPv4 prefix, and mid-options.
        assert_eq!(classify_frame(&[0u8; 10]), FrameClass::Truncated);
        let mut ipv4_short = vec![0u8; 20];
        ipv4_short[12] = 0x08;
        ipv4_short[13] = 0x00;
        assert_eq!(classify_frame(&ipv4_short), FrameClass::Truncated);
        // ARP is non-IPv4 even when shorter than an IPv4 frame.
        let mut arp = vec![0u8; 20];
        arp[12] = 0x08;
        arp[13] = 0x06;
        assert_eq!(classify_frame(&arp), FrameClass::NonIpv4);
        // IHL 8 (options) with only the fixed prefix captured: truncated.
        let mut opts = vec![0u8; 34];
        opts[12] = 0x08;
        opts[13] = 0x00;
        opts[14] = 0x48;
        assert_eq!(classify_frame(&opts), FrameClass::Truncated);
        // Same frame with the options present: parses.
        let mut full = vec![0u8; 14 + 32];
        full[12] = 0x08;
        full[13] = 0x00;
        full[14] = 0x48;
        assert_eq!(classify_frame(&full), FrameClass::Ipv4);
        assert!(parse_ipv4_frame(&full, 46).is_some());
        // Bad version nibble and malformed IHL are non-IPv4.
        let mut v6 = vec![0u8; 40];
        v6[12] = 0x08;
        v6[13] = 0x00;
        v6[14] = 0x60;
        assert_eq!(classify_frame(&v6), FrameClass::NonIpv4);
        let mut badihl = vec![0u8; 40];
        badihl[12] = 0x08;
        badihl[13] = 0x00;
        badihl[14] = 0x43;
        assert_eq!(classify_frame(&badihl), FrameClass::NonIpv4);
    }

    #[test]
    fn blocks_from_packets_chunks_correctly() {
        let mut gen = TraceGenerator::new(&TraceConfig::sanjose13());
        let packets = gen.take_packets(1_000);
        let blocks = blocks_from_packets(&packets, 256);
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks.iter().map(FrameBlock::len).sum::<usize>(), 1_000);
        assert!(blocks.iter().all(FrameBlock::is_clean));
        assert_eq!(blocks[3].len(), 1_000 - 3 * 256);
    }
}
