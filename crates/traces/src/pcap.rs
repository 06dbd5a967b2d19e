//! Minimal libpcap-format reader and writer.
//!
//! The paper's traces are CAIDA pcaps; this module lets the reproduction
//! consume *real* captures (tcpdump/wireshark output) in addition to the
//! synthetic generators. Only the classic pcap container is implemented
//! (magic `0xa1b2c3d4`, microsecond or `0xa1b23c4d` nanosecond timestamps,
//! either endianness), with Ethernet (DLT 1) link type and IPv4 payloads;
//! non-IPv4 records are skipped, not errors — exactly how the paper's
//! tooling treats the UDP/TCP/ICMP mix.
//!
//! The reader owns one byte window over the file: a 64 KiB buffer with an
//! unread range `pos..end`, refilled by moving the unread tail to the
//! front and reading behind it. Record headers are parsed in place and a
//! record's body is handed out as a slice of the window, so a record costs
//! one copy out of the window (into a [`FrameBlock`], or none at all for
//! [`PcapReader::next_packet`]). A record longer than the window grows
//! the window to fit it. A file that ends 1–3 bytes into a record header
//! ends cleanly; a header or body cut any later is `UnexpectedEof`.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::ops::Range;
use std::path::Path;

use crate::frame::{classify_frame, emit_canonical_frame, FrameBlock, FrameClass};
use crate::generator::Packet;

const MAGIC_USEC: u32 = 0xA1B2_C3D4;
const MAGIC_NSEC: u32 = 0xA1B2_3C4D;
/// Link type for Ethernet.
const DLT_EN10MB: u32 = 1;
/// Bytes of the global file header.
const FILE_HEADER: usize = 24;
/// Bytes of a record header: ts_sec, ts_frac, incl_len, orig_len.
const RECORD_HEADER: usize = 16;
/// Longest record body accepted; anything longer is corrupt input.
const MAX_RECORD: usize = 256 * 1024;
/// Size of the read window.
const WINDOW: usize = 64 * 1024;

/// Streaming pcap reader yielding [`Packet`] records for IPv4 frames.
pub struct PcapReader {
    file: File,
    /// The read window; `buf[pos..end]` is read from the file but not yet
    /// consumed.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    /// Whether multi-byte header fields are byte-swapped relative to host.
    swapped: bool,
    /// Records read so far (including skipped non-IPv4).
    records: u64,
    /// Records skipped because their frame was another protocol family
    /// (ARP, IPv6, bad version/IHL nibble).
    skipped_non_ipv4: u64,
    /// Records skipped because the capture cut the frame short of a
    /// parseable IPv4 header.
    skipped_truncated: u64,
}

impl fmt::Debug for PcapReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PcapReader")
            .field("buffered", &(self.end - self.pos))
            .field("swapped", &self.swapped)
            .field("records", &self.records)
            .field("skipped_non_ipv4", &self.skipped_non_ipv4)
            .field("skipped_truncated", &self.skipped_truncated)
            .finish_non_exhaustive()
    }
}

impl PcapReader {
    /// Opens a pcap file and validates its global header.
    ///
    /// # Errors
    ///
    /// `InvalidData` on bad magic or non-Ethernet link type,
    /// `UnexpectedEof` on a file shorter than the global header; I/O
    /// errors propagate.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut reader = Self {
            file: File::open(path)?,
            buf: vec![0; WINDOW],
            pos: 0,
            end: 0,
            swapped: false,
            records: 0,
            skipped_non_ipv4: 0,
            skipped_truncated: 0,
        };
        if reader.fill(FILE_HEADER)? < FILE_HEADER {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "pcap file shorter than its global header",
            ));
        }
        let magic = reader.field(0);
        reader.swapped = match magic {
            MAGIC_USEC | MAGIC_NSEC => false,
            m if m.swap_bytes() == MAGIC_USEC || m.swap_bytes() == MAGIC_NSEC => true,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "not a pcap file (bad magic)",
                ))
            }
        };
        let linktype = reader.field(20);
        if linktype != DLT_EN10MB {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported pcap link type {linktype} (want Ethernet)"),
            ));
        }
        reader.pos = FILE_HEADER;
        Ok(reader)
    }

    /// Records skipped because they were not IPv4-over-Ethernet (the sum
    /// of the two reject classes).
    #[must_use]
    pub fn skipped(&self) -> u64 {
        self.skipped_non_ipv4 + self.skipped_truncated
    }

    /// Records skipped because the frame belonged to another protocol
    /// family (ARP, IPv6, malformed IPv4 version/IHL).
    #[must_use]
    pub fn skipped_non_ipv4(&self) -> u64 {
        self.skipped_non_ipv4
    }

    /// Records skipped because the capture truncated the frame before a
    /// complete IPv4 header.
    #[must_use]
    pub fn skipped_truncated(&self) -> u64 {
        self.skipped_truncated
    }

    /// Total records consumed (parsed + skipped).
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The 4-byte header field at `offset` past `pos`, in host order.
    fn field(&self, offset: usize) -> u32 {
        let at = self.pos + offset;
        let v = u32::from_le_bytes(self.buf[at..at + 4].try_into().expect("4 bytes"));
        if self.swapped {
            v.swap_bytes()
        } else {
            v
        }
    }

    /// Refills the window until `want` unread bytes are buffered or the
    /// file ends, first moving the unread tail to the front and growing
    /// the window if it is shorter than `want`. Returns the bytes
    /// buffered, which is less than `want` only at end of file.
    #[cold]
    #[inline(never)]
    fn fill(&mut self, want: usize) -> io::Result<usize> {
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
        while self.end < want {
            match self.file.read(&mut self.buf[self.end..]) {
                Ok(0) => break,
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(self.end)
    }

    /// Consumes the next record: its body's range in the window and its
    /// `orig_len`, or `None` at a clean end of file.
    ///
    /// A file that ends with 1–3 bytes after the last record ends cleanly,
    /// as a 4-byte `ts_sec` read that hits end of file always has; a record
    /// header or body cut anywhere later is `UnexpectedEof`.
    #[inline]
    fn next_record(&mut self) -> io::Result<Option<(Range<usize>, u32)>> {
        if self.end - self.pos < RECORD_HEADER {
            let buffered = self.fill(RECORD_HEADER)?;
            if buffered < 4 {
                return Ok(None);
            }
            if buffered < RECORD_HEADER {
                return Err(cut_short());
            }
        }
        let incl_len = self.field(8) as usize;
        let orig_len = self.field(12);
        if incl_len > MAX_RECORD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "implausible pcap record length",
            ));
        }
        let len = RECORD_HEADER + incl_len;
        if self.end - self.pos < len && self.fill(len)? < len {
            return Err(cut_short());
        }
        let body = self.pos + RECORD_HEADER..self.pos + len;
        self.pos = body.end;
        self.records += 1;
        Ok(Some((body, orig_len)))
    }

    /// Reads the next IPv4 packet, skipping anything else. `Ok(None)` at
    /// end of file.
    ///
    /// # Errors
    ///
    /// I/O errors, truncated records and implausible record lengths.
    pub fn next_packet(&mut self) -> io::Result<Option<Packet>> {
        while let Some((body, orig_len)) = self.next_record()? {
            let frame = &self.buf[body];
            if let Some(p) = parse_ipv4_frame(frame, orig_len) {
                return Ok(Some(p));
            }
            match classify_frame(frame) {
                FrameClass::Truncated => self.skipped_truncated += 1,
                _ => self.skipped_non_ipv4 += 1,
            }
        }
        Ok(None)
    }

    /// Block-read mode: fills `block` (cleared first) with up to
    /// `max_frames` raw records, copying each body out of the reader's
    /// window into the block's contiguous buffer. Returns the number of
    /// frames read; `Ok(0)` at end of file, where 1–3 trailing bytes
    /// after the last record also count as end of file.
    ///
    /// All records land in the block regardless of content —
    /// classification and skip accounting belong to the parse plane that
    /// consumes the block (blocks filled here never claim
    /// [`FrameBlock::is_clean`]). Only [`Self::records`] advances here.
    ///
    /// # Errors
    ///
    /// I/O errors, truncated records and implausible record lengths, as
    /// for [`Self::next_packet`]. The frames read before the bad record
    /// stay in `block`.
    pub fn read_block(&mut self, block: &mut FrameBlock, max_frames: usize) -> io::Result<usize> {
        block.clear();
        while block.len() < max_frames {
            let Some((body, orig_len)) = self.next_record()? else {
                break;
            };
            block.push_frame(&self.buf[body], orig_len);
        }
        Ok(block.len())
    }
}

/// A record header or body that the end of the file cut short.
fn cut_short() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "pcap record cut short")
}

impl Iterator for PcapReader {
    type Item = io::Result<Packet>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_packet().transpose()
    }
}

/// Extracts the five-tuple from an Ethernet/IPv4 frame; `None` for anything
/// else (ARP, IPv6, truncated captures, …).
///
/// This is the reference accept predicate for the whole wire plane: the
/// zero-copy lane parser in `hhh-vswitch` is property-pinned to accept
/// exactly the frames this function parses, and
/// [`crate::frame::classify_frame`] splits its reject set into the two
/// skip classes.
#[must_use]
pub fn parse_ipv4_frame(frame: &[u8], orig_len: u32) -> Option<Packet> {
    if frame.len() < 14 + 20 {
        return None;
    }
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != 0x0800 {
        return None;
    }
    let ip = &frame[14..];
    if ip[0] >> 4 != 4 {
        return None;
    }
    let ihl = usize::from(ip[0] & 0x0F) * 4;
    if ihl < 20 || ip.len() < ihl {
        return None;
    }
    let proto = ip[9];
    let src = u32::from_be_bytes([ip[12], ip[13], ip[14], ip[15]]);
    let dst = u32::from_be_bytes([ip[16], ip[17], ip[18], ip[19]]);
    let (src_port, dst_port) = if (proto == 6 || proto == 17) && ip.len() >= ihl + 4 {
        (
            u16::from_be_bytes([ip[ihl], ip[ihl + 1]]),
            u16::from_be_bytes([ip[ihl + 2], ip[ihl + 3]]),
        )
    } else {
        (0, 0)
    };
    Some(Packet {
        src,
        dst,
        src_port,
        dst_port,
        proto,
        wire_len: orig_len.min(u32::from(u16::MAX)) as u16,
    })
}

/// Writes packets as a classic little-endian microsecond pcap with 64-byte
/// UDP frames (the synthetic payload the paper's generator uses) — mainly
/// for tests and for exporting synthetic traces to standard tooling.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_pcap(path: &Path, packets: &[Packet]) -> io::Result<u64> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&MAGIC_USEC.to_le_bytes())?;
    w.write_all(&2u16.to_le_bytes())?; // version major
    w.write_all(&4u16.to_le_bytes())?; // version minor
    w.write_all(&0i32.to_le_bytes())?; // thiszone
    w.write_all(&0u32.to_le_bytes())?; // sigfigs
    w.write_all(&65_535u32.to_le_bytes())?; // snaplen
    w.write_all(&DLT_EN10MB.to_le_bytes())?;

    for (i, p) in packets.iter().enumerate() {
        let frame = build_frame(p);
        w.write_all(&(i as u32).to_le_bytes())?; // ts_sec (synthetic)
        w.write_all(&0u32.to_le_bytes())?; // ts_usec
        w.write_all(&(frame.len() as u32).to_le_bytes())?;
        w.write_all(&u32::from(p.wire_len.max(frame.len() as u16)).to_le_bytes())?;
        w.write_all(&frame)?;
    }
    w.flush()?;
    Ok(packets.len() as u64)
}

/// The canonical 64-byte Ethernet/IPv4 frame for the writer — shared
/// with [`FrameBlock::push_packet`] so pcap round-trips and generator
/// blocks carry byte-identical frames.
fn build_frame(p: &Packet) -> Vec<u8> {
    let mut f = Vec::with_capacity(64);
    emit_canonical_frame(p, &mut f);
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{TraceConfig, TraceGenerator};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rhhh-pcap-{name}-{}", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_five_tuples() {
        let path = tmp("roundtrip");
        let packets: Vec<Packet> = TraceGenerator::new(&TraceConfig::chicago16())
            .take(2_000)
            .collect();
        write_pcap(&path, &packets).expect("write");
        let back: Vec<Packet> = PcapReader::open(&path)
            .expect("open")
            .map(|r| r.expect("read"))
            .collect();
        assert_eq!(back.len(), packets.len());
        for (a, b) in packets.iter().zip(&back) {
            assert_eq!(a.src, b.src);
            assert_eq!(a.dst, b.dst);
            assert_eq!(a.proto, b.proto);
            if a.proto == 6 || a.proto == 17 {
                assert_eq!(a.src_port, b.src_port);
                assert_eq!(a.dst_port, b.dst_port);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn byte_swapped_header_supported() {
        // Hand-build a big-endian pcap with one IPv4 UDP record.
        let path = tmp("swapped");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_USEC.to_be_bytes());
        bytes.extend_from_slice(&2u16.to_be_bytes());
        bytes.extend_from_slice(&4u16.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&65535u32.to_be_bytes());
        bytes.extend_from_slice(&DLT_EN10MB.to_be_bytes());
        let p = Packet {
            src: 0x0A000001,
            dst: 0x08080808,
            src_port: 53,
            dst_port: 53,
            proto: 17,
            wire_len: 64,
        };
        let frame = build_frame(&p);
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&64u32.to_be_bytes());
        bytes.extend_from_slice(&frame);
        std::fs::write(&path, &bytes).expect("write");

        let packets: Vec<Packet> = PcapReader::open(&path)
            .expect("open swapped")
            .map(|r| r.expect("read"))
            .collect();
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].src, 0x0A000001);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_ipv4_records_are_skipped() {
        let path = tmp("skip");
        let packets: Vec<Packet> = TraceGenerator::new(&TraceConfig::sanjose13())
            .take(10)
            .collect();
        write_pcap(&path, &packets).expect("write");
        // Append an ARP record by hand.
        let mut data = std::fs::read(&path).expect("read");
        let mut arp = vec![2u8, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 2, 0x08, 0x06];
        arp.extend_from_slice(&[0u8; 28]);
        data.extend_from_slice(&11u32.to_le_bytes());
        data.extend_from_slice(&0u32.to_le_bytes());
        data.extend_from_slice(&(arp.len() as u32).to_le_bytes());
        data.extend_from_slice(&(arp.len() as u32).to_le_bytes());
        data.extend_from_slice(&arp);
        std::fs::write(&path, &data).expect("rewrite");

        let mut reader = PcapReader::open(&path).expect("open");
        let mut count = 0;
        while let Some(r) = reader.next_packet().expect("read") {
            let _ = r;
            count += 1;
        }
        assert_eq!(count, 10);
        assert_eq!(reader.skipped(), 1);
        assert_eq!(reader.records(), 11);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage_magic() {
        let path = tmp("garbage");
        std::fs::write(&path, b"not a pcap at all........").expect("write");
        assert!(PcapReader::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_linktype() {
        let path = tmp("linktype");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_USEC.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        bytes.extend_from_slice(&101u32.to_le_bytes()); // DLT_RAW
        std::fs::write(&path, &bytes).expect("write");
        let err = PcapReader::open(&path).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    /// A little-endian global header with the given magic.
    fn le_header(magic: u32) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&magic.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&4u16.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&65_535u32.to_le_bytes());
        bytes.extend_from_slice(&DLT_EN10MB.to_le_bytes());
        bytes
    }

    fn push_record(bytes: &mut Vec<u8>, frame: &[u8], orig_len: u32) {
        bytes.extend_from_slice(&7u32.to_le_bytes()); // ts_sec
        bytes.extend_from_slice(&0u32.to_le_bytes()); // ts_frac
        bytes.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&orig_len.to_le_bytes());
        bytes.extend_from_slice(frame);
    }

    #[test]
    fn nanosecond_magic_pcaps_parse() {
        let path = tmp("nsec");
        let p = Packet {
            src: 0xC0A8_0001,
            dst: 0x0101_0101,
            src_port: 4000,
            dst_port: 443,
            proto: 6,
            wire_len: 1500,
        };
        let mut bytes = le_header(MAGIC_NSEC);
        push_record(&mut bytes, &build_frame(&p), 1500);
        std::fs::write(&path, &bytes).expect("write");
        let packets: Vec<Packet> = PcapReader::open(&path)
            .expect("open nsec")
            .map(|r| r.expect("read"))
            .collect();
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].src, p.src);
        assert_eq!(packets[0].dst_port, 443);
        assert_eq!(packets[0].wire_len, 1500);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn skip_accounting_distinguishes_truncated_from_non_ipv4() {
        let path = tmp("skip-split");
        let good = build_frame(&Packet {
            src: 1,
            dst: 2,
            src_port: 3,
            dst_port: 4,
            proto: 17,
            wire_len: 64,
        });
        // IPv4 ethertype but the capture cut the frame mid-header.
        let mut cut = vec![0u8; 20];
        cut[12] = 0x08;
        let mut arp = vec![0u8; 42];
        arp[12] = 0x08;
        arp[13] = 0x06;
        let mut bytes = le_header(MAGIC_USEC);
        push_record(&mut bytes, &good, 64);
        push_record(&mut bytes, &cut, 64);
        push_record(&mut bytes, &arp, 42);
        std::fs::write(&path, &bytes).expect("write");

        let mut reader = PcapReader::open(&path).expect("open");
        let mut parsed = 0;
        while let Some(_p) = reader.next_packet().expect("read") {
            parsed += 1;
        }
        assert_eq!(parsed, 1);
        assert_eq!(reader.records(), 3);
        assert_eq!(reader.skipped_truncated(), 1);
        assert_eq!(reader.skipped_non_ipv4(), 1);
        assert_eq!(reader.skipped(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ihl_options_frames_parse_ports_after_options() {
        // IHL = 8 (32-byte header, 12 bytes of options): ports sit after
        // the options, src/dst stay at their fixed offsets.
        let path = tmp("ihl");
        let mut frame = vec![0u8; 14 + 32 + 8];
        frame[12] = 0x08; // ethertype IPv4
        frame[14] = 0x48; // version 4, IHL 8
        frame[23] = 17; // UDP
        frame[26..30].copy_from_slice(&0x0A00_0001u32.to_be_bytes());
        frame[30..34].copy_from_slice(&0x0808_0808u32.to_be_bytes());
        frame[46..48].copy_from_slice(&53u16.to_be_bytes()); // src port
        frame[48..50].copy_from_slice(&5353u16.to_be_bytes()); // dst port
        let mut bytes = le_header(MAGIC_USEC);
        push_record(&mut bytes, &frame, 54);
        std::fs::write(&path, &bytes).expect("write");
        let packets: Vec<Packet> = PcapReader::open(&path)
            .expect("open")
            .map(|r| r.expect("read"))
            .collect();
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].src, 0x0A00_0001);
        assert_eq!(packets[0].src_port, 53);
        assert_eq!(packets[0].dst_port, 5353);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn block_reads_match_per_record_reads() {
        let path = tmp("block");
        let packets: Vec<Packet> = TraceGenerator::new(&TraceConfig::chicago16())
            .take(1_000)
            .collect();
        write_pcap(&path, &packets).expect("write");
        // Interleave an ARP record so the block carries a skip case.
        let mut data = std::fs::read(&path).expect("read");
        let mut arp = vec![2u8, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 2, 0x08, 0x06];
        arp.extend_from_slice(&[0u8; 28]);
        push_record(&mut data, &arp, 42);
        std::fs::write(&path, &data).expect("rewrite");

        let per_record: Vec<Packet> = PcapReader::open(&path)
            .expect("open")
            .map(|r| r.expect("read"))
            .collect();

        let mut reader = PcapReader::open(&path).expect("reopen");
        let mut block = FrameBlock::new();
        let mut via_blocks = Vec::new();
        loop {
            let n = reader.read_block(&mut block, 256).expect("block read");
            if n == 0 {
                break;
            }
            assert!(!block.is_clean(), "pcap blocks must not claim cleanliness");
            for (frame, orig) in block.frames() {
                if let Some(p) = parse_ipv4_frame(frame, orig) {
                    via_blocks.push(p);
                }
            }
        }
        assert_eq!(via_blocks, per_record);
        assert_eq!(reader.records(), 1_001);
        std::fs::remove_file(&path).ok();
    }
}
