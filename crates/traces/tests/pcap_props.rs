//! Differential and robustness properties of the pcap reader.
//!
//! The reader parses record headers in place out of one byte window and
//! copies each body once. [`reference`] is the record loop it replaced:
//! one `read_exact` per header field and one for the body, over a
//! buffered stream. Both are run over arbitrary record streams (both byte
//! orders, both magics, bodies of 0–299 bytes), cut at every byte offset
//! of the last record, and read back in blocks of 1, 7 and 4096 frames.
//! They must agree on every frame and `orig_len`, on `records()`, and on
//! how the stream ends: cleanly, `UnexpectedEof` or `InvalidData`.
//!
//! Two end-of-file rules are pinned as they always were. A file that ends
//! 1–3 bytes into a record header ends cleanly, since a 4-byte `ts_sec`
//! read that hits end of file has always meant "no more records"; a cut
//! anywhere later in a header or body is `UnexpectedEof`. A record cut
//! short in the middle of a `read_block` call returns the error and
//! leaves the complete frames read earlier in that call in the block.
//!
//! On arbitrary bytes after a valid global header the reader never
//! panics, `next_packet` keeps `records == accepted + skipped_non_ipv4 +
//! skipped_truncated`, and `read_block` followed by `WireBlockView::new`
//! accepts and skips the same frames.

use std::io::{self, Read};
use std::path::{Path, PathBuf};

use hhh_traces::{parse_ipv4_frame, FrameBlock, Packet, PcapReader};
use hhh_vswitch::WireBlockView;
use proptest::prelude::*;

const MAGIC_USEC: u32 = 0xA1B2_C3D4;
const MAGIC_NSEC: u32 = 0xA1B2_3C4D;
const GLOBAL_HEADER: usize = 24;
const RECORD_HEADER: usize = 16;
const BLOCK_SIZES: [usize; 3] = [1, 7, 4096];

/// How a read of the whole stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    Clean,
    Failed(io::ErrorKind),
}

impl End {
    fn of(e: &io::Error) -> Self {
        Self::Failed(e.kind())
    }
}

/// `(body, orig_len)` of each record read.
type Frames = Vec<(Vec<u8>, u32)>;

/// Little- or big-endian 32-bit field.
fn put(bytes: &mut Vec<u8>, v: u32, big: bool) {
    bytes.extend_from_slice(&if big {
        v.to_be_bytes()
    } else {
        v.to_le_bytes()
    });
}

/// A global header for an Ethernet capture.
fn global_header(magic: u32, big: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    put(&mut bytes, magic, big);
    put(&mut bytes, 0x0004_0002, big); // version 2.4 as one field
    put(&mut bytes, 0, big); // thiszone
    put(&mut bytes, 0, big); // sigfigs
    put(&mut bytes, 65_535, big); // snaplen
    put(&mut bytes, 1, big); // DLT_EN10MB
    bytes
}

/// Appends one record carrying `body`.
fn push_record(bytes: &mut Vec<u8>, body: &[u8], orig_len: u32, big: bool) {
    put(bytes, 7, big); // ts_sec
    put(bytes, 0, big); // ts_frac
    put(bytes, body.len() as u32, big);
    put(bytes, orig_len, big);
    bytes.extend_from_slice(body);
}

/// A record body of `len` bytes drawn from `seed`: random bytes (kind 0),
/// or an Ethernet/IPv4 frame prefix (kinds 1 and 2) that parses, is cut
/// short or carries a bad version/IHL nibble, depending on the draw.
fn body(kind: u8, len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as u8
    };
    let mut bytes: Vec<u8> = (0..len).map(|_| next()).collect();
    if kind > 0 {
        for (at, v) in [(12, 0x08), (13, 0x00)] {
            if let Some(b) = bytes.get_mut(at) {
                *b = v;
            }
        }
        if kind == 1 {
            if let Some(b) = bytes.get_mut(14) {
                *b = 0x45;
            }
        }
    }
    bytes
}

/// The record loop the windowed reader replaced, over the bytes after the
/// global header: five `read_exact` calls per record, where a `ts_sec`
/// read that hits end of file (0–3 bytes left) ends the stream cleanly.
fn reference(mut rest: &[u8], swapped: bool) -> (Frames, End) {
    fn field(rest: &mut &[u8], swapped: bool) -> io::Result<Option<u32>> {
        let mut b = [0u8; 4];
        match rest.read_exact(&mut b) {
            Ok(()) => {
                let v = u32::from_le_bytes(b);
                Ok(Some(if swapped { v.swap_bytes() } else { v }))
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(e),
        }
    }
    fn record(rest: &mut &[u8], swapped: bool) -> io::Result<Option<(Vec<u8>, u32)>> {
        let Some(_ts_sec) = field(rest, swapped)? else {
            return Ok(None);
        };
        let _ts_frac = field(rest, swapped)?.ok_or(io::ErrorKind::UnexpectedEof)?;
        let incl_len = field(rest, swapped)?.ok_or(io::ErrorKind::UnexpectedEof)? as usize;
        let orig_len = field(rest, swapped)?.ok_or(io::ErrorKind::UnexpectedEof)?;
        if incl_len > 256 * 1024 {
            return Err(io::ErrorKind::InvalidData.into());
        }
        let mut frame = vec![0u8; incl_len];
        rest.read_exact(&mut frame)?;
        Ok(Some((frame, orig_len)))
    }
    let mut frames = Vec::new();
    loop {
        match record(&mut rest, swapped) {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return (frames, End::Clean),
            Err(e) => return (frames, End::of(&e)),
        }
    }
}

fn write_tmp(name: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("rhhh-pcap-props-{name}-{}", std::process::id()));
    std::fs::write(&path, bytes).expect("write temp pcap");
    path
}

/// Reads `path` through `read_block` calls of `max_frames`: every frame,
/// including those a failing call left in the block, `records()` and how
/// the stream ended.
fn via_blocks(path: &Path, max_frames: usize) -> (Frames, u64, End) {
    let mut reader = PcapReader::open(path).expect("valid global header");
    let mut block = FrameBlock::new();
    let mut frames = Vec::new();
    let end = loop {
        let result = reader.read_block(&mut block, max_frames);
        assert!(block.len() <= max_frames, "block overfilled");
        frames.extend(block.frames().map(|(f, o)| (f.to_vec(), o)));
        match result {
            Ok(0) => break End::Clean,
            Ok(n) => assert_eq!(n, block.len()),
            Err(e) => break End::of(&e),
        }
    };
    (frames, reader.records(), end)
}

/// What `next_packet` reads from `path`: the packets, the
/// `(records, skipped_non_ipv4, skipped_truncated)` counters and the end.
fn via_packets(path: &Path) -> (Vec<Packet>, (u64, u64, u64), End) {
    let mut reader = PcapReader::open(path).expect("valid global header");
    let mut packets = Vec::new();
    let end = loop {
        match reader.next_packet() {
            Ok(Some(p)) => packets.push(p),
            Ok(None) => break End::Clean,
            Err(e) => break End::of(&e),
        }
    };
    let counters = (
        reader.records(),
        reader.skipped_non_ipv4(),
        reader.skipped_truncated(),
    );
    (packets, counters, end)
}

/// Checks every reading of `bytes` against [`reference`]; returns the
/// reference's frames and end.
fn check_against_reference(name: &str, bytes: &[u8], swapped: bool) -> (Frames, End) {
    let expected = reference(&bytes[GLOBAL_HEADER..], swapped);
    let path = write_tmp(name, bytes);
    for max_frames in BLOCK_SIZES {
        let (frames, records, end) = via_blocks(&path, max_frames);
        assert_eq!(end, expected.1, "{name}: end, blocks of {max_frames}");
        assert_eq!(records, expected.0.len() as u64, "{name}: records()");
        assert!(
            frames == expected.0,
            "{name}: frames, blocks of {max_frames}"
        );
    }
    let (packets, (records, ..), end) = via_packets(&path);
    let parsed: Vec<Packet> = expected
        .0
        .iter()
        .filter_map(|(f, o)| parse_ipv4_frame(f, *o))
        .collect();
    assert_eq!(end, expected.1, "{name}: next_packet end");
    assert_eq!(
        records,
        expected.0.len() as u64,
        "{name}: next_packet records()"
    );
    assert_eq!(packets, parsed, "{name}: next_packet packets");
    std::fs::remove_file(&path).ok();
    expected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn read_block_matches_the_reference_at_every_cut(
        records in prop::collection::vec((0u8..3, 0usize..300, any::<u64>(), any::<u32>()), 1..8),
        nsec in any::<bool>(),
        big in any::<bool>(),
    ) {
        let magic = if nsec { MAGIC_NSEC } else { MAGIC_USEC };
        let mut bytes = global_header(magic, big);
        let mut last = 0;
        for &(kind, len, seed, orig_len) in &records {
            last = bytes.len();
            push_record(&mut bytes, &body(kind, len, seed), orig_len, big);
        }
        for cut in last..=bytes.len() {
            let (frames, end) = check_against_reference("cut", &bytes[..cut], big);
            let whole = frames.len() == records.len();
            prop_assert_eq!(whole, cut == bytes.len());
            // 0–3 bytes of the last header end cleanly; later cuts do not.
            let clean = cut - last < 4 || cut == bytes.len();
            prop_assert_eq!(end == End::Clean, clean, "cut {} bytes into the last record", cut - last);
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_accounting_agrees(
        records in prop::collection::vec((0u8..3, 0usize..120, any::<u64>(), any::<u32>()), 0..8),
        noise in prop::collection::vec((any::<u16>(), any::<u8>()), 0..6),
        tail in prop::collection::vec(any::<u8>(), 0..48),
        big in any::<bool>(),
    ) {
        let mut bytes = global_header(MAGIC_USEC, big);
        for &(kind, len, seed, orig_len) in &records {
            push_record(&mut bytes, &body(kind, len, seed), orig_len, big);
        }
        let records_len = bytes.len() - GLOBAL_HEADER;
        for &(at, v) in &noise {
            if records_len > 0 {
                bytes[GLOBAL_HEADER + usize::from(at) % records_len] = v;
            }
        }
        bytes.extend_from_slice(&tail);
        let (frames, end) = check_against_reference("noise", &bytes, big);

        let path = write_tmp("noise-totals", &bytes);
        let (packets, (records, non_ipv4, truncated), packets_end) = via_packets(&path);
        prop_assert_eq!(records, packets.len() as u64 + non_ipv4 + truncated);
        prop_assert_eq!(records, frames.len() as u64);
        prop_assert_eq!(packets_end, end);

        // Blocks resolved by the wire plane accept and skip the same frames.
        let mut reader = PcapReader::open(&path).expect("valid global header");
        let mut block = FrameBlock::new();
        let mut keys = Vec::new();
        let mut skipped = (0, 0);
        loop {
            let result = reader.read_block(&mut block, 5);
            let view = WireBlockView::new(&block);
            view.keys2_into(&mut keys);
            skipped.0 += view.skipped_non_ipv4();
            skipped.1 += view.skipped_truncated();
            if !matches!(result, Ok(n) if n > 0) {
                break;
            }
        }
        std::fs::remove_file(&path).ok();
        let expected_keys: Vec<u64> = packets.iter().map(Packet::key2).collect();
        prop_assert_eq!(keys, expected_keys);
        prop_assert_eq!(skipped, (non_ipv4, truncated));
    }
}

#[test]
fn records_longer_than_the_window_are_read_whole() {
    for big in [false, true] {
        let mut bytes = global_header(MAGIC_USEC, big);
        let sizes = [60, 100_000, 0, 70_000, 256 * 1024, 60];
        for (i, &len) in sizes.iter().enumerate() {
            let frame = body(1, len, i as u64);
            push_record(&mut bytes, &frame, len as u32 + 4, big);
        }
        let (frames, end) = check_against_reference("long", &bytes, big);
        assert_eq!(end, End::Clean);
        let lens: Vec<usize> = frames.iter().map(|(f, _)| f.len()).collect();
        assert_eq!(lens, sizes);
        // Cut inside the 100 kB body: the first record survives.
        let cut = GLOBAL_HEADER + RECORD_HEADER + 60 + RECORD_HEADER + 50_000;
        let (frames, end) = check_against_reference("long-cut", &bytes[..cut], big);
        assert_eq!(end, End::Failed(io::ErrorKind::UnexpectedEof));
        assert_eq!(frames.len(), 1);
    }
}

#[test]
fn implausible_record_length_is_invalid_data() {
    let mut bytes = global_header(MAGIC_NSEC, false);
    push_record(&mut bytes, &body(1, 64, 1), 64, false);
    let huge = 256 * 1024 + 1;
    push_record(&mut bytes, &vec![0u8; huge], huge as u32, false);
    let (frames, end) = check_against_reference("huge", &bytes, false);
    assert_eq!(end, End::Failed(io::ErrorKind::InvalidData));
    assert_eq!(frames.len(), 1);
}

/// A record cut short mid-block fails the call and leaves the complete
/// frames read earlier in that call in the block, with no bytes of the
/// partial record behind them.
#[test]
fn truncated_body_keeps_the_earlier_frames_of_the_call() {
    let mut bytes = global_header(MAGIC_USEC, false);
    let bodies: Vec<Vec<u8>> = (0..3).map(|i| body(1, 64 + i, i as u64)).collect();
    for b in &bodies {
        push_record(&mut bytes, b, 1500, false);
    }
    let path = write_tmp("short-body", &bytes[..bytes.len() - 10]);
    let mut reader = PcapReader::open(&path).expect("open");
    let mut block = FrameBlock::new();
    let err = reader
        .read_block(&mut block, 4096)
        .expect_err("the last body is short");
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    assert_eq!(block.len(), 2);
    assert_eq!(block.data().len(), bodies[0].len() + bodies[1].len());
    assert_eq!(block.frame(1), &bodies[1][..]);
    assert_eq!(reader.records(), 2);
    std::fs::remove_file(&path).ok();
}
