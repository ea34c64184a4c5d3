//! The length-prefixed wire protocol spoken on an ingest connection.
//!
//! Every frame is `[kind: u8][len: u32 LE][payload: len bytes]` — five
//! bytes of header, then the payload. The frame kinds split by
//! direction:
//!
//! | byte | kind | direction | payload |
//! |------|--------|-----------------|----------------------------------|
//! | 0x01 | `Data` | client → server | one message to tag |
//! | 0x02 | `Close`| client → server | empty — drain and say goodbye |
//! | 0x81 | `Ack` | server → client | `[seq u32 LE][events…]` |
//! | 0x82 | `Busy` | server → client | `[seq u32 LE]` of the shed frame |
//! | 0x83 | `Err` | server → client | UTF-8 reason |
//! | 0x84 | `Bye` | server → client | empty — connection is done |
//!
//! An `Ack` is sent only **after** the shard worker has fully tagged the
//! message; its payload carries the resulting events (12 bytes each:
//! token, start, end as `u32` LE), so a client can verify acknowledged
//! work byte-for-byte. A frame longer than [`MAX_FRAME`] is a protocol
//! violation and the connection is dropped — length prefixes must not
//! become a memory-exhaustion vector.

use cfg_tagger::{Error, TagEvent};
use std::io::{Read, Write};

/// Hard ceiling on a frame's payload length (1 MiB). Anything larger is
/// rejected before allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// Bytes of frame header: one kind byte plus a `u32` LE length.
pub const HEADER_LEN: usize = 5;

/// Bytes one serialized [`TagEvent`] occupies in an `Ack` payload.
pub const EVENT_LEN: usize = 12;

/// The frame kinds of the ingest protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Client → server: one message to tag.
    Data,
    /// Client → server: finish this session cleanly.
    Close,
    /// Server → client: a message was tagged; payload holds its events.
    Ack,
    /// Server → client: a message was load-shed, payload names its seq.
    Busy,
    /// Server → client: something went wrong (reason in payload).
    Err,
    /// Server → client: goodbye, the session is over.
    Bye,
}

impl FrameKind {
    /// The wire byte for this kind.
    pub fn byte(self) -> u8 {
        match self {
            FrameKind::Data => 0x01,
            FrameKind::Close => 0x02,
            FrameKind::Ack => 0x81,
            FrameKind::Busy => 0x82,
            FrameKind::Err => 0x83,
            FrameKind::Bye => 0x84,
        }
    }

    /// Decode a wire byte; `None` for unassigned values.
    pub fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            0x01 => Some(FrameKind::Data),
            0x02 => Some(FrameKind::Close),
            0x81 => Some(FrameKind::Ack),
            0x82 => Some(FrameKind::Busy),
            0x83 => Some(FrameKind::Err),
            0x84 => Some(FrameKind::Bye),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame means.
    pub kind: FrameKind,
    /// The raw payload bytes.
    pub payload: Vec<u8>,
}

/// A borrowed view of one decoded frame — the zero-copy counterpart of
/// [`Frame`], yielded by [`FrameReader::next_frame`]. The payload slice
/// points into the reader's buffer and is valid until the next call
/// that advances the reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// What the frame means.
    pub kind: FrameKind,
    /// The payload bytes, borrowed from the reader's buffer.
    pub payload: &'a [u8],
}

impl FrameRef<'_> {
    /// Copy into an owned [`Frame`].
    pub fn to_frame(&self) -> Frame {
        Frame { kind: self.kind, payload: self.payload.to_vec() }
    }
}

/// An incremental, zero-copy frame decoder: [`FrameReader::push`] bytes
/// in whatever chunks the transport produced (down to 1-byte dribbles),
/// then [`FrameReader::next_frame`] yields complete frames as borrowed
/// [`FrameRef`]s without copying the payload out of the buffer.
///
/// A yielded frame is consumed lazily: the next `push` or `next_frame`
/// call reclaims its bytes, so the returned slice stays valid exactly
/// as long as the borrow checker says it does. An oversized length
/// prefix is rejected as soon as the header is complete — the reader
/// never buffers toward a frame it will refuse — and decoding is a pure
/// function of the byte stream (the chunking proptests hold it to
/// byte-for-byte equivalence with [`read_frame`]).
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// First byte not yet consumed by a yielded frame.
    start: usize,
    /// Wire length (header + payload) of the most recently yielded
    /// frame, reclaimed on the next `push`/`next_frame`.
    yielded: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Reclaim the bytes of the previously yielded frame.
    fn advance(&mut self) {
        self.start += self.yielded;
        self.yielded = 0;
    }

    /// Append freshly read bytes. Consumed bytes are compacted away
    /// here, so the buffer never grows past one maximum frame plus one
    /// read chunk.
    pub fn push(&mut self, bytes: &[u8]) {
        self.advance();
        if self.start > 0 {
            let len = self.buf.len();
            self.buf.copy_within(self.start..len, 0);
            self.buf.truncate(len - self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a yielded frame. Nonzero
    /// at EOF means the peer hung up mid-frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start - self.yielded
    }

    /// Decode the next complete frame as a borrowed view, `Ok(None)`
    /// if the buffer holds only a partial frame. An unknown kind byte
    /// or an oversized length prefix is a protocol error.
    pub fn next_frame(&mut self) -> Result<Option<FrameRef<'_>>, Error> {
        self.advance();
        let avail = &self.buf[self.start..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let kind = FrameKind::from_byte(avail[0])
            .ok_or_else(|| Error::Protocol(format!("unknown frame kind 0x{:02x}", avail[0])))?;
        let len =
            u32::from_le_bytes(avail[1..HEADER_LEN].try_into().expect("4 header bytes")) as usize;
        if len > MAX_FRAME {
            return Err(Error::Protocol(format!("{len}-byte frame exceeds max {MAX_FRAME}")));
        }
        if avail.len() < HEADER_LEN + len {
            return Ok(None);
        }
        self.yielded = HEADER_LEN + len;
        let payload_at = self.start + HEADER_LEN;
        Ok(Some(FrameRef { kind, payload: &self.buf[payload_at..payload_at + len] }))
    }
}

/// Serialize one frame to its wire bytes, header and payload together.
/// A payload over [`MAX_FRAME`] is refused (`Error::Protocol`).
pub(crate) fn encode_frame(kind: FrameKind, payload: &[u8]) -> Result<Vec<u8>, Error> {
    if payload.len() > MAX_FRAME {
        return Err(Error::Protocol(format!(
            "refusing to send {}-byte frame (max {MAX_FRAME})",
            payload.len()
        )));
    }
    let mut wire = Vec::with_capacity(HEADER_LEN + payload.len());
    wire.push(kind.byte());
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(payload);
    Ok(wire)
}

/// Write one frame as a single `write_all`. A payload over
/// [`MAX_FRAME`] is refused locally (`Error::Protocol`) — we never put
/// a frame on the wire the peer must reject.
pub fn write_frame<W: Write>(w: &mut W, kind: FrameKind, payload: &[u8]) -> Result<(), Error> {
    w.write_all(&encode_frame(kind, payload)?)?;
    w.flush()?;
    Ok(())
}

/// Read one frame. Returns `Ok(None)` on a clean end-of-stream (EOF
/// exactly on a frame boundary); EOF inside a frame, an unknown kind
/// byte, or an oversized length are `Error::Protocol`; transport
/// failures surface as `Error::Io`.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, Error> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(Error::Protocol(format!("truncated header ({got}/{HEADER_LEN} bytes)")))
            }
            Ok(n) => got += n,
            Err(e) => return Err(Error::Io(e)),
        }
    }
    let kind = FrameKind::from_byte(header[0])
        .ok_or_else(|| Error::Protocol(format!("unknown frame kind 0x{:02x}", header[0])))?;
    let len = u32::from_le_bytes(header[1..].try_into().expect("4 header bytes")) as usize;
    if len > MAX_FRAME {
        return Err(Error::Protocol(format!("{len}-byte frame exceeds max {MAX_FRAME}")));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(Error::Protocol(format!("truncated payload ({got}/{len} bytes)"))),
            Ok(n) => got += n,
            Err(e) => return Err(Error::Io(e)),
        }
    }
    Ok(Some(Frame { kind, payload }))
}

/// Serialize tag events into an `Ack` payload body (after the seq
/// prefix): `[token u32 LE][start u32 LE][end u32 LE]` per event.
pub fn encode_events(events: &[TagEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(events.len() * EVENT_LEN);
    for e in events {
        out.extend_from_slice(&e.token.0.to_le_bytes());
        out.extend_from_slice(&(e.start as u32).to_le_bytes());
        out.extend_from_slice(&(e.end as u32).to_le_bytes());
    }
    out
}

/// Decode an `Ack` payload body back into events.
pub fn decode_events(payload: &[u8]) -> Result<Vec<TagEvent>, Error> {
    if !payload.len().is_multiple_of(EVENT_LEN) {
        return Err(Error::Protocol(format!(
            "ack payload length {} is not a multiple of {EVENT_LEN}",
            payload.len()
        )));
    }
    let mut events = Vec::with_capacity(payload.len() / EVENT_LEN);
    for chunk in payload.chunks_exact(EVENT_LEN) {
        let word = |i: usize| {
            u32::from_le_bytes(chunk[i * 4..i * 4 + 4].try_into().expect("4-byte field"))
        };
        events.push(TagEvent {
            token: cfg_grammar::TokenId(word(0)),
            start: word(1) as usize,
            end: word(2) as usize,
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader that hands out at most one byte per `read` call — the
    /// worst-case TCP segmentation a frame parser must survive.
    struct OneByte<R>(R);

    impl<R: Read> Read for OneByte<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let take = buf.len().min(1);
            self.0.read(&mut buf[..take])
        }
    }

    #[test]
    fn round_trips_every_kind() {
        for kind in [
            FrameKind::Data,
            FrameKind::Close,
            FrameKind::Ack,
            FrameKind::Busy,
            FrameKind::Err,
            FrameKind::Bye,
        ] {
            let mut wire = Vec::new();
            write_frame(&mut wire, kind, b"payload").unwrap();
            assert_eq!(FrameKind::from_byte(kind.byte()), Some(kind));
            let frame = read_frame(&mut Cursor::new(&wire)).unwrap().unwrap();
            assert_eq!(frame, Frame { kind, payload: b"payload".to_vec() });
        }
    }

    #[test]
    fn split_reads_reassemble() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Data, b"if true then go else stop").unwrap();
        write_frame(&mut wire, FrameKind::Close, b"").unwrap();
        let mut reader = OneByte(Cursor::new(&wire));
        let first = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(first.kind, FrameKind::Data);
        assert_eq!(first.payload, b"if true then go else stop");
        let second = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(second, Frame { kind: FrameKind::Close, payload: vec![] });
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF after last frame");
    }

    #[test]
    fn oversized_frames_rejected_both_ways() {
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, FrameKind::Data, &vec![0u8; MAX_FRAME + 1]).unwrap_err();
        assert!(matches!(err, Error::Protocol(_)), "{err}");
        assert!(wire.is_empty(), "nothing hit the wire");

        // A hostile length prefix must be rejected before allocation.
        let mut hostile = vec![FrameKind::Data.byte()];
        hostile.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut Cursor::new(&hostile)).unwrap_err();
        assert!(err.to_string().contains("exceeds max"), "{err}");
    }

    #[test]
    fn truncation_and_garbage_are_protocol_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Data, b"hello").unwrap();
        // Chop mid-payload and mid-header.
        for cut in [wire.len() - 2, 3] {
            let err = read_frame(&mut Cursor::new(&wire[..cut])).unwrap_err();
            assert!(err.to_string().contains("truncated"), "cut {cut}: {err}");
        }
        let garbage = [0x7fu8, 0, 0, 0, 0];
        let err = read_frame(&mut Cursor::new(&garbage[..])).unwrap_err();
        assert!(err.to_string().contains("unknown frame kind"), "{err}");
    }

    #[test]
    fn borrowed_reader_yields_frames_across_pushes() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Data, b"hello").unwrap();
        write_frame(&mut wire, FrameKind::Close, b"").unwrap();
        let mut reader = FrameReader::new();
        // Nothing buffered, nothing decodable.
        assert!(reader.next_frame().unwrap().is_none());
        // Push everything but the last byte: still only a partial
        // second frame after the first is yielded.
        reader.push(&wire[..wire.len() - 1]);
        {
            let frame = reader.next_frame().unwrap().expect("first frame complete");
            assert_eq!(frame.kind, FrameKind::Data);
            assert_eq!(frame.payload, b"hello");
            assert_eq!(frame.to_frame().payload, b"hello");
        }
        assert!(reader.next_frame().unwrap().is_none(), "second frame still partial");
        assert_eq!(reader.buffered(), HEADER_LEN - 1, "partial header remains");
        reader.push(&wire[wire.len() - 1..]);
        let frame = reader.next_frame().unwrap().expect("second frame complete");
        assert_eq!(frame.kind, FrameKind::Close);
        assert!(frame.payload.is_empty());
        assert!(reader.next_frame().unwrap().is_none());
        assert_eq!(reader.buffered(), 0, "everything consumed");
    }

    #[test]
    fn borrowed_reader_rejects_bad_headers_like_read_frame() {
        // Unknown kind byte.
        let mut reader = FrameReader::new();
        reader.push(&[0x7f, 0, 0, 0, 0]);
        let err = reader.next_frame().unwrap_err();
        assert!(err.to_string().contains("unknown frame kind"), "{err}");
        // Oversized length prefix: rejected as soon as the header is
        // complete, before any payload is buffered.
        let mut reader = FrameReader::new();
        reader.push(&[FrameKind::Data.byte()]);
        reader.push(&u32::MAX.to_le_bytes());
        let err = reader.next_frame().unwrap_err();
        assert!(err.to_string().contains("exceeds max"), "{err}");
    }

    #[test]
    fn frames_leave_in_one_write() {
        /// Records the buffer of every `write` call.
        #[derive(Default)]
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writes::default();
        write_frame(&mut w, FrameKind::Ack, b"payload").unwrap();
        let mut expect = vec![FrameKind::Ack.byte()];
        expect.extend_from_slice(&7u32.to_le_bytes());
        expect.extend_from_slice(b"payload");
        assert_eq!(w.0, vec![expect], "header and payload share one write");
    }

    mod chunking_borrow_props {
        use super::*;
        use proptest::prelude::*;

        /// Decode `wire` through the borrow-based reader, pushing it in
        /// chunks whose sizes cycle through `splits`.
        fn decode_borrowed(wire: &[u8], splits: &[usize]) -> Result<Vec<Frame>, Error> {
            let mut reader = FrameReader::new();
            let mut frames = Vec::new();
            let mut pos = 0;
            let mut turn = 0;
            while pos < wire.len() {
                let n = splits[turn % splits.len()].max(1).min(wire.len() - pos);
                turn += 1;
                reader.push(&wire[pos..pos + n]);
                pos += n;
                while let Some(frame) = reader.next_frame()? {
                    frames.push(frame.to_frame());
                }
            }
            Ok(frames)
        }

        /// Decode `wire` through the owned blocking path.
        fn decode_owned(wire: &[u8]) -> Result<Vec<Frame>, Error> {
            let mut cursor = std::io::Cursor::new(wire);
            let mut frames = Vec::new();
            while let Some(frame) = read_frame(&mut cursor)? {
                frames.push(frame);
            }
            Ok(frames)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The borrowed decode path is byte-for-byte equivalent to
            /// the owned one under arbitrary chunk splits, including
            /// 1-byte dribbles.
            #[test]
            fn borrowed_equals_owned_under_chunk_splits(
                payloads in prop::collection::vec(
                    prop::collection::vec(any::<u8>(), 0..48usize),
                    1..6,
                ),
                splits in prop::collection::vec(1usize..7, 1..32),
            ) {
                let kinds = [FrameKind::Data, FrameKind::Close, FrameKind::Ack];
                let mut wire = Vec::new();
                for (i, p) in payloads.iter().enumerate() {
                    write_frame(&mut wire, kinds[i % kinds.len()], p).unwrap();
                }
                let owned = decode_owned(&wire).unwrap();
                prop_assert_eq!(owned.len(), payloads.len());
                for split_plan in [&splits[..], &[1][..], &[wire.len().max(1)][..]] {
                    let borrowed = decode_borrowed(&wire, split_plan).unwrap();
                    prop_assert_eq!(&borrowed, &owned);
                }
            }

            /// Both paths reject an oversized length prefix at every
            /// split, and agree it is a protocol error.
            #[test]
            fn borrowed_rejects_oversized_at_every_split(
                extra in 1u32..100_000,
                split in 1usize..8,
            ) {
                let mut wire = vec![FrameKind::Data.byte()];
                wire.extend_from_slice(&(MAX_FRAME as u32 + extra).to_le_bytes());
                wire.extend_from_slice(&[0u8; 16]);
                let owned = decode_owned(&wire).unwrap_err();
                let borrowed = decode_borrowed(&wire, &[split]).unwrap_err();
                prop_assert!(matches!(owned, Error::Protocol(_)));
                prop_assert!(matches!(borrowed, Error::Protocol(_)));
            }
        }
    }

    #[test]
    fn events_round_trip() {
        use cfg_grammar::TokenId;
        let events = vec![
            TagEvent { token: TokenId(0), start: 0, end: 2 },
            TagEvent { token: TokenId(7), start: 10, end: 14 },
        ];
        let wire = encode_events(&events);
        assert_eq!(wire.len(), 2 * EVENT_LEN);
        assert_eq!(decode_events(&wire).unwrap(), events);
        assert!(decode_events(&wire[..EVENT_LEN - 1]).is_err());
    }
}
