//! JSON-lines framing: one frame per `\n`-terminated line.
//!
//! [`FrameReader`] pulls lines off any [`Read`] while tolerating two
//! realities of a long-lived daemon socket: **read timeouts** (workers poll
//! with a socket timeout so they notice the shutdown flag; a timeout
//! mid-line must not drop the bytes already buffered) and **oversized
//! frames** (a line that exceeds the ceiling is rejected without buffering
//! it all, and the connection must close because the stream can no longer
//! be resynchronized). Blank lines are skipped; a final line terminated by
//! EOF instead of `\n` still counts as a frame.

use crate::protocol::{ProtocolError, Request, RequestFrame, Response, ResponseFrame};
use serde::{Deserialize, Deserializer, Kind, Serialize};
use std::borrow::Cow;
use std::cell::Cell;
use std::io::{self, Read, Write};

/// Default per-frame ceiling: generous for inline schemas and layouts,
/// small enough that a stray binary stream cannot balloon the buffer.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// What one [`FrameReader::next_line`] poll produced.
#[derive(Debug)]
pub enum Lined {
    /// A complete line (without the terminator).
    Line(String),
    /// The peer closed the stream (any buffered partial line was empty).
    Eof,
    /// The read timed out before a full line arrived; poll again. Any
    /// partial line stays buffered.
    TimedOut,
    /// The current line exceeded the ceiling; the caller must close the
    /// connection after reporting [`ProtocolError::Oversized`].
    Oversized,
}

/// Incremental line reader with a persistent buffer.
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for `\n` in previous polls.
    scanned: usize,
    limit: usize,
    /// Set once a line overflows: the rest of the stream is garbage.
    poisoned: bool,
}

impl<R: Read> FrameReader<R> {
    /// Wrap `inner`, rejecting lines longer than `limit` bytes.
    pub fn new(inner: R, limit: usize) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::new(),
            scanned: 0,
            limit,
            poisoned: false,
        }
    }

    /// Pull the next line, blocking at most one underlying read.
    pub fn next_line(&mut self) -> io::Result<Lined> {
        loop {
            if self.poisoned {
                return Ok(Lined::Oversized);
            }
            // Scan only the unscanned tail for a terminator.
            if let Some(pos) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + pos;
                // A terminated line can still be over the ceiling (the
                // whole thing may arrive in one read).
                if end > self.limit {
                    self.poisoned = true;
                    return Ok(Lined::Oversized);
                }
                let text = take_line(&mut self.buf, end, end + 1);
                self.scanned = 0;
                if text.is_empty() {
                    continue; // blank keep-alive line
                }
                return Ok(Lined::Line(text));
            }
            self.scanned = self.buf.len();
            if self.buf.len() > self.limit {
                self.poisoned = true;
                return Ok(Lined::Oversized);
            }
            let mut chunk = [0u8; 8 << 10];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    // EOF: a non-empty remainder is the final, unterminated
                    // frame.
                    let len = self.buf.len();
                    let text = take_line(&mut self.buf, len, len);
                    self.scanned = 0;
                    if text.is_empty() {
                        return Ok(Lined::Eof);
                    }
                    return Ok(Lined::Line(text));
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(Lined::TimedOut);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// Take the first `consumed` bytes off `buf`, answering the first `len`
/// of them as text: invalid UTF-8 replaced, surrounding whitespace
/// trimmed. The text is the one allocation.
fn take_line(buf: &mut Vec<u8>, len: usize, consumed: usize) -> String {
    let text = match String::from_utf8_lossy(&buf[..len]) {
        Cow::Borrowed(text) => text.trim().to_owned(),
        Cow::Owned(mut text) => {
            text.truncate(text.trim_end().len());
            let lead = text.len() - text.trim_start().len();
            text.drain(..lead);
            text
        }
    };
    buf.drain(..consumed);
    text
}

/// Parse one line into a [`RequestFrame`], in one pass.
///
/// On failure the error frame carries the client's correlation id when the
/// line revealed one, and id `0` otherwise — so clients can still match
/// rejects to requests. A line that is well-formed JSON reveals the
/// top-level numeric `id` wherever it stands. A line that is not (it is
/// cut short, or nests past the recursion limit) reveals an `id` read
/// before anything went wrong, provided a `,`, `}` or whitespace follows
/// its digits: an id cut off by the end of the line is not trusted, since
/// more digits may have followed.
pub fn parse_request(line: &str) -> Result<RequestFrame, ResponseFrame> {
    let mut de = serde_json::Deserializer::new(line);
    let mut id_seen = None;
    decode_request(&mut de, &mut id_seen).map_err(|err| ResponseFrame {
        id: id_seen.unwrap_or(0),
        response: Response::Error {
            error: ProtocolError::Malformed {
                reason: err.to_string(),
            },
        },
    })
}

/// The body of [`parse_request`]: the derived `RequestFrame` decode (first
/// key wins, unknown keys skipped, errors in field order), noting in
/// `id_seen` the id a reject may answer.
fn decode_request(
    de: &mut serde_json::Deserializer<'_>,
    id_seen: &mut Option<u64>,
) -> Result<RequestFrame, serde::Error> {
    if de.peek()? != Kind::Map {
        let err = serde::Error::expected("object", "RequestFrame");
        de.recover(de.mark())?;
        de.end()?;
        return Err(err);
    }
    de.begin_map()?;
    let mut id: Option<Result<u64, serde::Error>> = None;
    let mut request: Option<Result<Request, serde::Error>> = None;
    // Every field so far decoded.
    let mut clean = true;
    while let Some(key) = de.next_key()? {
        match key {
            "id" if id.is_none() => {
                let read = serde::attempt(de, u64::deserialize)?;
                let ended = de.rest().starts_with([',', '}', ' ', '\t', '\n', '\r']);
                if let (Ok(n), true, true) = (&read, clean, ended) {
                    *id_seen = Some(*n);
                }
                clean &= read.is_ok();
                id = Some(read);
            }
            "request" if request.is_none() => {
                let mark = de.mark();
                let read = request.insert(Request::deserialize(de));
                if read.is_err() {
                    clean = false;
                    de.recover(mark)?;
                }
            }
            _ => de.skip()?,
        }
    }
    de.end()?;
    // Well-formed JSON: any id that decoded answers.
    if let Some(Ok(n)) = id {
        *id_seen = Some(n);
    }
    Ok(RequestFrame {
        id: id.unwrap_or_else(|| Err(serde::Error::missing_field("RequestFrame", "id")))?,
        request: request
            .unwrap_or_else(|| Err(serde::Error::missing_field("RequestFrame", "request")))?,
    })
}

/// Write one frame as a JSON line (the only encoder the daemon uses, so
/// the terminator cannot drift between call sites). The line, terminator
/// included, goes out in a single `write_all`: the daemon's sockets are
/// unbuffered, so a frame never reaches a client in pieces.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, frame: &T) -> io::Result<()> {
    write_json(w, frame, "\n")
}

thread_local! {
    /// Each thread's encode buffer, reused from frame to frame.
    static ENCODE_BUF: Cell<String> = const { Cell::new(String::new()) };
}

/// Encode buffers larger than this are freed after use rather than kept
/// per thread: they hold one unusually large document, not a typical
/// frame.
const RETAINED_BUF_BYTES: usize = 1 << 20;

/// Write `value`'s compact JSON followed by `terminator` with exactly one
/// `write_all`, encoding into the calling thread's reused buffer.
pub(crate) fn write_json<W: Write, T: Serialize + ?Sized>(
    w: &mut W,
    value: &T,
    terminator: &str,
) -> io::Result<()> {
    let mut buf = ENCODE_BUF.take();
    buf.clear();
    serde_json::append_to_string(&mut buf, value);
    buf.push_str(terminator);
    let written = w.write_all(buf.as_bytes());
    if buf.capacity() <= RETAINED_BUF_BYTES {
        ENCODE_BUF.set(buf);
    }
    written
}

/// Parse one response line — the client-side mirror of [`parse_request`],
/// used by tests and by `dot-cli serve`'s self-checks.
pub fn parse_response(line: &str) -> Result<ResponseFrame, String> {
    serde_json::from_str::<ResponseFrame>(line).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;

    #[test]
    fn lines_split_and_blank_lines_are_skipped() {
        let data = b"{\"a\":1}\n\n   \n{\"b\":2}";
        let mut r = FrameReader::new(&data[..], 1024);
        match r.next_line().unwrap() {
            Lined::Line(l) => assert_eq!(l, "{\"a\":1}"),
            other => panic!("{other:?}"),
        }
        // Blanks skipped; EOF-terminated final frame still delivered.
        match r.next_line().unwrap() {
            Lined::Line(l) => assert_eq!(l, "{\"b\":2}"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(r.next_line().unwrap(), Lined::Eof));
    }

    #[test]
    fn invalid_utf8_is_replaced_and_the_line_trimmed() {
        let data = b"  {\"a\":\xff}\t \n \xfe\n";
        let mut r = FrameReader::new(&data[..], 1024);
        for want in ["{\"a\":\u{fffd}}", "\u{fffd}"] {
            match r.next_line().unwrap() {
                Lined::Line(l) => assert_eq!(l, want),
                other => panic!("{other:?}"),
            }
        }
        assert!(matches!(r.next_line().unwrap(), Lined::Eof));
    }

    #[test]
    fn oversized_lines_poison_the_reader() {
        let data = [b'x'; 64];
        let mut r = FrameReader::new(&data[..], 16);
        assert!(matches!(r.next_line().unwrap(), Lined::Oversized));
        assert!(matches!(r.next_line().unwrap(), Lined::Oversized));
    }

    #[test]
    fn id_is_recovered_from_malformed_requests_when_present() {
        let err = parse_request("{\"id\": 42, \"request\": {\"Nope\": {}}}").unwrap_err();
        assert_eq!(err.id, 42);
        let err = parse_request("not json at all").unwrap_err();
        assert_eq!(err.id, 0);
    }

    #[test]
    fn id_recovery_is_not_lossy_at_the_u64_extremes() {
        // Regression: `as_f64().map(|f| f as u64)` corrupted ids above
        // 2^53. u64::MAX must survive recovery...
        let line = format!("{{\"id\": {}, \"request\": {{\"Nope\": {{}}}}}}", u64::MAX);
        let err = parse_request(&line).unwrap_err();
        assert_eq!(err.id, u64::MAX);
        // ...and a negative id must fall back to 0, not wrap to a bogus
        // huge positive the client never sent.
        let err = parse_request("{\"id\": -7, \"request\": {\"Nope\": {}}}").unwrap_err();
        assert_eq!(err.id, 0);
    }

    #[test]
    fn a_frame_that_fails_after_its_id_is_answered_with_that_id() {
        // Nested past the parser's recursion limit: not valid JSON, so the
        // id comes from the line's leading `{"id":7`.
        let line = format!(
            "{{\"id\":7,\"request\":{}{}}}",
            "[".repeat(200),
            "]".repeat(200)
        );
        let err = parse_request(&line).unwrap_err();
        assert_eq!(err.id, 7);
        assert!(matches!(
            err.response,
            Response::Error {
                error: ProtocolError::Malformed { .. }
            }
        ));
        assert_eq!(
            parse_request("{ \"id\" : 9 , \"request\": [")
                .unwrap_err()
                .id,
            9
        );
        assert_eq!(parse_request("{\"id\":7,").unwrap_err().id, 7);
        // No trustworthy leading id: a negative or cut-off number, a
        // later key, or no object at all.
        for line in [
            "{\"id\":-7,\"request\":[",
            "{\"id\":7",
            "{\"id\":7.5,\"request\":[",
            "{\"request\":[],\"id\":7,",
            "[{\"id\":7,",
            "{\"id\":99999999999999999999,\"request\":[",
        ] {
            assert_eq!(parse_request(line).unwrap_err().id, 0, "{line}");
        }
    }

    #[test]
    fn a_frame_whose_request_fails_answers_the_id_on_either_side_of_it() {
        // The id decoded before the request failed to.
        let err =
            parse_request("{\"id\":7,\"request\":{\"Observe\":{\"tenant\":\"x\",\"step\":{}}}}")
                .unwrap_err();
        assert_eq!(err.id, 7);
        // The failed request is skipped and the scan goes on to the id.
        let err = parse_request("{\"request\":{\"Nope\":{}},\"id\":42}").unwrap_err();
        assert_eq!(err.id, 42);
        match err.response {
            Response::Error {
                error: ProtocolError::Malformed { reason },
            } => assert_eq!(reason, "unknown variant `Nope` of Request"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn frames_round_trip_through_write_and_parse() {
        let frame = RequestFrame {
            id: 7,
            request: Request::Hello { version: 1 },
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let line = String::from_utf8(buf).unwrap();
        assert!(line.ends_with('\n'));
        assert_eq!(parse_request(line.trim()).unwrap(), frame);
    }

    #[test]
    fn each_frame_reaches_the_writer_in_one_write() {
        /// Records every `write` call it receives.
        #[derive(Default)]
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let frames = [
            RequestFrame {
                id: 7,
                request: Request::Hello { version: 1 },
            },
            RequestFrame {
                id: u64::MAX,
                request: Request::DetachTenant { tenant: 3 },
            },
        ];
        let mut writes = Writes::default();
        for frame in &frames {
            write_frame(&mut writes, frame).unwrap();
        }
        assert_eq!(writes.0.len(), frames.len());
        for (bytes, frame) in writes.0.iter().zip(&frames) {
            assert_eq!(
                *bytes,
                format!("{}\n", serde_json::to_string(frame).unwrap()).into_bytes()
            );
        }
    }
}
