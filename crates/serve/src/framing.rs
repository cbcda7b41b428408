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

use crate::protocol::{ProtocolError, RequestFrame, Response, ResponseFrame};
use serde::Serialize;
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
                let line: Vec<u8> = self.buf.drain(..=end).collect();
                self.scanned = 0;
                let text = String::from_utf8_lossy(&line[..line.len() - 1])
                    .trim()
                    .to_string();
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
                    let text = String::from_utf8_lossy(&self.buf).trim().to_string();
                    self.buf.clear();
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

/// Parse one line into a [`RequestFrame`].
///
/// On failure the error frame carries the client's correlation id when the
/// line got far enough to reveal one, and id `0` otherwise — so clients
/// can still match rejects to requests. A line that is valid JSON reveals
/// its id as an object's numeric `id`; a line that is not (a parse error
/// after the id, such as nesting past the recursion limit) reveals it as
/// a leading `{"id":<u64>`.
pub fn parse_request(line: &str) -> Result<RequestFrame, ResponseFrame> {
    match serde_json::from_str::<RequestFrame>(line) {
        Ok(frame) => Ok(frame),
        Err(err) => {
            let id = match serde_json::from_str::<serde::Value>(line) {
                // `as_u64`, not `as_f64 as u64`: the cast corrupted ids
                // above 2^53 and rounded negatives to huge positives.
                // Non-u64 ids (negative, fractional) fall back to 0 like a
                // missing id.
                Ok(serde::Value::Object(fields)) => {
                    fields
                        .iter()
                        .find_map(|(k, v)| if k == "id" { v.as_u64() } else { None })
                }
                Ok(_) => None,
                Err(_) => leading_id(line),
            }
            .unwrap_or(0);
            Err(ResponseFrame {
                id,
                response: Response::Error {
                    error: ProtocolError::Malformed {
                        reason: err.to_string(),
                    },
                },
            })
        }
    }
}

/// The id of a line that opens like a frame: `{`, the key `"id"`, `:`
/// and an unsigned integer ended by `,`, `}` or whitespace (JSON
/// whitespace allowed between the tokens). An id cut off by the end of
/// the line is not trusted: more digits may have followed.
fn leading_id(line: &str) -> Option<u64> {
    let rest = line
        .trim_start()
        .strip_prefix('{')?
        .trim_start()
        .strip_prefix("\"id\"")?
        .trim_start()
        .strip_prefix(':')?
        .trim_start();
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    let (digits, after) = rest.split_at(end);
    if after.starts_with(|c: char| c == ',' || c == '}' || c.is_ascii_whitespace()) {
        digits.parse().ok()
    } else {
        None
    }
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
