//! The line protocol: one request line in, one counted frame out.
//!
//! A request is a single `\n`-terminated line whose whitespace-separated
//! tokens are exactly the batch CLI's argv (`estimate c880ish --top 3`).
//! A response is a header line — `ok <n>` or `err <n>` — followed by
//! exactly `n` payload lines.  The payload is the verb's rendered text
//! with its single trailing newline stripped and split on `\n`; the
//! receiver joins the lines back and re-appends the newline, so batch
//! and served output are byte-identical.
//!
//! Robustness rules, all structured (never a panic or a hang):
//! - a request line is capped at [`MAX_LINE`] bytes; an oversized line
//!   gets an `err` frame and the connection closes (the stream offset is
//!   no longer trustworthy),
//! - bytes that are not valid UTF-8 get an `err` frame and a close,
//! - reads are bounded by the socket's read timeout plus the session's
//!   idle callback, so a wedged peer cannot pin a thread forever.

use std::io::Read;

/// Upper bound on one request or response line, in bytes.
pub const MAX_LINE: usize = 64 * 1024;

/// Splits a request line into CLI argv tokens.
pub fn tokenize(line: &str) -> Vec<String> {
    line.split_whitespace().map(ToString::to_string).collect()
}

/// Renders a verb result as a counted frame, ready to write.
pub fn frame(result: &Result<String, String>) -> String {
    let (tag, payload) = match result {
        Ok(p) => ("ok", p.as_str()),
        Err(e) => ("err", e.as_str()),
    };
    let body = payload.strip_suffix('\n').unwrap_or(payload);
    let mut out = String::with_capacity(body.len() + 16);
    if body.is_empty() {
        out.push_str(tag);
        out.push_str(" 0\n");
    } else {
        let n = body.split('\n').count();
        out.push_str(tag);
        out.push(' ');
        out.push_str(&n.to_string());
        out.push('\n');
        out.push_str(body);
        out.push('\n');
    }
    out
}

/// Incremental, bounded, timeout-tolerant line reader over a socket (or
/// anything `Read`).  Leftover bytes after a `\n` are kept for the next
/// call, so pipelined requests on one connection parse correctly.
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Set once the stream has reached EOF; later calls return `None`
    /// without touching the socket again.
    eof: bool,
}

impl<R: Read> LineReader<R> {
    pub fn new(inner: R) -> Self {
        LineReader {
            inner,
            buf: Vec::new(),
            eof: false,
        }
    }

    /// Reads the next line (without its terminator; a trailing `\r` is
    /// also stripped).  Returns `Ok(None)` at EOF.
    ///
    /// `on_idle` runs whenever a read times out — return `false` to
    /// abandon the wait (session shutdown, cancellation).
    ///
    /// # Errors
    ///
    /// Oversized lines, invalid UTF-8, abandoned waits, and transport
    /// failures are rendered messages; after any of them the stream
    /// offset is unreliable and the connection should close.
    pub fn read_line(
        &mut self,
        on_idle: &mut dyn FnMut() -> bool,
    ) -> Result<Option<String>, String> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                // A line that arrived whole is still subject to the cap —
                // a single large read must not bypass it.
                if pos > MAX_LINE {
                    return Err(format!("line exceeds the {MAX_LINE} byte protocol cap"));
                }
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop(); // the \n
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                let line = String::from_utf8(line)
                    .map_err(|_| "request is not valid UTF-8".to_string())?;
                return Ok(Some(line));
            }
            if self.eof {
                // Unterminated trailing bytes still form a final line:
                // `printf 'stat' | nc` should work.
                if self.buf.is_empty() {
                    return Ok(None);
                }
                let line = String::from_utf8(std::mem::take(&mut self.buf))
                    .map_err(|_| "request is not valid UTF-8".to_string())?;
                return Ok(Some(line));
            }
            if self.buf.len() > MAX_LINE {
                return Err(format!("line exceeds the {MAX_LINE} byte protocol cap"));
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if !on_idle() {
                        return Err("wait abandoned (session shutting down)".to_string());
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("transport error: {e}")),
            }
        }
    }
}

/// Reads one counted response frame; the outer `Err` is a transport or
/// framing failure, the inner result mirrors the server's verb result.
///
/// # Errors
///
/// Malformed headers, truncated payloads, and transport failures.
pub fn read_response<R: Read>(
    reader: &mut LineReader<R>,
    on_idle: &mut dyn FnMut() -> bool,
) -> Result<Result<String, String>, String> {
    let header = reader
        .read_line(on_idle)?
        .ok_or_else(|| "connection closed before a response arrived".to_string())?;
    let (tag, count_raw) = header
        .split_once(' ')
        .ok_or_else(|| format!("malformed response header `{header}`"))?;
    let n: usize = count_raw
        .parse()
        .map_err(|_| format!("malformed response line count `{count_raw}`"))?;
    // A hostile or confused server cannot make us allocate unboundedly.
    if n > 1_000_000 {
        return Err(format!("response claims {n} lines; refusing"));
    }
    let mut payload = String::new();
    for _ in 0..n {
        let line = reader
            .read_line(on_idle)?
            .ok_or_else(|| "response truncated mid-payload".to_string())?;
        payload.push_str(&line);
        payload.push('\n');
    }
    match tag {
        "ok" => Ok(Ok(payload)),
        "err" => Ok(Err(payload)),
        other => Err(format!("malformed response tag `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn always() -> impl FnMut() -> bool {
        || true
    }

    #[test]
    fn frame_counts_lines_and_roundtrips() {
        for case in [
            Ok("one\ntwo\n".to_string()),
            Ok(String::new()),
            Ok("no trailing newline".to_string()),
            Ok("blank\n\ninside\n".to_string()),
            Err("bad verb\nusage...\n".to_string()),
        ] {
            let encoded = frame(&case);
            let mut reader = LineReader::new(encoded.as_bytes());
            let decoded = read_response(&mut reader, &mut always()).expect("frames parse");
            let normalize = |s: &String| {
                let b = s.strip_suffix('\n').unwrap_or(s).to_string();
                if b.is_empty() {
                    String::new()
                } else {
                    format!("{b}\n")
                }
            };
            match (&case, &decoded) {
                (Ok(a), Ok(b)) | (Err(a), Err(b)) => assert_eq!(&normalize(a), b),
                other => panic!("tag flipped: {other:?}"),
            }
        }
    }

    #[test]
    fn reader_handles_pipelining_crlf_and_eof_tails() {
        let mut r = LineReader::new(&b"first\r\nsecond\nunterminated"[..]);
        assert_eq!(
            r.read_line(&mut always()).unwrap().as_deref(),
            Some("first")
        );
        assert_eq!(
            r.read_line(&mut always()).unwrap().as_deref(),
            Some("second")
        );
        assert_eq!(
            r.read_line(&mut always()).unwrap().as_deref(),
            Some("unterminated")
        );
        assert_eq!(r.read_line(&mut always()).unwrap(), None);
        assert_eq!(r.read_line(&mut always()).unwrap(), None, "EOF is sticky");
    }

    #[test]
    fn oversized_and_non_utf8_lines_are_structured_errors() {
        let big = vec![b'x'; MAX_LINE + 10];
        let mut r = LineReader::new(&big[..]);
        let err = r.read_line(&mut always()).unwrap_err();
        assert!(err.contains("byte protocol cap"), "{err}");

        let mut r = LineReader::new(&b"\xff\xfe garbage\n"[..]);
        let err = r.read_line(&mut always()).unwrap_err();
        assert!(err.contains("UTF-8"), "{err}");
    }

    #[test]
    fn hostile_line_counts_are_refused() {
        let mut r = LineReader::new(&b"ok 99999999999\n"[..]);
        assert!(read_response(&mut r, &mut always()).is_err());
        let mut r = LineReader::new(&b"ok two\nx\ny\n"[..]);
        assert!(read_response(&mut r, &mut always()).is_err());
        let mut r = LineReader::new(&b"yes 1\nx\n"[..]);
        assert!(read_response(&mut r, &mut always()).is_err());
        let mut r = LineReader::new(&b"ok 5\nx\n"[..]);
        let err = read_response(&mut r, &mut always()).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn tokenize_is_the_cli_argv_split() {
        assert_eq!(
            tokenize("  estimate   c880ish --top 3 "),
            vec!["estimate", "c880ish", "--top", "3"]
        );
        assert!(tokenize("   ").is_empty());
    }
}
