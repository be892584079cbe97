//! Newline framing for the reactor front-end.
//!
//! [`LineFramer`] turns an arbitrary chunk stream into complete request
//! lines with three properties the connection loops used to get wrong
//! or pay too much for:
//!
//! * **Linear-time scanning.** A scanned-offset watermark remembers
//!   that the buffered tail holds no newline, so each byte is examined
//!   exactly once however the sender splits its chunks. (The previous
//!   implementation re-ran `rposition` over the whole buffer per 4 KiB
//!   chunk — O(n²) on a large single-line upload.)
//! * **One copy per line.** Each complete line is decoded straight out
//!   of the buffer (`from_utf8_lossy`, so invalid UTF-8 stays on the
//!   structured-error path), instead of draining the batch into a
//!   scratch `Vec<u8>` and copying again into a `String`.
//! * **Resynchronization.** A line that exceeds the byte cap without
//!   terminating yields one [`FrameEvent::TooLarge`]; the framer then
//!   discards bytes until the next newline and picks the conversation
//!   back up. A long line that *does* complete within already-buffered
//!   data still parses — the cap is on unterminated accumulation.
//!
//! The framer also carries the slow-loris defense's ground truth:
//! [`LineFramer::has_partial`] is true exactly when the peer owes us a
//! newline, which is the condition under which a progress deadline may
//! be armed. Raw byte arrival is deliberately *not* progress.

/// One framing outcome, in input order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete, non-blank request line (CR stripped, lossily
    /// decoded).
    Line(String),
    /// An unterminated line outgrew the byte cap; the framer is now
    /// discarding until the next newline.
    TooLarge,
}

/// Incremental newline framer with a scanned-offset watermark.
#[derive(Debug)]
pub struct LineFramer {
    buf: Vec<u8>,
    /// Bytes `buf[..scanned]` are known newline-free; a push only
    /// examines what it appends.
    scanned: usize,
    /// Discarding until the next newline after a `TooLarge`.
    resyncing: bool,
    max_line_bytes: usize,
    /// Total bytes examined by the newline scan — the linearity
    /// regression test pins this to the bytes pushed.
    bytes_scanned: u64,
}

impl LineFramer {
    /// A framer refusing unterminated lines over `max_line_bytes`.
    pub fn new(max_line_bytes: usize) -> LineFramer {
        LineFramer {
            buf: Vec::new(),
            scanned: 0,
            resyncing: false,
            max_line_bytes,
            bytes_scanned: 0,
        }
    }

    /// Feeds one received chunk, appending the resulting events (if
    /// any) in input order.
    pub fn push(&mut self, mut data: &[u8], events: &mut Vec<FrameEvent>) {
        if self.resyncing {
            match data.iter().position(|&b| b == b'\n') {
                Some(newline) => {
                    self.bytes_scanned += (newline + 1) as u64;
                    data = &data[newline + 1..];
                    self.resyncing = false;
                }
                None => {
                    self.bytes_scanned += data.len() as u64;
                    return;
                }
            }
        }
        self.buf.extend_from_slice(data);
        let mut start = 0usize;
        let mut scan_from = self.scanned;
        while let Some(offset) = self.buf[scan_from..].iter().position(|&b| b == b'\n') {
            let newline = scan_from + offset;
            self.bytes_scanned += (newline + 1 - scan_from) as u64;
            self.emit(start, newline, events);
            start = newline + 1;
            scan_from = start;
        }
        self.bytes_scanned += (self.buf.len() - scan_from) as u64;
        if start > 0 {
            self.buf.drain(..start);
        }
        self.scanned = self.buf.len();
        if self.buf.len() > self.max_line_bytes {
            events.push(FrameEvent::TooLarge);
            self.buf.clear();
            self.scanned = 0;
            self.resyncing = true;
        }
    }

    /// EOF: a trailing unterminated line (within the cap, not being
    /// discarded) still gets served.
    pub fn finish(&mut self, events: &mut Vec<FrameEvent>) {
        if !self.resyncing && !self.buf.is_empty() {
            self.emit(0, self.buf.len(), events);
            self.buf.clear();
            self.scanned = 0;
        }
    }

    /// True while the peer owes us a newline: bytes are buffered or the
    /// framer is discarding an oversized line. This is the progress
    /// deadline's arming condition.
    pub fn has_partial(&self) -> bool {
        self.resyncing || !self.buf.is_empty()
    }

    /// Total bytes the newline scan has examined (each byte exactly
    /// once — see the module docs).
    #[cfg(test)]
    fn bytes_scanned(&self) -> u64 {
        self.bytes_scanned
    }

    fn emit(&self, start: usize, end: usize, events: &mut Vec<FrameEvent>) {
        let mut line = &self.buf[start..end];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        // Lossy decoding keeps invalid UTF-8 on the structured-error
        // path (the parser rejects it) instead of killing the
        // connection; blank lines are keep-alive noise, not requests.
        let text = String::from_utf8_lossy(line);
        if !text.trim().is_empty() {
            events.push(FrameEvent::Line(text.into_owned()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(framer: &mut LineFramer, data: &[u8]) -> Vec<FrameEvent> {
        let mut events = Vec::new();
        framer.push(data, &mut events);
        events
    }

    #[test]
    fn splits_lines_across_arbitrary_chunks() {
        let mut framer = LineFramer::new(1024);
        let mut events = Vec::new();
        for chunk in [&b"hel"[..], b"lo\nwor", b"ld\r\n", b"tail"] {
            framer.push(chunk, &mut events);
        }
        framer.finish(&mut events);
        assert_eq!(
            events,
            vec![
                FrameEvent::Line("hello".into()),
                FrameEvent::Line("world".into()),
                FrameEvent::Line("tail".into()),
            ]
        );
        assert!(!framer.has_partial());
    }

    #[test]
    fn blank_lines_are_dropped_and_crlf_stripped() {
        let mut framer = LineFramer::new(1024);
        let events = lines(&mut framer, b"\n  \r\n\na\n");
        assert_eq!(events, vec![FrameEvent::Line("a".into())]);
    }

    #[test]
    fn oversized_unterminated_lines_refuse_then_resync() {
        let mut framer = LineFramer::new(8);
        let mut events = Vec::new();
        framer.push(b"0123456789abcdef", &mut events);
        assert_eq!(events, vec![FrameEvent::TooLarge]);
        assert!(framer.has_partial(), "resync counts as owing a newline");
        events.clear();
        // Still discarding mid-chunk, then the newline ends the junk
        // and the rest of the same chunk parses normally.
        framer.push(b"junk tail\nok\n", &mut events);
        assert_eq!(events, vec![FrameEvent::Line("ok".into())]);
        assert!(!framer.has_partial());
    }

    #[test]
    fn long_lines_that_complete_within_buffered_data_still_parse() {
        let mut framer = LineFramer::new(8);
        // 16 bytes arrive in one chunk but the newline is in there:
        // complete lines are processed before the cap check.
        let events = lines(&mut framer, b"0123456789abcd\nz\n");
        assert_eq!(
            events,
            vec![
                FrameEvent::Line("0123456789abcd".into()),
                FrameEvent::Line("z".into()),
            ]
        );
    }

    #[test]
    fn finish_skips_a_line_being_discarded() {
        let mut framer = LineFramer::new(4);
        let mut events = Vec::new();
        framer.push(b"way too long", &mut events);
        events.clear();
        framer.finish(&mut events);
        assert_eq!(events, vec![], "discarded tail must not be served");
    }

    #[test]
    fn scanning_is_linear_in_bytes_pushed() {
        // Regression for the O(n²) rescan: a 1 MiB single line arriving
        // in 4 KiB chunks must examine each byte exactly once. The old
        // `rposition`-per-chunk implementation would have scanned
        // ~128 MiB here.
        let total = 1 << 20;
        let mut framer = LineFramer::new(2 << 20);
        let chunk = [b'x'; 4096];
        let mut events = Vec::new();
        for _ in 0..(total / chunk.len()) {
            framer.push(&chunk, &mut events);
        }
        assert_eq!(events, vec![]);
        assert_eq!(framer.bytes_scanned(), total as u64);
        framer.push(b"\n", &mut events);
        assert_eq!(events.len(), 1);
        assert_eq!(framer.bytes_scanned(), total as u64 + 1);
    }

    #[test]
    fn invalid_utf8_degrades_lossily_not_fatally() {
        let mut framer = LineFramer::new(64);
        let events = lines(&mut framer, b"\xff\xfe bad\n");
        match &events[..] {
            [FrameEvent::Line(line)] => assert!(line.contains('\u{FFFD}')),
            other => panic!("expected one line, got {other:?}"),
        }
    }
}
