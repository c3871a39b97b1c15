//! Newline framing shared by the server's sessions and the [`Client`]:
//! one buffer type that accumulates raw reads and yields complete lines,
//! so the two sides of the protocol can never drift in how they split the
//! stream.
//!
//! [`Client`]: crate::client::Client

/// Accumulates raw bytes and yields complete newline-terminated lines.
///
/// Linear in the bytes fed, however they are split: lines are consumed by
/// advancing an offset, the newline scan resumes where the previous one
/// stopped, and the consumed prefix is dropped only when the scan comes up
/// empty — by then it is followed by at most one read's worth of bytes.
pub(crate) struct LineBuffer {
    buf: Vec<u8>,
    /// Start of the first unconsumed byte.
    start: usize,
    /// Bytes before this offset hold no newline past `start`.
    scanned: usize,
    /// Maximum bytes one line may occupy; [`LineBuffer::over_limit`] turns
    /// true when the pending (incomplete) line exceeds it.
    max_line: usize,
}

impl LineBuffer {
    pub fn new(max_line: usize) -> Self {
        LineBuffer {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            max_line,
        }
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete line (newline included), if one is buffered.
    pub fn next_line(&mut self) -> Option<Vec<u8>> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(offset) => {
                let end = self.scanned + offset + 1;
                let line = self.buf[self.start..end].to_vec();
                self.start = end;
                self.scanned = end;
                Some(line)
            }
            None => {
                self.buf.drain(..self.start);
                self.start = 0;
                self.scanned = self.buf.len();
                None
            }
        }
    }

    /// Takes whatever is buffered — the trailing line of a stream that
    /// ended without a final newline.
    pub fn take_rest(&mut self) -> Vec<u8> {
        let rest = self.buf.split_off(self.start);
        self.buf.clear();
        self.start = 0;
        self.scanned = 0;
        rest
    }

    /// Whether an incomplete line has outgrown the cap. Only meaningful
    /// after [`LineBuffer::next_line`] returned `None`: a buffer this full
    /// with no newline in sight can only keep growing.
    pub fn over_limit(&self) -> bool {
        self.buf.len() - self.start > self.max_line
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_lines_across_arbitrary_read_boundaries() {
        let mut lines = LineBuffer::new(1024);
        lines.extend(b"alpha\nbe");
        assert_eq!(lines.next_line().as_deref(), Some(b"alpha\n".as_slice()));
        assert_eq!(lines.next_line(), None);
        lines.extend(b"ta\n\ngam");
        assert_eq!(lines.next_line().as_deref(), Some(b"beta\n".as_slice()));
        assert_eq!(lines.next_line().as_deref(), Some(b"\n".as_slice()));
        assert_eq!(lines.next_line(), None);
        assert!(!lines.is_empty());
        assert_eq!(lines.take_rest(), b"gam".to_vec());
        assert!(lines.is_empty());
    }

    #[test]
    fn over_limit_trips_only_for_unterminated_overlong_lines() {
        let mut lines = LineBuffer::new(8);
        lines.extend(b"0123456789\n");
        // A complete line is extractable regardless of the cap...
        assert!(lines.next_line().is_some());
        // ...but an incomplete line beyond the cap trips the guard.
        lines.extend(b"0123456789");
        assert_eq!(lines.next_line(), None);
        assert!(lines.over_limit());
    }

    #[test]
    fn a_cap_sized_line_fed_in_small_reads_is_framed_in_linear_time() {
        // A newline-free line up to the server's 64 MiB cap, arriving in
        // 8 KiB reads: rescanning from the start after every read would be
        // quadratic (minutes of CPU); resuming the scan keeps it linear.
        const CAP: usize = 64 * 1024 * 1024;
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut lines = LineBuffer::new(CAP);
            let chunk = [b'x'; 8192];
            let mut fed = 0;
            while fed < CAP {
                lines.extend(&chunk);
                fed += chunk.len();
                assert_eq!(lines.next_line(), None);
            }
            assert!(!lines.over_limit());
            lines.extend(b"y");
            assert_eq!(lines.next_line(), None);
            assert!(lines.over_limit());
            lines.extend(b"\nnext");
            let line = lines.next_line().expect("the newline completes the line");
            assert_eq!(line.len(), CAP + 2);
            assert_eq!(lines.take_rest(), b"next".to_vec());
            let _ = done_tx.send(());
        });
        // Linear work is well under a second even unoptimized; the bound
        // only has to separate it from the quadratic rescan.
        done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("framing a cap-sized line took more than linear time");
    }

    #[test]
    fn many_short_lines_behind_a_partial_one_keep_their_order() {
        let mut lines = LineBuffer::new(1024);
        let mut expected = Vec::new();
        let mut stream = Vec::new();
        for i in 0..500 {
            let line = format!("line-{i}\n");
            stream.extend_from_slice(line.as_bytes());
            expected.push(line.into_bytes());
        }
        stream.extend_from_slice(b"tail");
        let mut got = Vec::new();
        for chunk in stream.chunks(7) {
            lines.extend(chunk);
            while let Some(line) = lines.next_line() {
                got.push(line);
            }
        }
        assert_eq!(got, expected);
        assert!(!lines.is_empty());
        assert_eq!(lines.take_rest(), b"tail".to_vec());
        assert!(lines.is_empty());
    }
}
