//! A small synchronous client for the line-delimited JSON protocol, used
//! by `slade-cli client`, the loopback benchmarks, and the e2e tests.
//!
//! Besides the strict request/response [`Client::roundtrip`], the client
//! speaks the protocol's pipelining dialect: [`Client::pipeline`] tags
//! requests with `seq`, keeps a window of them in flight on one
//! connection, and reorders the out-of-order responses back into request
//! order.

use crate::line::LineBuffer;
use slade_json::{self as json, member, Json};
use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected protocol client. One request/response pair at a time
/// ([`Client::roundtrip`]); responses arrive in request order because a
/// session serves its connection sequentially.
pub struct Client {
    stream: TcpStream,
    /// Bytes received but not yet consumed as a complete line — framed by
    /// the same [`LineBuffer`] the server's sessions use. Uncapped: the
    /// server is trusted, and full-plan responses are legitimately large.
    lines: LineBuffer,
    /// Outgoing line plus its newline, reused so each request goes out in
    /// one write (one segment under `TCP_NODELAY`, not two).
    framed: Vec<u8>,
}

impl Client {
    /// Connects with a 30-second read timeout, so a wedged server surfaces
    /// as an error instead of a hang (tighten with
    /// [`Client::set_read_timeout`]).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            lines: LineBuffer::new(usize::MAX),
            framed: Vec::new(),
        })
    }

    /// Bounds how long [`Client::recv_line`] may block; `None` waits
    /// forever.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one raw request line (the newline is appended here); line and
    /// newline leave in a single write.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.framed.clear();
        self.framed.extend_from_slice(line.as_bytes());
        self.framed.push(b'\n');
        self.stream.write_all(&self.framed)?;
        self.stream.flush()
    }

    /// Receives one response line (without its newline).
    pub fn recv_line(&mut self) -> io::Result<String> {
        loop {
            if let Some(line) = self.lines.next_line() {
                let text = String::from_utf8(line).map_err(|e| {
                    io::Error::new(ErrorKind::InvalidData, format!("non-UTF-8 response: {e}"))
                })?;
                return Ok(text.trim_end_matches(['\n', '\r']).to_string());
            }
            let mut chunk = [0u8; 8192];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection mid-response",
                    ))
                }
                Ok(n) => self.lines.extend(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one request line and returns the matching response line.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.send_line(line)?;
        self.recv_line()
    }

    /// [`Client::roundtrip`] at the [`Json`] level: serializes the
    /// request, parses the response (a malformed response is an
    /// [`ErrorKind::InvalidData`] error — the server always answers in
    /// valid JSON).
    pub fn request(&mut self, request: &Json) -> io::Result<Json> {
        let line = self.roundtrip(&request.to_string())?;
        json::parse(&line).map_err(|e| {
            io::Error::new(
                ErrorKind::InvalidData,
                format!("unparseable response `{line}`: {e}"),
            )
        })
    }

    /// Issues `lines` with up to `window` requests in flight on this one
    /// connection, returning the responses **in request order** (each with
    /// its echoed `seq` member — strip it when comparing against sequential
    /// responses).
    ///
    /// Lines whose verb supports pipelining (`solve` — including the bare
    /// default — `batch`, `resubmit`) and that carry no `seq` of their own
    /// are tagged with `"seq": <line index>` and streamed. Everything else —
    /// `stats`, `shutdown`, unknown verbs, malformed lines, lines already
    /// tagged — acts as a **barrier**: every outstanding response is
    /// collected first, then the line runs as a plain round trip at its
    /// position in the stream. (That keeps "`shutdown` as the last line"
    /// scripts working unchanged, and matches the server's rule that stats
    /// and shutdown answer in stream position.)
    ///
    /// A streamed line the *server* rejects (unknown field, bad engine
    /// values) is not an error of this call: the server echoes the tag on
    /// its structured error response, so the `{"ok":false,…}` line lands in
    /// the request's slot like any other response.
    ///
    /// Empty/whitespace lines produce an empty response string (the server
    /// treats them as JSONL padding and never answers them).
    pub fn pipeline<S: AsRef<str>>(
        &mut self,
        lines: &[S],
        window: usize,
    ) -> io::Result<Vec<String>> {
        let window = window.max(1);
        let mut responses: Vec<Option<String>> = (0..lines.len()).map(|_| None).collect();
        // seq (the line index) → response slot still outstanding.
        let mut outstanding: HashMap<u64, usize> = HashMap::new();
        for (index, line) in lines.iter().enumerate() {
            let line = line.as_ref().trim();
            if line.is_empty() {
                responses[index] = Some(String::new());
                continue;
            }
            match tag_with_seq(line, index as u64) {
                Some(tagged) => {
                    while outstanding.len() >= window {
                        self.collect_one(&mut outstanding, &mut responses)?;
                    }
                    self.send_line(&tagged.to_string())?;
                    outstanding.insert(index as u64, index);
                }
                None => {
                    // Barrier: drain the window, then run in line.
                    while !outstanding.is_empty() {
                        self.collect_one(&mut outstanding, &mut responses)?;
                    }
                    responses[index] = Some(self.roundtrip(line)?);
                }
            }
        }
        while !outstanding.is_empty() {
            self.collect_one(&mut outstanding, &mut responses)?;
        }
        Ok(responses
            .into_iter()
            .map(|slot| slot.expect("every line is answered or padded"))
            .collect())
    }

    /// Receives one pipelined response and files it under its echoed seq.
    fn collect_one(
        &mut self,
        outstanding: &mut HashMap<u64, usize>,
        responses: &mut [Option<String>],
    ) -> io::Result<()> {
        let line = self.recv_line()?;
        let invalid =
            |what: &str| io::Error::new(ErrorKind::InvalidData, format!("{what}: `{line}`"));
        let value = json::parse(&line).map_err(|_| invalid("unparseable pipelined response"))?;
        let seq = value
            .get("seq")
            .and_then(Json::as_f64)
            .ok_or_else(|| invalid("pipelined response without a numeric seq"))?;
        let index = outstanding
            .remove(&(seq as u64))
            .ok_or_else(|| invalid("pipelined response with an unknown seq"))?;
        responses[index] = Some(line);
        Ok(())
    }
}

/// Tags `line` for pipelining, or `None` when it must run as a barrier.
fn tag_with_seq(line: &str, seq: u64) -> Option<Json> {
    let value = json::parse(line).ok()?;
    let members = value.members()?;
    let op = match value.get("op") {
        None => "solve",
        Some(v) => v.as_str()?,
    };
    if !matches!(op, "solve" | "batch" | "resubmit") || value.get("seq").is_some() {
        return None;
    }
    let mut members = members.to_vec();
    members.push(member("seq", Json::number(seq as f64)));
    Some(Json::Object(members))
}
