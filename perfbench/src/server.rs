//! The server under test as a child process, and line-framed connections
//! to it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a spawned server may take to announce its address.
const ANNOUNCE_TIMEOUT: Duration = Duration::from_secs(30);

/// How the benchmark launches `slade-cli serve`.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    pub binary: PathBuf,
    pub threads: usize,
    pub cache: usize,
    pub journal: Option<PathBuf>,
}

/// A running `slade-cli serve` child. Dropping it kills the process.
pub struct ServerProcess {
    child: Child,
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl ServerProcess {
    /// Spawns the server on an ephemeral loopback port and waits for its
    /// announcement line on stderr.
    pub fn spawn(spec: &ServerSpec) -> Result<ServerProcess, String> {
        let mut command = Command::new(&spec.binary);
        command
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--threads", &spec.threads.to_string()])
            .args(["--cache", &spec.cache.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(journal) = &spec.journal {
            command.arg("--journal").arg(journal);
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", spec.binary.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(stderr).lines();
            if let Some(Ok(line)) = lines.next() {
                let _ = tx.send(line);
            }
            // Keep draining so the server never blocks on a full pipe.
            for line in lines.map_while(Result::ok) {
                eprintln!("server: {line}");
            }
        });
        let mut server = ServerProcess {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        let line = rx.recv_timeout(ANNOUNCE_TIMEOUT).map_err(|_| {
            "the server exited or stalled before announcing its address".to_string()
        })?;
        server.addr = line
            .rsplit(' ')
            .next()
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| format!("unexpected server announcement: {line}"))?;
        Ok(server)
    }

    /// Peak resident set size (`VmHWM`) in MiB, from `/proc`.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// SIGKILLs the process and reaps it.
    pub fn kill(mut self) -> Result<(), String> {
        self.reap(true)
    }

    /// Asks the server to drain and exit; kills it if it does not.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut conn) = Conn::connect(self.addr) {
            let _ = conn.roundtrip("{\"op\":\"shutdown\"}");
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return self.reap(false);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.reap(true)
    }

    fn reap(&mut self, kill: bool) -> Result<(), String> {
        if kill {
            let _ = self.child.kill();
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("reaping the server: {e}"));
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
        status.map(|_| ())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if self.stderr.is_some() {
            let _ = self.reap(true);
        }
    }
}

/// One client connection, framing requests and responses as lines.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Bytes of a response line whose read timed out part-way.
    partial: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            partial: Vec::new(),
        })
    }

    /// Sends one request line (the newline is added, in the same write).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)
    }

    /// Reads one response line, without its newline. A read timeout
    /// surfaces as `WouldBlock`/`TimedOut`; the bytes read so far are kept
    /// for the next call.
    pub fn recv(&mut self) -> io::Result<String> {
        self.reader.read_until(b'\n', &mut self.partial)?;
        if self.partial.last() != Some(&b'\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "the server closed the connection",
            ));
        }
        self.partial.pop();
        let line = String::from_utf8(std::mem::take(&mut self.partial))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(line)
    }

    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    pub fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        self.writer.set_read_timeout(Some(timeout))
    }

    /// Hands the write half to another thread; `recv` stays here.
    pub fn writer(&self) -> io::Result<TcpStream> {
        self.writer.try_clone()
    }
}

/// Whether an I/O error is a read timeout rather than a failure.
pub fn is_timeout(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Removes `path` if it exists (journal files between server lifetimes).
pub fn remove_file_if_present(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => {
            Err(format!("removing {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}
