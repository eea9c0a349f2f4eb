//! The wire side: a minimal keep-alive HTTP/1.1 client that times one
//! request from its first byte out to the last response byte in, and the
//! management of a spawned `provmin serve` process.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// One response, de-framed.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// The body (chunked framing decoded).
    pub body: Vec<u8>,
    /// Whether the server closes the connection after this response.
    pub close: bool,
}

/// A keep-alive connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off (requests are written whole).
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Sends `request` and reads its response.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(request)?;
        self.read_reply()
    }

    /// A `GET` on this connection.
    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        self.roundtrip(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let head_end = loop {
            if let Some(pos) = find(&self.buf, b"\r\n\r\n", 0) {
                break pos;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| invalid("non-utf8 response head"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let (mut length, mut chunked, mut close) = (None, false, false);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => length = value.parse::<usize>().ok(),
                "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let mut pos = head_end + 4;
        let body = if chunked {
            let mut body = Vec::new();
            loop {
                let line_end = loop {
                    if let Some(p) = find(&self.buf, b"\r\n", pos) {
                        break p;
                    }
                    self.fill()?;
                };
                let size_text = std::str::from_utf8(&self.buf[pos..line_end])
                    .map_err(|_| invalid("bad chunk size"))?;
                let size = usize::from_str_radix(size_text.trim(), 16)
                    .map_err(|_| invalid("bad chunk size"))?;
                pos = line_end + 2;
                while self.buf.len() < pos + size + 2 {
                    self.fill()?;
                }
                body.extend_from_slice(&self.buf[pos..pos + size]);
                pos += size + 2;
                if size == 0 {
                    break;
                }
            }
            body
        } else {
            let len = length.ok_or_else(|| invalid("response without length"))?;
            while self.buf.len() < pos + len {
                self.fill()?;
            }
            pos += len;
            self.buf[pos - len..pos].to_vec()
        };
        self.buf.drain(..pos);
        Ok(Reply {
            status,
            body,
            close,
        })
    }
}

fn find(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    haystack
        .get(from..)?
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// A free loopback port (bound, then released for the server to take).
pub fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// A spawned `provmin serve`.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// `127.0.0.1:<port>`.
    pub addr: String,
}

impl Server {
    /// Spawns `provmin serve --addr <free port> <args>` and waits for the
    /// first 200 on `GET /stats`. Returns the server and that set-up time
    /// (spawn to first 200).
    pub fn start(provmin: &Path, args: &[String], log: &Path) -> Result<(Server, f64), String> {
        let port = free_port().map_err(|e| format!("no free port: {e}"))?;
        let addr = format!("127.0.0.1:{port}");
        let log_file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("{}: {e}", log.display()))?;
        let started = Instant::now();
        let child = Command::new(provmin)
            .arg("serve")
            .arg("--addr")
            .arg(&addr)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", provmin.display()))?;
        let mut server = Server { child, addr };
        let deadline = started + Duration::from_secs(60);
        loop {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("provmin serve exited during start-up ({status})"));
            }
            if let Ok(mut conn) = Conn::connect(&server.addr) {
                if let Ok(reply) = conn.get("/stats") {
                    if reply.status == 200 {
                        return Ok((server, started.elapsed().as_secs_f64()));
                    }
                }
            }
            if Instant::now() > deadline {
                server.kill();
                return Err("provmin serve did not answer /stats within 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("reading server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_owned())
    }

    /// Stops the server with `POST /shutdown` and waits for it to exit.
    pub fn shutdown(self) -> Result<(), String> {
        Conn::connect(&self.addr)
            .and_then(|mut c| {
                c.roundtrip(b"POST /shutdown HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n")
            })
            .map_err(|e| format!("/shutdown: {e}"))?;
        self.wait_exit()
    }

    /// Stops the server with SIGTERM (its graceful drain, which rotates a
    /// final snapshot when persistent) and waits for it to exit. The
    /// server installs its SIGTERM handler only after it starts
    /// answering, so a server that has just come up is stopped with
    /// [`Server::shutdown`] instead.
    pub fn terminate(self) -> Result<(), String> {
        send_sigterm(self.child.id());
        self.wait_exit()
    }

    fn wait_exit(mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("provmin serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    self.kill();
                    return Err("provmin serve did not stop within 30 s".into());
                }
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

fn send_sigterm(pid: u32) {
    if let Ok(pid) = i32::try_from(pid) {
        // SAFETY: `kill(2)` takes two plain integers and touches no memory
        // of this process; `pid` is a child this process spawned and has
        // not yet reaped, so it cannot name an unrelated process.
        unsafe {
            kill(pid, SIGTERM);
        }
    }
}
