//! A small blocking HTTP/1.1 client that can keep its connection open
//! and splits every call into connect, time to first byte and transfer.
//!
//! `bear_serve::client` always sends `Connection: close` and times
//! nothing, so it can neither drive keep-alive traffic nor show where a
//! request spent its time.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Largest response body the client accepts.
const MAX_BODY: usize = 64 << 20;

/// One answered call.
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// When the request write began.
    pub sent: Instant,
    /// When the first response byte arrived.
    pub first_byte: Instant,
    /// When the last body byte arrived.
    pub done: Instant,
    /// Response size on the wire: head plus body.
    pub bytes: usize,
}

/// One client connection.
pub struct Conn {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    keep_alive: bool,
    /// When the connect began and ended.
    pub connect: (Instant, Instant),
}

impl Conn {
    /// Connects to `addr`; `keep_alive` decides the `Connection` header
    /// of every call on this connection.
    pub fn open(addr: SocketAddr, keep_alive: bool) -> io::Result<Conn> {
        let start = Instant::now();
        let stream = TcpStream::connect(addr)?;
        let connect = (start, Instant::now());
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn { addr, reader: BufReader::with_capacity(1 << 16, stream), keep_alive, connect })
    }

    /// Sends `method target` with an empty body and reads the response.
    pub fn call(&mut self, method: &str, target: &str) -> io::Result<Reply> {
        let connection = if self.keep_alive { "keep-alive" } else { "close" };
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}\r\nContent-Length: 0\r\nConnection: {connection}\r\n\r\n",
            self.addr
        );
        let sent = Instant::now();
        self.reader.get_mut().write_all(head.as_bytes())?;
        if self.reader.fill_buf()?.is_empty() {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed before a response"));
        }
        let first_byte = Instant::now();

        let mut line = String::new();
        let mut bytes = self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
        let mut content_length = None;
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated head"));
            }
            bytes += n;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let len = content_length.ok_or_else(|| io::Error::other("no Content-Length"))?;
        if len > MAX_BODY {
            return Err(io::Error::other(format!("body of {len} bytes exceeds {MAX_BODY}")));
        }
        let mut body = vec![0; len];
        self.reader.read_exact(&mut body)?;
        Ok(Reply { status, body, sent, first_byte, done: Instant::now(), bytes: bytes + len })
    }
}
