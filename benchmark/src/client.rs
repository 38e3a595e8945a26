//! The benchmark's own HTTP/1.1 client.
//!
//! It deliberately does not use `xrlflow_serve::http_call`, which sends
//! `Connection: close` and reads to end-of-stream: that would hide a future
//! keep-alive change in the server. This client sends no `Connection`
//! header, reads the response by `Content-Length`, keeps the connection when
//! the server leaves it open and reconnects when the server closes it —
//! counting its TCP connects so `serve.connects_per_request` shows which of
//! the two the server does (1.0 today).

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A closed-loop client over one (re-established as needed) connection.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// TCP connections opened so far.
    pub connects: u64,
    head: Vec<u8>,
}

impl HttpClient {
    /// A client for the server at `addr`; connects lazily.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None, connects: 0, head: Vec::with_capacity(256) }
    }

    /// Sends one `POST` and reads the full response into `body` (cleared
    /// first). Returns the HTTP status.
    ///
    /// A request that fails on a *reused* connection before any response
    /// byte arrived is retried once on a fresh connection: the server may
    /// have closed an idle connection it had left open.
    pub fn post(&mut self, path: &str, request: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        let reused = self.stream.is_some();
        match self.exchange(path, request, body) {
            Err(e) if reused && is_stale_connection(&e) => {
                self.stream = None;
                self.exchange(path, request, body)
            }
            result => result,
        }
    }

    fn exchange(&mut self, path: &str, request: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        let result = self.exchange_on_stream(path, request, body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange_on_stream(&mut self, path: &str, request: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.connects += 1;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");

        self.head.clear();
        write!(
            self.head,
            "POST {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            request.len()
        )?;
        stream.write_all(&self.head)?;
        stream.write_all(request)?;

        // Read the head, then exactly Content-Length body bytes.
        body.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = body.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                let kind =
                    if body.is_empty() { ErrorKind::ConnectionReset } else { ErrorKind::UnexpectedEof };
                return Err(io::Error::new(kind, "connection closed before the response head"));
            }
            body.extend_from_slice(&chunk[..n]);
        };
        let head = parse_head(&body[..head_end])?;
        body.drain(..head_end + 4);
        while body.len() < head.content_length {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(ErrorKind::UnexpectedEof, "connection closed mid-body"));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(head.content_length);
        if head.close {
            self.stream = None;
        }
        Ok(head.status)
    }
}

/// A failure that means "the server closed this idle connection", as seen
/// by the first write or read on it.
fn is_stale_connection(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe | ErrorKind::ConnectionAborted)
}

#[derive(Debug, PartialEq, Eq)]
struct ResponseHead {
    status: u16,
    content_length: usize,
    close: bool,
}

fn parse_head(head: &[u8]) -> io::Result<ResponseHead> {
    let invalid = |what: &str| io::Error::new(ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(head).map_err(|_| invalid("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.split_whitespace();
    let version = parts.next().unwrap_or("");
    let status =
        parts.next().and_then(|s| s.parse::<u16>().ok()).ok_or_else(|| invalid("malformed status line"))?;
    let mut content_length = None;
    // HTTP/1.1 connections persist unless the server says otherwise.
    let mut close = version != "HTTP/1.1";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let content_length = content_length.ok_or_else(|| invalid("response without Content-Length"))?;
    Ok(ResponseHead { status, content_length, close })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn head_parser_reads_status_length_and_connection() {
        let head = parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\nConnection: close").unwrap();
        assert_eq!(head, ResponseHead { status: 200, content_length: 12, close: true });
        let head = parse_head(b"HTTP/1.1 404 Not Found\r\ncontent-length: 0").unwrap();
        assert_eq!(head, ResponseHead { status: 404, content_length: 0, close: false });
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nConnection: close").is_err());
        assert!(parse_head(b"garbage").is_err());
    }

    /// A server that answers `requests_per_connection` requests on each
    /// connection, announcing `Connection: close` on the last one.
    fn scripted_server(
        requests_per_connection: usize,
        connections: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for _ in 0..connections {
                let (mut stream, _) = listener.accept().unwrap();
                for served in 1..=requests_per_connection {
                    let mut seen = Vec::new();
                    let mut byte = [0u8; 1];
                    while !seen.ends_with(b"\r\n\r\nping") {
                        stream.read_exact(&mut byte).unwrap();
                        seen.push(byte[0]);
                    }
                    assert!(!String::from_utf8_lossy(&seen).to_ascii_lowercase().contains("connection:"));
                    let last = served == requests_per_connection;
                    let connection = if last { "Connection: close\r\n" } else { "" };
                    write!(stream, "HTTP/1.1 200 OK\r\nContent-Length: 4\r\n{connection}\r\npong").unwrap();
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn reconnects_when_the_server_closes_and_reuses_when_it_does_not() {
        let mut body = Vec::new();
        // Today's server: one request per connection.
        let (addr, server) = scripted_server(1, 3);
        let mut client = HttpClient::new(addr);
        for _ in 0..3 {
            assert_eq!(client.post("/optimize", b"ping", &mut body).unwrap(), 200);
            assert_eq!(body, b"pong");
        }
        assert_eq!(client.connects, 3);
        server.join().unwrap();

        // A keep-alive server: the connection is reused.
        let (addr, server) = scripted_server(3, 1);
        let mut client = HttpClient::new(addr);
        for _ in 0..3 {
            assert_eq!(client.post("/optimize", b"ping", &mut body).unwrap(), 200);
        }
        assert_eq!(client.connects, 1);
        server.join().unwrap();
    }
}
