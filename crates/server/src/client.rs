//! A tiny blocking HTTP client — just enough for the integration tests and
//! the `serve_mixed` benchmark workload to talk to [`crate::serve`] without
//! an external dependency.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Response {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }
}

/// `GET path` against `addr`.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    request(addr, "GET", path, None)
}

/// `POST path` with a JSON body against `addr`.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<Response> {
    request(addr, "POST", path, Some(body))
}

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> io::Result<Response> {
    let mut conn = TcpStream::connect(addr)?;
    // A response always comes (503s included); the timeout only guards
    // against a hung server taking the client thread down with it.
    conn.set_read_timeout(Some(Duration::from_secs(60)))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    // A refused (503) connection may be answered and half-closed before
    // the request is fully written; keep going and read the response.
    let sent = conn
        .write_all(head.as_bytes())
        .and_then(|()| conn.write_all(body.as_bytes()))
        .and_then(|()| conn.flush());
    match read_response(conn) {
        Ok(resp) => Ok(resp),
        Err(e) => sent.and(Err(e)),
    }
}

fn read_response(conn: TcpStream) -> io::Result<Response> {
    let mut reader = BufReader::new(conn);
    let status_line = read_line(&mut reader)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_response(&status_line))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let line = read_line(&mut reader)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let (name, value) = (name.trim().to_string(), value.trim().to_string());
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().ok();
            }
            headers.push((name, value));
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
        }
        None => {
            reader.read_to_end(&mut body)?;
        }
    }
    let body = String::from_utf8(body).map_err(|_| bad_response("non-UTF-8 body"))?;
    Ok(Response { status, headers, body })
}

fn read_line(reader: &mut BufReader<TcpStream>) -> io::Result<String> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

fn bad_response(detail: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed HTTP response: {detail}"))
}
