//! A tiny blocking client — one request line out, one response line in.
//! Used by the test suites and `pta-cli query`.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking line-protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects with 30 s socket deadlines (generous: request budgets
    /// live server-side; these only stop a dead server hanging a test).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Self::connect_with_deadline(addr, Duration::from_secs(30))
    }

    /// Connects with explicit per-call socket deadlines.
    pub fn connect_with_deadline(
        addr: impl ToSocketAddrs,
        deadline: Duration,
    ) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(deadline))?;
        stream.set_write_timeout(Some(deadline))?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: stream })
    }

    /// Sends one request line and reads one response line. A closed
    /// connection (e.g. an injected accept/write fault dropped it)
    /// surfaces as `UnexpectedEof`.
    ///
    /// The server may answer and close before it reads the request (a
    /// queue-full shed, a late reject during shutdown); the write then
    /// hits the peer's reset, but the reply already sits in the receive
    /// buffer, so it is still read and returned. Only when no reply
    /// arrives does the write error surface.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        if let Err(e) = self.send(line) {
            if !matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset) {
                return Err(e);
            }
            return self.read_reply().map_err(|_| e);
        }
        self.read_reply()
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    fn read_reply(&mut self) -> std::io::Result<String> {
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(resp.trim_end().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server that replies and closes before reading the request — the
    /// shed path — resets the connection under the client's request
    /// write. The reply is already buffered and must still come back.
    /// Over loopback the reset usually lands between the request bytes
    /// and the newline, so the race is hit on nearly every attempt.
    #[test]
    fn reply_then_close_before_the_request_is_still_read() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        for attempt in 0..50 {
            let mut client = Client::connect(addr).expect("connect");
            let (mut server, _) = listener.accept().expect("accept");
            server.write_all(b"err overloaded request queue full\n").expect("reply");
            drop(server);
            let resp = client.request("ping");
            assert_eq!(
                resp.as_deref().ok(),
                Some("err overloaded request queue full"),
                "attempt {attempt}: {resp:?}"
            );
        }
    }

    /// Without a reply, a closed connection still surfaces as an error.
    #[test]
    fn close_without_a_reply_is_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = Client::connect(listener.local_addr().expect("addr")).expect("connect");
        drop(listener.accept().expect("accept"));
        assert!(client.request("ping").is_err());
    }
}
