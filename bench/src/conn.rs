//! One TCP connection to the server, with the request path cut at the
//! boundaries the public protocol API exposes: build, send, wait, decode.
//!
//! `qc_server::Client::call` is one opaque step; timing the four stages
//! separately needs the framing functions underneath it, which
//! `qc_server::proto` exports.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use qc_server::proto::{read_frame, write_frame, DEFAULT_MAX_FRAME_LEN};
use qc_server::Response;

use crate::trace::{Captured, Tracer};

/// A blocking connection; one per generator thread.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    /// Connect with `TCP_NODELAY`, like `qc_server::Client`.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let open = || -> std::io::Result<Conn> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(Conn { reader: BufReader::new(stream.try_clone()?), writer: BufWriter::new(stream) })
        };
        open().map_err(|e| format!("connect: {e}"))
    }

    /// Send a request without waiting for its reply, which [`Conn::take`]
    /// reads: the round trip passes while the caller does something else.
    pub fn post(&mut self, body: &[u8]) -> Result<(), String> {
        write_frame(&mut self.writer, body).map_err(|e| format!("send: {e}"))?;
        self.writer.flush().map_err(|e| format!("send: {e}"))
    }

    /// Wait for the reply to the oldest [`Conn::post`] not yet taken.
    pub fn take(&mut self) -> Result<Response, String> {
        let frame = read_frame(&mut self.reader, DEFAULT_MAX_FRAME_LEN)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("server closed the connection")?;
        Response::decode(&frame).map_err(|e| format!("receive: {e}"))
    }

    /// One request whose building started at `t0`: send `body`, wait for
    /// the response frame, decode it. With the tracer on, records
    /// `request ⊃ {gen.build, client.send, client.wait, client.decode}`.
    ///
    /// An `Err` is a broken transport or frame, which ends the run; a
    /// `Response::Error` is an answer like any other, for the caller to
    /// count as a failed operation.
    pub fn call(
        &mut self,
        tracer: &mut Tracer,
        request_id: u64,
        t0: Instant,
        body: Vec<u8>,
    ) -> Result<Response, String> {
        let built = tracer.stamp();
        write_frame(&mut self.writer, &body).map_err(|e| format!("send: {e}"))?;
        self.writer.flush().map_err(|e| format!("send: {e}"))?;
        let sent = tracer.stamp();
        let frame = read_frame(&mut self.reader, DEFAULT_MAX_FRAME_LEN)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("server closed the connection")?;
        let received = tracer.stamp();
        let response = Response::decode(&frame).map_err(|e| format!("receive: {e}"))?;
        if tracer.is_on() {
            let cuts = [tracer.at(t0), built, sent, received, tracer.stamp()];
            tracer.capture(|| Captured::Request(body));
            tracer.push_chain(
                "request",
                &["gen.build", "client.send", "client.wait", "client.decode"],
                &cuts,
                request_id,
            );
        }
        Ok(response)
    }
}
