//! A minimal blocking client for `synthd`: one connection, one
//! request frame out, one response frame back, in order. The bench
//! load generator and the integration tests both drive the server
//! through this, so the wire path they measure is the one real
//! clients use.

use crate::protocol::{JobSpec, Request, Response};
use crate::wire::{read_frame, write_frame};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// A connected `synthd` client.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects (TCP, Nagle off — requests are single small frames and
    /// latency is the measured quantity).
    ///
    /// # Errors
    ///
    /// Connection-level I/O errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    ///
    /// I/O errors, plus [`io::ErrorKind::InvalidData`] when the
    /// response payload fails to decode.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &request.encode())?;
        let payload = read_frame(&mut self.stream)?;
        Response::decode(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Submits one job.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn submit(&mut self, spec: &JobSpec) -> io::Result<Response> {
        self.request(&Request::Job(spec.clone()))
    }

    /// Fetches the server's lifetime statistics JSON.
    ///
    /// # Errors
    ///
    /// As [`Client::request`]; `InvalidData` when the server answers
    /// with anything but a stats document.
    pub fn stats(&mut self) -> io::Result<String> {
        match self.request(&Request::Stats)? {
            Response::Stats { json } => Ok(json),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected stats, got {other:?}"),
            )),
        }
    }

    /// Fetches the server's metrics registry in the Prometheus text
    /// exposition format.
    ///
    /// # Errors
    ///
    /// As [`Client::request`]; `InvalidData` when the server answers
    /// with anything but a metrics page.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected metrics, got {other:?}"),
            )),
        }
    }

    /// Asks the server to shut down; returns its final statistics.
    ///
    /// # Errors
    ///
    /// As [`Client::stats`].
    pub fn shutdown(&mut self) -> io::Result<String> {
        match self.request(&Request::Shutdown)? {
            Response::Stats { json } => Ok(json),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected stats, got {other:?}"),
            )),
        }
    }
}
