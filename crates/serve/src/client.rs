//! A small blocking client for the JSON-lines protocol, used by the
//! round-trip example and the integration tests (the load smoke in
//! `tests/service.rs` pipelines through [`Client::send`] and
//! [`Client::recv`]).

use crate::protocol::{
    decode, encode, ErrorReply, IntrospectReport, IntrospectRequest, PerfettoRun, Request,
    Response, RunRequest,
};
use crate::stats::StatsReport;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use ugpc_control::ControllerSpec;
use ugpc_core::{ControlledRun, DynamicStudyReport, RunConfig, RunReport, TracedRun};
use ugpc_telemetry::TraceCtx;

/// Anything that can go wrong on the client side.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    /// The server closed the connection mid-exchange.
    Disconnected,
    /// The response line did not parse.
    BadResponse(String),
    /// The server answered with a structured error.
    Server(ErrorReply),
    /// The server answered with a different (valid) variant than the
    /// request calls for.
    UnexpectedVariant(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Disconnected => f.write_str("server closed the connection"),
            ClientError::BadResponse(e) => write!(f, "unparseable response: {e}"),
            ClientError::Server(e) => write!(f, "server error {}: {}", e.code, e.message),
            ClientError::UnexpectedVariant(v) => write!(f, "unexpected response variant: {v}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One connection to a `ugpc-serve` instance.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: stream,
        })
    }

    /// Send one request line, read one response line.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        self.recv()
    }

    /// Write one request line without waiting for the reply — the
    /// pipelining half of [`Client::recv`]. Replies arrive in request
    /// order (one per request; one per slot for `Batch`).
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let line = encode(request);
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }

    /// Read the next in-order response line — the other half of
    /// [`Client::send`].
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        self.read_response()
    }

    /// Send raw bytes (not necessarily valid JSON) and read the reply —
    /// the tests use this to probe malformed-input handling.
    pub fn roundtrip_raw(&mut self, raw_line: &str) -> Result<Response, ClientError> {
        self.writer.write_all(raw_line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Disconnected);
        }
        decode(line.trim_end()).map_err(ClientError::BadResponse)
    }

    /// Run one static study on the service.
    pub fn run(&mut self, config: RunConfig) -> Result<RunReport, ClientError> {
        self.run_request(&RunRequest::new(config))
    }

    /// Run a fully-specified [`RunRequest`] (static form).
    pub fn run_request(&mut self, request: &RunRequest) -> Result<RunReport, ClientError> {
        match self.roundtrip(&Request::Run(request.clone()))? {
            Response::Run(report) => Ok(report),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::UnexpectedVariant(format!("{other:?}"))),
        }
    }

    /// Run the k-iteration dynamic-capping study on the service.
    pub fn run_dynamic(
        &mut self,
        config: RunConfig,
        iterations: usize,
    ) -> Result<DynamicStudyReport, ClientError> {
        let mut request = RunRequest::new(config);
        request.dynamic_iterations = Some(iterations);
        match self.roundtrip(&Request::Run(request))? {
            Response::Dynamic(report) => Ok(report),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::UnexpectedVariant(format!("{other:?}"))),
        }
    }

    /// Run one study under the online sweet-spot controller, re-capping
    /// GPUs mid-run.
    pub fn run_controlled(
        &mut self,
        config: RunConfig,
        spec: ControllerSpec,
    ) -> Result<ControlledRun, ClientError> {
        let mut request = RunRequest::new(config);
        request.controller = Some(spec);
        match self.roundtrip(&Request::Run(request))? {
            Response::Controlled(run) => Ok(run),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::UnexpectedVariant(format!("{other:?}"))),
        }
    }

    /// Run one static study with a `bins`-bin power timeline attached.
    pub fn run_traced(&mut self, config: RunConfig, bins: usize) -> Result<TracedRun, ClientError> {
        let mut request = RunRequest::new(config);
        request.power_bins = Some(bins);
        match self.roundtrip(&Request::Run(request))? {
            Response::Traced(traced) => Ok(traced),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::UnexpectedVariant(format!("{other:?}"))),
        }
    }

    /// Run one static study and get back a Perfetto trace export. With
    /// `trace: None` the server mints the trace context; a client-supplied
    /// one lets the caller correlate the server's JSON log lines and the
    /// exported trace with its own ids.
    pub fn run_perfetto(
        &mut self,
        config: RunConfig,
        trace: Option<TraceCtx>,
    ) -> Result<PerfettoRun, ClientError> {
        let mut request = RunRequest::new(config);
        request.perfetto = Some(true);
        request.trace = trace;
        match self.roundtrip(&Request::Run(request))? {
            Response::Perfetto(run) => Ok(run),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::UnexpectedVariant(format!("{other:?}"))),
        }
    }

    /// Fetch the Prometheus text exposition of the server's metrics
    /// registry.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics(text) => Ok(text),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::UnexpectedVariant(format!("{other:?}"))),
        }
    }

    /// Drain the server's flight recorder: last-N / worst-K span trees
    /// and the per-phase latency decomposition. Servers without a
    /// recorder answer `enabled: false` rather than erroring.
    pub fn introspect(&mut self, req: IntrospectRequest) -> Result<IntrospectReport, ClientError> {
        match self.roundtrip(&Request::Introspect(req))? {
            Response::Introspect(report) => Ok(report),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::UnexpectedVariant(format!("{other:?}"))),
        }
    }

    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(report) => Ok(report),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::UnexpectedVariant(format!("{other:?}"))),
        }
    }

    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::UnexpectedVariant(format!("{other:?}"))),
        }
    }

    pub fn clear_cache(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::ClearCache)? {
            Response::CacheCleared => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::UnexpectedVariant(format!("{other:?}"))),
        }
    }

    /// Ask the server to stop serving.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::UnexpectedVariant(format!("{other:?}"))),
        }
    }
}
