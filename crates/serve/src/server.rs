//! The TCP layer: bind a listener and hand it to the non-blocking
//! sharded event loop in [`crate::eventloop`], with request pipelining.
//! The server exits when a `Shutdown` request
//! arrives — the handler sets the service flag and pokes the listener
//! with a loopback connect so `accept` returns.

use crate::service::{ServeOptions, Service};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use ugpc_telemetry::Logger;

/// A bound-but-not-yet-serving service instance.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) with the given
    /// options.
    pub fn bind(addr: &str, options: ServeOptions) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service: Service::new(options),
        })
    }

    /// [`bind`](Server::bind) with an explicit logger — tests use
    /// [`Logger::to_buffer`] to capture the exact JSON log lines the
    /// server emits.
    pub fn bind_with_logger(
        addr: &str,
        options: ServeOptions,
        logger: Arc<Logger>,
    ) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service: Service::with_logger(options, logger),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Serve until shutdown. Blocks the calling thread.
    pub fn run(self) {
        crate::eventloop::serve(self.listener, self.service);
    }

    /// Serve on a background thread; returns a handle that can stop the
    /// server and join it. Used by tests, examples, and the benchmark
    /// harness.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let service = self.service.clone();
        let join = std::thread::Builder::new()
            .name("ugpc-serve-accept".to_string())
            .spawn(move || self.run())
            .expect("spawn accept thread");
        ServerHandle {
            addr,
            service,
            join: Some(join),
        }
    }
}

/// Handle to a [`Server::spawn`]ed instance.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Request shutdown and join the accept loop.
    pub fn stop(mut self) {
        self.service.request_shutdown();
        // Poke the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.service.request_shutdown();
            let _ = TcpStream::connect(self.addr);
            let _ = join.join();
        }
    }
}
