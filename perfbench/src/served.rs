//! Daemon set-up exactly as `skycube serve` does it, and a one-connection
//! closed-loop client for it.
//!
//! Set-up is `StellarEngine::with_runner` (`serve --data`) or, for a
//! durable daemon, `recover` plus `with_wal` (`serve --wal`); then
//! `Daemon::new` with `DaemonConfig::default()` (autotune on, 256-entry
//! cache) and `serve_bound` with `PoolConfig::default()` on a Unix socket.

use crate::host::CpuSet;
use crate::trace::Tracer;
use skycube_serve::{recover, Daemon, DaemonConfig, PoolConfig, Wal};
use skycube_stellar::{Stellar, StellarEngine};
use skycube_types::Dataset;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

/// File name of the WAL inside a set-up directory (checkpoint files sit
/// beside it).
pub const WAL_FILE: &str = "d.wal";

/// The serving engine: a fresh build of `base`, or (`durable`) crash
/// recovery over `dir`'s checkpoint and WAL, which also yields the log and
/// the number of records it replayed.
pub fn engine_for(
    dir: &Path,
    base: &Dataset,
    durable: bool,
) -> Result<(StellarEngine, Option<(Wal, u64)>), String> {
    if !durable {
        return Ok((StellarEngine::with_runner(base, Stellar::new()), None));
    }
    let rec =
        recover(&dir.join(WAL_FILE), base, Stellar::new()).map_err(|e| format!("recovery: {e}"))?;
    Ok((rec.engine, Some((rec.wal, rec.replayed))))
}

/// The engine wrapped in a daemon with the CLI defaults (and its WAL,
/// fsync'd per mutation, no periodic checkpoint).
pub fn daemon_from(engine: StellarEngine, wal: Option<(Wal, u64)>) -> Daemon {
    let daemon = Daemon::new(engine, DaemonConfig::default());
    match wal {
        Some((wal, replayed)) => daemon.with_wal(wal, replayed, None),
        None => daemon,
    }
}

/// A daemon serving one Unix socket from a background thread.
pub struct Served {
    /// The daemon, shared with the serving thread.
    pub daemon: Arc<Daemon>,
    /// Socket path (relative to the working directory, so it stays short).
    pub socket: PathBuf,
    server: Option<JoinHandle<std::io::Result<()>>>,
}

impl Served {
    /// Build (or, `durable`, recover from `dir`) the engine, wrap it in a
    /// daemon and start serving on `dir/d.sock`, the serving threads
    /// restricted to `pin` when given. Spans go to `tracer` under request
    /// id `request`.
    pub fn start(
        dir: &Path,
        base: &Dataset,
        durable: bool,
        pin: Option<CpuSet>,
        tracer: &mut Tracer,
        request: u64,
    ) -> Result<Served, String> {
        let (engine, wal) =
            tracer.span("setup.engine", request, |_| engine_for(dir, base, durable))?;
        let daemon = tracer.span("setup.daemon_new", request, |_| {
            Arc::new(daemon_from(engine, wal))
        });
        tracer.span("setup.bind", request, |_| Served::serve(daemon, dir, pin))
    }

    /// Serve `daemon` on `dir/d.sock` from a background thread, the
    /// serving threads restricted to `pin` when given.
    pub fn serve(daemon: Arc<Daemon>, dir: &Path, pin: Option<CpuSet>) -> Result<Served, String> {
        let socket = dir.join("d.sock");
        let listener = UnixListener::bind(&socket)
            .map_err(|e| format!("binding {}: {e}", socket.display()))?;
        let serving = Arc::clone(&daemon);
        let path = socket.clone();
        let server = std::thread::spawn(move || {
            // The accept loops and pool workers inherit this thread's CPU.
            if let Some(cpu) = pin {
                cpu.apply();
            }
            serving.serve_bound(Some((listener, path)), None, PoolConfig::default())
        });
        Ok(Served {
            daemon,
            socket,
            server: Some(server),
        })
    }

    /// Shut the daemon down and wait for its serving thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        self.daemon.request_shutdown();
        match self.server.take().map(JoinHandle::join) {
            Some(Ok(Err(e))) => Err(format!("daemon serving thread: {e}")),
            Some(Err(_)) => Err("daemon serving thread panicked".to_owned()),
            _ => Ok(()),
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// A closed-loop client on one persistent connection: send one request
/// line, wait for its one reply line.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    reply: String,
}

impl Client {
    /// Connect to the daemon's socket.
    pub fn connect(socket: &Path) -> std::io::Result<Client> {
        let writer = UnixStream::connect(socket)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            reply: String::new(),
        })
    }

    /// Send `request` (newline-terminated) and return the reply line
    /// without its newline. A closed connection is an error.
    pub fn call(&mut self, request: &[u8]) -> std::io::Result<&str> {
        self.writer.write_all(request)?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(self.reply.trim_end_matches(['\n', '\r']))
    }
}
