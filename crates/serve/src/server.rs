//! The resident server: thread-per-connection sessions over the line
//! protocol, all sharing one [`Registry`].
//!
//! Robustness contract, per request:
//! - every request runs under `catch_unwind`; a panicking handler yields
//!   an `err` frame and poisons at most its own session state — the
//!   registry and every other session keep serving,
//! - every budgeted request inherits the server's default deadline (its
//!   guard against runaway queries) unless it sets `--time-limit`,
//! - a client that disconnects mid-request raises the session's
//!   cancellation flag, so the abandoned computation exits through the
//!   structured `Interrupted` path instead of burning the thread,
//! - `shutdown` (and a Ctrl-C bridged by the CLI) stops the accept loop
//!   and wakes idle sessions, which drain within one poll interval.
//!
//! Fail-point sites `serve::accept`, `serve::session`, and
//! `serve::eco_apply` let the chaos harness inject faults at the accept
//! loop, the request dispatcher, and ECO application respectively.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use wrt_robust::failpoint::{self, sites};

use crate::exec::{execute, ExecContext};
use crate::protocol::{frame, tokenize, LineReader};
use crate::registry::Registry;

/// How often an idle session re-checks the shutdown and cancel flags.
const POLL: Duration = Duration::from_millis(50);

/// A running server.  Dropping the handle shuts the server down and
/// joins every thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with `--addr 127.0.0.1:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and wakes the accept loop.  Idempotent;
    /// returns immediately — use [`ServerHandle::wait`] to join.
    pub fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Self-connect so a blocked `accept` observes the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Whether the accept loop has exited.
    pub fn finished(&self) -> bool {
        self.accept_thread
            .as_ref()
            .is_none_or(JoinHandle::is_finished)
    }

    /// Blocks until the accept loop and every session have drained.
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.trigger_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds `addr` and spawns the accept loop over `registry`.
///
/// # Errors
///
/// Only bind failures; everything after the bind is handled inside the
/// server threads.
pub fn spawn(
    registry: Arc<Registry>,
    addr: &str,
    default_deadline: Option<Duration>,
) -> Result<ServerHandle, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_thread = std::thread::Builder::new()
        .name("wrt-serve-accept".into())
        .spawn(move || {
            accept_loop(
                &listener,
                addr,
                &registry,
                default_deadline,
                &accept_shutdown,
            )
        })
        .map_err(|e| format!("cannot spawn accept thread: {e}"))?;
    Ok(ServerHandle {
        addr,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(
    listener: &TcpListener,
    addr: SocketAddr,
    registry: &Arc<Registry>,
    default_deadline: Option<Duration>,
    shutdown: &Arc<AtomicBool>,
) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok((stream, _)) = listener.accept() else {
            // Transient accept failures (EMFILE, aborted handshakes)
            // must not kill the server.
            continue;
        };
        if shutdown.load(Ordering::SeqCst) {
            break; // the wake-up self-connection
        }
        if let Err(injected) = failpoint::hit(sites::SERVE_ACCEPT) {
            // Injected accept fault: degrade to refusing this one
            // connection with a structured error; the loop survives.
            let mut stream = stream;
            let _ = stream.write_all(frame(&Err(injected.to_string())).as_bytes());
            continue;
        }
        sessions.retain(|s| !s.is_finished());
        let registry = Arc::clone(registry);
        let shutdown = Arc::clone(shutdown);
        let spawned = std::thread::Builder::new()
            .name("wrt-serve-session".into())
            .spawn(move || session(stream, addr, &registry, default_deadline, &shutdown));
        // On spawn failure (thread exhaustion) the connection drops.
        if let Ok(handle) = spawned {
            sessions.push(handle);
        }
    }
    for s in sessions {
        let _ = s.join();
    }
}

/// Watches a cloned stream for client disconnect while the session
/// thread may be deep inside a long-running verb; EOF (or transport
/// failure, or server shutdown) raises the session's cancel flag so the
/// computation exits through its structured interrupt path.
fn watch_disconnect(
    stream: &TcpStream,
    cancel: &Arc<AtomicBool>,
    done: &Arc<AtomicBool>,
    shutdown: &Arc<AtomicBool>,
) {
    let _ = stream.set_read_timeout(Some(POLL));
    let mut byte = [0u8; 1];
    loop {
        if done.load(Ordering::SeqCst) {
            return;
        }
        if shutdown.load(Ordering::SeqCst) {
            cancel.store(true, Ordering::SeqCst);
            return;
        }
        // MSG_PEEK never consumes, so this cannot race the request
        // reader out of bytes.
        match stream.peek(&mut byte) {
            Ok(0) => {
                cancel.store(true, Ordering::SeqCst);
                return;
            }
            Ok(_) => std::thread::sleep(POLL), // a pipelined request is waiting
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                cancel.store(true, Ordering::SeqCst);
                return;
            }
        }
    }
}

fn session(
    stream: TcpStream,
    addr: SocketAddr,
    registry: &Arc<Registry>,
    default_deadline: Option<Duration>,
    shutdown: &Arc<AtomicBool>,
) {
    let cancel = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let watcher = stream.try_clone().ok().and_then(|ws| {
        let cancel = Arc::clone(&cancel);
        let done = Arc::clone(&done);
        let shutdown = Arc::clone(shutdown);
        std::thread::Builder::new()
            .name("wrt-serve-watch".into())
            .spawn(move || watch_disconnect(&ws, &cancel, &done, &shutdown))
            .ok()
    });

    let ctx = ExecContext::new(Arc::clone(registry))
        .with_default_deadline(default_deadline)
        .with_cancel(Arc::clone(&cancel));
    serve_session(&stream, addr, &ctx, shutdown, &cancel);

    done.store(true, Ordering::SeqCst);
    if let Some(w) = watcher {
        let _ = w.join();
    }
}

fn serve_session(
    stream: &TcpStream,
    addr: SocketAddr,
    ctx: &ExecContext,
    shutdown: &Arc<AtomicBool>,
    cancel: &Arc<AtomicBool>,
) {
    let _ = stream.set_read_timeout(Some(POLL));
    let mut reader = LineReader::new(stream);
    let mut writer = stream;
    let mut on_idle = {
        let shutdown = Arc::clone(shutdown);
        let cancel = Arc::clone(cancel);
        move || !shutdown.load(Ordering::SeqCst) && !cancel.load(Ordering::SeqCst)
    };
    loop {
        let line = match reader.read_line(&mut on_idle) {
            Ok(Some(line)) => line,
            Ok(None) => return, // clean EOF
            Err(e) => {
                // Oversized line, invalid UTF-8, abandoned wait: one
                // structured error, then close (the offset is gone).
                let _ = writer.write_all(frame(&Err(e)).as_bytes());
                return;
            }
        };
        let argv = tokenize(&line);
        if argv.is_empty() {
            continue; // blank keep-alive line
        }
        if argv[0] == "shutdown" {
            let _ = writer.write_all(frame(&Ok("shutting down\n".into())).as_bytes());
            shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(addr); // wake the accept loop
            return;
        }
        let result = match failpoint::hit(sites::SERVE_SESSION) {
            Err(injected) => Err(injected.to_string()),
            Ok(()) => catch_unwind(AssertUnwindSafe(|| execute(ctx, &argv))).unwrap_or_else(|_| {
                Err("internal panic while handling the request; this session's \
                     overlay state may be poisoned (reconnect to recover)"
                    .to_string())
            }),
        };
        if writer.write_all(frame(&result).as_bytes()).is_err() {
            return; // peer went away mid-response
        }
        let _ = writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    fn strs(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn serves_requests_shares_state_and_shuts_down() {
        let registry = Arc::new(Registry::new());
        let handle = spawn(Arc::clone(&registry), "127.0.0.1:0", None).expect("bind");
        let addr = handle.addr().to_string();

        let out = client::run(&addr, &strs(&["load", "s1"])).expect("load");
        assert!(out.contains("uid "), "{out}");
        // Server-side state is the shared registry, visible across
        // connections.
        let stat = client::run(&addr, &strs(&["stat"])).expect("stat");
        assert!(stat.contains("1 circuit(s)"), "{stat}");
        assert_eq!(registry.circuits().len(), 1);

        // Verb errors arrive as err frames, not closed connections.
        let err = client::run(&addr, &strs(&["estimate", "no-such-circuit"])).unwrap_err();
        assert!(err.contains("neither a workload name"), "{err}");

        let bye = client::run(&addr, &strs(&["shutdown"])).expect("shutdown acked");
        assert!(bye.contains("shutting down"), "{bye}");
        for _ in 0..100 {
            if handle.finished() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(handle.finished(), "accept loop must exit after shutdown");
        handle.wait();
        assert!(
            client::run(&addr, &strs(&["stat"])).is_err(),
            "server is gone"
        );
    }

    #[test]
    fn served_results_are_bit_identical_to_direct_execution() {
        let registry = Arc::new(Registry::new());
        let handle = spawn(Arc::clone(&registry), "127.0.0.1:0", None).expect("bind");
        let addr = handle.addr().to_string();
        let ctx = ExecContext::new(Arc::clone(&registry));
        for argv in [
            strs(&["stats", "s1"]),
            strs(&["estimate", "s1", "--top", "3"]),
            strs(&["workloads"]),
            strs(&["analyze", "s1", "--json"]),
        ] {
            let direct = execute(&ctx, &argv).expect("direct");
            let served = client::run(&addr, &argv).expect("served");
            assert_eq!(direct, served, "divergence on {argv:?}");
        }
    }

    #[test]
    fn disconnect_mid_request_cancels_instead_of_pinning_the_thread() {
        let registry = Arc::new(Registry::new());
        let handle = spawn(Arc::clone(&registry), "127.0.0.1:0", None).expect("bind");
        // A deliberately huge simulation with no explicit budget...
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .write_all(b"simulate c2670ish --patterns 100000000\n")
            .expect("send");
        std::thread::sleep(Duration::from_millis(100));
        // ...whose client vanishes.  The watcher raises the cancel flag
        // and the session drains; shutdown then completes promptly,
        // which it could not if the computation ran to completion.
        drop(stream);
        handle.trigger_shutdown();
        let start = std::time::Instant::now();
        handle.wait();
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "cancelled session took {:?} to drain",
            start.elapsed()
        );
    }
}
