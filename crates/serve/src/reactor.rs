//! The epoll front-end: readiness-driven connection handling on a
//! small fixed set of reactor threads. It is the crate's only serving
//! front-end.
//!
//! Every socket is nonblocking and registered with an epoll instance
//! (the raw shims in `sys.rs`); each reactor thread owns a slab of
//! connections and sleeps in `epoll_wait` until the kernel reports one
//! of them readable or writable. A reactor wakes *only* for socket
//! readiness, an inbox handoff from the acceptor, or the earliest armed
//! progress deadline — there is no periodic poll tick, so an idle
//! server makes zero wakeups. A connection costs a slab entry, not a
//! thread, so the concurrent-connection ceiling is
//! [`ReactorConfig::max_connections`] per reactor rather than a worker
//! count.
//!
//! The reactor owns sockets, framing and deadlines only: the
//! [`LineFramer`] turns chunks into complete lines, and a
//! [`LineHandler`] answers them. [`ReactorServer::start`] plugs in the
//! engine-backed [`EngineService`]; the sharded
//! [`crate::router::Router`] front wraps one built over its shards.
//!
//! The slow-loris defense is progress-based: each connection that
//! *owes a newline* carries a progress deadline, and the reactor's
//! `epoll_wait` timeout is the earliest one armed. A byte-dripping
//! client wakes the reactor per byte but never resets the deadline; a
//! fully idle connection arms no deadline and costs no wakeups at all.

use crate::framer::{FrameEvent, LineFramer};
use crate::protocol::ErrorKind;
use crate::service::{DrainStats, EngineService, Engines};
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use drone_explorer::{Explorer, QueryLimits};
use drone_telemetry::Registry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`ReactorServer::start`].
#[derive(Debug, Clone, Copy)]
pub struct ReactorConfig {
    /// Reactor threads; connections are dealt round-robin across them.
    pub reactors: usize,
    /// Connection ceiling per reactor; past it a fresh connection gets
    /// one structured `overloaded` reply and closes.
    pub max_connections: usize,
    /// Most pipelined requests coalesced into one engine batch.
    pub max_batch: usize,
    /// Per-line byte cap; a longer line gets a `too_large` reply and
    /// the framer resynchronizes at the next newline.
    pub max_line_bytes: usize,
    /// Reply-backlog cap per connection: while more than this many
    /// unflushed reply bytes are buffered, the reactor drops the
    /// connection's read interest. Without it a client that pipelines
    /// requests but never reads its socket grows server memory without
    /// bound.
    pub max_outbuf_bytes: usize,
    /// Progress-based slow-loris budget: a connection owing a newline
    /// for this long gets a typed `deadline_exceeded` reply and closes.
    /// Raw byte arrival is *not* progress — a client dripping one byte
    /// at a time burns its budget just like a silent one. `None` (the
    /// default) waits forever.
    pub line_deadline: Option<Duration>,
    /// Per-request cost-unit deadline: a request whose worst-case
    /// budget exceeds this is shed with a typed `deadline_exceeded`
    /// reply before evaluation starts. `None` disables shedding.
    pub cost_deadline: Option<u64>,
    /// Query validation limits applied to every request.
    pub limits: QueryLimits,
    /// Completed span trees retained for `trace` introspection.
    pub trace_capacity: usize,
    /// Seed for server-derived trace ids.
    pub trace_seed: u64,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            reactors: 2,
            max_connections: 1024,
            max_batch: 32,
            max_line_bytes: 64 * 1024,
            max_outbuf_bytes: 256 * 1024,
            line_deadline: None,
            cost_deadline: None,
            limits: QueryLimits::default(),
            trace_capacity: 64,
            trace_seed: 0,
        }
    }
}

/// What a reactor asks of the layer above it: complete request lines
/// in, newline-terminated reply lines out. Implementations own their
/// batching, metrics and refusal rendering; the reactor owns only
/// sockets, framing and deadlines.
pub trait LineHandler: Send + Sync + 'static {
    /// Answers `lines` in order, appending one newline-terminated reply
    /// per line to `out`.
    fn handle_lines(&self, lines: &[String], out: &mut String);
    /// One refusal line (no trailing newline) for a connection-level
    /// fault, charged to the implementation's counters.
    fn refusal(&self, kind: ErrorKind, message: &str) -> String;
    /// One overload line (no trailing newline) for a connection shed at
    /// the door.
    fn overloaded(&self) -> String;
}

/// Acceptor → reactor handoff: freshly accepted sockets parked until
/// the reactor's next wakeup.
struct Inbox {
    queue: Mutex<Vec<TcpStream>>,
    wake: EventFd,
    /// Times this reactor returned from `epoll_wait` — the
    /// no-busy-polling invariant is "this does not move while the
    /// server is idle".
    wakeups: AtomicU64,
    /// Times this reactor paused reading a connection because its
    /// reply backlog crossed [`ReactorConfig::max_outbuf_bytes`].
    throttles: AtomicU64,
}

/// One registered connection.
struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    out: Vec<u8>,
    out_pos: usize,
    /// Armed iff the peer owes a newline; the earliest one bounds the
    /// reactor's `epoll_wait` timeout.
    deadline: Option<Instant>,
    /// EPOLLIN currently registered (dropped while the reply backlog
    /// exceeds the outbuf cap — read backpressure).
    registered_in: bool,
    /// EPOLLOUT currently registered (only while `out` has a backlog).
    registered_out: bool,
    /// Close once the outbuf flushes (EOF seen or refusal written).
    closing: bool,
}

/// A running reactor server plus the handles needed to stop it.
pub struct ReactorServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    inboxes: Vec<Arc<Inbox>>,
    live: Arc<AtomicUsize>,
    acceptor: Option<JoinHandle<()>>,
    reactors: Vec<JoinHandle<usize>>,
}

impl ReactorServer {
    /// Binds a loopback port and spins up the acceptor plus
    /// `config.reactors` event-loop threads over an engine-backed
    /// [`EngineService`].
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind, or on targets without the
    /// epoll shims (see the `sys` module).
    pub fn start(
        engine: Explorer,
        config: ReactorConfig,
        registry: &Registry,
    ) -> std::io::Result<ReactorServer> {
        let live = Arc::new(AtomicUsize::new(0));
        let engines = Engines::One(Box::new(engine));
        let service = EngineService::new(engines, registry, &config, Arc::clone(&live));
        ReactorServer::start_with_handler(Arc::new(service), config, live)
    }

    /// [`ReactorServer::start`] with a caller-supplied [`LineHandler`]
    /// (the router front uses this). `live` is the open-connection
    /// gauge the reactors maintain; pass the same `Arc` the handler
    /// reads, or a fresh one if the handler does not care.
    pub fn start_with_handler(
        handler: Arc<dyn LineHandler>,
        config: ReactorConfig,
        live: Arc<AtomicUsize>,
    ) -> std::io::Result<ReactorServer> {
        // Fail fast on unsupported targets instead of spawning threads
        // that error per connection.
        drop(Epoll::new()?);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let reactor_count = config.reactors.max(1);
        let mut inboxes = Vec::with_capacity(reactor_count);
        for _ in 0..reactor_count {
            inboxes.push(Arc::new(Inbox {
                queue: Mutex::new(Vec::new()),
                wake: EventFd::new()?,
                wakeups: AtomicU64::new(0),
                throttles: AtomicU64::new(0),
            }));
        }
        let mut reactors = Vec::with_capacity(reactor_count);
        for (i, inbox) in inboxes.iter().enumerate() {
            let inbox = Arc::clone(inbox);
            let handler = Arc::clone(&handler);
            let shutdown = Arc::clone(&shutdown);
            let live = Arc::clone(&live);
            reactors.push(
                std::thread::Builder::new()
                    .name(format!("serve-reactor-{i}"))
                    .spawn(move || reactor_loop(&inbox, &*handler, &config, &shutdown, &live))?,
            );
        }
        let acceptor = {
            let inboxes = inboxes.clone();
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("serve-reactor-acceptor".into())
                .spawn(move || accept_loop(&listener, &inboxes, &shutdown))?
        };
        Ok(ReactorServer {
            addr,
            shutdown,
            inboxes,
            live,
            acceptor: Some(acceptor),
            reactors,
        })
    }

    /// The bound loopback address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently registered across all reactors.
    pub fn live_connections(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Total `epoll_wait` returns across all reactors. An idle server
    /// must not move this — the no-busy-polling invariant CI pins.
    pub fn wakeups(&self) -> u64 {
        self.inboxes
            .iter()
            .map(|i| i.wakeups.load(Ordering::SeqCst))
            .sum()
    }

    /// Times any reactor paused reading a connection because its reply
    /// backlog crossed [`ReactorConfig::max_outbuf_bytes`].
    pub fn throttles(&self) -> u64 {
        self.inboxes
            .iter()
            .map(|i| i.throttles.load(Ordering::SeqCst))
            .sum()
    }

    /// Stops admitting, closes every connection (open ones count as
    /// abandoned), and joins every thread.
    pub fn drain(mut self) -> DrainStats {
        self.shutdown.store(true, Ordering::SeqCst);
        for inbox in &self.inboxes {
            inbox.wake.signal();
        }
        // The acceptor blocks in accept(); one throwaway connection
        // unblocks it so it can observe the shutdown flag.
        let _ = TcpStream::connect(self.addr);
        let mut joined = 0usize;
        let mut clean = true;
        let mut abandoned = 0usize;
        if let Some(acceptor) = self.acceptor.take() {
            clean &= acceptor.join().is_ok();
            joined += 1;
        }
        for reactor in self.reactors.drain(..) {
            match reactor.join() {
                Ok(open) => abandoned += open,
                Err(_) => clean = false,
            }
            joined += 1;
        }
        DrainStats {
            threads_joined: joined,
            abandoned_connections: abandoned,
            clean,
        }
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        // A dropped server must not leak threads.
        if self.acceptor.is_some() || !self.reactors.is_empty() {
            let server = ReactorServer {
                addr: self.addr,
                shutdown: Arc::clone(&self.shutdown),
                inboxes: std::mem::take(&mut self.inboxes),
                live: Arc::clone(&self.live),
                acceptor: self.acceptor.take(),
                reactors: std::mem::take(&mut self.reactors),
            };
            server.drain();
        }
    }
}

fn accept_loop(listener: &TcpListener, inboxes: &[Arc<Inbox>], shutdown: &AtomicBool) {
    let mut next = 0usize;
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let inbox = &inboxes[next % inboxes.len()];
        next = next.wrapping_add(1);
        inbox
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(stream);
        inbox.wake.signal();
    }
}

/// Wakeup token reserved for the inbox eventfd; connection slots map to
/// `slot + 1`.
const WAKE_TOKEN: u64 = 0;

fn reactor_loop(
    inbox: &Inbox,
    handler: &dyn LineHandler,
    config: &ReactorConfig,
    shutdown: &AtomicBool,
    live: &AtomicUsize,
) -> usize {
    // On setup failure (no epoll on this target) nothing registered.
    reactor_run(inbox, handler, config, shutdown, live).unwrap_or_default()
}

fn reactor_run(
    inbox: &Inbox,
    handler: &dyn LineHandler,
    config: &ReactorConfig,
    shutdown: &AtomicBool,
    live: &AtomicUsize,
) -> std::io::Result<usize> {
    let epoll = Epoll::new()?;
    epoll.add(inbox.wake.raw(), EPOLLIN, WAKE_TOKEN)?;
    let mut slab: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events = vec![EpollEvent::zeroed(); 128];
    loop {
        let timeout = earliest_deadline_ms(&slab);
        let ready = epoll.wait(&mut events, timeout)?;
        inbox.wakeups.fetch_add(1, Ordering::SeqCst);
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        for event in events.iter().take(ready) {
            let token = event.token();
            if token == WAKE_TOKEN {
                inbox.wake.drain();
                admit_pending(inbox, handler, config, &epoll, &mut slab, &mut free, live);
            } else {
                let slot = (token - 1) as usize;
                let readiness = event.readiness();
                service_conn(
                    slot,
                    readiness,
                    handler,
                    config,
                    &epoll,
                    &mut slab,
                    &mut free,
                    live,
                    &inbox.throttles,
                );
            }
        }
        sweep_deadlines(handler, config, &epoll, &mut slab, &mut free, live);
    }
    // Shutdown: everything still registered closes unserved.
    let abandoned = slab.iter().filter(|c| c.is_some()).count();
    live.fetch_sub(abandoned, Ordering::SeqCst);
    Ok(abandoned)
}

/// Registers every socket parked in the inbox, shedding past the
/// per-reactor ceiling.
fn admit_pending(
    inbox: &Inbox,
    handler: &dyn LineHandler,
    config: &ReactorConfig,
    epoll: &Epoll,
    slab: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    live: &AtomicUsize,
) {
    let pending = std::mem::take(&mut *inbox.queue.lock().unwrap_or_else(PoisonError::into_inner));
    for mut stream in pending {
        let open = slab.len() - free.len();
        if open >= config.max_connections.max(1) {
            // Shed at the door: one structured reply on the
            // still-blocking socket, then close.
            let _ = writeln!(stream, "{}", handler.overloaded());
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let slot = free.pop().unwrap_or_else(|| {
            slab.push(None);
            slab.len() - 1
        });
        let token = (slot + 1) as u64;
        if epoll
            .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
            .is_err()
        {
            free.push(slot);
            continue;
        }
        slab[slot] = Some(Conn {
            stream,
            framer: LineFramer::new(config.max_line_bytes),
            out: Vec::new(),
            out_pos: 0,
            deadline: None,
            registered_in: true,
            registered_out: false,
            closing: false,
        });
        live.fetch_add(1, Ordering::SeqCst);
    }
}

/// The earliest armed progress deadline as an `epoll_wait` timeout:
/// `-1` (sleep forever) when nothing is armed — the no-busy-polling
/// property — else the ceiling of the remaining time in ms.
fn earliest_deadline_ms(slab: &[Option<Conn>]) -> i32 {
    let earliest = slab.iter().flatten().filter_map(|c| c.deadline).min();
    match earliest {
        None => -1,
        Some(deadline) => timeout_ms(deadline.saturating_duration_since(Instant::now())),
    }
}

/// Ceiling of `remaining` in whole milliseconds, saturating at
/// `i32::MAX`. The saturating round-up matters: `min(i32::MAX) + 1`
/// would overflow for a deadline ~24.8 days out, turning the epoll
/// timeout negative (= sleep forever) in release builds.
fn timeout_ms(remaining: Duration) -> i32 {
    let whole = remaining.as_millis().min(i32::MAX as u128) as i32;
    whole.saturating_add(i32::from(!remaining.subsec_micros().is_multiple_of(1000)))
}

/// Handles one readiness event for one connection slot.
#[allow(clippy::too_many_arguments)] // event-loop plumbing, all borrowed
fn service_conn(
    slot: usize,
    readiness: u32,
    handler: &dyn LineHandler,
    config: &ReactorConfig,
    epoll: &Epoll,
    slab: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    live: &AtomicUsize,
    throttles: &AtomicU64,
) {
    let Some(conn) = slab.get_mut(slot).and_then(Option::as_mut) else {
        return; // already closed this wakeup batch
    };
    let mut dead = false;
    if readiness & EPOLLOUT != 0 {
        dead |= !flush_out(conn);
    }
    // EPOLLERR/EPOLLHUP are unsolicited; folding them into the read
    // path lets read() surface the actual error (or EOF) instead of
    // this level-triggered event spinning forever. (A read-throttled
    // connection skips the read, but the unconditional flush below
    // still surfaces the broken pipe and closes the slot.)
    if !dead && readiness & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 && !conn.closing {
        dead |= !drain_readable(conn, handler, config, throttles);
    }
    if !dead {
        dead |= !flush_out(conn);
    }
    let token = (slot + 1) as u64;
    if dead || (conn.closing && conn.out_pos >= conn.out.len()) {
        close_slot(slot, epoll, slab, free, live);
    } else if let Err(e) = update_interest(conn, epoll, token, config.max_outbuf_bytes) {
        let _ = e;
        close_slot(slot, epoll, slab, free, live);
    }
}

/// Reads until `WouldBlock`/EOF, frames, answers complete lines into
/// the outbuf, and re-arms the progress deadline. Returns false when
/// the connection errored and must close immediately.
fn drain_readable(
    conn: &mut Conn,
    handler: &dyn LineHandler,
    config: &ReactorConfig,
    throttles: &AtomicU64,
) -> bool {
    let mut chunk = [0u8; 4096];
    let mut events: Vec<FrameEvent> = Vec::new();
    let mut progressed = false;
    loop {
        // Backpressure: once the reply backlog crosses the cap, leave
        // further input in the kernel buffer. If the flush that follows
        // cannot clear the backlog, `update_interest` also drops
        // EPOLLIN until the peer drains its replies, so `out` stays
        // bounded however fast the peer pipelines. Replies are
        // dispatched per chunk so this check sees the bytes each chunk
        // generated.
        if conn.out.len() - conn.out_pos > config.max_outbuf_bytes {
            throttles.fetch_add(1, Ordering::SeqCst);
            break;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                // EOF: a trailing unterminated line still gets served.
                conn.framer.finish(&mut events);
                conn.closing = true;
                progressed |= !events.is_empty();
                dispatch_events(&mut events, conn, handler);
                break;
            }
            Ok(n) => {
                conn.framer.push(&chunk[..n], &mut events);
                progressed |= !events.is_empty();
                dispatch_events(&mut events, conn, handler);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    // The slow-loris rule: completing a line (or owing nothing) resets
    // the budget; raw bytes do not.
    if progressed || !conn.framer.has_partial() {
        conn.deadline = if conn.framer.has_partial() {
            config.line_deadline.map(|d| Instant::now() + d)
        } else {
            None
        };
    } else if conn.deadline.is_none() {
        conn.deadline = config.line_deadline.map(|d| Instant::now() + d);
    }
    true
}

/// Plays framer events in input order into the outbuf: runs of complete
/// lines become handler batches, an oversized line becomes one
/// `too_large` refusal.
fn dispatch_events(events: &mut Vec<FrameEvent>, conn: &mut Conn, handler: &dyn LineHandler) {
    let mut lines: Vec<String> = Vec::new();
    let mut reply = String::new();
    for event in events.drain(..) {
        match event {
            FrameEvent::Line(line) => lines.push(line),
            FrameEvent::TooLarge => {
                if !lines.is_empty() {
                    handler.handle_lines(&lines, &mut reply);
                    lines.clear();
                }
                reply.push_str(
                    &handler.refusal(ErrorKind::TooLarge, "request line exceeds size cap"),
                );
                reply.push('\n');
            }
        }
    }
    if !lines.is_empty() {
        handler.handle_lines(&lines, &mut reply);
    }
    conn.out.extend_from_slice(reply.as_bytes());
}

/// Writes as much of the outbuf as the socket accepts. Returns false on
/// a connection error.
fn flush_out(conn: &mut Conn) -> bool {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return false,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    true
}

/// Arms EPOLLOUT exactly while the outbuf has a backlog, and drops
/// EPOLLIN while that backlog exceeds the outbuf cap (or the
/// connection is closing): a peer that pipelines requests but never
/// reads its replies is throttled instead of buffered without bound.
fn update_interest(
    conn: &mut Conn,
    epoll: &Epoll,
    token: u64,
    max_outbuf_bytes: usize,
) -> std::io::Result<()> {
    let backlog = conn.out.len() - conn.out_pos;
    let want_out = backlog > 0;
    let want_in = !conn.closing && backlog <= max_outbuf_bytes;
    if want_out == conn.registered_out && want_in == conn.registered_in {
        return Ok(());
    }
    let mut interest = 0;
    if want_in {
        interest |= EPOLLIN | EPOLLRDHUP;
    }
    if want_out {
        interest |= EPOLLOUT;
    }
    epoll.modify(conn.stream.as_raw_fd(), interest, token)?;
    conn.registered_in = want_in;
    conn.registered_out = want_out;
    Ok(())
}

/// Refuses every connection whose progress deadline has passed.
fn sweep_deadlines(
    handler: &dyn LineHandler,
    config: &ReactorConfig,
    epoll: &Epoll,
    slab: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    live: &AtomicUsize,
) {
    let now = Instant::now();
    for slot in 0..slab.len() {
        let Some(conn) = slab[slot].as_mut() else {
            continue;
        };
        if conn.closing || conn.deadline.is_none_or(|d| d > now) {
            continue;
        }
        let mut reply = handler.refusal(
            ErrorKind::DeadlineExceeded,
            "no complete request line within the progress deadline",
        );
        reply.push('\n');
        conn.out.extend_from_slice(reply.as_bytes());
        conn.deadline = None;
        conn.closing = true;
        if !flush_out(conn) || conn.out_pos >= conn.out.len() {
            close_slot(slot, epoll, slab, free, live);
        } else {
            let token = (slot + 1) as u64;
            let registered = {
                let conn = slab[slot].as_mut().expect("just checked");
                update_interest(conn, epoll, token, config.max_outbuf_bytes).is_ok()
            };
            if !registered {
                close_slot(slot, epoll, slab, free, live);
            }
        }
    }
}

fn close_slot(
    slot: usize,
    epoll: &Epoll,
    slab: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    live: &AtomicUsize,
) {
    if let Some(conn) = slab[slot].take() {
        let _ = epoll.delete(conn.stream.as_raw_fd());
        free.push(slot);
        live.fetch_sub(1, Ordering::SeqCst);
        // Panic isolation for Drop impls; the stream just closes.
        let _ = catch_unwind(AssertUnwindSafe(move || drop(conn)));
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[cfg(test)]
mod tests {
    use super::*;
    use drone_telemetry::Json;
    use std::io::{BufRead, BufReader, Write};

    fn request_line(id: u64) -> String {
        format!(
            r#"{{"id":{id},"query":{{"ranges":{{"wheelbase_mm":{{"min":250,"max":450,"steps":3}},"cells":["3S"],"capacity_mah":{{"min":2000,"max":6000,"steps":5}}}},"objective":"max_flight_time"}}}}"#
        )
    }

    fn start(config: ReactorConfig) -> (ReactorServer, Registry) {
        let registry = Registry::with_wall_clock();
        let server =
            ReactorServer::start(Explorer::new(2), config, &registry).expect("bind loopback");
        (server, registry)
    }

    #[test]
    fn serves_pipelined_requests_in_order_and_drains_cleanly() {
        let (server, registry) = start(ReactorConfig::default());
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut payload = String::new();
        for id in 0..5 {
            payload.push_str(&request_line(id));
            payload.push('\n');
        }
        payload.push_str("junk line\n");
        stream.write_all(payload.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let reader = BufReader::new(stream);
        let replies: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
        assert_eq!(replies.len(), 6);
        for (id, line) in replies[..5].iter().enumerate() {
            let doc = Json::parse(line).unwrap();
            assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{line}");
            assert_eq!(doc.get("id"), Some(&Json::Num(id as f64)));
        }
        let junk = Json::parse(&replies[5]).unwrap();
        assert_eq!(junk.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(registry.counter("serve.requests").get(), 6);

        let stats = server.drain();
        assert_eq!(
            stats.threads_joined,
            ReactorConfig::default().reactors + 1,
            "acceptor plus every reactor"
        );
        assert!(stats.clean);
        assert_eq!(stats.abandoned_connections, 0);
    }

    #[test]
    fn eof_without_trailing_newline_still_serves_the_line() {
        let (server, _registry) = start(ReactorConfig::default());
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(request_line(9).as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        let doc = Json::parse(line.trim()).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("id"), Some(&Json::Num(9.0)));
        server.drain();
    }

    #[test]
    fn oversized_lines_refuse_and_resynchronize() {
        let config = ReactorConfig {
            max_line_bytes: 512,
            ..ReactorConfig::default()
        };
        let (server, registry) = start(config);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let blob = "x".repeat(2048);
        stream.write_all(blob.as_bytes()).unwrap();
        stream.flush().unwrap();
        // Finish the oversized junk, then a valid request on the same
        // connection: the framer must resynchronize.
        std::thread::sleep(Duration::from_millis(40));
        stream.write_all(b"\n").unwrap();
        stream.write_all(request_line(3).as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let reader = BufReader::new(stream);
        let replies: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
        assert_eq!(replies.len(), 2, "{replies:?}");
        let refusal = Json::parse(&replies[0]).unwrap();
        assert_eq!(
            refusal.get("error").unwrap().get("kind"),
            Some(&Json::Str("too_large".into()))
        );
        let ok = Json::parse(&replies[1]).unwrap();
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(registry.counter("serve.errors.protocol").get(), 1);
        server.drain();
    }

    #[test]
    fn drip_fed_partial_lines_are_refused_within_the_progress_budget() {
        let config = ReactorConfig {
            line_deadline: Some(Duration::from_millis(150)),
            ..ReactorConfig::default()
        };
        let (server, registry) = start(config);
        let stream = TcpStream::connect(server.addr()).unwrap();
        let started = Instant::now();
        // A slow-loris drip: keep bytes (but never a newline) flowing,
        // so a naive last-activity clock would reset forever. The writer
        // runs aside while this thread blocks in read_line, consuming
        // the refusal the moment it lands.
        let mut writer = stream.try_clone().unwrap();
        let drip = std::thread::spawn(move || {
            for _ in 0..150 {
                if writer.write_all(b"x").is_err() {
                    break;
                }
                writer.flush().ok();
                std::thread::sleep(Duration::from_millis(30));
            }
        });
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("server must refuse with a reply line, not a silent close");
        assert!(!line.is_empty(), "connection closed without a refusal");
        let doc = Json::parse(line.trim()).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            doc.get("error").unwrap().get("kind"),
            Some(&Json::Str("deadline_exceeded".into()))
        );
        assert!(
            started.elapsed() >= Duration::from_millis(150),
            "refused before the budget elapsed"
        );
        assert_eq!(registry.counter("serve.idle_timeouts").get(), 1);
        drip.join().unwrap();
        server.drain();
    }

    #[test]
    fn timeout_ms_rounds_up_and_saturates_instead_of_overflowing() {
        assert_eq!(timeout_ms(Duration::ZERO), 0);
        assert_eq!(timeout_ms(Duration::from_millis(5)), 5);
        // Fractional milliseconds round up so a deadline never fires
        // before `epoll_wait` returns.
        assert_eq!(timeout_ms(Duration::from_micros(5500)), 6);
        // A deadline past ~24.8 days used to overflow the +1 round-up
        // into a negative (= infinite) epoll timeout.
        assert_eq!(timeout_ms(Duration::from_millis(i32::MAX as u64)), i32::MAX);
        assert_eq!(timeout_ms(Duration::from_secs(365 * 24 * 3600)), i32::MAX);
        assert_eq!(timeout_ms(Duration::MAX), i32::MAX);
    }

    #[test]
    fn a_client_that_never_reads_is_throttled_not_buffered_without_bound() {
        let config = ReactorConfig {
            reactors: 1,
            max_outbuf_bytes: 1024,
            ..ReactorConfig::default()
        };
        let (server, _registry) = start(config);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        const REQUESTS: usize = 200;
        let mut payload = String::new();
        for id in 0..REQUESTS {
            payload.push_str(&request_line(id as u64));
            payload.push('\n');
        }
        stream.write_all(payload.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        // Nothing is reading the replies yet: they overflow the 1 KiB
        // outbuf cap, so the reactor must drop read interest rather
        // than keep swallowing input and buffering replies.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.throttles() == 0 {
            assert!(
                Instant::now() < deadline,
                "reply backlog over the cap never throttled reads"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // Draining the replies un-throttles reads; every request is
        // still answered exactly once, in order.
        let reader = BufReader::new(stream);
        let replies: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
        assert_eq!(replies.len(), REQUESTS);
        for (id, line) in replies.iter().enumerate() {
            let doc = Json::parse(line).unwrap();
            assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{line}");
            assert_eq!(doc.get("id"), Some(&Json::Num(id as f64)));
        }
        assert!(server.drain().clean);
    }

    #[test]
    fn idle_connections_cost_zero_wakeups() {
        let (server, _registry) = start(ReactorConfig::default());
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(format!("{}\n", request_line(1)).as_bytes())
            .unwrap();
        let mut line = String::new();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"));
        // The connection stays open but idle, and no deadline is
        // armed: the reactors must sleep in epoll_wait indefinitely.
        let before = server.wakeups();
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(
            server.wakeups() - before,
            0,
            "an idle reactor must not busy-poll"
        );
        drop(stream);
        server.drain();
    }

    #[test]
    fn connections_past_the_ceiling_are_shed_with_a_structured_reply() {
        let config = ReactorConfig {
            reactors: 1,
            max_connections: 2,
            ..ReactorConfig::default()
        };
        let (server, _registry) = start(config);
        // Two held connections fill the reactor; they must register
        // before the third arrives (registration is async via inbox).
        let held: Vec<TcpStream> = (0..2)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.live_connections() < 2 {
            assert!(
                Instant::now() < deadline,
                "held connections never registered"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let third = TcpStream::connect(server.addr()).unwrap();
        let mut line = String::new();
        BufReader::new(third).read_line(&mut line).unwrap();
        let doc = Json::parse(line.trim()).unwrap();
        assert_eq!(
            doc.get("error").unwrap().get("kind"),
            Some(&Json::Str("overloaded".into()))
        );
        drop(held);
        server.drain();
    }

    #[test]
    fn held_open_connections_all_get_served_concurrently() {
        // The capacity claim at small scale: more simultaneously-open,
        // actively-served connections than there are reactor threads.
        let (server, _registry) = start(ReactorConfig::default());
        let streams: Vec<TcpStream> = (0..8)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        let mut readers: Vec<BufReader<TcpStream>> = Vec::new();
        for (i, mut s) in streams.into_iter().enumerate() {
            s.write_all(format!("{}\n", request_line(i as u64)).as_bytes())
                .unwrap();
            readers.push(BufReader::new(s));
        }
        for (i, reader) in readers.iter_mut().enumerate() {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let doc = Json::parse(line.trim()).unwrap();
            assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "conn {i}");
            assert_eq!(doc.get("id"), Some(&Json::Num(i as f64)));
        }
        let stats = server.drain();
        assert!(stats.clean);
    }
}
