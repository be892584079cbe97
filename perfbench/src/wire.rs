//! The system under test and the load generator that drives it.
//!
//! A [`Deployment`] is one `ReactorServer` (1 reactor thread, executor
//! width 2) or one `Router` (2 shards of width 1 behind a 1-reactor
//! front) on loopback, plus the single connection the generator
//! speaks on. The generator runs on the calling thread: closed loop,
//! `window` requests in flight, timing each from the write of its line
//! to the read of its reply's newline. Inside the timed loop it only
//! hashes reply bytes; comparing them with the reference happens after.

use crate::machine::ServerCpu;
use crate::stats::fnv1a;
use crate::workload::{fill_grids, Kind, Stream};
use drone_explorer::{shard_of, Explorer, QueryLimits};
use drone_serve::{protocol, ReactorConfig, ReactorServer, Router, RouterConfig};
use drone_telemetry::Registry;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Executor width of the unsharded server (`nproc` on the reference
/// host), and the total width the sharded deployment splits.
pub const WIDTH: usize = 2;
/// Reactor threads per server (front and shards alike).
pub const REACTORS: usize = 1;

fn reactor_config() -> ReactorConfig {
    ReactorConfig {
        reactors: REACTORS,
        ..ReactorConfig::default()
    }
}

/// An engine of `width` workers whose default 16x8192 cache holds the
/// pre-load, when the workload has one: cold grids are evaluated until
/// a whole grid no longer grows the cache, so every lock shard the
/// points can reach is full and each later fresh point evicts. With
/// `shard = Some((index, count))` only the points that router shard
/// owns are loaded. Router and cache both place a key by its FNV hash,
/// so router shard `i` of 2 only ever reaches the 8 even or odd lock
/// shards: it fills at half the nominal capacity.
pub fn warm_engine(
    kind: Kind,
    seed: u64,
    width: usize,
    shard: Option<(u32, u32)>,
    registry: Option<&Registry>,
) -> Explorer {
    let mut engine = Explorer::new(width);
    if let Some(registry) = registry {
        engine.attach_telemetry(registry);
    }
    if kind.fills_cache() {
        for mut grid in fill_grids(seed) {
            if let Some((index, count)) = shard {
                grid.retain(|p| shard_of(p, count) == index);
            }
            let before = engine.cache().len();
            engine.evaluate_points(&grid);
            if engine.cache().len() == before {
                break;
            }
        }
    }
    engine
}

/// How the server under test is deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `ReactorServer` over one engine of this executor width.
    Direct { width: usize },
    /// A `Router` front over this many width-1 engine shards.
    Sharded { shards: usize },
}

impl Topology {
    /// Total executor width across engines.
    pub fn width(self) -> usize {
        match self {
            Topology::Direct { width } => width,
            Topology::Sharded { shards } => shards,
        }
    }

    pub fn shards(self) -> usize {
        match self {
            Topology::Direct { .. } => 1,
            Topology::Sharded { shards } => shards,
        }
    }
}

enum Server {
    Direct(ReactorServer),
    Sharded(Router),
}

/// A running server plus the generator's connection to it.
pub struct Deployment {
    server: Server,
    pub registry: Registry,
    conn: Conn,
    /// Reply hashes of the wire warm-up, in request order.
    pub warmup_hashes: Vec<u64>,
}

impl Deployment {
    /// Builds the engines, starts the server, connects, and replays the
    /// stream's wire warm-up. This is what `setup_s` times.
    pub fn start(
        kind: Kind,
        seed: u64,
        stream: &mut Stream,
        topology: Topology,
    ) -> io::Result<Deployment> {
        let registry = Registry::with_wall_clock();
        let server = match topology {
            Topology::Sharded { shards } => {
                let mut index = 0u32;
                let router = Router::start(
                    || {
                        let shard = (index, shards as u32);
                        index += 1;
                        warm_engine(kind, seed, 1, Some(shard), Some(&registry))
                    },
                    RouterConfig {
                        shards,
                        reactor: reactor_config(),
                    },
                    &registry,
                )?;
                Server::Sharded(router)
            }
            Topology::Direct { width } => {
                let engine = warm_engine(kind, seed, width, None, Some(&registry));
                Server::Direct(ReactorServer::start(engine, reactor_config(), &registry)?)
            }
        };
        let addr = match &server {
            Server::Direct(s) => s.addr(),
            Server::Sharded(r) => r.addr(),
        };
        let mut conn = Conn::connect(addr)?;
        let warmup = stream.warmup();
        let mut lines = warmup.into_iter();
        let pass = conn.drive(kind.window(), &mut || lines.next(), None, None)?;
        Ok(Deployment {
            server,
            registry,
            conn,
            warmup_hashes: pass.hashes,
        })
    }

    /// Runs the timed stream until `deadline`, then drains the window.
    /// With `cpu_every`, marks server CPU time at that period.
    pub fn drive_until(
        &mut self,
        window: usize,
        stream: &mut Stream,
        deadline: Instant,
        spans: Option<&mut Vec<WireSpan>>,
        cpu_every: Option<Duration>,
    ) -> io::Result<Pass> {
        let mut next = || (Instant::now() < deadline).then(|| stream.next_line());
        self.conn.drive(window, &mut next, spans, cpu_every)
    }

    /// Runs exactly `count` timed requests.
    pub fn drive_count(
        &mut self,
        window: usize,
        stream: &mut Stream,
        count: usize,
    ) -> io::Result<Pass> {
        let mut left = count;
        let mut next = || {
            (left > 0).then(|| {
                left -= 1;
                stream.next_line()
            })
        };
        self.conn.drive(window, &mut next, None, None)
    }

    /// Closes the connection and joins every server thread.
    pub fn stop(self) {
        drop(self.conn);
        match self.server {
            Server::Direct(s) => {
                s.drain();
            }
            Server::Sharded(r) => {
                r.drain();
            }
        }
    }
}

/// One request as the generator saw it, for the traced run.
#[derive(Debug, Clone, Copy)]
pub struct WireSpan {
    pub request: u64,
    pub start: Instant,
    pub end: Instant,
}

/// What one generator pass observed, in request order.
#[derive(Debug, Default)]
pub struct Pass {
    /// Send-to-reply latency per request, seconds.
    pub latencies: Vec<f64>,
    /// When each reply completed, seconds after the pass started.
    pub done_at: Vec<f64>,
    /// FNV-1a of each reply line (newline excluded).
    pub hashes: Vec<u64>,
    /// First send to last reply, seconds.
    pub elapsed: f64,
    /// `(seconds after start, server CPU seconds so far)`, taken at the
    /// start and then at the first reply after each `cpu_every` mark,
    /// while requests are still being issued.
    pub cpu_marks: Vec<(f64, f64)>,
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: Vec<u8>,
    sent: u64,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it.
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::with_capacity(256 * 1024, writer.try_clone()?);
        Ok(Conn {
            writer,
            reader,
            reply: Vec::with_capacity(64 * 1024),
            sent: 0,
        })
    }

    /// Closed loop: keeps up to `window` lines from `next` in flight
    /// until it returns `None`, then drains the replies still owed.
    fn drive(
        &mut self,
        window: usize,
        next: &mut dyn FnMut() -> Option<String>,
        mut spans: Option<&mut Vec<WireSpan>>,
        cpu_every: Option<Duration>,
    ) -> io::Result<Pass> {
        let mut pass = Pass::default();
        let mut inflight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(window);
        let mut exhausted = false;
        let cpu = cpu_every.map(|_| ServerCpu::start()).transpose()?;
        let started = Instant::now();
        let mut last = started;
        let mut next_mark = started;
        loop {
            if let (Some(cpu), Some(every)) = (&cpu, cpu_every) {
                if !exhausted && last >= next_mark {
                    pass.cpu_marks
                        .push(((last - started).as_secs_f64(), cpu.stop()?));
                    next_mark += every;
                }
            }
            while !exhausted && inflight.len() < window.max(1) {
                match next() {
                    Some(line) => {
                        let sent_at = Instant::now();
                        self.writer.write_all(line.as_bytes())?;
                        inflight.push_back((self.sent, sent_at));
                        self.sent += 1;
                    }
                    None => exhausted = true,
                }
            }
            let Some((request, sent_at)) = inflight.pop_front() else {
                break;
            };
            self.reply.clear();
            self.reader.read_until(b'\n', &mut self.reply)?;
            last = Instant::now();
            if self.reply.last() != Some(&b'\n') {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-reply",
                ));
            }
            pass.latencies.push((last - sent_at).as_secs_f64());
            pass.done_at.push((last - started).as_secs_f64());
            pass.hashes.push(fnv1a(&self.reply[..self.reply.len() - 1]));
            if let Some(spans) = spans.as_deref_mut() {
                spans.push(WireSpan {
                    request,
                    start: sent_at,
                    end: last,
                });
            }
        }
        pass.elapsed = (last - started).as_secs_f64();
        Ok(pass)
    }
}

/// The reference: the same request lines, in the same order, through
/// `protocol::handle_batch` on a fresh in-process engine that got the
/// same cache pre-load. `None` marks a reference reply that is not ok,
/// which no served reply can match.
pub fn reference_hashes(kind: Kind, seed: u64, width: usize, lines: &[String]) -> Vec<Option<u64>> {
    let engine = warm_engine(kind, seed, width, None, None);
    let limits = QueryLimits::default();
    let mut out = Vec::with_capacity(lines.len());
    for chunk in lines.chunks(32) {
        let batch: Vec<&str> = chunk.iter().map(|l| l.trim_end_matches('\n')).collect();
        let (replies, _) = protocol::handle_batch(&engine, &batch, &limits);
        out.extend(
            replies
                .iter()
                .map(|r| is_ok_reply(r).then(|| fnv1a(r.as_bytes()))),
        );
    }
    out
}

/// True for a rendered `{"id":..,"ok":true,..}` reply.
pub fn is_ok_reply(reply: &str) -> bool {
    reply.starts_with("{\"id\":") && reply.contains(",\"ok\":true,")
}

/// Every line the stream sends: the warm-up, then `timed` timed lines.
pub fn replay_lines(kind: Kind, seed: u64, timed: usize) -> Vec<String> {
    let mut stream = Stream::new(kind, seed);
    let mut lines = stream.warmup();
    lines.extend((0..timed).map(|_| stream.next_line()));
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMED: usize = 6;

    fn served(kind: Kind, topology: Topology) -> Vec<u64> {
        let mut stream = Stream::new(kind, 4);
        let mut deployment = Deployment::start(kind, 4, &mut stream, topology).expect("start");
        let pass = deployment
            .drive_count(kind.window(), &mut stream, TIMED)
            .expect("drive");
        let mut hashes = std::mem::take(&mut deployment.warmup_hashes);
        deployment.stop();
        hashes.extend(pass.hashes);
        hashes
    }

    #[test]
    fn reference_digests_agree_across_widths_and_shard_counts() {
        let _serial = crate::serial_test();
        for kind in [Kind::GridCold, Kind::ShardedCold] {
            let lines = replay_lines(kind, 4, TIMED);
            let reference = reference_hashes(kind, 4, 1, &lines);
            assert!(
                reference.iter().all(Option::is_some),
                "reference replies are ok"
            );
            assert_eq!(reference, reference_hashes(kind, 4, 2, &lines));
            let reference: Vec<u64> = reference.into_iter().flatten().collect();
            for topology in [
                Topology::Direct { width: 1 },
                Topology::Direct { width: 2 },
                Topology::Sharded { shards: 1 },
                Topology::Sharded { shards: 2 },
            ] {
                assert_eq!(
                    served(kind, topology),
                    reference,
                    "{} {topology:?}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn served_hot_optimize_and_mixed_replies_match_the_reference() {
        let _serial = crate::serial_test();
        for kind in [Kind::GridHot, Kind::Optimize, Kind::Mixed] {
            let lines = replay_lines(kind, 4, TIMED);
            let reference: Vec<u64> = reference_hashes(kind, 4, 1, &lines)
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(reference.len(), lines.len(), "reference replies are ok");
            assert_eq!(served(kind, kind.topology()), reference, "{}", kind.name());
        }
    }
}
