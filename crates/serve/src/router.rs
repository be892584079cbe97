//! Sharded scatter/gather serving: the memo cache's FNV shard scheme
//! lifted to process level.
//!
//! A [`Router`] runs N engine-backed [`ReactorServer`] shards, each
//! answering only its quantized-coordinate partition of any query's
//! grid (see [`drone_explorer::shard_of`]), plus one thin front
//! reactor speaking the ordinary wire protocol. A client query is
//! **scattered** — one sub-query per shard, `shard: {index, count}`
//! set, refinement stripped — and the per-shard answers are
//! **gather-merged** back into a single reply.
//!
//! The merge is deliberately order-pinned so the reply is
//! byte-deterministic in the shard count:
//!
//! * shard replies are read in shard-index order, and the first error
//!   (in that order) is the one propagated — after the whole round is
//!   drained, so a pooled connection never carries an unread reply
//!   into the next query that checks the set out;
//! * `evaluated`/`feasible`/`infeasible` are *sums* over shards, and
//!   the shard grids partition the full grid exactly, so the sums are
//!   shard-count invariant;
//! * frontier members are deduplicated by quantized design coordinates
//!   and re-reduced with [`drone_explorer::extract_frontier`] — the
//!   union of per-shard frontiers always contains the global frontier,
//!   and dominance is transitive, so the reduced set equals the
//!   single-shard frontier whatever N was;
//! * the final rendering sorts members by (flight time desc, weight
//!   asc), exactly like `answer_to_json`, so the reply bytes match the
//!   order a single engine would emit;
//! * the incumbent for refinement re-centring is the best of the shard
//!   bests, ties broken by canonical grid order (cells position in the
//!   query's cell list, then each axis ascending). An exact f64
//!   objective tie between *different* designs is the one case where
//!   the router's incumbent may differ from a single engine's
//!   first-seen tie-break; coordinates, not floats, decide here so the
//!   choice is shard-count independent.
//!
//! Refinement rounds are driven *by the router*: each round scatters
//! the current ranges, gathers, picks the incumbent, and re-centres
//! via `QueryRanges::refined_around` — the same recurrence the engine
//! runs internally. Because every round is a fresh request to the
//! shards, cross-round duplicate points are re-evaluated server-side
//! (the engine's per-request `seen` dedup cannot span rounds), so the
//! router's `evaluated` may exceed a single engine's for the same
//! query; it is still exactly shard-count invariant, which is the
//! property the benchmark artifact pins.

use crate::protocol::{self, ErrorKind, Request, RequestBody, RequestError};
use crate::reactor::{LineHandler, ReactorConfig, ReactorServer};
use crate::service::DrainStats;
use drone_dse::eval::{DesignQuery, OBJECTIVE_SENSES};
use drone_explorer::{
    extract_frontier, CacheKey, Explorer, Objective, Query, QueryLimits, ShardSpec,
};
use drone_math::Sense;
use drone_telemetry::{Counter, Json, Registry};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Read timeout on pooled shard streams: a wedged shard must not pin
/// the front reactor thread (and every connection it owns) forever.
/// The timeout surfaces as an IO error, which retires the set.
const SHARD_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Tuning knobs for [`Router::start`].
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Engine shards behind the front (≥ 1).
    pub shards: usize,
    /// Reactor settings applied to the front and to every shard.
    pub reactor: ReactorConfig,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            shards: 2,
            reactor: ReactorConfig::default(),
        }
    }
}

/// What a completed router drain looked like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterStats {
    /// Threads joined across the front *and* every shard.
    pub threads_joined: usize,
    /// The shard-only portion of [`RouterStats::threads_joined`].
    pub shard_threads_joined: usize,
    /// Connections closed unserved during the drain. The router's own
    /// pooled shard connections land here (they are open by design
    /// when the shards drain), so this is bookkeeping, not an error
    /// signal — and it stays out of deterministic benchmark artifacts.
    pub abandoned_connections: usize,
    /// True when every thread joined without panicking.
    pub clean: bool,
}

/// A running scatter/gather deployment: N engine shards plus the
/// routing front.
pub struct Router {
    front: Option<ReactorServer>,
    shards: Vec<ReactorServer>,
    pool: Arc<ShardPool>,
}

impl Router {
    /// Starts `config.shards` engine shards (one fresh engine from
    /// `make_engine` each, so caches stay shard-local like the design
    /// intends) and the routing front. All tiers register their
    /// metrics in `registry` — the `serve.*` family aggregates across
    /// shards, the `router.*` family counts front-door traffic.
    ///
    /// # Errors
    ///
    /// Fails if any listener cannot bind, or on targets without the
    /// epoll shims (see [`crate::sys`]).
    pub fn start(
        mut make_engine: impl FnMut() -> Explorer,
        config: RouterConfig,
        registry: &Registry,
    ) -> std::io::Result<Router> {
        let shard_count = config.shards.max(1);
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            shards.push(ReactorServer::start(
                make_engine(),
                config.reactor,
                registry,
            )?);
        }
        let pool = Arc::new(ShardPool {
            addrs: shards.iter().map(ReactorServer::addr).collect(),
            idle: Mutex::new(Vec::new()),
        });
        let service = RouterService {
            limits: config.reactor.limits,
            pool: Arc::clone(&pool),
            requests: registry.counter("router.requests"),
            errors: registry.counter("router.errors"),
            protocol_errors: registry.counter("router.errors.protocol"),
            idle_timeouts: registry.counter("router.idle_timeouts"),
            sheds: registry.counter("router.sheds"),
        };
        let front = ReactorServer::start_with_handler(
            Arc::new(service),
            config.reactor,
            Arc::new(AtomicUsize::new(0)),
        )?;
        Ok(Router {
            front: Some(front),
            shards,
            pool,
        })
    }

    /// The front-door address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.front.as_ref().expect("front runs until drain").addr()
    }

    /// Drains the front first (no new scatters), drops the pooled
    /// shard connections, then drains every shard; joins every thread.
    pub fn drain(mut self) -> RouterStats {
        let front = self
            .front
            .take()
            .map(ReactorServer::drain)
            .unwrap_or(DrainStats {
                threads_joined: 0,
                abandoned_connections: 0,
                clean: true,
            });
        self.pool.clear();
        let mut shard_joined = 0usize;
        let mut abandoned = front.abandoned_connections;
        let mut clean = front.clean;
        for shard in self.shards.drain(..) {
            let stats = shard.drain();
            shard_joined += stats.threads_joined;
            abandoned += stats.abandoned_connections;
            clean &= stats.clean;
        }
        RouterStats {
            threads_joined: front.threads_joined + shard_joined,
            shard_threads_joined: shard_joined,
            abandoned_connections: abandoned,
            clean,
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        if self.front.is_some() || !self.shards.is_empty() {
            let router = Router {
                front: self.front.take(),
                shards: std::mem::take(&mut self.shards),
                pool: Arc::clone(&self.pool),
            };
            router.drain();
        }
    }
}

/// Persistent router→shard connections, checked out as full sets (one
/// stream per shard) so a query's scatter and gather run on a
/// consistent snapshot.
struct ShardPool {
    addrs: Vec<SocketAddr>,
    idle: Mutex<Vec<Vec<BufReader<TcpStream>>>>,
}

impl ShardPool {
    fn checkout(&self) -> std::io::Result<Vec<BufReader<TcpStream>>> {
        if let Some(set) = self
            .idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
        {
            return Ok(set);
        }
        self.addrs
            .iter()
            .map(|addr| {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(SHARD_READ_TIMEOUT))?;
                Ok(BufReader::new(stream))
            })
            .collect()
    }

    /// Returns a healthy set; a set that saw an IO error is dropped by
    /// the caller instead (the shard side just sees EOF).
    fn checkin(&self, set: Vec<BufReader<TcpStream>>) {
        self.idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(set);
    }

    fn clear(&self) {
        self.idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

/// The front-door [`LineHandler`]: parse, scatter, gather, merge.
struct RouterService {
    limits: QueryLimits,
    pool: Arc<ShardPool>,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    idle_timeouts: Arc<Counter>,
    sheds: Arc<Counter>,
}

impl LineHandler for RouterService {
    fn handle_lines(&self, lines: &[String], out: &mut String) {
        for line in lines {
            self.requests.inc();
            let reply = self.answer_line(line);
            if reply.get("ok") != Some(&Json::Bool(true)) {
                self.errors.inc();
            }
            out.push_str(&reply.render());
            out.push('\n');
        }
    }

    fn refusal(&self, kind: ErrorKind, message: &str) -> String {
        match kind {
            ErrorKind::DeadlineExceeded => self.idle_timeouts.inc(),
            _ => self.protocol_errors.inc(),
        }
        protocol::error_reply(
            &Json::Null,
            &RequestError {
                kind,
                message: message.into(),
            },
        )
        .render()
    }

    fn overloaded(&self) -> String {
        self.sheds.inc();
        protocol::error_reply(
            &Json::Null,
            &RequestError {
                kind: ErrorKind::Overloaded,
                message: "queue full; retry later".into(),
            },
        )
        .render()
    }
}

impl RouterService {
    fn answer_line(&self, line: &str) -> Json {
        let (id, query) = match protocol::parse_request_with_id(line, &self.limits) {
            Ok(Request {
                id,
                body: RequestBody::Query(query),
                ..
            }) => (id, query),
            Ok(Request { id, .. }) => {
                return protocol::error_reply(
                    &id,
                    &RequestError {
                        kind: ErrorKind::BadRequest,
                        message: "router serves query requests only".into(),
                    },
                )
            }
            Err((id, error)) => return protocol::error_reply(&id, &error),
        };
        let mut conns = match self.pool.checkout() {
            Ok(conns) => conns,
            Err(_) => return internal_reply(&id, "no shard connection available"),
        };
        match scatter_gather(&query, &mut conns) {
            Ok(answer) => {
                self.pool.checkin(conns);
                Json::obj()
                    .with("id", id)
                    .with("ok", true)
                    .with("answer", answer)
            }
            Err(GatherError::Shard(error)) => {
                // The failing round was drained in full before the
                // error propagated, so the set holds no unread replies
                // and is safe to reuse.
                self.pool.checkin(conns);
                protocol::error_reply(&id, &error)
            }
            // The connection set is poisoned mid-conversation: drop it
            // (the pool reconnects lazily) and fail this request only.
            Err(GatherError::Io) => internal_reply(&id, "shard connection failed"),
        }
    }
}

fn internal_reply(id: &Json, message: &str) -> Json {
    protocol::error_reply(
        id,
        &RequestError {
            kind: ErrorKind::Internal,
            message: message.into(),
        },
    )
}

enum GatherError {
    /// A shard answered with a structured error; propagate the first
    /// one in shard order.
    Shard(RequestError),
    /// The wire itself failed (or spoke garbage); the caller must
    /// retire the connection set. The client sees a stable
    /// `internal_error` message either way, so no detail is carried.
    Io,
}

impl From<std::io::Error> for GatherError {
    fn from(_: std::io::Error) -> GatherError {
        GatherError::Io
    }
}

/// One merged frontier/best candidate: the shard's wire rendering kept
/// verbatim (so the merged reply re-emits identical bytes) plus the
/// parsed fields the merge itself needs.
struct Member {
    doc: Json,
    point: DesignQuery,
    flight: f64,
    weight: f64,
    share: f64,
}

impl Member {
    fn objective_value(&self, objective: Objective) -> f64 {
        match objective {
            Objective::MaxFlightTime => self.flight,
            Objective::MinWeight => self.weight,
            Objective::MinComputeShare => self.share,
        }
    }

    /// Canonical grid-order key: cells position in the query's cell
    /// list, then each axis ascending — the order `QueryRanges::grid`
    /// emits points in, which is how the engine breaks objective ties
    /// ("earliest evaluation wins").
    fn grid_key(&self, query: &Query) -> (usize, [f64; 5]) {
        let cells_pos = query
            .ranges
            .cells
            .iter()
            .position(|&c| c == self.point.cells)
            .unwrap_or(usize::MAX);
        (
            cells_pos,
            [
                self.point.wheelbase_mm,
                self.point.capacity_mah,
                self.point.compute_power_w,
                self.point.twr,
                self.point.payload_g,
            ],
        )
    }
}

fn grid_key_lt(a: &(usize, [f64; 5]), b: &(usize, [f64; 5])) -> bool {
    if a.0 != b.0 {
        return a.0 < b.0;
    }
    for (x, y) in a.1.iter().zip(b.1.iter()) {
        match x.total_cmp(y) {
            std::cmp::Ordering::Less => return true,
            std::cmp::Ordering::Greater => return false,
            std::cmp::Ordering::Equal => {}
        }
    }
    false
}

/// Drives one client query through every round of scatter/gather and
/// returns the merged `answer` object.
fn scatter_gather(query: &Query, conns: &mut [BufReader<TcpStream>]) -> Result<Json, GatherError> {
    let count = conns.len() as u32;
    let mut ranges = query.ranges.clone();
    let mut evaluated = 0usize;
    let mut feasible = 0usize;
    let mut infeasible = 0usize;
    let mut rounds = 0usize;
    let mut seen: HashSet<CacheKey> = HashSet::new();
    let mut members: Vec<Member> = Vec::new();
    let mut best: Option<Member> = None;
    for round in 0..=query.refine_rounds {
        if round > 0 {
            // Refinement needs an incumbent to centre on — the same
            // early-out the engine takes, so `rounds` agrees.
            let Some(incumbent) = &best else { break };
            ranges = query
                .ranges
                .refined_around(&incumbent.point, query.refine_steps);
        }
        // Scatter: the same region to every shard, each restricted to
        // its partition, refinement stripped (the router drives it).
        for (index, conn) in conns.iter_mut().enumerate() {
            let sub = Query {
                name: query.name.clone(),
                ranges: ranges.clone(),
                constraints: query.constraints,
                objective: query.objective,
                refine_rounds: 0,
                refine_steps: 0,
                shard: Some(ShardSpec {
                    index: index as u32,
                    count,
                }),
            };
            let line = protocol::request_to_json(index as u64, &sub).render();
            let stream = conn.get_mut();
            stream.write_all(line.as_bytes())?;
            stream.write_all(b"\n")?;
        }
        // Gather in shard-index order: replies stay attributable and
        // the merge order (hence the reply bytes) is deterministic.
        // Every scattered sub-query gets its reply read *even after a
        // shard-level error* — returning early would strand unread
        // replies on the pooled connections, to be misread as answers
        // to whichever query checks the set out next.
        let mut round_error: Option<RequestError> = None;
        for (index, conn) in conns.iter_mut().enumerate() {
            let mut line = String::new();
            if conn.read_line(&mut line)? == 0 {
                return Err(GatherError::Io);
            }
            let doc = Json::parse(line.trim_end()).map_err(|_| GatherError::Io)?;
            // The scattered id was the shard index; anything else means
            // the stream is desynchronized and the set must be retired.
            if doc.get("id") != Some(&Json::Num(index as f64)) {
                return Err(GatherError::Io);
            }
            if doc.get("ok") != Some(&Json::Bool(true)) {
                if round_error.is_none() {
                    round_error = Some(shard_error(&doc));
                }
                continue;
            }
            if round_error.is_some() {
                continue; // drain-only: the round already failed
            }
            let answer = doc
                .get("answer")
                .ok_or_else(|| bad_shard_reply("missing answer"))?;
            evaluated += count_field(answer, "evaluated")?;
            feasible += count_field(answer, "feasible")?;
            infeasible += count_field(answer, "infeasible")?;
            for member_doc in answer
                .get("frontier")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad_shard_reply("missing frontier"))?
            {
                let member = member_from_json(member_doc)?;
                if seen.insert(CacheKey::quantize(&member.point)) {
                    members.push(member);
                }
            }
            match answer.get("best") {
                Some(Json::Null) | None => {}
                Some(best_doc) => {
                    let candidate = member_from_json(best_doc)?;
                    best = Some(match best.take() {
                        None => candidate,
                        Some(current) => pick_best(current, candidate, query),
                    });
                }
            }
        }
        if let Some(error) = round_error {
            return Err(GatherError::Shard(error));
        }
        rounds += 1;
    }
    // Re-reduce the union of shard frontiers: dominance is transitive,
    // so this equals the frontier a single shard would have produced.
    let vectors: Vec<[f64; 3]> = members
        .iter()
        .map(|m| [m.flight, m.weight, m.share])
        .collect();
    let keep = extract_frontier(&vectors, &OBJECTIVE_SENSES);
    let mut frontier: Vec<&Member> = keep.iter().map(|&i| &members[i]).collect();
    frontier.sort_by(|a, b| {
        b.flight
            .total_cmp(&a.flight)
            .then(a.weight.total_cmp(&b.weight))
    });
    let mut frontier_json = Json::arr();
    for member in &frontier {
        frontier_json.push(member.doc.clone());
    }
    Ok(Json::obj()
        .with("name", query.name.as_str())
        .with("evaluated", evaluated)
        .with("feasible", feasible)
        .with("infeasible", infeasible)
        .with("rounds", rounds)
        .with("cost_units", evaluated)
        .with("best", best.as_ref().map_or(Json::Null, |m| m.doc.clone()))
        .with("frontier", frontier_json))
}

/// The better of two incumbents under the query objective, exact ties
/// broken by canonical grid order (see the module docs).
fn pick_best(current: Member, candidate: Member, query: &Query) -> Member {
    let (cur, cand) = (
        current.objective_value(query.objective),
        candidate.objective_value(query.objective),
    );
    let candidate_wins = match query.objective.sense() {
        _ if cur == cand => grid_key_lt(&candidate.grid_key(query), &current.grid_key(query)),
        Sense::Maximize => cand > cur,
        Sense::Minimize => cand < cur,
    };
    if candidate_wins {
        candidate
    } else {
        current
    }
}

fn shard_error(doc: &Json) -> RequestError {
    let error = doc.get("error");
    let kind = error
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .and_then(ErrorKind::from_wire)
        .unwrap_or(ErrorKind::Internal);
    let message = error
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap_or("shard error")
        .to_owned();
    RequestError { kind, message }
}

fn bad_shard_reply(_what: &str) -> GatherError {
    GatherError::Io
}

fn count_field(answer: &Json, key: &str) -> Result<usize, GatherError> {
    answer
        .get(key)
        .and_then(Json::as_f64)
        .map(|n| n as usize)
        .ok_or_else(|| bad_shard_reply(key))
}

fn num_field(doc: &Json, key: &str) -> Result<f64, GatherError> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| bad_shard_reply(key))
}

/// Parses one wire frontier/best member back into coordinates, keeping
/// the original object for byte-exact re-rendering.
fn member_from_json(doc: &Json) -> Result<Member, GatherError> {
    let cells_doc = doc
        .get("cells")
        .ok_or_else(|| bad_shard_reply("member cells"))?;
    let cells =
        protocol::cell(cells_doc).map_err(|e| bad_shard_reply(&format!("member cells: {e}")))?;
    let point = DesignQuery {
        wheelbase_mm: num_field(doc, "wheelbase_mm")?,
        cells,
        capacity_mah: num_field(doc, "capacity_mah")?,
        compute_power_w: num_field(doc, "compute_w")?,
        twr: num_field(doc, "twr")?,
        payload_g: num_field(doc, "payload_g")?,
    };
    Ok(Member {
        point,
        flight: num_field(doc, "flight_min")?,
        weight: num_field(doc, "weight_g")?,
        share: num_field(doc, "compute_share_hover")?,
        doc: doc.clone(),
    })
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[cfg(test)]
mod tests {
    use super::*;
    use drone_explorer::{GridRange, QueryRanges};

    fn ranges() -> QueryRanges {
        QueryRanges {
            wheelbase_mm: GridRange::new(250.0, 450.0, 3),
            cells: vec![
                drone_components::battery::CellCount::S3,
                drone_components::battery::CellCount::S6,
            ],
            capacity_mah: GridRange::new(2000.0, 6000.0, 5),
            compute_power_w: GridRange::fixed(3.0),
            twr: GridRange::fixed(2.0),
            payload_g: GridRange::fixed(0.0),
        }
    }

    fn ask(addr: SocketAddr, line: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        reply.trim_end().to_owned()
    }

    fn router(shards: usize) -> (Router, Registry) {
        let registry = Registry::with_wall_clock();
        let config = RouterConfig {
            shards,
            ..RouterConfig::default()
        };
        let router = Router::start(|| Explorer::new(2), config, &registry).expect("start router");
        (router, registry)
    }

    #[test]
    fn single_shard_router_matches_the_direct_engine_byte_for_byte() {
        // refine_rounds = 0 so the engine's cross-round `seen` dedup
        // cannot kick in — with it, feasible counts legitimately differ
        // between the router's round-per-request recurrence and one
        // engine run (see the module docs); the grid sweep itself must
        // be byte-identical.
        let mut query = Query::new("parity", ranges(), Objective::MaxFlightTime);
        query.refine_rounds = 0;
        let line = protocol::request_to_json(7, &query).render();

        let direct = {
            let answer = Explorer::new(2).run(&query);
            protocol::ok_reply(&Json::Num(7.0), &answer).render()
        };
        let (router, _registry) = router(1);
        let via_router = ask(router.addr(), &line);
        assert_eq!(via_router, direct);
        let stats = router.drain();
        assert!(stats.clean);
    }

    #[test]
    fn shard_count_does_not_change_the_reply_bytes() {
        let mut query = Query::new("invariant", ranges(), Objective::MinWeight);
        query.refine_rounds = 1;
        query.refine_steps = 3;
        let line = protocol::request_to_json(3, &query).render();
        let replies: Vec<String> = [1usize, 3]
            .iter()
            .map(|&n| {
                let (router, _registry) = router(n);
                let reply = ask(router.addr(), &line);
                router.drain();
                reply
            })
            .collect();
        assert_eq!(replies[0], replies[1]);
        assert!(replies[0].contains("\"ok\":true"));
    }

    #[test]
    fn non_query_requests_are_refused_with_bad_request() {
        let (router, registry) = router(1);
        let reply = ask(router.addr(), r#"{"id":4,"stats":{}}"#);
        let doc = Json::parse(&reply).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("id"), Some(&Json::Num(4.0)));
        assert_eq!(
            doc.get("error").unwrap().get("kind"),
            Some(&Json::Str("bad_request".into()))
        );
        assert_eq!(registry.counter("router.errors").get(), 1);
        router.drain();
    }

    #[test]
    fn a_shard_error_leaves_the_pooled_connections_reusable() {
        let registry = Registry::with_wall_clock();
        let config = RouterConfig {
            shards: 2,
            reactor: ReactorConfig {
                cost_deadline: Some(10),
                ..ReactorConfig::default()
            },
        };
        let router = Router::start(|| Explorer::new(2), config, &registry).expect("start router");
        // 30-point sweep: over the 10-unit cost deadline, so every
        // shard sheds with a structured error. Before the round was
        // drained, shard 1's reply stayed buffered on the pooled set.
        let mut big = Query::new("big", ranges(), Objective::MaxFlightTime);
        big.refine_rounds = 0;
        let reply = ask(router.addr(), &protocol::request_to_json(1, &big).render());
        let doc = Json::parse(&reply).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("id"), Some(&Json::Num(1.0)));
        assert_eq!(
            doc.get("error").unwrap().get("kind"),
            Some(&Json::Str("deadline_exceeded".into()))
        );
        // A small query reusing the same connection set must get *its*
        // answer, not a stale buffered reply from the shed round.
        let mut small_ranges = ranges();
        small_ranges.wheelbase_mm = GridRange::fixed(300.0);
        small_ranges.capacity_mah = GridRange::fixed(4000.0);
        let mut small = Query::new("small", small_ranges, Objective::MaxFlightTime);
        small.refine_rounds = 0;
        let reply = ask(
            router.addr(),
            &protocol::request_to_json(2, &small).render(),
        );
        let doc = Json::parse(&reply).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{reply}");
        assert_eq!(doc.get("id"), Some(&Json::Num(2.0)));
        assert!(router.drain().clean);
    }

    #[test]
    fn shard_errors_propagate_with_the_client_id() {
        let (router, _registry) = router(2);
        // An invalid query dies at the router's own parse (same limits
        // as the shards), still echoing the id.
        let reply = ask(
            router.addr(),
            r#"{"id":9,"query":{"ranges":{"wheelbase_mm":{"min":450,"max":250,"steps":3},"cells":["3S"],"capacity_mah":2000},"objective":"max_flight_time"}}"#,
        );
        let doc = Json::parse(&reply).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("id"), Some(&Json::Num(9.0)));
        assert_eq!(
            doc.get("error").unwrap().get("kind"),
            Some(&Json::Str("invalid_query".into()))
        );
        let stats = router.drain();
        assert!(stats.clean);
        assert_eq!(
            stats.threads_joined,
            stats.shard_threads_joined + RouterConfig::default().reactor.reactors + 1
        );
    }
}
