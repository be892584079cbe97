//! Sharded serving: the memo cache's FNV shard scheme lifted to N
//! in-process engines.
//!
//! A [`Router`] is one front [`ReactorServer`] answering through an
//! [`EngineService`] over N [`Explorer`]s. Each engine evaluates only
//! its quantized-coordinate partition of every round's points (see
//! [`drone_explorer::shard_of`]) and keeps its own cache. Sharding
//! partitions the *evaluation step* and nothing else:
//! [`drone_explorer::try_run_sharded`] runs the engine's own round
//! loop, so refinement, the cross-round `seen` set, the incumbent and
//! the frontier are computed once, exactly as one engine computes
//! them. A router reply is therefore byte-identical to a single
//! engine's at every shard count. Parsing, the cost deadline, panic
//! isolation, tracing and `serve.*` accounting are the direct server's.

use crate::protocol::ErrorKind;
use crate::reactor::{LineHandler, ReactorConfig, ReactorServer};
use crate::service::{DrainStats, EngineService, Engines};
use drone_explorer::Explorer;
use drone_telemetry::{Counter, Registry};
use std::net::SocketAddr;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

/// Tuning knobs for [`Router::start`].
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Engine shards behind the front (≥ 1).
    pub shards: usize,
    /// Reactor settings for the front: limits, cost deadline, threads.
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

/// A running sharded deployment: one front reactor over N engines.
pub struct Router {
    front: ReactorServer,
}

impl Router {
    /// Builds `config.shards` engines (one fresh engine from
    /// `make_engine` each, so caches stay shard-local) and starts the
    /// front. The front counts its traffic in the `router.*` family of
    /// `registry` and its batches in the `serve.*` family, as a direct
    /// server does; engines register their own metrics, if any, when
    /// `make_engine` attaches them.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind, or on targets without the
    /// epoll shims (see the `sys` module).
    pub fn start(
        make_engine: impl FnMut() -> Explorer,
        config: RouterConfig,
        registry: &Registry,
    ) -> std::io::Result<Router> {
        let shards = std::iter::repeat_with(make_engine).take(config.shards.max(1));
        let engines = Engines::Shards(shards.collect());
        let live = Arc::new(AtomicUsize::new(0));
        let service = EngineService::new(engines, registry, &config.reactor, Arc::clone(&live));
        let service = RouterService {
            service,
            requests: registry.counter("router.requests"),
            errors: registry.counter("router.errors"),
            protocol_errors: registry.counter("router.errors.protocol"),
            idle_timeouts: registry.counter("router.idle_timeouts"),
            sheds: registry.counter("router.sheds"),
        };
        let front = ReactorServer::start_with_handler(Arc::new(service), config.reactor, live)?;
        Ok(Router { front })
    }

    /// The front-door address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Drains the front and joins its threads; the engines have none
    /// of their own between queries.
    pub fn drain(self) -> DrainStats {
        self.front.drain()
    }
}

/// The front-door [`LineHandler`]: the sharded [`EngineService`], which
/// also counts into `serve.*`, plus the `router.*` counters.
struct RouterService {
    service: EngineService,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    idle_timeouts: Arc<Counter>,
    sheds: Arc<Counter>,
}

impl LineHandler for RouterService {
    fn handle_lines(&self, lines: &[String], out: &mut String) {
        self.requests.add(lines.len() as u64);
        let rejected = self.service.answer_lines(lines, out);
        self.errors.add(rejected as u64);
    }

    fn refusal(&self, kind: ErrorKind, message: &str) -> String {
        match kind {
            ErrorKind::DeadlineExceeded => self.idle_timeouts.inc(),
            _ => self.protocol_errors.inc(),
        }
        self.service.refusal(kind, message)
    }

    fn overloaded(&self) -> String {
        self.sheds.inc();
        self.service.overloaded()
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol;
    use drone_dse::eval::DesignQuery;
    use drone_explorer::{GridRange, Objective, Query, QueryRanges};
    use drone_telemetry::Json;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

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

    /// Sends every line on one connection, reading each reply before
    /// the next request goes out.
    fn ask_in_turn(addr: SocketAddr, lines: &[String]) -> Vec<String> {
        let mut stream = BufReader::new(TcpStream::connect(addr).unwrap());
        lines
            .iter()
            .map(|line| {
                let conn = stream.get_mut();
                conn.write_all(line.as_bytes()).unwrap();
                conn.write_all(b"\n").unwrap();
                let mut reply = String::new();
                stream.read_line(&mut reply).unwrap();
                reply.trim_end().to_owned()
            })
            .collect()
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
        let query = Query::new("parity", ranges(), Objective::MaxFlightTime);
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
        let reply = ask(
            router.addr(),
            r#"{"id":4,"optimize":{"ranges":{"wheelbase_mm":250,"cells":["3S"],"capacity_mah":2000},"objective":"max_flight_time","strategy":"grid","budget":8}}"#,
        );
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
    fn the_router_answers_introspection_with_its_own_traces_and_counters() {
        let (router, registry) = router(2);
        let query = Query::new("t", ranges(), Objective::MaxFlightTime).with_refinement(0, 0);
        let lines = [
            protocol::request_to_json(1, &query).render(),
            r#"{"id":2,"trace":{"last":1}}"#.to_owned(),
        ];
        let replies = ask_in_turn(router.addr(), &lines);
        assert!(
            replies.iter().all(|r| r.contains("\"ok\":true")),
            "{replies:?}"
        );
        // The grid round splits across both shards.
        assert_eq!(replies[1].matches("\"explore.shard\"").count(), 2);
        assert_eq!(registry.counter("serve.requests").get(), 2);
        router.drain();
    }

    /// A panic payload that panics again when dropped, `depth` more
    /// times: each `catch_unwind` that drops what it caught lets the
    /// next one out.
    struct Bomb(u32);

    impl Drop for Bomb {
        fn drop(&mut self) {
            if self.0 > 0 {
                std::panic::panic_any(Bomb(self.0 - 1));
            }
        }
    }

    #[test]
    fn sheds_and_panics_reply_like_a_direct_server_and_the_connection_goes_on() {
        // 350 mm panics inside evaluation. 450 mm panics with a Bomb:
        // at width 1 evaluation runs inline, the hook's own catch and
        // the executor's each drop one layer, and the last escapes
        // `try_evaluate_points` on whichever thread evaluates its shard.
        let engine = || {
            Explorer::new(1).with_eval_hook(Arc::new(|q: &DesignQuery| {
                if q.wheelbase_mm == 450.0 {
                    std::panic::panic_any(Bomb(2));
                }
                assert!(q.wheelbase_mm != 350.0, "chaos hook: poisoned wheelbase");
            }))
        };
        let reactor = ReactorConfig {
            cost_deadline: Some(10),
            ..ReactorConfig::default()
        };
        let one_cell = |wheelbase_mm: GridRange| QueryRanges {
            wheelbase_mm,
            cells: vec![drone_components::battery::CellCount::S3],
            capacity_mah: GridRange::fixed(4000.0),
            ..ranges()
        };
        // 30 grid points: over the 10-unit cost deadline.
        let shed = Query::new("big", ranges(), Objective::MaxFlightTime).with_refinement(0, 0);
        let poisoned = GridRange::new(250.0, 350.0, 2);
        let poisoned = Query::new("poisoned", one_cell(poisoned), Objective::MaxFlightTime)
            .with_refinement(0, 0);
        let bomb = Query::new(
            "bomb",
            one_cell(GridRange::fixed(450.0)),
            Objective::MinWeight,
        );
        let small = Query::new(
            "small",
            one_cell(GridRange::fixed(300.0)),
            Objective::MinWeight,
        );
        // Some shard count evaluates the bomb off the front thread.
        let bomb_point = bomb.ranges.grid()[0];
        assert!([2, 3, 4]
            .iter()
            .any(|&n| drone_explorer::shard_of(&bomb_point, n) != 0));
        let lines: Vec<String> = [shed, small.clone(), poisoned, small.clone(), bomb, small]
            .iter()
            .enumerate()
            .map(|(id, query)| protocol::request_to_json(id as u64, query).render())
            .collect();

        let registry = Registry::with_wall_clock();
        let direct = ReactorServer::start(engine(), reactor, &registry).expect("start server");
        let expected = ask_in_turn(direct.addr(), &lines);
        assert!(direct.drain().clean);
        let kinds: Vec<Option<String>> = expected
            .iter()
            .map(|reply| {
                let doc = Json::parse(reply).unwrap();
                doc.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str)
                    .map(str::to_owned)
            })
            .collect();
        let internal = Some("internal_error".to_owned());
        assert_eq!(
            kinds,
            [
                Some("deadline_exceeded".to_owned()),
                None,
                internal.clone(),
                None,
                internal,
                None
            ]
        );
        assert!(expected[4].contains("batch processing panicked"));

        for shards in [1, 2, 3, 4] {
            let registry = Registry::with_wall_clock();
            let config = RouterConfig { shards, reactor };
            let router = Router::start(engine, config, &registry).expect("start router");
            assert_eq!(
                ask_in_turn(router.addr(), &lines),
                expected,
                "{shards} shards"
            );
            assert_eq!(registry.counter("router.errors").get(), 3);
            assert!(router.drain().clean);
        }
    }

    #[test]
    fn shard_errors_propagate_with_the_client_id() {
        let (router, _registry) = router(2);
        // An invalid query dies at the router's own parse, still
        // echoing the id.
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
            RouterConfig::default().reactor.reactors + 1
        );
    }
}
