//! The wire vocabulary: newline-delimited JSON requests and replies.
//!
//! One request per line, one reply line per request, always in request
//! order. The parser is **strict** — unknown keys, wrong types, missing
//! required fields and out-of-budget grids all produce a typed
//! [`RequestError`] that renders as a structured error reply; no input,
//! however malformed, may panic the server (`tests/properties.rs` feeds
//! arbitrary bytes through [`handle_batch`] to pin exactly that).
//!
//! ```text
//! -> {"id":1,"query":{"ranges":{"wheelbase_mm":{"min":250,"max":450,"steps":3},
//!      "cells":["3S"],"capacity_mah":{"min":2000,"max":6000,"steps":5}},
//!      "objective":"max_flight_time"}}
//! <- {"id":1,"ok":true,"answer":{"name":"query","evaluated":15,...}}
//! -> not json
//! <- {"id":null,"ok":false,"error":{"kind":"parse","message":"..."}}
//! ```
//!
//! A live server records a span tree for every evaluated request. An
//! optional top-level `"trace_id":"<16 hex>"` names it: a request that
//! carries one gets the detailed tree (one `point` span per design
//! point, with `eval.*` leaves), fetched back with
//! `{"id":2,"trace":{"trace_id":"<16 hex>"}}`. A request without one
//! gets a server-derived id and an aggregate tree (one `eval.lookup`
//! and one `eval.fanout` span per evaluation call, tagged with counts).

use drone_components::battery::CellCount;
use drone_dse::eval::DesignEval;
use drone_explorer::{
    try_run_sharded_spanned, Constraints, Explorer, GridRange, Objective, OptimizeAnswer,
    OptimizeRequest, Query, QueryAnswer, QueryLimits, QueryRanges, ShardSpec, Strategy,
};
use drone_telemetry::trace::{
    derive_trace_id_bytes, id_hex, parse_id_hex, TraceBuilder, TraceRing,
};
use drone_telemetry::{Clock, Json};
use std::fmt;

/// Most completed span trees one `trace` request may fetch.
pub const MAX_TRACE_FETCH: usize = 16;

/// What went wrong with a request, as reported on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line is not a JSON document.
    Parse,
    /// The document does not have the request shape.
    BadRequest,
    /// The query failed [`Query::validate`] against the service limits.
    InvalidQuery,
    /// The request line exceeded the size cap before a newline arrived.
    TooLarge,
    /// The server shed the connection under load.
    Overloaded,
    /// The query's worst-case cost exceeds the per-request deadline;
    /// the server shed it before evaluation started.
    DeadlineExceeded,
    /// The evaluation panicked; the fault was isolated to this request.
    Internal,
}

impl ErrorKind {
    /// The wire spelling (`error.kind`).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::InvalidQuery => "invalid_query",
            ErrorKind::TooLarge => "too_large",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Internal => "internal_error",
        }
    }

    /// The inverse of [`ErrorKind::as_str`], for clients classifying
    /// replies off the wire.
    pub fn from_wire(kind: &str) -> Option<ErrorKind> {
        match kind {
            "parse" => Some(ErrorKind::Parse),
            "bad_request" => Some(ErrorKind::BadRequest),
            "invalid_query" => Some(ErrorKind::InvalidQuery),
            "too_large" => Some(ErrorKind::TooLarge),
            "overloaded" => Some(ErrorKind::Overloaded),
            "deadline_exceeded" => Some(ErrorKind::DeadlineExceeded),
            "internal_error" => Some(ErrorKind::Internal),
            _ => None,
        }
    }
}

/// A typed request failure: the reply's `error` object.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// Machine-readable category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    fn bad(message: impl Into<String>) -> RequestError {
        RequestError {
            kind: ErrorKind::BadRequest,
            message: message.into(),
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for RequestError {}

/// A `trace` introspection request: fetch completed span trees from
/// the server's bounded ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceQuery {
    /// How many of the newest traces to return (capped at
    /// [`MAX_TRACE_FETCH`]). Ignored when `trace_id` is set.
    pub last: usize,
    /// Fetch one specific trace by its hex id instead.
    pub trace_id: Option<u64>,
}

impl Default for TraceQuery {
    fn default() -> TraceQuery {
        TraceQuery {
            last: 1,
            trace_id: None,
        }
    }
}

/// What a request asks for: a query evaluation, or one of the live
/// introspection kinds.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // one short-lived value per request; boxing buys nothing
pub enum RequestBody {
    /// Evaluate a validated exploration query.
    Query(Query),
    /// Run a validated optimize request (seeded sampling /
    /// multi-fidelity search instead of an exhaustive sweep).
    Optimize(OptimizeRequest),
    /// Return the server's registry snapshot, queue depth and trace
    /// ring bookkeeping.
    Stats,
    /// Return completed span trees from the server's trace ring.
    Trace(TraceQuery),
}

/// A parsed request: the echoed `id`, the optional client-stamped
/// trace id, and the request body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client correlation id, echoed verbatim in the reply (`null` when
    /// absent).
    pub id: Json,
    /// Client-stamped causal trace id (16 hex chars on the wire). A
    /// stamped request records the detailed per-point span tree;
    /// absent requests get a deterministic server-derived id and a
    /// per-stage aggregate tree.
    pub trace_id: Option<u64>,
    /// What the request asks for.
    pub body: RequestBody,
}

impl Request {
    /// The exploration query, when this is a query request.
    pub fn query(&self) -> Option<&Query> {
        match &self.body {
            RequestBody::Query(query) => Some(query),
            _ => None,
        }
    }

    /// The optimize request, when this is one.
    pub fn optimize(&self) -> Option<&OptimizeRequest> {
        match &self.body {
            RequestBody::Optimize(req) => Some(req),
            _ => None,
        }
    }
}

fn expect_keys(obj: &Json, allowed: &[&str], what: &str) -> Result<(), RequestError> {
    let pairs = obj
        .as_obj()
        .ok_or_else(|| RequestError::bad(format!("{what} must be an object")))?;
    for (key, _) in pairs {
        if !allowed.contains(&key.as_str()) {
            return Err(RequestError::bad(format!("{what}: unknown key '{key}'")));
        }
    }
    Ok(())
}

fn number(doc: &Json, what: &str) -> Result<f64, RequestError> {
    doc.as_f64()
        .ok_or_else(|| RequestError::bad(format!("{what} must be a number")))
}

fn steps(doc: &Json, what: &str) -> Result<usize, RequestError> {
    let n = number(doc, what)?;
    if n.fract() != 0.0 || !(0.0..=1e9).contains(&n) {
        return Err(RequestError::bad(format!(
            "{what} must be a small non-negative integer"
        )));
    }
    Ok(n as usize)
}

/// A range is either `{"min":..,"max":..,"steps":..}` or a bare number
/// (a pinned coordinate).
fn grid_range(doc: &Json, what: &str) -> Result<GridRange, RequestError> {
    if let Some(v) = doc.as_f64() {
        return Ok(GridRange {
            min: v,
            max: v,
            steps: 1,
        });
    }
    expect_keys(doc, &["min", "max", "steps"], what)?;
    let field = |key: &str| {
        doc.get(key)
            .ok_or_else(|| RequestError::bad(format!("{what}: missing '{key}'")))
    };
    Ok(GridRange {
        min: number(field("min")?, &format!("{what}.min"))?,
        max: number(field("max")?, &format!("{what}.max"))?,
        steps: steps(field("steps")?, &format!("{what}.steps"))?,
    })
}

/// Cells parse from `"3S"` strings or bare cell counts (`3`).
pub(crate) fn cell(doc: &Json) -> Result<CellCount, RequestError> {
    let count = match doc {
        Json::Num(n) if n.fract() == 0.0 && (0.0..=255.0).contains(n) => *n as u8,
        Json::Str(s) => {
            let trimmed = s.strip_suffix('S').or_else(|| s.strip_suffix('s'));
            trimmed
                .and_then(|t| t.parse::<u8>().ok())
                .ok_or_else(|| RequestError::bad(format!("cells: unknown config '{s}'")))?
        }
        _ => {
            return Err(RequestError::bad(
                "cells entries must be \"<n>S\" or a count",
            ))
        }
    };
    CellCount::from_cells(count)
        .ok_or_else(|| RequestError::bad(format!("cells: no {count}-cell configuration")))
}

fn ranges_from_json(doc: &Json) -> Result<QueryRanges, RequestError> {
    expect_keys(
        doc,
        &[
            "wheelbase_mm",
            "cells",
            "capacity_mah",
            "compute_power_w",
            "twr",
            "payload_g",
        ],
        "ranges",
    )?;
    let required = |key: &'static str| {
        doc.get(key)
            .ok_or_else(|| RequestError::bad(format!("ranges: missing '{key}'")))
    };
    let optional = |key: &'static str, default: f64| -> Result<GridRange, RequestError> {
        match doc.get(key) {
            Some(r) => grid_range(r, key),
            None => Ok(GridRange {
                min: default,
                max: default,
                steps: 1,
            }),
        }
    };
    let cells_doc = required("cells")?;
    let cells = cells_doc
        .as_arr()
        .ok_or_else(|| RequestError::bad("cells must be an array"))?
        .iter()
        .map(cell)
        .collect::<Result<Vec<CellCount>, RequestError>>()?;
    Ok(QueryRanges {
        wheelbase_mm: grid_range(required("wheelbase_mm")?, "wheelbase_mm")?,
        cells,
        capacity_mah: grid_range(required("capacity_mah")?, "capacity_mah")?,
        compute_power_w: optional("compute_power_w", 3.0)?,
        twr: optional("twr", drone_components::paper::PAPER_TWR)?,
        payload_g: optional("payload_g", 0.0)?,
    })
}

fn constraints_from_json(doc: &Json) -> Result<Constraints, RequestError> {
    expect_keys(
        doc,
        &[
            "max_weight_g",
            "min_flight_time_min",
            "max_compute_share_hover",
            "max_hover_power_w",
        ],
        "constraints",
    )?;
    let bound = |key: &str| -> Result<Option<f64>, RequestError> {
        doc.get(key).map(|v| number(v, key)).transpose()
    };
    Ok(Constraints {
        max_weight_g: bound("max_weight_g")?,
        min_flight_time_min: bound("min_flight_time_min")?,
        max_compute_share_hover: bound("max_compute_share_hover")?,
        max_hover_power_w: bound("max_hover_power_w")?,
    })
}

fn objective_from_json(doc: &Json) -> Result<Objective, RequestError> {
    match doc.as_str() {
        Some("max_flight_time") => Ok(Objective::MaxFlightTime),
        Some("min_weight") => Ok(Objective::MinWeight),
        Some("min_compute_share") => Ok(Objective::MinComputeShare),
        Some(other) => Err(RequestError::bad(format!("unknown objective '{other}'"))),
        None => Err(RequestError::bad("objective must be a string")),
    }
}

fn objective_to_str(objective: Objective) -> &'static str {
    match objective {
        Objective::MaxFlightTime => "max_flight_time",
        Objective::MinWeight => "min_weight",
        Objective::MinComputeShare => "min_compute_share",
    }
}

/// Parses one request line, validating the query against `limits`.
///
/// # Errors
///
/// Every failure mode is a [`RequestError`]; this function never
/// panics, whatever the bytes.
pub fn parse_request(line: &str, limits: &QueryLimits) -> Result<Request, RequestError> {
    parse_request_with_id(line, limits).map_err(|(_, error)| error)
}

/// [`parse_request`], but failures carry the client's `id` whenever
/// the line parsed far enough to have one — so error replies can echo
/// it and a correlating client can attribute the rejection.
pub(crate) fn parse_request_with_id(
    line: &str,
    limits: &QueryLimits,
) -> Result<Request, (Json, RequestError)> {
    let doc = Json::parse(line).map_err(|e| {
        (
            Json::Null,
            RequestError {
                kind: ErrorKind::Parse,
                message: e.to_string(),
            },
        )
    })?;
    let id = doc.get("id").cloned().unwrap_or(Json::Null);
    request_from_doc(&doc, limits).map_err(|error| (id, error))
}

fn trace_query_from_json(doc: &Json) -> Result<TraceQuery, RequestError> {
    expect_keys(doc, &["last", "trace_id"], "trace")?;
    let last = match doc.get("last") {
        Some(v) => {
            let n = steps(v, "trace.last")?;
            if !(1..=MAX_TRACE_FETCH).contains(&n) {
                return Err(RequestError::bad(format!(
                    "trace.last must be between 1 and {MAX_TRACE_FETCH}"
                )));
            }
            n
        }
        None => 1,
    };
    let trace_id = doc
        .get("trace_id")
        .map(|v| trace_id_from_json(v, "trace.trace_id"))
        .transpose()?;
    Ok(TraceQuery { last, trace_id })
}

fn trace_id_from_json(doc: &Json, what: &str) -> Result<u64, RequestError> {
    let text = doc
        .as_str()
        .ok_or_else(|| RequestError::bad(format!("{what} must be a hex string")))?;
    parse_id_hex(text)
        .ok_or_else(|| RequestError::bad(format!("{what} must be 16 lower-case hex characters")))
}

/// Parses the body of an `optimize` request and validates it against
/// the service limits.
fn optimize_from_json(doc: &Json, limits: &QueryLimits) -> Result<OptimizeRequest, RequestError> {
    expect_keys(
        doc,
        &[
            "name",
            "ranges",
            "constraints",
            "objective",
            "strategy",
            "budget",
            "seed",
        ],
        "optimize",
    )?;
    let name = match doc.get("name") {
        Some(n) => n
            .as_str()
            .ok_or_else(|| RequestError::bad("name must be a string"))?
            .to_owned(),
        None => "optimize".to_owned(),
    };
    let ranges_doc = doc
        .get("ranges")
        .ok_or_else(|| RequestError::bad("optimize: missing 'ranges'"))?;
    let constraints = match doc.get("constraints") {
        Some(c) => constraints_from_json(c)?,
        None => Constraints::default(),
    };
    let objective = objective_from_json(
        doc.get("objective")
            .ok_or_else(|| RequestError::bad("optimize: missing 'objective'"))?,
    )?;
    let strategy_doc = doc
        .get("strategy")
        .ok_or_else(|| RequestError::bad("optimize: missing 'strategy'"))?;
    let strategy = strategy_doc
        .as_str()
        .and_then(Strategy::from_name)
        .ok_or_else(|| {
            RequestError::bad("strategy must be one of 'monte_carlo', 'lhs', 'sobol' or 'halving'")
        })?;
    let budget = steps(
        doc.get("budget")
            .ok_or_else(|| RequestError::bad("optimize: missing 'budget'"))?,
        "optimize.budget",
    )?;
    let seed = match doc.get("seed") {
        Some(v) => steps(v, "optimize.seed")? as u64,
        None => 0,
    };
    let req = OptimizeRequest {
        name,
        ranges: ranges_from_json(ranges_doc)?,
        constraints,
        objective,
        strategy,
        budget,
        seed,
    };
    req.validate(limits).map_err(|e| RequestError {
        kind: ErrorKind::InvalidQuery,
        message: e.to_string(),
    })?;
    Ok(req)
}

fn shard_from_json(doc: &Json) -> Result<ShardSpec, RequestError> {
    expect_keys(doc, &["index", "count"], "shard")?;
    let field = |key: &str| -> Result<u32, RequestError> {
        let value = doc
            .get(key)
            .ok_or_else(|| RequestError::bad("shard: missing 'index' or 'count'"))?;
        // `steps` caps at 1e9, well inside u32.
        Ok(steps(value, "shard")? as u32)
    };
    // Range sanity (count >= 1, index < count) runs in Query::validate.
    Ok(ShardSpec {
        index: field("index")?,
        count: field("count")?,
    })
}

fn request_from_doc(doc: &Json, limits: &QueryLimits) -> Result<Request, RequestError> {
    expect_keys(
        doc,
        &["id", "trace_id", "query", "optimize", "stats", "trace"],
        "request",
    )?;
    let id = doc.get("id").cloned().unwrap_or(Json::Null);
    let trace_id = doc
        .get("trace_id")
        .map(|v| trace_id_from_json(v, "trace_id"))
        .transpose()?;
    let kinds = [
        doc.get("query"),
        doc.get("optimize"),
        doc.get("stats"),
        doc.get("trace"),
    ];
    if kinds.iter().filter(|k| k.is_some()).count() != 1 {
        return Err(RequestError::bad(
            "request: needs exactly one of 'query', 'optimize', 'stats' or 'trace'",
        ));
    }
    if let Some(optimize_doc) = doc.get("optimize") {
        return Ok(Request {
            id,
            trace_id,
            body: RequestBody::Optimize(optimize_from_json(optimize_doc, limits)?),
        });
    }
    if let Some(stats_doc) = doc.get("stats") {
        // Strict like everything else: `stats` takes no parameters.
        expect_keys(stats_doc, &[], "stats")?;
        return Ok(Request {
            id,
            trace_id,
            body: RequestBody::Stats,
        });
    }
    if let Some(trace_doc) = doc.get("trace") {
        return Ok(Request {
            id,
            trace_id,
            body: RequestBody::Trace(trace_query_from_json(trace_doc)?),
        });
    }
    let query_doc = doc
        .get("query")
        .ok_or_else(|| RequestError::bad("request: missing 'query'"))?;
    expect_keys(
        query_doc,
        &[
            "name",
            "ranges",
            "constraints",
            "objective",
            "refine_rounds",
            "refine_steps",
            "shard",
        ],
        "query",
    )?;
    let name = match query_doc.get("name") {
        Some(n) => n
            .as_str()
            .ok_or_else(|| RequestError::bad("name must be a string"))?
            .to_owned(),
        None => "query".to_owned(),
    };
    let ranges_doc = query_doc
        .get("ranges")
        .ok_or_else(|| RequestError::bad("query: missing 'ranges'"))?;
    let constraints = match query_doc.get("constraints") {
        Some(c) => constraints_from_json(c)?,
        None => Constraints::default(),
    };
    let objective = objective_from_json(
        query_doc
            .get("objective")
            .ok_or_else(|| RequestError::bad("query: missing 'objective'"))?,
    )?;
    let fetch_steps = |key: &str| -> Result<usize, RequestError> {
        query_doc.get(key).map_or(Ok(0), |v| steps(v, key))
    };
    let query = Query {
        name,
        ranges: ranges_from_json(ranges_doc)?,
        constraints,
        objective,
        refine_rounds: fetch_steps("refine_rounds")?,
        refine_steps: fetch_steps("refine_steps")?,
        shard: query_doc.get("shard").map(shard_from_json).transpose()?,
    };
    query.validate(limits).map_err(|e| RequestError {
        kind: ErrorKind::InvalidQuery,
        message: e.to_string(),
    })?;
    Ok(Request {
        id,
        trace_id,
        body: RequestBody::Query(query),
    })
}

fn ranges_to_json(ranges: &QueryRanges) -> Json {
    let range = |r: &GridRange| {
        Json::obj()
            .with("min", r.min)
            .with("max", r.max)
            .with("steps", r.steps)
    };
    let mut cells = Json::arr();
    for c in &ranges.cells {
        cells.push(c.to_string());
    }
    Json::obj()
        .with("wheelbase_mm", range(&ranges.wheelbase_mm))
        .with("cells", cells)
        .with("capacity_mah", range(&ranges.capacity_mah))
        .with("compute_power_w", range(&ranges.compute_power_w))
        .with("twr", range(&ranges.twr))
        .with("payload_g", range(&ranges.payload_g))
}

fn constraints_to_json(bounds: &Constraints) -> Json {
    let mut constraints = Json::obj();
    for (key, bound) in [
        ("max_weight_g", bounds.max_weight_g),
        ("min_flight_time_min", bounds.min_flight_time_min),
        ("max_compute_share_hover", bounds.max_compute_share_hover),
        ("max_hover_power_w", bounds.max_hover_power_w),
    ] {
        if let Some(b) = bound {
            constraints.insert(key, b);
        }
    }
    constraints
}

/// Renders a query as a request line body (the client-side inverse of
/// [`parse_request`]).
pub fn request_to_json(id: u64, query: &Query) -> Json {
    let mut query_json = Json::obj()
        .with("name", query.name.as_str())
        .with("ranges", ranges_to_json(&query.ranges))
        .with("constraints", constraints_to_json(&query.constraints))
        .with("objective", objective_to_str(query.objective))
        .with("refine_rounds", query.refine_rounds)
        .with("refine_steps", query.refine_steps);
    if let Some(shard) = query.shard {
        // Opt-in: an unsharded query renders exactly as before.
        query_json.insert(
            "shard",
            Json::obj()
                .with("index", shard.index as usize)
                .with("count", shard.count as usize),
        );
    }
    Json::obj().with("id", id).with("query", query_json)
}

/// Renders an optimize request line body (the client-side inverse of
/// the `optimize` branch of [`parse_request`]).
pub fn optimize_request_to_json(id: u64, req: &OptimizeRequest) -> Json {
    let body = Json::obj()
        .with("name", req.name.as_str())
        .with("ranges", ranges_to_json(&req.ranges))
        .with("constraints", constraints_to_json(&req.constraints))
        .with("objective", objective_to_str(req.objective))
        .with("strategy", req.strategy.as_str())
        .with("budget", req.budget)
        .with("seed", req.seed as f64);
    Json::obj().with("id", id).with("optimize", body)
}

/// [`optimize_request_to_json`] with a client-stamped causal trace id.
pub fn optimize_request_to_json_traced(id: u64, trace_id: u64, req: &OptimizeRequest) -> Json {
    let mut doc = optimize_request_to_json(id, req);
    doc.insert("trace_id", id_hex(trace_id));
    doc
}

/// [`request_to_json`] with a client-stamped causal trace id — what a
/// tracing [`crate::Client`] sends.
pub fn request_to_json_traced(id: u64, trace_id: u64, query: &Query) -> Json {
    let mut doc = request_to_json(id, query);
    doc.insert("trace_id", id_hex(trace_id));
    doc
}

/// Renders a `stats` introspection request line body.
pub fn stats_request_json(id: u64) -> Json {
    Json::obj().with("id", id).with("stats", Json::obj())
}

/// Renders a `trace` introspection request line body.
pub fn trace_request_json(id: u64, trace: &TraceQuery) -> Json {
    let mut body = Json::obj().with("last", trace.last);
    if let Some(trace_id) = trace.trace_id {
        body.insert("trace_id", id_hex(trace_id));
    }
    Json::obj().with("id", id).with("trace", body)
}

fn eval_to_json(eval: &DesignEval) -> Json {
    Json::obj()
        .with("wheelbase_mm", eval.query.wheelbase_mm)
        .with("cells", eval.query.cells.to_string())
        .with("capacity_mah", eval.query.capacity_mah)
        .with("compute_w", eval.query.compute_power_w)
        .with("twr", eval.query.twr)
        .with("payload_g", eval.query.payload_g)
        .with("weight_g", eval.weight_g)
        .with("flight_min", eval.flight_time_min)
        .with("hover_w", eval.hover_power_w)
        .with("compute_share_hover", eval.compute_share_hover)
}

/// Deterministic per-request work units: points dispatched to the
/// engine (cache hits included). This is the "latency" the byte-stable
/// benchmark artifact reports — sim-deterministic, unlike wall time.
pub fn cost_units(answer: &QueryAnswer) -> u64 {
    answer.evaluated as u64
}

/// Renders an answer. Frontier members sort by (flight time desc,
/// weight asc) so the reply bytes are stable however the feasible set
/// was admitted.
pub fn answer_to_json(answer: &QueryAnswer) -> Json {
    let mut members: Vec<&DesignEval> = answer.frontier.iter().collect();
    members.sort_by(|a, b| {
        b.flight_time_min
            .total_cmp(&a.flight_time_min)
            .then(a.weight_g.total_cmp(&b.weight_g))
    });
    let mut frontier = Json::arr();
    for m in members {
        frontier.push(eval_to_json(m));
    }
    Json::obj()
        .with("name", answer.name.as_str())
        .with("evaluated", answer.evaluated)
        .with("feasible", answer.feasible)
        .with("infeasible", answer.infeasible)
        .with("rounds", answer.rounds)
        .with("cost_units", cost_units(answer))
        .with(
            "best",
            answer.best.as_ref().map_or(Json::Null, eval_to_json),
        )
        .with("frontier", frontier)
}

/// A success reply line body.
pub fn ok_reply(id: &Json, answer: &QueryAnswer) -> Json {
    Json::obj()
        .with("id", id.clone())
        .with("ok", true)
        .with("answer", answer_to_json(answer))
}

/// Deterministic work units an optimize run spent: unique points
/// dispatched to the engine — the same currency as [`cost_units`], so
/// grid and optimize traffic share one deadline policy.
pub fn optimize_cost_units(answer: &OptimizeAnswer) -> u64 {
    answer.evaluated as u64
}

/// Renders an optimize answer. Frontier members sort by (flight time
/// desc, weight asc) like [`answer_to_json`]; every number is
/// scheduling-independent, so reply bytes are stable at any thread
/// count.
pub fn optimize_answer_to_json(answer: &OptimizeAnswer) -> Json {
    let mut members: Vec<&DesignEval> = answer.frontier.iter().collect();
    members.sort_by(|a, b| {
        b.flight_time_min
            .total_cmp(&a.flight_time_min)
            .then(a.weight_g.total_cmp(&b.weight_g))
    });
    let mut frontier = Json::arr();
    for m in members {
        frontier.push(eval_to_json(m));
    }
    let mut pool_sizes = Json::arr();
    for p in &answer.pool_sizes {
        pool_sizes.push(*p);
    }
    Json::obj()
        .with("name", answer.name.as_str())
        .with("strategy", answer.strategy.as_str())
        .with("sampled", answer.sampled)
        .with("evaluated", answer.evaluated)
        .with("coarse_evals", answer.coarse_evals)
        .with("prefiltered", answer.prefiltered)
        .with("feasible", answer.feasible)
        .with("infeasible", answer.infeasible)
        .with("rounds", answer.rounds)
        .with("refine_waves", answer.refine_waves)
        .with("pool_sizes", pool_sizes)
        .with("budget", answer.budget)
        .with("cost_units", optimize_cost_units(answer))
        .with(
            "best",
            answer.best.as_ref().map_or(Json::Null, eval_to_json),
        )
        .with("frontier", frontier)
}

/// A success reply line body for an optimize request.
pub fn ok_optimize_reply(id: &Json, answer: &OptimizeAnswer) -> Json {
    Json::obj()
        .with("id", id.clone())
        .with("ok", true)
        .with("answer", optimize_answer_to_json(answer))
}

/// An error reply line body.
pub fn error_reply(id: &Json, error: &RequestError) -> Json {
    Json::obj().with("id", id.clone()).with("ok", false).with(
        "error",
        Json::obj()
            .with("kind", error.kind.as_str())
            .with("message", error.message.as_str()),
    )
}

/// What one batch did, for the caller's accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Requests answered with `ok: true`.
    pub answered: usize,
    /// Lines rejected for not speaking the protocol (parse/shape).
    pub protocol_errors: usize,
    /// Well-formed requests whose query failed the service limits.
    pub query_errors: usize,
    /// Valid requests shed before evaluation: their worst-case cost
    /// exceeded the batch policy's deadline.
    pub deadline_sheds: usize,
    /// Valid requests whose evaluation panicked; each got a typed
    /// `internal_error` reply and the fault went no further.
    pub internal_errors: usize,
    /// Introspection (`stats`/`trace`) requests. Answered live by the
    /// server; rejected with `bad_request` on the pure batch path.
    pub admin_requests: usize,
    /// Of `answered`, requests that ran the optimizer rather than an
    /// exhaustive sweep.
    pub optimize_requests: usize,
    /// Deterministic work units across the answered requests.
    pub cost_units: u64,
}

impl BatchOutcome {
    /// All rejections, whatever the kind.
    pub fn rejected(&self) -> usize {
        self.protocol_errors + self.query_errors + self.deadline_sheds + self.internal_errors
    }
}

/// Degradation knobs applied per batch, mirroring the firmware
/// `ShedPolicy`: work the server refuses *before* spending cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest worst-case [`Query::estimated_cost_units`] a single
    /// request may carry; anything above is shed with a typed
    /// `deadline_exceeded` reply before evaluation starts. `None`
    /// disables shedding.
    pub cost_deadline: Option<u64>,
}

/// The tracing context the server threads through a traced batch: the
/// ring completed span trees land in, the clock spans time against,
/// and the seed used to derive trace ids for requests that did not
/// stamp their own.
pub struct BatchTracing<'a> {
    /// Where finished traces go (the `trace` request reads from here).
    pub ring: &'a TraceRing,
    /// The clock spans measure against.
    pub clock: Clock,
    /// Seed for server-derived trace ids (requests without a
    /// client-stamped `trace_id`).
    pub seed: u64,
}

/// An introspection request the pure batch handler cannot answer — it
/// has no registry, queue or ring. The server resolves these slots
/// against its live state, in input order.
#[derive(Debug, Clone, PartialEq)]
pub enum AdminRequest {
    /// Registry snapshot + queue depth + trace-ring bookkeeping.
    Stats,
    /// Completed span trees from the ring.
    Trace(TraceQuery),
}

/// One reply slot from [`handle_batch_traced`]: either a finished
/// reply line or an introspection request for the server to resolve.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplySlot {
    /// A rendered reply line.
    Line(String),
    /// A live-introspection request; the server renders the reply.
    Admin {
        /// The echoed client id.
        id: Json,
        /// What to introspect.
        request: AdminRequest,
    },
}

/// Evaluated work a valid request carries: an exhaustive sweep or an
/// optimizer run.
#[allow(clippy::large_enum_variant)] // at most max_batch of these live at once
enum Work {
    Query(Query),
    Optimize(OptimizeRequest),
}

impl Work {
    fn estimated_cost_units(&self) -> u64 {
        match self {
            Work::Query(query) => query.estimated_cost_units(),
            Work::Optimize(req) => req.estimated_cost_units(),
        }
    }
}

/// How one parsed line will be handled, decided before the engine runs.
#[allow(clippy::large_enum_variant)] // at most max_batch of these live at once
enum Disposition {
    /// Valid and within deadline: evaluated by the engine.
    Run(Request, Work),
    /// Valid but over the cost deadline: shed with a typed reply.
    Shed(Request, RequestError),
    /// A live-introspection request for the server to resolve.
    Admin(Json, AdminRequest),
    /// Never reached the engine: parse/shape/limit failure. Carries
    /// the client id when the line parsed far enough to have one.
    Reject(Json, RequestError),
}

/// Processes a batch of request lines against one engine: parse and
/// validate each line, evaluate every valid query against the shared
/// engine (one memoization cache across the batch, queries in input
/// order), and return one compact reply line per input, in input
/// order. Never panics, whatever the lines contain — even an
/// evaluation that panics is caught and answered with a typed
/// `internal_error` reply for that request alone. Introspection
/// requests (`stats`/`trace`) are rejected here with `bad_request`;
/// only a live server ([`handle_batch_traced`]) can answer them.
pub fn handle_batch(
    engine: &Explorer,
    lines: &[&str],
    limits: &QueryLimits,
) -> (Vec<String>, BatchOutcome) {
    handle_batch_with(engine, lines, limits, BatchPolicy::default())
}

/// [`handle_batch`] with explicit degradation policy.
pub fn handle_batch_with(
    engine: &Explorer,
    lines: &[&str],
    limits: &QueryLimits,
    policy: BatchPolicy,
) -> (Vec<String>, BatchOutcome) {
    let (slots, outcome) = handle_batch_core(Backend::Engine(engine), lines, limits, policy, None);
    let replies = slots
        .into_iter()
        .map(|slot| match slot {
            ReplySlot::Line(line) => line,
            // Unreachable: without tracing, admin requests were
            // rejected at disposition time.
            ReplySlot::Admin { id, .. } => error_reply(
                &id,
                &RequestError::bad("introspection requires a live server"),
            )
            .render(),
        })
        .collect();
    (replies, outcome)
}

/// [`handle_batch_with`] plus causal tracing: every evaluated (or
/// shed) request builds a span tree pushed into `tracing.ring` —
/// detailed when the request stamped its own `trace_id`, aggregate
/// otherwise (see the module docs) — and
/// introspection requests come back as [`ReplySlot::Admin`] for the
/// server to resolve against its live state — *after* it has done its
/// own metric accounting, so a `stats` reply observes the batch it
/// rode in on.
pub fn handle_batch_traced(
    engine: &Explorer,
    lines: &[&str],
    limits: &QueryLimits,
    policy: BatchPolicy,
    tracing: &BatchTracing<'_>,
) -> (Vec<ReplySlot>, BatchOutcome) {
    let backend = Backend::Engine(engine);
    handle_batch_core(backend, lines, limits, policy, Some(tracing))
}

/// What a batch is answered against.
#[derive(Clone, Copy)]
pub(crate) enum Backend<'a> {
    /// One engine, answering every request kind.
    Engine(&'a Explorer),
    /// A router's engine shards: grid queries, each run by
    /// [`try_run_sharded_spanned`] (which answers exactly as one engine
    /// does), and introspection; no optimize requests.
    Shards(&'a [Explorer]),
}

impl<'a> Backend<'a> {
    fn shards(self) -> &'a [Explorer] {
        match self {
            Backend::Engine(engine) => std::slice::from_ref(engine),
            Backend::Shards(shards) => shards,
        }
    }
}

/// Applies the cost-deadline policy to one piece of valid work.
fn disposition_for(request: Request, work: Work, policy: BatchPolicy) -> Disposition {
    let estimated = work.estimated_cost_units();
    match policy.cost_deadline {
        Some(deadline) if estimated > deadline => {
            let error = RequestError {
                kind: ErrorKind::DeadlineExceeded,
                message: format!(
                    "estimated {estimated} cost units exceeds the {deadline}-unit deadline"
                ),
            };
            Disposition::Shed(request, error)
        }
        _ => Disposition::Run(request, work),
    }
}

/// The batch handler behind every server: [`handle_batch_traced`] over
/// `backend`.
pub(crate) fn handle_batch_core(
    backend: Backend<'_>,
    lines: &[&str],
    limits: &QueryLimits,
    policy: BatchPolicy,
    tracing: Option<&BatchTracing<'_>>,
) -> (Vec<ReplySlot>, BatchOutcome) {
    let dispositions: Vec<Disposition> = lines
        .iter()
        .map(|line| match parse_request_with_id(line, limits) {
            Ok(request) => match request.body.clone() {
                RequestBody::Stats if tracing.is_some() => {
                    Disposition::Admin(request.id, AdminRequest::Stats)
                }
                RequestBody::Trace(fetch) if tracing.is_some() => {
                    Disposition::Admin(request.id, AdminRequest::Trace(fetch))
                }
                RequestBody::Stats | RequestBody::Trace(_) => Disposition::Reject(
                    request.id,
                    RequestError::bad("introspection requires a live server"),
                ),
                RequestBody::Query(query) => disposition_for(request, Work::Query(query), policy),
                RequestBody::Optimize(_) if matches!(backend, Backend::Shards(_)) => {
                    Disposition::Reject(
                        request.id,
                        RequestError::bad("the router does not serve optimize requests"),
                    )
                }
                RequestBody::Optimize(req) => disposition_for(request, Work::Optimize(req), policy),
            },
            Err((id, error)) => Disposition::Reject(id, error),
        })
        .collect();
    // Builds this request's trace (root span + engine children) while
    // `record` runs, then pushes it into the ring. The trace id is the
    // client-stamped one when present, else derived deterministically
    // from the request id — identical at any thread count either way.
    // Only a client-stamped id buys the per-point tree: a client that
    // names its trace intends to fetch it, so the server records
    // per-stage aggregate spans for every other request.
    let trace_request =
        |request: &Request, record: &mut dyn FnMut(Option<&mut drone_telemetry::Span>)| {
            let Some(tracing) = tracing else {
                record(None);
                return;
            };
            let trace_id = request.trace_id.unwrap_or_else(|| {
                derive_trace_id_bytes(tracing.seed, request.id.render().as_bytes())
            });
            let detailed = request.trace_id.is_some();
            let builder = TraceBuilder::with_detail(trace_id, tracing.clock.clone(), detailed);
            let mut root = builder.root("serve.request");
            record(Some(&mut root));
            drop(root);
            tracing.ring.push(builder.finish());
        };
    let mut outcome = BatchOutcome::default();
    let slots = dispositions
        .into_iter()
        .map(|disposition| match disposition {
            Disposition::Run(request, work) => {
                let mut reply: Option<Json> = None;
                trace_request(&request, &mut |mut root| {
                    let result = match &work {
                        Work::Query(query) => {
                            try_run_sharded_spanned(backend.shards(), query, root.as_deref())
                                .map(|answer| (cost_units(&answer), ok_reply(&request.id, &answer)))
                        }
                        // Only a single-engine backend admits these.
                        Work::Optimize(req) => backend.shards()[0]
                            .try_optimize_spanned(req, root.as_deref())
                            .map(|answer| {
                                (
                                    optimize_cost_units(&answer),
                                    ok_optimize_reply(&request.id, &answer),
                                )
                            }),
                    };
                    reply = Some(match result {
                        Ok((cost, ok)) => {
                            outcome.answered += 1;
                            outcome.cost_units += cost;
                            if let Work::Optimize(req) = &work {
                                outcome.optimize_requests += 1;
                                if let Some(root) = root.as_mut() {
                                    root.tag("strategy", req.strategy.as_str());
                                }
                            }
                            if let Some(root) = root {
                                root.tag("outcome", "ok");
                                root.tag("cost_units", cost);
                            }
                            ok
                        }
                        Err(panic) => {
                            outcome.internal_errors += 1;
                            if let Some(root) = root {
                                root.tag("outcome", "internal_error");
                            }
                            let error = RequestError {
                                kind: ErrorKind::Internal,
                                message: panic.to_string(),
                            };
                            error_reply(&request.id, &error)
                        }
                    });
                });
                ReplySlot::Line(reply.expect("record ran").render())
            }
            Disposition::Shed(request, error) => {
                outcome.deadline_sheds += 1;
                trace_request(&request, &mut |root| {
                    if let Some(root) = root {
                        root.tag("outcome", "deadline_exceeded");
                    }
                });
                ReplySlot::Line(error_reply(&request.id, &error).render())
            }
            Disposition::Admin(id, request) => {
                outcome.admin_requests += 1;
                ReplySlot::Admin { id, request }
            }
            Disposition::Reject(id, error) => {
                if error.kind == ErrorKind::InvalidQuery {
                    outcome.query_errors += 1;
                } else {
                    outcome.protocol_errors += 1;
                }
                ReplySlot::Line(error_reply(&id, &error).render())
            }
        })
        .collect();
    (slots, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_telemetry::TagValue;

    fn engine() -> Explorer {
        Explorer::new(2)
    }

    fn minimal_line() -> String {
        r#"{"id":7,"query":{"ranges":{"wheelbase_mm":{"min":250,"max":450,"steps":3},"cells":["3S"],"capacity_mah":{"min":2000,"max":6000,"steps":5}},"objective":"max_flight_time"}}"#.to_owned()
    }

    #[test]
    fn minimal_request_parses_with_defaults() {
        let req = parse_request(&minimal_line(), &QueryLimits::default()).unwrap();
        assert_eq!(req.id, Json::Num(7.0));
        assert_eq!(req.trace_id, None);
        let query = req.query().expect("query request");
        assert_eq!(query.name, "query");
        assert_eq!(query.ranges.compute_power_w.values(), vec![3.0]);
        assert_eq!(query.refine_rounds, 0);
        assert_eq!(query.objective, Objective::MaxFlightTime);
    }

    #[test]
    fn request_round_trips_through_the_client_renderer() {
        let query = Query::new(
            "rt",
            QueryRanges {
                wheelbase_mm: GridRange::new(250.0, 450.0, 3),
                cells: vec![CellCount::S3, CellCount::S6],
                capacity_mah: GridRange::new(2000.0, 6000.0, 5),
                compute_power_w: GridRange::fixed(20.0),
                twr: GridRange::fixed(2.0),
                payload_g: GridRange::new(0.0, 200.0, 2),
            },
            Objective::MinWeight,
        )
        .with_constraints(Constraints {
            max_weight_g: Some(2000.0),
            ..Constraints::default()
        })
        .with_refinement(1, 3);
        let line = request_to_json(42, &query).render();
        let parsed = parse_request(&line, &QueryLimits::default()).unwrap();
        assert_eq!(parsed.id, Json::Num(42.0));
        assert_eq!(parsed.query(), Some(&query));
        assert_eq!(parsed.trace_id, None);

        // The tracing renderer round-trips the stamped id too.
        let trace_id = drone_telemetry::derive_trace_id(7, 42);
        let line = request_to_json_traced(42, trace_id, &query).render();
        let parsed = parse_request(&line, &QueryLimits::default()).unwrap();
        assert_eq!(parsed.trace_id, Some(trace_id));
        assert_eq!(parsed.query(), Some(&query));
    }

    #[test]
    fn sharded_requests_round_trip_and_validate() {
        let minimal = parse_request(&minimal_line(), &QueryLimits::default()).unwrap();
        let query = minimal.query().unwrap().clone().with_shard(1, 4);
        let line = request_to_json(9, &query).render();
        let parsed = parse_request(&line, &QueryLimits::default()).unwrap();
        assert_eq!(parsed.query(), Some(&query));

        // An out-of-range shard index is a typed invalid_query refusal.
        let bad = request_to_json(9, &minimal.query().unwrap().clone().with_shard(4, 4)).render();
        let err = parse_request(&bad, &QueryLimits::default()).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidQuery);
        assert!(err.message.contains("shard"));

        // Strict key checking still applies inside the shard object.
        let err = parse_request(
            r#"{"id":1,"query":{"ranges":{"wheelbase_mm":250,"cells":["3S"],"capacity_mah":2000},"objective":"max_flight_time","shard":{"index":0,"count":2,"extra":1}}}"#,
            &QueryLimits::default(),
        )
        .unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn introspection_requests_parse_strictly() {
        let limits = QueryLimits::default();
        let stats = parse_request(r#"{"id":1,"stats":{}}"#, &limits).unwrap();
        assert_eq!(stats.body, RequestBody::Stats);
        let trace = parse_request(r#"{"id":2,"trace":{}}"#, &limits).unwrap();
        assert_eq!(trace.body, RequestBody::Trace(TraceQuery::default()));
        let trace = parse_request(r#"{"id":2,"trace":{"last":5}}"#, &limits).unwrap();
        assert_eq!(
            trace.body,
            RequestBody::Trace(TraceQuery {
                last: 5,
                trace_id: None
            })
        );
        let by_id = parse_request(
            r#"{"id":3,"trace":{"trace_id":"00000000deadbeef"}}"#,
            &limits,
        )
        .unwrap();
        assert_eq!(
            by_id.body,
            RequestBody::Trace(TraceQuery {
                last: 1,
                trace_id: Some(0xdead_beef)
            })
        );

        let rejected = [
            r#"{"id":1,"stats":{"verbose":true}}"#, // stats takes no params
            r#"{"id":1,"stats":{},"trace":{}}"#,    // exactly one kind
            r#"{"id":1}"#,                          // at least one kind
            r#"{"id":1,"trace":{"last":0}}"#,       // last out of range
            r#"{"id":1,"trace":{"last":99}}"#,      // over the fetch cap
            r#"{"id":1,"trace":{"nope":1}}"#,       // unknown key
            r#"{"id":1,"trace":{"trace_id":"xyz"}}"#, // malformed hex
            r#"{"id":1,"trace_id":12,"stats":{}}"#, // trace_id must be hex string
            r#"{"id":1,"trace_id":"DEADBEEF","stats":{}}"#, // wrong length/case
        ];
        for line in rejected {
            let err = parse_request(line, &limits).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{line}");
        }
    }

    #[test]
    fn pure_batch_rejects_introspection_with_a_typed_error() {
        let lines = [r#"{"id":9,"stats":{}}"#, r#"{"id":10,"trace":{}}"#];
        let (replies, outcome) = handle_batch(&engine(), &lines, &QueryLimits::default());
        assert_eq!(replies.len(), 2);
        for reply in &replies {
            let doc = Json::parse(reply).unwrap();
            assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
            assert_eq!(
                doc.get("error").and_then(|e| e.get("kind")),
                Some(&Json::Str("bad_request".into()))
            );
        }
        assert_eq!(outcome.protocol_errors, 2);
        assert_eq!(outcome.admin_requests, 0);
    }

    #[test]
    fn traced_batches_push_span_trees_and_surface_admin_slots() {
        use drone_telemetry::{derive_trace_id, id_hex, TraceRing};
        let ring = TraceRing::new(8);
        let tracing = BatchTracing {
            ring: &ring,
            clock: Clock::wall(),
            seed: 7,
        };
        let query_line = minimal_line();
        let trace_id = derive_trace_id(7, 7);
        let stamped = format!(
            r#"{{"id":7,"trace_id":"{}","query":{}}}"#,
            id_hex(trace_id),
            Json::parse(&query_line)
                .unwrap()
                .get("query")
                .unwrap()
                .render(),
        );
        let lines = [stamped.as_str(), r#"{"id":8,"stats":{}}"#];
        let (slots, outcome) = handle_batch_traced(
            &engine(),
            &lines,
            &QueryLimits::default(),
            BatchPolicy::default(),
            &tracing,
        );
        assert_eq!(outcome.answered, 1);
        assert_eq!(outcome.admin_requests, 1);
        assert!(matches!(&slots[0], ReplySlot::Line(l) if l.contains("\"ok\":true")));
        assert!(
            matches!(
                &slots[1],
                ReplySlot::Admin {
                    request: AdminRequest::Stats,
                    ..
                }
            ),
            "stats slot for the server"
        );
        // The evaluated request's trace landed in the ring under the
        // client-stamped id, with engine spans beneath the root.
        let trace = ring.find(trace_id).expect("trace retained");
        assert_eq!(trace.count_named("serve.request"), 1);
        assert_eq!(trace.count_named("explore.round"), 1);
        assert_eq!(trace.count_named("point"), 15);
        assert_eq!(trace.open_at_finish, 0);
        assert_eq!(trace.root_tag("outcome"), Some(TagValue::Str("ok")));
    }

    #[test]
    fn only_a_stamped_trace_id_buys_the_per_point_tree() {
        use drone_telemetry::{derive_trace_id, derive_trace_id_bytes, id_hex, Trace, TraceRing};
        let unstamped = minimal_line();
        let trace_id = derive_trace_id(7, 7);
        let stamped = unstamped.replacen(
            r#""id":7,"#,
            &format!(r#""id":7,"trace_id":"{}","#, id_hex(trace_id)),
            1,
        );
        // Each copy runs on a fresh engine, so both trees start cold.
        let serve = |line: &str| -> (String, Trace) {
            let ring = TraceRing::new(1);
            let tracing = BatchTracing {
                ring: &ring,
                clock: Clock::sim(),
                seed: 7,
            };
            let (slots, _) = handle_batch_traced(
                &engine(),
                &[line],
                &QueryLimits::default(),
                BatchPolicy::default(),
                &tracing,
            );
            let [ReplySlot::Line(reply)] = &slots[..] else {
                panic!("one reply line");
            };
            (reply.clone(), ring.last(1).remove(0))
        };
        let (aggregate_reply, aggregate) = serve(&unstamped);
        let (detailed_reply, detailed) = serve(&stamped);
        assert_eq!(aggregate_reply, detailed_reply, "reply bytes must not move");

        assert_eq!(
            aggregate.trace_id,
            derive_trace_id_bytes(7, b"7"),
            "server-derived id"
        );
        assert_eq!(aggregate.span_count(), 4, "root, round, lookup, fanout");
        assert_eq!(aggregate.count_named("point"), 0);
        assert_eq!(aggregate.count_named("eval.lookup"), 1);
        assert_eq!(aggregate.count_named("eval.fanout"), 1);
        assert_eq!(aggregate.depth(), 3);

        assert_eq!(detailed.trace_id, trace_id);
        assert_eq!(detailed.count_named("point"), 15);
        assert_eq!(detailed.count_named("eval.lookup"), 0);
        // The stage counts say what the per-point tags say.
        assert_eq!(aggregate.sum_tag("hits"), 0.0);
        assert_eq!(
            aggregate.sum_tag("misses"),
            detailed.count_tagged("cache", "miss") as f64
        );
        assert_eq!(
            aggregate.sum_tag("evaluated"),
            detailed.count_named("eval.size") as f64
        );
        assert_eq!(
            aggregate.sum_tag("feasible"),
            detailed.count_named("eval.power") as f64
        );
        for trace in [&aggregate, &detailed] {
            assert_eq!(trace.root_tag("outcome"), Some(TagValue::Str("ok")));
            assert_eq!(trace.open_at_finish, 0);
        }
    }

    #[test]
    fn traced_sheds_record_single_span_traces() {
        use drone_telemetry::TraceRing;
        let ring = TraceRing::new(8);
        let tracing = BatchTracing {
            ring: &ring,
            clock: Clock::wall(),
            seed: 7,
        };
        let line = minimal_line();
        let policy = BatchPolicy {
            cost_deadline: Some(10),
        };
        let (slots, outcome) = handle_batch_traced(
            &engine(),
            &[line.as_str()],
            &QueryLimits::default(),
            policy,
            &tracing,
        );
        assert_eq!(outcome.deadline_sheds, 1);
        assert!(matches!(&slots[0], ReplySlot::Line(l) if l.contains("deadline_exceeded")));
        assert_eq!(ring.completed(), 1);
        let trace = &ring.last(1)[0];
        assert_eq!(trace.span_count(), 1, "shed before evaluation: root only");
        assert_eq!(
            trace.root_tag("outcome"),
            Some(TagValue::Str("deadline_exceeded"))
        );
    }

    #[test]
    fn strictness_rejects_unknown_keys_and_bad_shapes() {
        let limits = QueryLimits::default();
        let cases = [
            ("not json at all", ErrorKind::Parse),
            ("{\"nope\":1}", ErrorKind::BadRequest),
            ("{\"query\":{\"objective\":\"max_flight_time\"}}", ErrorKind::BadRequest),
            (
                "{\"query\":{\"ranges\":{\"wheelbase_mm\":100,\"cells\":[3],\"capacity_mah\":1000,\"bogus\":1},\"objective\":\"max_flight_time\"}}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"query\":{\"ranges\":{\"wheelbase_mm\":100,\"cells\":[\"9S\"],\"capacity_mah\":1000},\"objective\":\"max_flight_time\"}}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"query\":{\"ranges\":{\"wheelbase_mm\":100,\"cells\":[3],\"capacity_mah\":1000},\"objective\":\"fastest\"}}",
                ErrorKind::BadRequest,
            ),
        ];
        for (line, kind) in cases {
            let err = parse_request(line, &limits).unwrap_err();
            assert_eq!(err.kind, kind, "{line}");
        }
    }

    #[test]
    fn limit_violations_surface_as_invalid_query() {
        let line = r#"{"query":{"ranges":{"wheelbase_mm":{"min":450,"max":250,"steps":3},"cells":["3S"],"capacity_mah":2000},"objective":"max_flight_time"}}"#;
        let err = parse_request(line, &QueryLimits::default()).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidQuery);
        assert!(err.message.contains("inverted"), "{}", err.message);
    }

    #[test]
    fn handle_batch_replies_in_input_order_and_coalesces() {
        let bad = "garbage";
        let good = minimal_line();
        let lines = [good.as_str(), bad, good.as_str()];
        let (replies, outcome) = handle_batch(&engine(), &lines, &QueryLimits::default());
        assert_eq!(replies.len(), 3);
        let first = Json::parse(&replies[0]).unwrap();
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(first.get("id"), Some(&Json::Num(7.0)));
        let second = Json::parse(&replies[1]).unwrap();
        assert_eq!(second.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            second.get("error").and_then(|e| e.get("kind")),
            Some(&Json::Str("parse".into()))
        );
        assert_eq!(outcome.answered, 2);
        assert_eq!(outcome.protocol_errors, 1);
        assert_eq!(outcome.query_errors, 0);
        assert_eq!(outcome.rejected(), 1);
        assert_eq!(outcome.cost_units, 30, "15 grid points per good request");
        // Identical replies for identical requests.
        assert_eq!(replies[0], replies[2]);
    }

    #[test]
    fn over_deadline_requests_shed_before_evaluation() {
        // The minimal request sweeps a 15-point grid; a 10-unit
        // deadline sheds it, a 15-unit one lets it through.
        let line = minimal_line();
        let policy = BatchPolicy {
            cost_deadline: Some(10),
        };
        let (replies, outcome) =
            handle_batch_with(&engine(), &[line.as_str()], &QueryLimits::default(), policy);
        let doc = Json::parse(&replies[0]).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("id"), Some(&Json::Num(7.0)), "shed echoes the id");
        assert_eq!(
            doc.get("error").and_then(|e| e.get("kind")),
            Some(&Json::Str("deadline_exceeded".into()))
        );
        assert_eq!(outcome.deadline_sheds, 1);
        assert_eq!(outcome.answered, 0);
        assert_eq!(outcome.cost_units, 0, "shed work costs nothing");
        assert_eq!(outcome.rejected(), 1);

        let relaxed = BatchPolicy {
            cost_deadline: Some(15),
        };
        let (replies, outcome) = handle_batch_with(
            &engine(),
            &[line.as_str()],
            &QueryLimits::default(),
            relaxed,
        );
        let doc = Json::parse(&replies[0]).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(outcome.answered, 1);
        assert_eq!(outcome.deadline_sheds, 0);
    }

    #[test]
    fn a_panicking_evaluation_answers_internal_error_for_that_line_only() {
        use drone_explorer::Explorer;
        use std::sync::Arc;

        // Poison exactly the 350 mm wheelbase sample; the minimal
        // request's 3-step 250..450 grid hits it, a pinned 250 mm
        // request does not.
        let engine = Explorer::new(2).with_eval_hook(Arc::new(|q| {
            assert!(
                (q.wheelbase_mm - 350.0).abs() > 1e-9,
                "chaos hook: poisoned wheelbase"
            );
        }));
        let healthy = r#"{"id":1,"query":{"ranges":{"wheelbase_mm":250,"cells":["3S"],"capacity_mah":2000},"objective":"max_flight_time"}}"#;
        let poisoned = minimal_line();
        let lines = [healthy, poisoned.as_str(), healthy];
        let (replies, outcome) = handle_batch(&engine, &lines, &QueryLimits::default());
        assert_eq!(replies.len(), 3);
        for healthy_reply in [&replies[0], &replies[2]] {
            let doc = Json::parse(healthy_reply).unwrap();
            assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        }
        let doc = Json::parse(&replies[1]).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("id"), Some(&Json::Num(7.0)), "panic echoes the id");
        assert_eq!(
            doc.get("error").and_then(|e| e.get("kind")),
            Some(&Json::Str("internal_error".into()))
        );
        assert_eq!(outcome.answered, 2);
        assert_eq!(outcome.internal_errors, 1);
        assert_eq!(outcome.rejected(), 1);
    }

    fn minimal_optimize_line() -> String {
        r#"{"id":11,"optimize":{"ranges":{"wheelbase_mm":{"min":250,"max":450,"steps":5},"cells":["3S"],"capacity_mah":{"min":2000,"max":6000,"steps":9}},"objective":"max_flight_time","strategy":"sobol","budget":12}}"#
            .to_owned()
    }

    #[test]
    fn optimize_requests_parse_and_round_trip() {
        let limits = QueryLimits::default();
        let req = parse_request(&minimal_optimize_line(), &limits).unwrap();
        let parsed = req.optimize().expect("optimize request");
        assert_eq!(parsed.name, "optimize");
        assert_eq!(parsed.strategy, Strategy::Sobol);
        assert_eq!(parsed.budget, 12);
        assert_eq!(parsed.seed, 0);

        // Client renderer → parser is the identity on the typed value.
        let full = OptimizeRequest::new(
            "rt",
            parsed.ranges.clone(),
            Objective::MinWeight,
            Strategy::Halving,
            64,
        )
        .with_constraints(Constraints {
            max_weight_g: Some(1500.0),
            ..Constraints::default()
        })
        .with_seed(9);
        let line = optimize_request_to_json(5, &full).render();
        let round = parse_request(&line, &limits).unwrap();
        assert_eq!(round.optimize(), Some(&full));
        assert_eq!(round.id, Json::Num(5.0));

        let trace_id = drone_telemetry::derive_trace_id(3, 5);
        let line = optimize_request_to_json_traced(5, trace_id, &full).render();
        let round = parse_request(&line, &limits).unwrap();
        assert_eq!(round.trace_id, Some(trace_id));
        assert_eq!(round.optimize(), Some(&full));
    }

    #[test]
    fn optimize_parsing_is_strict() {
        let limits = QueryLimits::default();
        let cases = [
            // Unknown strategy.
            (
                r#"{"optimize":{"ranges":{"wheelbase_mm":250,"cells":["3S"],"capacity_mah":2000},"objective":"max_flight_time","strategy":"grid","budget":8}}"#,
                ErrorKind::BadRequest,
            ),
            // Missing budget.
            (
                r#"{"optimize":{"ranges":{"wheelbase_mm":250,"cells":["3S"],"capacity_mah":2000},"objective":"max_flight_time","strategy":"sobol"}}"#,
                ErrorKind::BadRequest,
            ),
            // Unknown key.
            (
                r#"{"optimize":{"ranges":{"wheelbase_mm":250,"cells":["3S"],"capacity_mah":2000},"objective":"max_flight_time","strategy":"sobol","budget":8,"bogus":1}}"#,
                ErrorKind::BadRequest,
            ),
            // Exactly one request kind.
            (
                r#"{"optimize":{"ranges":{"wheelbase_mm":250,"cells":["3S"],"capacity_mah":2000},"objective":"max_flight_time","strategy":"sobol","budget":8},"stats":{}}"#,
                ErrorKind::BadRequest,
            ),
            // Budget over the service cap -> invalid_query.
            (
                r#"{"optimize":{"ranges":{"wheelbase_mm":250,"cells":["3S"],"capacity_mah":2000},"objective":"max_flight_time","strategy":"sobol","budget":99999}}"#,
                ErrorKind::InvalidQuery,
            ),
            // Budget zero -> invalid_query.
            (
                r#"{"optimize":{"ranges":{"wheelbase_mm":250,"cells":["3S"],"capacity_mah":2000},"objective":"max_flight_time","strategy":"sobol","budget":0}}"#,
                ErrorKind::InvalidQuery,
            ),
        ];
        for (line, kind) in cases {
            let err = parse_request(line, &limits).unwrap_err();
            assert_eq!(err.kind, kind, "{line}");
        }
    }

    #[test]
    fn optimize_batches_answer_deterministically_and_count() {
        let line = minimal_optimize_line();
        let lines = [line.as_str(), line.as_str()];
        let (replies, outcome) = handle_batch(&engine(), &lines, &QueryLimits::default());
        assert_eq!(outcome.answered, 2);
        assert_eq!(outcome.optimize_requests, 2);
        assert_eq!(replies[0], replies[1], "same seed, same reply bytes");
        let doc = Json::parse(&replies[0]).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        let answer = doc.get("answer").unwrap();
        assert_eq!(
            answer.get("strategy"),
            Some(&Json::Str("sobol".into())),
            "answer echoes the strategy"
        );
        let evaluated = answer.get("evaluated").and_then(Json::as_f64).unwrap();
        assert!(evaluated > 0.0 && evaluated <= 12.0, "budget respected");
        assert_eq!(outcome.cost_units, 2 * evaluated as u64);

        // The optimizer answers fewer points than the 45-point grid
        // sweep of the same region would.
        assert!(evaluated < 45.0);
    }

    #[test]
    fn optimize_requests_shed_against_the_same_cost_deadline() {
        let line = minimal_optimize_line();
        let policy = BatchPolicy {
            cost_deadline: Some(8), // budget 12 > 8
        };
        let (replies, outcome) =
            handle_batch_with(&engine(), &[line.as_str()], &QueryLimits::default(), policy);
        let doc = Json::parse(&replies[0]).unwrap();
        assert_eq!(
            doc.get("error").and_then(|e| e.get("kind")),
            Some(&Json::Str("deadline_exceeded".into()))
        );
        assert_eq!(outcome.deadline_sheds, 1);
        assert_eq!(outcome.optimize_requests, 0);
    }

    #[test]
    fn answers_report_a_sorted_frontier_and_null_best_when_empty() {
        let line = minimal_line();
        let (replies, _) = handle_batch(&engine(), &[line.as_str()], &QueryLimits::default());
        let doc = Json::parse(&replies[0]).unwrap();
        let answer = doc.get("answer").unwrap();
        let frontier = answer.get("frontier").and_then(Json::as_arr).unwrap();
        assert!(!frontier.is_empty());
        let flights: Vec<f64> = frontier
            .iter()
            .map(|m| m.get("flight_min").and_then(Json::as_f64).unwrap())
            .collect();
        assert!(flights.windows(2).all(|w| w[0] >= w[1]), "{flights:?}");

        // An unsatisfiable query answers ok with best: null.
        let none = r#"{"id":1,"query":{"ranges":{"wheelbase_mm":250,"cells":["3S"],"capacity_mah":2000},"constraints":{"min_flight_time_min":10000},"objective":"max_flight_time"}}"#;
        let (replies, outcome) = handle_batch(&engine(), &[none], &QueryLimits::default());
        let doc = Json::parse(&replies[0]).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("answer").unwrap().get("best"), Some(&Json::Null));
        assert_eq!(outcome.answered, 1);
    }
}
