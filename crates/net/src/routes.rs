//! Route dispatch: the endpoints of the wire protocol.
//!
//! | route              | method | body                                       |
//! |--------------------|--------|--------------------------------------------|
//! | `/v1/answer`       | POST   | `{"question": "...", "explain": bool}` or `{"questions": [...], "threads": N}` |
//! | `/v1/templates`    | POST   | `{"templates": "<uqsj_template::io text>"}` |
//! | `/metrics`         | GET    | — (Prometheus text)                        |
//! | `/healthz`         | GET    | — (liveness: always 200 while running)     |
//! | `/readyz`          | GET    | — (readiness: 503 once draining)           |
//! | `/debug/slow`      | GET    | — (worst-N query reports, slowest first)   |
//! | `/debug/trace`     | GET    | — (`?id=<16-hex>`: that request's spans)   |
//! | `/debug/cache`     | GET    | — (answer-cache occupancy and generation)  |

use crate::http::{Request, Response};
use crate::json::{self, object, Value};
use crate::metrics::NetMetrics;
use std::time::Instant;
use uqsj_serve::{ShardedAnswer, ShardedQaServer};

/// Stable route name for metric labels. Every `/debug/*` path shares one
/// label value — the set is bounded by design.
pub fn route_name(path: &str) -> &'static str {
    if path.starts_with("/debug/") {
        return "debug";
    }
    match path {
        "/v1/answer" => "answer",
        "/v1/templates" => "templates",
        "/metrics" => "metrics",
        "/healthz" => "healthz",
        "/readyz" => "readyz",
        _ => "other",
    }
}

/// Handle one parsed request. `deadline` is the request's drop-dead
/// instant: the expensive stages (answering, ingest) re-check it at
/// their boundary and give up with 503 rather than start work whose
/// caller has already timed out.
pub fn dispatch(
    qa: &ShardedQaServer,
    metrics: &NetMetrics,
    request: &Request,
    draining: bool,
    deadline: Instant,
) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/readyz") => {
            if draining {
                Response::error(503, "draining")
            } else {
                Response::text(200, "ready\n")
            }
        }
        ("GET", "/metrics") => {
            let mut text = metrics.registry().render_prometheus();
            text.push_str(&qa.metrics_registry().render_prometheus());
            text.push_str(&uqsj_obs::global().render_prometheus());
            Response {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                body: text.into_bytes(),
                close: false,
                request_id: 0,
            }
        }
        ("POST", "/v1/answer") => answer(qa, metrics, &request.body, deadline),
        ("POST", "/v1/templates") => ingest(qa, metrics, &request.body, deadline),
        ("GET", "/debug/slow") => {
            metrics.debug_requests.inc();
            Response::json(200, format!("{{\"slow\":{}}}", qa.slow_log().to_json()))
        }
        ("GET", "/debug/trace") => {
            metrics.debug_requests.inc();
            debug_trace(request)
        }
        ("GET", "/debug/cache") => {
            metrics.debug_requests.inc();
            let (entries, capacity, generation) = qa.cache_debug();
            let body = object([
                ("entries", entries.into()),
                ("capacity", capacity.into()),
                ("generation", Value::from(generation as f64)),
            ]);
            Response::json(200, body.render())
        }
        (
            _,
            "/healthz" | "/readyz" | "/metrics" | "/v1/answer" | "/v1/templates" | "/debug/slow"
            | "/debug/trace" | "/debug/cache",
        ) => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such route"),
    }
}

/// `GET /debug/trace?id=<16-hex>`: the flight-recorder events stamped
/// with that trace id, oldest first.
fn debug_trace(request: &Request) -> Response {
    let Some(id) = request.query_param("id") else {
        return Response::error(400, "missing ?id=<16-hex trace id>");
    };
    let Ok(trace_id) = u64::from_str_radix(id.trim(), 16) else {
        return Response::error(400, "id must be a hex trace id");
    };
    let events = uqsj_obs::trace::recorder().events_for(trace_id);
    let mut body = format!("{{\"trace_id\":\"{trace_id:016x}\",\"events\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str("{\"name\":");
        uqsj_obs::push_json_string(&mut body, e.name);
        body.push_str(&format!(
            ",\"start_us\":{},\"dur_us\":{},\"tid\":{},\"depth\":{}}}",
            e.start_us, e.dur_us, e.tid, e.depth
        ));
    }
    body.push_str("]}");
    Response::json(200, body)
}

/// Deadline gate at a stage boundary: `Some(503)` if the budget is gone.
fn expired(metrics: &NetMetrics, deadline: Instant) -> Option<Response> {
    if Instant::now() >= deadline {
        metrics.deadline_expired.inc();
        Some(Response::error(503, "deadline exceeded"))
    } else {
        None
    }
}

fn parse_body(body: &[u8]) -> Result<Value, Response> {
    let text = std::str::from_utf8(body).map_err(|_| Response::error(400, "body is not UTF-8"))?;
    json::parse(text).map_err(|e| Response::error(400, &format!("invalid JSON: {e}")))
}

/// One answer as a JSON object, on the single-question and the batch
/// path alike. `template_index` is local to `shard`, which is present
/// whenever a template applied; `shards_touched` is always present.
fn outcome_json(answered: &ShardedAnswer) -> Value {
    let o = &answered.outcome;
    let mut fields = vec![
        ("answers".to_owned(), o.answers.iter().map(|a| Value::from(a.as_str())).collect()),
        (
            "sparql".to_owned(),
            o.sparql.as_ref().map_or(Value::Null, |q| Value::from(q.to_string())),
        ),
        ("template_index".to_owned(), o.template_index.map_or(Value::Null, Value::from)),
        ("phi".to_owned(), Value::from(o.phi)),
    ];
    if let Some(s) = answered.shard {
        fields.push(("shard".to_owned(), Value::from(s)));
    }
    fields.push(("shards_touched".to_owned(), Value::from(answered.shards_touched)));
    Value::Object(fields.into_iter().collect())
}

fn answer(qa: &ShardedQaServer, metrics: &NetMetrics, body: &[u8], deadline: Instant) -> Response {
    let doc = match parse_body(body) {
        Ok(doc) => doc,
        Err(resp) => return resp,
    };
    // Boundary: parsing done, answering not yet started.
    if let Some(resp) = expired(metrics, deadline) {
        return resp;
    }
    // The batch path ignores `explain`: per-question reports across a
    // thread pool would need per-item context plumbing the protocol does
    // not promise; ask one question at a time for an EXPLAIN.
    let explain = doc.get("explain").and_then(Value::as_bool).unwrap_or(false);
    if let Some(question) = doc.get("question").and_then(Value::as_str) {
        if explain {
            return answer_explained(qa, question);
        }
        let answered = qa.answer(question);
        let body = outcome_json(&answered);
        return Response::json(200, body.render());
    }
    if let Some(items) = doc.get("questions").and_then(Value::as_array) {
        let mut questions = Vec::with_capacity(items.len());
        for item in items {
            match item.as_str() {
                Some(q) => questions.push(q.to_owned()),
                None => return Response::error(400, "questions must be an array of strings"),
            }
        }
        let threads = match doc.get("threads") {
            None => 1,
            Some(v) => match v.as_usize() {
                Some(t) => t,
                None => return Response::error(400, "threads must be a non-negative integer"),
            },
        };
        let answers = qa.answer_batch(&questions, threads);
        let results: Value = answers.iter().map(outcome_json).collect();
        return Response::json(200, object([("results", results)]).render());
    }
    Response::error(400, "body needs a \"question\" string or \"questions\" array")
}

/// Single-question answer with a structured EXPLAIN report attached
/// under an `"explain"` key. The report carries the same trace id the
/// response echoes in `X-Request-Id`, so `/debug/trace?id=` finds its
/// spans.
fn answer_explained(qa: &ShardedQaServer, question: &str) -> Response {
    // Flip `explain` on the installed request context (same trace id)
    // so deeper stages see `explain_requested()` while answering.
    let ctx = uqsj_obs::ctx::current().unwrap_or_default().with_explain(true);
    let _ctx = uqsj_obs::ctx::install(ctx);
    qa.serve_metrics().record_explain();
    let (answered, report) = qa.answer_explained(question);
    let mut body = outcome_json(&answered).render();
    // Splice the hand-rendered report in as a raw value: an object render
    // always ends with '}', so swap it for `,"explain":<report>}`.
    body.pop();
    body.push_str(",\"explain\":");
    body.push_str(&report.to_json());
    body.push('}');
    Response::json(200, body)
}

fn ingest(qa: &ShardedQaServer, metrics: &NetMetrics, body: &[u8], deadline: Instant) -> Response {
    let doc = match parse_body(body) {
        Ok(doc) => doc,
        Err(resp) => return resp,
    };
    let Some(text) = doc.get("templates").and_then(Value::as_str) else {
        return Response::error(400, "body needs a \"templates\" string (template text format)");
    };
    let library = match uqsj_template::io::from_text(text) {
        Ok(library) => library,
        Err(e) => return Response::error(400, &format!("invalid template text: {e}")),
    };
    // Boundary: decoding done, the journaled ingest not yet started.
    if let Some(resp) = expired(metrics, deadline) {
        return resp;
    }
    let offered = library.len();
    match qa.insert_templates(library.templates().iter().cloned()) {
        Ok(added) => {
            metrics.ingested_templates.add(added as u64);
            let body = object([
                ("added", added.into()),
                ("offered", offered.into()),
                ("count", qa.template_count().into()),
            ]);
            Response::json(200, body.render())
        }
        Err(e) => Response::error(500, &format!("ingest failed: {e}")),
    }
}
