//! End-to-end tests over real loopback sockets: a live [`uqsj_net`]
//! server in front of a sharded store, driven by the crate's own
//! blocking client.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;
use uqsj_net::{json, Client, NetConfig};
use uqsj_serve::{ServeConfig, ShardedQaServer};
use uqsj_sparql::{SparqlQuery, Term, Triple};
use uqsj_template::template::{slot_term, SlotBinding};
use uqsj_template::{Template, TemplateLibrary};

const SLOT: &str = "<_>";

/// "Which <_> graduated from <_> ?" against `predicate`.
fn graduated_template(predicate: &str, confidence: f64) -> Template {
    let sparql = SparqlQuery {
        select: vec!["x".into()],
        triples: vec![
            Triple {
                subject: Term::Var("x".into()),
                predicate: Term::Iri("type".into()),
                object: slot_term(0),
            },
            Triple {
                subject: Term::Var("x".into()),
                predicate: Term::Iri(predicate.into()),
                object: slot_term(1),
            },
        ],
    };
    Template::new(
        ["Which", SLOT, "graduated", "from", SLOT, "?"].map(String::from).to_vec(),
        sparql,
        vec![SlotBinding::Bound, SlotBinding::Bound],
        confidence,
    )
}

fn sharded(seed: Vec<Template>, shards: usize) -> Arc<ShardedQaServer> {
    let mut lexicon = uqsj_nlp::lexicon::paper_lexicon();
    lexicon.add_class("physicist", "Physicist");
    let mut triples = uqsj_rdf::TripleStore::new();
    triples.insert("Alice", "type", "Physicist");
    triples.insert("Alice", "graduatedFrom", "Carnegie_Mellon_University");
    triples.ensure_indexes();
    let mut library = TemplateLibrary::new();
    for t in seed {
        library.add(t);
    }
    Arc::new(ShardedQaServer::new(
        library,
        lexicon,
        triples,
        shards,
        ServeConfig { min_phi: 1.0, cache_capacity: 64, bgp_eval: None },
    ))
}

fn start(qa: Arc<ShardedQaServer>, config: NetConfig) -> (uqsj_net::ServerHandle, Client) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = uqsj_net::serve_on(qa, listener, config).expect("start server");
    let client = Client::connect(handle.local_addr(), Duration::from_secs(5)).expect("connect");
    (handle, client)
}

#[test]
fn answers_over_the_wire() {
    let qa = sharded(vec![graduated_template("graduatedFrom", 0.9)], 3);
    let (handle, mut client) = start(Arc::clone(&qa), NetConfig::default());

    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    assert_eq!(client.get("/readyz").expect("readyz").status, 200);

    let resp = client
        .post("/v1/answer", r#"{"question": "Which physicist graduated from CMU?"}"#)
        .expect("answer");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let doc = json::parse(&resp.body).expect("json body");
    let answers = doc.get("answers").and_then(json::Value::as_array).expect("answers");
    assert_eq!(answers[0].as_str(), Some("Alice"));
    assert!(doc.get("sparql").and_then(json::Value::as_str).is_some());
    assert!(doc.get("shards_touched").and_then(json::Value::as_usize).is_some());

    // Keep-alive: the same connection serves the next request.
    assert!(!resp.close);
    let again = client
        .post(
            "/v1/answer",
            r#"{"questions": ["Which physicist graduated from CMU?", "gibberish"], "threads": 2}"#,
        )
        .expect("batch answer");
    assert_eq!(again.status, 200);
    let doc = json::parse(&again.body).expect("json body");
    let results = doc.get("results").and_then(json::Value::as_array).expect("results");
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].get("answers").and_then(json::Value::as_array).map(<[_]>::len), Some(1));
    assert!(results[0].get("shard").is_some(), "batch results must carry the answering shard");
    // `template_index` is local to `shard`: the pair must name the same
    // template the in-process server chose.
    for (result, q) in results.iter().zip(["Which physicist graduated from CMU?", "gibberish"]) {
        let want = qa.answer(q);
        let shard = result.get("shard").and_then(json::Value::as_usize);
        let index = result.get("template_index").and_then(json::Value::as_usize);
        assert_eq!((shard, index), (want.shard, want.outcome.template_index), "{q:?}");
    }

    handle.shutdown().expect("drain");
}

#[test]
fn ingest_over_the_wire_updates_answers() {
    // Seed with a template whose predicate the KB never uses.
    let qa = sharded(vec![graduated_template("wrongPredicate", 0.5)], 4);
    let (handle, mut client) = start(qa, NetConfig::default());

    let question = r#"{"question": "Which physicist graduated from CMU?"}"#;
    let stale = client.post("/v1/answer", question).expect("stale answer");
    let doc = json::parse(&stale.body).expect("json");
    assert_eq!(
        doc.get("answers").and_then(json::Value::as_array).map(<[_]>::len),
        Some(0),
        "seed template must not answer"
    );

    // Ship a better template through the ingest route (text format,
    // carried as a JSON string).
    let mut library = TemplateLibrary::new();
    library.add(graduated_template("graduatedFrom", 0.99));
    let body = json::object([("templates", uqsj_template::io::to_text(&library).as_str().into())]);
    let resp = client.post("/v1/templates", &body.render()).expect("ingest");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let doc = json::parse(&resp.body).expect("json");
    assert_eq!(doc.get("added").and_then(json::Value::as_usize), Some(1));
    assert_eq!(doc.get("count").and_then(json::Value::as_usize), Some(2));

    // The cached stale outcome must not survive the ingest.
    let fresh = client.post("/v1/answer", question).expect("fresh answer");
    let doc = json::parse(&fresh.body).expect("json");
    let answers = doc.get("answers").and_then(json::Value::as_array).expect("answers");
    assert_eq!(answers[0].as_str(), Some("Alice"), "ingested template must win");

    let metrics = client.get("/metrics").expect("metrics");
    assert!(metrics.body.contains("uqsj_net_ingested_templates_total 1"));
    assert!(metrics.body.contains("uqsj_net_requests_total{route=\"answer\"}"));
    assert!(metrics.body.contains("uqsj_shard_count 4"));
    assert!(metrics.body.contains("uqsj_serve_"));

    handle.shutdown().expect("drain");
}

#[test]
fn rejects_bad_requests_with_the_right_status() {
    let qa = sharded(vec![graduated_template("graduatedFrom", 0.9)], 2);
    let config = NetConfig { max_body_bytes: 256, ..NetConfig::default() };
    let (handle, mut client) = start(qa, config);

    // Unknown route and wrong method.
    assert_eq!(client.get("/nope").expect("404").status, 404);
    assert_eq!(client.get("/v1/answer").expect("405").status, 405);

    // Malformed and mis-shaped JSON.
    assert_eq!(client.post("/v1/answer", "{not json").expect("400").status, 400);
    assert_eq!(client.post("/v1/answer", r#"{"threads": 2}"#).expect("400").status, 400);
    assert_eq!(client.post("/v1/answer", r#"{"questions": [1,2]}"#).expect("400").status, 400);
    assert_eq!(
        client.post("/v1/templates", r##"{"templates": "#garbage"}"##).expect("400").status,
        400
    );

    // Oversized body: 413 and the connection closes.
    let huge = format!(r#"{{"question": "{}"}}"#, "x".repeat(1024));
    let resp = client.post("/v1/answer", &huge).expect("413");
    assert_eq!(resp.status, 413);
    assert!(resp.close);

    handle.shutdown().expect("drain");
}

#[test]
fn zero_deadline_expires_requests_with_503() {
    let qa = sharded(vec![graduated_template("graduatedFrom", 0.9)], 2);
    let config = NetConfig { deadline: Duration::ZERO, ..NetConfig::default() };
    let (handle, mut client) = start(qa, config);

    let resp = client
        .post("/v1/answer", r#"{"question": "Which physicist graduated from CMU?"}"#)
        .expect("deadline response");
    assert_eq!(resp.status, 503, "body: {}", resp.body);
    assert!(handle.metrics().deadline_expired.value() >= 1);

    handle.shutdown().expect("drain");
}

#[test]
fn zero_queue_depth_sheds_every_connection() {
    let qa = sharded(vec![graduated_template("graduatedFrom", 0.9)], 2);
    let config = NetConfig { queue_depth: 0, ..NetConfig::default() };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = uqsj_net::serve_on(qa, listener, config).expect("start server");

    let mut client = Client::connect(handle.local_addr(), Duration::from_secs(5)).expect("connect");
    let resp = client.get("/healthz").expect("shed response");
    assert_eq!(resp.status, 429);
    assert!(resp.close);
    assert!(handle.metrics().shed.value() >= 1);

    handle.shutdown().expect("drain");
}

#[test]
fn request_id_round_trips_and_explain_report_reconciles() {
    let qa = sharded(vec![graduated_template("graduatedFrom", 0.9)], 3);
    let (handle, mut client) = start(qa, NetConfig::default());

    // A client-supplied 16-hex X-Request-Id is echoed verbatim, appears
    // as the EXPLAIN report's trace id, and keys the flight-recorder
    // events served by /debug/trace.
    let sent_id = "00000000deadbeef";
    let resp = client
        .request_with_headers(
            "POST",
            "/v1/answer",
            Some(r#"{"question": "Which physicist graduated from CMU?", "explain": true}"#),
            &[("X-Request-Id", sent_id)],
        )
        .expect("explain answer");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.request_id.as_deref(), Some(sent_id), "header must echo");

    let doc = json::parse(&resp.body).expect("json body");
    let answers = doc.get("answers").and_then(json::Value::as_array).expect("answers");
    assert_eq!(answers[0].as_str(), Some("Alice"));
    let explain = doc.get("explain").expect("explain report");
    assert_eq!(explain.get("trace_id").and_then(json::Value::as_str), Some(sent_id));
    assert_eq!(explain.get("cache_hit").and_then(json::Value::as_bool), Some(false));

    // The serving funnel must account for the whole library: pruned
    // counts across the stages plus the chosen template sum to the
    // library size the signature stage started from.
    let stages = explain.get("stages").and_then(json::Value::as_array).expect("stages");
    let labels: Vec<&str> =
        stages.iter().filter_map(|s| s.get("stage").and_then(json::Value::as_str)).collect();
    assert_eq!(labels, ["signature", "bound", "align", "ted"]);
    let entering =
        stages[0].get("input").and_then(json::Value::as_usize).expect("first stage input");
    let pruned: usize = stages
        .iter()
        .map(|s| s.get("pruned").and_then(json::Value::as_usize).expect("pruned"))
        .sum();
    let chosen =
        usize::from(explain.get("template_index").and_then(json::Value::as_usize).is_some());
    assert_eq!(pruned + chosen, entering, "funnel must reconcile: {}", resp.body);

    // /debug/trace?id= serves the spans recorded under that trace id.
    let trace = client.get(&format!("/debug/trace?id={sent_id}")).expect("trace");
    assert_eq!(trace.status, 200);
    let doc = json::parse(&trace.body).expect("trace json");
    assert_eq!(doc.get("trace_id").and_then(json::Value::as_str), Some(sent_id));
    let events = doc.get("events").and_then(json::Value::as_array).expect("events");
    let names: Vec<&str> =
        events.iter().filter_map(|e| e.get("name").and_then(json::Value::as_str)).collect();
    assert!(names.contains(&"net.request"), "names: {names:?}");
    assert!(names.contains(&"serve.answer"), "names: {names:?}");

    // An answer this slow log is empty-or-not is environment-dependent,
    // but the explain counter must have moved.
    let metrics = client.get("/metrics").expect("metrics");
    assert!(metrics.body.contains("uqsj_serve_explain_total 1"), "{}", metrics.body);

    handle.shutdown().expect("drain");
}

#[test]
fn request_ids_round_trip_through_batch_and_are_generated_when_absent() {
    let qa = sharded(vec![graduated_template("graduatedFrom", 0.9)], 2);
    let (handle, mut client) = start(qa, NetConfig::default());

    // Batch request with a client id: echoed on the response.
    let resp = client
        .request_with_headers(
            "POST",
            "/v1/answer",
            Some(
                r#"{"questions": ["Which physicist graduated from CMU?", "noise"], "threads": 2}"#,
            ),
            &[("X-Request-Id", "0000000000000abc")],
        )
        .expect("batch");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.request_id.as_deref(), Some("0000000000000abc"));

    // Non-hex client ids map to a stable hash, echoed in canonical form.
    let a = client
        .request_with_headers("GET", "/healthz", None, &[("X-Request-Id", "client-77")])
        .expect("healthz");
    let b = client
        .request_with_headers("GET", "/healthz", None, &[("X-Request-Id", "client-77")])
        .expect("healthz");
    assert_eq!(a.request_id, b.request_id, "same client id must map to the same trace id");
    assert_eq!(a.request_id.as_deref().map(str::len), Some(16));

    // No header: the server generates a fresh id per request.
    let c = client.get("/healthz").expect("healthz");
    let d = client.get("/healthz").expect("healthz");
    assert!(c.request_id.is_some());
    assert_ne!(c.request_id, d.request_id, "generated ids must differ");

    handle.shutdown().expect("drain");
}

#[test]
fn debug_endpoints_serve_well_formed_json() {
    let qa = sharded(vec![graduated_template("graduatedFrom", 0.9)], 2);
    let (handle, mut client) = start(qa, NetConfig::default());

    // Answer twice (one miss, one cache hit) so the slow log and cache
    // have content.
    let q = r#"{"question": "Which physicist graduated from CMU?"}"#;
    assert_eq!(client.post("/v1/answer", q).expect("answer").status, 200);
    assert_eq!(client.post("/v1/answer", q).expect("answer").status, 200);

    let slow = client.get("/debug/slow").expect("slow");
    assert_eq!(slow.status, 200);
    let doc = json::parse(&slow.body).expect("slow json");
    let reports = doc.get("slow").and_then(json::Value::as_array).expect("slow array");
    assert!(!reports.is_empty(), "two answers must leave slow-log entries");
    assert!(reports[0].get("total_us").and_then(json::Value::as_usize).is_some());

    let cache = client.get("/debug/cache").expect("cache");
    assert_eq!(cache.status, 200);
    let doc = json::parse(&cache.body).expect("cache json");
    assert!(doc.get("entries").and_then(json::Value::as_usize).is_some_and(|n| n >= 1));
    assert_eq!(doc.get("capacity").and_then(json::Value::as_usize), Some(64));

    // Trace endpoint input validation.
    assert_eq!(client.get("/debug/trace").expect("400").status, 400);
    assert_eq!(client.get("/debug/trace?id=zzz").expect("400").status, 400);
    assert_eq!(client.post("/debug/slow", "{}").expect("405").status, 405);

    let metrics = client.get("/metrics").expect("metrics");
    assert!(metrics.body.contains("uqsj_net_debug_requests_total"), "{}", metrics.body);
    assert!(metrics.body.contains("uqsj_net_requests_total{route=\"debug\"}"), "{}", metrics.body);

    handle.shutdown().expect("drain");
}

#[test]
fn shutdown_finishes_queued_work_and_stops_listening() {
    let qa = sharded(vec![graduated_template("graduatedFrom", 0.9)], 2);
    let (handle, mut client) = start(qa, NetConfig::default());
    let addr = handle.local_addr();

    assert_eq!(client.get("/readyz").expect("ready").status, 200);
    handle.shutdown().expect("drain");

    // The port no longer serves: connecting either fails outright or the
    // socket goes nowhere (no listener thread left to answer).
    match Client::connect(addr, Duration::from_millis(300)) {
        Err(_) => {}
        Ok(mut dead) => assert!(dead.get("/healthz").is_err(), "server must be gone"),
    }
}
