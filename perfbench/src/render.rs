//! Reply bodies in the server's wire format, for the answer oracle and
//! for the traced in-process replay (which renders what the server's
//! router would before handing it to `Response::write_to`).

use tsm_core::json;
use tsm_core::pipeline::PredictionOutcome;
use tsm_core::session::QueryReply;

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn ingest(name: &str, accepted: usize, seq: Option<u64>) -> String {
    format!(
        "{{\"session\": {}, \"accepted\": {accepted}, \"durable\": true, \"wal_seq\": {}}}\n",
        json::string(name),
        seq.map_or("null".into(), |s| s.to_string()),
    )
}

pub fn predict(name: &str, dt: f64, outcome: Option<&PredictionOutcome>) -> String {
    let Some(o) = outcome else {
        return format!(
            "{{\"session\": {}, \"dt\": {}, \"prediction\": null}}\n",
            json::string(name),
            json_f64(dt)
        );
    };
    let coords: Vec<String> = o.position.coords().iter().map(|&c| json_f64(c)).collect();
    format!(
        "{{\"session\": {}, \"dt\": {}, \"prediction\": {{\"position\": [{}], \
         \"num_matches\": {}, \"query_len\": {}, \"query_stable\": {}}}}}\n",
        json::string(name),
        json_f64(dt),
        coords.join(", "),
        o.num_matches,
        o.query_len,
        o.query_stable,
    )
}

pub fn query(name: &str, reply: Option<&QueryReply>) -> String {
    let Some(reply) = reply else {
        return format!(
            "{{\"session\": {}, \"query_len\": 0, \"matches\": []}}\n",
            json::string(name)
        );
    };
    let matches: Vec<String> = reply
        .matches
        .iter()
        .map(|m| {
            format!(
                "{{\"stream\": {}, \"start\": {}, \"len\": {}, \"distance\": {}, \
                 \"ws\": {}, \"relation\": {}}}",
                m.subseq.stream.0,
                m.subseq.start,
                m.subseq.len,
                json_f64(m.distance),
                json_f64(m.ws),
                json::string(&format!("{:?}", m.relation)),
            )
        })
        .collect();
    format!(
        "{{\"session\": {}, \"query_len\": {}, \"matches\": [{}]}}\n",
        json::string(name),
        reply.query_len,
        matches.join(", ")
    )
}

/// Whether two reply bodies carry the same JSON with bit-identical
/// numbers (whitespace and number spelling aside).
pub fn same_answer(served: &str, expected: &str) -> bool {
    match (crate::json::parse(served), crate::json::parse(expected)) {
        (Ok(a), Ok(b)) => a.same_bits(&b),
        _ => false,
    }
}
