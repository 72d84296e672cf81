//! The answer gate: every HTTP answer is checked bit-for-bit against an
//! in-process reference `Bear`.
//!
//! A response body is read into an [`Answer`] as it arrives, after the
//! request's latency is stamped. Score vectors are parsed back as
//! round-trip `f64` and folded into a digest of their bit patterns;
//! top-k rankings keep every `(node, score bits)` pair. The reference
//! answers are computed and compared after the measured window, by
//! [`Reference::check`].

use crate::load::Req;
use bear_core::topk::top_k_excluding_seed;
use bear_core::{Bear, QueryWorkspace};
use std::collections::HashMap;

/// What one response said, reduced to what the gate compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// A full score vector: digest of its `f64` bit patterns.
    Scores(Digest),
    /// A ranking: `(node, score bits)` in rank order.
    TopK(Vec<(usize, u64)>),
    /// An admin action that carries no scores.
    Done,
}

/// Order-sensitive digest of a score vector's bit patterns (FNV-1a over
/// the 64-bit words, with the length folded in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    len: usize,
    hash: u64,
}

impl Digest {
    /// Digest of `scores`.
    pub fn of(scores: impl IntoIterator<Item = f64>) -> Digest {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut len = 0;
        for v in scores {
            for byte in v.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
            len += 1;
        }
        Digest { len, hash }
    }
}

/// Reads the body of a 200 answer to `req` into an [`Answer`]; any
/// deviation from the expected shape is an error, which the gate counts
/// as a wrong answer.
pub fn read_answer(req: &Req, body: &[u8]) -> Result<Answer, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let json = parse(text)?;
    match req {
        Req::Query { seed } => {
            expect_seed(&json, *seed)?;
            Ok(Answer::Scores(scores(field(&json, "scores")?)?))
        }
        Req::TopK { seed, .. } => {
            expect_seed(&json, *seed)?;
            let nodes = field(&json, "nodes")?.array()?;
            let ranking = nodes
                .iter()
                .map(|item| {
                    let node = field(item, "node")?.number()?;
                    let node = node.parse::<usize>().map_err(|e| format!("node {node:?}: {e}"))?;
                    Ok((node, float(field(item, "score")?)?.to_bits()))
                })
                .collect::<Result<_, String>>()?;
            Ok(Answer::TopK(ranking))
        }
        Req::Swap { .. } => Ok(Answer::Done),
    }
}

fn expect_seed(json: &Json<'_>, seed: usize) -> Result<(), String> {
    let got = field(json, "seed")?.number()?;
    if got == seed.to_string() {
        Ok(())
    } else {
        Err(format!("answer for seed {got}, asked for {seed}"))
    }
}

fn scores(json: &Json<'_>) -> Result<Digest, String> {
    let values = json.array()?.iter().map(float).collect::<Result<Vec<f64>, String>>()?;
    Ok(Digest::of(values))
}

fn float(json: &Json<'_>) -> Result<f64, String> {
    let raw = json.number()?;
    raw.parse::<f64>().map_err(|e| format!("number {raw:?}: {e}"))
}

fn field<'j, 'a>(json: &'j Json<'a>, key: &str) -> Result<&'j Json<'a>, String> {
    match json {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {key:?}")),
        _ => Err(format!("expected an object holding {key:?}")),
    }
}

/// The in-process reference the gate compares against: the same graph,
/// preprocessed in this process, answering through the plain solver.
pub struct Reference<'b> {
    bear: &'b Bear,
    ws: QueryWorkspace,
    scores: Vec<f64>,
    vectors: HashMap<usize, Digest>,
    rankings: HashMap<(usize, usize), Vec<(usize, u64)>>,
}

impl<'b> Reference<'b> {
    /// A reference over `bear`.
    pub fn new(bear: &'b Bear) -> Self {
        Reference {
            bear,
            ws: QueryWorkspace::for_bear(bear),
            scores: vec![0.0; bear.num_nodes()],
            vectors: HashMap::new(),
            rankings: HashMap::new(),
        }
    }

    /// The answer `req` must get.
    pub fn expected(&mut self, req: &Req) -> Answer {
        match req {
            Req::Query { seed } => Answer::Scores(self.vector(*seed)),
            Req::TopK { seed, k } => Answer::TopK(self.ranking(*seed, *k)),
            Req::Swap { .. } => Answer::Done,
        }
    }

    /// Whether `got` is exactly the answer `req` must get.
    pub fn check(&mut self, req: &Req, got: &Answer) -> bool {
        self.expected(req) == *got
    }

    fn solve(&mut self, seed: usize) {
        self.bear.query_into(seed, &mut self.ws, &mut self.scores).expect("reference solve");
    }

    fn vector(&mut self, seed: usize) -> Digest {
        if let Some(d) = self.vectors.get(&seed) {
            return *d;
        }
        self.solve(seed);
        let d = Digest::of(self.scores.iter().copied());
        self.vectors.insert(seed, d);
        d
    }

    fn ranking(&mut self, seed: usize, k: usize) -> Vec<(usize, u64)> {
        if let Some(r) = self.rankings.get(&(seed, k)) {
            return r.clone();
        }
        self.solve(seed);
        let r: Vec<(usize, u64)> = top_k_excluding_seed(&self.scores, seed, k)
            .into_iter()
            .map(|s| (s.node, s.score.to_bits()))
            .collect();
        self.rankings.insert((seed, k), r.clone());
        r
    }
}

// ---------------------------------------------------------------------------
// A minimal JSON reader: numbers stay as their source text so they can be
// parsed back as round-trip `f64`; string escapes are skipped, not decoded.
// ---------------------------------------------------------------------------

/// A parsed JSON value borrowing from the source text.
#[derive(Debug)]
pub enum Json<'a> {
    /// `null`, `true` or `false`.
    Literal,
    /// A number, as written.
    Num(&'a str),
    /// A string's raw contents.
    Str(&'a str),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object's fields in order.
    Obj(Vec<(&'a str, Json<'a>)>),
}

impl<'a> Json<'a> {
    fn array(&self) -> Result<&[Json<'a>], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("expected an array, found {other:?}")),
        }
    }

    fn number(&self) -> Result<&'a str, String> {
        match self {
            Json::Num(raw) => Ok(raw),
            other => Err(format!("expected a number, found {other:?}")),
        }
    }
}

/// Parses one JSON document; trailing bytes other than whitespace are an
/// error.
pub fn parse(text: &str) -> Result<Json<'_>, String> {
    let mut p = Parser { src: text, pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing bytes at {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", byte as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json<'a>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
                    self.pos += 1;
                }
                Ok(Json::Num(&self.src[start..self.pos]))
            }
            _ => {
                for word in ["null", "true", "false"] {
                    if self.src[self.pos..].starts_with(word) {
                        self.pos += word.len();
                        return Ok(Json::Literal);
                    }
                }
                Err(format!("unexpected byte at {}", self.pos))
            }
        }
    }

    fn string(&mut self) -> Result<&'a str, String> {
        self.eat(b'"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => break,
                Some(b'\\') => self.pos += 2,
                Some(_) => self.pos += 1,
            }
        }
        let s = self.src.get(start..self.pos).ok_or("string escape past the end")?;
        self.pos += 1;
        Ok(s)
    }

    fn array(&mut self) -> Result<Json<'a>, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json<'a>, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Conn;
    use bear_core::{BearConfig, EngineConfig, QueryEngine};
    use bear_graph::generators::{hub_and_spoke, HubSpokeConfig};
    use bear_serve::{Registry, Server, ServerConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn small_bear() -> Bear {
        let config = HubSpokeConfig {
            num_hubs: 6,
            num_caves: 10,
            max_cave_size: 12,
            cave_density: 0.3,
            hub_links: 2,
            hub_density: 0.3,
        };
        let g = hub_and_spoke(&config, &mut StdRng::seed_from_u64(3));
        Bear::new(&g, &BearConfig::exact(0.05)).expect("preprocess")
    }

    /// Flips the lowest mantissa bit of the number starting at the
    /// `nth` occurrence of `marker`, re-printed as round-trip `f64`.
    fn flip_one_bit(body: &str, marker: &str, nth: usize) -> String {
        let at = body.match_indices(marker).nth(nth).expect("marker").0 + marker.len();
        let end = at + body[at..].find([',', ']', '}']).expect("number end");
        let v: f64 = body[at..end].parse().expect("number");
        let flipped = f64::from_bits(v.to_bits() ^ 1);
        format!("{}{flipped}{}", &body[..at], &body[end..])
    }

    /// The gate passes real server answers and fails each of them once
    /// one bit of one score is flipped.
    #[test]
    fn gate_catches_one_flipped_bit() {
        let bear = Arc::new(small_bear());
        let engine = QueryEngine::new(bear.clone(), EngineConfig::default()).expect("engine");
        let registry = Arc::new(Registry::new());
        registry.publish("g", Arc::new(engine));
        let server = Server::start(registry, ServerConfig::default()).expect("server");
        let mut reference = Reference::new(&bear);
        let cases = [
            (Req::Query { seed: 7 }, "/v1/query?seed=7", "\"scores\":[", 0),
            (Req::TopK { seed: 7, k: 5 }, "/v1/topk?seed=7&k=5", "\"score\":", 3),
        ];
        for (req, target, marker, nth) in cases {
            let mut conn = Conn::open(server.addr(), false).expect("connect");
            let reply = conn.call("GET", target).expect("call");
            assert_eq!(reply.status, 200, "{target}");
            let body = String::from_utf8(reply.body).expect("utf-8");
            let got = read_answer(&req, body.as_bytes()).expect("answer");
            assert!(reference.check(&req, &got), "{target}: a correct answer must pass");
            let bad = flip_one_bit(&body, marker, nth);
            assert_ne!(bad, body);
            let got = read_answer(&req, bad.as_bytes()).expect("still well-formed");
            assert!(!reference.check(&req, &got), "{target}: one flipped bit must fail");
        }
        server.shutdown();
    }

    #[test]
    fn parser_handles_nesting_and_rejects_garbage() {
        let json = parse(r#"{"a":[1,-2.5e-3,{"b":"x\"y"}],"c":null}"#).expect("valid");
        assert!(matches!(field(&json, "c"), Ok(Json::Literal)));
        assert_eq!(field(&json, "a").and_then(|a| a.array()).map(|a| a.len()), Ok(3));
        for bad in ["{", "[1,]", "{\"a\" 1}", "[1] x", "\"open"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
