//! Versioned JSON interchange for [`Graph`] — the graph ingestion boundary.
//!
//! Every public entry point of the stack historically assumed trusted
//! in-process graphs built by the model zoo; serving arbitrary user graphs
//! requires a serialisable interchange format whose importer *never panics*:
//! unknown operators, arity/attribute errors, dangling edges, cycles and
//! shape-inference failures all surface as typed [`GraphError`] variants.
//!
//! The format is hand-rolled (the build environment has no crates.io access,
//! so no serde), versioned, and round-trip exact: exporting a graph and
//! re-importing it preserves the node/edge structure, names, attributes and
//! — crucially for the serving cache — [`Graph::canonical_hash`].
//!
//! # One reader, one writer
//!
//! A graph crosses the boundary in one pass each way.
//! [`Graph::from_json`] walks the bytes once with a schema-directed cursor:
//! known keys are matched in place (one bit per key rejects duplicates),
//! operator names are borrowed from the document, and `[node, port]` refs
//! and shape dimensions are read as integers straight into exact-capacity
//! vectors. Only a node's `attrs` object is parsed as a [`JsonValue`], so
//! one function holds the attribute rules. [`Graph::to_json`] writes the
//! document into one exact-capacity `String`. These two passes are the only
//! graph codec: requests, responses and the serving cache's snapshot all go
//! through them.
//!
//! Errors are **syntax first**: when the cursor stops and the text is not
//! well-formed JSON either, the error is the [`GraphError::Parse`] the
//! generic parser reports, so a malformed document is a `Parse` error
//! whatever else is wrong with it. A well-formed document gets the first
//! schema error in document order, then [`Graph::validate`]'s.
//!
//! [`Graph::from_json_value`] and [`Graph::to_json_value`] are one-line
//! shims over the byte forms, kept for the `benchmark/` harness until its
//! rework deletes them, so they accept and produce exactly what the byte
//! forms do by construction. The tree codec the byte forms replaced
//! survives only as the differential tests' reference, in this module's
//! test code: same documents accepted, the same error variant for each
//! rejected one, the same bytes written.
//!
//! # Document shape (version 1)
//!
//! ```json
//! {
//!   "format": "xrlflow-graph",
//!   "version": 1,
//!   "nodes": [
//!     {"op": "Input", "outputs": [[1, 64]]},
//!     {"op": "Weight", "outputs": [[64, 32]]},
//!     {"op": "MatMul", "inputs": [[0, 0], [1, 0]], "outputs": [[1, 32]]}
//!   ],
//!   "outputs": [[2, 0]]
//! }
//! ```
//!
//! Nodes are stored in (compacted) storage order; `inputs` and the
//! top-level `outputs` are `[node_index, port]` pairs. Non-default operator
//! attributes ride in an `"attrs"` object. Stored output shapes are
//! mandatory and re-checked against shape inference on import, so a
//! tampered document cannot smuggle in inconsistent shapes.
//!
//! # Examples
//!
//! ```
//! use xrlflow_graph::{Graph, OpAttributes, OpKind, TensorShape};
//!
//! let mut g = Graph::new();
//! let x = g.add_input(TensorShape::new(vec![1, 8]));
//! let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![x.into()]).unwrap();
//! g.mark_output(relu.into());
//!
//! let text = g.to_json();
//! let back = Graph::from_json(&text).unwrap();
//! assert_eq!(back.canonical_hash(), g.canonical_hash());
//! assert!(Graph::from_json("{\"format\": \"bogus\"}").is_err());
//! ```

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::graph::{Graph, GraphError, Node, NodeId, TensorRef};
use crate::op::{FusedActivation, OpAttributes, OpKind, Padding};
use crate::shape::TensorShape;

/// The interchange version this build writes and accepts.
pub const GRAPH_JSON_VERSION: u64 = 1;

/// The `"format"` marker identifying a graph document.
pub const GRAPH_JSON_FORMAT: &str = "xrlflow-graph";

/// Nesting depth bound of the parser (a malicious `[[[[…` document must
/// error out, not overflow the stack).
const MAX_DEPTH: usize = 128;

/// A parsed JSON value — the minimal generic document model shared by the
/// graph interchange and the serving layer's persistent result cache.
///
/// Objects preserve key order as a `Vec` of pairs; duplicate keys are
/// rejected at parse time.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in key order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document, rejecting trailing content.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser::new(text);
        let value = p.value(0)?;
        p.end()?;
        Ok(value)
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer. `None` for
    /// non-numbers, negatives, non-integers and values above 2^53 (where
    /// `f64` stops being exact).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_f64().and_then(exact_usize)
    }

    /// The boolean payload, when this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, when this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serialises this value as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => {
                // JSON has no non-finite literals; `null` keeps the document
                // well-formed and the importer rejects it with a typed error.
                if n.is_finite() {
                    write!(out, "{n}").expect("writing to a String cannot fail");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::String(s) => write_json_string(s, out),
            JsonValue::Array(items) => write_list(items, out, JsonValue::write),
            JsonValue::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_json_string(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// [`JsonValue::as_usize`]'s rule for a number.
fn exact_usize(n: f64) -> Option<usize> {
    if n.fract() != 0.0 || !(0.0..=9.007_199_254_740_992e15).contains(&n) {
        return None;
    }
    Some(n as usize)
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    // Copy the runs that need no escape whole; every escaped byte is ASCII,
    // so run bounds are char boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b == b'"' || b == b'\\' || b < 0x20 {
            out.push_str(&s[run..i]);
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                _ => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
            }
            run = i + 1;
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn write_usize(n: usize, out: &mut String) {
    write!(out, "{n}").expect("writing to a String cannot fail");
}

/// Appends `[item, item, …]`.
fn write_list<T>(items: impl IntoIterator<Item = T>, out: &mut String, mut item: impl FnMut(T, &mut String)) {
    out.push('[');
    for (i, value) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        item(value, out);
    }
    out.push(']');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { text, bytes: text.as_bytes(), pos: 0 }
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `byte` if it is the next token.
    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        if found {
            self.pos += 1;
        }
        found
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    /// Rejects anything but whitespace after the document.
    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing content at byte {}", self.pos));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?.into_owned())),
            Some(b't') | Some(b'f') => {
                if self.literal("true") {
                    Ok(JsonValue::Bool(true))
                } else if self.literal("false") {
                    Ok(JsonValue::Bool(false))
                } else {
                    Err(format!("invalid literal at byte {}", self.pos))
                }
            }
            Some(b'n') => {
                if self.literal("null") {
                    Ok(JsonValue::Null)
                } else {
                    Err(format!("invalid literal at byte {}", self.pos))
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number().map(JsonValue::Number),
            Some(b) => Err(format!("unexpected byte {:?} at {}", b as char, self.pos)),
            None => Err("unexpected end of document".to_string()),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, JsonValue)> = Vec::new();
        if self.eat(b'}') {
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            pairs.push((key.into_owned(), value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// One string token, borrowed from the document unless it holds an
    /// escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut decoded: Option<String> = None;
        // Start of the current run of unescaped bytes. Runs end only at
        // ASCII bytes, so their bounds are char boundaries.
        let mut run = self.pos;
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(match decoded {
                        None => Cow::Borrowed(tail),
                        Some(mut out) => {
                            out.push_str(tail);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The character of the escape after a backslash. A `\u` escape of a
    /// high surrogate must be followed by one of a low surrogate, and the
    /// pair decodes to one character (JSON's form of a non-BMP character).
    fn escape(&mut self) -> Result<char, String> {
        let byte = self.bytes.get(self.pos).copied();
        self.pos += 1;
        Ok(match byte {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'u') => {
                let code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) {
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err("unpaired surrogate in \\u escape".to_string());
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err("unpaired surrogate in \\u escape".to_string());
                    }
                    char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                        .expect("a surrogate pair decodes to a scalar value")
                } else {
                    char::from_u32(code).ok_or("invalid \\u code point")?
                }
            }
            other => return Err(format!("unsupported escape {other:?}")),
        })
    }

    /// Exactly four hex digits.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.bytes.get(self.pos..self.pos + 4).ok_or("truncated \\u escape")?;
        let mut code = 0;
        for &b in hex {
            code = code * 16 + char::from(b).to_digit(16).ok_or("invalid \\u escape")?;
        }
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    /// The next value as a count, by [`JsonValue::as_usize`]'s rule: `None`
    /// for a non-number and for a number that rule refuses.
    fn count(&mut self) -> Result<Option<usize>, String> {
        match self.peek() {
            Some(b) if b == b'-' || b.is_ascii_digit() => {}
            _ => return Ok(None),
        }
        self.number().map(exact_usize)
    }
}

fn parse_err(message: impl Into<String>) -> GraphError {
    GraphError::Parse(message.into())
}

/// Top-level keys of a graph document, in the writer's order.
const DOCUMENT_KEYS: [&str; 4] = ["format", "version", "nodes", "outputs"];
/// Keys of a node object, in the writer's order.
const NODE_KEYS: [&str; 5] = ["op", "name", "inputs", "attrs", "outputs"];
/// Nesting depth of a node's `attrs` value: document, `nodes`, node.
const ATTRS_DEPTH: usize = 3;

/// The schema-directed cursor behind [`Graph::from_json`]: one walk over the
/// document that builds nodes as it goes. The scratch lists are reused
/// from node to node, so every vector a node keeps has exact capacity.
struct GraphReader<'a> {
    parser: Parser<'a>,
    refs: Vec<TensorRef>,
    shapes: Vec<TensorShape>,
    dims: Vec<usize>,
}

impl<'a> GraphReader<'a> {
    fn document(text: &'a str) -> Result<Graph, GraphError> {
        let mut reader =
            GraphReader { parser: Parser::new(text), refs: Vec::new(), shapes: Vec::new(), dims: Vec::new() };
        if reader.parser.peek() != Some(b'{') {
            return Err(parse_err("top level must be an object"));
        }
        let (mut nodes, mut outputs) = (Vec::new(), Vec::new());
        let unknown = |key: &str| parse_err(format!("unknown top-level key {key:?}"));
        let seen = reader.members(&DOCUMENT_KEYS, unknown, |r, key| {
            match key {
                0 => {
                    let format = r.string().ok_or_else(|| parse_err("missing \"format\" marker"))??;
                    if format != GRAPH_JSON_FORMAT {
                        return Err(parse_err(format!("not a graph document (format {format:?})")));
                    }
                }
                1 => {
                    let version = r.parser.count().map_err(parse_err)?;
                    check_version(version.ok_or_else(|| parse_err("missing \"version\""))?)?;
                }
                2 => {
                    if r.parser.peek() != Some(b'[') {
                        return Err(parse_err("missing \"nodes\" array"));
                    }
                    r.elements(|r| {
                        if nodes.len() == u32::MAX as usize {
                            return Err(parse_err("too many nodes"));
                        }
                        let node = r.node(nodes.len())?;
                        nodes.push(Some(node));
                        Ok(())
                    })?;
                }
                _ => {
                    let not_list = || parse_err("missing \"outputs\" array");
                    let bad = || {
                        parse_err("graph outputs must be [node_index, port] pairs of non-negative integers")
                    };
                    outputs = r.ref_list(not_list, bad)?;
                }
            }
            Ok(())
        })?;
        // A missing key is found at the closing brace.
        if let Some(missing) = (0..DOCUMENT_KEYS.len()).find(|&k| seen & (1 << k) == 0) {
            return Err(parse_err(match missing {
                0 => "missing \"format\" marker",
                1 => "missing \"version\"",
                2 => "missing \"nodes\" array",
                _ => "missing \"outputs\" array",
            }));
        }
        reader.parser.end().map_err(parse_err)?;
        Ok(Graph::from_raw_parts(nodes, outputs))
    }

    fn node(&mut self, index: usize) -> Result<Node, GraphError> {
        if self.parser.peek() != Some(b'{') {
            return Err(parse_err(format!("node {index} must be an object")));
        }
        let missing_op = || parse_err(format!("node {index}: missing \"op\""));
        let missing_outputs = || parse_err(format!("node {index}: missing \"outputs\" shape list"));
        let (mut op, mut name, mut inputs, mut attrs, mut outputs) =
            (None, None, Vec::new(), OpAttributes::default(), None);
        let unknown = |key: &str| parse_err(format!("node {index}: unknown key {key:?}"));
        self.members(&NODE_KEYS, unknown, |r, key| {
            match key {
                0 => {
                    let op_name = r.string().ok_or_else(missing_op)??;
                    op = Some(
                        OpKind::from_name(&op_name).ok_or_else(|| GraphError::UnknownOp(op_name.into()))?,
                    );
                }
                1 => {
                    let not_string = || parse_err(format!("node {index}: \"name\" must be a string"));
                    name = Some(r.string().ok_or_else(not_string)??.into_owned());
                }
                2 => {
                    let not_list = || parse_err(format!("node {index}: \"inputs\" must be an array"));
                    let bad = || {
                        parse_err(format!(
                            "node {index}: inputs must be [node_index, port] pairs of non-negative integers"
                        ))
                    };
                    inputs = r.ref_list(not_list, bad)?;
                }
                3 => attrs = attrs_from_json(index, &r.parser.value(ATTRS_DEPTH).map_err(parse_err)?)?,
                _ => {
                    if r.parser.peek() != Some(b'[') {
                        return Err(missing_outputs());
                    }
                    r.elements(|r| {
                        let shape = r.shape()?;
                        r.shapes.push(shape);
                        Ok(())
                    })?;
                    outputs = Some(r.shapes.drain(..).collect());
                }
            }
            Ok(())
        })?;
        let op = op.ok_or_else(missing_op)?;
        let outputs = outputs.ok_or_else(missing_outputs)?;
        source_rules(index, Node { op, attrs, inputs, outputs, name })
    }

    /// The string at the cursor, or `None` when the next value is not one.
    fn string(&mut self) -> Option<Result<Cow<'a, str>, GraphError>> {
        (self.parser.peek() == Some(b'"')).then(|| self.parser.string().map_err(parse_err))
    }

    /// Walks the object at the cursor, which the caller has checked opens
    /// with `{`. Every key must be one of `keys`, once (one bit per key);
    /// `member` gets the key's index and consumes its value. Returns the
    /// bits of the keys seen.
    fn members(
        &mut self,
        keys: &[&str],
        unknown: impl Fn(&str) -> GraphError,
        mut member: impl FnMut(&mut Self, usize) -> Result<(), GraphError>,
    ) -> Result<u32, GraphError> {
        self.parser.pos += 1;
        let mut seen = 0u32;
        if self.parser.eat(b'}') {
            return Ok(seen);
        }
        loop {
            let key = self.parser.string().map_err(parse_err)?;
            let k = keys.iter().position(|&known| known == key).ok_or_else(|| unknown(&key))?;
            if seen & (1 << k) != 0 {
                return Err(parse_err(format!("duplicate key {key:?}")));
            }
            seen |= 1 << k;
            self.parser.expect(b':').map_err(parse_err)?;
            member(self, k)?;
            match self.parser.peek() {
                Some(b',') => self.parser.pos += 1,
                Some(b'}') => {
                    self.parser.pos += 1;
                    return Ok(seen);
                }
                _ => return Err(parse_err(format!("expected ',' or '}}' at byte {}", self.parser.pos))),
            }
        }
    }

    /// Walks the array at the cursor, which the caller has checked opens
    /// with `[`; `item` consumes one element.
    fn elements(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), GraphError>,
    ) -> Result<(), GraphError> {
        self.parser.pos += 1;
        if self.parser.eat(b']') {
            return Ok(());
        }
        loop {
            item(self)?;
            match self.parser.peek() {
                Some(b',') => self.parser.pos += 1,
                Some(b']') => {
                    self.parser.pos += 1;
                    return Ok(());
                }
                _ => return Err(parse_err(format!("expected ',' or ']' at byte {}", self.parser.pos))),
            }
        }
    }

    /// A list of `[node, port]` pairs, each read by `tensor_ref`.
    fn ref_list(
        &mut self,
        not_list: impl Fn() -> GraphError,
        bad: impl Fn() -> GraphError,
    ) -> Result<Vec<TensorRef>, GraphError> {
        if self.parser.peek() != Some(b'[') {
            return Err(not_list());
        }
        self.elements(|r| {
            let tensor = r.tensor_ref().map_err(parse_err)?.ok_or_else(&bad)?;
            r.refs.push(tensor);
            Ok(())
        })?;
        Ok(self.refs.drain(..).collect())
    }

    /// One `[node, port]` pair of counts by [`JsonValue::as_usize`]'s rule, the
    /// node below 2^32; `None` when the value is anything else.
    fn tensor_ref(&mut self) -> Result<Option<TensorRef>, String> {
        let p = &mut self.parser;
        if !p.eat(b'[') {
            return Ok(None);
        }
        let Some(node) = p.count()?.filter(|&n| n <= u32::MAX as usize) else { return Ok(None) };
        if !p.eat(b',') {
            return Ok(None);
        }
        let Some(port) = p.count()? else { return Ok(None) };
        if !p.eat(b']') {
            return Ok(None);
        }
        Ok(Some(TensorRef::with_port(NodeId(node as u32), port)))
    }

    /// One shape: an array of counts by [`JsonValue::as_usize`]'s rule, each
    /// at most 2^32, whose element count fits a `usize`.
    fn shape(&mut self) -> Result<TensorShape, GraphError> {
        if self.parser.peek() != Some(b'[') {
            return Err(parse_err("a shape must be an array of dimensions"));
        }
        self.elements(|r| {
            let dim = r.parser.count().map_err(parse_err)?.filter(|&d| d <= u32::MAX as usize);
            r.dims.push(dim.ok_or_else(|| parse_err("shape dimensions must be integers in 0..=2^32"))?);
            Ok(())
        })?;
        checked_shape(TensorShape::new(self.dims.drain(..).collect()))
    }
}

fn check_version(version: usize) -> Result<(), GraphError> {
    if version as u64 != GRAPH_JSON_VERSION {
        return Err(parse_err(format!(
            "unsupported version {version} (this build reads version {GRAPH_JSON_VERSION})"
        )));
    }
    Ok(())
}

fn checked_shape(shape: TensorShape) -> Result<TensorShape, GraphError> {
    if shape.checked_numel().is_none() {
        return Err(parse_err(format!("shape {shape} overflows the element count")));
    }
    Ok(shape)
}

/// The schema of a source operator (input, weight, constant): no inputs,
/// no attributes, exactly one output shape. Every node the reader reads
/// ends here.
fn source_rules(index: usize, node: Node) -> Result<Node, GraphError> {
    let op = node.op;
    if op.is_source() {
        if !node.inputs.is_empty() {
            return Err(parse_err(format!("node {index}: source operator {op} takes no inputs")));
        }
        if node.attrs != OpAttributes::default() {
            return Err(parse_err(format!("node {index}: source operator {op} takes no attributes")));
        }
        if node.outputs.len() != 1 {
            return Err(parse_err(format!(
                "node {index}: source operator {op} must have exactly one output shape"
            )));
        }
    }
    Ok(node)
}

/// Document position by node id: the live nodes, renumbered densely in
/// storage order.
fn document_positions(graph: &Graph) -> Vec<usize> {
    let mut positions = vec![usize::MAX; graph.id_bound()];
    for (position, (id, _)) in graph.iter().enumerate() {
        positions[id.index()] = position;
    }
    positions
}

fn position(positions: &[usize], r: &TensorRef) -> usize {
    let position = positions[r.node.index()];
    assert_ne!(position, usize::MAX, "{:?} is read but not live", r.node);
    position
}

impl Graph {
    /// Serialises the graph as a version-1 interchange document (see the
    /// [module docs](crate::json)). Node ids are compacted to dense indices
    /// preserving storage order, so the round trip preserves
    /// [`Graph::canonical_hash`]. The document is written in one pass into
    /// one exact-capacity `String`, in [`JsonValue::to_json`]'s layout.
    pub fn to_json(&self) -> String {
        let positions = document_positions(self);
        let write_ref = |r: &TensorRef, out: &mut String| {
            out.push('[');
            write_usize(position(&positions, r), out);
            out.push_str(", ");
            write_usize(r.port, out);
            out.push(']');
        };
        let mut out = String::new();
        out.push_str("{\"format\": ");
        write_json_string(GRAPH_JSON_FORMAT, &mut out);
        out.push_str(", \"version\": ");
        write_usize(GRAPH_JSON_VERSION as usize, &mut out);
        out.push_str(", \"nodes\": ");
        write_list(self.iter(), &mut out, |(_, node), out| {
            out.push_str("{\"op\": ");
            write_json_string(node.op.name(), out);
            if let Some(name) = &node.name {
                out.push_str(", \"name\": ");
                write_json_string(name, out);
            }
            if !node.inputs.is_empty() {
                out.push_str(", \"inputs\": ");
                write_list(&node.inputs, out, write_ref);
            }
            if node.attrs != OpAttributes::default() {
                out.push_str(", \"attrs\": ");
                attrs_to_json(&node.attrs).write(out);
            }
            out.push_str(", \"outputs\": ");
            write_list(&node.outputs, out, |shape, out| {
                write_list(shape.dims(), out, |&d, out| write_usize(d, out));
            });
            out.push('}');
        });
        out.push_str(", \"outputs\": ");
        write_list(self.outputs(), &mut out, write_ref);
        out.push('}');
        out.shrink_to_fit();
        out
    }

    /// The interchange document as a [`JsonValue`] tree: the parse of
    /// [`Graph::to_json`]'s bytes, so the tree writes those bytes back.
    ///
    /// A shim over the byte form for a caller that builds a larger document
    /// as a tree (the `benchmark/` harness); the harness's rework (ROADMAP
    /// item 2) deletes it. Shipped code splices [`Graph::to_json`] instead.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::parse(&self.to_json()).expect("to_json writes well-formed JSON, six levels deep at most")
    }

    /// Imports a graph from an interchange document, validating everything:
    /// JSON syntax and schema, operator names, attribute values, reference
    /// resolution, acyclicity, and agreement of every stored output shape
    /// with shape inference.
    ///
    /// # Errors
    ///
    /// Never panics on malformed input. Returns [`GraphError::Parse`] for
    /// syntax/schema violations (a document that is not well-formed JSON is
    /// a `Parse` error whatever else is wrong with it),
    /// [`GraphError::UnknownOp`] for unknown operator names, and the usual
    /// structural variants ([`GraphError::InvalidNode`], [`GraphError::Cycle`],
    /// [`GraphError::Shape`], [`GraphError::Arity`], …) for semantic errors
    /// found during validation.
    pub fn from_json(text: &str) -> Result<Graph, GraphError> {
        // Syntax first: where the cursor stops in a malformed document may
        // look like a schema error (a broken quote swallowing an op name).
        let graph = GraphReader::document(text).map_err(|schema| match JsonValue::parse(text) {
            Err(syntax) => parse_err(syntax),
            Ok(_) => schema,
        })?;
        // Full semantic validation: every reference resolves (dangling edges
        // -> InvalidNode/InvalidPort), the graph is acyclic, and every
        // non-source node's stored output shapes agree with shape inference
        // re-run on its actual inputs (arity and attribute errors surface
        // here as the inference errors they are).
        graph.validate()?;
        Ok(graph)
    }

    /// Imports a graph from an already-parsed [`JsonValue`] tree:
    /// [`Graph::from_json`] of the tree's bytes, so it accepts and rejects
    /// exactly what that does.
    ///
    /// A shim over the byte form for a caller that holds a graph inside a
    /// larger tree (the `benchmark/` harness); the harness's rework (ROADMAP
    /// item 2) deletes it. Shipped code hands [`Graph::from_json`] the text.
    ///
    /// # Errors
    ///
    /// Same as [`Graph::from_json`].
    pub fn from_json_value(value: &JsonValue) -> Result<Graph, GraphError> {
        Graph::from_json(&value.to_json())
    }
}

fn attrs_to_json(attrs: &OpAttributes) -> JsonValue {
    let usize_pair =
        |p: &[usize; 2]| JsonValue::Array(p.iter().map(|&v| JsonValue::Number(v as f64)).collect());
    let usize_list = |l: &[usize]| JsonValue::Array(l.iter().map(|&v| JsonValue::Number(v as f64)).collect());
    let mut pairs = Vec::new();
    if let Some(kernel) = &attrs.kernel {
        pairs.push(("kernel".to_string(), usize_pair(kernel)));
    }
    if let Some(stride) = &attrs.stride {
        pairs.push(("stride".to_string(), usize_pair(stride)));
    }
    if attrs.padding != Padding::default() {
        pairs.push(("padding".to_string(), JsonValue::String(attrs.padding.name().to_string())));
    }
    if attrs.groups != 0 {
        pairs.push(("groups".to_string(), JsonValue::Number(attrs.groups as f64)));
    }
    if let Some(axis) = attrs.axis {
        pairs.push(("axis".to_string(), JsonValue::Number(axis as f64)));
    }
    if attrs.num_splits != 0 {
        pairs.push(("num_splits".to_string(), JsonValue::Number(attrs.num_splits as f64)));
    }
    if let Some(perm) = &attrs.perm {
        pairs.push(("perm".to_string(), usize_list(perm)));
    }
    if let Some(target) = &attrs.target_shape {
        pairs.push(("target_shape".to_string(), usize_list(target)));
    }
    if attrs.epsilon.to_bits() != 0.0f32.to_bits() {
        pairs.push(("epsilon".to_string(), JsonValue::Number(attrs.epsilon as f64)));
    }
    if let Some(act) = attrs.fused_activation {
        pairs.push(("fused_activation".to_string(), JsonValue::String(act.name().to_string())));
    }
    if attrs.folded {
        pairs.push(("folded".to_string(), JsonValue::Bool(true)));
    }
    JsonValue::Object(pairs)
}

fn attrs_from_json(index: usize, v: &JsonValue) -> Result<OpAttributes, GraphError> {
    let pairs = v.as_object().ok_or_else(|| parse_err(format!("node {index}: attrs must be an object")))?;
    let attr_err = |message: String| parse_err(format!("node {index}: {message}"));
    let usize_field = |v: &JsonValue, what: &str| {
        v.as_usize()
            .filter(|&n| n <= u32::MAX as usize)
            .ok_or_else(|| attr_err(format!("{what} must be an integer in 0..=2^32")))
    };
    let pair_field = |v: &JsonValue, what: &str| -> Result<[usize; 2], GraphError> {
        let items = v.as_array().ok_or_else(|| attr_err(format!("{what} must be a two-element array")))?;
        if items.len() != 2 {
            return Err(attr_err(format!("{what} must be a two-element array")));
        }
        Ok([usize_field(&items[0], what)?, usize_field(&items[1], what)?])
    };
    let list_field = |v: &JsonValue, what: &str| -> Result<Vec<usize>, GraphError> {
        let items = v.as_array().ok_or_else(|| attr_err(format!("{what} must be an array")))?;
        items.iter().map(|item| usize_field(item, what)).collect()
    };
    let mut attrs = OpAttributes::default();
    for (key, value) in pairs {
        match key.as_str() {
            "kernel" => attrs.kernel = Some(pair_field(value, "kernel")?),
            "stride" => attrs.stride = Some(pair_field(value, "stride")?),
            "padding" => {
                let name = value.as_str().ok_or_else(|| attr_err("padding must be a string".into()))?;
                attrs.padding = Padding::from_name(name)
                    .ok_or_else(|| attr_err(format!("unknown padding mode {name:?}")))?;
            }
            "groups" => attrs.groups = usize_field(value, "groups")?,
            "axis" => attrs.axis = Some(usize_field(value, "axis")?),
            "num_splits" => attrs.num_splits = usize_field(value, "num_splits")?,
            "perm" => attrs.perm = Some(list_field(value, "perm")?),
            "target_shape" => attrs.target_shape = Some(list_field(value, "target_shape")?),
            "epsilon" => {
                let n = value.as_f64().ok_or_else(|| attr_err("epsilon must be a number".into()))?;
                attrs.epsilon = n as f32;
                if !attrs.epsilon.is_finite() {
                    return Err(attr_err("epsilon must be finite".into()));
                }
            }
            "fused_activation" => {
                let name =
                    value.as_str().ok_or_else(|| attr_err("fused_activation must be a string".into()))?;
                attrs.fused_activation = Some(
                    FusedActivation::from_name(name)
                        .ok_or_else(|| attr_err(format!("unknown fused activation {name:?}")))?,
                );
            }
            "folded" => {
                attrs.folded = value.as_bool().ok_or_else(|| attr_err("folded must be a bool".into()))?
            }
            other => return Err(attr_err(format!("unknown attribute {other:?}"))),
        }
    }
    Ok(attrs)
}

/// The tree codec the byte forms replaced, kept unchanged as the
/// differential tests' reference: they hold [`Graph::from_json`] and
/// [`Graph::to_json`] to these two functions.
#[cfg(test)]
mod tree_oracle {
    use super::*;

    /// The tree writer: the document a [`Graph::to_json`] writes, as a tree.
    pub(super) fn to_json_value(graph: &Graph) -> JsonValue {
        let positions = document_positions(graph);
        let ref_value = |r: &TensorRef| {
            JsonValue::Array(vec![
                JsonValue::Number(position(&positions, r) as f64),
                JsonValue::Number(r.port as f64),
            ])
        };
        let node_values: Vec<JsonValue> = graph
            .iter()
            .map(|(_, node)| {
                let mut pairs = vec![("op".to_string(), JsonValue::String(node.op.name().to_string()))];
                if let Some(name) = &node.name {
                    pairs.push(("name".to_string(), JsonValue::String(name.clone())));
                }
                if !node.inputs.is_empty() {
                    pairs.push((
                        "inputs".to_string(),
                        JsonValue::Array(node.inputs.iter().map(ref_value).collect()),
                    ));
                }
                if node.attrs != OpAttributes::default() {
                    pairs.push(("attrs".to_string(), attrs_to_json(&node.attrs)));
                }
                pairs.push((
                    "outputs".to_string(),
                    JsonValue::Array(node.outputs.iter().map(shape_to_json).collect()),
                ));
                JsonValue::Object(pairs)
            })
            .collect();
        JsonValue::Object(vec![
            ("format".to_string(), JsonValue::String(GRAPH_JSON_FORMAT.to_string())),
            ("version".to_string(), JsonValue::Number(GRAPH_JSON_VERSION as f64)),
            ("nodes".to_string(), JsonValue::Array(node_values)),
            ("outputs".to_string(), JsonValue::Array(graph.outputs().iter().map(ref_value).collect())),
        ])
    }

    /// The tree reader: what [`Graph::from_json`] reads, from a parsed tree.
    ///
    /// # Errors
    ///
    /// Same as [`Graph::from_json`].
    pub(super) fn from_json_value(value: &JsonValue) -> Result<Graph, GraphError> {
        let pairs = value.as_object().ok_or_else(|| parse_err("top level must be an object"))?;
        for (key, _) in pairs {
            if !DOCUMENT_KEYS.contains(&key.as_str()) {
                return Err(parse_err(format!("unknown top-level key {key:?}")));
            }
        }
        let format = value
            .get("format")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| parse_err("missing \"format\" marker"))?;
        if format != GRAPH_JSON_FORMAT {
            return Err(parse_err(format!("not a graph document (format {format:?})")));
        }
        let version = value
            .get("version")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| parse_err("missing \"version\""))?;
        check_version(version)?;
        let node_values = value
            .get("nodes")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| parse_err("missing \"nodes\" array"))?;
        if node_values.len() > u32::MAX as usize {
            return Err(parse_err("too many nodes"));
        }
        let mut nodes: Vec<Option<Node>> = Vec::with_capacity(node_values.len());
        for (i, nv) in node_values.iter().enumerate() {
            nodes.push(Some(node_from_json(i, nv)?));
        }
        let output_values = value
            .get("outputs")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| parse_err("missing \"outputs\" array"))?;
        let mut outputs = Vec::with_capacity(output_values.len());
        for ov in output_values {
            outputs.push(tensor_ref_from_json(ov).ok_or_else(|| {
                parse_err("graph outputs must be [node_index, port] pairs of non-negative integers")
            })?);
        }
        let graph = Graph::from_raw_parts(nodes, outputs);
        graph.validate()?;
        Ok(graph)
    }

    fn shape_to_json(shape: &TensorShape) -> JsonValue {
        JsonValue::Array(shape.dims().iter().map(|&d| JsonValue::Number(d as f64)).collect())
    }

    fn shape_from_json(v: &JsonValue) -> Result<TensorShape, GraphError> {
        let dims_v = v.as_array().ok_or_else(|| parse_err("a shape must be an array of dimensions"))?;
        let mut dims = Vec::with_capacity(dims_v.len());
        for d in dims_v {
            dims.push(
                d.as_usize()
                    .filter(|&d| d <= u32::MAX as usize)
                    .ok_or_else(|| parse_err("shape dimensions must be integers in 0..=2^32"))?,
            );
        }
        checked_shape(TensorShape::new(dims))
    }

    fn tensor_ref_from_json(v: &JsonValue) -> Option<TensorRef> {
        let pair = v.as_array()?;
        if pair.len() != 2 {
            return None;
        }
        let node = pair[0].as_usize().filter(|&n| n <= u32::MAX as usize)?;
        let port = pair[1].as_usize()?;
        Some(TensorRef::with_port(NodeId(node as u32), port))
    }

    fn node_from_json(index: usize, v: &JsonValue) -> Result<Node, GraphError> {
        let pairs = v.as_object().ok_or_else(|| parse_err(format!("node {index} must be an object")))?;
        for (key, _) in pairs {
            if !NODE_KEYS.contains(&key.as_str()) {
                return Err(parse_err(format!("node {index}: unknown key {key:?}")));
            }
        }
        let op_name = v
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| parse_err(format!("node {index}: missing \"op\"")))?;
        let op = OpKind::from_name(op_name).ok_or_else(|| GraphError::UnknownOp(op_name.to_string()))?;
        let name = match v.get("name") {
            None => None,
            Some(n) => Some(
                n.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| parse_err(format!("node {index}: \"name\" must be a string")))?,
            ),
        };
        let mut inputs = Vec::new();
        if let Some(iv) = v.get("inputs") {
            let items = iv
                .as_array()
                .ok_or_else(|| parse_err(format!("node {index}: \"inputs\" must be an array")))?;
            for item in items {
                inputs.push(tensor_ref_from_json(item).ok_or_else(|| {
                    parse_err(format!(
                        "node {index}: inputs must be [node_index, port] pairs of non-negative integers"
                    ))
                })?);
            }
        }
        let attrs = match v.get("attrs") {
            None => OpAttributes::default(),
            Some(av) => attrs_from_json(index, av)?,
        };
        let outputs_v = v
            .get("outputs")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| parse_err(format!("node {index}: missing \"outputs\" shape list")))?;
        let mut outputs = Vec::with_capacity(outputs_v.len());
        for ov in outputs_v {
            outputs.push(shape_from_json(ov)?);
        }
        source_rules(index, Node { op, attrs, inputs, outputs, name })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(d: &[usize]) -> TensorShape {
        TensorShape::new(d.to_vec())
    }

    fn mlp() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 64]));
        let w = g.add_weight(shape(&[64, 32]));
        let mm = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![x.into(), w.into()]).unwrap();
        let relu = g.add_named_node("act", OpKind::Relu, OpAttributes::default(), vec![mm.into()]).unwrap();
        g.mark_output(relu.into());
        g
    }

    #[test]
    fn round_trip_preserves_structure_names_and_hash() {
        let g = mlp();
        let text = g.to_json();
        let back = Graph::from_json(&text).unwrap();
        assert_eq!(back.canonical_hash(), g.canonical_hash());
        assert_eq!(back.num_nodes(), g.num_nodes());
        assert_eq!(back.num_edges(), g.num_edges());
        let named: Vec<_> = back.iter().filter_map(|(_, n)| n.name.clone()).collect();
        assert_eq!(named, vec!["act".to_string()]);
        // The exported text itself is stable under a round trip.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn round_trip_preserves_attributes() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 3, 32, 32]));
        let w = g.add_weight(shape(&[16, 3, 3, 3]));
        let conv = g
            .add_node(
                OpKind::Conv2d,
                OpAttributes::conv2d([3, 3], [2, 2], Padding::Valid, 1)
                    .with_fused_activation(FusedActivation::Relu),
                vec![x.into(), w.into()],
            )
            .unwrap();
        g.mark_output(conv.into());
        let back = Graph::from_json(&g.to_json()).unwrap();
        assert_eq!(back.canonical_hash(), g.canonical_hash());
        let conv_node = back.iter().find(|(_, n)| n.op == OpKind::Conv2d).unwrap().1;
        assert_eq!(conv_node.attrs.kernel, Some([3, 3]));
        assert_eq!(conv_node.attrs.stride, Some([2, 2]));
        assert_eq!(conv_node.attrs.padding, Padding::Valid);
        assert_eq!(conv_node.attrs.fused_activation, Some(FusedActivation::Relu));
    }

    #[test]
    fn round_trip_preserves_hash_after_holes() {
        // Dead-node elimination leaves holes in node storage; export
        // compacts them without disturbing the canonical hash.
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 8]));
        let id = g.add_node(OpKind::Identity, OpAttributes::default(), vec![x.into()]).unwrap();
        let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![id.into()]).unwrap();
        g.mark_output(relu.into());
        g.replace_all_uses(id.into(), x.into()).unwrap();
        g.eliminate_dead_nodes();
        let back = Graph::from_json(&g.to_json()).unwrap();
        assert_eq!(back.canonical_hash(), g.canonical_hash());
        assert_eq!(back.num_nodes(), 2);
    }

    #[test]
    fn truncated_and_garbage_documents_are_parse_errors() {
        let text = mlp().to_json();
        for cut in [1, text.len() / 2, text.len() - 1] {
            assert!(
                matches!(Graph::from_json(&text[..cut]), Err(GraphError::Parse(_))),
                "truncation at {cut} must be a parse error"
            );
        }
        assert!(matches!(Graph::from_json("not json"), Err(GraphError::Parse(_))));
        assert!(matches!(Graph::from_json(""), Err(GraphError::Parse(_))));
        let deep = format!("{}1{}", "[".repeat(4000), "]".repeat(4000));
        assert!(matches!(Graph::from_json(&deep), Err(GraphError::Parse(_))), "deep nesting must error");
    }

    #[test]
    fn wrong_format_and_version_are_rejected() {
        let err = Graph::from_json("{\"format\": \"other\", \"version\": 1, \"nodes\": [], \"outputs\": []}")
            .unwrap_err();
        assert!(matches!(err, GraphError::Parse(_)));
        let err = Graph::from_json(
            "{\"format\": \"xrlflow-graph\", \"version\": 99, \"nodes\": [], \"outputs\": []}",
        )
        .unwrap_err();
        assert!(err.to_string().contains("version"), "got {err}");
    }

    #[test]
    fn unknown_op_is_a_typed_error() {
        let text = mlp().to_json().replace("MatMul", "QuantumMul");
        assert!(matches!(Graph::from_json(&text), Err(GraphError::UnknownOp(name)) if name == "QuantumMul"));
    }

    #[test]
    fn dangling_edges_and_ports_are_typed_errors() {
        let doc = "{\"format\": \"xrlflow-graph\", \"version\": 1, \"nodes\": [\
            {\"op\": \"Input\", \"outputs\": [[1, 8]]},\
            {\"op\": \"Relu\", \"inputs\": [[7, 0]], \"outputs\": [[1, 8]]}\
            ], \"outputs\": [[1, 0]]}";
        assert!(matches!(Graph::from_json(doc), Err(GraphError::InvalidNode(_))));
        let doc = doc.replace("[7, 0]", "[0, 3]");
        assert!(matches!(Graph::from_json(&doc), Err(GraphError::InvalidPort(_))));
    }

    #[test]
    fn cyclic_rewires_are_typed_errors() {
        let doc = "{\"format\": \"xrlflow-graph\", \"version\": 1, \"nodes\": [\
            {\"op\": \"Relu\", \"inputs\": [[1, 0]], \"outputs\": [[1, 8]]},\
            {\"op\": \"Relu\", \"inputs\": [[0, 0]], \"outputs\": [[1, 8]]}\
            ], \"outputs\": [[1, 0]]}";
        assert!(matches!(Graph::from_json(doc), Err(GraphError::Cycle)));
    }

    #[test]
    fn tampered_shapes_and_attributes_are_typed_errors() {
        let g = mlp();
        // Stored output shape disagreeing with inference.
        let bad_shape = g.to_json().replace("[1, 32]", "[1, 33]");
        assert!(matches!(Graph::from_json(&bad_shape), Err(GraphError::Shape { .. })));
        // A transpose with a non-permutation perm must not panic.
        let doc = "{\"format\": \"xrlflow-graph\", \"version\": 1, \"nodes\": [\
            {\"op\": \"Input\", \"outputs\": [[2, 3]]},\
            {\"op\": \"Transpose\", \"inputs\": [[0, 0]], \"attrs\": {\"perm\": [0, 0]}, \
             \"outputs\": [[3, 2]]}\
            ], \"outputs\": [[1, 0]]}";
        assert!(matches!(Graph::from_json(doc), Err(GraphError::Shape { .. })));
        // A zero stride must not divide by zero.
        let doc = "{\"format\": \"xrlflow-graph\", \"version\": 1, \"nodes\": [\
            {\"op\": \"Input\", \"outputs\": [[1, 1, 8, 8]]},\
            {\"op\": \"MaxPool2d\", \"inputs\": [[0, 0]], \
             \"attrs\": {\"kernel\": [2, 2], \"stride\": [0, 2]}, \"outputs\": [[1, 1, 4, 4]]}\
            ], \"outputs\": [[1, 0]]}";
        assert!(matches!(Graph::from_json(doc), Err(GraphError::Shape { .. })));
        // Unknown attribute keys are schema violations.
        let doc = "{\"format\": \"xrlflow-graph\", \"version\": 1, \"nodes\": [\
            {\"op\": \"Input\", \"outputs\": [[1, 8]]},\
            {\"op\": \"Relu\", \"inputs\": [[0, 0]], \"attrs\": {\"wat\": 1}, \"outputs\": [[1, 8]]}\
            ], \"outputs\": [[1, 0]]}";
        assert!(matches!(Graph::from_json(doc), Err(GraphError::Parse(_))));
    }

    #[test]
    fn wrong_arity_is_a_typed_error() {
        let doc = "{\"format\": \"xrlflow-graph\", \"version\": 1, \"nodes\": [\
            {\"op\": \"Input\", \"outputs\": [[1, 8]]},\
            {\"op\": \"MatMul\", \"inputs\": [[0, 0]], \"outputs\": [[1, 8]]}\
            ], \"outputs\": [[1, 0]]}";
        assert!(matches!(Graph::from_json(doc), Err(GraphError::Arity { .. })));
    }

    #[test]
    fn oversized_shapes_are_rejected_without_overflow() {
        // Dimensions above 2^32 and products that overflow usize must both
        // be parse errors, not debug-build arithmetic panics.
        let doc = "{\"format\": \"xrlflow-graph\", \"version\": 1, \"nodes\": [\
            {\"op\": \"Input\", \"outputs\": [[9007199254740992]]}\
            ], \"outputs\": [[0, 0]]}";
        assert!(matches!(Graph::from_json(doc), Err(GraphError::Parse(_))));
        let doc = "{\"format\": \"xrlflow-graph\", \"version\": 1, \"nodes\": [\
            {\"op\": \"Input\", \"outputs\": [[4000000000, 4000000000, 4000000000]]}\
            ], \"outputs\": [[0, 0]]}";
        assert!(matches!(Graph::from_json(doc), Err(GraphError::Parse(_))));
        let doc = "{\"format\": \"xrlflow-graph\", \"version\": 1, \"nodes\": [\
            {\"op\": \"Input\", \"outputs\": [[1.5, 8]]}\
            ], \"outputs\": [[0, 0]]}";
        assert!(matches!(Graph::from_json(doc), Err(GraphError::Parse(_))));
    }

    #[test]
    fn source_schema_is_enforced() {
        let doc = "{\"format\": \"xrlflow-graph\", \"version\": 1, \"nodes\": [\
            {\"op\": \"Input\", \"outputs\": [[1, 8]]},\
            {\"op\": \"Weight\", \"inputs\": [[0, 0]], \"outputs\": [[1, 8]]}\
            ], \"outputs\": [[0, 0]]}";
        assert!(matches!(Graph::from_json(doc), Err(GraphError::Parse(_))));
        let doc = "{\"format\": \"xrlflow-graph\", \"version\": 1, \"nodes\": [\
            {\"op\": \"Input\", \"outputs\": [[1, 8], [1, 8]]}\
            ], \"outputs\": [[0, 0]]}";
        assert!(matches!(Graph::from_json(doc), Err(GraphError::Parse(_))));
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        assert!(JsonValue::parse("{\"a\": 1, \"a\": 2}").is_err());
    }

    #[test]
    fn json_value_accessors_and_writer() {
        let v = JsonValue::parse("{\"s\": \"x\\n\", \"n\": 2.5, \"i\": 7, \"b\": true, \"a\": [1]}").unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x\n"));
        assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(v.get("n").and_then(JsonValue::as_usize), None);
        assert_eq!(v.get("i").and_then(JsonValue::as_usize), Some(7));
        assert_eq!(v.get("b").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("a").and_then(JsonValue::as_array).map(<[JsonValue]>::len), Some(1));
        let round = JsonValue::parse(&v.to_json()).unwrap();
        assert_eq!(round, v);

        // `\u` escapes follow JSON: a surrogate pair is one character, and
        // the writer writes it raw.
        let parsed = |text: &str| JsonValue::parse(text).map(|v| v.as_str().map(str::to_string));
        assert_eq!(parsed(r#""\ud83d\ude00""#), Ok(Some("\u{1f600}".to_string())));
        assert_eq!(parsed(r#""a\u00e9\u0041\/""#), Ok(Some("aéA/".to_string())));
        assert_eq!(JsonValue::String("\u{1f600}\u{1}".into()).to_json(), "\"\u{1f600}\\u0001\"");
        for bad in [
            r#""\ud83d""#,       // lone high surrogate
            r#""\ude00""#,       // lone low surrogate
            r#""\ude00\ud83d""#, // reversed pair
            r#""\ud83d\u0041""#, // high surrogate, then not a low one
            r#""\ud83d\n""#,     // high surrogate, then another escape
            r#""\u+041""#,       // a sign is not a hex digit
            r#""\u-041""#,
            r#""\u04""#, // fewer than four digits
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad} must be rejected");
        }
    }
}

/// Round-trip and differential tests over the whole model zoo, plus negative
/// tests proving malformed documents surface as typed [`GraphError`]s and
/// never panic. The byte forms ([`Graph::from_json`], [`Graph::to_json`]) are
/// held to the tree oracle: the same documents are accepted, rejected with
/// the same error variant, and written to the same bytes.
#[cfg(test)]
mod differential {
    use std::mem::discriminant;

    use super::tree_oracle;
    use crate::models::{build_model, ModelConfig, ModelKind, ModelScale};
    use crate::{
        FusedActivation, Graph, GraphError, JsonValue, OpAttributes, OpKind, Padding, TensorRef, TensorShape,
    };

    const ALL_MODELS: &[ModelKind] = &[
        ModelKind::InceptionV3,
        ModelKind::SqueezeNet,
        ModelKind::ResNext50,
        ModelKind::ResNet18,
        ModelKind::Bert,
        ModelKind::DallE,
        ModelKind::TransformerTransducer,
        ModelKind::Vit,
    ];

    /// Every zoo kind at three input sizes that build.
    fn zoo_corpus() -> Vec<(String, Graph)> {
        let mut corpus = Vec::new();
        for &kind in ALL_MODELS {
            let d = kind.default_input_size();
            let graphs: Vec<(String, Graph)> = [d, d / 2, d + 1, 2 * d, d - 1]
                .into_iter()
                .filter_map(|size| {
                    let graph =
                        ModelConfig::new(kind, ModelScale::Bench).with_input_size(size).build().ok()?;
                    Some((format!("{kind:?}@{size}"), graph))
                })
                .take(3)
                .collect();
            assert_eq!(graphs.len(), 3, "{kind:?}: fewer than three input sizes build");
            corpus.extend(graphs);
        }
        corpus
    }

    /// A small document that uses every part of the format: every attribute
    /// key, names that need escapes, a non-zero port, several graph outputs and
    /// a hole in node storage (export compacts it).
    fn kitchen_sink() -> Graph {
        let shape = |dims: &[usize]| TensorShape::new(dims.to_vec());
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 3, 8, 8]));
        let w = g.add_weight(shape(&[4, 3, 3, 3]));
        let conv_attrs = OpAttributes::conv2d([3, 3], [1, 1], Padding::Same, 1)
            .with_fused_activation(FusedActivation::Relu);
        let conv = g
            .add_named_node("conv \"stem\" \\ 1", OpKind::Conv2d, conv_attrs, vec![x.into(), w.into()])
            .unwrap();
        let dead = g.add_node(OpKind::Identity, OpAttributes::default(), vec![conv.into()]).unwrap();
        let pool = g
            .add_named_node(
                "pool\n\té😀\u{1}",
                OpKind::MaxPool2d,
                OpAttributes::pool([2, 2], [2, 2], Padding::Valid),
                vec![dead.into()],
            )
            .unwrap();
        let split = g.add_node(OpKind::Split, OpAttributes::split(1, 2), vec![pool.into()]).unwrap();
        let flat = g
            .add_node(
                OpKind::Reshape,
                OpAttributes::reshape(vec![1, 32]),
                vec![TensorRef::with_port(split, 1)],
            )
            .unwrap();
        let t =
            g.add_node(OpKind::Transpose, OpAttributes::transpose(vec![1, 0]), vec![flat.into()]).unwrap();
        let norm_attrs =
            OpAttributes { axis: Some(1), epsilon: 1e-5, folded: true, ..OpAttributes::default() };
        let norm = g.add_node(OpKind::LayerNorm, norm_attrs, vec![t.into()]).unwrap();
        let gw = g.add_weight(shape(&[1, 16]));
        let grouped = OpAttributes { groups: 2, ..OpAttributes::default() };
        let mm = g.add_node(OpKind::MatMul, grouped, vec![norm.into(), gw.into()]).unwrap();
        g.mark_output(mm.into());
        g.mark_output(split.into());
        g.replace_all_uses(dead.into(), conv.into()).unwrap();
        assert_eq!(g.eliminate_dead_nodes(), 1);
        g
    }

    fn verdict(result: &Result<Graph, GraphError>) -> String {
        match result {
            Ok(graph) => format!("Ok({} nodes)", graph.num_nodes()),
            Err(e) => format!("Err({e:?})"),
        }
    }

    /// `Graph::from_json(text)` against the tree reader: the same verdict, the
    /// same error variant, and on success the same graph. Returns the verdict.
    fn readers_agree(label: &str, text: &str) -> Result<Graph, GraphError> {
        let direct = Graph::from_json(text);
        let tree =
            JsonValue::parse(text).map_err(GraphError::Parse).and_then(|v| tree_oracle::from_json_value(&v));
        match (&direct, &tree) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.to_json(), b.to_json(), "{label}: the readers built different graphs");
                assert_eq!(a.canonical_hash(), b.canonical_hash(), "{label}: canonical hashes differ");
            }
            (Err(a), Err(b)) => {
                assert_eq!(discriminant(a), discriminant(b), "{label}: direct {a:?} vs tree {b:?}")
            }
            _ => panic!("{label}: direct {} vs tree {}", verdict(&direct), verdict(&tree)),
        }
        direct
    }

    /// The byte writer against the tree writer, and the exact round trip.
    fn assert_exact_round_trip(label: &str, graph: &Graph) {
        let text = graph.to_json();
        assert_eq!(text, tree_oracle::to_json_value(graph).to_json(), "{label}: the writers disagree");
        assert_eq!(text.capacity(), text.len(), "{label}: the exported string carries slack");
        let back = readers_agree(label, &text).unwrap_or_else(|e| panic!("{label} failed to re-import: {e}"));
        assert_eq!(back.canonical_hash(), graph.canonical_hash(), "{label}: canonical hash changed");
        assert_eq!(back.num_nodes(), graph.num_nodes(), "{label}: node count changed");
        assert_eq!(back.num_edges(), graph.num_edges(), "{label}: edge count changed");
        // Export renumbers the live nodes densely, as `compact` does.
        let mut dense = graph.clone();
        dense.compact();
        assert_eq!(back.outputs(), dense.outputs(), "{label}: output refs changed");
        // A second trip through text is byte-identical (the format is a
        // stable cache key, not just semantically faithful).
        assert_eq!(back.to_json(), text, "{label}: export not stable under round trip");
    }

    #[test]
    fn every_zoo_model_round_trips_exactly() {
        for (label, graph) in zoo_corpus() {
            assert_exact_round_trip(&label, &graph);
        }
        assert_exact_round_trip("kitchen sink", &kitchen_sink());
    }

    #[test]
    fn paper_scale_model_round_trips() {
        // Paper-scale graphs keep the big-graph path honest without making the
        // suite slow.
        for kind in [ModelKind::SqueezeNet, ModelKind::Bert] {
            let graph = build_model(kind, ModelScale::Paper).unwrap();
            assert_exact_round_trip(&format!("{kind:?}@paper"), &graph);
        }
    }

    #[test]
    fn truncations_of_a_real_model_never_panic() {
        // Every prefix of the kitchen-sink document, and a spread of a real
        // model's: rejected, with the tree reader's error variant.
        let text = kitchen_sink().to_json();
        for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
            if readers_agree(&format!("prefix of {cut} bytes"), &text[..cut]).is_ok() {
                panic!("truncation at {cut} unexpectedly imported");
            }
        }
        let text = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap().to_json();
        let step = (text.len() / 64).max(1);
        for cut in (0..text.len()).step_by(step) {
            if readers_agree(&format!("SqueezeNet prefix of {cut} bytes"), &text[..cut]).is_ok() {
                panic!("truncation at {cut} unexpectedly imported");
            }
        }
    }

    #[test]
    fn wrong_version_is_a_typed_error() {
        let text = build_model(ModelKind::Bert, ModelScale::Bench).unwrap().to_json();
        let bumped = text.replacen("\"version\": 1", "\"version\": 2", 1);
        match readers_agree("version 2", &bumped) {
            Err(GraphError::Parse(message)) => assert!(message.contains("version"), "got {message:?}"),
            other => panic!("expected parse error, got {}", verdict(&other)),
        }
    }

    #[test]
    fn corrupted_documents_are_typed_errors() {
        let docs = [
            // Unknown operator name.
            r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
                {"op": "Nope", "outputs": [[1]]}], "outputs": [[0, 0]]}"#,
            // Dangling input reference.
            r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
                {"op": "Relu", "inputs": [[5, 0]], "outputs": [[1]]}], "outputs": [[0, 0]]}"#,
            // Two-node cycle.
            r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
                {"op": "Relu", "inputs": [[1, 0]], "outputs": [[1]]},
                {"op": "Relu", "inputs": [[0, 0]], "outputs": [[1]]}], "outputs": [[1, 0]]}"#,
            // Stored shape disagreeing with inference.
            r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
                {"op": "Input", "outputs": [[1, 8]]},
                {"op": "Relu", "inputs": [[0, 0]], "outputs": [[1, 9]]}], "outputs": [[1, 0]]}"#,
            // Dangling graph output.
            r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
                {"op": "Input", "outputs": [[1, 8]]}], "outputs": [[4, 0]]}"#,
            // Negative node index.
            r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
                {"op": "Input", "outputs": [[1, 8]]},
                {"op": "Relu", "inputs": [[-1, 0]], "outputs": [[1, 8]]}], "outputs": [[1, 0]]}"#,
            // Shape product overflowing usize.
            r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
                {"op": "Input", "outputs": [[4000000000, 4000000000, 4000000000]]}], "outputs": [[0, 0]]}"#,
            // Transpose attribute that is not a permutation.
            r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
                {"op": "Input", "outputs": [[2, 3]]},
                {"op": "Transpose", "inputs": [[0, 0]], "attrs": {"perm": [1, 1]},
                 "outputs": [[3, 2]]}], "outputs": [[1, 0]]}"#,
            // Conv with zero stride (division-by-zero hazard).
            r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
                {"op": "Input", "outputs": [[1, 3, 8, 8]]},
                {"op": "Weight", "outputs": [[4, 3, 3, 3]]},
                {"op": "Conv2d", "inputs": [[0, 0], [1, 0]],
                 "attrs": {"kernel": [3, 3], "stride": [0, 0]}, "outputs": [[1, 4, 8, 8]]}],
                "outputs": [[2, 0]]}"#,
            // An op string whose closing quote is broken swallows the rest of
            // the node: a syntax error, not an unknown operator.
            r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
                {"op": "Input#, "outputs": [[1, 8]]}], "outputs": [[0, 0]]}"#,
            // Ref pairs and dims of the wrong length or type.
            r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
                {"op": "Input", "outputs": [[1, 8]]},
                {"op": "Relu", "inputs": [[0, 0, 0]], "outputs": [[1, 8]]}], "outputs": [[1, 0]]}"#,
            r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
                {"op": "Input", "outputs": [[1, "8"]]}], "outputs": [[0, 0]]}"#,
            r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
                {"op": "Input", "outputs": [[1, 8]]}], "outputs": [[0]]}"#,
            // A missing key.
            r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
                {"op": "Input"}], "outputs": [[0, 0]]}"#,
            r#"{"format": "xrlflow-graph", "version": 1, "nodes": []}"#,
        ];
        for (i, doc) in docs.iter().enumerate() {
            if readers_agree(&format!("corrupted document {i}"), doc).is_ok() {
                panic!("corrupted document {i} unexpectedly imported");
            }
        }
        // The broken quote is reported as the syntax error it is.
        assert!(matches!(Graph::from_json(docs[9]), Err(GraphError::Parse(_))));
    }

    #[test]
    fn bit_flips_in_a_real_document_never_panic() {
        // Fuzz-lite: every single-byte ±1 corruption of the kitchen-sink
        // document, and a spread of a real model's, either re-imports (the byte
        // was in a name or a dimension) or fails with the tree reader's error
        // variant — never panics. Deterministic, no RNG.
        let flips = |text: &str, step: usize| {
            let bytes = text.as_bytes();
            for pos in (0..bytes.len()).step_by(step) {
                for delta in [1u8, 255] {
                    let mut corrupted = bytes.to_vec();
                    corrupted[pos] = corrupted[pos].wrapping_add(delta);
                    if let Ok(s) = String::from_utf8(corrupted) {
                        let _ = readers_agree(&format!("byte {pos} + {delta}"), &s);
                    }
                }
            }
        };
        flips(&kitchen_sink().to_json(), 1);
        let text = build_model(ModelKind::Vit, ModelScale::Bench).unwrap().to_json();
        flips(&text, 7);
    }

    /// Rotates the key order of every object `depth` levels down (0: the
    /// document, 2: the nodes, 3: their attrs) by `by` places.
    fn rotate_keys(value: &mut JsonValue, depth: usize, by: usize) {
        match value {
            JsonValue::Object(pairs) => {
                if depth == 0 {
                    let len = pairs.len();
                    pairs.rotate_left(by % len);
                }
                for (_, v) in pairs.iter_mut() {
                    rotate_keys(v, depth.wrapping_sub(1), by);
                }
            }
            JsonValue::Array(items) if depth > 0 => {
                for v in items.iter_mut() {
                    rotate_keys(v, depth - 1, by);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn key_order_is_free_at_every_level() {
        let graph = kitchen_sink();
        let canonical = graph.to_json();
        let tree = tree_oracle::to_json_value(&graph);
        let import = |label: &str, doc: &JsonValue| {
            let back = readers_agree(label, &doc.to_json()).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(back.to_json(), canonical, "{label}: key order changed the graph");
        };
        // Every order of the four top-level keys.
        let JsonValue::Object(pairs) = &tree else { panic!("a document is an object") };
        for a in 0..4 {
            for b in (0..4).filter(|&b| b != a) {
                for c in (0..4).filter(|&c| c != a && c != b) {
                    let d = 6 - a - b - c;
                    let order = [a, b, c, d].map(|k| pairs[k].clone());
                    import(&format!("top-level order {a}{b}{c}{d}"), &JsonValue::Object(order.to_vec()));
                }
            }
        }
        // Every rotation of the node and attrs keys, and their reversals.
        for depth in [2, 3] {
            for by in 0..5 {
                let mut doc = tree.clone();
                rotate_keys(&mut doc, depth, by);
                import(&format!("keys {depth} levels down rotated by {by}"), &doc);
            }
        }
    }

    #[test]
    fn duplicate_keys_are_parse_errors_at_every_level() {
        let tree = tree_oracle::to_json_value(&kitchen_sink());
        for depth in [0, 2, 3] {
            let mut doc = tree.clone();
            duplicate_first_key(&mut doc, depth);
            let text = doc.to_json();
            let label = format!("duplicate key {depth} levels down");
            assert!(matches!(readers_agree(&label, &text), Err(GraphError::Parse(_))), "{label}");
        }
    }

    /// Repeats the first key of the first object `depth` levels down that has one.
    fn duplicate_first_key(value: &mut JsonValue, depth: usize) -> bool {
        match value {
            JsonValue::Object(pairs) if depth == 0 && !pairs.is_empty() => {
                pairs.push(pairs[0].clone());
                true
            }
            JsonValue::Object(pairs) if depth > 0 => {
                pairs.iter_mut().any(|(_, v)| duplicate_first_key(v, depth - 1))
            }
            JsonValue::Array(items) if depth > 0 => {
                items.iter_mut().any(|v| duplicate_first_key(v, depth - 1))
            }
            _ => false,
        }
    }

    #[test]
    fn names_with_escapes_round_trip() {
        let graph = kitchen_sink();
        let back = Graph::from_json(&graph.to_json()).unwrap();
        let names = |g: &Graph| g.iter().filter_map(|(_, n)| n.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&back), vec!["conv \"stem\" \\ 1".to_string(), "pool\n\té😀\u{1}".to_string()]);
        assert_eq!(names(&back), names(&graph));

        // Escapes a JSON encoder may write where the writer writes raw
        // characters: `\/`, `é` and the surrogate pair Python's
        // `json.dumps` writes for a non-BMP character.
        let doc = |name: &str| {
            format!(
                "{{\"format\": \"xrlflow-graph\", \"version\": 1, \"nodes\": [\
                 {{\"op\": \"Input\", \"name\": \"{name}\", \"outputs\": [[1, 8]]}}], \"outputs\": [[0, 0]]}}"
            )
        };
        let imported = readers_agree("escaped name", &doc(r"a\/\u00e9\ud83d\ude00\n")).unwrap();
        assert_eq!(names(&imported), vec!["a/é😀\n".to_string()]);
        for bad in [r"\ud83d", r"\ude00", r"\ude00\ud83d", r"\ud83dx", r"\ud83d\u0041", r"\u+041", r"\u004"] {
            match readers_agree(bad, &doc(bad)) {
                Err(GraphError::Parse(_)) => {}
                other => panic!("{bad}: expected a parse error, got {}", verdict(&other)),
            }
        }
    }
}
