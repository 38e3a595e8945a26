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
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
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
        let n = self.as_f64()?;
        if n.fract() != 0.0 || !(0.0..=9.007_199_254_740_992e15).contains(&n) {
            return None;
        }
        Some(n as usize)
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
                    out.push_str(&n.to_string());
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::String(s) => write_json_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
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

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
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
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
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
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected byte {:?} at {}", b as char, self.pos)),
            None => Err("unexpected end of document".to_string()),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, JsonValue)> = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
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
        if self.peek() == Some(b']') {
            self.pos += 1;
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

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex =
                                self.bytes.get(self.pos + 1..self.pos + 5).ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "non-ASCII \\u escape")?,
                                16,
                            )
                            .map_err(|_| "invalid \\u escape")?;
                            out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|&b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(JsonValue::Number)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

fn parse_err(message: impl Into<String>) -> GraphError {
    GraphError::Parse(message.into())
}

impl Graph {
    /// Serialises the graph as a version-1 interchange document (see the
    /// [module docs](crate::json)). Node ids are compacted to dense indices
    /// preserving storage order, so the round trip preserves
    /// [`Graph::canonical_hash`].
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// The interchange document as a [`JsonValue`] tree — used directly by
    /// the serving layer to embed graphs inside larger documents without
    /// string re-escaping.
    pub fn to_json_value(&self) -> JsonValue {
        // Document position by node id: the live nodes, renumbered densely.
        let mut index = vec![usize::MAX; self.id_bound()];
        let mut nodes = Vec::new();
        for (id, _) in self.iter() {
            index[id.index()] = nodes.len();
            nodes.push(id);
        }
        let ref_value = |r: &TensorRef| {
            let position = index[r.node.index()];
            assert_ne!(position, usize::MAX, "{:?} is read but not live", r.node);
            JsonValue::Array(vec![JsonValue::Number(position as f64), JsonValue::Number(r.port as f64)])
        };
        let node_values: Vec<JsonValue> = nodes
            .iter()
            .map(|&id| {
                let node = self.node(id).expect("iterated node is live");
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
            ("outputs".to_string(), JsonValue::Array(self.outputs().iter().map(ref_value).collect())),
        ])
    }

    /// Imports a graph from an interchange document, validating everything:
    /// JSON syntax and schema, operator names, attribute values, reference
    /// resolution, acyclicity, and agreement of every stored output shape
    /// with shape inference.
    ///
    /// # Errors
    ///
    /// Never panics on malformed input. Returns [`GraphError::Parse`] for
    /// syntax/schema violations, [`GraphError::UnknownOp`] for unknown
    /// operator names, and the usual structural variants
    /// ([`GraphError::InvalidNode`], [`GraphError::Cycle`],
    /// [`GraphError::Shape`], [`GraphError::Arity`], …) for semantic errors
    /// found during validation.
    pub fn from_json(text: &str) -> Result<Graph, GraphError> {
        let value = JsonValue::parse(text).map_err(parse_err)?;
        Graph::from_json_value(&value)
    }

    /// Imports a graph from an already-parsed [`JsonValue`] tree (see
    /// [`Graph::from_json`]).
    ///
    /// # Errors
    ///
    /// Same as [`Graph::from_json`].
    pub fn from_json_value(value: &JsonValue) -> Result<Graph, GraphError> {
        let pairs = value.as_object().ok_or_else(|| parse_err("top level must be an object"))?;
        for (key, _) in pairs {
            if !matches!(key.as_str(), "format" | "version" | "nodes" | "outputs") {
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
        if version as u64 != GRAPH_JSON_VERSION {
            return Err(parse_err(format!(
                "unsupported version {version} (this build reads version {GRAPH_JSON_VERSION})"
            )));
        }
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
        // Full semantic validation: every reference resolves (dangling edges
        // -> InvalidNode/InvalidPort), the graph is acyclic, and every
        // non-source node's stored output shapes agree with shape inference
        // re-run on its actual inputs (arity and attribute errors surface
        // here as the inference errors they are).
        graph.validate()?;
        Ok(graph)
    }
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
    let shape = TensorShape::new(dims);
    if shape.checked_numel().is_none() {
        return Err(parse_err(format!("shape {shape} overflows the element count")));
    }
    Ok(shape)
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
        if !matches!(key.as_str(), "op" | "name" | "inputs" | "attrs" | "outputs") {
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
        let items =
            iv.as_array().ok_or_else(|| parse_err(format!("node {index}: \"inputs\" must be an array")))?;
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
    if op.is_source() {
        if !inputs.is_empty() {
            return Err(parse_err(format!("node {index}: source operator {op} takes no inputs")));
        }
        if attrs != OpAttributes::default() {
            return Err(parse_err(format!("node {index}: source operator {op} takes no attributes")));
        }
        if outputs.len() != 1 {
            return Err(parse_err(format!(
                "node {index}: source operator {op} must have exactly one output shape"
            )));
        }
    }
    Ok(Node { op, attrs, inputs, outputs, name })
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
    }
}
