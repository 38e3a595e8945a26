//! Substitutions as data: one table entry per rewrite rule, read by one
//! generic matcher and one generic patch builder.
//!
//! TASO states every substitution as a source graph, a target graph and the
//! map between their boundary tensors. A [`Substitution`] is that triple: a
//! source [`Pattern`] (operator kinds, "carries no fused activation yet",
//! "read by one consumer only"), a [`Target`] template whose nodes are added
//! through [`PatchBuilder`] (so every shape check stays), and the list saying
//! which bound tensor each new tensor replaces. What a template cannot state
//! — an inverse-permutation test, a padded kernel shape — is a small named
//! function the entry calls ([`Substitution::guard`], [`Attrs::Fn`],
//! [`Target::Build`]), not code of its own.
//!
//! The matcher binds nodes in anchor-id order and answers "single consumer"
//! from the graph's memoised distinct-consumer lists
//! ([`Graph::consumers_of`]); no site scans the graph.

use xrlflow_graph::{
    FusedActivation, Graph, GraphError, GraphPatch, Node, NodeId, OpAttributes, OpKind, PatchBuilder,
    PatchRef, TensorRef,
};

use crate::rule::RuleMatch;

/// What one node of a source pattern must be.
#[derive(Debug, Clone, Copy)]
pub struct NodeTest {
    /// The operator kinds that match.
    pub ops: &'static [OpKind],
    /// The node must not carry a fused activation yet.
    pub unfused: bool,
}

impl NodeTest {
    fn accepts(&self, node: &Node) -> bool {
        self.ops.contains(&node.op) && !(self.unfused && node.attrs.fused_activation.is_some())
    }
}

/// Which input slots of a chain's consumer may hold its producer.
#[derive(Debug, Clone, Copy)]
pub enum Slot {
    /// Every slot, in order; each one that matches is a site.
    Any,
    /// Only this slot.
    At(usize),
}

/// The shape of a source pattern and the nodes it binds, in binding order.
#[derive(Debug, Clone, Copy)]
pub enum Pattern {
    /// One node; binds `[node]`, in id order.
    Node(NodeTest),
    /// `consumer(.., producer, ..)`; binds `[producer, consumer]`, consumers
    /// in id order and then slots in order. With `sole`, the consumer is the
    /// producer's only (distinct) consumer and the producer no graph output.
    Chain {
        /// What the producer must be.
        producer: NodeTest,
        /// What the consumer must be.
        consumer: NodeTest,
        /// Where the consumer reads the producer.
        slot: Slot,
        /// The producer has no other reader.
        sole: bool,
    },
    /// Two nodes of kind `op` reading one tensor through input `slot`; binds
    /// `[left, right]`, pairs ascending.
    Siblings {
        /// The operator kind of both nodes.
        op: OpKind,
        /// The input slot both read the shared tensor through.
        slot: usize,
    },
    /// A node of kind `op` with a sibling, as in `Siblings`; binds
    /// `[node, sibling]`, one site per node (with its first sibling the
    /// guard accepts), in id order.
    WithSibling {
        /// The operator kind of both nodes.
        op: OpKind,
        /// The input slot both read the shared tensor through.
        slot: usize,
    },
}

impl Pattern {
    /// `true` for the patterns matched node by node (`Node`, `Chain`): every
    /// site is found from its anchor, the node a `Node` binds or a chain's
    /// consumer, and reads nothing but its bound nodes, their inputs and the
    /// producer's distinct-consumer count. Sibling patterns pair nodes
    /// across the graph and their entries' guards read beyond the pattern
    /// (dataflow dependence, foldability).
    pub fn is_local(&self) -> bool {
        self.pairing().is_none()
    }

    /// The operator kind and input slot a sibling pattern pairs nodes by;
    /// `None` for a local pattern.
    pub(crate) fn pairing(&self) -> Option<(OpKind, usize)> {
        match *self {
            Pattern::Siblings { op, slot } | Pattern::WithSibling { op, slot } => Some((op, slot)),
            Pattern::Node(_) | Pattern::Chain { .. } => None,
        }
    }
}

/// A tensor named relative to a site: a bound node's, or a new node's.
#[derive(Debug, Clone, Copy)]
pub enum Tensor {
    /// Output 0 of the `i`-th bound node.
    Bound(usize),
    /// Input `j` of the `i`-th bound node.
    Input(usize, usize),
    /// Every input of the `i`-th bound node, in order (an input list only).
    Inputs(usize),
    /// Output `port` of the `k`-th node the template adds.
    New(usize, usize),
}

/// A split or concatenation axis.
#[derive(Debug, Clone, Copy)]
pub enum Axis {
    /// A fixed axis.
    At(usize),
    /// `rank - k` of a tensor.
    FromEnd(Tensor, usize),
}

/// The attributes of a node the template adds.
#[derive(Debug, Clone, Copy)]
pub enum Attrs {
    /// `OpAttributes::default()`.
    Default,
    /// The `i`-th bound node's attributes.
    Of(usize),
    /// The `i`-th bound node's attributes with a fused activation.
    Fused(usize, FusedActivation),
    /// A concatenation along the axis.
    Concat(Axis),
    /// A split into two along the axis.
    SplitTwo(Axis),
    /// What a template cannot state, computed from the bound nodes.
    Fn(fn(&PatchBuilder<'_>, &[NodeId]) -> Result<OpAttributes, GraphError>),
}

/// One node a template adds.
#[derive(Debug, Clone, Copy)]
pub enum Emit {
    /// An operator over the given tensors.
    Node {
        /// The operator kind.
        op: OpKind,
        /// Its attributes.
        attrs: Attrs,
        /// Its inputs.
        inputs: &'static [Tensor],
    },
    /// A constant shaped like the tensor.
    ConstantLike(Tensor),
}

impl Emit {
    /// `Emit::Node`, spelled compactly for tables.
    pub const fn node(op: OpKind, attrs: Attrs, inputs: &'static [Tensor]) -> Self {
        Emit::Node { op, attrs, inputs }
    }
}

/// What a substitution puts in place of its source.
#[derive(Debug, Clone, Copy)]
pub enum Target {
    /// Add `emit` in order, then make every reader of bound node `i`'s
    /// output read the paired tensor instead, in `replace` order.
    Template {
        /// The nodes to add.
        emit: &'static [Emit],
        /// `(bound node, replacement)` pairs.
        replace: &'static [(usize, Tensor)],
    },
    /// A target no template states (one that depends on the site's shapes).
    Build(fn(&mut PatchBuilder<'_>, &[NodeId]) -> Result<(), GraphError>),
}

/// One rewrite rule as data.
#[derive(Debug, Clone, Copy)]
pub struct Substitution {
    /// Short, stable, human-readable rule name.
    pub name: &'static str,
    /// Source alternatives; the entry's sites are each alternative's in turn.
    pub source: &'static [Pattern],
    /// A condition over the bound nodes that the pattern cannot state. On a
    /// local pattern ([`Pattern::is_local`]) it may read the bound nodes,
    /// their inputs and what produces those inputs, and nothing further:
    /// that is what lets a rewrite step carry the site to the next graph
    /// when the step's patch touched none of it (`crate::SiteLists`).
    pub guard: Option<fn(&Graph, &[NodeId]) -> bool>,
    /// What replaces the source.
    pub target: Target,
}

impl Substitution {
    /// Short, stable, human-readable rule name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `true` when every source alternative is a tree rooted at the node
    /// whose output the target replaces — the entries an e-graph can match.
    pub fn is_tree(&self) -> bool {
        self.source.iter().all(|p| matches!(p, Pattern::Node(_) | Pattern::Chain { .. }))
    }

    /// Finds every application site of this substitution in the graph, in
    /// match order — the walk [`crate::SiteLists`] makes for every rule.
    pub fn find_matches(&self, graph: &Graph) -> Vec<RuleMatch> {
        crate::sites::sites_of(self, graph)
    }

    /// The sites of the local `pattern` anchored at node `id` — the node a
    /// `Node` pattern binds, a chain's consumer — in match order, each with
    /// its position among the anchor's sites (the consumer's input slot).
    /// `sole(p)` answers "`p` is read by one distinct node and is no graph
    /// output".
    pub(crate) fn sites_at(
        &self,
        graph: &Graph,
        pattern: &Pattern,
        id: NodeId,
        node: &Node,
        sole: &mut impl FnMut(NodeId) -> bool,
        emit: &mut impl FnMut(u32, RuleMatch),
    ) {
        let guard = |nodes: &[NodeId]| self.guard.is_none_or(|guard| guard(graph, nodes));
        match *pattern {
            Pattern::Node(test) => {
                if test.accepts(node) && guard(&[id]) {
                    emit(0, RuleMatch::new(vec![id]));
                }
            }
            Pattern::Chain { producer, consumer, slot, sole: needs_sole } => {
                if !consumer.accepts(node) {
                    return;
                }
                let (first, slots) = match slot {
                    Slot::Any => (0, &node.inputs[..]),
                    Slot::At(k) => (k, node.inputs.get(k..=k).unwrap_or_default()),
                };
                for (at, input) in slots.iter().enumerate() {
                    let Ok(p) = graph.node(input.node) else { continue };
                    if producer.accepts(p) && (!needs_sole || sole(input.node)) && guard(&[input.node, id]) {
                        emit((first + at) as u32, RuleMatch::new(vec![input.node, id]));
                    }
                }
            }
            Pattern::Siblings { .. } | Pattern::WithSibling { .. } => {
                unreachable!("sibling patterns are matched over the whole graph")
            }
        }
    }

    /// The sites of a sibling pattern among its sibling pairs (as
    /// [`crate::find_siblings_sharing_input`] lists them), in match order: pairs
    /// ascending for `Siblings`, nodes ascending for `WithSibling`.
    pub(crate) fn sibling_sites(
        &self,
        graph: &Graph,
        pattern: &Pattern,
        pairs: Vec<(TensorRef, NodeId, NodeId)>,
    ) -> Vec<RuleMatch> {
        let guard = |nodes: &[NodeId]| self.guard.is_none_or(|guard| guard(graph, nodes));
        match *pattern {
            Pattern::Siblings { .. } => pairs
                .into_iter()
                .filter(|&(_, a, b)| guard(&[a, b]))
                .map(|(_, a, b)| RuleMatch::new(vec![a, b]))
                .collect(),
            Pattern::WithSibling { .. } => {
                let mut sites: Vec<[NodeId; 2]> = pairs
                    .into_iter()
                    .flat_map(|(_, a, b)| [[a, b], [b, a]])
                    .filter(|site| guard(site))
                    .collect();
                // Stable: a node keeps its first accepted sibling.
                sites.sort_by_key(|site| site[0]);
                sites.dedup_by_key(|site| site[0]);
                sites.into_iter().map(|site| RuleMatch::new(site.to_vec())).collect()
            }
            Pattern::Node(_) | Pattern::Chain { .. } => unreachable!("local patterns are matched per anchor"),
        }
    }

    /// Builds the patch describing this substitution's rewrite at a site.
    ///
    /// # Errors
    ///
    /// Returns an error if the match is stale or the transformation would
    /// produce a shape-inconsistent graph; callers treat this as "no
    /// candidate".
    pub fn build_patch(&self, graph: &Graph, site: &RuleMatch) -> Result<GraphPatch, GraphError> {
        let nodes = &site.nodes[..];
        let mut b = PatchBuilder::new(graph);
        match self.target {
            Target::Build(build) => build(&mut b, nodes)?,
            Target::Template { emit, replace } => {
                for e in emit {
                    match *e {
                        Emit::Node { op, attrs, inputs } => {
                            let attrs = attrs.resolve(&b, nodes)?;
                            let mut refs = Vec::with_capacity(inputs.len());
                            for &t in inputs {
                                match t {
                                    Tensor::Inputs(i) => refs.extend(
                                        graph.node(nodes[i])?.inputs.iter().map(|&r| PatchRef::Base(r)),
                                    ),
                                    t => refs.push(t.resolve(graph, nodes)?),
                                }
                            }
                            b.add_node(op, attrs, refs)?;
                        }
                        Emit::ConstantLike(t) => {
                            let shape = b.shape(t.resolve(graph, nodes)?)?.clone();
                            b.add_constant(shape);
                        }
                    }
                }
                for &(bound, with) in replace {
                    b.replace_all_uses(TensorRef::new(nodes[bound]), with.resolve(graph, nodes)?)?;
                }
            }
        }
        Ok(b.finish())
    }
}

impl Tensor {
    fn resolve(self, graph: &Graph, nodes: &[NodeId]) -> Result<PatchRef, GraphError> {
        Ok(match self {
            Tensor::Bound(i) => TensorRef::new(nodes[i]).into(),
            Tensor::Input(i, j) => input(graph, nodes[i], j)?.into(),
            Tensor::New(node, port) => PatchRef::New { node, port },
            Tensor::Inputs(_) => unreachable!("an input list splices `Inputs`; it names no single tensor"),
        })
    }
}

impl Attrs {
    fn resolve(self, b: &PatchBuilder<'_>, nodes: &[NodeId]) -> Result<OpAttributes, GraphError> {
        let graph = b.base();
        let axis = |axis: Axis| -> Result<usize, GraphError> {
            match axis {
                Axis::At(a) => Ok(a),
                Axis::FromEnd(t, k) => {
                    let rank = b.shape(t.resolve(graph, nodes)?)?.rank();
                    rank.checked_sub(k).ok_or(GraphError::Shape {
                        op: OpKind::Split,
                        message: format!("no axis {k} from the end of a rank-{rank} tensor"),
                    })
                }
            }
        };
        Ok(match self {
            Attrs::Default => OpAttributes::default(),
            Attrs::Of(i) => graph.node(nodes[i])?.attrs.clone(),
            Attrs::Fused(i, act) => graph.node(nodes[i])?.attrs.clone().with_fused_activation(act),
            Attrs::Concat(a) => OpAttributes::with_axis(axis(a)?),
            Attrs::SplitTwo(a) => OpAttributes::split(axis(a)?, 2),
            Attrs::Fn(f) => f(b, nodes)?,
        })
    }
}

/// Input `slot` of node `id`.
///
/// # Errors
///
/// Returns an error when the node is missing or has fewer inputs.
pub fn input(graph: &Graph, id: NodeId, slot: usize) -> Result<TensorRef, GraphError> {
    let node = graph.node(id)?;
    node.inputs.get(slot).copied().ok_or(GraphError::Arity {
        op: node.op,
        expected_min: slot + 1,
        expected_max: usize::MAX,
        got: node.inputs.len(),
    })
}
