//! The tape: node storage, forward value access, and the backward engine.

use std::rc::Rc;

use aibench_tensor::Tensor;

use crate::param::Param;

/// A handle to a node on a [`Graph`] tape.
///
/// `Var`s are cheap copyable indices; they are only meaningful for the graph
/// that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// Gradient accumulator passed to backward closures.
pub(crate) struct GradMap {
    grads: Vec<Option<Tensor>>,
    /// The tape's `needs_grad` bit per node: which slots anything reads.
    wanted: Vec<bool>,
}

impl GradMap {
    /// One empty slot per node of `nodes`, seeded with `d loss / d loss`.
    fn seeded(nodes: &[Node], loss: Var) -> Self {
        let mut grads: Vec<Option<Tensor>> = nodes.iter().map(|_| None).collect();
        grads[loss.0] = Some(Tensor::ones(nodes[loss.0].value.shape()));
        GradMap {
            grads,
            wanted: nodes.iter().map(|n| n.needs_grad).collect(),
        }
    }

    /// Adds `grad()` into the gradient slot for `v` — if `v` wants one. A
    /// constant leaf, or an op over constants only, feeds nothing: the walk
    /// skips its slot, so its gradient is not computed in the first place
    /// (the input gradient of a network's first convolution or first
    /// matmul, typically).
    pub(crate) fn accumulate_with(&mut self, v: Var, grad: impl FnOnce() -> Tensor) {
        if !self.wanted[v.0] {
            return;
        }
        match &mut self.grads[v.0] {
            Some(acc) => acc.add_scaled_inplace(&grad(), 1.0),
            slot @ None => *slot = Some(grad()),
        }
    }
}

type BackwardFn = Box<dyn FnOnce(&Tensor, &mut GradMap)>;

pub(crate) struct Node {
    pub(crate) value: Rc<Tensor>,
    backward: Option<BackwardFn>,
    param: Option<Param>,
    pub(crate) needs_grad: bool,
}

/// A single-use reverse-mode differentiation tape.
///
/// Build the forward computation with the op methods, then call
/// [`Graph::backward`] on a scalar loss. Parameter gradients accumulate into
/// their [`Param`] storage; intermediate gradients are discarded.
///
/// # Example
///
/// ```
/// use aibench_autograd::{Graph, Param};
/// use aibench_tensor::Tensor;
///
/// let w = Param::new("w", Tensor::from_vec(vec![1.0, 2.0], &[2]));
/// let mut g = Graph::new();
/// let wv = g.param(&w);
/// let y = g.mul(wv, wv); // y = w^2
/// let loss = g.sum(y);
/// g.backward(loss);
/// assert_eq!(w.grad().data(), &[2.0, 4.0]); // d(w^2)/dw = 2w
/// ```
#[derive(Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph { nodes: Vec::new() }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a constant leaf (no gradient flows into it).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push_node(Rc::new(value), None, None, false)
    }

    /// Records a leaf bound to a [`Param`]; its gradient accumulates into
    /// the parameter during [`Graph::backward`].
    pub fn param(&mut self, p: &Param) -> Var {
        let value = Rc::new(p.value().clone());
        self.push_node(value, None, Some(p.clone()), true)
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Whether gradients flow into this node.
    pub fn needs_grad(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    pub(crate) fn push_node(
        &mut self,
        value: Rc<Tensor>,
        backward: Option<BackwardFn>,
        param: Option<Param>,
        needs_grad: bool,
    ) -> Var {
        self.nodes.push(Node {
            value,
            backward,
            param,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    /// Records an op node. `backward` is retained only if some parent needs
    /// a gradient.
    pub(crate) fn op(
        &mut self,
        value: Tensor,
        parents: &[Var],
        backward: impl FnOnce(&Tensor, &mut GradMap) + 'static,
    ) -> Var {
        let needs_grad = parents.iter().any(|p| self.nodes[p.0].needs_grad);
        let bw: Option<BackwardFn> = if needs_grad {
            Some(Box::new(backward))
        } else {
            None
        };
        self.push_node(Rc::new(value), bw, None, needs_grad)
    }

    /// Runs reverse-mode accumulation from `loss`, which must be a scalar
    /// (single-element) node. Parameter gradients are *added* to each
    /// `Param`'s accumulator; call `zero_grad` on parameters between steps.
    ///
    /// The tape is consumed: backward closures are taken, so `backward` can
    /// only be called once per graph.
    ///
    /// # Panics
    ///
    /// Panics if `loss` has more than one element.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.len(),
            1,
            "backward: loss must be scalar, got shape {:?}",
            self.nodes[loss.0].value.shape()
        );
        let mut gm = GradMap::seeded(&self.nodes, loss);
        for i in (0..=loss.0).rev() {
            if !self.nodes[i].needs_grad {
                continue;
            }
            let Some(grad) = gm.grads[i].take() else {
                continue;
            };
            if let Some(bw) = self.nodes[i].backward.take() {
                bw(&grad, &mut gm);
            }
            if let Some(p) = &self.nodes[i].param {
                p.accumulate_grad(&grad);
            }
        }
    }

    /// Like [`Graph::backward`] but returns the gradient that reached each
    /// of `watch` (zero tensors if none did — none is ever computed for a
    /// node that does not need one). Used by gradient checking.
    ///
    /// # Panics
    ///
    /// Panics if `loss` has more than one element.
    pub fn backward_watching(&mut self, loss: Var, watch: &[Var]) -> Vec<Tensor> {
        assert_eq!(
            self.nodes[loss.0].value.len(),
            1,
            "backward: loss must be scalar"
        );
        let mut gm = GradMap::seeded(&self.nodes, loss);
        for i in (0..=loss.0).rev() {
            if !self.nodes[i].needs_grad {
                continue;
            }
            let is_watched = watch.iter().any(|w| w.0 == i);
            let Some(grad) = (if is_watched {
                gm.grads[i].clone()
            } else {
                gm.grads[i].take()
            }) else {
                continue;
            };
            if let Some(bw) = self.nodes[i].backward.take() {
                bw(&grad, &mut gm);
            }
            if let Some(p) = &self.nodes[i].param {
                p.accumulate_grad(&grad);
            }
        }
        watch
            .iter()
            .map(|w| {
                gm.grads[w.0]
                    .clone()
                    .unwrap_or_else(|| Tensor::zeros(self.nodes[w.0].value.shape()))
            })
            .collect()
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Graph({} nodes)", self.nodes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_leaf_gets_no_grad() {
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[2]));
        let y = g.mul(x, x);
        assert!(!g.needs_grad(y));
    }

    #[test]
    fn param_leaf_propagates_needs_grad() {
        let p = Param::new("p", Tensor::ones(&[2]));
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[2]));
        let pv = g.param(&p);
        let y = g.mul(x, pv);
        assert!(g.needs_grad(y));
    }

    #[test]
    fn grad_accumulates_across_uses() {
        // loss = sum(w + w) => dloss/dw = 2 per element.
        let p = Param::new("w", Tensor::ones(&[3]));
        let mut g = Graph::new();
        let w = g.param(&p);
        let s = g.add(w, w);
        let loss = g.sum(s);
        g.backward(loss);
        assert_eq!(p.grad().data(), &[2.0, 2.0, 2.0]);
    }

    /// A backward closure's contribution to a node nothing reads is never
    /// evaluated; the one to a parameter is, once.
    #[test]
    fn gradients_nobody_reads_are_not_computed() {
        use std::cell::Cell;
        let (for_input, for_param) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
        let p = Param::new("w", Tensor::ones(&[3]));
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[3]));
        let w = g.param(&p);
        let (seen_x, seen_w) = (Rc::clone(&for_input), Rc::clone(&for_param));
        let y = g.op(Tensor::ones(&[3]), &[x, w], move |grad, gm| {
            gm.accumulate_with(x, || {
                seen_x.set(seen_x.get() + 1);
                grad.clone()
            });
            gm.accumulate_with(w, || {
                seen_w.set(seen_w.get() + 1);
                grad.clone()
            });
        });
        let loss = g.sum(y);
        g.backward(loss);
        assert_eq!((for_input.get(), for_param.get()), (0, 1));
        assert_eq!(p.grad().data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn non_scalar_loss_panics() {
        let p = Param::new("w", Tensor::ones(&[3]));
        let mut g = Graph::new();
        let w = g.param(&p);
        g.backward(w);
    }
}
