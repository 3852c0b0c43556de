//! A miniature ResNet shared by the image-classification-style benchmarks.

use aibench_autograd::{Graph, Param, Var};
use aibench_nn::{BatchNorm2d, Conv2d, Linear, Mode, Module};
use aibench_tensor::{Rng, Tensor};

/// A small residual CNN in the structure of ResNet-50: stem convolution,
/// residual blocks with batch norm, global average pooling, and a linear
/// classifier head.
#[derive(Debug)]
pub struct MiniResNet {
    stem: Conv2d,
    stem_bn: BatchNorm2d,
    block1_a: Conv2d,
    block1_bn_a: BatchNorm2d,
    block1_b: Conv2d,
    block1_bn_b: BatchNorm2d,
    down: Conv2d,
    down_bn: BatchNorm2d,
    block2_a: Conv2d,
    block2_bn_a: BatchNorm2d,
    block2_b: Conv2d,
    block2_bn_b: BatchNorm2d,
    head: Linear,
}

impl MiniResNet {
    /// Builds the network for `c_in`-channel inputs, `width` base channels,
    /// and `classes` outputs.
    pub fn new(c_in: usize, width: usize, classes: usize, rng: &mut Rng) -> Self {
        MiniResNet {
            stem: Conv2d::new_no_bias(c_in, width, 3, 1, 1, rng),
            stem_bn: BatchNorm2d::new(width),
            block1_a: Conv2d::new_no_bias(width, width, 3, 1, 1, rng),
            block1_bn_a: BatchNorm2d::new(width),
            block1_b: Conv2d::new_no_bias(width, width, 3, 1, 1, rng),
            block1_bn_b: BatchNorm2d::new(width),
            down: Conv2d::new_no_bias(width, 2 * width, 3, 2, 1, rng),
            down_bn: BatchNorm2d::new(2 * width),
            block2_a: Conv2d::new_no_bias(2 * width, 2 * width, 3, 1, 1, rng),
            block2_bn_a: BatchNorm2d::new(2 * width),
            block2_b: Conv2d::new_no_bias(2 * width, 2 * width, 3, 1, 1, rng),
            block2_bn_b: BatchNorm2d::new(2 * width),
            head: Linear::new(2 * width, classes, rng),
        }
    }

    /// Embeds an NCHW batch into pooled features `[n, 2*width]`.
    pub fn features(&self, g: &mut Graph, x: Var, mode: Mode) -> Var {
        let x = self.stem.forward(g, x);
        let x = self.stem_bn.forward(g, x, mode);
        let x = g.relu(x);
        // Residual block at full resolution.
        let r = self.block1_a.forward(g, x);
        let r = self.block1_bn_a.forward(g, r, mode);
        let r = g.relu(r);
        let r = self.block1_b.forward(g, r);
        let r = self.block1_bn_b.forward(g, r, mode);
        let x = g.add(x, r);
        let x = g.relu(x);
        // Downsample.
        let x = self.down.forward(g, x);
        let x = self.down_bn.forward(g, x, mode);
        let x = g.relu(x);
        // Residual block at half resolution.
        let r = self.block2_a.forward(g, x);
        let r = self.block2_bn_a.forward(g, r, mode);
        let r = g.relu(r);
        let r = self.block2_b.forward(g, r);
        let r = self.block2_bn_b.forward(g, r, mode);
        let x = g.add(x, r);
        let x = g.relu(x);
        g.global_avg_pool(x)
    }

    /// Classification logits `[n, classes]`.
    pub fn forward(&self, g: &mut Graph, x: Var, mode: Mode) -> Var {
        let f = self.features(g, x, mode);
        self.head.forward(g, f)
    }

    /// Eval-mode top-1 predictions and labels for test samples `0..n`,
    /// `batch` samples per tape. Eval-mode batch norm reads running
    /// statistics, so every row of a batch is independent of the others and
    /// the predictions are the ones a single `n`-sample tape would make —
    /// while only one batch of activations is ever alive.
    pub fn predict(
        &self,
        n: usize,
        batch: usize,
        test_batch: impl Fn(&[usize]) -> (Tensor, Vec<usize>),
    ) -> (Vec<usize>, Vec<usize>) {
        let (mut pred, mut labels) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let idx: Vec<usize> = (0..n).collect();
        for chunk in idx.chunks(batch) {
            let (x, y) = test_batch(chunk);
            let mut g = Graph::new();
            let xv = g.input(x);
            let logits = self.forward(&mut g, xv, Mode::Eval);
            pred.extend(g.value(logits).argmax_last());
            labels.extend(y);
        }
        (pred, labels)
    }

    /// Parameters of the feature extractor only (no classifier head), for
    /// trainers that embed with [`MiniResNet::features`] and would
    /// otherwise register weights their loss can never reach.
    pub fn feature_params(&self) -> Vec<Param> {
        let mut ps = Vec::new();
        for m in [
            &self.stem,
            &self.block1_a,
            &self.block1_b,
            &self.down,
            &self.block2_a,
            &self.block2_b,
        ] {
            ps.extend(m.params());
        }
        for bn in [
            &self.stem_bn,
            &self.block1_bn_a,
            &self.block1_bn_b,
            &self.down_bn,
            &self.block2_bn_a,
            &self.block2_bn_b,
        ] {
            ps.extend(bn.params());
        }
        ps
    }

    /// Parameter count of the feature extractor only.
    pub fn feature_param_count(&self) -> usize {
        self.feature_params().iter().map(|p| p.len()).sum()
    }
}

impl Module for MiniResNet {
    fn params(&self) -> Vec<Param> {
        let mut ps = self.feature_params();
        ps.extend(self.head.params());
        ps
    }
}

impl MiniResNet {
    const NORM_NAMES: [&'static str; 6] = [
        "stem_bn",
        "block1_bn_a",
        "block1_bn_b",
        "down_bn",
        "block2_bn_a",
        "block2_bn_b",
    ];

    fn norm_layers(&self) -> [&BatchNorm2d; 6] {
        [
            &self.stem_bn,
            &self.block1_bn_a,
            &self.block1_bn_b,
            &self.down_bn,
            &self.block2_bn_a,
            &self.block2_bn_b,
        ]
    }

    fn norm_layers_mut(&mut self) -> [&mut BatchNorm2d; 6] {
        [
            &mut self.stem_bn,
            &mut self.block1_bn_a,
            &mut self.block1_bn_b,
            &mut self.down_bn,
            &mut self.block2_bn_a,
            &mut self.block2_bn_b,
        ]
    }
}

impl aibench_ckpt::Snapshot for MiniResNet {
    /// Saves the six batch-norm running statistics — the only mutable state
    /// the network holds outside its trainable parameters (which travel
    /// with the optimizer's snapshot).
    fn snapshot(&self, state: &mut aibench_ckpt::State, prefix: &str) {
        use aibench_ckpt::key;
        for (name, bn) in Self::NORM_NAMES.iter().zip(self.norm_layers()) {
            bn.snapshot(state, &key(prefix, name));
        }
    }
}

impl aibench_ckpt::Restore for MiniResNet {
    fn restore(
        &mut self,
        state: &aibench_ckpt::State,
        prefix: &str,
    ) -> Result<(), aibench_ckpt::CkptError> {
        use aibench_ckpt::key;
        for (name, bn) in Self::NORM_NAMES.iter().zip(self.norm_layers_mut()) {
            bn.restore(state, &key(prefix, name))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aibench_tensor::Tensor;

    #[test]
    fn forward_shapes() {
        let mut rng = Rng::seed_from(1);
        let net = MiniResNet::new(1, 8, 5, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(&[2, 1, 12, 12], &mut rng));
        let y = net.forward(&mut g, x, Mode::Train);
        assert_eq!(g.value(y).shape(), &[2, 5]);
    }

    #[test]
    fn all_params_receive_gradient() {
        let mut rng = Rng::seed_from(2);
        let net = MiniResNet::new(1, 4, 3, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(&[2, 1, 8, 8], &mut rng));
        let y = net.forward(&mut g, x, Mode::Train);
        let loss = g.softmax_cross_entropy(y, &[0, 2], None);
        g.backward(loss);
        for p in net.params() {
            assert!(
                p.grad().sq_norm() > 0.0,
                "param {} got no gradient",
                p.name()
            );
        }
    }
}
