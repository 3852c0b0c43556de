//! DC-AI-C1 (and MLPerf) Image Classification: mini-ResNet on synthetic
//! class-prototype images. Quality metric: held-out top-1 accuracy.

use aibench_autograd::Graph;
use aibench_data::batch::batches;
use aibench_data::metrics::accuracy;
use aibench_data::synth::ImageClassDataset;
use aibench_nn::{Mode, Module, Optimizer, Sgd};
use aibench_tensor::Rng;

use super::classify::MiniResNet;
use crate::{DataParallel, Trainer};

/// The Image Classification benchmark trainer.
#[derive(Debug)]
pub struct ImageClassification {
    net: MiniResNet,
    ds: ImageClassDataset,
    opt: Sgd,
    rng: Rng,
    batch: usize,
    eval_n: usize,
}

impl ImageClassification {
    /// Builds the benchmark with the given training seed.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed);
        // Dataset seed is fixed: run-to-run variation measures training
        // stochasticity (init, shuffling), not task changes.
        let ds = ImageClassDataset::with_noise(8, 1, 12, 256, 0xC1, 0.35);
        let net = MiniResNet::new(1, 8, ds.classes(), &mut rng);
        let opt = Sgd::with_momentum(net.params(), 0.08, 0.9, 1e-4);
        ImageClassification {
            net,
            ds,
            opt,
            rng,
            batch: 32,
            eval_n: 192,
        }
    }
}

impl Trainer for ImageClassification {
    fn scale_lr(&mut self, factor: f32) {
        self.opt.scale_lr(factor);
    }

    fn save_state(&self, state: &mut aibench_ckpt::State) {
        use aibench_ckpt::Snapshot as _;
        self.net.snapshot(state, "net");
        self.opt.snapshot(state, "opt");
        self.rng.snapshot(state, "rng");
    }

    fn load_state(&mut self, state: &aibench_ckpt::State) -> Result<(), aibench_ckpt::CkptError> {
        use aibench_ckpt::Restore as _;
        self.net.restore(state, "net")?;
        self.opt.restore(state, "opt")?;
        self.rng.restore(state, "rng")
    }

    fn params(&self) -> Vec<aibench_autograd::Param> {
        self.opt.params().to_vec()
    }

    fn train_epoch(&mut self) -> f32 {
        let mut total = 0.0;
        let mut count = 0;
        for idx in batches(self.ds.len(), self.batch, &mut self.rng) {
            total += self.forward_backward(&idx);
            count += 1;
            self.apply_update();
        }
        total / count.max(1) as f32
    }

    fn evaluate(&mut self) -> f64 {
        let (pred, labels) = self
            .net
            .predict(self.eval_n, self.batch, |idx| self.ds.test_batch(idx));
        accuracy(&pred, &labels)
    }

    fn param_count(&self) -> usize {
        Module::param_count(&self.net)
    }
}

impl DataParallel for ImageClassification {
    fn train_len(&self) -> usize {
        self.ds.len()
    }

    fn global_batch(&self) -> usize {
        self.batch
    }

    fn data_rng(&self) -> Rng {
        self.rng.clone()
    }

    fn forward_backward(&mut self, idx: &[usize]) -> f32 {
        let (x, y) = self.ds.train_batch(idx);
        let mut g = Graph::new();
        let xv = g.input(x);
        let logits = self.net.forward(&mut g, xv, Mode::Train);
        let loss = g.softmax_cross_entropy(logits, &y, None);
        let out = g.value(loss).item();
        g.backward(loss);
        out
    }

    fn apply_update(&mut self) {
        self.opt.step();
        self.opt.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_above_chance_quickly() {
        let mut t = ImageClassification::new(1);
        let before = t.evaluate();
        for _ in 0..6 {
            t.train_epoch();
        }
        let after = t.evaluate();
        assert!(
            after > before.max(0.3),
            "accuracy before {before}, after {after}"
        );
    }

    #[test]
    fn loss_decreases() {
        let mut t = ImageClassification::new(2);
        let first = t.train_epoch();
        let mut last = first;
        for _ in 0..3 {
            last = t.train_epoch();
        }
        assert!(last < first, "loss {first} -> {last}");
    }
}
