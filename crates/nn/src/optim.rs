//! Optimizers: SGD (with momentum), Adam, and RMSProp.
//!
//! Update rules are elementwise, so each optimizer runs its state and
//! parameter sweeps multi-threaded over contiguous chunks (via
//! `aibench-parallel`) with results independent of the thread count.

use aibench_autograd::Param;
use aibench_parallel::parallel_slice_mut_weighted;
use aibench_tensor::Tensor;

/// A first-order optimizer over a fixed parameter list.
pub trait Optimizer {
    /// Applies one update using the currently accumulated gradients.
    fn step(&mut self);

    /// Zeroes all parameter gradients.
    fn zero_grad(&self);

    /// Sets the learning rate (used by schedules).
    fn set_lr(&mut self, lr: f32);

    /// The current learning rate.
    fn lr(&self) -> f32;

    /// Multiplies the learning rate by `factor` — the hook fault-recovery
    /// policies use to cool a diverging run down after rolling back to a
    /// valid snapshot (factor < 1) without knowing the optimizer's base
    /// rate.
    fn scale_lr(&mut self, factor: f32) {
        let lr = self.lr();
        self.set_lr(lr * factor);
    }

    /// The parameters this optimizer updates (used by the tape sanitizer
    /// to probe for dead or non-finite parameters).
    fn params(&self) -> &[Param];
}

/// Rescales gradients in place so their global L2 norm is at most
/// `max_norm`. Returns the pre-clipping norm.
pub fn clip_grad_norm(params: &[Param], max_norm: f32) -> f32 {
    let total: f32 = params
        .iter()
        .map(|p| p.grad().sq_norm())
        .sum::<f32>()
        .sqrt();
    if total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        for p in params {
            let mut g = p.grad_mut();
            g.map_inplace(|x| x * scale);
        }
    }
    total
}

/// Stochastic gradient descent with optional momentum and weight decay.
#[derive(Debug)]
pub struct Sgd {
    params: Vec<Param>,
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(params: Vec<Param>, lr: f32) -> Self {
        Sgd::with_momentum(params, lr, 0.0, 0.0)
    }

    /// SGD with momentum and L2 weight decay.
    pub fn with_momentum(params: Vec<Param>, lr: f32, momentum: f32, weight_decay: f32) -> Self {
        let velocity = params.iter().map(|p| Tensor::zeros(&p.shape())).collect();
        Sgd {
            params,
            lr,
            momentum,
            weight_decay,
            velocity,
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self) {
        let _scope = aibench_parallel::effects::kernel_scope("sgd_step");
        for (p, v) in self.params.iter().zip(&mut self.velocity) {
            let mut update = p.grad().clone();
            if self.weight_decay > 0.0 {
                update.add_scaled_inplace(&p.value(), self.weight_decay);
            }
            if self.momentum > 0.0 {
                v.map_inplace(|x| x * self.momentum);
                v.add_scaled_inplace(&update, 1.0);
                p.value_mut().add_scaled_inplace(v, -self.lr);
            } else {
                p.value_mut().add_scaled_inplace(&update, -self.lr);
            }
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn params(&self) -> &[Param] {
        &self.params
    }
}

/// The Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug)]
pub struct Adam {
    params: Vec<Param>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the standard `(0.9, 0.999)` betas.
    pub fn new(params: Vec<Param>, lr: f32) -> Self {
        Adam::with_betas(params, lr, 0.9, 0.999)
    }

    /// Adam with explicit betas (WGAN training uses `(0.5, 0.9)`).
    pub fn with_betas(params: Vec<Param>, lr: f32, beta1: f32, beta2: f32) -> Self {
        let m = params.iter().map(|p| Tensor::zeros(&p.shape())).collect();
        let v = params.iter().map(|p| Tensor::zeros(&p.shape())).collect();
        Adam {
            params,
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            t: 0,
            m,
            v,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let chunk = aibench_parallel::ELEMWISE_CHUNK;
        let _scope = aibench_parallel::effects::kernel_scope("adam_step");
        for ((p, m), v) in self.params.iter().zip(&mut self.m).zip(&mut self.v) {
            let g = p.grad().clone();
            let b1 = self.beta1;
            let b2 = self.beta2;
            // Each moment update is independent per element, so the chunked
            // parallel loops below are thread-count invariant.
            // Work estimate of one sweep over this many arrays of `g`'s size.
            let sweep = |arrays: usize| (g.len() * arrays) as u64;
            parallel_slice_mut_weighted(m.data_mut(), chunk, sweep(3), |range, mc| {
                aibench_parallel::effects::read(g.data(), range.clone());
                for (mi, &gi) in mc.iter_mut().zip(&g.data()[range]) {
                    *mi = b1 * *mi + (1.0 - b1) * gi;
                }
            });
            parallel_slice_mut_weighted(v.data_mut(), chunk, sweep(3), |range, vc| {
                aibench_parallel::effects::read(g.data(), range.clone());
                for (vi, &gi) in vc.iter_mut().zip(&g.data()[range]) {
                    *vi = b2 * *vi + (1.0 - b2) * gi * gi;
                }
            });
            let (lr, eps) = (self.lr, self.eps);
            let mut val = p.value_mut();
            parallel_slice_mut_weighted(val.data_mut(), chunk, sweep(4), |range, xc| {
                aibench_parallel::effects::read(m.data(), range.clone());
                aibench_parallel::effects::read(v.data(), range.clone());
                for ((xi, &mi), &vi) in xc
                    .iter_mut()
                    .zip(&m.data()[range.clone()])
                    .zip(&v.data()[range])
                {
                    let mhat = mi / bc1;
                    let vhat = vi / bc2;
                    *xi -= lr * mhat / (vhat.sqrt() + eps);
                }
            });
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn params(&self) -> &[Param] {
        &self.params
    }
}

/// RMSProp (Tieleman & Hinton), the optimizer WGAN training prescribes.
#[derive(Debug)]
pub struct RmsProp {
    params: Vec<Param>,
    lr: f32,
    alpha: f32,
    eps: f32,
    sq: Vec<Tensor>,
}

impl RmsProp {
    /// RMSProp with smoothing constant `alpha = 0.99`.
    pub fn new(params: Vec<Param>, lr: f32) -> Self {
        let sq = params.iter().map(|p| Tensor::zeros(&p.shape())).collect();
        RmsProp {
            params,
            lr,
            alpha: 0.99,
            eps: 1e-8,
            sq,
        }
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self) {
        let chunk = aibench_parallel::ELEMWISE_CHUNK;
        let _scope = aibench_parallel::effects::kernel_scope("rmsprop_step");
        for (p, s) in self.params.iter().zip(&mut self.sq) {
            let g = p.grad().clone();
            let a = self.alpha;
            let sweep = |arrays: usize| (g.len() * arrays) as u64;
            parallel_slice_mut_weighted(s.data_mut(), chunk, sweep(3), |range, sc| {
                aibench_parallel::effects::read(g.data(), range.clone());
                for (si, &gi) in sc.iter_mut().zip(&g.data()[range]) {
                    *si = a * *si + (1.0 - a) * gi * gi;
                }
            });
            let (lr, eps) = (self.lr, self.eps);
            let mut val = p.value_mut();
            parallel_slice_mut_weighted(val.data_mut(), chunk, sweep(4), |range, xc| {
                aibench_parallel::effects::read(s.data(), range.clone());
                aibench_parallel::effects::read(g.data(), range.clone());
                for ((xi, &si), &gi) in xc
                    .iter_mut()
                    .zip(&s.data()[range.clone()])
                    .zip(&g.data()[range])
                {
                    *xi -= lr * gi / (si.sqrt() + eps);
                }
            });
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn params(&self) -> &[Param] {
        &self.params
    }
}

// --- Checkpointing ------------------------------------------------------
//
// Each optimizer saves its parameters (value + grad, via `Param`'s own
// impl) under `{prefix}.p{i}`, its moment buffers alongside them, and the
// mutable scalars (`lr`, step counter). Hyperparameters fixed at
// construction (betas, momentum, eps) are architecture, not state — the
// resume path rebuilds the trainer from the benchmark spec and only
// restores what training mutates.

use aibench_ckpt::{key, CkptError, Restore, Snapshot, State};

fn snapshot_params(params: &[Param], state: &mut State, prefix: &str) {
    state.put_usize(key(prefix, "n"), params.len());
    for (i, p) in params.iter().enumerate() {
        p.snapshot(state, &key(prefix, &format!("p{i}")));
    }
}

fn restore_params(params: &mut [Param], state: &State, prefix: &str) -> Result<(), CkptError> {
    let n = state.usize(&key(prefix, "n"))?;
    if n != params.len() {
        return Err(CkptError::MetaMismatch {
            what: format!(
                "optimizer `{prefix}` holds {} parameter(s), snapshot has {n}",
                params.len()
            ),
        });
    }
    for (i, p) in params.iter_mut().enumerate() {
        p.restore(state, &key(prefix, &format!("p{i}")))?;
    }
    Ok(())
}

impl Snapshot for Sgd {
    fn snapshot(&self, state: &mut State, prefix: &str) {
        snapshot_params(&self.params, state, prefix);
        state.put_f32(key(prefix, "lr"), self.lr);
        for (i, v) in self.velocity.iter().enumerate() {
            v.snapshot(state, &key(prefix, &format!("vel{i}")));
        }
    }
}

impl Restore for Sgd {
    fn restore(&mut self, state: &State, prefix: &str) -> Result<(), CkptError> {
        restore_params(&mut self.params, state, prefix)?;
        self.lr = state.f32(&key(prefix, "lr"))?;
        for (i, v) in self.velocity.iter_mut().enumerate() {
            v.restore(state, &key(prefix, &format!("vel{i}")))?;
        }
        Ok(())
    }
}

impl Snapshot for Adam {
    fn snapshot(&self, state: &mut State, prefix: &str) {
        snapshot_params(&self.params, state, prefix);
        state.put_f32(key(prefix, "lr"), self.lr);
        state.put_u64(key(prefix, "t"), u64::from(self.t));
        for (i, m) in self.m.iter().enumerate() {
            m.snapshot(state, &key(prefix, &format!("m{i}")));
        }
        for (i, v) in self.v.iter().enumerate() {
            v.snapshot(state, &key(prefix, &format!("v{i}")));
        }
    }
}

impl Restore for Adam {
    fn restore(&mut self, state: &State, prefix: &str) -> Result<(), CkptError> {
        restore_params(&mut self.params, state, prefix)?;
        self.lr = state.f32(&key(prefix, "lr"))?;
        self.t = state.u64(&key(prefix, "t"))? as u32;
        for (i, m) in self.m.iter_mut().enumerate() {
            m.restore(state, &key(prefix, &format!("m{i}")))?;
        }
        for (i, v) in self.v.iter_mut().enumerate() {
            v.restore(state, &key(prefix, &format!("v{i}")))?;
        }
        Ok(())
    }
}

impl Snapshot for RmsProp {
    fn snapshot(&self, state: &mut State, prefix: &str) {
        snapshot_params(&self.params, state, prefix);
        state.put_f32(key(prefix, "lr"), self.lr);
        for (i, s) in self.sq.iter().enumerate() {
            s.snapshot(state, &key(prefix, &format!("sq{i}")));
        }
    }
}

impl Restore for RmsProp {
    fn restore(&mut self, state: &State, prefix: &str) -> Result<(), CkptError> {
        restore_params(&mut self.params, state, prefix)?;
        self.lr = state.f32(&key(prefix, "lr"))?;
        for (i, s) in self.sq.iter_mut().enumerate() {
            s.restore(state, &key(prefix, &format!("sq{i}")))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aibench_autograd::Graph;
    use aibench_tensor::Rng;

    /// Minimizes f(w) = ||w - target||^2 with the given optimizer factory.
    fn converges<O: Optimizer>(make: impl Fn(Vec<Param>) -> O, iters: usize) -> f32 {
        let mut rng = Rng::seed_from(20);
        let w = Param::new("w", Tensor::randn(&[4], &mut rng));
        let target = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[4]);
        let mut opt = make(vec![w.clone()]);
        let mut last = f32::INFINITY;
        for _ in 0..iters {
            let mut g = Graph::new();
            let wv = g.param(&w);
            let loss = g.mse_loss(wv, &target);
            last = g.value(loss).item();
            g.backward(loss);
            opt.step();
            opt.zero_grad();
        }
        last
    }

    #[test]
    fn sgd_converges() {
        assert!(converges(|p| Sgd::new(p, 0.1), 200) < 1e-6);
    }

    #[test]
    fn sgd_momentum_converges() {
        assert!(converges(|p| Sgd::with_momentum(p, 0.05, 0.9, 0.0), 200) < 1e-6);
    }

    #[test]
    fn adam_converges() {
        assert!(converges(|p| Adam::new(p, 0.1), 300) < 1e-4);
    }

    #[test]
    fn rmsprop_converges() {
        assert!(converges(|p| RmsProp::new(p, 0.05), 300) < 1e-4);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let w = Param::new("w", Tensor::ones(&[4]));
        let mut opt = Sgd::with_momentum(vec![w.clone()], 0.1, 0.0, 0.5);
        // No loss gradient at all: pure decay.
        for _ in 0..10 {
            opt.step();
            opt.zero_grad();
        }
        assert!(w.value().data()[0] < 0.7);
    }

    #[test]
    fn clip_grad_norm_caps_norm() {
        let w = Param::new("w", Tensor::zeros(&[3]));
        w.accumulate_grad(&Tensor::from_vec(vec![3.0, 4.0, 0.0], &[3]));
        let pre = clip_grad_norm(std::slice::from_ref(&w), 1.0);
        assert!((pre - 5.0).abs() < 1e-5);
        assert!((w.grad().sq_norm().sqrt() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_no_op_below_cap() {
        let w = Param::new("w", Tensor::zeros(&[2]));
        w.accumulate_grad(&Tensor::from_vec(vec![0.3, 0.4], &[2]));
        clip_grad_norm(std::slice::from_ref(&w), 1.0);
        assert_eq!(w.grad().data(), &[0.3, 0.4]);
    }

    #[test]
    fn scale_lr_compounds_multiplicatively() {
        let w = Param::new("w", Tensor::zeros(&[2]));
        let mut opt = Adam::new(vec![w], 0.01);
        opt.scale_lr(0.5);
        opt.scale_lr(0.5);
        assert_eq!(opt.lr(), 0.01 * 0.25);
    }
}
