//! Fused training losses.

use std::rc::Rc;

use aibench_tensor::ops::softmax_last;
use aibench_tensor::Tensor;

use crate::graph::{Graph, Var};

impl Graph {
    /// Mean softmax cross-entropy between logits `[n, classes]` (or
    /// `[..., classes]`) and integer labels, fused for numerical stability.
    ///
    /// Rows whose label equals `ignore_index` (if provided) contribute
    /// neither loss nor gradient — used for padded sequence positions.
    ///
    /// # Panics
    ///
    /// Panics if the number of labels does not match the number of rows, or
    /// a label is out of range.
    pub fn softmax_cross_entropy(
        &mut self,
        logits: Var,
        labels: &[usize],
        ignore_index: Option<usize>,
    ) -> Var {
        let vl = Rc::clone(&self.nodes[logits.0].value);
        let classes = *vl.shape().last().expect("softmax_cross_entropy on scalar");
        let rows = vl.len() / classes;
        assert_eq!(
            labels.len(),
            rows,
            "softmax_cross_entropy: {} labels for {} rows",
            labels.len(),
            rows
        );
        let probs = softmax_last(&vl);
        let mut active = 0usize;
        let mut loss = 0.0f64;
        for (r, &lab) in labels.iter().enumerate() {
            if Some(lab) == ignore_index {
                continue;
            }
            assert!(
                lab < classes,
                "label {lab} out of range for {classes} classes"
            );
            active += 1;
            loss -= (probs.data()[r * classes + lab].max(1e-12) as f64).ln();
        }
        let denom = active.max(1) as f32;
        let labels = labels.to_vec();
        let out = Tensor::scalar(loss as f32 / denom);
        self.op(out, &[logits], move |g, gm| {
            let scale = g.item() / denom;
            let mut gx = probs.clone();
            for (r, &lab) in labels.iter().enumerate() {
                let row = &mut gx.data_mut()[r * classes..(r + 1) * classes];
                if Some(lab) == ignore_index {
                    row.iter_mut().for_each(|v| *v = 0.0);
                } else {
                    row[lab] -= 1.0;
                    row.iter_mut().for_each(|v| *v *= scale);
                }
            }
            gm.accumulate_with(logits, || gx);
        })
    }

    /// Mean squared error against a constant target of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mse_loss(&mut self, pred: Var, target: &Tensor) -> Var {
        let vp = Rc::clone(&self.nodes[pred.0].value);
        assert_eq!(vp.shape(), target.shape(), "mse_loss shape mismatch");
        let n = vp.len() as f32;
        let diff = vp.sub(target);
        let out = Tensor::scalar(diff.sq_norm() / n);
        self.op(out, &[pred], move |g, gm| {
            gm.accumulate_with(pred, || diff.scale(2.0 * g.item() / n));
        })
    }

    /// Mean binary cross-entropy on logits against constant targets in
    /// `[0, 1]`, fused for stability (`max(x,0) - x*t + ln(1+e^{-|x|})`).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn bce_with_logits(&mut self, logits: Var, targets: &Tensor) -> Var {
        let vx = Rc::clone(&self.nodes[logits.0].value);
        assert_eq!(
            vx.shape(),
            targets.shape(),
            "bce_with_logits shape mismatch"
        );
        let n = vx.len() as f32;
        let mut loss = 0.0f64;
        for (&x, &t) in vx.data().iter().zip(targets.data()) {
            loss += (x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln()) as f64;
        }
        let sig = vx.map(|x| 1.0 / (1.0 + (-x).exp()));
        let targets = targets.clone();
        let out = Tensor::scalar(loss as f32 / n);
        self.op(out, &[logits], move |g, gm| {
            let scale = g.item() / n;
            gm.accumulate_with(logits, || sig.sub(&targets).scale(scale));
        })
    }

    /// L1 (mean absolute error) loss against a constant target.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn l1_loss(&mut self, pred: Var, target: &Tensor) -> Var {
        let vp = Rc::clone(&self.nodes[pred.0].value);
        assert_eq!(vp.shape(), target.shape(), "l1_loss shape mismatch");
        let n = vp.len() as f32;
        let diff = vp.sub(target);
        let out = Tensor::scalar(diff.data().iter().map(|d| d.abs()).sum::<f32>() / n);
        self.op(out, &[pred], move |g, gm| {
            let scale = g.item() / n;
            gm.accumulate_with(pred, || diff.map(|d| d.signum() * scale));
        })
    }

    /// Smooth-L1 (Huber) loss with δ=1, the Faster R-CNN box-regression
    /// loss, against a constant target.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn smooth_l1_loss(&mut self, pred: Var, target: &Tensor) -> Var {
        let vp = Rc::clone(&self.nodes[pred.0].value);
        assert_eq!(vp.shape(), target.shape(), "smooth_l1_loss shape mismatch");
        let n = vp.len() as f32;
        let diff = vp.sub(target);
        let loss: f32 = diff
            .data()
            .iter()
            .map(|&d| {
                if d.abs() < 1.0 {
                    0.5 * d * d
                } else {
                    d.abs() - 0.5
                }
            })
            .sum::<f32>()
            / n;
        self.op(Tensor::scalar(loss), &[pred], move |g, gm| {
            let scale = g.item() / n;
            gm.accumulate_with(pred, || {
                diff.map(|d| if d.abs() < 1.0 { d } else { d.signum() } * scale)
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{check_gradients, Graph, Param};
    use aibench_tensor::{Rng, Tensor};

    #[test]
    fn cross_entropy_gradcheck() {
        let mut rng = Rng::seed_from(40);
        let logits = Tensor::randn(&[4, 5], &mut rng);
        check_gradients(&[logits], 1e-2, 1e-2, |g, vars| {
            g.softmax_cross_entropy(vars[0], &[1, 0, 4, 2], None)
        });
    }

    #[test]
    fn cross_entropy_ignore_index() {
        let mut rng = Rng::seed_from(41);
        let logits = Tensor::randn(&[3, 4], &mut rng);
        let p = Param::new("l", logits);
        let mut g = Graph::new();
        let v = g.param(&p);
        let loss = g.softmax_cross_entropy(v, &[1, 3, 3], Some(3));
        g.backward(loss);
        // Rows 1 and 2 are ignored: zero gradient there.
        let gr = p.grad();
        assert!(gr.data()[4..].iter().all(|&x| x == 0.0));
        assert!(gr.data()[..4].iter().any(|&x| x != 0.0));
    }

    #[test]
    fn cross_entropy_perfect_prediction_low_loss() {
        let mut logits = Tensor::zeros(&[1, 3]);
        logits.data_mut()[2] = 20.0;
        let mut g = Graph::new();
        let v = g.input(logits);
        let loss = g.softmax_cross_entropy(v, &[2], None);
        assert!(g.value(loss).item() < 1e-4);
    }

    #[test]
    fn mse_gradcheck() {
        let mut rng = Rng::seed_from(42);
        let pred = Tensor::randn(&[3, 3], &mut rng);
        let target = Tensor::randn(&[3, 3], &mut rng);
        check_gradients(&[pred], 1e-2, 1e-2, move |g, vars| {
            g.mse_loss(vars[0], &target)
        });
    }

    #[test]
    fn bce_gradcheck() {
        let mut rng = Rng::seed_from(43);
        let logits = Tensor::randn(&[6], &mut rng);
        let targets = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0, 0.5, 1.0], &[6]);
        check_gradients(&[logits], 1e-2, 1e-2, move |g, vars| {
            g.bce_with_logits(vars[0], &targets)
        });
    }

    #[test]
    fn smooth_l1_gradcheck_away_from_kink() {
        let pred = Tensor::from_vec(vec![0.3, -0.4, 2.5, -3.0], &[4]);
        let target = Tensor::zeros(&[4]);
        check_gradients(&[pred], 1e-3, 1e-2, move |g, vars| {
            g.smooth_l1_loss(vars[0], &target)
        });
    }

    #[test]
    fn l1_gradcheck_away_from_zero() {
        let pred = Tensor::from_vec(vec![0.5, -0.7, 1.2], &[3]);
        let target = Tensor::zeros(&[3]);
        check_gradients(&[pred], 1e-3, 1e-2, move |g, vars| {
            g.l1_loss(vars[0], &target)
        });
    }
}
