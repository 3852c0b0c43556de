//! Property-based tests of the autograd engine: analytic gradients agree
//! with finite differences over randomized graphs, and structural
//! invariants of the tape hold.

use aibench_autograd::{check_gradients, Graph, Param};
use aibench_tensor::{Rng, Tensor};
use proptest::prelude::*;

fn smooth_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from(seed);
    // Keep values away from activation kinks and division blowups.
    Tensor::rand_uniform(&[rows, cols], 0.3, 1.7, &mut rng)
}

/// The loop `Graph::sum_axis`'s backward ran before it became row copies:
/// the upstream gradient `g` repeated across the reduced axis, one element
/// at a time.
fn sum_axis_backward_ref(g: &Tensor, in_shape: &[usize], axis: usize) -> Tensor {
    let outer: usize = in_shape[..axis].iter().product();
    let mid = in_shape[axis];
    let inner: usize = in_shape[axis + 1..].iter().product();
    let mut gx = Tensor::zeros(in_shape);
    for o in 0..outer {
        for m in 0..mid {
            for i in 0..inner {
                gx.data_mut()[(o * mid + m) * inner + i] = g.data()[o * inner + i];
            }
        }
    }
    gx
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Ranks 1-4, every axis, extents 0 and 1 among them, and an upstream
    // gradient holding signed zeros, NaN and infinities, which a copy must
    // carry bit for bit.
    #[test]
    fn sum_axis_backward_matches_the_loop(dims in prop::collection::vec(0usize..10, 1..5),
                                          seed in 0u64..500) {
        const SPECIAL: [f32; 5] = [-0.0, 0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for axis in 0..dims.len() {
            let mut out_shape = dims.clone();
            out_shape.remove(axis);
            let mut rng = Rng::seed_from(seed ^ axis as u64);
            let upstream = Tensor::from_fn(&out_shape, |i| {
                SPECIAL.get(i % 8).copied().unwrap_or_else(|| rng.normal())
            });
            // d sum(sum_axis(x) * w) / d sum_axis(x) is `w` itself.
            let p = Param::new("x", Tensor::zeros(&dims));
            let mut g = Graph::new();
            let x = g.param(&p);
            let y = g.sum_axis(x, axis);
            let w = g.input(upstream.clone());
            let yw = g.mul(y, w);
            let loss = g.sum(yw);
            let got = g.backward_watching(loss, &[x]).remove(0);
            let want = sum_axis_backward_ref(&upstream, &dims, axis);
            prop_assert_eq!(got.shape(), want.shape());
            prop_assert_eq!(bits(&got), bits(&want), "{:?} axis {}", dims, axis);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn chained_smooth_ops_gradcheck(rows in 1usize..4, cols in 1usize..4, seed in 0u64..500) {
        let a = smooth_tensor(rows, cols, seed);
        check_gradients(&[a], 1e-2, 2e-2, |g, vars| {
            let x = vars[0];
            let s = g.sigmoid(x);
            let t = g.tanh(s);
            let sq = g.square(t);
            let m = g.mul(sq, x);
            g.mean(m)
        });
    }

    #[test]
    fn matmul_chain_gradcheck(m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in 0u64..500) {
        let a = smooth_tensor(m, k, seed);
        let b = smooth_tensor(k, n, seed ^ 0xAA);
        check_gradients(&[a, b], 1e-2, 2e-2, |g, vars| {
            let y = g.matmul(vars[0], vars[1]);
            let t = g.tanh(y);
            g.sum(t)
        });
    }

    #[test]
    fn softmax_cross_entropy_gradcheck(rows in 1usize..4, classes in 2usize..5, seed in 0u64..500) {
        let logits = smooth_tensor(rows, classes, seed);
        let labels: Vec<usize> = (0..rows).map(|r| (r + seed as usize) % classes).collect();
        check_gradients(&[logits], 1e-2, 2e-2, move |g, vars| {
            g.softmax_cross_entropy(vars[0], &labels, None)
        });
    }

    #[test]
    fn gradients_accumulate_linearly(seed in 0u64..500) {
        // Backward of 3*sum(w) equals three accumulations of sum(w).
        let mut rng = Rng::seed_from(seed);
        let t = Tensor::randn(&[4], &mut rng);
        let p = Param::new("w", t);
        let mut g = Graph::new();
        let w = g.param(&p);
        let s = g.sum(w);
        let tripled = g.scale(s, 3.0);
        g.backward(tripled);
        prop_assert!(p.grad().data().iter().all(|&x| (x - 3.0).abs() < 1e-6));
    }

    #[test]
    fn detached_inputs_receive_no_gradient(seed in 0u64..500) {
        let mut rng = Rng::seed_from(seed);
        let p = Param::new("w", Tensor::randn(&[3], &mut rng));
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(&[3], &mut rng));
        let w = g.param(&p);
        let y = g.mul(x, w);
        let loss = g.sum(y);
        prop_assert!(!g.needs_grad(x));
        g.backward(loss);
        prop_assert!(p.grad().sq_norm() > 0.0);
    }

    #[test]
    fn value_is_pure_forward(seed in 0u64..500) {
        // Building the same graph twice yields identical forward values.
        let mut rng = Rng::seed_from(seed);
        let t = Tensor::randn(&[2, 3], &mut rng);
        let build = |t: &Tensor| {
            let mut g = Graph::new();
            let x = g.input(t.clone());
            let s = g.softmax(x);
            let e = g.exp(s);
            g.value(e).clone()
        };
        prop_assert_eq!(build(&t), build(&t));
    }
}
