//! DC-AI-C16 Learning-to-Rank: Ranking Distillation — a compact student
//! ranker trained under a pre-trained teacher's supervision (Tang & Wang),
//! on synthetic Gowalla-like implicit feedback. Quality: precision@5.

use aibench_autograd::{Graph, Param};
use aibench_data::metrics::precision_at_k;
use aibench_data::synth::RankingDataset;
use aibench_nn::{Adam, Optimizer};
use aibench_tensor::ops::{matmul_layout, Layout};
use aibench_tensor::{Rng, Tensor};

use crate::Trainer;

const DIM_TEACHER: usize = 16;
const DIM_STUDENT: usize = 8;
const TOP_K: usize = 5;

/// Matrix-factorization ranker: user/item embeddings scored by dot
/// product.
#[derive(Debug)]
struct MfRanker {
    users: Param,
    items: Param,
}

impl MfRanker {
    fn new(u: usize, i: usize, dim: usize, rng: &mut Rng, tag: &str) -> Self {
        MfRanker {
            users: Param::new(
                format!("{tag}.users"),
                Tensor::from_fn(&[u, dim], |_| rng.normal_with(0.0, 0.1)),
            ),
            items: Param::new(
                format!("{tag}.items"),
                Tensor::from_fn(&[i, dim], |_| rng.normal_with(0.0, 0.1)),
            ),
        }
    }

    fn params(&self) -> Vec<Param> {
        vec![self.users.clone(), self.items.clone()]
    }

    /// Pairwise BPR step on `(user, pos, neg)` triples; returns the loss.
    fn bpr_step(&self, triples: &[(usize, usize, usize)], opt: &mut Adam) -> f32 {
        let mut g = Graph::new();
        let ut = g.param(&self.users);
        let it = g.param(&self.items);
        let us: Vec<usize> = triples.iter().map(|t| t.0).collect();
        let ps: Vec<usize> = triples.iter().map(|t| t.1).collect();
        let ns: Vec<usize> = triples.iter().map(|t| t.2).collect();
        let ue = g.index_select0(ut, &us);
        let pe = g.index_select0(it, &ps);
        let ne = g.index_select0(it, &ns);
        let pos_prod = g.mul(ue, pe);
        let pos_score = g.sum_axis(pos_prod, 1);
        let neg_prod = g.mul(ue, ne);
        let neg_score = g.sum_axis(neg_prod, 1);
        let diff = g.sub(pos_score, neg_score);
        let loss = g.bce_with_logits(diff, &Tensor::ones(&[triples.len()]));
        let v = g.value(loss).item();
        g.backward(loss);
        opt.step();
        opt.zero_grad();
        v
    }

    /// Full score matrix `[users, items]`.
    fn scores(&self) -> Tensor {
        matmul_layout(
            &self.users.value(),
            Layout::RowMajor,
            &self.items.value(),
            Layout::Transposed,
        )
    }
}

/// The Learning-to-Rank benchmark trainer (teacher is pre-trained during
/// construction; epochs train the distilled student).
#[derive(Debug)]
pub struct LearningToRank {
    ds: RankingDataset,
    student: MfRanker,
    opt: Adam,
    teacher_top: Vec<Vec<usize>>, // teacher's top unobserved items per user
    rng: Rng,
}

impl LearningToRank {
    /// Builds the benchmark: trains the teacher to convergence, caches its
    /// top-ranked unobserved items, and initializes the student.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed);
        let ds = RankingDataset::new(24, 80, 4, 6, 3, 0xC16);
        // Teacher: larger-capacity MF trained with BPR.
        let teacher = MfRanker::new(ds.users(), ds.items(), DIM_TEACHER, &mut rng, "teacher");
        let mut topt = Adam::new(teacher.params(), 0.05);
        let pairs = ds.train_pairs();
        for _ in 0..60 {
            let triples: Vec<(usize, usize, usize)> = pairs
                .iter()
                .map(|&(u, p)| (u, p, ds.sample_negative(u, &mut rng)))
                .collect();
            teacher.bpr_step(&triples, &mut topt);
        }
        // Teacher's top unobserved items become distillation targets.
        let scores = teacher.scores();
        let items = ds.items();
        let teacher_top = (0..ds.users())
            .map(|u| {
                let mut ranked: Vec<usize> = (0..items)
                    .filter(|i| !ds.train_positives(u).contains(i))
                    .collect();
                ranked.sort_by(|&a, &b| {
                    scores.data()[u * items + b]
                        .partial_cmp(&scores.data()[u * items + a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                ranked.truncate(TOP_K);
                ranked
            })
            .collect();
        let student = MfRanker::new(ds.users(), ds.items(), DIM_STUDENT, &mut rng, "student");
        let opt = Adam::new(student.params(), 0.02);
        LearningToRank {
            ds,
            student,
            opt,
            teacher_top,
            rng,
        }
    }
}

impl Trainer for LearningToRank {
    fn scale_lr(&mut self, factor: f32) {
        self.opt.scale_lr(factor);
    }

    fn save_state(&self, state: &mut aibench_ckpt::State) {
        use aibench_ckpt::Snapshot as _;
        self.opt.snapshot(state, "opt");
        self.rng.snapshot(state, "rng");
    }

    fn load_state(&mut self, state: &aibench_ckpt::State) -> Result<(), aibench_ckpt::CkptError> {
        use aibench_ckpt::Restore as _;
        self.opt.restore(state, "opt")?;
        self.rng.restore(state, "rng")
    }

    fn params(&self) -> Vec<aibench_autograd::Param> {
        self.opt.params().to_vec()
    }

    fn train_epoch(&mut self) -> f32 {
        // Observed positives plus teacher-distilled pseudo-positives.
        let mut triples: Vec<(usize, usize, usize)> = Vec::new();
        for (u, p) in self.ds.train_pairs() {
            triples.push((u, p, self.ds.sample_negative(u, &mut self.rng)));
        }
        for u in 0..self.ds.users() {
            for &t in &self.teacher_top[u] {
                triples.push((u, t, self.ds.sample_negative(u, &mut self.rng)));
            }
        }
        self.rng.shuffle(&mut triples);
        let mut total = 0.0;
        let mut count = 0;
        for chunk in triples.chunks(64) {
            total += self.student.bpr_step(chunk, &mut self.opt);
            count += 1;
        }
        total / count.max(1) as f32
    }

    fn evaluate(&mut self) -> f64 {
        let scores = self.student.scores();
        let items = self.ds.items();
        let mut rankings = Vec::with_capacity(self.ds.users());
        let mut relevant = Vec::with_capacity(self.ds.users());
        for u in 0..self.ds.users() {
            let mut ranked: Vec<usize> = (0..items)
                .filter(|i| !self.ds.train_positives(u).contains(i))
                .collect();
            ranked.sort_by(|&a, &b| {
                scores.data()[u * items + b]
                    .partial_cmp(&scores.data()[u * items + a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            rankings.push(ranked);
            relevant.push(self.ds.test_positives(u).to_vec());
        }
        precision_at_k(&rankings, &relevant, TOP_K)
    }

    fn param_count(&self) -> usize {
        self.student.params().iter().map(|p| p.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn student_beats_random_ranking() {
        let mut t = LearningToRank::new(5);
        let before = t.evaluate();
        for _ in 0..8 {
            t.train_epoch();
        }
        let after = t.evaluate();
        // Random precision@5 with 3 relevant of ~74 candidates ≈ 4%.
        assert!(
            after > before.max(0.08),
            "P@5 before {before:.3}, after {after:.3}"
        );
    }
}
