//! The dense layered DAG the mechanism tests share, shaped like the
//! benchmark's `fanout_dag`.

use nabbit_ft::fault::Fault;
use nabbit_ft::graph::{ComputeCtx, Key, TaskGraph};

/// Seeded layered random DAG: `layers × width` tasks, each task of layer
/// `l ≥ 1` depending on each task of layer `l − 1` with probability ½
/// (at least one), plus a sink over the last layer.
pub struct FanOut {
    preds: Vec<Vec<Key>>,
    succs: Vec<Vec<Key>>,
}

impl FanOut {
    pub fn new(layers: usize, width: usize, seed: u64) -> Self {
        let tasks = layers * width + 1;
        let mut preds = vec![Vec::new(); tasks];
        let mut rng = seed | 1;
        let mut coin = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng & 1 == 1
        };
        for l in 1..layers {
            for i in 0..width {
                let me = l * width + i;
                preds[me] = (0..width)
                    .filter(|_| coin())
                    .map(|j| ((l - 1) * width + j) as Key)
                    .collect();
                if preds[me].is_empty() {
                    preds[me].push(((l - 1) * width + i) as Key);
                }
            }
        }
        preds[tasks - 1] = (0..width)
            .map(|i| ((layers - 1) * width + i) as Key)
            .collect();
        let mut succs = vec![Vec::new(); tasks];
        for (k, ps) in preds.iter().enumerate() {
            for &p in ps {
                succs[p as usize].push(k as Key);
            }
        }
        FanOut { preds, succs }
    }

    pub fn tasks(&self) -> u64 {
        self.preds.len() as u64
    }

    pub fn edges(&self) -> u64 {
        self.preds.iter().map(|p| p.len() as u64).sum()
    }
}

impl TaskGraph for FanOut {
    fn sink(&self) -> Key {
        self.preds.len() as Key - 1
    }
    fn predecessors(&self, key: Key) -> Vec<Key> {
        self.preds[key as usize].clone()
    }
    fn predecessors_into(&self, key: Key, out: &mut Vec<Key>) {
        out.clear();
        out.extend_from_slice(&self.preds[key as usize]);
    }
    fn successors(&self, key: Key) -> Vec<Key> {
        self.succs[key as usize].clone()
    }
    fn out_degree(&self, key: Key) -> usize {
        self.succs[key as usize].len()
    }
    fn compute(&self, _key: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
        Ok(())
    }
}
