//! Adam optimizer (the paper trains both stages with Adam).

use sdc_persist::{Persist, PersistError, StateReader, StateWriter};
use sdc_tensor::Tensor;

use crate::param::ParamStore;

/// Adam with bias correction and ℓ2 weight decay, matching the paper's
/// training setup (Adam, weight decay 1e-4).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the standard `β₁ = 0.9`, `β₂ = 0.999`,
    /// `ε = 1e-8` and no weight decay.
    pub fn new(lr: f32) -> Self {
        Self::with_options(lr, 0.9, 0.999, 1e-8, 0.0)
    }

    /// Creates Adam with explicit hyper-parameters.
    pub fn with_options(lr: f32, beta1: f32, beta2: f32, eps: f32, weight_decay: f32) -> Self {
        Self { lr, beta1, beta2, eps, weight_decay, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update using the gradients accumulated in `store`.
    /// Gradients are *not* zeroed; call [`ParamStore::zero_grads`]
    /// before accumulating the next step.
    pub fn step(&mut self, store: &mut ParamStore) {
        while self.m.len() < store.num_params() {
            let shape = store.params()[self.m.len()].value.shape().clone();
            self.m.push(Tensor::zeros(shape.clone()));
            self.v.push(Tensor::zeros(shape));
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in store.params_mut().iter_mut().enumerate() {
            let m = self.m[i].data_mut();
            let v = self.v[i].data_mut();
            for (((md, vd), &gd), w) in
                m.iter_mut().zip(v.iter_mut()).zip(p.grad.data()).zip(p.value.data_mut())
            {
                let g = gd + self.weight_decay * *w;
                *md = self.beta1 * *md + (1.0 - self.beta1) * g;
                *vd = self.beta2 * *vd + (1.0 - self.beta2) * g * g;
                let mhat = *md / bc1;
                let vhat = *vd / bc2;
                *w -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

/// Snapshot capture of the full optimizer state: hyper-parameters, the
/// step counter `t`, and both moment vectors, bit-exactly. Restore
/// into an [`Adam`] for the same parameter layout; the next
/// [`Adam::step`] then continues the interrupted trajectory
/// exactly.
impl Persist for Adam {
    fn save(&self, w: &mut StateWriter) {
        w.put_f32(self.lr);
        w.put_f32(self.beta1);
        w.put_f32(self.beta2);
        w.put_f32(self.eps);
        w.put_f32(self.weight_decay);
        w.put_u64(self.t);
        w.put_u64(self.m.len() as u64);
        for (m, v) in self.m.iter().zip(&self.v) {
            w.put_tensor(m);
            w.put_tensor(v);
        }
    }

    fn load(&mut self, r: &mut StateReader) -> Result<(), PersistError> {
        let lr = r.get_f32()?;
        let beta1 = r.get_f32()?;
        let beta2 = r.get_f32()?;
        let eps = r.get_f32()?;
        let weight_decay = r.get_f32()?;
        let t = r.get_u64()?;
        let n = r.get_u64()? as usize;
        // A serialized (m, v) pair costs at least 24 wire bytes (two
        // empty tensors: rank u32 + length u64 each), so bounding the
        // reservation by remaining/24 keeps a hostile count from
        // amplifying into a Tensor-sized-slot allocation blow-up.
        let plausible = n.min(r.remaining() / 24);
        let mut m = Vec::with_capacity(plausible);
        let mut v = Vec::with_capacity(plausible);
        for i in 0..n {
            let mi = r.get_tensor()?;
            let vi = r.get_tensor()?;
            if mi.shape() != vi.shape() {
                return Err(PersistError::StateMismatch {
                    message: format!("moment {i}: m and v shapes disagree"),
                });
            }
            m.push(mi);
            v.push(vi);
        }
        self.lr = lr;
        self.beta1 = beta1;
        self.beta2 = beta2;
        self.eps = eps;
        self.weight_decay = weight_decay;
        self.t = t;
        self.m = m;
        self.v = v;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_descends_quadratic() {
        let mut store = ParamStore::new();
        let w = store.add_param("w", Tensor::full([1], 4.0));
        let mut opt = Adam::new(0.2);
        for _ in 0..200 {
            store.zero_grads();
            let wv = store.param(w).value.data()[0];
            store.param_mut(w).grad = Tensor::full([1], 2.0 * wv);
            opt.step(&mut store);
        }
        assert!(store.param(w).value.data()[0].abs() < 1e-2);
    }

    #[test]
    fn first_step_size_is_about_lr() {
        // With bias correction, |Δw| ≈ lr on the first step for any
        // nonzero gradient — a classic Adam sanity check.
        let mut store = ParamStore::new();
        let w = store.add_param("w", Tensor::full([1], 1.0));
        store.param_mut(w).grad = Tensor::full([1], 123.0);
        let mut opt = Adam::new(0.01);
        opt.step(&mut store);
        let delta = (store.param(w).value.data()[0] - 1.0).abs();
        assert!((delta - 0.01).abs() < 1e-4, "delta {delta}");
    }

    #[test]
    fn persist_roundtrip_resumes_the_exact_trajectory() {
        // Train a few steps, checkpoint, train more; a restored
        // optimizer must produce bit-identical weights.
        let drive = |store: &mut ParamStore, opt: &mut Adam, steps: usize| {
            for _ in 0..steps {
                store.zero_grads();
                let wv = store.params()[0].value.data()[0];
                store.params_mut()[0].grad = Tensor::full([1], 2.0 * wv);
                opt.step(store);
            }
        };
        let mut store_a = ParamStore::new();
        store_a.add_param("w", Tensor::full([1], 4.0));
        let mut opt_a = Adam::new(0.2);
        drive(&mut store_a, &mut opt_a, 5);
        let opt_bytes = sdc_persist::save_state(&opt_a);
        let store_bytes = sdc_persist::save_state(&store_a);

        // Continue the original.
        drive(&mut store_a, &mut opt_a, 5);

        // Restore into fresh instances and continue.
        let mut store_b = ParamStore::new();
        store_b.add_param("w", Tensor::zeros([1]));
        sdc_persist::load_state(&mut store_b, &store_bytes).unwrap();
        let mut opt_b = Adam::new(999.0); // wrong lr: load must overwrite
        sdc_persist::load_state(&mut opt_b, &opt_bytes).unwrap();
        assert_eq!(opt_b.steps(), 5);
        drive(&mut store_b, &mut opt_b, 5);
        assert_eq!(
            store_a.params()[0].value.data()[0].to_bits(),
            store_b.params()[0].value.data()[0].to_bits(),
            "restored optimizer diverged from the uninterrupted run"
        );
    }

    #[test]
    fn handles_multiple_params_of_different_shapes() {
        let mut store = ParamStore::new();
        let a = store.add_param("a", Tensor::ones([2, 2]));
        let b = store.add_param("b", Tensor::ones([3]));
        store.param_mut(a).grad = Tensor::ones([2, 2]);
        store.param_mut(b).grad = Tensor::ones([3]);
        let mut opt = Adam::new(0.1);
        opt.step(&mut store);
        assert!(store.param(a).value.data()[0] < 1.0);
        assert!(store.param(b).value.data()[0] < 1.0);
        assert_eq!(opt.steps(), 1);
    }
}
