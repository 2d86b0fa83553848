//! Parameter and buffer storage shared by all layers.
//!
//! Parameters live *outside* the autodiff graph. Each training step binds
//! them into a fresh [`Graph`] as leaves via [`Bindings`], runs
//! forward/backward, then pulls gradients back into the store where the
//! optimizer consumes them.

use sdc_persist::{Persist, PersistError, StateReader, StateWriter};
use sdc_tensor::{Graph, Tensor, VarId};
use serde::{Deserialize, Serialize};

/// Handle to a trainable parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(usize);

/// Handle to a non-trainable buffer (e.g. batch-norm running statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BufferId(usize);

impl BufferId {
    /// Rebuilds a handle from a registration index (used by checkpoint
    /// restore, which walks buffers in order).
    pub(crate) fn from_index(i: usize) -> Self {
        Self(i)
    }
}

/// A named trainable tensor with its accumulated gradient.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Parameter {
    /// Dotted path identifying the parameter (e.g. `encoder.stem.weight`).
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

/// A named non-trainable tensor (running statistics and the like).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Buffer {
    /// Dotted path identifying the buffer.
    pub name: String,
    /// Current value.
    pub value: Tensor,
}

/// Owner of all parameters and buffers of a model.
///
/// ```
/// use sdc_nn::ParamStore;
/// use sdc_tensor::Tensor;
///
/// let mut store = ParamStore::new();
/// let w = store.add_param("w", Tensor::zeros([2, 2]));
/// assert_eq!(store.param(w).value.len(), 4);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParamStore {
    params: Vec<Parameter>,
    buffers: Vec<Buffer>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a trainable parameter initialized to `value`.
    pub fn add_param(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let grad = Tensor::zeros(value.shape().clone());
        self.params.push(Parameter { name: name.into(), value, grad });
        ParamId(self.params.len() - 1)
    }

    /// Registers a non-trainable buffer initialized to `value`.
    pub fn add_buffer(&mut self, name: impl Into<String>, value: Tensor) -> BufferId {
        self.buffers.push(Buffer { name: name.into(), value });
        BufferId(self.buffers.len() - 1)
    }

    /// Immutable access to a parameter.
    pub fn param(&self, id: ParamId) -> &Parameter {
        &self.params[id.0]
    }

    /// Mutable access to a parameter.
    pub fn param_mut(&mut self, id: ParamId) -> &mut Parameter {
        &mut self.params[id.0]
    }

    /// Immutable access to a buffer.
    pub fn buffer(&self, id: BufferId) -> &Buffer {
        &self.buffers[id.0]
    }

    /// Mutable access to a buffer.
    pub fn buffer_mut(&mut self, id: BufferId) -> &mut Buffer {
        &mut self.buffers[id.0]
    }

    /// All parameters, in registration order.
    pub fn params(&self) -> &[Parameter] {
        &self.params
    }

    /// All buffers, in registration order.
    pub fn buffers(&self) -> &[Buffer] {
        &self.buffers
    }

    /// All parameters, mutably.
    pub fn params_mut(&mut self) -> &mut [Parameter] {
        &mut self.params
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.fill(0.0);
        }
    }
}

/// Snapshot capture of a store's parameters and buffers (names, shapes,
/// values; gradients are transient and reset to zero on restore).
///
/// [`Persist::load`] restores *values* into an existing store with the
/// same layout — the same contract as
/// [`checkpoint::load_store`](crate::checkpoint::load_store): entry
/// counts, names, and shapes must match or the load is rejected with a
/// [`PersistError::StateMismatch`] and the store is left untouched.
impl Persist for ParamStore {
    fn save(&self, w: &mut StateWriter) {
        w.put_u64(self.params.len() as u64);
        for p in &self.params {
            w.put_str(&p.name);
            w.put_tensor(&p.value);
        }
        w.put_u64(self.buffers.len() as u64);
        for b in &self.buffers {
            w.put_str(&b.name);
            w.put_tensor(&b.value);
        }
    }

    fn load(&mut self, r: &mut StateReader) -> Result<(), PersistError> {
        // Decode and validate everything before mutating anything, so a
        // failure cannot leave the store half-restored.
        let n_params = r.get_u64()? as usize;
        if n_params != self.params.len() {
            return Err(PersistError::StateMismatch {
                message: format!("snapshot has {n_params} params, store has {}", self.params.len()),
            });
        }
        let mut params = Vec::with_capacity(n_params);
        for i in 0..n_params {
            let name = r.get_str()?;
            let value = r.get_tensor()?;
            let p = &self.params[i];
            if p.name != name || p.value.shape() != value.shape() {
                return Err(PersistError::StateMismatch {
                    message: format!("param {i} mismatch: store has {}, snapshot {name}", p.name),
                });
            }
            params.push(value);
        }
        let n_buffers = r.get_u64()? as usize;
        if n_buffers != self.buffers.len() {
            return Err(PersistError::StateMismatch {
                message: format!(
                    "snapshot has {n_buffers} buffers, store has {}",
                    self.buffers.len()
                ),
            });
        }
        let mut buffers = Vec::with_capacity(n_buffers);
        for i in 0..n_buffers {
            let name = r.get_str()?;
            let value = r.get_tensor()?;
            let b = &self.buffers[i];
            if b.name != name || b.value.shape() != value.shape() {
                return Err(PersistError::StateMismatch {
                    message: format!("buffer {i} mismatch: store has {}, snapshot {name}", b.name),
                });
            }
            buffers.push(value);
        }
        for (p, value) in self.params.iter_mut().zip(params) {
            p.grad = Tensor::zeros(value.shape().clone());
            p.value = value;
        }
        for (b, value) in self.buffers.iter_mut().zip(buffers) {
            b.value = value;
        }
        Ok(())
    }
}

/// Per-step mapping from parameters to the graph leaves they were bound
/// to, used to read gradients back after the reverse sweep.
#[derive(Debug, Default)]
pub struct Bindings {
    bound: Vec<(ParamId, VarId)>,
}

impl Bindings {
    /// Creates an empty binding set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts the current value of `param` into `graph` as a leaf and
    /// remembers the pairing. Binding the same parameter twice is allowed;
    /// both leaves' gradients are accumulated.
    pub fn bind(&mut self, graph: &mut Graph, store: &ParamStore, param: ParamId) -> VarId {
        let id = graph.leaf(store.param(param).value.clone());
        self.bound.push((param, id));
        id
    }

    /// Records an externally created param → leaf pairing (used by
    /// [`Forward::bind`](crate::Forward::bind)).
    pub fn record(&mut self, param: ParamId, leaf: VarId) {
        self.bound.push((param, leaf));
    }

    /// Adds each bound leaf's gradient into the corresponding parameter's
    /// `grad` accumulator. Leaves the graph untouched.
    pub fn accumulate_grads(&self, graph: &Graph, store: &mut ParamStore) {
        for &(pid, vid) in &self.bound {
            if let Some(g) = graph.grad(vid) {
                store.param_mut(pid).grad.add_assign_scaled(g, 1.0);
            }
        }
    }

    /// Number of bound parameters.
    pub fn len(&self) -> usize {
        self.bound.len()
    }

    /// Whether no parameters are bound.
    pub fn is_empty(&self) -> bool {
        self.bound.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_roundtrip() {
        let mut store = ParamStore::new();
        let w = store.add_param("w", Tensor::ones([2, 3]));
        let b = store.add_buffer("running", Tensor::zeros([3]));
        assert_eq!(store.param(w).name, "w");
        assert_eq!(store.buffer(b).value.len(), 3);
        assert_eq!(store.num_params(), 1);
    }

    #[test]
    fn zero_grads_clears_accumulators() {
        let mut store = ParamStore::new();
        let w = store.add_param("w", Tensor::ones([2]));
        store.param_mut(w).grad = Tensor::full([2], 3.0);
        store.zero_grads();
        assert_eq!(store.param(w).grad.data(), &[0.0, 0.0]);
    }

    #[test]
    fn bindings_pull_gradients_back() {
        let mut store = ParamStore::new();
        let w = store.add_param("w", Tensor::from_vec([2], vec![1.0, -2.0]).unwrap());
        let mut g = Graph::new();
        let mut bind = Bindings::new();
        let wid = bind.bind(&mut g, &store, w);
        let y = g.scale(wid, 4.0);
        let loss = g.mean_all(y);
        g.backward(loss).unwrap();
        bind.accumulate_grads(&g, &mut store);
        assert_eq!(store.param(w).grad.data(), &[2.0, 2.0]);
    }

    #[test]
    fn double_binding_accumulates_both_paths() {
        let mut store = ParamStore::new();
        let w = store.add_param("w", Tensor::ones([1]));
        let mut g = Graph::new();
        let mut bind = Bindings::new();
        let a = bind.bind(&mut g, &store, w);
        let b = bind.bind(&mut g, &store, w);
        let s = g.add(a, b).unwrap();
        let loss = g.mean_all(s);
        g.backward(loss).unwrap();
        bind.accumulate_grads(&g, &mut store);
        assert_eq!(store.param(w).grad.data(), &[2.0]);
    }

    #[test]
    fn persist_roundtrip_is_bitwise_and_resets_grads() {
        let mut source = ParamStore::new();
        let w = source.add_param("w", Tensor::from_vec([2], vec![1.5, -0.0]).unwrap());
        source.add_buffer("rm", Tensor::from_vec([1], vec![f32::MIN_POSITIVE]).unwrap());
        source.param_mut(w).grad = Tensor::full([2], 9.0);
        let bytes = sdc_persist::save_state(&source);

        let mut target = ParamStore::new();
        let tw = target.add_param("w", Tensor::zeros([2]));
        target.add_buffer("rm", Tensor::zeros([1]));
        target.param_mut(tw).grad = Tensor::full([2], 5.0);
        sdc_persist::load_state(&mut target, &bytes).unwrap();
        assert_eq!(target.params()[0].value.data()[0], 1.5);
        assert_eq!(target.params()[0].value.data()[1].to_bits(), (-0.0f32).to_bits());
        assert_eq!(target.buffers()[0].value.data()[0], f32::MIN_POSITIVE);
        assert_eq!(target.params()[0].grad.data(), &[0.0, 0.0], "grads are transient");
    }

    #[test]
    fn persist_load_rejects_layout_drift_without_mutating() {
        let mut source = ParamStore::new();
        source.add_param("w", Tensor::ones([2]));
        let bytes = sdc_persist::save_state(&source);
        let mut other = ParamStore::new();
        other.add_param("different", Tensor::full([2], 3.0));
        let err = sdc_persist::load_state(&mut other, &bytes).unwrap_err();
        assert!(matches!(err, sdc_persist::PersistError::StateMismatch { .. }), "{err}");
        assert_eq!(other.params()[0].value.data(), &[3.0, 3.0], "failed load must not mutate");
    }
}
