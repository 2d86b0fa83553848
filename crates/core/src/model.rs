//! The contrastive model: encoder + projection head over one parameter
//! store.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sdc_nn::models::{EncoderConfig, ProjectionHead, ResNetEncoder};
use sdc_nn::{Bindings, Forward, Module, ParamStore};
use sdc_tensor::{Graph, Result, Tensor, TensorError};

/// Configuration of a [`ContrastiveModel`].
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Encoder architecture.
    pub encoder: EncoderConfig,
    /// Projection head hidden width.
    pub projection_hidden: usize,
    /// Latent dimension the contrastive loss operates in.
    pub projection_dim: usize,
    /// Seed for weight initialization.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self { encoder: EncoderConfig::small(), projection_hidden: 64, projection_dim: 32, seed: 0 }
    }
}

/// Disjoint borrows of a [`ContrastiveModel`] for building training
/// graphs (see [`ContrastiveModel::parts_mut`]).
#[derive(Debug)]
pub struct ModelParts<'a> {
    /// The encoder `f(·)`.
    pub encoder: &'a ResNetEncoder,
    /// The projection head `g(·)`.
    pub projector: &'a ProjectionHead,
    /// The shared parameter store, mutable for running-stat updates.
    pub store: &'a mut ParamStore,
}

/// Encoder `f(·)` plus projection head `g(·)` sharing a [`ParamStore`] —
/// the model Stage 1 trains on the unlabeled stream.
///
/// Cloning copies the parameter store, giving serving layers a cheap
/// way to publish a post-update snapshot to a scoring service while the
/// trainer keeps mutating its own copy.
#[derive(Debug, Clone)]
pub struct ContrastiveModel {
    /// Parameters and running statistics of both sub-models.
    pub store: ParamStore,
    encoder: ResNetEncoder,
    projector: ProjectionHead,
}

impl ContrastiveModel {
    /// Builds a freshly initialized model.
    pub fn new(config: &ModelConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let encoder = ResNetEncoder::new(&mut store, config.encoder.clone(), &mut rng);
        let projector = ProjectionHead::new(
            &mut store,
            encoder.feature_dim(),
            config.projection_hidden,
            config.projection_dim,
            &mut rng,
        );
        Self { store, encoder, projector }
    }

    /// Encoder output dimension.
    pub fn feature_dim(&self) -> usize {
        self.encoder.feature_dim()
    }

    /// Latent (projection) dimension.
    pub fn projection_dim(&self) -> usize {
        self.projector.out_dim()
    }

    /// Splits the model into disjoint borrows so a caller can build a
    /// training graph: the (immutable) sub-modules plus the mutable
    /// parameter store a [`Forward`] context needs.
    pub fn parts_mut(&mut self) -> ModelParts<'_> {
        ModelParts { encoder: &self.encoder, projector: &self.projector, store: &mut self.store }
    }

    /// Inference-only projection: maps an image batch `(n, c, h, w)` to
    /// ℓ2-normalized latent vectors `(n, projection_dim)`.
    ///
    /// Always runs in evaluation mode (running batch-norm statistics, no
    /// state mutation), which keeps the result deterministic — the
    /// property the contrast score relies on.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying modules.
    pub fn project(&mut self, images: &Tensor) -> Result<Tensor> {
        self.project_shared(images)
    }

    /// [`ContrastiveModel::project`] through a shared borrow.
    ///
    /// Eval-mode forwards only read the parameter store, so scoring can
    /// fan a candidate batch out across worker threads, each running
    /// this over its own slice of the batch. Every eval-mode op is
    /// row-independent, making the result bit-identical to the
    /// single-batch forward — large batches are in fact computed that
    /// way here, in fixed per-sample chunks on the `sdc-runtime` pool.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying modules.
    pub fn project_shared(&self, images: &Tensor) -> Result<Tensor> {
        self.eval_forward(images, true)
    }

    /// Inference-only feature extraction: `(n, c, h, w)` images to
    /// `(n, feature_dim)` encoder features `h = f(x)` (evaluation mode).
    /// This is what Stage 2 trains the classifier on.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying modules.
    pub fn features(&mut self, images: &Tensor) -> Result<Tensor> {
        self.features_shared(images)
    }

    /// [`ContrastiveModel::features`] through a shared borrow; batch
    /// rows fan out over the worker pool like
    /// [`ContrastiveModel::project_shared`].
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying modules.
    pub fn features_shared(&self, images: &Tensor) -> Result<Tensor> {
        self.eval_forward(images, false)
    }

    /// Shared eval-mode forward over the full batch, split into fixed
    /// [`BATCH_CHUNK`]-sample chunks on the worker pool when large
    /// enough, at every thread count: one thread runs the chunks in
    /// order, which at 64 samples is about twice as fast per sample as
    /// one whole-batch forward. `project` selects projection head + ℓ2
    /// normalization; otherwise encoder features are returned.
    fn eval_forward(&self, images: &Tensor, project: bool) -> Result<Tensor> {
        let dims = images.shape().dims();
        let n = if dims.is_empty() { 0 } else { dims[0] };
        let out_dim = if project { self.projection_dim() } else { self.feature_dim() };
        if n >= 2 * BATCH_CHUNK {
            let sample_len = images.len() / n;
            let mut out = Tensor::zeros([n, out_dim]);
            let src = images.data();
            let sample_dims = &dims[1..];
            let first_error: std::sync::Mutex<Option<TensorError>> = std::sync::Mutex::new(None);
            sdc_runtime::par_chunks_mut(out.data_mut(), BATCH_CHUNK * out_dim, |ci, piece| {
                let start = ci * BATCH_CHUNK;
                let rows = piece.len() / out_dim;
                let mut chunk_dims = vec![rows];
                chunk_dims.extend_from_slice(sample_dims);
                let chunk = Tensor::from_vec(
                    chunk_dims,
                    src[start * sample_len..(start + rows) * sample_len].to_vec(),
                )
                .expect("chunk length matches dims");
                match self.eval_forward_single(chunk, project) {
                    Ok(z) => piece.copy_from_slice(z.data()),
                    Err(e) => {
                        first_error.lock().unwrap_or_else(|p| p.into_inner()).get_or_insert(e);
                    }
                }
            });
            if let Some(e) = first_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
                return Err(e);
            }
            Ok(out)
        } else {
            self.eval_forward_single(images.clone(), project)
        }
    }

    /// One eval-mode forward over `images` (owned: the batch moves
    /// straight into the graph leaf, so chunked callers pay no extra
    /// copy), no batch splitting.
    fn eval_forward_single(&self, images: Tensor, project: bool) -> Result<Tensor> {
        let mut graph = Graph::new();
        let mut bindings = Bindings::new();
        let mut ctx = Forward::new_shared(&mut graph, &self.store, &mut bindings);
        let x = ctx.graph.leaf(images);
        let h = self.encoder.forward(&mut ctx, x)?;
        let out = if project {
            let z = self.projector.forward(&mut ctx, h)?;
            ctx.graph.l2_normalize_rows(z)?
        } else {
            h
        };
        Ok(graph.value(out).clone())
    }
}

/// Samples per parallel eval-forward chunk. Fixed (never derived from
/// the thread count) so chunk boundaries — and results — are identical
/// at any parallelism. Each chunk pays a fixed cost (fresh graph +
/// binding every weight tensor as a leaf), so the chunk is sized to
/// amortize that against per-sample forward work.
const BATCH_CHUNK: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> ContrastiveModel {
        ContrastiveModel::new(&ModelConfig {
            encoder: EncoderConfig::tiny(),
            projection_hidden: 8,
            projection_dim: 4,
            seed: 1,
        })
    }

    #[test]
    fn projection_is_normalized() {
        let mut model = tiny_model();
        let mut rng = StdRng::seed_from_u64(2);
        let images = Tensor::randn([3, 3, 8, 8], 1.0, &mut rng);
        let z = model.project(&images).unwrap();
        assert_eq!(z.shape().dims(), &[3, 4]);
        for i in 0..3 {
            let n: f32 = z.row(i).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-5, "row {i} norm {n}");
        }
    }

    #[test]
    fn projection_is_deterministic() {
        let mut model = tiny_model();
        let mut rng = StdRng::seed_from_u64(3);
        let images = Tensor::randn([2, 3, 8, 8], 1.0, &mut rng);
        let a = model.project(&images).unwrap();
        let b = model.project(&images).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn features_have_encoder_dim() {
        let mut model = tiny_model();
        let images = Tensor::zeros([2, 3, 8, 8]);
        let h = model.features(&images).unwrap();
        assert_eq!(h.shape().dims(), &[2, model.feature_dim()]);
    }

    /// Chunked scoring (every batch of at least two chunks, at every
    /// thread count) equals one unchunked forward bit for bit, including
    /// batches that end in a partial chunk.
    #[test]
    fn chunked_eval_matches_one_unchunked_forward_bitwise() {
        let model = tiny_model();
        let mut rng = StdRng::seed_from_u64(4);
        for n in [16, 17, 23, 64] {
            let images = Tensor::randn([n, 3, 8, 8], 1.0, &mut rng);
            for threads in [1, 2] {
                sdc_runtime::Runtime::new(threads).install(|| {
                    for project in [true, false] {
                        let got = if project {
                            model.project_shared(&images)
                        } else {
                            model.features_shared(&images)
                        };
                        let got = got.unwrap();
                        let want = model.eval_forward_single(images.clone(), project).unwrap();
                        assert_eq!(got.shape(), want.shape());
                        for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "n={n} threads={threads} project={project}: element {i}"
                            );
                        }
                    }
                });
            }
        }
    }

    #[test]
    fn same_seed_same_weights() {
        let a = tiny_model();
        let b = tiny_model();
        assert_eq!(a.store.params()[0].value, b.store.params()[0].value);
    }
}
