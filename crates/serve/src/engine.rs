//! The serving-side predictor: one model, loaded and validated once,
//! scored many times.

use gmp_sparse::CsrMatrix;
use gmp_svm::predict::PreparedPredictor;
use gmp_svm::trainer::TrainError;
use gmp_svm::ComputeBackendKind;
use gmp_svm::{Backend, MpSvmModel, PredictOutcome};
use std::fmt;
use std::sync::Arc;

/// Model rejected at engine construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The model has no binary SVMs to score with.
    NoBinaries,
    /// Fewer than two classes.
    TooFewClasses(usize),
    /// Some binaries carry sigmoids and some do not — probabilities would
    /// be silently dropped, which a server must not do.
    PartialSigmoids,
    /// A binary references a support vector outside the pool.
    SvIndexOutOfPool { binary: usize, index: u32 },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoBinaries => write!(f, "model has no binary SVMs"),
            EngineError::TooFewClasses(k) => write!(f, "model has {k} classes (need >= 2)"),
            EngineError::PartialSigmoids => write!(
                f,
                "model mixes sigmoid-fitted and plain binaries; refusing to serve"
            ),
            EngineError::SvIndexOutOfPool { binary, index } => write!(
                f,
                "binary {binary} references SV {index} outside the shared pool"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// A trained [`MpSvmModel`] prepared for long-lived online serving.
///
/// Construction validates the invariants the serving loop depends on and
/// hoists the per-call SV-pool setup (pool copy handed to the kernel
/// oracle, squared norms, kernel diagonal) into one-time state, so every
/// batch — however small — only pays for the actual scoring.
pub struct PredictorEngine {
    predictor: PreparedPredictor,
}

impl fmt::Debug for PredictorEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PredictorEngine")
            .field("classes", &self.classes())
            .field("dim", &self.dim())
            .field("n_sv", &self.predictor.model().n_sv())
            .field("backend", &self.predictor.backend().label())
            .field("compute_backend", &self.compute_backend().name())
            .finish()
    }
}

impl PredictorEngine {
    /// Prepare `model` for serving on `backend`. `host_threads` bounds the
    /// real threads each scoring call may use (`None` = auto).
    pub fn new(
        model: MpSvmModel,
        backend: Backend,
        host_threads: Option<usize>,
    ) -> Result<Self, EngineError> {
        Self::with_compute_backend(model, backend, host_threads, ComputeBackendKind::from_env())
    }

    /// [`PredictorEngine::new`] on an explicit compute backend (instead of
    /// the `GMP_BACKEND` selection).
    pub fn with_compute_backend(
        model: MpSvmModel,
        backend: Backend,
        host_threads: Option<usize>,
        compute: ComputeBackendKind,
    ) -> Result<Self, EngineError> {
        if model.classes < 2 {
            return Err(EngineError::TooFewClasses(model.classes));
        }
        if model.binaries.is_empty() {
            return Err(EngineError::NoBinaries);
        }
        let with_sigmoid = model
            .binaries
            .iter()
            .filter(|b| b.sigmoid.is_some())
            .count();
        if with_sigmoid != 0 && with_sigmoid != model.binaries.len() {
            return Err(EngineError::PartialSigmoids);
        }
        let pool = model.sv_pool.nrows() as u32;
        for (bi, b) in model.binaries.iter().enumerate() {
            if let Some(&bad) = b.sv_idx.iter().find(|&&i| i >= pool) {
                return Err(EngineError::SvIndexOutOfPool {
                    binary: bi,
                    index: bad,
                });
            }
        }
        let predictor = PreparedPredictor::new(Arc::new(model), backend)
            .host_threads(host_threads)
            .compute_backend(compute);
        Ok(PredictorEngine { predictor })
    }

    /// The compute backend every scoring call uses.
    pub fn compute_backend(&self) -> ComputeBackendKind {
        self.predictor.compute_kind()
    }

    /// Feature dimensionality requests must respect.
    pub fn dim(&self) -> usize {
        self.model().sv_pool.ncols()
    }

    /// Number of classes in every probability vector.
    pub fn classes(&self) -> usize {
        self.predictor.model().classes
    }

    /// Whether responses carry probabilities.
    pub fn has_probability(&self) -> bool {
        self.predictor.model().has_probability()
    }

    /// The wrapped model.
    pub fn model(&self) -> &Arc<MpSvmModel> {
        self.predictor.model()
    }

    /// Score one batch — bit-identical to offline
    /// [`MpSvmModel::predict`] on the same rows.
    pub fn predict_batch(&self, batch: &CsrMatrix) -> Result<PredictOutcome, TrainError> {
        self.predictor.predict(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_datasets::BlobSpec;
    use gmp_svm::{MpSvmTrainer, SvmParams};

    fn model() -> MpSvmModel {
        let data = BlobSpec {
            n: 90,
            dim: 2,
            classes: 3,
            spread: 0.15,
            seed: 9,
        }
        .generate();
        MpSvmTrainer::new(
            SvmParams::default().with_c(2.0).with_rbf(1.0),
            Backend::gmp_default(),
        )
        .train(&data)
        .unwrap()
        .model
    }

    #[test]
    fn accepts_valid_model() {
        let e = PredictorEngine::new(model(), Backend::gmp_default(), Some(1)).unwrap();
        assert_eq!(e.dim(), 2);
        assert_eq!(e.classes(), 3);
        assert!(e.has_probability());
    }

    #[test]
    fn rejects_partial_sigmoids() {
        let mut m = model();
        m.binaries[0].sigmoid = None;
        let e = PredictorEngine::new(m, Backend::gmp_default(), Some(1)).unwrap_err();
        assert_eq!(e, EngineError::PartialSigmoids);
    }

    #[test]
    fn rejects_out_of_pool_reference() {
        let mut m = model();
        let bad = m.sv_pool.nrows() as u32 + 7;
        m.binaries[1].sv_idx[0] = bad;
        let e = PredictorEngine::new(m, Backend::gmp_default(), Some(1)).unwrap_err();
        assert_eq!(
            e,
            EngineError::SvIndexOutOfPool {
                binary: 1,
                index: bad
            }
        );
    }

    #[test]
    fn rejects_empty_model() {
        let mut m = model();
        m.binaries.clear();
        assert_eq!(
            PredictorEngine::new(m, Backend::gmp_default(), Some(1)).unwrap_err(),
            EngineError::NoBinaries
        );
        let mut m = model();
        m.classes = 1;
        assert!(matches!(
            PredictorEngine::new(m, Backend::gmp_default(), Some(1)).unwrap_err(),
            EngineError::TooFewClasses(1)
        ));
    }
}
