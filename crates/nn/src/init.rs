//! Weight initialization schemes.

use rand::{Rng, RngExt};
use sdc_tensor::{Shape, Tensor};

/// He (Kaiming) normal initialization: `std = sqrt(2 / fan_in)`.
///
/// Suited to ReLU networks; used for all convolution and linear weights
/// in this stack.
pub fn he_normal<R: Rng + RngExt + ?Sized>(
    shape: impl Into<Shape>,
    fan_in: usize,
    rng: &mut R,
) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    Tensor::randn(shape, std, rng)
}

/// Fan-in of a convolution weight `(c_out, c_in, k, k)`.
pub fn conv_fan_in(c_in: usize, kernel: usize) -> usize {
    c_in * kernel * kernel
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn he_normal_std_scales_with_fan_in() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = he_normal([10_000], 50, &mut rng);
        let mean = t.mean();
        let std =
            (t.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / t.len() as f32).sqrt();
        let expect = (2.0f32 / 50.0).sqrt();
        assert!((std - expect).abs() < 0.01, "std {std}, expect {expect}");
    }

    #[test]
    fn conv_fan_in_formula() {
        assert_eq!(conv_fan_in(3, 3), 27);
        assert_eq!(conv_fan_in(64, 1), 64);
    }
}
