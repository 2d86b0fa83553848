//! Property tests for the augmentation and stream invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdc_data::augment::flip::hflip;
use sdc_data::augment::{strong_augmentation, Augment, ColorJitter, RandomCrop};
use sdc_data::stream::TemporalStream;
use sdc_data::synth::{SynthConfig, SynthDataset};
use sdc_tensor::Tensor;

fn image_strategy() -> impl Strategy<Value = Tensor> {
    (1usize..=3, 2usize..=6, 2usize..=6).prop_flat_map(|(c, h, w)| {
        proptest::collection::vec(-2.0f32..2.0, c * h * w)
            .prop_map(move |data| Tensor::from_vec([c, h, w], data).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hflip_is_an_involution(img in image_strategy()) {
        prop_assert_eq!(hflip(&hflip(&img)), img);
    }

    #[test]
    fn hflip_preserves_multiset_of_values(img in image_strategy()) {
        let mut a: Vec<u32> = img.data().iter().map(|v| v.to_bits()).collect();
        let mut b: Vec<u32> = hflip(&img).data().iter().map(|v| v.to_bits()).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn augmentations_preserve_shape(img in image_strategy(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pipeline = strong_augmentation();
        let out = pipeline.apply(&img, &mut rng);
        prop_assert_eq!(out.shape(), img.shape());
        prop_assert!(out.all_finite());
    }

    #[test]
    fn crop_output_values_come_from_input_or_padding(img in image_strategy(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = RandomCrop::new(1).apply(&img, &mut rng);
        for &v in out.data() {
            prop_assert!(v == 0.0 || img.data().contains(&v));
        }
    }

    #[test]
    fn color_jitter_keeps_within_channel_ratios(img in image_strategy(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = ColorJitter::new(0.5, 0.5).apply(&img, &mut rng);
        // Each channel is scaled by one factor: x_out = s * x_in.
        let dims = img.shape().dims();
        let (c, hw) = (dims[0], dims[1] * dims[2]);
        for ci in 0..c {
            let xs = &img.data()[ci * hw..(ci + 1) * hw];
            let ys = &out.data()[ci * hw..(ci + 1) * hw];
            // Find a reference pixel with non-negligible magnitude.
            if let Some(r) = xs.iter().position(|v| v.abs() > 0.1) {
                let s = ys[r] / xs[r];
                for (x, y) in xs.iter().zip(ys) {
                    prop_assert!((y - s * x).abs() < 1e-3, "not a per-channel scale");
                }
            }
        }
    }

    #[test]
    fn stream_runs_respect_stc(stc in 1usize..8, seed in 0u64..100) {
        let ds = SynthDataset::new(SynthConfig {
            classes: 5,
            height: 4,
            width: 4,
            ..SynthConfig::default()
        });
        let mut stream = TemporalStream::new(ds, stc, seed);
        let labels: Vec<usize> =
            stream.next_segment(stc * 6).unwrap().iter().map(|s| s.label).collect();
        for chunk in labels.chunks(stc) {
            prop_assert!(chunk.iter().all(|&l| l == chunk[0]), "{labels:?}");
        }
    }
}
