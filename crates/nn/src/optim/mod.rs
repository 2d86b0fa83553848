//! The optimizer operating on a [`ParamStore`](crate::ParamStore).

mod adam;

pub use adam::Adam;
