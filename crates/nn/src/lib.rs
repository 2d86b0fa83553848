//! # sdc-nn
//!
//! Neural-network layers, residual encoder models, and the Adam
//! optimizer built on [`sdc_tensor`], forming the model substrate for the *Selective Data
//! Contrast* (DAC 2021) reproduction.
//!
//! The paper's architecture is reproduced faithfully in structure:
//! a ResNet backbone ([`models::ResNetEncoder`], configurable width/depth
//! up to the paper's ResNet-18), a SimCLR projection head
//! ([`models::ProjectionHead`]), and the Stage-2 linear classifier
//! ([`models::LinearClassifier`]), trained with [`optim::Adam`].
//!
//! ## Parameter flow
//!
//! Parameters live in a [`ParamStore`]. Each step:
//!
//! 1. create a fresh [`sdc_tensor::Graph`] and a [`Bindings`] set,
//! 2. run modules through a [`Forward`] context (parameters are bound as
//!    graph leaves on the fly),
//! 3. `graph.backward(loss)`, then [`Bindings::accumulate_grads`],
//! 4. hand the store to [`optim::Adam::step`].

#![warn(missing_docs)]

pub mod checkpoint;
pub mod init;
pub mod layers;
pub mod models;
mod module;
pub mod optim;
mod param;

pub use module::{Forward, Module, StoreAccess};
pub use param::{Bindings, Buffer, BufferId, ParamId, ParamStore, Parameter};
