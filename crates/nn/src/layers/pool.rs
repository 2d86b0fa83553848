//! Global average pooling, the encoder's last spatial layer.

use sdc_tensor::{Result, VarId};

use crate::module::{Forward, Module};

/// Global average pooling `(n, c, h, w) -> (n, c)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalAvgPool;

impl Module for GlobalAvgPool {
    fn forward(&self, ctx: &mut Forward<'_>, x: VarId) -> Result<VarId> {
        ctx.graph.global_avg_pool(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{Bindings, ParamStore};
    use sdc_tensor::{Graph, Tensor};

    #[test]
    fn global_avg_pool_forward() {
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let mut bind = Bindings::new();
        let mut ctx = Forward::new(&mut g, &mut store, &mut bind, true);
        let x = ctx.graph.leaf(Tensor::from_vec([1, 1, 2, 2], vec![0.0, 2.0, 3.0, 7.0]).unwrap());
        let a = GlobalAvgPool.forward(&mut ctx, x).unwrap();
        assert_eq!(g.value(a).data(), &[3.0]);
    }
}
