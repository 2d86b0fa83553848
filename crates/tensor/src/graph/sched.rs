//! Level-scheduled execution of the reverse sweep.
//!
//! The tape is a DAG whose edges point from each node to its parents
//! (always lower indices), so a single pass over the reachable nodes
//! can assign every node a **wavefront level**: its longest-path
//! distance from the loss. Two facts make levels a correct parallel
//! schedule:
//!
//! 1. **No intra-level dependencies.** If `p` is a parent of `c`, then
//!    `level(p) ≥ level(c) + 1`, so a node and any of its parents can
//!    never share a level. Every `backward_node` within a level reads
//!    only values and gradients frozen before the level started, and
//!    can therefore run concurrently on the `sdc-runtime` pool.
//! 2. **Complete gradients at flush time.** All gradient contributions
//!    to a node are produced by its consumers, which occupy strictly
//!    smaller levels. Processing levels in ascending order means that
//!    by the time a node's level starts, every contribution to it has
//!    been produced and buffered.
//!
//! ## Why results are bit-identical to the serial sweep
//!
//! Floating-point addition is not associative, so the *order* in which
//! contributions accumulate into a gradient slot matters down to the
//! last bit. The serial reference ([`Graph::backward_serial`]) visits
//! consumers in descending tape order and applies each one's
//! contributions immediately; a gradient slot therefore receives its
//! contributions sorted by **descending consumer index** (and, within
//! one consumer, in the order `backward_node` returned them). The
//! scheduler reproduces exactly that order: contributions are buffered
//! per target node as `(consumer, tensor)` pairs, and when a target's
//! level is reached its buffer is stably sorted by descending consumer
//! index before being folded with the same `accumulate` the serial
//! sweep uses. The parallel pool decides only *when* a node's backward
//! kernel runs — never what it computes (each kernel is internally
//! deterministic at any thread count) nor the order its output is
//! folded in.

use super::{Graph, Node, Op, VarId};
use crate::error::Result;
use crate::par::MIN_PAR_WORK;
use crate::Tensor;

/// Assigns every node reachable from `loss` its longest-path distance
/// from the loss, and buckets the reachable node indices by level.
/// Constants take no gradient, so they get no level.
///
/// Returned buckets are in ascending level order; `buckets[0]` is
/// always `[loss]`. Within a bucket, indices ascend (construction
/// order), which gives the scheduler a deterministic job order.
fn levels(nodes: &[Node], loss: usize) -> Vec<Vec<usize>> {
    let mut level: Vec<Option<u32>> = vec![None; loss + 1];
    level[loss] = Some(0);
    let mut max_level = 0;
    // Parents always sit at lower indices, so by the time `i` is
    // visited (descending) its own level is final.
    for i in (0..=loss).rev() {
        let Some(li) = level[i] else { continue };
        max_level = max_level.max(li);
        nodes[i].op.for_each_parent(|p| {
            if matches!(nodes[p].op, Op::Constant) {
                return;
            }
            let lp = level[p].get_or_insert(0);
            *lp = (*lp).max(li + 1);
        });
    }
    let mut buckets = vec![Vec::new(); max_level as usize + 1];
    for (i, l) in level.iter().enumerate() {
        if let Some(l) = l {
            buckets[*l as usize].push(i);
        }
    }
    buckets
}

impl Graph {
    /// Runs the reverse sweep from `loss`, accumulating gradients on
    /// every node that (transitively) feeds it.
    ///
    /// The sweep is **level-scheduled**: independent nodes — for
    /// example, the two augmented views' encoder towers of a
    /// contrastive step, which share no tape nodes until the loss —
    /// compute their gradients concurrently on the ambient
    /// `sdc-runtime` pool, while buffered contributions are applied in
    /// the serial sweep's order so the result is **bit-identical** to
    /// [`Graph::backward_serial`] at every `SDC_THREADS` setting (see
    /// the module docs of `graph::sched` for the argument, and
    /// `crates/tensor/tests/backward_equivalence.rs` for enforcement).
    ///
    /// Calling `backward` again on the same tape first discards all
    /// gradients from the previous sweep — a re-swept tape yields the
    /// same gradients as a fresh one, never stale accumulations.
    ///
    /// # Errors
    ///
    /// Returns an error if `loss` is not a single-element node, or if a
    /// node's gradient computation fails. On error every gradient slot
    /// is cleared, so callers can never observe a half-swept tape.
    pub fn backward(&mut self, loss: VarId) -> Result<()> {
        let _sweep_timer = sdc_obs::scope!("tensor.backward.sweep");
        self.seed_loss(loss)?;
        let schedule = levels(&self.nodes, loss.0);
        // Buffered contributions per target node, tagged with the
        // consumer (tape index) that produced them.
        let mut pending: Vec<Vec<(usize, Tensor)>> = Vec::new();
        pending.resize_with(loss.0 + 1, Vec::new);

        for bucket in &schedule {
            let _level_timer = sdc_obs::scope!("tensor.backward.level");
            // Flush: this level's gradients are complete once buffered
            // contributions land, in descending-consumer order (stable,
            // so one consumer's multiple contributions keep their
            // emitted order) — the serial sweep's accumulation order.
            for &n in bucket {
                let mut contribs = std::mem::take(&mut pending[n]);
                contribs.sort_by_key(|&(consumer, _)| std::cmp::Reverse(consumer));
                for (_, t) in contribs {
                    self.accumulate(n, t);
                }
            }

            // Compute: every backward kernel in the level reads frozen
            // state (`&self`), so the jobs fan out over the pool.
            let this = &*self;
            let run = |&n: &usize| {
                let g = this.nodes[n].grad.as_ref().expect("flushed above");
                this.backward_node(n, g)
            };
            let fan_out = bucket.len() > 1
                && sdc_runtime::current_threads() > 1
                && par_worth_it(this, bucket);
            let results: Vec<Result<Vec<(usize, Tensor)>>> = if fan_out {
                sdc_runtime::par_map(bucket.len(), |j| run(&bucket[j]))
            } else {
                bucket.iter().map(run).collect()
            };

            // Buffer: tag each contribution with its consumer. Errors
            // surface highest-consumer-first (the node the serial sweep
            // would have reached first) and leave no torn gradients.
            for (j, result) in results.into_iter().enumerate().rev() {
                match result {
                    Ok(contribs) => {
                        for (pid, t) in contribs {
                            pending[pid].push((bucket[j], t));
                        }
                    }
                    Err(e) => {
                        self.clear_grads();
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Whether a level carries enough work to amortize pool dispatch: the
/// proxy is the total upstream-gradient volume its kernels consume.
/// Scheduling never affects results, only speed, so this is a pure
/// heuristic.
fn par_worth_it(graph: &Graph, bucket: &[usize]) -> bool {
    let work: usize = bucket.iter().map(|&n| graph.nodes[n].value.len()).sum();
    work >= MIN_PAR_WORK
}
