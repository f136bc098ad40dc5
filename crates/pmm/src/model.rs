//! The PMM architecture (§3.3).
//!
//! Three learnable components, exactly as the paper describes:
//!
//! * **θ_TRANSFORMER** — a token encoder over each basic block's synthetic
//!   assembly (token embeddings with an optional single-head
//!   self-attention layer, mean-pooled). The paper pre-trains its encoder
//!   BERT-style on a compiled kernel; with our compact synthetic ISA the
//!   encoder trains end-to-end inside PMM instead (recorded in DESIGN.md);
//! * **θ_Emb** — learned embeddings for syscall variants, argument type
//!   kinds, argument path slots (shared with the block-token slot
//!   vocabulary, so the model can correlate a `cmp s417, ...` gate with
//!   the argument whose path hashes to slot 417), node classes, and edge
//!   types (realized as per-edge-type message transforms);
//! * **θ_GNN** — relational message passing over the query graph with
//!   weight sharing across rounds, followed by a two-layer head that
//!   scores every mutable argument vertex with a MUTATE/NOT-MUTATE logit.

use rand::prelude::*;
use snowplow_kernel::Tok;
use snowplow_mlcore::{io, Embedding, Linear, Params, QuantStats, Quantize, Tape, Var};
use snowplow_prog::ArgLoc;

use crate::graph::{EdgeType, NodeKind, QueryGraph, KIND_TAGS};

/// Node-class rows in the class embedding: syscall, arg, covered block,
/// alternative block, plus an additive target-marker row.
const NODE_CLASSES: usize = 5;
const TARGET_CLASS: usize = 4;
/// Graphs per inference forward pass inside [`Pmm::predict_batch`].
/// Union tensors are `total_nodes × dim`; past a few graphs they fall
/// out of L1 and every row of every op pays the L2 latency. Four graphs
/// (~100-200 rows at quick-scale graph sizes) is the measured knee on
/// the 48-wide models the benches train — wider API batches still
/// amortize per-call overhead, the forward just walks them one
/// cache-resident tile at a time.
const INFER_TILE: usize = 4;

/// Architecture hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmmConfig {
    /// Hidden width of all embeddings and messages.
    pub dim: usize,
    /// Message-passing rounds.
    pub rounds: usize,
    /// Whether the block encoder uses a self-attention layer (`false` =
    /// mean-pool + projection).
    pub attention: bool,
    /// Initialization seed.
    pub seed: u64,
    /// Inference weight-store format, applied when the pipeline freezes
    /// the trained model ([`Pmm::quantize_for_inference`]). Training
    /// always runs in f32; [`Quantize::None`] (the default) keeps
    /// serving bit-identical to the trained weights.
    pub quantize: Quantize,
}

impl Default for PmmConfig {
    fn default() -> Self {
        PmmConfig {
            dim: 48,
            rounds: 3,
            attention: false,
            seed: 0x504d_4d31,
            quantize: Quantize::None,
        }
    }
}

/// The layer handles of the model (ids into the parameter store; cheap
/// to clone, carries no weights itself).
#[derive(Debug, Clone)]
struct Layers {
    config: PmmConfig,
    syscall_count: usize,
    tok_emb: Embedding,
    sys_emb: Embedding,
    kind_emb: Embedding,
    class_emb: Embedding,
    attn_qkv: Linear,
    enc_proj: Linear,
    edge_w: Vec<Linear>,
    self_w: Linear,
    head1: Linear,
    head_t: Linear,
    head_t0: Linear,
    head2: Linear,
}

/// Reusable packing buffers for [`Layers::forward_batch`].
///
/// One forward pass needs a dozen index vectors (node classes, edge
/// buckets, candidate rows, …); holding them on the model lets every
/// query reuse the previous query's capacity instead of reallocating.
#[derive(Debug, Clone, Default)]
struct GraphScratch {
    class_idx: Vec<usize>,
    target_rows: Vec<usize>,
    tgt_owner: Vec<usize>,
    inv_tcount: Vec<f32>,
    sys_rows: Vec<usize>,
    sys_idx: Vec<usize>,
    arg_rows: Vec<usize>,
    arg_kind_idx: Vec<usize>,
    arg_slot_idx: Vec<usize>,
    tok_idx: Vec<usize>,
    tok_owner: Vec<usize>,
    block_rows_tokens: Vec<(usize, usize)>,
    cand_rows: Vec<usize>,
    cand_graph: Vec<usize>,
    cand_mask: Vec<f32>,
    inv_deg: Vec<f32>,
    by_type: Vec<(Vec<usize>, Vec<usize>)>,
}

impl GraphScratch {
    fn clear(&mut self) {
        self.class_idx.clear();
        self.target_rows.clear();
        self.tgt_owner.clear();
        self.inv_tcount.clear();
        self.sys_rows.clear();
        self.sys_idx.clear();
        self.arg_rows.clear();
        self.arg_kind_idx.clear();
        self.arg_slot_idx.clear();
        self.tok_idx.clear();
        self.tok_owner.clear();
        self.block_rows_tokens.clear();
        self.cand_rows.clear();
        self.cand_graph.clear();
        self.cand_mask.clear();
        self.inv_deg.clear();
        for (s, d) in &mut self.by_type {
            s.clear();
            d.clear();
        }
    }
}

/// The Program Mutation Model.
#[derive(Debug, Clone)]
pub struct Pmm {
    /// Architecture configuration.
    pub config: PmmConfig,
    /// All trainable parameters.
    pub params: Params,
    layers: Layers,
    scratch: GraphScratch,
    /// Buffer recycle pool for inference tapes: after warm-up, a predict
    /// performs no heap allocation for op outputs.
    tape_pool: Vec<Vec<f32>>,
    /// Row-panel workers for large batched-inference matmuls (see
    /// [`Pmm::set_inference_workers`]).
    inference_workers: usize,
}

impl Pmm {
    /// Builds a freshly initialized model for a kernel interface with
    /// `syscall_count` variants.
    pub fn new(config: PmmConfig, syscall_count: usize) -> Pmm {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut params = Params::new();
        let d = config.dim;
        let layers = Layers {
            config,
            syscall_count: syscall_count.max(1),
            tok_emb: Embedding::new(&mut params, Tok::vocab_size(), d, &mut rng),
            sys_emb: Embedding::new(&mut params, syscall_count.max(1), d, &mut rng),
            kind_emb: Embedding::new(&mut params, KIND_TAGS, d, &mut rng),
            class_emb: Embedding::new(&mut params, NODE_CLASSES, d, &mut rng),
            attn_qkv: Linear::new(&mut params, d, d, &mut rng),
            enc_proj: Linear::new(&mut params, d, d, &mut rng),
            edge_w: (0..EdgeType::COUNT)
                .map(|_| Linear::new(&mut params, d, d, &mut rng))
                .collect(),
            self_w: Linear::new(&mut params, d, d, &mut rng),
            head1: Linear::new(&mut params, d, d, &mut rng),
            head_t: Linear::new(&mut params, d, d, &mut rng),
            head_t0: Linear::new(&mut params, d, d, &mut rng),
            head2: Linear::new(&mut params, d, 1, &mut rng),
        };
        Pmm {
            config,
            params,
            layers,
            scratch: GraphScratch::default(),
            tape_pool: Vec::new(),
            inference_workers: 1,
        }
    }

    /// Shards large batched-inference matmuls over `workers` row panels
    /// of the packed union graph (the batch dimension). Scores stay
    /// bit-identical to serial inference at any worker count
    /// ([`Tape::set_workers`]); only wall-clock changes.
    pub fn set_inference_workers(&mut self, workers: usize) {
        self.inference_workers = workers.max(1);
    }

    /// Freezes the weight store into the configured inference format
    /// (`config.quantize`), rounding every parameter in place (training
    /// stays f32 — callers quantize after the last optimizer step).
    /// Returns aggregate rounding statistics; with [`Quantize::None`]
    /// this is a byte-identical no-op. Idempotent.
    pub fn quantize_for_inference(&mut self) -> QuantStats {
        let mut stats = QuantStats::default();
        for i in 0..self.params.len() {
            let m = self.params.get_mut(snowplow_mlcore::ParamId(i));
            stats.merge(snowplow_mlcore::quantize_matrix(m, self.config.quantize));
        }
        stats
    }

    /// Number of trainable scalars.
    pub fn parameter_count(&self) -> usize {
        self.params.scalar_count()
    }

    /// Runs forward + weighted-BCE backward for one example, accumulating
    /// gradients into the parameter store. Returns the loss value.
    ///
    /// # Panics
    /// Panics if `labels`/`weights` are not aligned with the graph's
    /// candidates.
    pub fn loss_and_backward(
        &mut self,
        graph: &QueryGraph,
        labels: &[f32],
        weights: &[f32],
    ) -> f32 {
        assert_eq!(labels.len(), graph.candidate_count());
        assert_eq!(weights.len(), graph.candidate_count());
        let layers = self.layers.clone();
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut tape = Tape::new(&mut self.params);
        let logits = layers.forward_batch(&mut tape, &[graph], &mut scratch);
        let loss = tape.bce_with_logits(logits, labels, weights);
        let value = tape.value(loss).at(0, 0);
        tape.backward(loss);
        drop(tape);
        self.scratch = scratch;
        value
    }

    /// Scores a query, returning `(location, probability)` pairs sorted
    /// by descending probability.
    ///
    /// Inference is a pure function of `(parameters, graph)`: `&mut
    /// self` only reuses internal scratch, the forward pass reads no
    /// RNG, and ties sort stably by candidate order. Callers may
    /// therefore memoize results per graph — the campaign hot loop does
    /// exactly that (see the fuzzer crate's golden-equivalence tests).
    pub fn predict(&mut self, graph: &QueryGraph) -> Vec<(ArgLoc, f32)> {
        self.predict_batch(std::slice::from_ref(graph))
            .pop()
            .expect("one result per graph")
    }

    /// Scores several queries in one packed forward pass.
    ///
    /// The graphs are stacked as a disjoint union (node rows offset per
    /// graph, per-graph target pooling and candidate masking), so every
    /// row of the computation sees exactly the values it would see
    /// alone: the returned scores are bit-identical to calling
    /// [`Pmm::predict`] per graph, while amortizing tape and matmul
    /// overhead across the batch.
    pub fn predict_batch(&mut self, graphs: &[QueryGraph]) -> Vec<Vec<(ArgLoc, f32)>> {
        let live: Vec<&QueryGraph> = graphs.iter().filter(|g| !g.candidates.is_empty()).collect();
        if live.is_empty() {
            return graphs.iter().map(|_| Vec::new()).collect();
        }
        let layers = self.layers.clone();
        let mut scratch = std::mem::take(&mut self.scratch);
        // Forward-only tape: same kernels in the same order (scores stay
        // bit-identical to a training-mode forward), minus the gradient
        // bookkeeping. The batch is processed in sub-batches of
        // `INFER_TILE` graphs — the same cache-blocking logic as the
        // GEMM's KC/MR tiling, one level up: a wide union's n×dim
        // tensors spill L1 and every row gets slower, while per-graph
        // scores are width-invariant (each row only ever sees its own
        // graph's values), so tiling changes no output bit.
        let mut flat: Vec<f32> = Vec::with_capacity(live.iter().map(|g| g.candidates.len()).sum());
        for sub in live.chunks(INFER_TILE) {
            let mut tape = Tape::inference_pooled(&mut self.params, &mut self.tape_pool);
            tape.set_workers(self.inference_workers);
            let logits = layers.forward_batch(&mut tape, sub, &mut scratch);
            let probs = tape.sigmoid(logits);
            tape.free(logits);
            flat.extend_from_slice(tape.value(probs).data());
            tape.recycle();
        }
        self.scratch = scratch;

        let mut row = 0usize;
        graphs
            .iter()
            .map(|g| {
                let mut scored: Vec<(ArgLoc, f32)> = g
                    .candidates
                    .iter()
                    .map(|(_, loc)| {
                        let p = flat[row];
                        row += 1;
                        (loc.clone(), p)
                    })
                    .collect();
                scored.sort_by(|a, b| b.1.total_cmp(&a.1));
                scored
            })
            .collect()
    }

    /// Selects the predicted MUTATE set: all candidates with probability
    /// at least `threshold` (at least the single best when none pass).
    pub fn predict_set(&mut self, graph: &QueryGraph, threshold: f32) -> Vec<ArgLoc> {
        let scored = self.predict(graph);
        let mut out: Vec<ArgLoc> = scored
            .iter()
            .filter(|(_, p)| *p >= threshold)
            .map(|(l, _)| l.clone())
            .collect();
        if out.is_empty() {
            if let Some((l, _)) = scored.first() {
                out.push(l.clone());
            }
        }
        out
    }

    /// Saves weights and a config sidecar.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        io::save_params(&self.params, path)?;
        let meta = format!(
            "dim={} rounds={} attention={} seed={} syscalls={} quantize={}\n",
            self.config.dim,
            self.config.rounds,
            self.config.attention,
            self.config.seed,
            self.layers.syscall_count,
            self.config.quantize.name()
        );
        std::fs::write(path.with_extension("meta"), meta)
    }

    /// Loads weights saved by [`Pmm::save`] into this model. The `.meta`
    /// sidecar must match this model's `dim`, `rounds`, `attention`,
    /// syscall count and `quantize` mode (the init `seed` may differ);
    /// a mismatch is an [`InvalidData`](std::io::ErrorKind::InvalidData)
    /// error naming the field. On any error the weights are untouched.
    pub fn load(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        let meta = std::fs::read_to_string(path.with_extension("meta"))?;
        self.check_meta(&meta)?;
        io::load_params(&mut self.params, path)
    }

    /// Checks a [`Pmm::save`] sidecar against this model's architecture.
    fn check_meta(&self, meta: &str) -> std::io::Result<()> {
        let config = &self.config;
        let expected = [
            ("dim", config.dim.to_string()),
            ("rounds", config.rounds.to_string()),
            ("attention", config.attention.to_string()),
            ("syscalls", self.layers.syscall_count.to_string()),
            ("quantize", config.quantize.name().to_string()),
        ];
        for (field, want) in expected {
            let found = meta
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix(field)?.strip_prefix('='));
            if found != Some(want.as_str()) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "checkpoint {field} is {}, model has {want}",
                        found.unwrap_or("missing")
                    ),
                ));
            }
        }
        Ok(())
    }
}

impl Layers {
    /// Runs one packed forward pass over a batch of graphs, returning
    /// the logits (`Σ candidate_count × 1`, graphs in order, each
    /// graph's candidates in its own order).
    ///
    /// The batch is a disjoint union: node rows are offset per graph,
    /// every tape op used here is row-local (or indexed through
    /// per-graph index lists), and the target readout pools per graph,
    /// so each graph's logits are bit-identical to a batch of one.
    fn forward_batch(
        &self,
        tape: &mut Tape<'_>,
        graphs: &[&QueryGraph],
        scratch: &mut GraphScratch,
    ) -> Var {
        scratch.clear();
        if scratch.by_type.is_empty() {
            scratch.by_type = vec![(Vec::new(), Vec::new()); EdgeType::COUNT];
        }
        let n: usize = graphs.iter().map(|g| g.node_count()).sum();
        let g_count = graphs.len();

        // ---- Pack node features, edges, targets, candidates. -----------
        let mut tcount = vec![0usize; g_count];
        let mut base = 0usize;
        for (gi, graph) in graphs.iter().enumerate() {
            for (i, node) in graph.nodes.iter().enumerate() {
                let row = base + i;
                scratch.class_idx.push(match node {
                    NodeKind::Syscall { variant } => {
                        scratch.sys_rows.push(row);
                        scratch
                            .sys_idx
                            .push((*variant as usize).min(self.syscall_count - 1));
                        0usize
                    }
                    NodeKind::Arg { kind_tag, slot, .. } => {
                        scratch.arg_rows.push(row);
                        scratch.arg_kind_idx.push(*kind_tag as usize % KIND_TAGS);
                        scratch.arg_slot_idx.push(Tok::Slot(*slot).vocab_index());
                        1
                    }
                    NodeKind::Block {
                        covered,
                        target,
                        tokens,
                        ..
                    } => {
                        if !tokens.is_empty() {
                            scratch.block_rows_tokens.push((row, tokens.len()));
                            for t in tokens {
                                scratch.tok_idx.push(t.vocab_index());
                                scratch.tok_owner.push(row);
                            }
                        }
                        if *covered {
                            2
                        } else {
                            if *target {
                                scratch.target_rows.push(row);
                                scratch.tgt_owner.push(gi);
                                tcount[gi] += 1;
                            }
                            3
                        }
                    }
                });
            }
            for (s, dst, t) in &graph.edges {
                scratch.by_type[t.index()].0.push(base + *s as usize);
                scratch.by_type[t.index()].1.push(base + *dst as usize);
            }
            // `tcount[gi]` is final here: candidates are packed after
            // this graph's node loop.
            for (i, _) in &graph.candidates {
                scratch.cand_rows.push(base + *i as usize);
                scratch.cand_graph.push(gi);
                scratch
                    .cand_mask
                    .push(if tcount[gi] > 0 { 1.0 } else { 0.0 });
            }
            base += graph.node_count();
        }
        scratch.inv_tcount.extend(
            tcount
                .iter()
                .map(|&t| if t > 0 { 1.0 / t as f32 } else { 0.0 }),
        );

        // ---- Initial node features. -------------------------------------
        // Intermediates are freed at their last use (`Tape::free`, a
        // no-op on recording tapes): the inference working set stays a
        // handful of `n × dim` tensors at any batch width instead of
        // accumulating one per op until the tape is recycled.
        let mut h = self.class_emb.lookup(tape, &scratch.class_idx);
        if !scratch.target_rows.is_empty() {
            let tflag = self
                .class_emb
                .lookup(tape, &vec![TARGET_CLASS; scratch.target_rows.len()]);
            let prev = h;
            h = tape.add_scatter_rows(h, tflag, &scratch.target_rows);
            tape.free(prev);
            tape.free(tflag);
        }
        if !scratch.sys_rows.is_empty() {
            let e = self.sys_emb.lookup(tape, &scratch.sys_idx);
            let prev = h;
            h = tape.add_scatter_rows(h, e, &scratch.sys_rows);
            tape.free(prev);
            tape.free(e);
        }
        if !scratch.arg_rows.is_empty() {
            let k = self.kind_emb.lookup(tape, &scratch.arg_kind_idx);
            let s = self.tok_emb.lookup(tape, &scratch.arg_slot_idx);
            let ks = tape.add(k, s);
            tape.free(k);
            tape.free(s);
            let prev = h;
            h = tape.add_scatter_rows(h, ks, &scratch.arg_rows);
            tape.free(prev);
            tape.free(ks);
        }
        if !scratch.tok_idx.is_empty() {
            let encoded = self.encode_blocks(
                tape,
                &scratch.tok_idx,
                &scratch.tok_owner,
                &scratch.block_rows_tokens,
                n,
            );
            let prev = h;
            h = tape.add(h, encoded);
            tape.free(prev);
            tape.free(encoded);
        }
        let pre_norm = h;
        h = tape.rms_norm_rows(h);
        tape.free(pre_norm);

        // ---- Relational message passing. ----------------------------------
        let mut indeg = vec![0f32; n];
        for (_, dsts) in scratch.by_type.iter() {
            for &d in dsts {
                indeg[d] += 1.0;
            }
        }
        scratch
            .inv_deg
            .extend(indeg.iter().map(|&x| if x > 0.0 { 1.0 / x } else { 0.0 }));

        let h0 = h;
        for _ in 0..self.config.rounds {
            let total = self.self_w.apply(tape, h);
            let mut agg: Option<Var> = None;
            for (t, (srcs, dsts)) in scratch.by_type.iter().enumerate() {
                if srcs.is_empty() {
                    continue;
                }
                let msg = if tape.is_recording() {
                    let msrc = tape.gather_rows(h, srcs);
                    self.edge_w[t].apply(tape, msrc)
                } else {
                    // Gather fused into the GEMM pack: the edges×dim
                    // source matrix is never materialized
                    // (bit-identical; see `Tape::gather_linear`).
                    self.edge_w[t].apply_gathered(tape, h, srcs)
                };
                // Fused accumulate: one scatter into the running sum
                // instead of a zeroed n×dim scatter plus a full add per
                // edge type (bit-identical; see `Tape::add_scatter_rows`).
                agg = Some(match agg {
                    Some(a) => {
                        let next = tape.add_scatter_rows(a, msg, dsts);
                        tape.free(a);
                        next
                    }
                    None => tape.scatter_add_rows(msg, dsts, n),
                });
                tape.free(msg);
            }
            let activated = match agg {
                // Forward-only tapes take the fused normalize+add+relu
                // kernel: one memory pass instead of three, bit-identical
                // values (see `Tape::scale_rows_add_relu`).
                Some(a) if !tape.is_recording() => {
                    let act = tape.scale_rows_add_relu(total, a, &scratch.inv_deg);
                    tape.free(a);
                    tape.free(total);
                    act
                }
                Some(a) => {
                    let normed = tape.scale_rows(a, &scratch.inv_deg);
                    tape.free(a);
                    let summed = tape.add(total, normed);
                    tape.free(total);
                    tape.free(normed);
                    let act = tape.relu(summed);
                    tape.free(summed);
                    act
                }
                None => {
                    let act = tape.relu(total);
                    tape.free(total);
                    act
                }
            };
            // Residual connection: keep initial features (slot/type
            // embeddings) available to the head after many rounds.
            let prev = h;
            h = if tape.is_recording() {
                let res = tape.add(h, activated);
                tape.rms_norm_rows(res)
            } else {
                // Fused residual+norm, bit-identical values (see
                // `Tape::add_rms_norm_rows`).
                tape.add_rms_norm_rows(h, activated)
            };
            tape.free(activated);
            if prev != h0 {
                tape.free(prev);
            }
        }

        // ---- Scoring head over candidate argument vertices. -----------------
        // Each candidate is scored from its own embedding plus its
        // interaction with a pooled summary of its *own graph's* target
        // vertices (a standard conditioned readout: the MUTATE decision
        // depends on *which* coverage is desired, not just on the
        // argument). Candidates of graphs with no targets have the
        // interaction terms masked to exact zero — the single-graph
        // no-target pass adds nothing, and neither may the batch.
        let cand = tape.gather_rows(h, &scratch.cand_rows);
        let mut z = self.head1.apply(tape, cand);
        if !scratch.target_rows.is_empty() {
            // Final-state interaction: candidate ⊙ pooled target.
            let tsel = tape.gather_rows(h, &scratch.target_rows);
            if h != h0 {
                tape.free(h);
            }
            let tsum = tape.scatter_add_rows(tsel, &scratch.tgt_owner, g_count);
            tape.free(tsel);
            let tpool = tape.scale_rows(tsum, &scratch.inv_tcount);
            tape.free(tsum);
            let tb = tape.gather_rows(tpool, &scratch.cand_graph);
            tape.free(tpool);
            let interact = tape.mul(cand, tb);
            tape.free(tb);
            tape.free(cand);
            let pre = self.head_t.apply(tape, interact);
            tape.free(interact);
            let zt = tape.scale_rows(pre, &scratch.cand_mask);
            tape.free(pre);
            let prev = z;
            z = tape.add(z, zt);
            tape.free(prev);
            tape.free(zt);
            // Initial-feature interaction: the raw slot/type embeddings
            // of candidate and targets, before message passing mixes
            // them — the shortest path for slot matching.
            let cand0 = tape.gather_rows(h0, &scratch.cand_rows);
            let tsel0 = tape.gather_rows(h0, &scratch.target_rows);
            tape.free(h0);
            let tsum0 = tape.scatter_add_rows(tsel0, &scratch.tgt_owner, g_count);
            tape.free(tsel0);
            let tpool0 = tape.scale_rows(tsum0, &scratch.inv_tcount);
            tape.free(tsum0);
            let tb0 = tape.gather_rows(tpool0, &scratch.cand_graph);
            tape.free(tpool0);
            let interact0 = tape.mul(cand0, tb0);
            tape.free(tb0);
            tape.free(cand0);
            let pre0 = self.head_t0.apply(tape, interact0);
            tape.free(interact0);
            let zt0 = tape.scale_rows(pre0, &scratch.cand_mask);
            tape.free(pre0);
            let prev = z;
            z = tape.add(z, zt0);
            tape.free(prev);
            tape.free(zt0);
        } else {
            if h != h0 {
                tape.free(h);
            }
            tape.free(h0);
            tape.free(cand);
        }
        let pre = z;
        let z = tape.relu(z);
        tape.free(pre);
        let logits = self.head2.apply(tape, z);
        tape.free(z);
        logits
    }

    /// Encodes each block's token sequence into its node row
    /// (`n × dim`, zero rows for non-block nodes).
    fn encode_blocks(
        &self,
        tape: &mut Tape<'_>,
        tok_idx: &[usize],
        tok_owner: &[usize],
        block_rows_tokens: &[(usize, usize)],
        n: usize,
    ) -> Var {
        let toks = self.tok_emb.lookup(tape, tok_idx);
        let toks = if self.config.attention {
            // Single-head self-attention *within* each block, over the
            // flat token matrix one block at a time.
            let qkv = self.attn_qkv.apply(tape, toks);
            tape.free(toks);
            let scale = 1.0 / (self.config.dim as f32).sqrt();
            let mut parts: Option<Var> = None;
            let mut offset = 0usize;
            for &(_, len) in block_rows_tokens {
                let rows: Vec<usize> = (offset..offset + len).collect();
                let q = tape.gather_rows(qkv, &rows);
                let raw = tape.matmul_t(q, q);
                let scores = tape.scale(raw, scale);
                tape.free(raw);
                let attn = tape.softmax_rows(scores);
                tape.free(scores);
                let mixed = tape.matmul(attn, q);
                tape.free(attn);
                tape.free(q);
                let flat = tape.scatter_add_rows(mixed, &rows, tok_idx.len());
                tape.free(mixed);
                parts = Some(match parts {
                    Some(p) => {
                        let next = tape.add(p, flat);
                        tape.free(p);
                        tape.free(flat);
                        next
                    }
                    None => flat,
                });
                offset += len;
            }
            tape.free(qkv);
            // Invariant: the loop above ran at least once (the
            // enclosing branch requires a nonempty block list).
            parts.expect("at least one block has tokens")
        } else {
            toks
        };
        // Mean-pool per owning block, then project.
        let summed = tape.scatter_add_rows(toks, tok_owner, n);
        tape.free(toks);
        let mut inv = vec![0f32; n];
        for &(row, len) in block_rows_tokens {
            inv[row] = 1.0 / len.max(1) as f32;
        }
        let pooled = tape.scale_rows(summed, &inv);
        tape.free(summed);
        let proj = self.enc_proj.apply(tape, pooled);
        tape.free(pooled);
        let activated = tape.relu(proj);
        tape.free(proj);
        // Zero out non-block rows so the projection bias does not leak
        // into syscall/arg nodes.
        let mut mask = vec![0f32; n];
        for &(row, _) in block_rows_tokens {
            mask[row] = 1.0;
        }
        let out = tape.scale_rows(activated, &mask);
        tape.free(activated);
        out
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snowplow_kernel::{Kernel, KernelVersion, Vm};
    use snowplow_prog::gen::Generator;

    use super::*;

    fn graph_for(seed: u64, kernel: &Kernel) -> QueryGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let prog = Generator::new(kernel.registry()).generate(&mut rng, 4);
        let mut vm = Vm::new(kernel);
        let exec = vm.execute(&prog);
        let cov = exec.coverage();
        let frontier = kernel.cfg().alternative_entries(&cov);
        QueryGraph::build(kernel, &prog, &exec, &frontier[..frontier.len().min(3)])
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let g = graph_for(1, &kernel);
        let mut model = Pmm::new(PmmConfig::default(), kernel.registry().syscall_count());
        let a = model.predict(&g);
        let b = model.predict(&g);
        assert_eq!(a.len(), g.candidate_count());
        assert_eq!(a, b, "prediction must be deterministic");
        for (_, p) in &a {
            assert!((0.0..=1.0).contains(p));
        }
    }

    #[test]
    fn attention_encoder_also_runs() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let g = graph_for(2, &kernel);
        let mut model = Pmm::new(
            PmmConfig {
                attention: true,
                dim: 32,
                rounds: 2,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let preds = model.predict(&g);
        assert_eq!(preds.len(), g.candidate_count());
    }

    #[test]
    fn loss_and_backward_accumulates_gradients() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let g = graph_for(5, &kernel);
        let mut model = Pmm::new(
            PmmConfig {
                dim: 24,
                rounds: 2,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let labels: Vec<f32> = (0..g.candidate_count())
            .map(|i| if i % 7 == 0 { 1.0 } else { 0.0 })
            .collect();
        let weights = vec![1.0; g.candidate_count()];
        let loss = model.loss_and_backward(&g, &labels, &weights);
        assert!(loss.is_finite() && loss > 0.0);
        // At least one parameter received gradient signal.
        let total_grad: f32 = (0..model.params.len())
            .map(|i| model.params.grad(snowplow_mlcore::ParamId(i)).norm())
            .sum();
        assert!(total_grad > 0.0);
    }

    #[test]
    fn predict_batch_matches_per_graph_predict_exactly() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let mut model = Pmm::new(
            PmmConfig {
                dim: 32,
                rounds: 2,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );

        // A mixed-size batch: several real graphs, one with its targets
        // stripped (no-target readout path), an empty graph, and a
        // single-node graph with one candidate.
        let mut graphs: Vec<QueryGraph> = (10..14).map(|s| graph_for(s, &kernel)).collect();
        let mut untargeted = graph_for(14, &kernel);
        for node in &mut untargeted.nodes {
            if let NodeKind::Block { target, .. } = node {
                *target = false;
            }
        }
        graphs.push(untargeted);
        graphs.push(QueryGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            candidates: Vec::new(),
        });
        graphs.push(QueryGraph {
            nodes: vec![NodeKind::Arg {
                kind_tag: 3,
                slot: 17,
                mutable: true,
            }],
            edges: Vec::new(),
            candidates: vec![(0, ArgLoc::new(0, snowplow_syslang::ArgPath::root()))],
        });

        let batched = model.predict_batch(&graphs);
        assert_eq!(batched.len(), graphs.len());
        for (g, batch_scores) in graphs.iter().zip(&batched) {
            let single = model.predict(g);
            // Bit-exact equality, not approximate: the batch must be a
            // true disjoint union.
            assert_eq!(&single, batch_scores);
        }
        assert!(batched[5].is_empty(), "empty graph has no candidates");
        assert_eq!(batched[6].len(), 1, "single-node graph scores its arg");
    }

    #[test]
    fn parallel_predict_batch_is_bit_identical_to_serial() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let mut model = Pmm::new(PmmConfig::default(), kernel.registry().syscall_count());
        // A batch big enough that the packed union crosses the tape's
        // 256-row parallel threshold and actually exercises the
        // row-sharded kernels.
        let graphs: Vec<QueryGraph> = (20..32).map(|s| graph_for(s, &kernel)).collect();
        let serial = model.predict_batch(&graphs);
        for workers in [1usize, 2, 8] {
            model.set_inference_workers(workers);
            let par = model.predict_batch(&graphs);
            assert_eq!(serial, par, "workers={workers} diverged from serial");
        }
        model.set_inference_workers(1);
    }

    #[test]
    fn quantize_none_is_a_noop_and_f16_stays_close() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let n = kernel.registry().syscall_count();
        let g = graph_for(6, &kernel);

        let mut plain = Pmm::new(PmmConfig::default(), n);
        let before = plain.predict(&g);
        let stats = plain.quantize_for_inference();
        assert_eq!(stats, snowplow_mlcore::QuantStats::default());
        assert_eq!(
            plain.predict(&g),
            before,
            "Quantize::None must be bit-exact"
        );

        let mut f16 = Pmm::new(
            PmmConfig {
                quantize: Quantize::F16,
                ..PmmConfig::default()
            },
            n,
        );
        let unquantized = f16.predict(&g);
        let stats = f16.quantize_for_inference();
        assert!(stats.scalars == f16.parameter_count() && stats.max_abs_delta > 0.0);
        let quantized = f16.predict(&g);
        assert_eq!(quantized.len(), unquantized.len());
        // Probabilities move by at most a small epsilon under f16
        // weight rounding (the model is far from the rounding scale).
        for ((la, pa), (lb, pb)) in unquantized.iter().zip(&quantized) {
            assert_eq!(la, lb, "f16 rounding must not reorder these scores");
            assert!((pa - pb).abs() < 5e-3, "prob moved {pa} -> {pb}");
        }
        // Idempotent: re-freezing changes nothing.
        let again = f16.quantize_for_inference();
        assert_eq!(again.max_abs_delta, 0.0);
        assert_eq!(f16.predict(&g), quantized);
    }

    #[test]
    fn predict_set_thresholds_and_falls_back() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let g = graph_for(3, &kernel);
        let mut model = Pmm::new(PmmConfig::default(), kernel.registry().syscall_count());
        let all = model.predict_set(&g, 0.0);
        assert_eq!(all.len(), g.candidate_count());
        let none = model.predict_set(&g, 1.1);
        assert_eq!(none.len(), 1, "fallback returns the best candidate");
    }

    #[test]
    fn save_load_round_trip() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let g = graph_for(4, &kernel);
        let n = kernel.registry().syscall_count();
        let mut model = Pmm::new(PmmConfig::default(), n);
        let before = model.predict(&g);
        let dir = std::env::temp_dir().join("snowplow_pmm_model_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pmm.bin");
        model.save(&path).unwrap();
        let mut fresh = Pmm::new(
            PmmConfig {
                seed: 999, // different init, same shapes
                ..PmmConfig::default()
            },
            n,
        );
        fresh.load(&path).unwrap();
        assert_eq!(fresh.predict(&g), before);
    }

    #[test]
    fn load_rejects_a_quantize_mismatch_and_leaves_params_untouched() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let n = kernel.registry().syscall_count();
        let dir = std::env::temp_dir().join("snowplow_pmm_model_meta_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pmm.bin");
        let f16 = Pmm::new(
            PmmConfig {
                quantize: Quantize::F16,
                seed: 999,
                ..PmmConfig::default()
            },
            n,
        );
        f16.save(&path).unwrap();

        let mut plain = Pmm::new(PmmConfig::default(), n);
        let bits = |m: &Pmm| -> Vec<Vec<u32>> {
            (0..m.params.len())
                .map(|i| {
                    let id = snowplow_mlcore::ParamId(i);
                    m.params
                        .get(id)
                        .data()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                })
                .collect()
        };
        let before = bits(&plain);
        let err = plain.load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("quantize"), "{err}");
        assert_eq!(bits(&plain), before);
    }
}
