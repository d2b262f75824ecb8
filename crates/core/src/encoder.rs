//! The Binary Tree-LSTM AST encoder (paper §III-B, equations 1–7).

use std::collections::HashMap;

use rand::Rng;

use asteria_nn::{Embedding, Graph, NodeId, ParamId, ParamStore, Tensor};

use crate::binarize::BinTree;

/// Initialization of the (absent) child states of leaf nodes — the paper's
/// Fig. 9 "Leaf-0 vs Leaf-1" ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafInit {
    /// All-zeros hidden/cell states (the paper's default, and winner).
    Zeros,
    /// All-ones hidden/cell states.
    Ones,
}

/// The Binary Tree-LSTM network 𝒩(·).
///
/// One set of weights encodes any tree bottom-up: for every node the two
/// forget gates (eq. 1–2), input and output gates (eq. 3–4) and the cached
/// state (eq. 5) combine the node's embedding with its children's hidden
/// states; the cell and hidden states (eq. 6–7) then propagate upward. The
/// hidden state of the root is the encoding of the AST.
#[derive(Debug, Clone, Copy)]
pub struct TreeLstm {
    emb: Embedding,
    // Forget gates (shared W and bias, four U matrices — eq. 1–2).
    w_f: ParamId,
    u_f_ll: ParamId,
    u_f_lr: ParamId,
    u_f_rl: ParamId,
    u_f_rr: ParamId,
    b_f: ParamId,
    // Input gate (eq. 3).
    w_i: ParamId,
    u_i_l: ParamId,
    u_i_r: ParamId,
    b_i: ParamId,
    // Output gate (eq. 4).
    w_o: ParamId,
    u_o_l: ParamId,
    u_o_r: ParamId,
    b_o: ParamId,
    // Cached state (eq. 5).
    w_u: ParamId,
    u_u_l: ParamId,
    u_u_r: ParamId,
    b_u: ParamId,
    hidden: usize,
    leaf_init: LeafInit,
}

impl TreeLstm {
    /// Registers all Tree-LSTM parameters in `store`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        vocab: usize,
        embed_dim: usize,
        hidden_dim: usize,
        leaf_init: LeafInit,
        rng: &mut R,
    ) -> Self {
        let emb = Embedding::new(store, "tlstm.emb", vocab, embed_dim, rng);
        let w = |store: &mut ParamStore, name: &str, rng: &mut R| {
            store.add(name, Tensor::xavier(hidden_dim, embed_dim, rng))
        };
        let u = |store: &mut ParamStore, name: &str, rng: &mut R| {
            store.add(name, Tensor::xavier(hidden_dim, hidden_dim, rng))
        };
        let b = |store: &mut ParamStore, name: &str| store.add(name, Tensor::zeros(hidden_dim, 1));
        TreeLstm {
            emb,
            w_f: w(store, "tlstm.w_f", rng),
            u_f_ll: u(store, "tlstm.u_f_ll", rng),
            u_f_lr: u(store, "tlstm.u_f_lr", rng),
            u_f_rl: u(store, "tlstm.u_f_rl", rng),
            u_f_rr: u(store, "tlstm.u_f_rr", rng),
            b_f: b(store, "tlstm.b_f"),
            w_i: w(store, "tlstm.w_i", rng),
            u_i_l: u(store, "tlstm.u_i_l", rng),
            u_i_r: u(store, "tlstm.u_i_r", rng),
            b_i: b(store, "tlstm.b_i"),
            w_o: w(store, "tlstm.w_o", rng),
            u_o_l: u(store, "tlstm.u_o_l", rng),
            u_o_r: u(store, "tlstm.u_o_r", rng),
            b_o: b(store, "tlstm.b_o"),
            w_u: w(store, "tlstm.w_u", rng),
            u_u_l: u(store, "tlstm.u_u_l", rng),
            u_u_r: u(store, "tlstm.u_u_r", rng),
            b_u: b(store, "tlstm.b_u"),
            hidden: hidden_dim,
            leaf_init,
        }
    }

    /// Hidden (encoding) dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Embedding dimension.
    pub fn embed_dim(&self) -> usize {
        self.emb.dim()
    }

    /// Encodes a binarized AST on the autograd tape, returning the root's
    /// hidden-state node: the training path, and the oracle that the
    /// inference kernel must match bit for bit.
    ///
    /// Evaluation is an explicit post-order loop: the computation shape
    /// follows the tree, which is why the paper (§IV) trains one tree at a
    /// time. That limit is the tape's; inference
    /// ([`crate::AsteriaModel::encode_forest`]) evaluates a whole forest
    /// at once, sharing its equal subtrees.
    pub fn encode(&self, g: &mut Graph, store: &ParamStore, tree: &BinTree) -> NodeId {
        // Hoist parameter reads so each weight appears once on the tape.
        let w_f = g.param(store, self.w_f);
        let u_f_ll = g.param(store, self.u_f_ll);
        let u_f_lr = g.param(store, self.u_f_lr);
        let u_f_rl = g.param(store, self.u_f_rl);
        let u_f_rr = g.param(store, self.u_f_rr);
        let b_f = g.param(store, self.b_f);
        let w_i = g.param(store, self.w_i);
        let u_i_l = g.param(store, self.u_i_l);
        let u_i_r = g.param(store, self.u_i_r);
        let b_i = g.param(store, self.b_i);
        let w_o = g.param(store, self.w_o);
        let u_o_l = g.param(store, self.u_o_l);
        let u_o_r = g.param(store, self.u_o_r);
        let b_o = g.param(store, self.b_o);
        let w_u = g.param(store, self.w_u);
        let u_u_l = g.param(store, self.u_u_l);
        let u_u_r = g.param(store, self.u_u_r);
        let b_u = g.param(store, self.b_u);

        let init = match self.leaf_init {
            LeafInit::Zeros => g.input(Tensor::zeros(self.hidden, 1)),
            LeafInit::Ones => g.input(Tensor::ones(self.hidden, 1)),
        };

        let mut states: Vec<Option<(NodeId, NodeId)>> = vec![None; tree.size()];
        for k in tree.postorder() {
            let (h_l, c_l) = tree
                .left(k)
                .map(|c| states[c as usize].expect("postorder"))
                .unwrap_or((init, init));
            let (h_r, c_r) = tree
                .right(k)
                .map(|c| states[c as usize].expect("postorder"))
                .unwrap_or((init, init));
            let e_k = self.emb.lookup(g, store, tree.label(k) as usize);

            // Shared affine pieces.
            let wf_e = g.matvec(w_f, e_k);
            // f_kl = σ(W^f e + U_ll h_l + U_lr h_r + b)      (eq. 1)
            let f_l = {
                let t1 = g.matvec(u_f_ll, h_l);
                let t2 = g.matvec(u_f_lr, h_r);
                let s = g.add3(wf_e, t1, t2);
                let s = g.add(s, b_f);
                g.sigmoid(s)
            };
            // f_kr = σ(W^f e + U_rl h_l + U_rr h_r + b)      (eq. 2)
            let f_r = {
                let t1 = g.matvec(u_f_rl, h_l);
                let t2 = g.matvec(u_f_rr, h_r);
                let s = g.add3(wf_e, t1, t2);
                let s = g.add(s, b_f);
                g.sigmoid(s)
            };
            // i_k (eq. 3)
            let i_k = {
                let we = g.matvec(w_i, e_k);
                let t1 = g.matvec(u_i_l, h_l);
                let t2 = g.matvec(u_i_r, h_r);
                let s = g.add3(we, t1, t2);
                let s = g.add(s, b_i);
                g.sigmoid(s)
            };
            // o_k (eq. 4)
            let o_k = {
                let we = g.matvec(w_o, e_k);
                let t1 = g.matvec(u_o_l, h_l);
                let t2 = g.matvec(u_o_r, h_r);
                let s = g.add3(we, t1, t2);
                let s = g.add(s, b_o);
                g.sigmoid(s)
            };
            // u_k (eq. 5) — tanh to retain signed information.
            let u_k = {
                let we = g.matvec(w_u, e_k);
                let t1 = g.matvec(u_u_l, h_l);
                let t2 = g.matvec(u_u_r, h_r);
                let s = g.add3(we, t1, t2);
                let s = g.add(s, b_u);
                g.tanh(s)
            };
            // c_k = i⊙u + c_l⊙f_l + c_r⊙f_r (eq. 6)
            let c_k = {
                let a = g.hadamard(i_k, u_k);
                let bterm = g.hadamard(c_l, f_l);
                let cterm = g.hadamard(c_r, f_r);
                g.add3(a, bterm, cterm)
            };
            // h_k = o ⊙ tanh(c) (eq. 7)
            let h_k = {
                let t = g.tanh(c_k);
                g.hadamard(o_k, t)
            };
            states[k as usize] = Some((h_k, c_k));
        }
        states[tree.root() as usize].expect("root encoded").0
    }
}

/// Marks an absent child in a hash-consing key.
const ABSENT: u32 = u32::MAX;

/// The tape-free Tree-LSTM forward pass, bit-identical to
/// [`TreeLstm::encode`].
///
/// Weights are re-laid out once: the five U matrices acting on each child
/// are stacked (gate blocks in the order `f_l, f_r, i, o, u`) and
/// transposed into `[k][5h]` slabs, `W·e` is tabulated per label, and
/// `U·init` is precomputed for absent children. Every output row still
/// accumulates `u[r][k] * x[k]` from `0.0` in ascending `k` and every gate
/// sums `((W·e + U_l·h_l) + U_r·h_r) + b`, exactly as the tape does, so the
/// work vectorizes across rows without reordering any row's sum.
#[derive(Debug, Clone)]
pub(crate) struct InferenceKernel {
    hidden: usize,
    vocab: usize,
    /// `W·e` per label, `[vocab][5h]`.
    we: Vec<f32>,
    /// U matrices acting on the left child's hidden state, `[k][5h]`.
    u_left: Vec<f32>,
    /// U matrices acting on the right child's hidden state, `[k][5h]`.
    u_right: Vec<f32>,
    /// `U_l·init` for an absent left child, `[5h]`.
    init_left: Vec<f32>,
    /// `U_r·init` for an absent right child, `[5h]`.
    init_right: Vec<f32>,
    /// Biases, `[5h]`.
    bias: Vec<f32>,
    /// The cell state of an absent child (every element).
    init: f32,
}

impl InferenceKernel {
    /// Re-lays the weights of `t` in `store` out for inference.
    pub(crate) fn new(t: &TreeLstm, store: &ParamStore) -> InferenceKernel {
        let h = t.hidden;
        let init = match t.leaf_init {
            LeafInit::Zeros => 0.0,
            LeafInit::Ones => 1.0,
        };
        let init_vec = Tensor::full(h, 1, init);
        let stack = |ids: [ParamId; 5]| -> (Vec<f32>, Vec<f32>) {
            let mut slab = vec![0.0; h * 5 * h];
            let mut at_init = Vec::with_capacity(5 * h);
            for (g, id) in ids.into_iter().enumerate() {
                let u = store.value(id);
                let data = u.as_slice();
                for r in 0..h {
                    for k in 0..h {
                        slab[k * 5 * h + g * h + r] = data[r * h + k];
                    }
                }
                at_init.extend_from_slice(u.matvec(&init_vec).as_slice());
            }
            (slab, at_init)
        };
        let (u_left, init_left) = stack([t.u_f_ll, t.u_f_rl, t.u_i_l, t.u_o_l, t.u_u_l]);
        let (u_right, init_right) = stack([t.u_f_lr, t.u_f_rr, t.u_i_r, t.u_o_r, t.u_u_r]);
        let emb = store.value(t.emb.weight());
        let ws = [t.w_f, t.w_f, t.w_i, t.w_o, t.w_u];
        let mut we = Vec::with_capacity(t.emb.vocab() * 5 * h);
        for label in 0..t.emb.vocab() {
            let e = emb.row_vector(label);
            for w in ws {
                we.extend_from_slice(store.value(w).matvec(&e).as_slice());
            }
        }
        let mut bias = Vec::with_capacity(5 * h);
        for b in [t.b_f, t.b_f, t.b_i, t.b_o, t.b_u] {
            bias.extend_from_slice(store.value(b).as_slice());
        }
        InferenceKernel {
            hidden: h,
            vocab: t.emb.vocab(),
            we,
            u_left,
            u_right,
            init_left,
            init_right,
            bias,
            init,
        }
    }

    /// Encodes every tree of a forest, returning the root hidden states in
    /// input order.
    ///
    /// Subtrees are hash-consed by `(label, left cell, right cell)`: a
    /// cell's state depends on nothing else, so each distinct cell is
    /// evaluated once and sharing is exact. Records one
    /// `asteria_encode_seconds` observation per call, every binarized node
    /// in `asteria_treelstm_cells_total` and every cell actually evaluated
    /// in `asteria_treelstm_cells_evaluated_total`.
    ///
    /// # Panics
    ///
    /// Panics if a label is outside the embedding vocabulary (as the tape
    /// does).
    pub(crate) fn encode_forest(&self, trees: &[&BinTree]) -> Vec<Vec<f32>> {
        let timer = asteria_obs::timer();
        let h = self.hidden;
        let mut cells: HashMap<(u16, u32, u32), u32> = HashMap::new();
        // Hidden then cell state of each distinct cell, `[cell][2h]`.
        let mut states: Vec<f32> = Vec::new();
        let mut scratch = Scratch::new(h);
        let mut ids: Vec<u32> = Vec::new();
        let mut nodes = 0u64;
        let mut roots = Vec::with_capacity(trees.len());
        for tree in trees {
            nodes += tree.size() as u64;
            ids.clear();
            ids.resize(tree.size(), ABSENT);
            for n in tree.postorder() {
                let label = tree.label(n);
                let l = tree.left(n).map_or(ABSENT, |c| ids[c as usize]);
                let r = tree.right(n).map_or(ABSENT, |c| ids[c as usize]);
                let next = cells.len() as u32;
                let id = *cells.entry((label, l, r)).or_insert(next);
                if id == next {
                    let state = |id: u32| {
                        let at = id as usize * 2 * h;
                        states[at..at + 2 * h].split_at(h)
                    };
                    let left = (l != ABSENT).then(|| state(l));
                    let right = (r != ABSENT).then(|| state(r));
                    self.cell(label, left, right, &mut scratch);
                    states.extend_from_slice(&scratch.state);
                }
                ids[n as usize] = id;
            }
            roots.push(ids[tree.root() as usize]);
        }
        let out = roots
            .into_iter()
            .map(|id| states[id as usize * 2 * h..][..h].to_vec())
            .collect();
        timer.observe_seconds("asteria_encode_seconds", &[]);
        asteria_obs::counter_add("asteria_treelstm_cells_total", &[], nodes);
        asteria_obs::counter_add(
            "asteria_treelstm_cells_evaluated_total",
            &[],
            cells.len() as u64,
        );
        out
    }

    /// Evaluates one cell (eq. 1–7) from its label and its children's
    /// `(h, c)` states, `None` for an absent child, into `s.state`.
    fn cell(
        &self,
        label: u16,
        left: Option<(&[f32], &[f32])>,
        right: Option<(&[f32], &[f32])>,
        s: &mut Scratch,
    ) {
        let h = self.hidden;
        let n = 5 * h;
        let label = label as usize;
        assert!(
            label < self.vocab,
            "embedding index {label} out of range {}",
            self.vocab
        );
        let we = &self.we[label * n..(label + 1) * n];
        let ul = match left {
            Some((h_l, _)) => matvec_t(&self.u_left, h_l, &mut s.acc_left),
            None => &self.init_left,
        };
        let ur = match right {
            Some((h_r, _)) => matvec_t(&self.u_right, h_r, &mut s.acc_right),
            None => &self.init_right,
        };
        let gates = &mut s.gates;
        for ((((g, &w), &a), &b), &bias) in gates.iter_mut().zip(we).zip(ul).zip(ur).zip(&self.bias)
        {
            *g = ((w + a) + b) + bias;
        }
        // Sigmoid for f_l, f_r, i, o (eq. 1–4); tanh for u (eq. 5).
        let (sig, u_g) = gates.split_at_mut(4 * h);
        for g in sig.iter_mut() {
            *g = 1.0 / (1.0 + (-*g).exp());
        }
        for g in u_g.iter_mut() {
            *g = g.tanh();
        }
        let (f_l, rest) = sig.split_at(h);
        let (f_r, rest) = rest.split_at(h);
        let (i_g, o_g) = rest.split_at(h);
        let (h_out, c_out) = s.state.split_at_mut(h);
        for j in 0..h {
            let c_l = left.map_or(self.init, |(_, c)| c[j]);
            let c_r = right.map_or(self.init, |(_, c)| c[j]);
            // c = i⊙u + c_l⊙f_l + c_r⊙f_r (eq. 6); h = o⊙tanh(c) (eq. 7).
            c_out[j] = (i_g[j] * u_g[j] + c_l * f_l[j]) + c_r * f_r[j];
            h_out[j] = o_g[j] * c_out[j].tanh();
        }
    }
}

/// Per-forest working buffers of [`InferenceKernel::cell`].
struct Scratch {
    acc_left: Vec<f32>,
    acc_right: Vec<f32>,
    gates: Vec<f32>,
    /// The evaluated cell: hidden then cell state, `[2h]`.
    state: Vec<f32>,
}

impl Scratch {
    fn new(h: usize) -> Scratch {
        Scratch {
            acc_left: vec![0.0; 5 * h],
            acc_right: vec![0.0; 5 * h],
            gates: vec![0.0; 5 * h],
            state: vec![0.0; 2 * h],
        }
    }
}

/// Rows accumulated together in registers by [`matvec_t`].
const TILE: usize = 32;

/// `acc = Uᵀ-slab · x` with `slab` laid out `[k][rows]`: every row sums
/// from `0.0` in ascending `k`, the order of `Tensor::matvec`. Rows are
/// taken `TILE` at a time so their partial sums stay in registers.
fn matvec_t<'a>(slab: &[f32], x: &[f32], acc: &'a mut [f32]) -> &'a [f32] {
    let n = acc.len();
    let tiled = n - n % TILE;
    for at in (0..tiled).step_by(TILE) {
        let mut sums = [0.0f32; TILE];
        for (row, &xk) in slab.chunks_exact(n).zip(x) {
            let row: &[f32; TILE] = row[at..at + TILE].try_into().expect("tile in row");
            for (s, &u) in sums.iter_mut().zip(row) {
                *s += u * xk;
            }
        }
        acc[at..at + TILE].copy_from_slice(&sums);
    }
    let tail = &mut acc[tiled..];
    tail.fill(0.0);
    for (row, &xk) in slab.chunks_exact(n).zip(x) {
        for (s, &u) in tail.iter_mut().zip(&row[tiled..]) {
            *s += u * xk;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::binarize;
    use crate::nodes::{AstTree, NodeType};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(leaf: LeafInit) -> (ParamStore, TreeLstm) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let t = TreeLstm::new(&mut store, NodeType::VOCAB, 8, 12, leaf, &mut rng);
        (store, t)
    }

    /// One tree through the inference kernel.
    fn encode(tl: &TreeLstm, store: &ParamStore, tree: &BinTree) -> Vec<f32> {
        InferenceKernel::new(tl, store)
            .encode_forest(&[tree])
            .remove(0)
    }

    /// One tree through the autograd tape: the oracle for the kernel.
    fn tape(tl: &TreeLstm, store: &ParamStore, tree: &BinTree) -> Vec<f32> {
        let mut g = Graph::new();
        let h = tl.encode(&mut g, store, tree);
        g.value(h).as_slice().to_vec()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn small_tree() -> BinTree {
        let mut t = AstTree::with_root(NodeType::Block);
        let r = t.root();
        let i = t.add(r, NodeType::If);
        t.add(i, NodeType::CmpGt);
        t.add(i, NodeType::Block);
        t.add(r, NodeType::Return);
        binarize(&t)
    }

    #[test]
    fn encoding_has_hidden_dim() {
        let (store, tl) = setup(LeafInit::Zeros);
        let v = encode(&tl, &store, &small_tree());
        assert_eq!(v.len(), 12);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn encoding_is_deterministic() {
        let (store, tl) = setup(LeafInit::Zeros);
        let a = encode(&tl, &store, &small_tree());
        let b = encode(&tl, &store, &small_tree());
        assert_eq!(a, b);
    }

    #[test]
    fn different_trees_encode_differently() {
        let (store, tl) = setup(LeafInit::Zeros);
        let a = encode(&tl, &store, &small_tree());
        let mut t2 = AstTree::with_root(NodeType::Block);
        let r = t2.root();
        t2.add(r, NodeType::While);
        let b = encode(&tl, &store, &binarize(&t2));
        assert_ne!(a, b);
    }

    #[test]
    fn leaf_init_changes_encoding() {
        let (store_z, tl_z) = setup(LeafInit::Zeros);
        let (store_o, tl_o) = setup(LeafInit::Ones);
        // Same seed → same weights; only the leaf init differs.
        let a = encode(&tl_z, &store_z, &small_tree());
        let b = encode(&tl_o, &store_o, &small_tree());
        assert_ne!(a, b);
    }

    #[test]
    fn node_order_matters() {
        // Binary Tree-LSTM (unlike Child-Sum) distinguishes child order —
        // the reason the paper picks it (§II-C).
        let mut t1 = AstTree::with_root(NodeType::Block);
        let r1 = t1.root();
        t1.add(r1, NodeType::If);
        t1.add(r1, NodeType::Return);
        let mut t2 = AstTree::with_root(NodeType::Block);
        let r2 = t2.root();
        t2.add(r2, NodeType::Return);
        t2.add(r2, NodeType::If);
        let (store, tl) = setup(LeafInit::Zeros);
        let a = encode(&tl, &store, &binarize(&t1));
        let b = encode(&tl, &store, &binarize(&t2));
        assert_ne!(a, b, "sibling order must affect the encoding");
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let (mut store, tl) = setup(LeafInit::Zeros);
        let tree = small_tree();
        let mut g = Graph::new();
        let h = tl.encode(&mut g, &store, &tree);
        let loss = g.mse_loss(h, Tensor::zeros(12, 1));
        g.backward(loss, &mut store);
        let mut nonzero = 0;
        for id in store.ids().collect::<Vec<_>>() {
            if store.grad(id).as_slice().iter().any(|v| *v != 0.0) {
                nonzero += 1;
            }
        }
        // Every Tree-LSTM parameter should receive gradient (the embedding
        // table only at used rows, still nonzero overall).
        assert!(nonzero >= 18, "only {nonzero} params got gradients");
    }

    #[test]
    fn gradcheck_on_tiny_tree() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let tl = TreeLstm::new(&mut store, 6, 3, 4, LeafInit::Zeros, &mut rng);
        let mut t = AstTree::with_root(NodeType::Block);
        let r = t.root();
        t.add(r, NodeType::If);
        let tree = binarize(&t);
        asteria_nn::gradcheck::check_gradients(&mut store, 1e-2, 5e-2, |store, g| {
            let h = tl.encode(g, store, &tree);
            g.mse_loss(h, Tensor::full(4, 1, 0.3))
        });
    }

    /// A tree grown from a parent-pointer list over the first `labels`
    /// node types: node `i` attaches to an earlier node.
    fn grow(nodes: &[(usize, usize)], labels: usize) -> AstTree {
        let all = NodeType::all();
        let mut t = AstTree::with_root(all[0]);
        for &(parent, label) in nodes {
            let parent = (parent % t.size()) as u32;
            t.add(parent, all[label % labels]);
        }
        t
    }

    /// A forest built to share: every prefix of one node list is a tree
    /// (so later trees extend earlier ones and share their subtrees and
    /// sibling suffixes), plus a repeat and a single-node tree. A small
    /// label alphabet makes equal subtrees common inside each tree too.
    fn sharing_forest(nodes: &[(usize, usize)], labels: usize, trees: usize) -> Vec<BinTree> {
        let mut forest: Vec<BinTree> = (0..trees)
            .map(|i| binarize(&grow(&nodes[..nodes.len() * (i + 1) / trees], labels)))
            .collect();
        forest.push(forest[forest.len() - 1].clone());
        forest.push(binarize(&grow(&[], labels)));
        forest
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The kernel reproduces the tape bit for bit, alone and in a
        /// forest, at hidden sizes that are not a multiple of the vector
        /// width, for both leaf inits, with nonzero biases.
        #[test]
        fn kernel_is_bit_identical_to_the_tape(
            nodes in proptest::collection::vec((0usize..10_000, 0usize..NodeType::VOCAB), 0..60),
            labels in proptest::sample::select(vec![2usize, 5, NodeType::VOCAB]),
            hidden in proptest::sample::select(vec![1usize, 12, 20, 32]),
            embed in proptest::sample::select(vec![3usize, 8, 16]),
            ones in any::<bool>(),
            seed in any::<u64>(),
            trees in 1usize..5,
        ) {
            let leaf = if ones { LeafInit::Ones } else { LeafInit::Zeros };
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let tl = TreeLstm::new(&mut store, NodeType::VOCAB, embed, hidden, leaf, &mut rng);
            for b in ["tlstm.b_f", "tlstm.b_i", "tlstm.b_o", "tlstm.b_u"] {
                let id = store.find(b).expect("bias registered");
                *store.value_mut(id) = Tensor::uniform(hidden, 1, 0.5, &mut rng);
            }
            let forest = sharing_forest(&nodes, labels, trees);
            let refs: Vec<&BinTree> = forest.iter().collect();
            let kernel = InferenceKernel::new(&tl, &store);
            let together = kernel.encode_forest(&refs);
            prop_assert_eq!(together.len(), forest.len());
            for (tree, got) in forest.iter().zip(&together) {
                let want = bits(&tape(&tl, &store, tree));
                prop_assert_eq!(&bits(got), &want);
                prop_assert_eq!(&bits(&kernel.encode_forest(&[tree])[0]), &want);
            }
        }
    }

    #[test]
    fn empty_forest_encodes_to_nothing() {
        let (store, tl) = setup(LeafInit::Zeros);
        assert!(InferenceKernel::new(&tl, &store)
            .encode_forest(&[])
            .is_empty());
    }
}
