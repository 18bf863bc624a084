"""Single decoder block: conventional vs. fused execution, plus its op graph.

The block is pre-LN: the residual branches off before each normalization.
Three normalization sites exist per block, two norms (layernorm or
rmsnorm by variant) and the attention softmax, and each one feeds a
matrix multiplication, so each is a fusion site:

    site "ln1":     norm1 -> Q/K/V projections
    site "softmax": attention probabilities -> @ V (all heads at once)
    site "ln2":     norm2 -> first MLP projection(s)

`run_conventional` and `run_fused` are one block body; `fused` changes
only how each of the three sites meets its matmul:

    ln1, ln2: `_norm_site`: conventional normalizes the rows and makes
              one product by the site's matrix in `BlockWeights.projections`
              (Q|K|V, or the MLP's input projections, stored joined); fused
              makes one `fused_*norm_matmul` by the site's `_fold_site`,
              made once per set of weights (`BlockWeights.folded`).
              `normfusion verify` checks each norm site through these two
              functions.
    softmax:  one evaluation over all heads: conventional multiplies
              `softmax_stable(scores)` by V; fused makes one
              `fused_softmax_matmul(scores, v)`. `scores` and `v` are
              stacks per head (heads, seq, ...), as `build_graph`'s one
              softmax collective covers every head.

No score is masked: every token attends to every token, later ones
included, so the block is bidirectional, not causal.

The Q/K/V split, the heads, the residuals and the MLP tail (`gelu` then
`fc2`, or `fusion.swiglu`) are written once, so the two outputs differ
only in operation order at the sites (identical algebra, numerically
equivalent). Both paths run each site over all rows, and attention over
all heads, at once, taking every collective from the same `norms`
reduction, and each is bit-identical to evaluating the rows, and the
heads, one at a time.

`build_graph` emits the dependency graph the latency simulator schedules;
the fused graph differs from the conventional one only by cutting the
collective->matmul edge at each site and adding a deferred-scale node
after the matmul. The graph is a cost model, not the code's operation
list: the fused softmax site, for instance, feeds the raw scores straight
into the product. At a layernorm site the shifted rows `x - x[..., :1]`
that both tasks take are the site's elementwise node.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .fusion import (
    FoldedLinear,
    LlamaMlpWeights,
    fold_layernorm_linear,
    fold_rmsnorm_linear,
    fused_layernorm_matmul,
    fused_rmsnorm_matmul,
    fused_softmax_matmul,
    swiglu,
)
from .norms import LayerNormParams, RmsNormParams, layernorm, rmsnorm, softmax_stable
from .tensor import _adopt, _integer, _real, _reject, _rows, _store, as_matrix, matmul

__all__ = [
    "VARIANTS",
    "SITES",
    "BlockConfig",
    "BlockWeights",
    "random_block_weights",
    "run_conventional",
    "run_fused",
    "Node",
    "OpGraph",
    "build_graph",
    "gelu",
]

VARIANTS = ("standard-gelu", "llama-swiglu")
SITES = ("ln1", "softmax", "ln2")


@dataclass(frozen=True)
class BlockConfig:
    d_model: int
    n_heads: int
    seq_len: int
    mlp_hidden: int
    variant: str = "standard-gelu"
    epsilon_ln: float = 1e-5

    def __post_init__(self):
        for name in ("d_model", "n_heads", "seq_len", "mlp_hidden"):
            v = getattr(self, name)
            if (i := _integer(v)) is None or i < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, i)
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} must be divisible by n_heads {self.n_heads}"
            )
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if (eps := _real(self.epsilon_ln)) is None or eps <= 0:
            raise ValueError(f"epsilon_ln must be positive and finite, got {self.epsilon_ln}")
        object.__setattr__(self, "epsilon_ln", eps)

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


@dataclass(frozen=True)
class BlockWeights:
    """Projection weights plus per-variant norm params and MLP weights.

    standard-gelu: ln1/ln2 are LayerNormParams, MLP is fc1/fc2.
    llama-swiglu:  ln1/ln2 are RmsNormParams, MLP is LlamaMlpWeights.

    Every array is read-only and no caller holds it, so `folded`,
    computed on first use, can never go stale: a caller's arrays are
    copied, and arrays this package drew itself (`random_block_weights`)
    are handed over with no copy. Either way they end in `_set_up`. Q, K
    and V are stored once, joined: `w_qkv` is the (n, 3n) Q|K|V matrix the
    ln1 site multiplies by, and `w_q`, `w_k` and `w_v` are its column views.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    ln1: LayerNormParams | RmsNormParams
    ln2: LayerNormParams | RmsNormParams
    fc1: np.ndarray | None = None
    fc2: np.ndarray | None = None
    mlp: LlamaMlpWeights | None = None
    w_qkv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        qkv = [as_matrix(getattr(self, name)) for name in ("w_q", "w_k", "w_v")]
        if len({m.shape[0] for m in qkv}) > 1:
            raise ValueError(f"w_q, w_k and w_v row counts differ: {[m.shape[0] for m in qkv]}")
        copies = [None if (m := getattr(self, name)) is None else as_matrix(m).copy() for name in ("w_o", "fc1", "fc2")]
        # the join is a new array: Q, K and V's private copy
        self._set_up(np.hstack(qkv), [m.shape[1] for m in qkv], self.ln1, self.ln2, *copies, self.mlp)

    def _set_up(self, w_qkv, widths, ln1, ln2, w_o, fc1, fc2, mlp) -> None:
        """Store the weights read-only; every array given is one no caller holds.

        `widths` are Q's, K's and V's column counts, so each view keeps its
        matrix's own shape, and `validate` sees a misfit one.
        """
        w_q, w_k, w_v = np.split(w_qkv, np.cumsum(widths[:-1]), axis=1)
        _store(self, w_qkv=w_qkv, w_q=w_q, w_k=w_k, w_v=w_v, w_o=w_o, ln1=ln1, ln2=ln2, fc1=fc1, fc2=fc2, mlp=mlp)

    def __reduce__(self):  # a copy or an unpickled one ends in `_set_up` too, through `tensor._adopt`
        widths = [m.shape[1] for m in (self.w_q, self.w_k, self.w_v)]
        return _adopt, (BlockWeights, self.w_qkv, widths, self.ln1, self.ln2, self.w_o, self.fc1, self.fc2, self.mlp)

    @property
    def projections(self) -> dict[str, np.ndarray]:
        """Each norm-fed site's one matrix: its projections joined in column order, stored so.

        standard-gelu: ln1 -> w_qkv (Q|K|V); ln2 -> fc1.
        llama-swiglu:  ln1 -> w_qkv (Q|K|V); ln2 -> mlp.w_gate_up (gate|up).
        """
        return {"ln1": self.w_qkv, "ln2": self.fc1 if self.mlp is None else self.mlp.w_gate_up}

    @cached_property
    def folded(self) -> Mapping[str, FoldedLinear]:
        """Read-only {site: `_fold_site` of its norm and `projections` matrix}; computed once per weights.

        ln1: Q|K|V (d_model x 3 d_model).
        ln2: fc1 (d_model x mlp_hidden), or gate|up (d_model x 2 mlp_hidden).
        """
        return MappingProxyType({site: _fold_site(getattr(self, site), mat)
                                 for site, mat in self.projections.items()})

    def validate(self, cfg: BlockConfig) -> None:
        n, h = cfg.d_model, cfg.mlp_hidden
        for name in ("w_q", "w_k", "w_v", "w_o"):
            m = getattr(self, name)
            if m.shape != (n, n):
                raise ValueError(f"{name} shape {m.shape}, expected {(n, n)}")
        if self.ln1.n != n or self.ln2.n != n:
            raise ValueError("norm parameter length does not match d_model")
        if cfg.variant == "standard-gelu":
            if not (isinstance(self.ln1, LayerNormParams) and isinstance(self.ln2, LayerNormParams)):
                raise ValueError("standard-gelu blocks use LayerNormParams")
            if self.fc1 is None or self.fc2 is None or self.mlp is not None:
                raise ValueError("standard-gelu blocks carry fc1/fc2 and no gated MLP")
            if self.fc1.shape != (n, h) or self.fc2.shape != (h, n):
                raise ValueError("fc1/fc2 shapes do not match config")
        else:
            if not (isinstance(self.ln1, RmsNormParams) and isinstance(self.ln2, RmsNormParams)):
                raise ValueError("llama-swiglu blocks use RmsNormParams")
            if self.mlp is None or self.fc1 is not None or self.fc2 is not None:
                raise ValueError("llama-swiglu blocks carry a gated MLP and no fc1/fc2")
            if self.mlp.w_gate.shape != (n, h):
                raise ValueError("gated MLP shapes do not match config")


def random_block_weights(cfg: BlockConfig, rng: np.random.Generator) -> BlockWeights:
    """Seeded random weights at 1/sqrt(fan-in) scale, drawn into the storage they keep.

    The draws run in this order: ln1's and ln2's parameters, then the MLP
    (fc1, fc2; or gate, up, down), then Q, K, V and W_o, each matrix
    `rng.standard_normal` divided by the square root of its row count.
    Each matrix is drawn whole and, where it is stored joined (Q|K|V,
    gate|up), copied into its columns, one at a time. The arrays are
    handed to the weights read-only with no second copy, and equal, bit
    for bit, `BlockWeights(...)` applied to the same draws.
    """
    n, h = cfg.d_model, cfg.mlp_hidden

    def proj(rows, cols):
        m = rng.standard_normal((rows, cols))
        m /= math.sqrt(rows)
        return m

    def joined(rows, widths):
        out = np.empty((rows, sum(widths)))
        for view in np.split(out, np.cumsum(widths[:-1]), axis=1):
            view[...] = proj(rows, view.shape[1])
        return out

    gamma = rng.uniform(0.8, 1.2, size=n)
    fc1 = fc2 = mlp = None
    if cfg.variant == "standard-gelu":
        ln1 = LayerNormParams(gamma=gamma, beta=rng.standard_normal(n) * 0.05, epsilon=cfg.epsilon_ln)
        ln2 = LayerNormParams(
            gamma=rng.uniform(0.8, 1.2, size=n), beta=rng.standard_normal(n) * 0.05, epsilon=cfg.epsilon_ln
        )
        fc1, fc2 = proj(n, h), proj(h, n)
    else:
        ln1 = RmsNormParams(gamma=gamma, epsilon=cfg.epsilon_ln)
        ln2 = RmsNormParams(gamma=rng.uniform(0.8, 1.2, size=n), epsilon=cfg.epsilon_ln)
        mlp = _adopt(LlamaMlpWeights, joined(n, [h, h]), proj(h, n))
    w_qkv = joined(n, [n, n, n])
    return _adopt(BlockWeights, w_qkv, [n, n, n], ln1, ln2, proj(n, n), fc1, fc2, mlp)


# GELU tanh approximation: 0.5*z*(1 + tanh(sqrt(2/pi)*(z + 0.044715*z^3))).
_GELU_SQRT_2_OVER_PI = 0.7978845608028654


def gelu(z) -> np.ndarray:
    """The tanh approximation, element-wise; the cube is z*z*z, two products, not a `pow` call.

    A copy of `z` runs `_gelu_in_place`'s chain, so `z` is never written
    and the bits are the straight-line formula's; a 0-d `z` gives a scalar,
    as the formula does.
    """
    return _gelu_in_place(np.array(z, dtype=np.float64))[()]


def _gelu_in_place(z: np.ndarray) -> np.ndarray:
    """`gelu` of a float64 array no caller holds, returned in that array: one more array allocated, not nine.

    The formula runs as one chain of in-place steps in its operation
    order, on a buffer made here and then on `z`, so the bits are the
    straight-line formula's. `z` is read until its last two steps.
    """
    # Beyond |z| ~ 5.6e102 the cube overflows to ±inf; tanh then gives ±1,
    # and the result is the exact limit, z or -0.0. Below |z| ~ 2.8e-103 the
    # cube, and near the subnormal range 0.5 * z, round to a subnormal or 0:
    # correctly rounded, not an error.
    with np.errstate(over="ignore", under="ignore"):
        t = np.multiply(z, z, out=np.empty_like(z))  # an array even for a 0-d z, where z * z is a scalar
        t *= z
        t *= 0.044715
        t += z
        t *= _GELU_SQRT_2_OVER_PI
        np.tanh(t, out=t)
        t += 1.0
        z *= 0.5
        z *= t
    return z


# A norm site's algebra, written once for the block, its folds and `normfusion verify`.
# Each call goes through this module's globals, so a rebound fold, norm or matmul reaches all three.
def _fold_site(p: LayerNormParams | RmsNormParams, mat) -> FoldedLinear:
    """The norm's fold of the site's matrix, its projections joined column-wise; the type of `p` picks the fold."""
    return (fold_layernorm_linear if isinstance(p, LayerNormParams) else fold_rmsnorm_linear)(p, mat)


def _norm_site(rows, p: LayerNormParams | RmsNormParams, mat, fold: FoldedLinear | None = None) -> np.ndarray:
    """The site's matrix `mat` applied to its rows normalized by `p`: one product either way.

    Conventional, with no `fold`: the norm, then one `matmul` by `mat`.
    Given the site's fold, `_fold_site(p, mat)`, which carries `p.epsilon`:
    one fused evaluation, the norm deferred past the product.
    """
    is_layernorm = isinstance(p, LayerNormParams)
    if fold is not None:
        return (fused_layernorm_matmul if is_layernorm else fused_rmsnorm_matmul)(rows, fold)
    return matmul((layernorm if is_layernorm else rmsnorm)(rows, p), mat)


def _attention(cfg: BlockConfig, w: BlockWeights, x: np.ndarray, fold: FoldedLinear | None) -> np.ndarray:
    """Every head's attention output, joined (seq, d_model): the ln1 site, the scores and the softmax site.

    `fold` is ln1's fold on the fused path and None on the conventional
    one; it picks both sites' forms. Q|K|V, the scores and the
    probabilities stay in here, so the block holds none of them past it.
    """
    # the Q|K|V columns viewed as (3, heads, seq, d_head): each step below is one call for every head
    qkv = _norm_site(x, w.ln1, w.projections["ln1"], fold)
    q, k, v = qkv.reshape(cfg.seq_len, 3, cfg.n_heads, cfg.d_head).transpose(1, 2, 0, 3)
    with np.errstate(under="ignore"):  # a subnormal score is correctly rounded
        scores = matmul(q, k.transpose(0, 2, 1)) * (1.0 / math.sqrt(cfg.d_head))
    heads = matmul(softmax_stable(scores), v) if fold is None else fused_softmax_matmul(scores, v)
    return heads.transpose(1, 0, 2).reshape(cfg.seq_len, cfg.d_model)


def _run_block(cfg: BlockConfig, w: BlockWeights, x, fused: bool) -> np.ndarray:
    """The block, written once; `fused` changes only how each site meets its matmul.

    Each finished stage is dropped: attention's intermediates stay in
    `_attention`, and the MLP pre-activation, an array made here, becomes
    gelu's output in place, so the gelu tail holds two (seq, mlp_hidden)
    arrays at most.
    """
    x = _rows(x, 2)  # ln1's reduction proves x finite, by the one finiteness rule (see `tensor`)
    if x.shape != (cfg.seq_len, cfg.d_model):
        _reject(x, f"input shape {x.shape}, expected {(cfg.seq_len, cfg.d_model)}")
    w.validate(cfg)
    folds = w.folded if fused else {}

    hidden = x + matmul(_attention(cfg, w, x, folds.get("ln1")), w.w_o)
    pre_act = _norm_site(hidden, w.ln2, w.projections["ln2"], folds.get("ln2"))
    if cfg.variant == "standard-gelu":
        return hidden + matmul(_gelu_in_place(pre_act), w.fc2)
    # fused, the deferred 1/rms is already applied, as silu needs: scalars do not commute past it
    return hidden + swiglu(pre_act, w.mlp.w_down)


def run_conventional(cfg: BlockConfig, w: BlockWeights, x) -> np.ndarray:
    """Reference block: normalize fully, then multiply, at every site."""
    return _run_block(cfg, w, x, fused=False)


def run_fused(cfg: BlockConfig, w: BlockWeights, x) -> np.ndarray:
    """Fused block: every normalization deferred past its matmul.

    The norm-fed projections are folded once per weights (`w.folded`),
    and each site runs as one fused evaluation over all rows. Each norm
    uses its own parameters' epsilon, as `run_conventional` does.
    """
    return _run_block(cfg, w, x, fused=True)


# --------------------------------------------------------------------------
# Operation dependency graph
# --------------------------------------------------------------------------


# the engine each kind runs on
_KIND_ENGINES = {"elementwise": "vector", "collective": "vector", "matmul": "matrix"}


class Node(NamedTuple):
    """One schedulable operation: an immutable named tuple, `Node(id, kind, work, name, site=None)`.

    The kind fixes the engine: matmul runs on the matrix engine, the rest
    on the vector engine. work counts elements for vector-engine kinds and
    MACs for matmuls. site tags the fusion site ("ln1" | "softmax" | "ln2")
    or None for common work (residuals, activations, unfused projections).

    `engine` is read from `kind`, never given: `Node(..., engine=...)` is a
    TypeError, and an unknown kind has none (KeyError). A node checks
    nothing; `schedule` checks every node it is given (see
    `simulator.node_latency`). As a tuple, a node iterates, unpacks,
    orders and compares equal like the tuple of its fields, and assigning
    a field raises AttributeError.
    """

    id: int
    kind: str
    work: int
    name: str
    site: str | None = None

    @property
    def engine(self) -> str:
        return _KIND_ENGINES[self.kind]


class OpGraph(NamedTuple):
    nodes: tuple[Node, ...]
    edges: tuple[tuple[int, int], ...]
    fused: bool
    config: BlockConfig


def build_graph(cfg: BlockConfig, fused: bool) -> OpGraph:
    """Dependency graph of one decoder block with exact work counts.

    Nodes are numbered in the order they are added, and each node's edges
    follow it, one per dependency in the order given. Matmul work is
    seq * rows * cols MACs per product, summed where one node covers
    several projections (Q/K/V; gate+up). The softmax site's collective
    node aggregates every head's per-row denominator.

    Each normalization site is an elementwise node then a collective, both
    of the site's element count:
    - conventional: elementwise -> collective -> matmul, a chain;
    - fused: the collective->matmul edge is cut, both hang off the
      elementwise node, and a deferred-scale node joins the two branches.
    Downstream consumers depend on the site's last node.
    """
    n, heads, seq, h = cfg.d_model, cfg.n_heads, cfg.seq_len, cfg.mlp_hidden
    nodes, edges = [], []

    def add(kind, work, name, site=None, deps=()):
        nid = len(nodes)
        nodes.append(Node(nid, kind, work, name, site))
        for d in deps:
            edges.append((d, nid))
        return nid

    def norm_site(site, work, mm_work, mm_out, deps=()):
        ew = add("elementwise", work, f"{site}.elementwise", site, deps)
        coll = add("collective", work, f"{site}.collective", site, (ew,))
        if not fused:
            return add("matmul", mm_work, f"{site}.matmul", site, (coll,))
        mm = add("matmul", mm_work, f"{site}.matmul", site, (ew,))
        return add("elementwise", mm_out, f"{site}.scale", site, (coll, mm))

    mlp_inputs = 1 if cfg.variant == "standard-gelu" else 2  # fc1, or gate and up together
    qkv = norm_site("ln1", seq * n, 3 * seq * n * n, 3 * seq * n)
    logits = add("matmul", seq * seq * n, "attn.logits_matmul", deps=(qkv,))
    av = norm_site("softmax", heads * seq * seq, seq * seq * n, seq * n, (logits,))
    out_proj = add("matmul", seq * n * n, "attn.out_matmul", deps=(av,))
    res1 = add("elementwise", seq * n, "residual1.add", deps=(out_proj,))
    fc1 = norm_site("ln2", seq * n, mlp_inputs * seq * n * h, mlp_inputs * seq * h, (res1,))
    act = add("elementwise", seq * h, "mlp.activation", deps=(fc1,))
    down = add("matmul", seq * h * n, "mlp.down_matmul", deps=(act,))
    add("elementwise", seq * n, "residual2.add", deps=(down, res1))
    return OpGraph(tuple(nodes), tuple(edges), fused, cfg)
