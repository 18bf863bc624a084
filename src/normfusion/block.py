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

    ln1, ln2: `_norm_site`: conventional normalizes the rows, multiplies
              them by each of the site's `BlockWeights.projections` and
              joins the outputs column-wise; fused makes one
              `fused_*norm_matmul` by the site's `_fold_site`, made once per
              set of weights (`BlockWeights.folded`). `normfusion verify`
              checks each norm site through these two functions.
    softmax:  one evaluation over all heads: conventional multiplies
              `softmax_stable(scores)` by V; fused makes one
              `fused_softmax_matmul(scores, v)`. `scores` and `v` are
              stacks per head (heads, seq, ...), as `build_graph`'s one
              softmax collective covers every head.

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
list: the fused norm sites, for instance, feed the raw rows straight into
the product.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

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
from .tensor import as_matrix, frozen_copy, matmul

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
    "site_subgraph",
    "gelu",
]

VARIANTS = ("standard-gelu", "llama-swiglu")
SITES = ("ln1", "softmax", "ln2")

NODE_KINDS = ("elementwise", "collective", "matmul")


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
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} must be divisible by n_heads {self.n_heads}"
            )
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not (np.isfinite(self.epsilon_ln) and self.epsilon_ln > 0):
            raise ValueError(f"epsilon_ln must be positive and finite, got {self.epsilon_ln}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


@dataclass(frozen=True)
class BlockWeights:
    """Projection weights plus per-variant norm params and MLP weights.

    standard-gelu: ln1/ln2 are LayerNormParams, MLP is fc1/fc2.
    llama-swiglu:  ln1/ln2 are RmsNormParams, MLP is LlamaMlpWeights.

    Every array is a private read-only copy, so `folded`, computed on
    first use, can never go stale.
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

    def __post_init__(self):
        for name in ("w_q", "w_k", "w_v", "w_o", "fc1", "fc2"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, frozen_copy(as_matrix(getattr(self, name))))

    @property
    def projections(self) -> dict[str, tuple[np.ndarray, ...]]:
        """Each norm-fed site's projections, in column order.

        standard-gelu: ln1 -> w_q, w_k, w_v; ln2 -> fc1.
        llama-swiglu:  ln1 -> w_q, w_k, w_v; ln2 -> w_gate, w_up.
        """
        mlp_in = (self.fc1,) if self.mlp is None else (self.mlp.w_gate, self.mlp.w_up)
        return {"ln1": (self.w_q, self.w_k, self.w_v), "ln2": mlp_in}

    @cached_property
    def folded(self) -> Mapping[str, FoldedLinear]:
        """Read-only {site: `_fold_site` of its norm and `projections`}; computed once per weights.

        ln1: Q|K|V (d_model x 3 d_model).
        ln2: fc1 (d_model x mlp_hidden), or gate|up (d_model x 2 mlp_hidden).
        """
        return MappingProxyType({site: _fold_site(getattr(self, site), mats)
                                 for site, mats in self.projections.items()})

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
    """Seeded random weights at 1/sqrt(fan-in) scale."""
    n, h = cfg.d_model, cfg.mlp_hidden
    proj = lambda rows, cols: rng.standard_normal((rows, cols)) / math.sqrt(rows)
    gamma = rng.uniform(0.8, 1.2, size=n)
    if cfg.variant == "standard-gelu":
        ln1 = LayerNormParams(gamma=gamma, beta=rng.standard_normal(n) * 0.05, epsilon=cfg.epsilon_ln)
        ln2 = LayerNormParams(
            gamma=rng.uniform(0.8, 1.2, size=n), beta=rng.standard_normal(n) * 0.05, epsilon=cfg.epsilon_ln
        )
        extra = dict(fc1=proj(n, h), fc2=proj(h, n))
    else:
        ln1 = RmsNormParams(gamma=gamma, epsilon=cfg.epsilon_ln)
        ln2 = RmsNormParams(gamma=rng.uniform(0.8, 1.2, size=n), epsilon=cfg.epsilon_ln)
        extra = dict(mlp=LlamaMlpWeights(w_gate=proj(n, h), w_up=proj(n, h), w_down=proj(h, n)))
    return BlockWeights(
        w_q=proj(n, n), w_k=proj(n, n), w_v=proj(n, n), w_o=proj(n, n),
        ln1=ln1, ln2=ln2, **extra,
    )


# GELU tanh approximation: 0.5*z*(1 + tanh(sqrt(2/pi)*(z + 0.044715*z^3))).
_GELU_SQRT_2_OVER_PI = 0.7978845608028654


def gelu(z) -> np.ndarray:
    """The tanh approximation, element-wise; the cube is z*z*z, two products, not a `pow` call."""
    z = np.asarray(z, dtype=np.float64)
    # Beyond |z| ~ 5.6e102 the cube overflows to ±inf; tanh then gives ±1,
    # and the result is the exact limit, z or -0.0. Below |z| ~ 2.8e-103 the
    # cube, and near the subnormal range 0.5 * z, round to a subnormal or 0:
    # correctly rounded, not an error.
    with np.errstate(over="ignore", under="ignore"):
        inner = _GELU_SQRT_2_OVER_PI * (z + 0.044715 * (z * z * z))
        return 0.5 * z * (1.0 + np.tanh(inner))


# A norm site's algebra, written once for the block, its folds and `normfusion verify`.
# Each call goes through this module's globals, so a rebound fold, norm or matmul reaches all three.
def _fold_site(p: LayerNormParams | RmsNormParams, mats) -> FoldedLinear:
    """The norm's fold of the site's projections joined column-wise; the type of `p` picks the fold."""
    fold = fold_layernorm_linear if isinstance(p, LayerNormParams) else fold_rmsnorm_linear
    return fold(p, np.hstack(mats))


def _norm_site(rows, p: LayerNormParams | RmsNormParams, mats, fold: FoldedLinear | None = None) -> np.ndarray:
    """The site's projections `mats` of its rows normalized by `p`, joined column-wise.

    Conventional, with no `fold`: the norm, then `matmul` by each
    projection, joined. Given the site's fold, `_fold_site(p, mats)`: one
    fused evaluation, the norm deferred past the product.
    """
    is_layernorm = isinstance(p, LayerNormParams)
    if fold is not None:
        return (fused_layernorm_matmul if is_layernorm else fused_rmsnorm_matmul)(rows, fold, p.epsilon)
    normed = (layernorm if is_layernorm else rmsnorm)(rows, p)
    return np.hstack([matmul(normed, m) for m in mats])


def _run_block(cfg: BlockConfig, w: BlockWeights, x, fused: bool) -> np.ndarray:
    """The block, written once; `fused` changes only how each site meets its matmul."""
    x = as_matrix(x)
    if x.shape != (cfg.seq_len, cfg.d_model):
        raise ValueError(f"input shape {x.shape}, expected {(cfg.seq_len, cfg.d_model)}")
    w.validate(cfg)
    n = cfg.d_model
    projections, folds = w.projections, (w.folded if fused else {})

    # the Q|K|V columns viewed as (3, heads, seq, d_head): each step below is one call for every head
    qkv = _norm_site(x, w.ln1, projections["ln1"], folds.get("ln1"))
    q, k, v = qkv.reshape(cfg.seq_len, 3, cfg.n_heads, cfg.d_head).transpose(1, 2, 0, 3)
    with np.errstate(under="ignore"):  # a subnormal score is correctly rounded
        scores = matmul(q, k.transpose(0, 2, 1)) * (1.0 / math.sqrt(cfg.d_head))
    heads = fused_softmax_matmul(scores, v) if fused else matmul(softmax_stable(scores), v)
    hidden = x + matmul(heads.transpose(1, 0, 2).reshape(cfg.seq_len, n), w.w_o)

    pre_act = _norm_site(hidden, w.ln2, projections["ln2"], folds.get("ln2"))
    if cfg.variant == "standard-gelu":
        return hidden + matmul(gelu(pre_act), w.fc2)
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


@dataclass(frozen=True)
class Node:
    """One schedulable operation.

    The kind fixes the engine: matmul runs on the matrix engine, the rest
    on the vector engine. work counts elements for vector-engine kinds and
    MACs for matmuls. site tags the fusion site ("ln1" | "softmax" | "ln2")
    or None for common work (residuals, activations, unfused projections).
    """

    id: int
    kind: str
    engine: str = field(init=False)
    work: int
    name: str
    site: str | None = None

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")
        object.__setattr__(self, "engine", "matrix" if self.kind == "matmul" else "vector")
        if self.work <= 0:
            raise ValueError(f"node work must be positive, got {self.work}")


@dataclass(frozen=True)
class OpGraph:
    nodes: tuple[Node, ...]
    edges: tuple[tuple[int, int], ...]
    fused: bool
    config: BlockConfig


class _GraphBuilder:
    def __init__(self):
        self.nodes: list[Node] = []
        self.edges: list[tuple[int, int]] = []

    def add(self, kind, work, name, site=None, deps=()) -> int:
        nid = len(self.nodes)
        self.nodes.append(Node(id=nid, kind=kind, work=int(work), name=name, site=site))
        for d in deps:
            self.edges.append((d, nid))
        return nid


def _add_site(b: _GraphBuilder, site: str, ew_work: int, coll_work: int,
              mm_work: int, mm_out: int, fused: bool, entry: int | None) -> int:
    """One normalization site.

    Conventional: elementwise -> collective -> matmul (a chain).
    Fused: the collective->matmul edge is cut (both hang off the
    elementwise node) and a deferred-scale node joins the two branches.
    Returns the node downstream consumers should depend on.
    """
    deps = [entry] if entry is not None else []
    ew = b.add("elementwise", ew_work, f"{site}.elementwise", site, deps=deps)
    coll = b.add("collective", coll_work, f"{site}.collective", site, deps=[ew])
    if not fused:
        mm = b.add("matmul", mm_work, f"{site}.matmul", site, deps=[coll])
        return mm
    mm = b.add("matmul", mm_work, f"{site}.matmul", site, deps=[ew])
    scale = b.add("elementwise", mm_out, f"{site}.scale", site, deps=[coll, mm])
    return scale


def build_graph(cfg: BlockConfig, fused: bool) -> OpGraph:
    """Dependency graph of one decoder block with exact work counts.

    Matmul work is seq * rows * cols MACs per product, summed where one
    node covers several projections (Q/K/V; gate+up). The softmax site's
    collective node aggregates every head's per-row denominator.
    """
    n, heads, seq, h = cfg.d_model, cfg.n_heads, cfg.seq_len, cfg.mlp_hidden
    b = _GraphBuilder()

    qkv = _add_site(
        b, "ln1",
        ew_work=seq * n, coll_work=seq * n,
        mm_work=3 * seq * n * n, mm_out=3 * seq * n,
        fused=fused, entry=None,
    )
    logits = b.add("matmul", seq * seq * n, "attn.logits_matmul", deps=[qkv])
    av = _add_site(
        b, "softmax",
        ew_work=heads * seq * seq, coll_work=heads * seq * seq,
        mm_work=seq * seq * n, mm_out=seq * n,
        fused=fused, entry=logits,
    )
    out_proj = b.add("matmul", seq * n * n, "attn.out_matmul", deps=[av])
    res1 = b.add("elementwise", seq * n, "residual1.add", deps=[out_proj])

    if cfg.variant == "standard-gelu":
        mlp_mm_work, mlp_mm_out = seq * n * h, seq * h
    else:
        mlp_mm_work, mlp_mm_out = 2 * seq * n * h, 2 * seq * h  # gate and up together
    fc1 = _add_site(
        b, "ln2",
        ew_work=seq * n, coll_work=seq * n,
        mm_work=mlp_mm_work, mm_out=mlp_mm_out,
        fused=fused, entry=res1,
    )
    act = b.add("elementwise", seq * h, "mlp.activation", deps=[fc1])
    down = b.add("matmul", seq * h * n, "mlp.down_matmul", deps=[act])
    b.add("elementwise", seq * n, "residual2.add", deps=[down, res1])

    return OpGraph(nodes=tuple(b.nodes), edges=tuple(b.edges), fused=fused, config=cfg)


def site_subgraph(graph: OpGraph, site: str) -> OpGraph:
    """Induced subgraph of one fusion site (node ids preserved)."""
    if site not in SITES:
        raise ValueError(f"unknown fusion site {site!r}")
    keep = {n.id for n in graph.nodes if n.site == site}
    nodes = tuple(n for n in graph.nodes if n.id in keep)
    edges = tuple((a, c) for a, c in graph.edges if a in keep and c in keep)
    return OpGraph(nodes=nodes, edges=edges, fused=graph.fused, config=graph.config)
