"""Mutation checks: each mutant breaks `src/` in one place, and its test selection must catch it.

Run from anywhere, with the test extras installed:

    python mutation/run.py            # every mutant
    python mutation/run.py NAME ...   # the named ones

Each mutant is one exact text replacement in one file of `src/`. The old
text must occur exactly once: a refactor that moves or rewrites it fails
the run, and the table is updated with it. For each mutant the runner copies
`src/` to a temporary directory, applies the edit there, and runs the
mutant's pytest selection, paths given from the repository root, with
`PYTHONPATH` at the copy and the temporary directory as the working one.
Only pytest's exit code 1, tests ran and some failed, is a kill; an error,
a usage error or no tests collected is not. Before any mutant runs,
every selection must pass on the unmutated copy, so a kill is the mutant's
doing. The checkout itself is never written.

Kernel-order mutants of `tensor._summing_einsum` that the import probe
(`tensor._sums_in_order`) reaches are left out: the probe sends a kernel that
sums out of order on its operands to the exact chunked fallback, so the suite
rightly passes. CI's "Versions" step catches that switch on the latest numpy.
The probe's right operands are C order or one column, so a kernel that skips
the copy of a transposed or Fortran-order `b` passes it, and is a mutant here.

The exit status is 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/normfusion/
    old: str  # occurs exactly once in the file
    new: str
    selection: tuple[str, ...]  # pytest arguments, from the repository root
    reason: str


MUTANTS = (
    Mutant("folded-recomputed", "block.py",
           "    @cached_property\n    def folded(self)", "    @property\n    def folded(self)",
           ("tests/test_block.py::test_weights_fold_once",),
           "folds happen once per set of weights, not once per run"),
    Mutant("fixed-epsilon-in-fused-site", "fusion.py",
           "folded_bias=folded_bias, epsilon=epsilon)", "folded_bias=folded_bias, epsilon=1e-5)",
           ("tests/test_block.py", "-k", "epsilon"),
           "each fold stores its own parameters' epsilon, the one its fused norm site adds"),
    Mutant("qvk-join-order", "block.py",
           'names = ("w_q", "w_k", "w_v", "w_o")', 'names = ("w_q", "w_v", "w_k", "w_o")',
           ("tests/test_block.py", "-k", "joined_projections"),
           "Q|K|V is joined in that order and its views are the constructor's inputs"),
    Mutant("gate-up-join-order", "fusion.py",
           "np.hstack([gate, up])", "np.hstack([up, gate])",
           ("tests/test_block.py", "-k", "joined_projections"),
           "gate|up is joined in that order and its views are the constructor's inputs"),
    Mutant("store-freezes-only-owners", "tensor.py",
           "        if isinstance(value, np.ndarray):\n",
           "        if isinstance(value, np.ndarray) and value.base is None:\n",
           ("tests/test_block.py", "-k", "read_only"),
           "_store freezes every array it stores, the column views of a joined buffer too"),
    Mutant("store-skips-folded-bias", "tensor.py",
           "        if isinstance(value, np.ndarray):\n",
           '        if isinstance(value, np.ndarray) and name != "folded_bias":\n',
           ("tests/test_fusion.py", "-k", "read_only"),
           "a layernorm fold's bias is stored read-only, as its weight is"),
    Mutant("projections-not-one-square-size", "block.py",
           "[*zip(names, mats, [(n, n)] * 4)", "[*zip(names, mats, [m.shape for m in mats])",
           ("tests/test_block.py", "-k", "do_not_fit or differing_row_counts"),
           "w_q, w_k, w_v and w_o are one (n, n) size, checked as the weights are made"),
    Mutant("norm-kind-and-mlp-not-matched", "block.py",
           "        if [self.fc1 is None, self.fc2 is None, self.mlp is None] != [",
           "        if False and [self.fc1 is None, self.fc2 is None, self.mlp is None] != [",
           ("tests/test_block.py", "-k", "do_not_fit or wrong_norm"),
           "layernorm weights carry fc1 and fc2 and no mlp, RMSNorm weights an mlp and no fc1 or fc2"),
    Mutant("validate-matches-only-d-model", "block.py",
           "        for name, value in own.items():\n", "        for name, value in list(own.items())[:1]:\n",
           ("tests/test_block.py", "-k", "another_config"),
           "validate matches a config's d_model, mlp_hidden and variant, not its d_model alone"),
    Mutant("joined-draws-reversed", "block.py",
           "        for view in np.split(out, np.cumsum(widths[:-1]), axis=1):\n",
           "        for view in reversed(np.split(out, np.cumsum(widths[:-1]), axis=1)):\n",
           ("tests/test_block.py", "-k", "documented_draws"),
           "Q, K and V, and gate and up, are drawn in that order into their columns"),
    Mutant("fc1-fc2-draw-order-swapped", "block.py",
           "        fc1, fc2 = proj(n, h), proj(h, n)\n", "        fc2, fc1 = proj(h, n), proj(n, h)\n",
           ("tests/test_block.py", "-k", "documented_draws"),
           "fc1 is drawn before fc2"),
    Mutant("draw-scaled-by-reciprocal", "block.py",
           "        m /= math.sqrt(rows)\n", "        m *= 1.0 / math.sqrt(rows)\n",
           ("tests/test_block.py", "-k", "documented_draws"),
           "each drawn matrix is divided by sqrt(fan-in), not multiplied by its rounded reciprocal"),
    Mutant("block-matrices-not-copied", "block.py",
           "m.copy() for m in (mats[3], fc1, fc2)", "m for m in (mats[3], fc1, fc2)",
           ("tests/test_block.py", "-k", "private"),
           "BlockWeights copies a caller's w_o, fc1 and fc2 before freezing them"),
    Mutant("mlp-down-not-copied", "fusion.py",
           "np.hstack([gate, up]), down.copy())", "np.hstack([gate, up]), down)",
           ("tests/test_block.py", "-k", "private"),
           "LlamaMlpWeights copies a caller's w_down before freezing it"),
    Mutant("rms-fold-names-overflow-for-non-finite-weight", "fusion.py",
           "        as_matrix(f)  # a non-finite F is named first\n", "",
           ("tests/test_fusion.py", "-k", "named_first"),
           "the RMSNorm fold names a non-finite weight, not a float64 overflow"),
    Mutant("fold-row-mismatch-named-before-non-finite", "fusion.py",
           '        _reject(f, f"weight rows {f.shape[0]} do not match normalized dimension {p.n}")\n',
           '        raise ValueError(f"weight rows {f.shape[0]} do not match normalized dimension {p.n}")\n',
           ("tests/test_error_behaviour.py", "-k", "fold"),
           "a fold names a non-finite weight before a row-count mismatch"),
    Mutant("folded-linear-unchecked", "fusion.py",
           "        weight = as_matrix(self.folded_weight)\n", "        weight = np.asarray(self.folded_weight)\n",
           ("tests/test_error_behaviour.py", "-k", "FoldedLinear"),
           "FoldedLinear(...) checks a caller's arrays; only the fold functions' own arrays skip the scan"),
    Mutant("gelu-writes-its-input", "block.py",
           "_gelu_in_place(np.array(z, dtype=np.float64))", "_gelu_in_place(np.asarray(z, dtype=np.float64))",
           ("tests/test_inputs_kept.py", "-k", "gelu"),
           "public gelu runs the in-place chain on its own copy, never on its caller's array"),
    Mutant("gelu-chain-on-its-input", "block.py",
           "t = np.multiply(z, z, out=np.empty_like(z))", "t = np.multiply(z, z, out=z)",
           ("tests/test_block.py", "-k", "gelu"),
           "gelu's chain forms tanh's argument in a buffer it made: it reads z until its last two steps"),
    Mutant("block-gelu-copies-its-pre-activation", "block.py",
           "matmul(_gelu_in_place(pre_act), w.fc2)", "matmul(gelu(pre_act), w.fc2)",
           ("tests/test_block.py", "-k", "live_buffers"),
           "the block's gelu tail runs in place on the pre-activation it made: two (seq, hidden) arrays, not three"),
    Mutant("silu-writes-its-input", "fusion.py",
           "out, e = z.copy(), np.empty(z.shape)", "out, e = z, np.empty(z.shape)",
           ("tests/test_inputs_kept.py", "-k", "silu or swiglu"),
           "silu runs its chain on a copy of z, never on its caller's array"),
    Mutant("silu-negative-into-its-copy", "fusion.py",
           "np.negative(out, out=e)", "np.negative(out, out=out)",
           ("tests/test_fusion.py", "-k", "Silu"),
           "silu forms exp(min(z, -z)) in its own buffer: the copy of z keeps z's signs for the z >= 0 mask"),
    Mutant("silu-skips-plus-one", "fusion.py",
           "        e += 1.0\n", "",
           ("tests/test_fusion.py", "-k", "Silu"),
           "silu divides by 1 + exp(-|z|), not by exp(-|z|)"),
    Mutant("silu-mask-after-product", "fusion.py",
           "        nonnegative = out >= 0\n        out *= e", "        out *= e\n        nonnegative = out >= 0",
           ("tests/test_fusion.py", "-k", "Silu"),
           "silu's z >= 0 mask is taken before out *= e: inf * exp(-inf) is NaN, and silu(inf) is inf"),
    Mutant("silu-mask-from-strided-z", "fusion.py",
           "        nonnegative = out >= 0\n", "        nonnegative = z >= 0\n",
           ("tests/test_fusion.py", "-k", "Swiglu"),
           "silu reads z only by copies: a ufunc on swiglu's strided gate half buffers an array as large as it"),
    Mutant("swiglu-gates-out-of-place", "fusion.py",
           "        gated *= gate_up[..., h:]\n", "        gated = gated * gate_up[..., h:]\n",
           ("tests/test_fusion.py", "tests/test_block.py", "-k", "Swiglu or live_buffers"),
           "swiglu multiplies up into silu's output in place, not into a new array"),
    Mutant("fused-scale-out-of-place", "fusion.py",
           "    projected /= np.sqrt(variance + fl.epsilon)[..., np.newaxis]\n    projected += fl.folded_bias\n"
           "    return projected\n",
           "    return projected / np.sqrt(variance + fl.epsilon)[..., np.newaxis] + fl.folded_bias\n",
           ("tests/test_fusion.py", "tests/test_block.py", "-k", "own_buffer or live_buffers"),
           "a fused evaluator applies the deferred scale, and the folded bias, in its product's own buffer"),
    Mutant("layernorm-centres-x-in-place", "norms.py",
           "        shifted = x - x[..., :1]\n", "        shifted = np.subtract(x, x[..., :1], out=x)\n",
           ("tests/test_inputs_kept.py", "-k", "layernorm"),
           "both layernorm paths shift and centre a new array, never the caller's rows"),
    Mutant("layernorm-centres-by-rounded-mean", "norms.py",
           "    _, dev, _, variance = _shifted_moments(x)\n",
           "    _, _, mean, variance = _shifted_moments(x)\n    dev = x - (x[..., :1] + mean[..., np.newaxis])\n",
           ("tests/test_block.py", "-k", "oracle"),
           "layernorm centres the shifted rows by their own mean, never x by a rounded x[0] + mean"),
    Mutant("fused-product-unshifted", "fusion.py",
           "    projected = matmul(shifted, fl.folded_weight)", "    projected = matmul(rows, fl.folded_weight)",
           ("tests/test_block.py", "-k", "oracle"),
           "the fused layernorm product multiplies the shifted rows, so a large row offset costs no accuracy"),
    Mutant("shifted-overflow-not-retried", "fusion.py",
           "        projected[overflowed] = matmul(rows[overflowed], fl.folded_weight)\n", "",
           ("tests/test_fusion.py", "tests/test_block.py", "-k", "falls_back or gelu_cube"),
           "a row whose shifted product overflows is multiplied unshifted: the shift costs no overflow headroom"),
    Mutant("shifted-overflow-retried-for-every-row", "fusion.py",
           "        projected[overflowed] = matmul(rows[overflowed], fl.folded_weight)\n",
           "        projected = matmul(rows, fl.folded_weight)\n",
           ("tests/test_fusion.py", "-k", "falls_back"),
           "only the rows whose shifted product overflows lose the shift"),
    Mutant("softmax-shifts-x-in-place", "norms.py",
           "np.exp(x - x.max(axis=-1, keepdims=True))",
           "np.exp(np.subtract(x, x.max(axis=-1, keepdims=True), out=x))",
           ("tests/test_inputs_kept.py", "-k", "softmax"),
           "the softmax shifts a new array, never the caller's logits"),
    Mutant("whole-matrix-softmax-max", "norms.py",
           "x.max(axis=-1, keepdims=True)", "x.max()",
           ("tests/test_norms.py", "tests/test_fusion.py", "-k", "softmax"),
           "each row is shifted by its own max"),
    Mutant("ordered-sum-first-prefix", "tensor.py",
           "prefix[..., -1] if prefix.ndim > 1 else prefix[-1]", "prefix[..., 0] if prefix.ndim > 1 else prefix[0]",
           ("tests/test_tensor.py", "-k", "OrderedSum"),
           "a row's sum is its last prefix"),
    Mutant("moments-pair-swapped", "norms.py",
           "    return x[..., 0] + mean, variance\n", "    return variance, x[..., 0] + mean\n",
           ("tests/test_norms.py", "-k", "Moments"),
           "moments returns the pair (mean, variance), in that order"),
    Mutant("rms-without-pre-scale", "norms.py",
           "        s = np.clip(-np.frexp(", "        s = 0 * np.clip(-np.frexp(",
           ("tests/test_block.py", "-k", "rms"),
           "a tiny row is scaled up by a power of two before it is squared, so RMSNorm with epsilon 0 does not see the scale"),
    Mutant("rms-division-reverted", "norms.py",
           "    _, scaled, root = _prescaled_root(x, p.epsilon)\n", "    scaled, root = x, root_mean_square(x, p.epsilon)\n",
           ("tests/test_block.py", "-k", "longdouble"),
           "rmsnorm divides the pre-scaled rows by the pre-scaled root, never by an rms rounded to a subnormal"),
    Mutant("fused-rms-division-reverted", "fusion.py",
           "    projected = matmul(scaled, rfl.folded_weight)     # matmul task, overlappable\n",
           "    projected = matmul(rows, rfl.folded_weight)\n    root = np.ldexp(root, -s)\n",
           ("tests/test_block.py", "-k", "longdouble"),
           "the fused RMSNorm path divides the pre-scaled rows' product by the pre-scaled root"),
    Mutant("prescaled-overflow-not-retried", "fusion.py",
           "            projected[overflowed] = (matmul(rows[overflowed], rfl.folded_weight)\n"
           "                                     / np.ldexp(root, -s)[overflowed][..., np.newaxis])\n",
           "            pass\n",
           ("tests/test_fusion.py", "-k", "prescaled"),
           "a row whose pre-scaled product overflows is multiplied unscaled: the pre-scale costs no overflow headroom"),
    Mutant("rms-epsilon-scale-uncapped", "norms.py",
           "(1000 - math.frexp(epsilon)[1]) // 2", "(5000 - math.frexp(epsilon)[1]) // 2",
           ("tests/test_norms.py", "-k", "subnormal_row_with_epsilon"),
           "the pre-scale stops where epsilon's scaled copy would overflow"),
    Mutant("non-c-b-not-copied", "tensor.py",
           "    elif not b.flags.c_contiguous:\n        b = b.copy()\n", "",
           ("tests/test_tensor.py", "-k", "EinsumForms or Layouts"),
           "the summing einsum takes `b` in C order, where n is the inner loop; a transposed or Fortran-order `b` is copied"),
    Mutant("reversed-adds-in-a-chunk", "tensor.py",
           "                for product in chunk:\n", "                for product in chunk[::-1]:\n",
           ("tests/test_tensor.py", "-k", "Chunked"),
           "the chunked kernel adds its products in index order"),
    Mutant("chunk-reduce-without-running-sum", "tensor.py",
           "                buf[0] = acc\n", "                buf[0] = 0.0\n",
           ("tests/test_tensor.py", "-k", "Chunked"),
           "each reduce carries the running sum forward"),
    Mutant("booleans-pass-as-real-fields", "tensor.py",
           "    if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real):\n",
           "    if not isinstance(v, numbers.Real):\n",
           ("tests/test_cli.py", "tests/test_norms.py", "-k", "RealFields"),
           "a bool is not a tolerance, an epsilon or a cost-model quantity"),
    Mutant("latency-overflow-unnamed", "simulator.py",
           "    except OverflowError:\n", "    except ZeroDivisionError:\n",
           ("tests/test_simulator.py", "tests/test_cli.py", "-k", "overflow"),
           "a node latency past float64's range is a ValueError naming the node, and a config error to the CLI"),
    Mutant("work-divided-outside-overflow-guard", "simulator.py",
           "    try:  # the cost model is finite, but a node's latency may not be\n",
           "    work / cm.matrix_macs_per_cycle\n    try:  # the cost model is finite, but a node's latency may not be\n",
           ("tests/test_simulator.py", "tests/test_cli.py", "-k", "overflow"),
           "work too large to divide as a float is guarded as an infinite latency is: a ValueError naming the node"),
    Mutant("norm-epsilon-not-real-checked", "norms.py",
           '        object.__setattr__(self, "epsilon", _number(self.epsilon, "epsilon"))\n',
           "        if not (np.isfinite(self.epsilon) and self.epsilon > 0):\n"
           '            raise ValueError(f"epsilon must be a positive finite scalar, got {self.epsilon!r}")\n',
           ("tests/test_norms.py", "-k", "RealFields"),
           "a norm's epsilon is a real number, not a bool or a string, stored as a plain number"),
    Mutant("rms-kernel-epsilon-not-real-checked", "norms.py",
           '        epsilon = _number(epsilon, "rmsnorm: epsilon", positive=False)\n',
           "        if epsilon is None or epsilon < 0:\n"
           '            raise ValueError(f"rmsnorm: epsilon must be a non-negative finite scalar, got {epsilon!r}")\n',
           ("tests/test_norms.py", "-k", "RealFields"),
           "root_mean_square, the one kernel given a raw epsilon, takes it by the parameters' rule: a bool is not 1 or 0"),
    Mutant("folded-linear-epsilon-not-real-checked", "fusion.py",
           '_number(self.epsilon, "epsilon", positive=bias is not None)', "self.epsilon",
           ("tests/test_norms.py", "-k", "RealFields"),
           "a fold built from plain arrays takes its epsilon by its norm's rule: a bool is not 1 or 0"),
    Mutant("weights-copied-without-rebuild", "block.py",
           "    def __reduce__(self):  # a copy", "    def _unused_reduce(self):  # a copy",
           ("tests/test_block.py", "-k", "copied"),
           "a copied or unpickled BlockWeights is rebuilt through _set_up: read-only, Q, K and V views of their join"),
    Mutant("booleans-pass-as-config-counts", "tensor.py",
           "    if isinstance(v, (bool, np.bool_)):\n        return None\n", "",
           ("tests/test_block.py", "tests/test_cli.py", "-k", "count or IntegerFields"),
           "a bool is not a count, in a config file or in code"),
    Mutant("numpy-integer-stored-as-is", "block.py",
           "            object.__setattr__(self, name, _number(getattr(self, name), name, integer=True))\n",
           "            _number(getattr(self, name), name, integer=True)\n",
           ("tests/test_block.py", "-k", "numpy_integers"),
           "a config stores plain ints, which reports encode"),
    Mutant("fused-matmul-waits-for-collective", "block.py",
           'mm = add("matmul", mm_work, f"{site}.matmul", site, (ew,))',
           'mm = add("matmul", mm_work, f"{site}.matmul", site, (coll,))',
           ("tests/test_block.py", "-k", "Graph"),
           "the fused graph cuts the collective -> matmul edge"),
    Mutant("conventional-matmul-off-elementwise", "block.py",
           'return add("matmul", mm_work, f"{site}.matmul", site, (coll,))',
           'return add("matmul", mm_work, f"{site}.matmul", site, (ew,))',
           ("tests/test_block.py", "-k", "Graph"),
           "a conventional site is a chain: its matmul waits for the collective"),
    Mutant("every-engine-vector", "block.py",
           '"matmul": "matrix"}', '"matmul": "vector"}',
           ("tests/test_simulator.py", "-k", "Records"),
           "a node's engine follows its kind"),
    Mutant("node-work-not-made-an-integer", "simulator.py",
           "if type(work) is not int and (work := _integer(work)) is None:",
           "if type(work) is not int and work is None:",
           ("tests/test_simulator.py", "-k", "Records"),
           "node work is an integer, not a bool or a float, taken as a plain int"),
    Mutant("bool-id-takes-the-int-fast-path", "simulator.py",
           "if type(nid := node.id) is not int and", "if not isinstance(nid := node.id, int) and",
           ("tests/test_simulator.py", "-k", "Records"),
           "only a plain int skips schedule's id check: a bool id is refused, and never aliases id 0 or 1"),
    Mutant("edge-ends-unchecked", "simulator.py",
           "            if None in (ends := (_integer(a), _integer(b))):\n"
           "                raise ValueError(f\"edge ({a!r}, {b!r}): node ids must be integers\")\n"
           "            a, b = ends\n",
           "            pass\n",
           ("tests/test_simulator.py", "-k", "aliases"),
           "an edge end is an integer node id by the node-id rule: a bool or 1.0 never aliases node 1"),
    Mutant("config-decode-error-unconverted", "jsonio.py",
           "    except (UnicodeDecodeError, json.JSONDecodeError) as e:\n", "    except json.JSONDecodeError as e:\n",
           ("tests/test_cli.py", "-k", "Encoding"),
           "a config file that is not UTF-8 is not valid JSON: a config error, exit 2"),
    Mutant("zero-passes-as-positive", "tensor.py",
           "not (n > 0 if positive else n >= 0)", "not (n >= 0 if positive else n >= 0)",
           ("tests/test_block.py", "tests/test_simulator.py", "tests/test_cli.py", "-k", "config_validation or zero"),
           "a positive field (a count, a rate, epsilon_ln, trials) refuses 0"),
    Mutant("huge-integer-taken-as-finite", "tensor.py",
           "return i if abs(i) <= sys.float_info.max else None", "return i",
           ("tests/test_cli.py", "-k", "RealFields"),
           "an integer beyond float64's range is not finite, in every real-valued field"),
    Mutant("real-passes-an-infinity", "tensor.py",
           "        return v if math.isfinite(v) else None\n", "        return v\n",
           ("tests/test_cli.py", "-k", "non_finite_tolerance"),
           "a float infinity or NaN is not a real value of any field: `_real` refuses it"),
    Mutant("long-integer-unconverted", "jsonio.py",
           "    except ValueError as e:  # Python's guard", "    except ZeroDivisionError as e:  # Python's guard",
           ("tests/test_cli.py", "-k", "LongIntegers"),
           "a config integer too long for Python to convert is a config error, exit 2"),
    Mutant("span-starts-at-first-end", "simulator.py",
           "            bounds[site] = [start, end]\n", "            bounds[site] = [end, end]\n",
           ("tests/test_simulator.py", "-k", "SiteSplit"),
           "a site's span starts at its nodes' earliest start"),
    Mutant("span-ends-at-last-entry", "simulator.py",
           "            if end > b[1]:\n                b[1] = end\n", "            b[1] = end\n",
           ("tests/test_simulator.py", "-k", "SiteSplit"),
           "a site's span ends at its nodes' latest end, not at its last-scheduled node's"),
    Mutant("both-spans-from-conventional-timeline", "simulator.py",
           "_site_spans(graph_fused, fused_timeline)", "_site_spans(graph_conv, conv_timeline)",
           ("tests/test_simulator.py", "-k", "SiteSplit"),
           "the fused spans are read from the fused timeline"),
    Mutant("site-keyed-by-tuple-position", "simulator.py",
           "site_of = {n.id: n.site for n in graph.nodes}", "site_of = {i: n.site for i, n in enumerate(graph.nodes)}",
           ("tests/test_simulator.py", "-k", "SiteSplit"),
           "each timeline entry finds its site by node id, whatever the order of the node tuple"),
    Mutant("missing-site-spans-zero", "simulator.py",
           "if (b := bounds.get(site)) is None:", "if (b := bounds.get(site, [0, 0])) is None:",
           ("tests/test_simulator.py", "-k", "SiteSplit"),
           "a graph with no node of some site is refused"),
    Mutant("sync-tested-against-own-engine", "simulator.py",
           "            if p_engine != engine:\n", "            if node.engine != engine:\n",
           ("tests/test_simulator.py", "-k", "Schedule"),
           "a dependency pays the sync overhead when its node ran on the other engine"),
    Mutant("second-mode-accepted", "cli.py",
           "        given.add(option.dest)\n", "        given.add(option.flag)\n",
           ("tests/test_cli.py", "-k", "SpelledInFull"),
           "argv with two modes, or an option given twice, is left to argparse"),
    Mutant("negative-seed-value-taken", "cli.py",
           'if (value := next(tokens, "-")).startswith("-"):', "if (value := next(tokens, None)) is None:",
           ("tests/test_cli.py", "-k", "SpelledInFull"),
           "an option argument starting with '-' is left to argparse"),
    Mutant("seed-left-a-string", "cli.py",
           "            args[option.dest] = option.type(value)\n", "            args[option.dest] = value\n",
           ("tests/test_cli.py", "-k", "SpelledInFull"),
           "a seed spelled in full is stored as argparse stores it, an int"),
    Mutant("weights-not-copied", "norms.py",
           "_store(self, gamma=as_row_vector(self.gamma).copy(), beta=",
           "_store(self, gamma=as_row_vector(self.gamma), beta=",
           ("tests/test_block.py", "-k", "private"),
           "norm parameters are private copies: a caller's gamma is neither stored nor frozen"),
    Mutant("block-shape-mismatch-named-before-non-finite", "block.py",
           '        _reject(x, f"input shape {x.shape}, expected {(cfg.seq_len, cfg.d_model)}")\n',
           '        raise ValueError(f"input shape {x.shape}, expected {(cfg.seq_len, cfg.d_model)}")\n',
           ("tests/test_block.py", "-k", "non_finite_input"),
           "the block names a non-finite input before a misshapen one, as every kernel does"),
)


def _env(src: Path) -> dict:
    # no bytecode: a mutant and its original may share a size and an mtime second
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


def _pytest(src: Path, selection) -> int:
    """pytest's exit code on `selection`, run in the temporary directory against the copy."""
    paths = [str(ROOT / a) if a.startswith("tests/") else a for a in selection]
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"), *paths]
    return subprocess.run(cmd, cwd=src.parent, env=_env(src), stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=600).returncode


def _copy_src(tmp: Path) -> Path:
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    found = subprocess.run([sys.executable, "-c", "import normfusion; print(normfusion.__file__)"],
                           env=_env(src), capture_output=True, text=True).stdout.strip()
    if Path(found).resolve() != (src / "normfusion" / "__init__.py").resolve():
        sys.exit(f"mutation: the copy is not what imports as normfusion (got {found!r})")
    return src


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"mutation: no mutant named {', '.join(sorted(unknown))}")
    mutants = [m for m in MUTANTS if not argv or m.name in argv]
    for m in mutants:  # a stale table fails before anything runs
        count = (ROOT / "src" / "normfusion" / m.file).read_text().count(m.old)
        if count != 1:
            sys.exit(f"mutation: {m.name}: the old text occurs {count} times in {m.file}, not once")

    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        src = _copy_src(Path(tmp))
        for m in mutants:
            if (code := _pytest(src, m.selection)) != 0:
                sys.exit(f"mutation: {m.name}: its selection exits {code} on the unmutated code")
        survivors = []
        for m in mutants:
            path = src / "normfusion" / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            t0 = time.perf_counter()
            try:
                code = _pytest(src, m.selection)
            finally:
                path.write_text(original)
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            print(f"{m.name}: {verdict} in {time.perf_counter() - t0:.1f} s ({m.reason})")
            if code != 1:
                survivors.append(m.name)
    print(f"mutation: {len(mutants) - len(survivors)} of {len(mutants)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
