#!/usr/bin/env python3
"""Walk through the core trick: defer a normalization past a matmul.

A layernorm ends in "divide by sqrt(variance + eps)", a softmax in "divide
by the sum of exponentials". Both divisors need the whole vector gathered
in one place, and both are immediately followed by a linear layer. Since
a scalar commutes with a matrix product, the divide can wait until after
the matmul, and everything static folds into the weights beforehand.
"""

import numpy as np

from normfusion import (
    LayerNormParams,
    fold_layernorm_linear,
    fused_layernorm_matmul,
    fused_softmax_matmul,
    layernorm,
    max_rel_error,
    softmax_stable,
)
from normfusion.tensor import matmul

rng = np.random.default_rng(7)
n, m = 8, 5

print("=== Layernorm -> Linear ===\n")
x = rng.standard_normal(n)
params = LayerNormParams(gamma=rng.uniform(0.5, 1.5, n), beta=rng.standard_normal(n) * 0.1,
                         epsilon=1e-5)
weight = rng.standard_normal((n, m)) / np.sqrt(n)

conventional = matmul(layernorm(x, params), weight)
print("conventional  normalize(x) @ W :", np.array2string(conventional, precision=6))

fold = fold_layernorm_linear(params, weight)
print("\nFolding (I - ones/n) @ diag(gamma) @ W at compile time:")
print("  folded weight shape:", fold.folded_weight.shape)
print("  ones-vector image (should be ~0):",
      np.array2string(matmul(np.ones(n), fold.folded_weight), precision=2))
print("  folded bias = beta @ W:", np.array2string(fold.folded_bias, precision=6))
print("  epsilon, carried by the fold:", fold.epsilon)

fused = fused_layernorm_matmul(x, fold)
print("\nfused  (x @ W_folded) / sqrt(var + eps) + bias :",
      np.array2string(fused, precision=6))
print("relative deviation:", max_rel_error(fused, conventional))
print("-> the variance reduction never blocks the matmul; they only meet at the final scale")

print("\n=== Softmax -> Matmul ===\n")
logits = rng.uniform(-1e3, 1e3, n)  # extreme logits: max-shifted numerators stay finite
values = rng.standard_normal((n, m))

conventional = matmul(softmax_stable(logits), values)
fused = fused_softmax_matmul(logits, values)
print("logit range: [%.0f, %.0f]" % (logits.min(), logits.max()))
print("conventional softmax(x) @ V :", np.array2string(conventional, precision=6))
print("fused  (exp(x - max) @ V) / sum :", np.array2string(fused, precision=6))
print("relative deviation:", max_rel_error(fused, conventional))

# the normalization identity survives the deferral exactly
out = fused_softmax_matmul(logits, np.ones((n, 1)))
print("\nsoftmax @ ones-column (sum of probabilities):", out[0], "(exactly 1.0:", out[0] == 1.0, ")")
