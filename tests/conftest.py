"""Fixtures shared by the kernel, norm, fusion and block tests."""

import warnings

import numpy as np
import pytest

from normfusion import tensor


@pytest.fixture
def chunked_kernel(monkeypatch):
    """`matmul` on the chunked kernel, as on a host whose einsum fails the probe."""

    def not_taken(rows, b):
        raise AssertionError("the einsum kernel ran with the probe's result False")

    monkeypatch.setattr(tensor, "_EINSUM_IN_ORDER", False)
    monkeypatch.setattr(tensor, "_summing_einsum", not_taken)


@pytest.fixture
def strict_fp():
    """Floating-point errors raise and warnings are errors, so a check may not lean on either."""
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        yield
