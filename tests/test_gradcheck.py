"""The gradient checker itself: it must catch real errors."""

import numpy as np
import pytest

from trifuse.gradcheck import (CASES, check_function, format_report,
                               run_suite)
from trifuse.tensor import DIFFERENTIABLE_OPS, Tensor, tsum


def test_subset_run_passes():
    results = run_suite(seed=0, names=["relu", "matmul", "selective_scan"])
    assert len(results) == 3
    assert all(r.ok for r in results)


def test_uncased_registry_entry_counts_as_failure():
    results = run_suite(seed=0, names=["no_such_op"])
    assert len(results) == 1
    assert not results[0].ok
    assert results[0].max_err == float("inf")
    assert "FAIL" in format_report(results)


def test_checker_detects_a_wrong_gradient():
    x = Tensor(np.array([0.5, -1.2, 2.0]), requires_grad=True)

    honest = check_function(lambda: tsum(x * x), [x])
    assert honest < 1e-6

    def mismatch():
        # value follows x.data quadratically, but only a linear term is on
        # the tape, so the analytic gradient is wrong by construction
        untracked = float((x.data * x.data - x.data).sum())
        return tsum(x) + untracked

    err = check_function(mismatch, [x])
    assert err > 1e-3


def test_case_registry_covers_itself():
    # the table is built at import, so it is whole before any run: every
    # registered op has a case, and the first five build and run
    assert DIFFERENTIABLE_OPS <= set(CASES)
    results = run_suite(seed=0, names=sorted(CASES)[:5])
    assert len(results) == 5
    assert all(np.isfinite(r.max_err) for r in results)


def test_a_case_draws_its_weights_once_from_its_own_generator():
    # a closure re-run under finite differences sees the same weights,
    # and a second build from an equal generator draws the same ones
    first, _ = CASES["exp"].build(np.random.default_rng(5))
    again = float(first().data)
    assert float(first().data) == again
    second, _ = CASES["exp"].build(np.random.default_rng(5))
    assert float(second().data) == again


def test_check_function_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        check_function(lambda: x * 2.0, [x])


def test_loss_cases_differentiate_stacked_rows():
    # the loss cases check a call on [2, ..., B] rows, as the train step
    # makes, besides the 2-D call
    names = ["ce_smooth", "triplet_batch_hard", "total_loss"]
    assert all(r.ok for r in run_suite(seed=0, names=names))
    rng = np.random.default_rng(0)
    for name in names:
        _, wrt = CASES[name].build(rng)
        assert any(t.ndim == 3 for t in wrt), name
