"""The small ufunc buffer of the batch's per-row mean updates.

:func:`~repro.kernels.batched.row_buffered` runs the update that ends
:func:`~repro.kernels.sweep.grk_iteration_rows` and the diffusion of
:func:`~repro.kernels.batched.phased_iteration_rows` under numpy's
smallest ufunc buffer.  This file pins its contract: the results are
bit-identical to the same calls without it, at every dtype, geometry and
row layout, and numpy's buffer size reads the same after every batch, in
the calling thread and in the row threads, and after a body that raises.
"""

import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.engine import ExecutionPolicy, SearchEngine, SearchRequest
from repro.kernels import batched, sweep
from repro.kernels.primitives import uniform_state


def _plain(fn, *args, **kwargs):
    return fn(*args, **kwargs)


#: Multiples of 16 and not: a row or block shorter than the buffer, one
#: that fills it exactly and ones that end partway through it.
SIZES = (16, 48, 64, 96, 100, 256)


@st.composite
def batches(draw):
    """``(values, targets, n_blocks, strided)``: a random ``(B, N)`` batch,
    a global (None) or dividing block count, and whether the state is a
    ``[::2]`` row view rather than C-ordered."""
    n = draw(st.sampled_from(SIZES))
    rows = draw(st.integers(1, 9))
    divisors = [k for k in range(1, n + 1) if n % k == 0]
    n_blocks = draw(st.one_of(st.none(), st.sampled_from(divisors)))
    strided = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((rows, n))
    targets = rng.integers(0, n, size=rows).astype(np.intp)
    return values, targets, n_blocks, strided


def _laid_out(values, strided):
    """A fresh state holding *values*: C-ordered, or a ``[::2]`` view."""
    if not strided:
        return values.copy()
    out = np.zeros((2 * values.shape[0], values.shape[1]), values.dtype)
    out[::2] = values
    return out[::2]


@settings(max_examples=80, deadline=None)
@given(batch=batches(), dtype=st.sampled_from([np.float32, np.float64]),
       iterations=st.integers(1, 3))
def test_real_iteration_is_bit_identical(batch, dtype, iterations):
    values, targets, n_blocks, strided = batch
    results = []
    for helper in (batched.row_buffered, _plain):
        state = _laid_out(values.astype(dtype), strided)
        with mock.patch.object(batched, "row_buffered", helper):
            for _ in range(iterations):
                sweep.grk_iteration_rows(state, targets, n_blocks=n_blocks)
        results.append(state)
    np.testing.assert_array_equal(results[0], results[1])


@settings(max_examples=80, deadline=None)
@given(batch=batches(), dtype=st.sampled_from([np.complex64, np.complex128]),
       oracle_phase=st.floats(0.0, 2 * np.pi),
       diffusion_phase=st.floats(0.0, 2 * np.pi),
       iterations=st.integers(1, 3))
def test_phased_iteration_is_bit_identical(batch, dtype, oracle_phase,
                                           diffusion_phase, iterations):
    values, targets, n_blocks, strided = batch
    results = []
    for helper in (batched.row_buffered, _plain):
        state = _laid_out(values.astype(dtype), strided)
        with mock.patch.object(batched, "row_buffered", helper):
            for _ in range(iterations):
                batched.phased_iteration_rows(
                    state, targets, n_blocks=n_blocks,
                    oracle_phase=oracle_phase,
                    diffusion_phase=diffusion_phase,
                )
        results.append(state)
    np.testing.assert_array_equal(results[0], results[1])


@pytest.mark.parametrize("n_blocks", [None, 4])
def test_both_updates_run_under_the_small_buffer(n_blocks):
    """Each iteration makes exactly one buffered call, at ROW_BUFSIZE."""
    seen = []
    real = batched.row_buffered

    def spy(fn, *args, **kwargs):
        def body(*a, **k):
            seen.append(np.getbufsize())
            return fn(*a, **k)
        return real(body, *args, **kwargs)

    targets = np.array([0, 5, 9], dtype=np.intp)
    with mock.patch.object(batched, "row_buffered", spy):
        sweep.grk_iteration_rows(
            uniform_state(64, lead=(3,)), targets, n_blocks=n_blocks
        )
        batched.phased_iteration_rows(
            uniform_state(64, dtype=np.complex128, lead=(3,)), targets,
            n_blocks=n_blocks, oracle_phase=1.0, diffusion_phase=2.0,
        )
    assert seen == [batched.ROW_BUFSIZE] * 2


@pytest.fixture
def caller_bufsize():
    """The calling thread's buffer at a size no kernel sets, so a leak from
    an earlier call cannot pass for a restore; the old size comes back."""
    old = np.setbufsize(4096)
    yield 4096
    np.setbufsize(old)


def test_buffer_is_restored_when_the_body_raises(caller_bufsize):
    def body():
        assert np.getbufsize() == batched.ROW_BUFSIZE
        raise ZeroDivisionError("inside the buffered call")

    with pytest.raises(ZeroDivisionError):
        batched.row_buffered(body)
    assert np.getbufsize() == caller_bufsize


def _threaded_cwb():
    return SearchEngine().search_batch(SearchRequest(
        n_items=1024, n_blocks=4, method="grk-cwb",
        policy=ExecutionPolicy(row_threads=2),
    ))


def test_threaded_batch_keeps_the_callers_buffer(caller_bufsize):
    report = _threaded_cwb()
    assert report.execution["row_threads"] == 2
    assert np.getbufsize() == caller_bufsize


def test_threaded_batch_keeps_each_row_threads_buffer(monkeypatch,
                                                     caller_bufsize):
    """Read in every row thread, before and after its slab's sweep."""
    reads = []
    real = kernels.program_sweep_rows

    def wrapped(program, targets, policy):
        before = np.getbufsize()
        out = real(program, targets, policy)
        reads.append((threading.get_ident(), before, np.getbufsize()))
        return out

    monkeypatch.setattr(kernels, "program_sweep_rows", wrapped)
    _threaded_cwb()
    assert {ident for ident, _, _ in reads} - {threading.get_ident()}
    assert all(before == after for _, before, after in reads), reads
