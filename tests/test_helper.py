"""The helper process: it is always joined, it dies with its caller, its
errors keep their type, and its sorts and votes equal the in-process ones."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from axcrf import training
from axcrf.crf import AXcrfParams
from axcrf.experiment import run_synthetic_experiment
from axcrf.model import init_unary_model, unary_forward
from axcrf.pointcloud import Block, PointCloud
from axcrf.training import (NumericError, TrainConfig, _Helper, _shared_sort,
                            coverage_vote_predict, pipeline_forward, pipeline_vote,
                            train_step1)
from refimpl import DUPLICATE_CLOUDS
from test_experiment import ARTIFACTS, MINI
from test_training import TINY, tiny_setup

SRC = Path(__file__).resolve().parent.parent / "src"

needs_fork = pytest.mark.skipif(not training._FORK, reason="no os.fork here")


@pytest.fixture
def forked(monkeypatch):
    """The ids of the processes forked while the test runs."""
    pids = []
    real = os.fork

    def recording():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@needs_fork
def test_no_helper_left_after_train_step1_returns(forked):
    cloud, train_blocks, val_blocks = tiny_setup()
    train_step1(cloud, train_blocks, val_blocks,
                TrainConfig(C=cloud.C, lr=0.02, max_epochs=2, seed=0, **TINY))
    assert len(forked) == 1 and _reaped(forked[0])


@needs_fork
def test_no_helper_left_after_train_step1_raises(forked):
    cloud, train_blocks, val_blocks = tiny_setup()
    config = TrainConfig(C=cloud.C, lr=1e9, max_epochs=4, seed=0, **TINY)
    with pytest.raises(NumericError):
        with np.errstate(all="ignore"):
            train_step1(cloud, train_blocks, val_blocks, config)
    assert len(forked) == 1 and _reaped(forked[0])


@needs_fork
def test_helper_value_error_reaches_the_caller_as_value_error(forked, monkeypatch):
    parent = os.getpid()
    real = training._shared_sort

    def failing(rank, positions):
        if os.getpid() != parent:
            raise ValueError("sort failed in the helper")
        return real(rank, positions)

    monkeypatch.setattr(training, "_shared_sort", failing)
    cloud, train_blocks, val_blocks = tiny_setup()
    with pytest.raises(ValueError, match="sort failed in the helper") as info:
        train_step1(cloud, train_blocks, val_blocks,
                    TrainConfig(C=cloud.C, lr=0.02, max_epochs=2, seed=0, **TINY))
    assert "raised in the helper process" in "".join(getattr(info.value, "__notes__", []))
    assert len(forked) == 1 and _reaped(forked[0])


_ENDLESS_STEP1 = """
import os
from axcrf.pointcloud import generate_synthetic, slice_blocks
from axcrf.training import TrainConfig, train_step1

real = os.fork

def announce():
    pid = real()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = announce
cloud = generate_synthetic("strata", N=420, C=3, noise=0.1, seed=0)
blocks = slice_blocks(cloud, side=60.0, shift=30.0, min_points=16)
half = len(blocks) // 2
train_step1(cloud, blocks[:half], blocks[half:],
            TrainConfig(C=3, max_epochs=10**6, seed=0, **{tiny}))   # never stops
"""


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"     # a zombie has exited and waits for its reaper


@needs_fork
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_helper_dies_with_a_killed_caller():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    script = _ENDLESS_STEP1.format(tiny=dict(TINY, patience=10**6))
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                            env=env, text=True)
    try:
        helper = int(proc.stdout.readline())
        time.sleep(0.3)                 # let it train a little
        assert _alive(helper)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    deadline = time.monotonic() + 2.0
    while _alive(helper) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not _alive(helper)


@needs_fork
@pytest.mark.parametrize("cloud", list(DUPLICATE_CLOUDS.values()), ids=list(DUPLICATE_CLOUDS))
def test_helper_sorts_equal_in_process_sorts(cloud):
    rng = np.random.default_rng(11)
    positions = [cloud(rng) for _ in range(3)]
    for rank in (24, 192):
        with _Helper() as helper:
            assert helper.pid is not None
            got = list(helper.sorts(positions, rank))
        for pos, sorted_idx in zip(positions, got):
            want = _shared_sort(rank, pos)
            assert sorted_idx.dtype == want.dtype
            np.testing.assert_array_equal(sorted_idx, want)


def test_in_process_transport_serves_in_order(monkeypatch):
    monkeypatch.setattr(training, "_FORK", False)
    rng = np.random.default_rng(12)
    positions = [rng.uniform(size=(40, 3)) for _ in range(5)]
    with _Helper() as helper:
        assert helper.pid is None
        got = list(helper.sorts(positions, 8))
    for pos, sorted_idx in zip(positions, got):
        np.testing.assert_array_equal(sorted_idx, _shared_sort(8, pos))
    # one request at a time, so neither process can block the other's pipe
    with _Helper() as helper:
        helper.submit("sort", 8, positions[0])
        with pytest.raises(RuntimeError, match="before the next request"):
            helper.submit("sort", 8, positions[1])


@needs_fork
def test_mini_recipe_is_byte_identical_without_the_helper_process(tmp_path, forked,
                                                                  monkeypatch):
    # the in-process transport is the reference the forked helper must match
    run_synthetic_experiment(MINI, out_dir=tmp_path / "forked")
    assert len(forked) == 5     # step 1, both test votes, labels, step 2
    monkeypatch.setattr(training, "_FORK", False)
    run_synthetic_experiment(MINI, out_dir=tmp_path / "in_process")
    assert len(forked) == 5
    for name in sorted(ARTIFACTS):
        assert (tmp_path / "forked" / name).read_bytes() == \
            (tmp_path / "in_process" / name).read_bytes(), name


def _vote_setup(name):
    """(cloud, blocks, n_sample, salt) whose coverage vote runs an odd
    number of passes, so the two processes forward uneven halves."""
    if name == "tiny":
        cloud, blocks, _ = tiny_setup()
        return cloud, blocks, 48, 7
    rng = np.random.default_rng(5)
    positions = DUPLICATE_CLOUDS[name](rng)
    n = len(positions)
    cloud = PointCloud(positions, rng.normal(size=(n, 2)), rng.integers(0, 3, n), 3)
    return cloud, [Block((0.0, 0.0), 4.0, np.arange(n))], 96, 11


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "in-process"])
@pytest.mark.parametrize("stack", [False, True], ids=["unary", "stack"])
@pytest.mark.parametrize("setup", ["tiny", "resampled"])
def test_pipeline_vote_equals_the_in_process_reference(setup, stack, fork, forked,
                                                       monkeypatch):
    if fork and not training._FORK:
        pytest.skip("no os.fork here")
    monkeypatch.setattr(training, "_FORK", fork)
    cloud, blocks, n_sample, salt = _vote_setup(setup)
    model = init_unary_model(seed=3, C=cloud.C, C_in=cloud.n_features, K=4,
                             block_channels=(6, 6), block_strides=(1, 2), C_delta=4,
                             hidden=6, dropout_rate=0.0, offset_scale=4.0)
    # the stack reads rank 16, deeper than the classifier's 8
    axcrf = AXcrfParams.initial(cloud.C, D_list=(1, 4), K=4, r=2) if stack else None
    got = pipeline_vote(cloud, blocks, model, axcrf, n_sample, 0, salt)
    assert len(forked) == (1 if fork else 0)
    want = coverage_vote_predict(cloud, blocks,
                                 lambda p, f: pipeline_forward(model, axcrf, p, f),
                                 n_sample, 0, salt)
    assert got[2] == want[2] and want[2] % 2 == 1
    assert np.unique(want[1]).size > 1, "a one-class vote would hide a mix-up"
    for a, b in zip(got[:2], want[:2]):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    if axcrf is None:
        # unary_forward sorts at model.max_neighbor_rank on its own, the
        # rank pipeline_vote sorts at without a stack
        old = coverage_vote_predict(cloud, blocks, lambda p, f: unary_forward(p, f, model),
                                    n_sample, 0, salt)
        for a, b in zip(got[:2], old[:2]):
            np.testing.assert_array_equal(a, b)
