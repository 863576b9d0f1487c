"""Journal fragments: uncompressed writes, compressed ones still load.

Fragments are written with ``np.savez`` (stored, not deflated); journals
written before that used ``np.savez_compressed``. Both must load through
:func:`repro.io.load_shard_fragment` into the bit-identical result.
"""

from __future__ import annotations

import zipfile

import numpy as np
import pytest

from repro import PRESETS, Runner, RuntimeConfig, compile_self_join
from repro.grid import GridIndex
from repro.io import checkpoints, load_shard_fragment, save_shard_fragment


@pytest.fixture(scope="module")
def result():
    rng = np.random.default_rng(4)
    index = GridIndex(rng.exponential(0.25, (600, 2)), 0.05)
    rc = RuntimeConfig(optimization=PRESETS["sortbywl"], seed=0)
    return Runner().run(compile_self_join(index, rc))


def _compress_types(path):
    with zipfile.ZipFile(path) as zf:
        return {info.compress_type for info in zf.infolist()}


def _assert_identical(loaded, result):
    assert loaded.pairs.tobytes() == result.pairs.tobytes()
    assert loaded.pairs.dtype == result.pairs.dtype
    assert loaded.total_seconds == result.total_seconds
    assert loaded.num_points == result.num_points
    assert loaded.epsilon == result.epsilon
    assert loaded.config_description == result.config_description
    assert loaded.fidelity == result.fidelity
    assert len(loaded.batch_stats) == len(result.batch_stats)
    assert len(loaded.fragments) == len(result.fragments)
    for a, b in zip(loaded.fragments, result.fragments):
        assert a.tobytes() == b.tobytes()


def test_fragments_are_written_uncompressed(result, tmp_path):
    path = tmp_path / "frag.npz"
    nbytes = save_shard_fragment(path, result, shard_id=0, run_fingerprint="r")
    assert _compress_types(path) == {zipfile.ZIP_STORED}
    assert nbytes == path.stat().st_size >= result.pairs.nbytes
    assert not list(tmp_path.glob("*.tmp"))  # the atomic rename completed
    loaded, meta = load_shard_fragment(path)
    assert meta["shard_id"] == 0 and meta["run"] == "r"
    _assert_identical(loaded, result)


def test_compressed_fragment_still_loads_bit_identical(result, tmp_path, monkeypatch):
    # the writer as it was before fragments went uncompressed
    monkeypatch.setattr(checkpoints.np, "savez", np.savez_compressed)
    path = tmp_path / "old.npz"
    save_shard_fragment(path, result, shard_id=2, run_fingerprint="old-run")
    monkeypatch.undo()
    assert _compress_types(path) == {zipfile.ZIP_DEFLATED}
    loaded, meta = load_shard_fragment(path)
    assert meta["shard_id"] == 2 and meta["run"] == "old-run"
    _assert_identical(loaded, result)
