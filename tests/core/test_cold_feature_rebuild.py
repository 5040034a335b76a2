"""Cold feature rebuilds are byte-equal to the committed feature cache.

The committed ``.repro_cache/features/*.npz`` files were written by
earlier feature code.  Rebuilding the tensors of the ten cold-attack
cells (five designs x M1/M3, benchmark config) from their committed
DEFs into an empty cache must reproduce every file byte for byte:
candidate lists, vector features and the unique-image table alike.
"""

import shutil
from pathlib import Path

import pytest

from repro.core import AttackConfig, SplitDataset
from repro.core.artifacts import artifact_store
from repro.pipeline import clear_memo, get_split

COMMITTED = Path(__file__).resolve().parents[2] / ".repro_cache"
DESIGNS = ("c432", "c880", "c1355", "c1908", "c2670")


@pytest.mark.parametrize("layer", [1, 3])
@pytest.mark.parametrize("design", DESIGNS)
def test_rebuilt_features_byte_equal_committed(
    tmp_path, monkeypatch, design, layer
):
    if not (COMMITTED / f"{design}.def").exists():
        pytest.skip("committed warm cache not present")
    shutil.copyfile(COMMITTED / f"{design}.def", tmp_path / f"{design}.def")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_memo()
    try:
        split = get_split(design, layer)
        dataset = SplitDataset(split, AttackConfig.benchmark())
    finally:
        clear_memo()
    rebuilt = artifact_store().path("features", dataset.cache_key)
    committed = COMMITTED / "features" / rebuilt.name
    assert committed.exists(), f"no committed features for {design}/M{layer}"
    assert rebuilt.read_bytes() == committed.read_bytes()
