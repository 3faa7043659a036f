"""The installed distribution must carry every ``repro`` package.

``pyproject.toml`` lists its packages explicitly; a package missing
from that list is absent from an installed build, and every module
importing it fails outside ``PYTHONPATH=src``.
"""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def test_every_repro_package_is_listed():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    listed = set(config["tool"]["setuptools"]["packages"])
    src = ROOT / "src"
    on_disk = {
        ".".join(init.parent.relative_to(src).parts)
        for init in src.glob("repro/**/__init__.py")
    }
    assert "repro.obs" in on_disk
    assert sorted(on_disk - listed) == []
