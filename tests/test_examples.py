"""Smoke tests: every example script runs end to end.

Examples are documentation; these tests keep them from rotting. Each
example's ``main()`` is executed in-process with its output directory
redirected into a tmp dir.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

EXAMPLES = [
    "quickstart",
    "ndvi_monitoring",
    "dsms_server_demo",
    "wildfire_watch",
    "instrument_zoo",
    "archive_replay",
    "two_satellite_mosaic",
    "chaos_run",
    "flight_recorder",
    "explain_analyze",
]


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, tmp_path, capsys, monkeypatch):
    module = load_example(name)
    if hasattr(module, "OUTPUT_DIR"):
        monkeypatch.setattr(module, "OUTPUT_DIR", tmp_path)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"{name} printed nothing"


def test_quickstart_writes_pngs(tmp_path, monkeypatch, capsys):
    module = load_example("quickstart")
    monkeypatch.setattr(module, "OUTPUT_DIR", tmp_path)
    module.main()
    pngs = list(tmp_path.glob("*.png"))
    assert len(pngs) == 4
    assert all(p.read_bytes().startswith(b"\x89PNG") for p in pngs)


def test_wildfire_watch_raises_alert(capsys):
    module = load_example("wildfire_watch")
    module.main()
    out = capsys.readouterr().out
    assert "ALERT" in out


def test_instrument_zoo_reports_all_three(capsys):
    module = load_example("instrument_zoo")
    module.main()
    out = capsys.readouterr().out
    for org in ("image-by-image", "row-by-row", "point-by-point"):
        assert org in out
