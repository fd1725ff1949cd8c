"""Smoke tests that run the demo scripts end to end."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_mesh_tour_demo(tmp_path, monkeypatch, capsys):
    # the demo writes into demo_out/ under the working directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "01_mesh_tour.py"), run_name="__main__")
    out = capsys.readouterr().out
    levels = [line for line in out.splitlines() if line.startswith("  refine level")]
    assert len(levels) == 3
    assert all("regularity= 2.414" in line for line in levels)
    assert (tmp_path / "demo_out" / "square.mesh").exists()
    assert (tmp_path / "demo_out" / "jittered.vtk").exists()
