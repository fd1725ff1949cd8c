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


def _demo_output(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_entropy_inequality_demo(tmp_path, monkeypatch, capsys):
    out = _demo_output("03_entropy_inequality.py", tmp_path, monkeypatch, capsys)
    rejected = [line.split()[0] for line in out if "NOT an E-flux" in line]
    assert rejected == ["central"]


def test_kinetic_defect_demo(tmp_path, monkeypatch, capsys):
    out = _demo_output("04_kinetic_defect.py", tmp_path, monkeypatch, capsys)
    rows = {line.split()[0]: line.split()[-1] for line in out
            if " concentration " in line}
    assert rows == {"burgers": "1.4648e-03", "linear_advection": "1.0000e+00",
                    "rotated_burgers_2d": "1.0000e+00"}


def test_shock_convergence_demo(tmp_path, monkeypatch, capsys):
    out = _demo_output("02_shock_convergence.py", tmp_path, monkeypatch, capsys)
    assert "least-squares fitted rate: 0.9998" in out
    audits = [line for line in out if line.startswith("  level ")]
    assert len(audits) == 15
    assert all(line.split()[-1] == "ok" for line in audits)


def test_oscillation_histograms_demo(tmp_path, monkeypatch, capsys):
    out = _demo_output("05_oscillation_histograms.py", tmp_path, monkeypatch,
                       capsys)
    rows = [line.split() for line in out if line[:5].strip().isdigit()]
    assert [row[0] for row in rows] == ["0", "1", "2", "3"]
    assert [row[-1] for row in rows] == ["9.690e-01"] * 4
