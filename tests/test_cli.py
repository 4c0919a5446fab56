import os
import re
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.cli import (BLOWUP, DIFFUSION, NASH, ConfigError, main, parse_config,
                          trig_stream_field)
from driftlab.drifts import DriftAssembly, HodgeDecomposition, assemble_selfsimilar
from driftlab.fields import Grid, SpaceTimeField, write_field

from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*argv):
    return main(list(argv))


def test_classify_examples(capsys):
    assert run_cli("classify", "--order", "tq", "--q", "inf", "--p", "3", "--n", "3") == 0
    assert capsys.readouterr().out.strip() == "ζ₀ = 1.000, Region A"
    assert run_cli("classify", "--order", "tq", "--q", "1", "--p", "inf", "--n", "3") == 0
    assert capsys.readouterr().out.strip() == "ζ₀ = 2.000, bounded total speed"
    assert run_cli("classify", "--order", "xt", "--q", "inf", "--p", "1", "--n", "3") == 0
    assert capsys.readouterr().out.strip() == \
        "ζ₀ = 2.000, dimension_reduced_fail ((n−1)/2 endpoint)"


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_classify_dimension_below_two_exit_code(capsys, n):
    assert run_cli("classify", "--order", "tq", "--p", "3", "--q", "inf", "--n", n) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_classify_invalid_exponent(capsys):
    assert run_cli("classify", "--order", "tq", "--q", "0.5", "--p", "2", "--n", "3") == 2


def test_parse_config_errors(tmp_path):
    from driftlab.cli import ConfigError
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario.kind diffusion\n")
    with pytest.raises(ConfigError):
        parse_config(bad)
    dup = tmp_path / "dup.cfg"
    dup.write_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_config(dup)


def test_undecodable_config_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path / "out"))
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"scenario.kind = diffusion\nscenario.name = \xff\xfe\n")
    with pytest.raises(ConfigError, match="latin.cfg"):
        parse_config(cfg)
    assert run_cli("run", str(cfg)) == 2
    assert "latin.cfg" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_CONFIG_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.tuples(st.text(max_size=12), st.sampled_from(["=", " = ", "", "#"]),
                       st.text(max_size=12)), max_size=6).map(
        lambda lines: "\n".join(k + s + v for k, s, v in lines).encode(
            "utf-8", "surrogatepass")))


@settings(max_examples=200, deadline=None)
@given(_CONFIG_BYTES)
def test_parse_config_raises_only_config_error(data):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.cfg"
        path.write_bytes(data)
        try:
            cfg = parse_config(path)
        except ConfigError:
            return
    assert isinstance(cfg, dict)


def test_malformed_config_no_partial_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path / "out"))
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("scenario.kind = diffusion\ngrid.shape = lots\noutput.dir = x\n")
    assert run_cli("run", str(cfg)) == 2
    assert not (tmp_path / "out").exists()


def test_diffusion_scenario_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    assert run_cli("run", f"{CONFIGS}/heat-2d.cfg") == 0
    out = tmp_path / "out" / "heat-2d"
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert {"ledger.csv", "summary.csv", "final.dlf1"} <= set(first)
    assert run_cli("run", f"{CONFIGS}/heat-2d.cfg") == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second
    assert run_cli("report", str(tmp_path)) == 0


def test_diffusion_max_principle_sees_a_falling_min(tmp_path, monkeypatch, capsys):
    import driftlab.cli as cli
    solve_fundamental = cli.fundamental_solution

    def falling_min(*args, **kwargs):  # the last step's min falls by 1e-6 of the max
        run = solve_fundamental(*args, **kwargs)
        run.minimum[-1] -= 1e-6 * run.maximum[0]
        return run

    monkeypatch.setattr(cli, "fundamental_solution", falling_min)
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    assert run_cli("run", f"{CONFIGS}/heat-2d.cfg") == 1
    rows = (tmp_path / "out" / "heat-2d" / "summary.csv").read_text().splitlines()
    row = next(r for r in rows if r.startswith("max_principle,")).split(",")
    assert float(row[1]) > 1e-7 and row[-1] == "0"


def test_cfl_precondition_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    cfg = tmp_path / "cfl.cfg"
    cfg.write_text("\n".join([
        "scenario.kind = diffusion",
        "grid.n = 2", "grid.lo = -1,-1", "grid.hi = 1,1",
        "grid.shape = 64,64", "grid.t1 = 0.01", "grid.nt = 2",
        "grid.bc = zero",
        "init.kind = blob", "init.width = 0.2",
        "solver.dt = 0.01",
        "output.dir = out/cfl"]) + "\n")
    assert run_cli("run", str(cfg)) == 3
    assert not (tmp_path / "out" / "cfl").exists()


@pytest.mark.parametrize("setting", ["solver.dt = nan", "solver.dt = inf"])
def test_bad_solver_setting_exit_code(tmp_path, monkeypatch, setting):
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    cfg = tmp_path / "bad-solver.cfg"
    cfg.write_text("\n".join([
        "scenario.kind = diffusion",
        "grid.n = 2", "grid.lo = -1,-1", "grid.hi = 1,1",
        "grid.shape = 32,32", "grid.t1 = 0.01", "grid.nt = 2",
        "init.kind = blob", "init.width = 0.2",
        setting, "output.dir = out/bad-solver"]) + "\n")
    assert run_cli("run", str(cfg)) == 2
    assert not (tmp_path / "out" / "bad-solver").exists()


def test_nash_scenario_small(tmp_path, monkeypatch):
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    cfg = tmp_path / "nash.cfg"
    cfg.write_text("\n".join([
        "scenario.kind = nash_ensemble",
        "scenario.seed = 5", "ensemble.count = 3",
        "grid.n = 2", "grid.lo = -2,-2", "grid.hi = 2,2",
        "grid.shape = 96,96", "grid.t1 = 0.1", "grid.nt = 6",
        "drift.nt = 65",
        "output.dir = out/nash"]) + "\n")
    assert run_cli("run", str(cfg), "--jobs", "2") == 0
    members = (tmp_path / "out" / "nash" / "members.csv").read_text().strip().splitlines()
    assert members[0] == "member,label,nash_quotient"
    assert len(members) == 4
    assert "borderline_assembly" in members[2]


def test_blowup_scenario_small(tmp_path, monkeypatch):
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text("\n".join([
        "scenario.kind = borderline_blowup",
        "assembly.K = 2", "assembly.scale0 = 0.3", "assembly.ratio = 0.8",
        "assembly.amp_ratio = 0.9", "assembly.travel = 1.0",
        "run.resolution = 96", "run.extent = 1.9",
        "output.dir = out/blowup"]) + "\n")
    assert run_cli("run", str(cfg)) == 0
    blocks = (tmp_path / "out" / "blowup" / "blocks.csv").read_text().strip().splitlines()
    assert len(blocks) == 3
    sups = [float(line.split(",")[2]) for line in blocks[1:]]
    assert sups[1] > sups[0]


@pytest.mark.parametrize("setting", [
    "run.extent = nan", "run.extent = inf", "run.extent = 1.0",
    "run.tau0 = nan", "run.tau1 = nan", "run.tau1 = 0.1", "run.tau1 = 0.2",
    "probe.radius = nan", "probe.radius = 0", "run.resolution = 1",
    "assembly.travel = nan", "assembly.scale0 = nan", "drift.nt = 0",
    "assembly.ratio = nan", "assembly.end_time = nan", "run.tau0 = -1",
    "assembly.scale0 = -0.3", "assembly.K = 1",
])
def test_bad_blowup_setting_exit_code(tmp_path, monkeypatch, capsys, setting):
    import driftlab.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("a bad setting must be refused before any work")

    monkeypatch.setattr(cli, "assemble_borderline", no_work)
    monkeypatch.setattr(cli, "blowup_probe_series", no_work)
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    key = setting.split("=")[0].strip()
    lines = [setting if line.split("=")[0].strip() == key else line
             for line in (CONFIGS / "borderline-blowup.cfg").read_text().splitlines()]
    assert setting in lines
    cfg = tmp_path / "bad-blowup.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert run_cli("run", str(cfg)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("settings", [
    ("init.center = 0.5",), ("init.center = 0,0,0",), ("init.center = nan,0",),
    ("init.center = 0,inf",), ("init.width = nan",), ("init.width = 0",),
    ("init.kind = blob", "init.width = nan"), ("init.kind = blob", "init.width = -0.0"),
    ("init.kind = blob", "init.width = inf"), ("init.kind = blob", "init.center = nan,0"),
    ("grid.shape = 64.7,64",), ("grid.shape = nan,64",),
    ("drift.kind = random_stream", "drift.nt = 0"),
    ("drift.kind = random_stream", "drift.nt = -3"),
    ("drift.kind = random_stream", "drift.seed = -1"),
    ("drift.kind = random_stream", "drift.amplitude = nan"),
    ("init.center = 100,100",), ("init.center = 2.5,0",),
])
def test_bad_diffusion_setting_exit_code(tmp_path, monkeypatch, capsys, settings):
    import driftlab.cli as cli
    import driftlab.solver as solver

    def no_work(*args, **kwargs):
        raise AssertionError("a bad setting must be refused before any solve")

    monkeypatch.setattr(cli, "solve", no_work)
    monkeypatch.setattr(solver, "solve", no_work)
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    new = {s.split("=")[0].strip(): s for s in settings}
    lines = [line for line in (CONFIGS / "heat-2d.cfg").read_text().splitlines()
             if line.split("=")[0].strip() not in new]
    cfg = tmp_path / "bad-heat.cfg"
    cfg.write_text("\n".join(lines + list(new.values())) + "\n")
    assert run_cli("run", str(cfg)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting", [
    "drift.nt = 0", "drift.nt = -3", "scenario.seed = -1", "ensemble.amplitude = nan",
])
def test_bad_nash_setting_exit_code(tmp_path, monkeypatch, capsys, setting):
    import driftlab.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("a bad setting must be refused before any member runs")

    monkeypatch.setattr(cli, "_nash_member", no_work)
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    key = setting.split("=")[0].strip()
    lines = [line for line in (CONFIGS / "nash-ensemble.cfg").read_text().splitlines()
             if line.split("=")[0].strip() not in (key, "grid.shape")]
    cfg = tmp_path / "bad-nash.cfg"
    cfg.write_text("\n".join(lines + ["grid.shape = 16,16", setting]) + "\n")
    assert run_cli("run", str(cfg)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_nonfinite_grid_bounds_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    cfg = tmp_path / "nan-grid.cfg"
    cfg.write_text("\n".join([
        "scenario.kind = diffusion",
        "grid.n = 2", "grid.lo = nan,-1", "grid.hi = 1,1",
        "grid.shape = 32,32", "grid.t1 = 0.01", "grid.nt = 2",
        "init.kind = blob", "init.width = 0.2",
        "output.dir = out/nan-grid"]) + "\n")
    assert run_cli("run", str(cfg)) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "nan-grid").exists()

    g = Grid(2, (-1.0, -1.0), (1.0, 1.0), (8, 8), 0.0, 1.0, 2, "zero")
    dump = tmp_path / "nan-lo.dlf1"
    write_field(dump, SpaceTimeField(g, np.ones((2, 8, 8))))
    raw = bytearray(dump.read_bytes())
    raw[60:68] = struct.pack("<d", np.nan)  # lo_0
    dump.write_bytes(bytes(raw))
    assert run_cli("norm", str(dump), "--order", "tq", "--p", "2", "--q", "2",
                   "--radius", "0.5") == 2
    assert "bounds" in capsys.readouterr().err


def test_norm_and_decompose_commands(tmp_path, capsys):
    g = Grid(2, (-1, -1), (1, 1), (64, 64), 0.0, 1.0, 3, "periodic")
    ones = SpaceTimeField(g, np.ones((3, 64, 64)))
    dump = tmp_path / "ones.dlf1"
    write_field(dump, ones)
    assert run_cli("norm", str(dump), "--order", "tq", "--p", "inf", "--q", "inf",
                   "--radius", "0.5") == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0)
    # L^1_x of the indicator of B_{1/2} is its area
    assert run_cli("norm", str(dump), "--order", "tq", "--p", "1", "--q", "inf",
                   "--radius", "0.5") == 0
    assert float(capsys.readouterr().out) == pytest.approx(np.pi * 0.25, rel=0.02)

    b = trig_stream_field(g, seed=4, amplitude=1.0)
    bdump = tmp_path / "b.dlf1"
    write_field(bdump, b)
    assert run_cli("decompose", str(bdump)) == 0
    out = capsys.readouterr().out
    assert "reconstruction_error" in out


def test_decompose_3d_assembly(tmp_path, capsys):
    g = Grid(3, (-2.0,) * 3, (2.0,) * 3, (32,) * 3, 0.0, 0.2, 5, "periodic")
    asm = assemble_selfsimilar([0.01, 0.08, 0.2], n=3, travel=0.5,
                               x_start=(-0.25, 0.1, -0.1))
    dump = tmp_path / "b3.dlf1"
    write_field(dump, asm.sample_drift(g))
    assert run_cli("decompose", str(dump)) == 0
    err = float(capsys.readouterr().out.split("reconstruction_error = ")[1])
    assert err < 1e-12


def test_decompose_takes_its_error_from_the_decomposition(tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("decompose forms -div a again")

    monkeypatch.setattr(HodgeDecomposition, "reconstruct", refuse)
    g = Grid(2, (-1.0,) * 2, (1.0,) * 2, (32,) * 2, 0.0, 1.0, 2, "periodic")
    dump = tmp_path / "b.dlf1"
    write_field(dump, trig_stream_field(g, seed=6, amplitude=1.0))
    assert run_cli("decompose", str(dump)) == 0
    err = float(capsys.readouterr().out.split("reconstruction_error = ")[1])
    assert err <= 1e-15
    zero = Grid(2, (-1.0,) * 2, (1.0,) * 2, (32,) * 2, 0.0, 1.0, 2, "zero")
    write_field(dump, trig_stream_field(zero, seed=6, amplitude=1.0))
    assert run_cli("decompose", str(dump)) == 2
    assert "periodic grid" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decompose_nonfinite_dump_exit_code(tmp_path, capsys, bad):
    g = Grid(2, (-1.0,) * 2, (1.0,) * 2, (16,) * 2, 0.0, 1.0, 2, "periodic")
    samples = np.ones((2, 16, 16, 2))
    samples[1, 4, 9, 1] = bad
    dump = tmp_path / "bad.dlf1"
    write_field(dump, SpaceTimeField(g, samples, 2, allow_nonfinite=True))
    assert run_cli("decompose", str(dump)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"the drift has a non-finite sample ({bad}) at index (1, 4, 9, 1)" in captured.err


def test_main_builds_its_parser_once(capsys):
    import driftlab.cli as cli

    parser = cli.build_parser()
    built = cli.build_parser.cache_info().misses
    assert run_cli("classify", "--order", "tq", "--q", "inf", "--p", "3", "--n", "3") == 0
    assert run_cli("classify", "--order", "tq", "--q", "inf", "--p", "3", "--n", "1") == 2
    assert cli.build_parser() is parser
    assert cli.build_parser.cache_info().misses == built
    # importing the CLI builds no parser: the first main() call does
    probe = "import driftlab.cli as c; print(c.build_parser.cache_info().currsize)"
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout
    assert out.strip() == "0"


def _drop_blocks_line(text):
    return "".join(line for line in text.splitlines(True) if not line.startswith("blocks"))


@pytest.mark.parametrize("edit,message", [
    pytest.param(_drop_blocks_line, "'blocks'", id="missing-blocks"),
    pytest.param(lambda text: text.replace("n = 2", "n = 3"), "x_start", id="n-3"),
    pytest.param(lambda text: text.replace("n = 2", "n = 7"), "n must be 2 or 3", id="n-7"),
    pytest.param(lambda text: text.replace("ramp:2.2,3.8", "ramp:2.2"), "ramp", id="one-ramp"),
    pytest.param(lambda text: re.sub(r"R:\S+", "R:0.0", text), "R must be", id="R-0"),
    pytest.param(lambda text: re.sub(r"t0:\S+", "t0:nan", text), "t0 < t1", id="t0-nan"),
    pytest.param(lambda text: re.sub(r"x_start:\S+", "x_start:-0.3", text), "x_start",
                 id="one-x_start"),
    pytest.param(lambda text: text.replace("kind = block_rescaled", "kind = bogus"),
                 "'bogus'", id="kind-bogus"),
    # block 1 starts at 0.02, before block 0 ends at 0.05
    pytest.param(lambda text: re.sub(r"(block\.1 = t0:)\S+", r"\g<1>0.02", text), "overlap",
                 id="blocks-overlap"),
])
def test_manifest_missing_key_exit_code(tmp_path, monkeypatch, capsys, edit, message):
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    text = assemble_selfsimilar([0.0, 0.05, 0.1], travel=0.6).manifest()
    (tmp_path / "m.txt").write_text(edit(text))
    with pytest.raises(ValueError, match=message):
        DriftAssembly.from_manifest((tmp_path / "m.txt").read_text())
    cfg = tmp_path / "manifest.cfg"
    cfg.write_text("\n".join([
        "scenario.kind = diffusion",
        "grid.n = 2", "grid.lo = -1,-1", "grid.hi = 1,1",
        "grid.shape = 32,32", "grid.t1 = 0.1", "grid.nt = 2",
        "drift.kind = manifest", "drift.manifest = m.txt",
        "output.dir = out/manifest"]) + "\n")
    assert run_cli("run", str(cfg)) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest").exists()


def test_manifest_dimension_must_match_grid(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    asm = assemble_selfsimilar([0.0, 0.05, 0.1], n=3, travel=0.6)
    (tmp_path / "m.txt").write_text(asm.manifest())
    cfg = tmp_path / "manifest.cfg"
    cfg.write_text("\n".join([
        "scenario.kind = diffusion",
        "grid.n = 2", "grid.lo = -1,-1", "grid.hi = 1,1",
        "grid.shape = 32,32", "grid.t1 = 0.1", "grid.nt = 2",
        "drift.kind = manifest", "drift.manifest = m.txt",
        "output.dir = out/manifest"]) + "\n")
    assert run_cli("run", str(cfg)) == 2
    assert "3D drift manifest" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_report_empty_dir(tmp_path):
    assert run_cli("report", str(tmp_path)) == 2


@pytest.mark.parametrize("name", ["heat-2d.cfg", "nash-ensemble.cfg"])
def test_single_stored_time_exit_code(tmp_path, monkeypatch, capsys, name):
    import driftlab.cli as cli
    import driftlab.solver as solver

    def no_work(*args, **kwargs):
        raise AssertionError("grid.nt = 1 must be refused before any solve")

    monkeypatch.setattr(cli, "solve", no_work)
    monkeypatch.setattr(solver, "solve", no_work)
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    lines = [line for line in (CONFIGS / name).read_text().splitlines()
             if line.split("=")[0].strip() != "grid.nt"]
    cfg = tmp_path / name
    cfg.write_text("\n".join(lines + ["grid.nt = 1"]) + "\n")
    assert run_cli("run", str(cfg)) == 2
    assert "grid.nt" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("order", ["tq", "xt", "sliced-tr", "sliced-rt"])
def test_norm_center_must_match_dump_dimension(tmp_path, capsys, order):
    g = Grid(3, (-1.0,) * 3, (1.0,) * 3, (8,) * 3, 0.0, 1.0, 2, "periodic")
    dump = tmp_path / "ones3.dlf1"
    write_field(dump, SpaceTimeField(g, np.ones((2, 8, 8, 8))))
    args = ("norm", str(dump), "--order", order, "--p", "2", "--q", "2",
            "--rinner", "0.25", "--radius", "0.75")
    assert run_cli(*args) == 2  # the default --center is 2D
    assert "--center must have 3 entries" in capsys.readouterr().err
    assert run_cli(*args, "--center", "0,0,0") == 0
    assert float(capsys.readouterr().out) > 0


@pytest.mark.parametrize("order", ["tq", "sliced-tr"])
def test_norm_of_nan_dump_exit_code(tmp_path, capsys, order):
    g = Grid(2, (-1.0,) * 2, (1.0,) * 2, (16,) * 2, 0.0, 1.0, 2, "periodic")
    samples = np.ones((2, 16, 16))
    samples[0, 12, 8] = np.nan  # at r = 0.57, inside the annulus
    dump = tmp_path / "nan.dlf1"
    write_field(dump, SpaceTimeField(g, samples, allow_nonfinite=True))
    assert run_cli("norm", str(dump), "--order", order, "--p", "2", "--q", "2",
                   "--rinner", "0.25", "--radius", "0.75") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "f has a non-finite sample (nan) at index (0, 12, 8)" in captured.err


def test_nash_amplitude_unused_at_three_members_exit_code(tmp_path, monkeypatch, capsys):
    import driftlab.cli as cli

    monkeypatch.setattr(cli, "_nash_member", lambda *a: pytest.fail("a member ran"))
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    edits = {"grid.shape": "16,16", "ensemble.count": "3", "ensemble.amplitude": "1.0"}
    lines = [line for line in (CONFIGS / "nash-ensemble.cfg").read_text().splitlines()
             if line.split("=")[0].strip() not in edits]
    cfg = tmp_path / "nash.cfg"
    cfg.write_text("\n".join(lines + [f"{k} = {v}" for k, v in edits.items()]) + "\n")
    assert run_cli("run", str(cfg)) == 2
    assert capsys.readouterr().err.startswith("error: ensemble.amplitude is unused")
    assert not (tmp_path / "out").exists()


NAN_STOP = "NaN detected at step 1 (t = 0)"


@pytest.mark.parametrize("name,edits", [
    ("heat-2d.cfg", ["grid.shape = 16,16"]),
    ("heat-2d.cfg", ["grid.shape = 16,16", "init.kind = blob"]),
    ("nash-ensemble.cfg", ["grid.shape = 16,16", "ensemble.count = 3", "drift.nt = 3"]),
    ("borderline-blowup.cfg", ["assembly.K = 2", "run.resolution = 16", "drift.nt = 3"]),
])
def test_solver_runtime_error_exit_code(tmp_path, monkeypatch, capsys, name, edits):
    import driftlab.cli as cli
    import driftlab.solver as solver

    def nan_stop(*args, **kwargs):
        raise RuntimeError(NAN_STOP)

    monkeypatch.setattr(cli, "solve", nan_stop)
    monkeypatch.setattr(solver, "solve", nan_stop)
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    # ensemble.amplitude is unused, so refused, at ensemble.count = 3
    keys = {e.split("=")[0].strip() for e in edits} | {"ensemble.amplitude"}
    lines = [line for line in (CONFIGS / name).read_text().splitlines()
             if line.split("=")[0].strip() not in keys]
    cfg = tmp_path / name
    cfg.write_text("\n".join(lines + edits) + "\n")
    assert run_cli("run", str(cfg), "--jobs", "1") == 3
    assert capsys.readouterr().err.strip() == f"precondition violated: {NAN_STOP}"
    assert not (tmp_path / "out").exists()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs,workers", [("500", 3), ("2", 2)])
def test_jobs_capped_at_member_count(tmp_path, monkeypatch, jobs, workers):
    import driftlab.cli as cli

    monkeypatch.setattr(_RecordingPool, "workers", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    edits = ["grid.shape = 16,16", "ensemble.count = 3", "drift.nt = 3"]
    # ensemble.amplitude is unused, so refused, at ensemble.count = 3
    keys = {e.split("=")[0].strip() for e in edits} | {"ensemble.amplitude"}
    lines = [line for line in (CONFIGS / "nash-ensemble.cfg").read_text().splitlines()
             if line.split("=")[0].strip() not in keys]
    cfg = tmp_path / "nash.cfg"
    cfg.write_text("\n".join(lines + edits) + "\n")
    assert run_cli("run", str(cfg), "--jobs", jobs) in (0, 1)
    assert _RecordingPool.workers == [workers]
    members = (tmp_path / "out" / "nash-ensemble" / "members.csv").read_text()
    assert len(members.strip().splitlines()) == 4


@pytest.mark.parametrize("jobs", ["0", "-1", "x"])
def test_jobs_below_one_refused(tmp_path, monkeypatch, capsys, jobs):
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    with pytest.raises(SystemExit) as exc:
        run_cli("run", str(CONFIGS / "heat-2d.cfg"), "--jobs", jobs)
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content", [b"check,value,threshold,pass\nfoo,1\n", b"\xff\xfe"])
def test_report_malformed_summary_exit_code(tmp_path, capsys, content):
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "summary.csv").write_bytes(content)
    assert run_cli("report", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "summary.csv" in err


@pytest.mark.parametrize("name", ["heat-2d.cfg", "nash-ensemble.cfg", "borderline-blowup.cfg"])
def test_unusable_output_root_exit_code(tmp_path, monkeypatch, capsys, name):
    import driftlab.cli as cli
    import driftlab.solver as solver

    def no_work(*args, **kwargs):
        raise AssertionError("an unusable output root must be refused before any solve")

    monkeypatch.setattr(cli, "solve", no_work)
    monkeypatch.setattr(solver, "solve", no_work)
    root = tmp_path / "root"
    root.write_text("a regular file\n")
    monkeypatch.setenv("DRIFTLAB_OUT", str(root))
    assert run_cli("run", str(CONFIGS / name)) == 2
    assert "not a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["root"]
    assert root.read_text() == "a regular file\n"


def test_import_loads_no_scipy():
    import os
    import subprocess
    import sys
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys, driftlab, driftlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("setting", [
    "solver.dt = nan", "solver.dt = -1", "solver.dt = 0",
    "solver.safety = 2", "solver.safety = nan",
])
def test_bad_blowup_solver_setting_exit_code(tmp_path, monkeypatch, capsys, setting):
    # the blowup config sets no solver keys, so the bad line is appended
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    text = (CONFIGS / "borderline-blowup.cfg").read_text()
    assert "run.resolution = 256\n" in text
    text = text.replace("run.resolution = 256\n", "run.resolution = 16\n")
    cfg = tmp_path / "bad-blowup.cfg"
    cfg.write_text(text + setting + "\n")
    assert run_cli("run", str(cfg)) == 2
    assert "bad solver config" in capsys.readouterr().err
    assert not (tmp_path / "out" / "borderline-blowup" / "blocks.csv").exists()


@pytest.mark.parametrize("order", ["sliced-tr", "sliced-rt"])
@pytest.mark.parametrize("rinner,radius", [("0.8", "0.5"), ("0.5", "0.5")])
def test_norm_sliced_needs_inner_below_outer_radius(tmp_path, capsys, order, rinner, radius):
    g = Grid(2, (-1.0,) * 2, (1.0,) * 2, (16,) * 2, 0.0, 1.0, 2, "periodic")
    dump = tmp_path / "ones.dlf1"
    write_field(dump, SpaceTimeField(g, np.ones((2, 16, 16))))
    assert run_cli("norm", str(dump), "--order", order, "--p", "2", "--q", "2",
                   "--rinner", rinner, "--radius", radius) == 2
    assert "0 < r_inner < r_outer" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["blob", "fundamental"])
def test_huge_init_width_gives_flat_blob(tmp_path, monkeypatch, kind):
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    edits = {"grid.shape": "16,16", "init.kind": kind, "init.width": "1e300"}
    lines = [line for line in (CONFIGS / "heat-2d.cfg").read_text().splitlines()
             if line.split("=")[0].strip() not in edits]
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("\n".join(lines + [f"{k} = {v}" for k, v in edits.items()]) + "\n")
    assert run_cli("run", str(cfg)) == 0
    ledger = (tmp_path / "out" / "heat-2d" / "ledger.csv").read_text().splitlines()
    assert ledger[1].split(",")[2:] == ["1", "0.0625", "0.0625"]  # unit mass, flat on 4 x 4


@pytest.mark.parametrize("name,extra,message", [
    ("heat-2d.cfg", ["init.widht = -1", "solver.safty = 5"], "did you mean 'init.width'?"),
    ("heat-2d.cfg", ["solver.scheme = explicit_fv"], "'solver.scheme'"),
    ("heat-2d.cfg", ["solver.advection = upwind"], "'solver.advection'"),
    ("heat-2d.cfg", ["init.normalize = false"], "'init.normalize'"),
    ("heat-2d.cfg", ["ensemble.count = 3"], "'ensemble.count'"),
    ("nash-ensemble.cfg", ["init.kind = bogus"], "'init.kind'"),
    ("nash-ensemble.cfg", ["drift.kind = manifest"], "'drift.kind'"),
    ("borderline-blowup.cfg", ["grid.n = 2"], "'grid.n'"),
    ("borderline-blowup.cfg", ["assembly.k = 8"], "did you mean 'assembly.K'?"),
])
def test_unknown_config_key_exit_code(tmp_path, monkeypatch, capsys, name, extra, message):
    import driftlab.cli as cli
    import driftlab.solver as solver

    def no_work(*args, **kwargs):
        raise AssertionError("an unknown key must be refused before any work")

    for module, attr in ((cli, "solve"), (solver, "solve"), (cli, "_nash_member"),
                         (cli, "assemble_borderline")):
        monkeypatch.setattr(module, attr, no_work)
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    cfg = tmp_path / name
    cfg.write_text((CONFIGS / name).read_text() + "\n".join(extra) + "\n")
    assert run_cli("run", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown config key '{extra[0].split()[0]}'")
    assert message in err
    assert not (tmp_path / "out").exists()


def _misspell(key, i):
    i %= len(key)
    return key[:i] + key[i + 1:] if i % 2 else key[:i] + key[i] + key[i:]


def _comma_list(element, size):
    return st.lists(element, min_size=1, max_size=size).map(",".join)


_EDGE = st.sampled_from(["nan", "inf", "-inf", "x", "-1"])


def _or_edge(valid):
    return st.one_of(valid, valid, valid, _EDGE)  # mostly valid values, so runs happen


_FUZZ_VALUES = {  # small grids, short runs and slow drifts keep each example cheap
    "grid.n": _or_edge(st.sampled_from(["2", "3", "1", "2.5"])),
    "grid.lo": st.sampled_from(["-2,-2", "-1,-1", "0,-2", "-2", "-2,-2,-2", "nan,-2"]),
    "grid.hi": st.sampled_from(["2,2", "1,1", "2", "2,inf", "-3,2"]),
    "grid.shape": _comma_list(_or_edge(st.integers(-1, 16).map(str) | st.just("8.5")), 3),
    "grid.t0": _or_edge(st.sampled_from(["0", "-0.01", "0.05"])),
    "grid.t1": _or_edge(st.floats(0.0, 0.05).map(repr)),
    "grid.nt": _or_edge(st.integers(-1, 4).map(str) | st.just("2.5")),
    "grid.bc": st.sampled_from(["periodic", "zero", "neumann"]),
    "solver.dt": _or_edge(st.sampled_from(["1e-3", "0.01", "0"])),
    "solver.safety": _or_edge(st.sampled_from(["0.4", "0.9", "0", "1"])),
    "drift.kind": st.sampled_from(["none", "random_stream", "manifest", "bogus"]),
    "drift.manifest": st.sampled_from(["m.txt", "missing.txt"]),
    "drift.nt": _or_edge(st.integers(-1, 3).map(str) | st.just("2.5")),
    "drift.seed": _or_edge(st.integers(-2, 9).map(str)),
    "drift.amplitude": _or_edge(st.floats(-10.0, 10.0).map(repr)),
    "init.kind": st.sampled_from(["blob", "fundamental", "bogus"]),
    "init.center": _comma_list(_or_edge(st.floats(-3.0, 3.0).map(repr)), 3),
    "init.width": _or_edge(st.floats(1e-3, 1e300).map(repr) | st.sampled_from(["0", "-0.0"])),
    "scenario.name": st.sampled_from(["fuzz", "heat-2d"]),
}


@st.composite
def _fuzz_configs(draw):
    cfg = {line.split("=")[0].strip(): line.split("=")[1].strip()
           for line in (CONFIGS / "heat-2d.cfg").read_text().splitlines()
           if line and not line.startswith("#")}
    cfg["grid.shape"] = "16,16"
    for key in draw(st.lists(st.sampled_from(sorted(_FUZZ_VALUES)), max_size=4, unique=True)):
        value = draw(st.one_of(_FUZZ_VALUES[key], _FUZZ_VALUES[key], st.none()))
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    others = sorted((set(NASH) | set(BLOWUP)) - set(DIFFUSION))
    misspelt = st.builds(_misspell, st.sampled_from(sorted(DIFFUSION)), st.integers(0, 30))
    stray = draw(st.one_of(*[st.none()] * 4, st.sampled_from(others), misspelt))
    if stray is not None:
        cfg.setdefault(stray, "1")
    return cfg, stray is not None and stray not in DIFFUSION


@settings(max_examples=150, deadline=None)
@given(_fuzz_configs())
def test_run_fuzzed_diffusion_config_exit_code(drawn):
    assert set(_FUZZ_VALUES) == set(DIFFUSION) - {"scenario.kind", "output.dir"}
    cfg, unknown = drawn
    manifest = assemble_selfsimilar([0.0, 0.05, 0.1], travel=0.6).manifest()
    with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
        root = Path(d)
        mp.setenv("DRIFTLAB_OUT", str(root / "out-root"))
        (root / "m.txt").write_text(manifest)
        path = root / "fuzz.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        rc = run_cli("run", str(path), "--jobs", "1")
        assert rc in (0, 1, 2, 3)
        if unknown:
            assert rc == 2
        if rc == 2:
            assert not (root / "out-root").exists()


_SMALL_BLOWUP = [
    "scenario.kind = borderline_blowup",
    "assembly.K = 2", "assembly.scale0 = 0.3", "assembly.ratio = 0.8",
    "assembly.amp_ratio = 0.9", "assembly.travel = 1.0",
    "run.resolution = 96", "run.extent = 1.9",
    "output.dir = out/blowup"]


def test_blowup_outputs_same_at_one_and_two_jobs(tmp_path, monkeypatch):
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text("\n".join(_SMALL_BLOWUP) + "\n")
    outputs = []
    for jobs in ("1", "2"):
        monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path / f"jobs-{jobs}"))
        assert run_cli("run", str(cfg), "--jobs", jobs) == 0
        out = tmp_path / f"jobs-{jobs}" / "out" / "blowup"
        outputs.append({name: (out / name).read_bytes()
                        for name in ("blocks.csv", "summary.csv", "manifest.txt")})
    assert outputs[0] == outputs[1]


def test_blowup_block_drift_dies_before_next_block(tmp_path, monkeypatch):
    import weakref

    import driftlab.cli as cli
    import driftlab.solver as solver

    alive, seen = weakref.WeakSet(), []
    build = solver.FieldDrift.from_function

    def from_function(grid, fn):
        seen.append(len(alive))  # drifts of earlier blocks still alive
        drift = build(grid, fn)
        alive.add(drift)
        return drift

    monkeypatch.setattr(cli.FieldDrift, "from_function", from_function)
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text("\n".join(_SMALL_BLOWUP) + "\n")
    assert run_cli("run", str(cfg), "--jobs", "1") == 0
    assert seen == [0, 0]


def test_blowup_cfl_violation_in_worker_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text("\n".join(_SMALL_BLOWUP + ["solver.dt = 0.01"]) + "\n")
    assert run_cli("run", str(cfg), "--jobs", "2") == 3
    assert capsys.readouterr().err.startswith("precondition violated: ")
    assert not (tmp_path / "out").exists()


def _refused_before_sampling(monkeypatch):
    import driftlab.cli as cli
    import driftlab.solver as solver

    def no_work(*args, **kwargs):
        raise AssertionError("the setting must be refused before any sampling or solve")

    for module, attr in ((cli, "solve"), (solver, "solve"), (cli, "trig_stream_field"),
                         (DriftAssembly, "sample_drift"), (solver.FieldDrift, "from_function")):
        monkeypatch.setattr(module, attr, no_work)


@pytest.mark.parametrize("width,center", [("0.001", "0,0"), ("1e-200", "0.125,0.125")])
def test_blob_without_mass_on_grid_exit_code(tmp_path, monkeypatch, capsys, width, center):
    # 16^2 cells over [-2, 2]^2: h = 0.25, so the blob falls between the cell centres
    _refused_before_sampling(monkeypatch)
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    edits = {"grid.shape": "16,16", "init.kind": "blob", "init.width": width,
             "init.center": center, "drift.kind": "random_stream"}
    lines = [line for line in (CONFIGS / "heat-2d.cfg").read_text().splitlines()
             if line.split("=")[0].strip() not in edits]
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text("\n".join(lines + [f"{k} = {v}" for k, v in edits.items()]) + "\n")
    assert run_cli("run", str(cfg)) == 2
    assert capsys.readouterr().err.startswith("error: init.width")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,edits", [
    ("heat-2d.cfg", {"grid.nt": "1000000000000"}),
    ("heat-2d.cfg", {"grid.nt": "100000000000000000000"}),
    ("heat-2d.cfg", {"drift.kind": "random_stream", "drift.nt": "1000000000000"}),
    ("nash-ensemble.cfg", {"grid.nt": "100000000000000000000"}),
])
def test_stored_values_beyond_memory_exit_code(tmp_path, monkeypatch, capsys, name, edits):
    import driftlab.cli as cli

    _refused_before_sampling(monkeypatch)
    monkeypatch.setattr(cli, "_nash_member", lambda *a: pytest.fail("a member ran"))
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    lines = [line for line in (CONFIGS / name).read_text().splitlines()
             if line.split("=")[0].strip() not in edits]
    cfg = tmp_path / name
    cfg.write_text("\n".join(lines + [f"{k} = {v}" for k, v in edits.items()]) + "\n")
    assert run_cli("run", str(cfg), "--jobs", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {list(edits)[-1]} = ")
    assert "physical memory" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,edits", [
    ("heat-2d.cfg", {"grid.shape": "16,16", "grid.nt": "2", "drift.nt": "3",
                     "drift.kind": "random_stream", "drift.amplitude": "1e300"}),
    ("nash-ensemble.cfg", {"grid.shape": "16,16", "ensemble.count": "4", "drift.nt": "3",
                           "ensemble.amplitude": "1e300"}),
])
def test_huge_drift_amplitude_exit_code(tmp_path, monkeypatch, capsys, name, edits):
    # the automatic dt shrinks with the drift's speed, so without a cap on the
    # step count these ran for minutes; heat-2d's solver.dt is dropped
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    lines = [line for line in (CONFIGS / name).read_text().splitlines()
             if line.split("=")[0].strip() not in {*edits, "solver.dt"}]
    cfg = tmp_path / name
    cfg.write_text("\n".join(lines + [f"{k} = {v}" for k, v in edits.items()]) + "\n")
    assert run_cli("run", str(cfg), "--jobs", "1") == 3
    err = capsys.readouterr().err
    assert err.startswith("precondition violated: timestep ")
    assert "needs more than 1000000 steps" in err
    assert not (tmp_path / "out").exists()
