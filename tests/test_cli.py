import dataclasses
import json
import os
import time

import numpy as np
import pytest

from frdecomp import cli
from frdecomp.cli import main
from frdecomp.lattice import LatticeField, kernel_slice, log_simpson_grid


def run_cli(args, tmp_path, extra=None):
    argv = list(args) + ["--out-dir", str(tmp_path / "out")]
    if extra:
        argv += extra
    return main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def test_eigensolver_failure_exit_code(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.polynomial.chebyshev, "chebroots", fail)
    args = ["verify", "--model", "gff", "--d", "3", "--t-max", "4",
            "--n-scales", "5"]
    assert run_cli(args, tmp_path) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_certificate_error_exit_code(tmp_path, monkeypatch, capsys):
    # a corrupted spectral factor with refinement disabled misses
    # RESIDUAL_TOL: verify reports a numerical failure, not a traceback
    from frdecomp import sos

    split = sos._chebyshev_split
    monkeypatch.setattr(sos, "_chebyshev_split",
                        lambda w: (split(w)[0], 1.01 * split(w)[1]))
    monkeypatch.setattr(sos, "_refine", lambda s, pieces: pieces)
    args = ["verify", "--model", "gff", "--d", "3", "--t-max", "4",
            "--n-scales", "5"]
    assert run_cli(args, tmp_path) == 3
    assert "certificate residual" in capsys.readouterr().err


def test_config_error_exit_code(workdir):
    assert run_cli(["build", "--model", "membrane", "--d", "4"], workdir) == 2


@pytest.mark.parametrize("command", ["sample", "percolate", "export-greens"])
def test_lattice_only_commands_reject_continuum(command, tmp_path, capsys):
    assert run_cli([command, "--model", "continuum-gff", "--d", "3"],
                   tmp_path) == 2
    err = capsys.readouterr().err
    assert "continuum-gff" in err and "export-greens" in err


def test_config_file_with_flag_override(workdir, capsys):
    cfg = workdir / "conf.json"
    cfg.write_text(json.dumps({"model": "gff", "d": 3, "t_max": 4.0,
                               "n_scales": 5}))
    assert run_cli(["build", "--config", str(cfg)], workdir) == 0
    capsys.readouterr()


def test_sample_deterministic_csv(workdir, capsys):
    args = ["sample", "--model", "gff", "--d", "3", "--t-max", "4",
            "--n-scales", "5", "--core", "6", "--n-samples", "20",
            "--seed", "7"]
    assert run_cli(args, workdir) == 0
    out = capsys.readouterr().out
    path = out.strip().split()[-1]
    first = open(path, "rb").read()
    assert run_cli(args, workdir) == 0
    capsys.readouterr()
    assert open(path, "rb").read() == first


def test_sample_depends_on_n_scales_and_is_deterministic(tmp_path, capsys):
    def sample(n_scales):
        args = ["sample", "--model", "gff", "--d", "3", "--t-max", "4",
                "--n-scales", str(n_scales), "--core", "6", "--n-samples", "5",
                "--seed", "7"]
        assert run_cli(args, tmp_path) == 0
        out = capsys.readouterr().out
        return open(out.strip().split()[-1], "rb").read()

    csv5 = sample(5)
    assert sample(7) != csv5
    assert sample(5) == csv5


def test_percolate_csv(workdir, capsys):
    cfg = workdir / "perc.json"
    cfg.write_text(json.dumps({
        "model": "gff", "d": 3, "t_max": 4.0, "n_scales": 5, "core": 6,
        "n_samples": 10, "levels": [-0.5, 0.0, 0.5], "seed": 3,
    }))
    assert run_cli(["percolate", "--config", str(cfg)], workdir) == 0
    out = capsys.readouterr().out
    path = out.strip().split()[-1]
    lines = open(path).read().strip().splitlines()
    assert lines[0].startswith("level,n,theta,se,crossing")
    assert len(lines) == 4


def test_export_kernels(workdir, capsys):
    args = ["export-kernels", "--model", "gff", "--d", "3", "--t-max", "4",
            "--n-scales", "5"]
    assert run_cli(args, workdir) == 0
    out = capsys.readouterr().out
    path = out.strip().splitlines()[-1].split()[-1]
    header = open(path).readline().strip()
    assert header == "t,channel,x0,x1,x2,value"


def test_verify_negative_control(workdir, capsys):
    # the h = 1/2 bump must fail discrete verification with a nonnegativity
    # report naming the offending scale
    args = ["verify", "--model", "gff", "--d", "3", "--h", "0.5",
            "--t-max", "8", "--n-scales", "7"]
    code = run_cli(args, workdir)
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] vt-nonnegativity" in out
    assert "t=" in out


def test_build_negative_control_exit_code(workdir, capsys):
    # building slices from the h = 1/2 bump is a numerical failure whose
    # message names the offending scale
    args = ["build", "--model", "gff", "--d", "3", "--h", "0.5",
            "--t-max", "8", "--n-scales", "7"]
    assert run_cli(args, workdir) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "t =" in err


def test_verify_discrete_passes(workdir, capsys):
    args = ["verify", "--model", "gff", "--d", "3", "--t-max", "6",
            "--n-scales", "7"]
    code = run_cli(args, workdir)
    out = capsys.readouterr().out
    assert code == 0, out
    assert "[PASS] partition-of-unity" in out
    assert "[PASS] sos-residual" in out
    assert "[PASS] finite-range" in out
    assert "[PASS] greens-reconstruction" in out


def test_verify_finite_range_fails_on_one_entry_outside_its_radius(
        tmp_path, monkeypatch, capsys):
    # each of the seven slices verify scans carries one nonzero entry at l1
    # distance 2R from the centre of its box of radius R, beyond every
    # declared channel radius: the scan must count all seven
    def leaky_slice(*args, **kwargs):
        slc = kernel_slice(*args, **kwargs)
        values = slc.field.values.copy()
        R = slc.box_radius
        values[(0, 0, 0) + (R,) * (slc.spec.d - 2)] = 1e-300
        return dataclasses.replace(slc, field=LatticeField(
            d=slc.spec.d, values=values, support_radius=slc.support_radius))

    monkeypatch.setattr(cli, "kernel_slice", leaky_slice)
    args = ["verify", "--model", "gff", "--d", "3", "--t-max", "6",
            "--n-scales", "7"]
    assert run_cli(args, tmp_path) == 1
    out = capsys.readouterr().out
    assert "[FAIL] finite-range: measured=7 " in out
    assert "[PASS] sos-residual" in out


def test_verify_report_schema(workdir, capsys):
    args = ["verify", "--model", "continuum-gff", "--d", "3"]
    code = run_cli(args, workdir)
    out = capsys.readouterr().out
    assert code == 0
    report_path = [l.split()[-1] for l in out.splitlines() if l.startswith("report:")][0]
    rep = json.load(open(report_path))
    assert rep["passed"] is True
    assert {"name", "measured", "tolerance", "passed"} <= set(rep["checks"][0])


def test_verify_manifest_records_certificates(tmp_path, capsys):
    # one record per scale of the verify grid; the worst residual among them
    # is the one the sos-residual check reports
    argv = ["verify", "--model", "gff", "--d", "3", "--t-max", "4",
            "--n-scales", "5", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    manifests = [f for f in os.listdir(tmp_path) if f.startswith("manifest_")]
    manifest = json.loads((tmp_path / manifests[0]).read_text())
    records = manifest["certificates"]
    nodes, _ = log_simpson_grid(1.0, 4.0, 5)
    assert [r["t"] for r in records] == [float(t) for t in nodes]
    tol = manifest["config"]["sos_tol"]
    for rec in records:
        assert rec["route"] == "roots"
        assert len(rec["degrees"]) == 4
        assert max(rec["degrees"]) <= int(rec["t"])
        assert 0.0 < rec["residual"] <= tol
        assert rec["margin"] == tol - rec["residual"]
    report = json.loads(open(manifest["outputs"][0]).read())
    sos_check = [c for c in report["checks"] if c["name"] == "sos-residual"][0]
    assert sos_check["measured"] == max(r["residual"] for r in records)


@pytest.mark.parametrize("command", ["verify", "sample", "percolate"])
def test_manifest_records_elapsed(command, tmp_path, capsys):
    # every subcommand times itself
    argv = [command, "--model", "gff", "--d", "3", "--t-max", "4",
            "--n-scales", "5", "--core", "6", "--n-samples", "3",
            "--out-dir", str(tmp_path)]
    start = time.perf_counter()
    assert main(argv) == 0
    wall = time.perf_counter() - start
    capsys.readouterr()
    manifests = [f for f in os.listdir(tmp_path) if f.startswith("manifest_")]
    assert len(manifests) == 1
    manifest = json.loads((tmp_path / manifests[0]).read_text())
    assert 0.0 < manifest["elapsed_s"] <= wall


def test_manifests_per_command_in_one_out_dir(tmp_path, capsys):
    # build and sample share one config hash but each keeps its own manifest,
    # recording the argv given to main rather than the test runner's
    common = ["--model", "gff", "--d", "3", "--t-max", "4", "--n-scales", "5",
              "--core", "6", "--n-samples", "3", "--out-dir", str(tmp_path)]
    for command in ("build", "sample"):
        assert main([command] + common) == 0
    capsys.readouterr()
    manifests = sorted(f for f in os.listdir(tmp_path) if f.startswith("manifest_"))
    assert [m.split("_")[1] for m in manifests] == ["build", "sample"]
    for name in manifests:
        manifest = json.loads((tmp_path / name).read_text())
        assert manifest["argv"] == [manifest["command"]] + common


def test_run_writes_only_into_out_dir(tmp_path, monkeypatch, capsys):
    # the family is rebuilt in every command, so nothing is cached on disk:
    # a run leaves its working directory as it found it
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    args = ["build", "--model", "gff", "--d", "3", "--t-max", "4",
            "--n-scales", "5"]
    assert main(args + ["--out-dir", str(tmp_path / "out")]) == 0
    assert os.listdir(work) == []
    assert sorted(os.listdir(tmp_path)) == ["out", "work"]
    assert [f.split("_")[1] for f in os.listdir(tmp_path / "out")] == ["build"]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--cache-dir", str(tmp_path / "cache")])
    assert exc.value.code == 2
    assert "--cache-dir" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["out", "work"]


def test_out_dir_changes_neither_file_names_nor_bytes(tmp_path, capsys):
    # the config hash leaves out out_dir, so one config run into two
    # directories writes the same files
    args = ["sample", "--model", "gff", "--d", "3", "--t-max", "4",
            "--n-scales", "5", "--core", "6", "--n-samples", "5", "--seed", "7"]
    for name in ("a", "b"):
        assert main(args + ["--out-dir", str(tmp_path / name)]) == 0
    capsys.readouterr()
    files = {name: sorted(os.listdir(tmp_path / name)) for name in ("a", "b")}
    assert files["a"] == files["b"]
    samples = [f for f in files["a"] if f.startswith("samples_")]
    assert len(samples) == 1
    assert ((tmp_path / "a" / samples[0]).read_bytes()
            == (tmp_path / "b" / samples[0]).read_bytes())
