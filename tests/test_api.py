import os
import subprocess
import sys

import pytest

import frdecomp

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_public_names_resolve():
    missing = [name for name in frdecomp.__all__ if not hasattr(frdecomp, name)]
    assert not missing
    assert len(set(frdecomp.__all__)) == len(frdecomp.__all__)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        assert tomllib.load(f)["project"]["version"] == frdecomp.__version__


def _src_env():
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(ROOT, "src"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_import_leaves_scipy_ndimage_unloaded():
    # the percolation sweep imports scipy.ndimage on first use; loading it
    # with the package would cost every other entry point ~0.3 s and ~26 MB
    code = "import frdecomp, sys; assert 'scipy.ndimage' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_import_leaves_scipy_fft_unloaded():
    # no module of the package needs scipy.fft; loading it with the package
    # would cost every entry point ~0.2 s
    code = "import frdecomp, sys; assert 'scipy.fft' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("demo", ["01_weight_families.py", "02_sos_certificates.py"])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=tmp_path, env=_src_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
