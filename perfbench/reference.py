"""Re-measure the ROADMAP baseline figures and print them as a markdown table.

    python3 perfbench/reference.py

Each figure is the median of several repetitions in one process (the CLI
figures run the command in fresh processes, with a cache directory under
.perfbench/cache).  These are reference figures for the README, not
benchmark metrics.
"""

import os
import shutil
import statistics
import subprocess
import sys
import time

import env

env.use_checkout_sources()

import numpy as np  # noqa: E402

from frdecomp import field, lattice, weights  # noqa: E402


def median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cli_build(cache_dir):
    cmd = [sys.executable, "-m", "frdecomp.cli", "build", "--t-max", "32",
           "--cache-dir", cache_dir, "--out-dir", cache_dir]
    envvars = dict(os.environ, PYTHONPATH=env.SRC)
    t0 = time.perf_counter()
    subprocess.run(cmd, env=envvars, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def main():
    rows = []
    profile_s = median_time(lambda: weights.build_bump_profile(0.25), 5)
    rows.append(("profile build (h = 1/4)", profile_s, 5))
    profile = weights.build_bump_profile(0.25)
    spec = lattice.ModelSpec("gff", 3)
    fam = weights.build_weight_family(weights.WeightParams.for_model("gff", 3), profile)
    levels = np.linspace(-1.2, 0.4, 17)
    for core, reps in ((16, 20), (32, 7)):
        sampler = field.FieldSampler(spec, fam, core=core, t_max=12.0)
        values = [sampler.sample(1, i).values for i in range(reps)]
        it = iter(values)
        # the sweep alone, without the draw: the private per-sample sweep
        rows.append((f"sweep per sample, core {core}",
                     median_time(lambda: field._sweep_sample(next(it), levels), reps), reps))
    spectral = field.FieldSampler(spec, fam, core=16, t_max=12.0)
    rows.append(("spectral sample, core 16", median_time(lambda: spectral.sample(1, 0), 200), 200))
    perscale = field.FieldSampler(spec, fam, core=16, t_max=12.0, method="perscale")
    rows.append(("per-scale sample, core 16", median_time(lambda: perscale.sample(1, 0), 5), 5))
    rows.append(("certificate at t = 60 (gff d=3)", median_time(
        lambda: weights.aj_family(60.0, fam.params, fam.profile,
                                  gamma_const=fam.gamma_const), 7), 7))
    rows.append(("slice at t = 60 (gff d=3)", median_time(
        lambda: lattice.kernel_slice(60.0, spec, fam), 5), 5))
    cache_root = os.path.join(env.OUT_DIR, "cache")
    cold, cached = [], []
    for rep in range(5):
        cache_dir = os.path.join(cache_root, f"build-{rep}")
        shutil.rmtree(cache_dir, ignore_errors=True)
        cold.append(cli_build(cache_dir))
        cached.append(cli_build(cache_dir))
    rows.append(("`frdecomp build --t-max 32`, cold", statistics.median(cold), 5))
    rows.append(("`frdecomp build --t-max 32`, cached", statistics.median(cached), 5))
    print("| figure | median | runs |\n|---|---|---|")
    for name, seconds, reps in rows:
        value = f"{seconds * 1e3:.1f} ms" if seconds < 1.0 else f"{seconds:.2f} s"
        print(f"| {name} | {value} | {reps} |")


if __name__ == "__main__":
    main()
