"""Command-line front end: reproducible builds, verification, sampling runs.

Every run writes a manifest (command, argv, resolved config, package and
numpy versions, outputs, wall time as elapsed_s) next to its outputs as
manifest_<command>_<config hash>.json, and file names embed the short
config hash, so identical configs map to identical files.  The manifest of
verify also lists, under "certificates", one record per certified scale: t,
degrees, the residual against wbar_value, its margin to sos_tol, and the
route that built the certificate ("roots" or "half-shift").

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .sos import PRE_NEG_TOL, RESIDUAL_TOL, CertificateError, NotNonnegativeError
from .weights import (
    MODELS,
    SHARPNESS,
    QuadratureError,
    WeightParams,
    build_bump_profile,
    build_weight_family,
)
from .lattice import (
    ModelSpec,
    channel_radii,
    greens_reconstruct,
    kernel_slice,
    log_simpson_grid,
    scale_series,
)
from .oracle import (
    GreensOracle,
    export_greens_csv,
    scalar_partition_check,
)
from .continuum import (
    SUPPORT_LEAK_TOL,
    continuum_reconstruct,
    export_radial_csv,
    radial_kernel,
)
from .field import FieldSampler, export_percolation_csv, sweep_levels

DEFAULTS = {
    "model": "gff",
    "d": 3,
    "h": 0.25,
    "n_grid": 4096,
    "t_max": 32.0,
    "n_scales": 33,
    "seed": 1,
    "core": 16,
    "n_samples": 2000,
    "levels": [-1.5 + 0.1 * i for i in range(17)],
    "partition_tol": 1e-3,
    "continuum_partition_tol": 1e-6,
    "sos_tol": RESIDUAL_TOL,
    "greens_tol": 1e-2,
    "out_dir": ".",
}

CONTINUUM = tuple(name for name, row in MODELS.items() if not row.lattice)


class ConfigError(ValueError):
    pass


def _load_config(args) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        with open(args.config) as f:
            cfg.update(json.load(f))
    for key in ("model", "d", "h", "n_grid", "t_max", "n_scales", "seed",
                "core", "n_samples", "out_dir"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    _validate(cfg)
    return cfg


def _validate(cfg: dict):
    try:
        WeightParams.for_model(cfg["model"], cfg["d"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for key in ("partition_tol", "continuum_partition_tol", "sos_tol", "greens_tol"):
        if cfg[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    if cfg["t_max"] <= 1 or cfg["n_scales"] < 3:
        raise ConfigError("t_max must exceed 1 and n_scales be at least 3")


def _config_hash(cfg: dict) -> str:
    """Short hash of everything in cfg that changes a command's outputs:
    all of it but out_dir, so one config names its files alike anywhere."""
    content = {k: v for k, v in cfg.items() if k != "out_dir"}
    return hashlib.sha256(
        json.dumps(content, sort_keys=True, default=str).encode()
    ).hexdigest()[:12]


def _write_manifest(cfg: dict, command: str, argv: list, record: dict,
                    t0: float):
    """Write the run manifest; record holds the command's outputs and extra
    fields, t0 is the command's time.perf_counter() start."""
    manifest = {
        "command": command,
        "config": cfg,
        "config_hash": _config_hash(cfg),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "argv": argv,
        **record,
        "elapsed_s": time.perf_counter() - t0,
    }
    path = os.path.join(cfg["out_dir"], f"manifest_{command}_{_config_hash(cfg)}.json")
    with open(path, "w") as f:
        json.dump(manifest, f, indent=1, default=str)
    return path


def _family_for(cfg: dict):
    """The weight family for cfg, built from its bump profile."""
    profile = build_bump_profile(cfg["h"], cfg["n_grid"], SHARPNESS)
    return build_weight_family(WeightParams.for_model(cfg["model"], cfg["d"]),
                               profile)


def _lattice_spec(cfg: dict) -> ModelSpec:
    """The lattice ModelSpec for cfg; continuum models are a config error."""
    if cfg["model"] in CONTINUUM:
        raise ConfigError(
            f"{cfg['model']} is a continuum model; sample, percolate and "
            f"export-greens need a lattice model "
            f"({', '.join(m for m in MODELS if m not in CONTINUUM)})")
    return ModelSpec(model=cfg["model"], d=cfg["d"])


def _sampler_for(cfg: dict):
    """The spectral sampler for cfg; its spectrum comes from the
    certificates, so no slice is built."""
    return FieldSampler(_lattice_spec(cfg), _family_for(cfg), core=cfg["core"],
                        t_max=cfg["t_max"], n_scales=cfg["n_scales"],
                        method="spectral")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_build(cfg: dict) -> tuple:
    t0 = time.perf_counter()
    family = _family_for(cfg)
    if cfg["model"] in CONTINUUM:
        t_nodes, _ = log_simpson_grid(1.0, cfg["t_max"], min(cfg["n_scales"], 9))
        for t in t_nodes:
            ker = radial_kernel(float(t), cfg["d"], family.params.gamma, family.profile)
            print(f"  radial t={t:8.3f}  support<={ker.support_radius:8.2f}  "
                  f"leak={ker.support_leak():.2e}")
    else:
        spec = _lattice_spec(cfg)
        grid = log_simpson_grid(1.0, cfg["t_max"], cfg["n_scales"])
        for t, cert in zip(grid[0], scale_series(spec, family, grid)[1]):
            radius = max(channel_radii(spec, cert))
            print(f"  slice t={t:8.3f}  support radius {radius:3d}")
    print(f"done in {time.perf_counter() - t0:.1f}s")
    return 0, {"outputs": []}


def _verify_discrete(cfg: dict, family, report: dict) -> list:
    """Append the lattice checks to report; return the per-scale
    certificate records."""
    spec = _lattice_spec(cfg)
    params, profile = family.params, family.profile

    lams = params.B * np.logspace(-3, 0, 50)
    err = scalar_partition_check(family, lams, T=max(cfg["t_max"], 64.0))
    report["checks"].append({
        "name": "partition-of-unity",
        "measured": err, "tolerance": cfg["partition_tol"],
        "passed": bool(err <= cfg["partition_tol"]),
    })

    t_nodes, _ = log_simpson_grid(1.0, cfg["t_max"], cfg["n_scales"])
    worst_res, worst_t, nonneg_fail = 0.0, None, None
    lam_grid = np.linspace(params.B * 1e-4, params.B, 1000)
    certs, records = [], []
    from .weights import aj_family, wbar_value
    for t in t_nodes:
        try:
            cert = aj_family(float(t), params, profile,
                             gamma_const=family.gamma_const)
        except NotNonnegativeError as exc:
            nonneg_fail = (float(t), str(exc))
            break
        certs.append(cert)
        rec = cert.w_reconstruct(lam_grid)
        ref = wbar_value(float(t), lam_grid, params, profile)
        res = float(np.max(np.abs(rec - ref)) / np.max(np.abs(ref)))
        records.append({"t": float(t), "degrees": list(cert.degrees),
                        "residual": res, "margin": cfg["sos_tol"] - res,
                        "route": cert.route})
        if res > worst_res:
            worst_res, worst_t = res, float(t)
    nonneg_tol = f"-{PRE_NEG_TOL:g} relative"
    if nonneg_fail is not None:
        report["checks"].append({
            "name": "vt-nonnegativity", "passed": False,
            "measured": f"t={nonneg_fail[0]}: {nonneg_fail[1]}",
            "tolerance": nonneg_tol})
        return records
    report["checks"].append({
        "name": "vt-nonnegativity", "passed": True,
        "measured": "no violation", "tolerance": nonneg_tol})
    report["checks"].append({
        "name": "sos-residual",
        "measured": worst_res, "tolerance": cfg["sos_tol"],
        "passed": bool(worst_res <= cfg["sos_tol"]),
        "worst_t": worst_t})

    # exact finite range: exhaustive scan of slices outside declared radii
    stride = max(1, len(certs) // 16)
    scans = [kernel_slice(float(t), spec, family, cert=cert).finite_range_scan()
             for t, cert in zip(t_nodes[::stride], certs[::stride])]
    violations = sum(v for v, _ in scans)
    scanned = sum(n for _, n in scans)
    report["checks"].append({
        "name": "finite-range", "measured": violations, "tolerance": 0,
        "scanned": scanned, "passed": violations == 0 and scanned > 0})

    if cfg["model"] == "gff" and cfg["d"] == 3:
        t_top = max(cfg["t_max"], 16.0)
        grid = log_simpson_grid(1.0, t_top, 33 if t_top <= 16.0 else 65)
        x_list = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0)]
        rec, info = greens_reconstruct(spec, family, grid, x_list)
        oracle = GreensOracle(spec)
        ref = oracle.values(x_list)
        g0 = ref[(0, 0, 0)][0]
        err = max(abs(rec[x] - ref[x][0]) for x in rec) / g0
        report["checks"].append({
            "name": "greens-reconstruction",
            "measured": err, "tolerance": cfg["greens_tol"],
            "passed": bool(err <= cfg["greens_tol"])})
    return records


def _verify_continuum(cfg: dict, family, report: dict):
    gamma = family.params.gamma
    lams = np.logspace(-2, 2, 25)
    err = scalar_partition_check(family, lams)
    report["checks"].append({
        "name": "continuum-partition",
        "measured": err, "tolerance": cfg["continuum_partition_tol"],
        "passed": bool(err <= cfg["continuum_partition_tol"])})
    leak = 0.0
    for t in (2.0, 8.0, 32.0):
        ker = radial_kernel(t, cfg["d"], gamma, family.profile)
        leak = max(leak, ker.support_leak())
    report["checks"].append({
        "name": "radial-support-leak",
        "measured": leak, "tolerance": SUPPORT_LEAK_TOL,
        "passed": bool(leak <= SUPPORT_LEAK_TOL)})
    if cfg["d"] == 3 and gamma == 1.0:
        grid = log_simpson_grid(0.45, 64.0, 49)
        rs = np.linspace(1.0, 4.0, 7)
        vals, _ = continuum_reconstruct(3, grid, rs, family.profile)
        err = max(abs(4.0 * math.pi * r * vals[float(r)] - 1.0) for r in rs)
        report["checks"].append({
            "name": "continuum-greens",
            "measured": err, "tolerance": 0.02, "passed": bool(err <= 0.02)})


def cmd_verify(cfg: dict) -> tuple:
    family = _family_for(cfg)
    report = {"model": cfg["model"], "d": cfg["d"], "checks": []}
    records = []
    if cfg["model"] in CONTINUUM:
        _verify_continuum(cfg, family, report)
    else:
        records = _verify_discrete(cfg, family, report)
    passed = all(c["passed"] for c in report["checks"])
    report["passed"] = passed
    out = os.path.join(cfg["out_dir"], f"verify_{_config_hash(cfg)}.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=1, default=str)
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: measured={c['measured']} "
              f"tol={c['tolerance']}")
    print(f"report: {out}")
    return (0 if passed else 1), {"outputs": [out], "certificates": records}


def cmd_sample(cfg: dict) -> tuple:
    sampler = _sampler_for(cfg)
    spec = sampler.spec
    rows = []
    for i in range(cfg["n_samples"]):
        smp = sampler.sample(cfg["seed"], i)
        centre = smp.values[(cfg["core"] // 2,) * spec.d]
        rows.append((i, float(centre), float(smp.values.mean()),
                     float(smp.values.var())))
    out = os.path.join(cfg["out_dir"], f"samples_{_config_hash(cfg)}.csv")
    with open(out, "w") as f:
        f.write("index,f_origin,mean,var\n")
        for r in rows:
            f.write(f"{r[0]},{r[1]!r},{r[2]!r},{r[3]!r}\n")
    print(f"wrote {out}")
    return 0, {"outputs": [out], "variance_origin": sampler.variance_origin()}


def cmd_percolate(cfg: dict) -> tuple:
    sampler = _sampler_for(cfg)
    results = sweep_levels(sampler, cfg["levels"], cfg["n_samples"], cfg["seed"])
    out = os.path.join(cfg["out_dir"], f"percolation_{_config_hash(cfg)}.csv")
    export_percolation_csv(out, results)
    print(f"wrote {out}")
    return 0, {"outputs": [out]}


def cmd_export_greens(cfg: dict) -> tuple:
    spec = _lattice_spec(cfg)
    oracle = GreensOracle(spec)
    radius = 5 if cfg["d"] == 3 else 2
    xs = []
    for x in np.ndindex(*([radius + 1] * cfg["d"])):
        if sum(x) <= radius:
            xs.append(tuple(x))
    values = oracle.values(xs)
    out = os.path.join(cfg["out_dir"], f"greens_{_config_hash(cfg)}.csv")
    export_greens_csv(out, values)
    print(f"wrote {out}")
    return 0, {"outputs": [out]}


def cmd_export_kernels(cfg: dict) -> tuple:
    family = _family_for(cfg)
    outputs = []
    if cfg["model"] in CONTINUUM:
        for t in (2.0, 8.0, 32.0):
            ker = radial_kernel(t, cfg["d"], family.params.gamma, family.profile)
            out = os.path.join(cfg["out_dir"],
                               f"radial_{_config_hash(cfg)}_t{t:g}.csv")
            export_radial_csv(out, ker)
            outputs.append(out)
    else:
        spec = _lattice_spec(cfg)
        out = os.path.join(cfg["out_dir"], f"kernels_{_config_hash(cfg)}.csv")
        with open(out, "w") as f:
            f.write("t,channel," + ",".join(f"x{i}" for i in range(spec.d))
                    + ",value\n")
            for t in (1.5, 4.0, min(8.0, cfg["t_max"])):
                box = kernel_slice(t, spec, family).field
                R = box.box_radius
                for ch, arr in enumerate(box.values):
                    for idx in np.argwhere(arr != 0.0):
                        coords = ",".join(str(int(v) - R) for v in idx)
                        f.write(f"{t},{ch},{coords},{arr[tuple(idx)]!r}\n")
        outputs.append(out)
    for o in outputs:
        print(f"wrote {o}")
    return 0, {"outputs": outputs}


# each command returns its exit code and the fields it adds to the manifest
COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "sample": cmd_sample,
    "percolate": cmd_percolate,
    "export-greens": cmd_export_greens,
    "export-kernels": cmd_export_kernels,
}


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="frdecomp",
        description="White-noise finite-range decompositions of Gaussian fields",
    )
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", help="JSON config file; flags override its values")
    ap.add_argument("--model", choices=tuple(MODELS))
    ap.add_argument("--d", type=int)
    ap.add_argument("--h", type=float, help="bump half-width (1/4 lattice, 1/2 continuum)")
    ap.add_argument("--n-grid", type=int, dest="n_grid")
    ap.add_argument("--t-max", type=float, dest="t_max")
    ap.add_argument("--n-scales", type=int, dest="n_scales")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--core", type=int, help="side of the statistics box")
    ap.add_argument("--n-samples", type=int, dest="n_samples")
    ap.add_argument("--out-dir", dest="out_dir")
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = make_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if cfg["model"] in CONTINUUM and cfg["h"] == DEFAULTS["h"]:
            cfg["h"] = 0.5
        os.makedirs(cfg["out_dir"], exist_ok=True)
        t0 = time.perf_counter()
        code, record = COMMANDS[args.command](cfg)
        _write_manifest(cfg, args.command, argv, record, t0)
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NotNonnegativeError, CertificateError, QuadratureError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
