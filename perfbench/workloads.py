"""The four workloads: set-up, one round of operations, and the checks.

Each workload draws its inputs from the seed it is given.  ``setup()``
builds everything the timed phase needs (it may run several times; the last
build is used), ``run_round(k)`` performs round k and returns the number of
operations it attempted, and ``check()`` runs after the timed phase and
returns (problems, failed operations).  Calls go through module attributes
(``lattice.kernel_slice``, not a local alias), so a tracer's wrappers see them.
"""

from contextlib import contextmanager

import numpy as np

import checks
from frdecomp import continuum, field, lattice, oracle, weights
from spans import span_or_nothing


def _rng(seed, *key):
    return np.random.default_rng([int(seed), *key])


def _gff3_family(profile):
    return weights.build_weight_family(weights.WeightParams.for_model("gff", 3), profile)


class Workload:
    name = ""
    operation = ""

    def __init__(self, seed):
        self.seed = int(seed)
        self.tracer = None  # a spans.Tracer in a traced run


class Percolation(Workload):
    name = "percolation"
    operation = "one field drawn and swept over all 17 levels"
    CORE, T_MAX, N_SCALES = 32, 12.0, 13
    LEVELS = np.linspace(-1.2, 0.4, 17)
    BATCH = 4  # fields per sweep_levels call; one round

    def setup(self):
        profile = weights.build_bump_profile(0.25)
        self.spec = lattice.ModelSpec("gff", 3)
        self.family = _gff3_family(profile)
        self.sampler = field.FieldSampler(self.spec, self.family, core=self.CORE,
                                          t_max=self.T_MAX, n_scales=self.N_SCALES,
                                          method="spectral")
        self.outputs = []

    def batch_seed(self, k):
        return self.seed * 100_000 + k

    def run_round(self, k):
        seed = self.batch_seed(k)
        self.outputs.append((seed, field.sweep_levels(self.sampler, self.LEVELS,
                                                      self.BATCH, seed)))
        return self.BATCH

    def check(self):
        problems = []
        for seed, results in self.outputs:
            fields = [self.sampler.sample(seed, i).values for i in range(self.BATCH)]
            ref = checks.aggregate_labelled(fields, self.LEVELS)
            problems += [f"batch seed {seed}: {p}"
                         for p in checks.check_percolation(results, self.LEVELS, ref)]
        return problems, 0


class Sampling(Workload):
    name = "sampling"
    operation = "one FieldSampler.sample call"
    CORE, T_MAX, N_SCALES = 16, 12.0, 13
    LAGS = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0))
    ROUND = 100  # samples per round
    COUPLING = dict(core=16, t_max=4.0, n_scales=7, rho=2)

    def make_sampler(self):
        return field.FieldSampler(self.spec, self.family, core=self.CORE,
                                  t_max=self.T_MAX, n_scales=self.N_SCALES,
                                  method="spectral")

    def setup(self):
        profile = weights.build_bump_profile(0.25)
        self.spec = lattice.ModelSpec("gff", 3)
        self.family = _gff3_family(profile)
        self.sampler = self.make_sampler()
        c = self.CORE // 2
        self.centre = (c, c, c)
        self.lag_index = tuple(np.array([[c + x[a] for x in self.LAGS] for a in range(3)]))
        self.sums = np.zeros(len(self.LAGS))
        self.sumsq = np.zeros(len(self.LAGS))
        self.n = 0
        rng = _rng(self.seed, 1)
        self.kept_index = int(rng.integers(self.ROUND))
        self.coupling_index = int(rng.integers(1 << 20))
        self.kept = None

    def run_round(self, k):
        lo = k * self.ROUND
        for i in range(lo, lo + self.ROUND):
            v = self.sampler.sample(self.seed, i).values
            prods = v[self.lag_index] * v[self.centre]
            self.sums += prods
            self.sumsq += prods * prods
            if i == self.kept_index:
                self.kept = v
        self.n += self.ROUND
        return self.ROUND

    def check(self):
        grid = (self.sampler.t_nodes, self.sampler.t_weights)
        target, _ = lattice.greens_reconstruct(self.spec, self.family, grid,
                                               list(self.LAGS), tail=False)
        exact = [target[x] for x in self.LAGS]
        problems = checks.check_variance(self.sampler.variance_origin(), exact[0])
        problems += checks.check_covariances(self.LAGS, self.sums, self.sumsq,
                                             self.n, exact)
        again = self.make_sampler().sample(self.seed, self.kept_index).values
        problems += checks.check_identical(self.kept, again,
                                           f"sample({self.seed}, {self.kept_index})")
        cp = self.COUPLING
        ps = field.FieldSampler(self.spec, self.family, core=cp["core"],
                                t_max=cp["t_max"], n_scales=cp["n_scales"],
                                method="perscale")
        fa, fb = ps.coupled_pair(self.seed, self.coupling_index, rho=cp["rho"])
        problems += checks.check_coupling(fa, fb, cp["rho"], ps.pad)
        return problems, 0


class Certify(Workload):
    name = "certify"
    operation = "one aj_family certificate"
    MODELS = (("gff", 3), ("membrane", 5))
    RUNGS = 33            # t = 2^(k/4), k = 0..32: a log-spaced ladder on [1, 256]
    JITTERED = range(1, 21)   # rungs up to t = 32 move by up to 0.4 rung with the seed

    def setup(self):
        profile = weights.build_bump_profile(0.25)
        self.families = {m: weights.build_weight_family(
            weights.WeightParams.for_model(m, d), profile) for m, d in self.MODELS}
        jitter = _rng(self.seed, 2).uniform(-0.4, 0.4, self.RUNGS)
        self.ladder = [2.0 ** ((k + (jitter[k] if k in self.JITTERED else 0.0)) / 4.0)
                       for k in range(self.RUNGS)]
        self.outputs = []

    def run_round(self, k):
        for t in self.ladder:
            for model, _ in self.MODELS:
                fam = self.families[model]
                try:
                    cert = weights.aj_family(t, fam.params, fam.profile,
                                             gamma_const=fam.gamma_const)
                except Exception as exc:  # a raised certificate is a failed operation
                    cert = exc
                self.outputs.append((model, t, cert))
        return self.RUNGS * len(self.MODELS)

    def check(self):
        """A certificate that raises or misses its residual or degree bound
        is a failed operation, not a failed run."""
        failed, refs = 0, {}
        self.failures = {}
        for model, t, cert in self.outputs:
            fam = self.families[model]
            if (model, t) not in refs:
                lam = checks.lambda_grid(fam.params)
                refs[model, t] = (lam, weights.wbar_value(t, lam, fam.params, fam.profile))
            if isinstance(cert, Exception):
                found = [f"t={t:.4g}: raised {cert!r}"]
            else:
                found = checks.check_certificate(cert, t, refs[model, t][1],
                                                 refs[model, t][0])
            if found:
                failed += 1
                self.failures[model, t] = found
        return [], failed


@contextmanager
def _capture(module, attr):
    """Temporarily record every value module.attr returns."""
    original = getattr(module, attr)
    seen = []

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        seen.append(out)
        return out

    setattr(module, attr, recording)
    try:
        yield seen
    finally:
        setattr(module, attr, original)


class Reconstruct(Workload):
    name = "reconstruct"
    operation = "one scale node: a lattice slice and its autocorrelation, or a radial kernel and its autoconvolution"
    WINDOW = 5            # lattice lags with |x|_inf <= 5
    N_RADII = 7           # continuum radii, one drawn in each seventh of [1, 4]
    N_ORACLE_LAGS = 3     # window lags, besides the origin, checked against the oracle

    def setup(self):
        self.spec = lattice.ModelSpec("gff", 3)
        self.family = _gff3_family(weights.build_bump_profile(0.25))
        self.profile_half = weights.build_bump_profile(0.5)
        self.lattice_grid = lattice.log_simpson_grid(1.0, 64.0, 65)
        self.continuum_grid = lattice.log_simpson_grid(0.45, 64.0, 49)
        rng = _rng(self.seed, 3)
        w = self.WINDOW
        lags = [(i, j, k) for i in range(-w, w + 1) for j in range(-w, w + 1)
                for k in range(-w, w + 1)]
        self.lags = [lags[i] for i in rng.permutation(len(lags))]
        self.radii = 1.0 + 3.0 * (np.arange(self.N_RADII)
                                  + rng.uniform(size=self.N_RADII)) / self.N_RADII
        self.oracle_lags = [(0, 0, 0)] + self.lags[:self.N_ORACLE_LAGS]
        self.outputs = []

    def run_round(self, k):
        slices = []
        rec, _ = lattice.greens_reconstruct(self.spec, self.family, self.lattice_grid,
                                            self.lags, slice_cb=slices.append)
        with _capture(continuum, "radial_kernel") as kernels:
            cvals, _ = continuum.continuum_reconstruct(3, self.continuum_grid, self.radii,
                                                       self.profile_half)
        self.outputs.append((rec, slices, cvals, kernels))
        return len(self.lattice_grid[0]) + len(self.continuum_grid[0])

    def check(self):
        problems = []
        with span_or_nothing(self.tracer, "oracle.greens_oracle"):
            ref = oracle.GreensOracle(self.spec).values(self.oracle_lags)
        for rec, slices, cvals, kernels in self.outputs:
            problems += checks.check_watson(rec)
            problems += checks.check_stencil(rec, self.WINDOW)
            problems += checks.check_oracle(rec, ref)
            problems += checks.check_finite_range(slices)
            problems += checks.check_continuum(cvals, self.radii)
            problems += checks.check_leaks(kernels)
            if len(slices) != len(self.lattice_grid[0]):
                problems.append(f"{len(slices)} slices for {len(self.lattice_grid[0])} nodes")
        return problems, 0


WORKLOADS = {w.name: w for w in (Percolation, Sampling, Certify, Reconstruct)}
