"""White-noise finite-range decompositions of lattice and continuum Gaussian fields.

The package builds scale-indexed kernels whose self-convolutions integrate to
the Green's functions of the discrete Gaussian free field, the discrete
membrane model, and the mollified continuum free field; certifies their
structural properties (exact finite range, sum-of-squares weights, decay
exponents); and uses them to sample fields and run level-set percolation
experiments.
"""

__version__ = "0.12.0"

from .sos import CertificateError, halfline_certificate_cheb
from .weights import (
    BumpProfile,
    WeightFamily,
    WeightParams,
    aj_family,
    build_bump_profile,
    build_weight_family,
    c0_constant,
    partial_fraction_coeffs,
    small_t_weight,
    vt_cheb_coeffs,
    wtilde,
)
from .lattice import (
    KernelSlice,
    LatticeField,
    ModelSpec,
    ScalarKernel,
    apply_R,
    flatten_cycling,
    greens_reconstruct,
    kernel_slice,
)
from .oracle import GreensOracle, scalar_partition_check
from .continuum import RadialKernel, continuum_reconstruct, mollify, radial_kernel
from .field import (
    FieldSampler,
    FieldSample,
    PercolationResult,
    percolation_probe,
    sweep_levels,
)

__all__ = [
    "CertificateError", "halfline_certificate_cheb",
    "BumpProfile", "WeightFamily", "WeightParams", "aj_family",
    "build_bump_profile", "build_weight_family", "c0_constant",
    "partial_fraction_coeffs", "small_t_weight", "vt_cheb_coeffs", "wtilde",
    "KernelSlice", "LatticeField", "ModelSpec", "ScalarKernel", "apply_R",
    "flatten_cycling", "greens_reconstruct", "kernel_slice",
    "GreensOracle", "scalar_partition_check",
    "RadialKernel", "continuum_reconstruct", "mollify", "radial_kernel",
    "FieldSampler", "FieldSample", "PercolationResult", "percolation_probe",
    "sweep_levels",
]
