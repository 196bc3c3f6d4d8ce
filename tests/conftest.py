import pytest

from frdecomp import (
    ModelSpec,
    WeightParams,
    build_bump_profile,
    build_weight_family,
)
from frdecomp.oracle import GreensOracle


@pytest.fixture(scope="session")
def profile_quarter():
    return build_bump_profile(0.25)


@pytest.fixture(scope="session")
def profile_half():
    return build_bump_profile(0.5)


@pytest.fixture(scope="session")
def gff3(profile_quarter):
    params = WeightParams.for_model("gff", 3)
    return build_weight_family(params, profile_quarter)


@pytest.fixture(scope="session")
def membrane5(profile_quarter):
    params = WeightParams.for_model("membrane", 5)
    return build_weight_family(params, profile_quarter)


@pytest.fixture(scope="session")
def spec_gff3():
    return ModelSpec(model="gff", d=3)


@pytest.fixture(scope="session")
def spec_membrane5():
    return ModelSpec(model="membrane", d=5)


@pytest.fixture(scope="session")
def greens_oracle_gff3(spec_gff3):
    return GreensOracle(spec_gff3)
