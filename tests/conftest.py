import pytest

from fdprofiles import Parameters, SolveConfig, solve_profile


@pytest.fixture(scope="session")
def solved():
    """Session-wide cache of solved parameter sets (solves are deterministic)."""
    cache = {}

    def get(n, m, alpha, beta, eta=1.0, **cfg_kwargs):
        key = (n, m, alpha, beta, eta, tuple(sorted(cfg_kwargs.items())))
        if key not in cache:
            p = Parameters(n=n, m=m, alpha=alpha, beta=beta, eta=eta)
            cache[key] = solve_profile(p, SolveConfig(**cfg_kwargs))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def eternal_n3(solved):
    """The workhorse case: n=3, m=0.2, beta=1, alpha=2*beta/(1-m)=2.5."""
    return solved(3, 0.2, 2.5, 1.0, r_max=25.0)
