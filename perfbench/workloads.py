"""The benchmark's workloads and the reference values their gates check.

Every workload uses the forced pendulum with alpha = 0.8, eps = 0.01,
integrator tolerance 1e-14 and Newton tolerance 1e-10, seeded from the
saddle x0 = (pi, 0).  See README.md for why each one was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

ALPHA = 0.8
EPS = 0.01
INTEGRATOR_TOL = 1e-14
NEWTON_TOL = 1e-10

# d=4 Floquet multipliers of the pendulum torus (ROADMAP reference values).
D4_MULTIPLIERS = (3.625204837874207e-3, 2.758464817115549e2)
# d=3 multipliers, recorded once at the seed commit from a single-shooting
# (r=1) Newton solve on the same 25^3 mesh; the r=2 lift must reproduce them.
D3_MULTIPLIERS = (3.625217871785935e-3, 2.758454899466657e2)

MULTIPLIER_RTOL = 1e-8
RESIDUAL_TOL = 1e-10
SEED_OFFSET_MAX = 1e-3  # Euclidean bound of the seeded x0 perturbation


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "desk": torus + manifold through the CLI; "newton": run_newton on a LiftedMap
    d: int
    N: int
    sections: int
    workers: int
    order: int = 0  # manifold order (desk only)
    multipliers: tuple = ()  # reference multipliers of the return map (newton only)

    @property
    def uses_seed(self) -> bool:
        return self.kind == "newton"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_d2", "desk", d=2, N=31, sections=1, workers=1, order=6),
        Workload(
            "newton_d4", "newton", d=4, N=11, sections=1, workers=1, multipliers=D4_MULTIPLIERS
        ),
        Workload(
            "lifted_d3_w2",
            "newton",
            d=3,
            N=25,
            sections=2,
            workers=2,
            multipliers=D3_MULTIPLIERS,
        ),
    )
}
