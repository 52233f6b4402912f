"""The benchmark's workloads: one input model and one uniform size each.

Every workload refines in frontal mode with the CLI defaults; only the
input complex and the uniform target size ``h`` differ.  Why each was
chosen is recorded in README.md next to this file.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    model: str          # function of pscmesh.models
    model_args: tuple
    h: float
    meshes: int         # jitter seeds per untraced run
    rep_s: float        # typical seconds of one repetition, 2-vCPU host


WORKLOADS = {
    w.name: w for w in (
        # 320 input triangles, no curves: output size drives the cost
        Workload("sphere", "icosphere", (2,), 0.4, 7, 2.15),
        # cube creases plus a 20 degree V-curve: curve classification
        Workload("crease", "wedge", (), 0.35, 7, 2.2),
        # 5,120 input triangles: input size drives the cost
        Workload("dense_surface", "icosphere", (4,), 0.7, 2, 3.8),
    )
}


SEED_STRIDE = 1_000_000     # derived seeds never collide for --seed < stride
TRACE_COST = 1.4            # a traced repetition takes up to this much longer


def mesh_seeds(workload, seed):
    """The jitter seeds of an untraced run: --seed itself first."""
    return [seed + SEED_STRIDE * j for j in range(workload.meshes)]


def plan(workload, seed, seconds, trace):
    """[(jitter seed, traced?)] of every repetition of one run.

    The count follows from ``seconds`` and the workload's typical
    repetition time alone, never from the clock, so a run at a given seed
    and length always attempts the same repetitions.  Untraced runs refine
    each of ``mesh_seeds`` the same number of times, round-robin, so that
    every mesh is timed in every part of the run.  Trace runs repeat
    --seed itself as untraced, traced, traced, untraced, ...
    """
    if trace:
        n = max(3, int(seconds / (TRACE_COST * workload.rep_s)))
        return [(seed, i % 3 != 0) for i in range(n)]
    seeds = mesh_seeds(workload, seed)
    rounds = max(1, int(seconds / (len(seeds) * workload.rep_s)))
    return [(s, False) for _ in range(rounds) for s in seeds]


def make_config(h, seed):
    """The CLI's default refinement settings at a uniform size h."""
    from pscmesh.config import RefineConfig, SizingField
    return RefineConfig(rho_surf=1.25, rho_vol=2.0, eps_rel=0.25,
                        sizing=SizingField(h0=h), vlen_min=1.0 / 3.0,
                        alpha=4.0 / 3.0, mode="frontal", collar_beta=1.5,
                        max_points=5_000_000, seed=seed)


def build_input(workload):
    """The workload's input complex, generated from pscmesh.models."""
    from pscmesh import models
    return getattr(models, workload.model)(*workload.model_args)
