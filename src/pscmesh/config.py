"""Refinement configuration, sizing fields and the termination sanity check."""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_RHO_SURF_MIN = 1.0 / math.sqrt(3.0)
_RHO_VOL_MIN = math.sqrt(3.0 / 8.0)


class GridSizing:
    """Regular lattice of target edge lengths with trilinear interpolation.

    Queries outside the lattice clamp to the boundary values.
    """

    def __init__(self, origin, spacing, dims, values):
        self.origin = tuple(map(float, origin))
        self.spacing = tuple(map(float, spacing))
        self.dims = tuple(map(int, dims))
        if not (len(self.origin) == len(self.spacing) == len(self.dims) == 3
                and all(map(math.isfinite, self.origin))
                and all(0.0 < s < math.inf for s in self.spacing)
                and min(self.dims) > 0):
            raise ValidationError(
                "sizing grid needs 3 finite origin coordinates, 3 positive "
                "finite spacings and 3 positive dims")
        vals = np.asarray(values, dtype=np.float64)
        if vals.size != self.dims[0] * self.dims[1] * self.dims[2]:
            raise ValidationError("sizing grid value count does not match dims")
        if not ((vals > 0.0) & (vals < math.inf)).all():
            raise ValidationError("sizing values must be positive and finite")
        # x varies fastest in the flat input
        self.values = vals.reshape(self.dims[2], self.dims[1], self.dims[0])

    def value(self, p):
        nx, ny, nz = self.dims
        fx = (p[0] - self.origin[0]) / self.spacing[0]
        fy = (p[1] - self.origin[1]) / self.spacing[1]
        fz = (p[2] - self.origin[2]) / self.spacing[2]
        fx = min(max(fx, 0.0), nx - 1.0)
        fy = min(max(fy, 0.0), ny - 1.0)
        fz = min(max(fz, 0.0), nz - 1.0)
        i0 = min(int(fx), nx - 2) if nx > 1 else 0
        j0 = min(int(fy), ny - 2) if ny > 1 else 0
        k0 = min(int(fz), nz - 2) if nz > 1 else 0
        tx = fx - i0
        ty = fy - j0
        tz = fz - k0
        v = self.values
        i1 = min(i0 + 1, nx - 1)
        j1 = min(j0 + 1, ny - 1)
        k1 = min(k0 + 1, nz - 1)
        c00 = v[k0, j0, i0] * (1 - tx) + v[k0, j0, i1] * tx
        c10 = v[k0, j1, i0] * (1 - tx) + v[k0, j1, i1] * tx
        c01 = v[k1, j0, i0] * (1 - tx) + v[k1, j0, i1] * tx
        c11 = v[k1, j1, i0] * (1 - tx) + v[k1, j1, i1] * tx
        c0 = c00 * (1 - ty) + c10 * ty
        c1 = c01 * (1 - ty) + c11 * ty
        return float(c0 * (1 - tz) + c1 * tz)

    def min_value(self):
        return float(self.values.min())

    def max_value(self):
        return float(self.values.max())


class SizingField:
    """Uniform target edge length h0; ``GridSizing`` is the graded field,
    and ``RefineConfig.sizing`` takes either."""

    def __init__(self, h0):
        if not 0.0 < h0 < math.inf:
            raise ValidationError("uniform sizing must be positive and finite")
        self.h0 = h0

    def value(self, p):
        return self.h0

    def min_value(self):
        return self.h0

    def max_value(self):
        return self.h0


@dataclass
class RefineConfig:
    """All refinement thresholds and mode flags.

    Defaults follow the benchmark parameter set: surface radius-edge bound
    1.25, volume bound 2, surface-error fraction 1/4, size slack 4/3,
    volume-length floor 1/3 and collar spacing 3/2.
    """

    rho_surf: float = 1.25
    rho_vol: float = 2.0
    eps_rel: float = 0.25
    sizing: SizingField | GridSizing = None
    vlen_min: float = 1.0 / 3.0
    alpha: float = 4.0 / 3.0
    mode: str = "frontal"
    collar_beta: float = 1.5
    max_points: int = 5_000_000
    seed: int = 0

    def __post_init__(self):
        if self.sizing is None:
            raise ValidationError("config carries no sizing field")
        # a nan slips through the comparisons below and an inf switches a
        # bound off
        for name in ("rho_surf", "rho_vol", "eps_rel", "vlen_min", "alpha",
                     "collar_beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.rho_surf < _RHO_SURF_MIN - 1e-12:
            raise ValidationError(
                f"rho_surf below the attainable minimum 1/sqrt(3) ({_RHO_SURF_MIN:.4f})")
        if self.rho_vol < _RHO_VOL_MIN - 1e-12:
            raise ValidationError(
                f"rho_vol below the attainable minimum sqrt(3/8) ({_RHO_VOL_MIN:.4f})")
        if not (0.0 < self.vlen_min <= 1.0 / 3.0 + 1e-12):
            raise ValidationError(
                "vlen_min must lie in (0, 1/3]: refinement against the "
                "volume-length floor is only convergent up to 1/3")
        if self.eps_rel <= 0.0:
            raise ValidationError("eps_rel must be positive")
        if self.alpha <= 0.0:
            raise ValidationError("alpha must be positive")
        if self.collar_beta < 1.0:
            raise ValidationError("collar spacing factor must be >= 1")
        # a nan budget never trips, a float seed cannot key the jitter and
        # a numpy one would wrap in its 64-bit key
        for name in ("max_points", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValidationError(f"{name} must be an integer")
            setattr(self, name, int(getattr(self, name)))
        if self.max_points < 0:
            raise ValidationError("max_points must not be negative")
        # the jitter keys on seed << 32 in 64 bits, so seeds that agree
        # modulo 2**32 would give the same mesh
        if not 0 <= self.seed < 2 ** 32:
            raise ValidationError("seed must lie in [0, 2**32)")
        if self.mode not in ("classical", "frontal"):
            raise ValidationError(f"unknown mode {self.mode!r}")


def check_termination_bounds(cfg):
    """Warn when the radius-edge bounds undercut the guaranteed-termination
    region for the configured sizing; practice usually outperforms these
    bounds, so this never fails the run.

    The size ratio nu0 = 2 mu0 / gamma0 takes the sizing field's maximum
    mu0 and minimum gamma0 over its whole domain (a grid's extreme
    values).
    """
    sizing = cfg.sizing
    mu0 = sizing.max_value()
    gamma0 = sizing.min_value()
    nu0 = 2.0 * mu0 / gamma0
    k = math.sqrt(2.0) + 2.0
    return [f"{name}={rho:g} is below the guaranteed-termination bound "
            f"{bound:.3f} (size ratio nu0={nu0:g}); refinement usually "
            "outperforms the bound in practice"
            for name, rho, bound in (
                ("rho_surf", cfg.rho_surf, k * nu0),
                ("rho_vol", cfg.rho_vol, k * nu0 * (nu0 + 2.0)))
            if rho < bound]
