"""Independent references the tests check the library against.

None of these is on a solver path, and none validates its input: the
tests build that input themselves.

- `secular_value`: the smallest singular value of I - U(k), the
  bond-scattering matrix, which vanishes exactly at the eigenvalues k > 0.
- `harmonic_interpolant` and `rayleigh_centered`: test functions with one
  frequency on every edge and their centred Rayleigh quotient, which by
  min-max bounds k1^2 from above.
- `brute_force_gap`: the best gap on the simplex grid { c / resolution },
  one `spectral_gap` at every grid point, with none of the optimizer's
  pruning.
"""

from typing import NamedTuple

import numpy as np

from qgraph import BondScattering, EdgeTrig, LengthVector, contract_zero_edges, spectral_gap
from qgraph.spectral import _gram


def secular_value(m, k: float) -> float:
    """Smallest singular value of I - U(k), k > 0."""
    return float(BondScattering(m).singular_values(k)[0])


def harmonic_interpolant(m, vertex_values, freq: float) -> EdgeTrig:
    """The f with f'' + freq^2 f = 0 on every edge that takes the vertex
    values at its ends; freq l_e < pi on every edge."""
    start, end = np.asarray(vertex_values, dtype=float)[m.graph.ends].reshape(2, m.graph.edge_count)
    kl = freq * m.lengths
    return EdgeTrig(freq, start, (end - start * np.cos(kl)) / np.sin(kl))


def rayleigh_centered(m, f: EdgeTrig) -> float:
    """Rayleigh quotient int f'^2 / int f^2 of a continuous test function
    minus its mean.  On each edge f'^2 + k^2 f^2 is the constant energy, so
    int f'^2 = sum_e energy_e l_e - k^2 ||f||^2."""
    norm_sq = float(_gram(f.k, f.amp_cos[None], f.amp_sin[None], m.lengths)[0, 0])
    energy = float(f.energies() @ m.lengths) - f.k**2 * norm_sq
    if f.k == 0.0:
        integral = float(f.amp_cos @ m.lengths)
    else:
        kl = f.k * m.lengths
        integral = float(f.amp_cos @ np.sin(kl) + f.amp_sin @ (1.0 - np.cos(kl))) / f.k
    return energy / (norm_sq - integral**2 / m.total_length)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


class GridPoint(NamedTuple):
    gap: float
    lengths: LengthVector


def brute_force_gap(g, resolution: int, mode: str = "max") -> GridPoint:
    """The grid point of largest (mode "max") or smallest ("min") gap; a
    later point wins only by more than 1e-12."""
    sign = 1.0 if mode == "max" else -1.0
    best = None
    for comp in _compositions(resolution, g.edge_count):
        lengths = LengthVector(np.array(comp, dtype=float) / resolution)
        gap, _ = spectral_gap(contract_zero_edges(g, lengths))
        if best is None or sign * gap > sign * best.gap + 1e-12:
            best = GridPoint(gap, lengths)
    return best
