"""Fixture registry: conformal log-factors, shape builders, the battery.

`build` makes every shape `membrane-spectra gen` offers.  Battery names
(`disc`, `hemisphere`, `cap-pi6`, `cap-pi3`, `conformal-<seed>`,
`branched`) resolve through one table into `build` arguments, so the
`batch` command and the acceptance suite construct the same instances;
`<seed>` is the decimal form of an integer >= 0 (`7`, not `07`).
"""

from __future__ import annotations

import re

import numpy as np

from . import mesh as meshmod
from .transplant import disc_map_from_positions, identity_map_from_positions

SHAPES = ["disc", "cap", "annulus", "branched-disc", "conformal-disc"]

# the `batch` command's fixture set
BATTERY = ["disc", "hemisphere", "cap-pi6", "cap-pi3",
           "conformal-0", "conformal-1", "branched"]

# battery name -> (shape, keyword arguments of `build`); `conformal-<seed>`
# is resolved separately for every seed
_NAMED = {
    "disc": ("disc", {}),
    "hemisphere": ("cap", {"colatitude": np.pi / 2}),
    "cap-pi6": ("cap", {"colatitude": np.pi / 6}),
    "cap-pi3": ("cap", {"colatitude": np.pi / 3}),
    "branched": ("branched-disc", {}),
}


def random_log_factor(seed: int, amplitude: float = 1.0):
    """Smooth random conformal log-factor, bounded by `amplitude`.

    A low-order harmonic polynomial in z with seeded coefficients,
    rescaled so that max |phi| over the disc equals `amplitude`.
    """
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(6)

    def phi(z):
        z = np.asarray(z, dtype=complex)
        raw = (coeff[0] * z.real + coeff[1] * z.imag
               + coeff[2] * (z ** 2).real + coeff[3] * (z ** 2).imag
               + coeff[4] * (z ** 3).real + coeff[5] * (z ** 3).imag)
        # bound on the closed disc: |Re z^k|, |Im z^k| <= 1
        bound = np.sum(np.abs(coeff))
        return amplitude * raw / bound

    return phi


def build(shape: str, resolution: int, *, colatitude: float = np.pi / 2,
          inner_radius: float = 0.5, seed: int = 0, amplitude: float = 1.0):
    """(mesh, map) of one of `SHAPES`; the annulus carries no map (None)."""
    if shape == "disc":
        m = meshmod.generate_disc(resolution)
        return m, identity_map_from_positions(m)
    if shape == "cap":
        m = meshmod.generate_spherical_cap(colatitude, resolution)
        return m, disc_map_from_positions(m)
    if shape == "annulus":
        return meshmod.generate_annulus(inner_radius, resolution), None
    if shape == "branched-disc":
        return meshmod.generate_branched_double_disc(resolution)
    if shape == "conformal-disc":
        return meshmod.generate_conformal_disc(
            resolution, random_log_factor(seed, amplitude))
    raise ValueError(f"unknown shape {shape!r}")


def instance(name: str, resolution: int):
    """(mesh, map) of the battery fixture `name` at `resolution`."""
    seed = re.fullmatch(r"conformal-(0|[1-9][0-9]*)", name)
    if seed:
        return build("conformal-disc", resolution, seed=int(seed[1]))
    if name not in _NAMED:
        raise ValueError(f"unknown fixture {name!r}")
    shape, kwargs = _NAMED[name]
    return build(shape, resolution, **kwargs)
